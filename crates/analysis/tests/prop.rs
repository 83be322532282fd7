//! Property tests for the static analyses: execution-tree enumeration
//! against a brute-force DAG path counter, entry detection, and path
//! estimators. Random DAGs are drawn from `lisa_util::Prng` with fixed
//! seeds so each case reproduces exactly.

use lisa_analysis::{execution_tree, paths_through_fn, CallGraph, TargetSpec, TreeLimits};
use lisa_lang::Program;
use lisa_util::Prng;

/// Build a program whose call graph is the DAG given by `edges` over
/// `n` functions (edges only from lower to higher index, so acyclic).
/// The target callee `target()` is called from function `f{n-1}`.
fn dag_program(n: usize, edges: &[(usize, usize)]) -> Program {
    let mut src = String::from("fn target() { log(\"hit\"); }\n");
    for i in (0..n).rev() {
        let mut body = String::new();
        if i == n - 1 {
            body.push_str("    target();\n");
        }
        for &(a, b) in edges {
            if a == i {
                body.push_str(&format!("    f{b}();\n"));
            }
        }
        src.push_str(&format!("fn f{i}() {{\n{body}}}\n"));
    }
    Program::parse_single("dag", &src).expect("dag parses")
}

/// Brute-force: number of paths from each source (no incoming edges,
/// or unreachable-to-target roots) to node n-1 in the DAG.
fn brute_force_chains(n: usize, edges: &[(usize, usize)]) -> usize {
    // paths[i] = number of DAG paths from i to n-1.
    let mut paths = vec![0u64; n];
    paths[n - 1] = 1;
    for i in (0..n).rev() {
        if i == n - 1 {
            continue;
        }
        paths[i] = edges.iter().filter(|&&(a, _)| a == i).map(|&(_, b)| paths[b]).sum();
    }
    let has_incoming = |i: usize| edges.iter().any(|&(_, b)| b == i);
    (0..n)
        .filter(|&i| !has_incoming(i))
        .map(|i| paths[i] as usize)
        .sum()
}

/// Random DAG: node count in [2, 6], each forward edge kept with
/// probability 1/2 (a random subsequence of all forward edges).
fn gen_dag(rng: &mut Prng) -> (usize, Vec<(usize, usize)>) {
    let n = 2 + rng.gen_index(5);
    let edges: Vec<(usize, usize)> = (0..n)
        .flat_map(|a| ((a + 1)..n).map(move |b| (a, b)))
        .filter(|_| rng.gen_bool(0.5))
        .collect();
    (n, edges)
}

#[test]
fn chain_count_matches_brute_force() {
    let mut rng = Prng::seed_from_u64(0xda6_0001);
    for _ in 0..128 {
        let (n, edges) = gen_dag(&mut rng);
        let p = dag_program(n, &edges);
        let g = CallGraph::build(&p);
        let tree = execution_tree(
            &g,
            &TargetSpec::Call { callee: "target".into() },
            TreeLimits { max_chains: 100_000, max_depth: 64 },
        );
        assert!(!tree.truncated);
        let expected = brute_force_chains(n, &edges);
        assert_eq!(tree.chains.len(), expected, "n={n} edges={edges:?}");
    }
}

#[test]
fn chains_start_at_true_entries() {
    let mut rng = Prng::seed_from_u64(0xda6_0002);
    for _ in 0..128 {
        let (n, edges) = gen_dag(&mut rng);
        let p = dag_program(n, &edges);
        let g = CallGraph::build(&p);
        let entries = g.entry_functions();
        let tree = execution_tree(
            &g,
            &TargetSpec::Call { callee: "target".into() },
            TreeLimits { max_chains: 100_000, max_depth: 64 },
        );
        for chain in &tree.chains {
            assert!(
                entries.contains(&chain.entry),
                "chain entry {} is not an entry function {:?}",
                chain.entry,
                entries
            );
        }
    }
}

#[test]
fn chains_are_acyclic() {
    let mut rng = Prng::seed_from_u64(0xda6_0003);
    for _ in 0..128 {
        let (n, edges) = gen_dag(&mut rng);
        let p = dag_program(n, &edges);
        let g = CallGraph::build(&p);
        let tree = execution_tree(
            &g,
            &TargetSpec::Call { callee: "target".into() },
            TreeLimits { max_chains: 100_000, max_depth: 64 },
        );
        for chain in &tree.chains {
            let fns: Vec<&str> = chain.functions(&g).collect();
            let mut dedup = fns.clone();
            dedup.sort();
            dedup.dedup();
            assert_eq!(dedup.len(), fns.len(), "cycle in {fns:?}");
        }
    }
}

#[test]
fn path_count_at_least_one_and_multiplicative() {
    // k sequential ifs yield exactly 2^k paths.
    for k in 0usize..8 {
        let mut body = String::new();
        for i in 0..k {
            body.push_str(&format!("    if (x > {i}) {{ log(\"b\"); }}\n"));
        }
        let src = format!("fn f(x: int) {{\n{body}}}\n");
        let p = Program::parse_single("t", &src).expect("parse");
        let f = p.function("f").expect("fn");
        assert_eq!(paths_through_fn(f), 1u64 << k);
    }
}
