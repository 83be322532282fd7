//! E4 — Figure 5: the system workflow, stage by stage, averaged over the
//! corpus. For every ticket: collect bundle → LLM-sim inference →
//! translation/validation → call-graph + execution tree → test selection
//! → concolic execution → SMT verdicts.

use std::time::Instant;

use lisa::report::Table;
use lisa::{Pipeline, PipelineConfig, TestSelection};
use lisa_analysis::{execution_tree_filtered, CallGraph, TreeLimits};
use lisa_corpus::all_cases;
use lisa_experiments::{mined_rule, ms, section};
use lisa_oracle::{infer_rules, validate_rule, TestIndex};

fn main() {
    let cases = all_cases();
    let mut stage = [std::time::Duration::ZERO; 6];
    let mut sizes = (0usize, 0usize, 0u64, 0u64); // rules, chains, hits, solver calls

    for case in &cases {
        // Stage 1: inference from the ticket bundle.
        let t = Instant::now();
        let inferred = infer_rules(case.original_ticket());
        stage[0] += t.elapsed();
        let Ok(out) = inferred else { continue };
        sizes.0 += out.rules.len();

        // Stage 2: translation already happened inside inference; static
        // validation against the enforcement version.
        let rule = mined_rule(case);
        let version = &case.versions.regressed;
        let t = Instant::now();
        let _ = validate_rule(&version.program, &rule);
        stage[1] += t.elapsed();

        // Stage 3: call graph + execution tree.
        let t = Instant::now();
        let graph = CallGraph::build(&version.program);
        let tree = execution_tree_filtered(&graph, &rule.target, TreeLimits::default(), &|f| {
            f.starts_with("test_")
        });
        stage[2] += t.elapsed();
        sizes.1 += tree.chains.len();

        // Stage 4: embedding index + selection.
        let t = Instant::now();
        let index = TestIndex::build(&version.test_summaries());
        for chain in &tree.chains {
            let desc = lisa_oracle::describe_path(
                chain.entry,
                &chain.functions(&graph).collect::<Vec<_>>(),
                rule.target.callee(),
                &rule.condition_src,
            );
            let _ = index.query(&desc, 3);
        }
        stage[3] += t.elapsed();

        // Stage 5+6: concolic execution and SMT verdicts (the pipeline
        // measures them together; solver calls are counted separately).
        let pipeline = Pipeline::new(PipelineConfig {
            selection: TestSelection::Rag { k: 3 },
            ..PipelineConfig::default()
        });
        let t = Instant::now();
        let report = pipeline.check_rule(version, &rule);
        stage[4] += t.elapsed();
        sizes.2 += report.stats.target_hits;
        sizes.3 += report.stats.solver_calls;

        // SMT-only share, re-measured on the recorded hits.
        let t = Instant::now();
        for _ in 0..report.stats.solver_calls {
            let _ = lisa_smt::violates(&rule.condition, &rule.condition);
        }
        stage[5] += t.elapsed();
    }

    section("E4: Figure 5 — workflow stages over 16 tickets");
    let mut t = Table::new(&["stage", "total (ms)", "notes"]);
    let notes = [
        format!("{} rules inferred from 16 tickets", sizes.0),
        "placeholder/field validation against the codebase".to_string(),
        format!("{} execution-tree chains", sizes.1),
        "hashed tf-idf embeddings, top-3 per chain".to_string(),
        format!("{} target hits / {} solver calls", sizes.2, sizes.3),
        "re-measured checker-vs-checker SMT baseline".to_string(),
    ];
    let labels = [
        "1. semantics inference (LLM sim)",
        "2. translation + static validation",
        "3. call graph + execution tree",
        "4. test selection (RAG)",
        "5. concolic assertion + verdicts",
        "6. SMT share (diagnostic)",
    ];
    for i in 0..6 {
        t.row(&[labels[i].to_string(), ms(stage[i]), notes[i].clone()]);
    }
    println!("{}", t.render());
    let total: std::time::Duration = stage[..5].iter().sum();
    println!("end-to-end (stages 1-5): {} ms for the whole corpus", ms(total));
}
