//! Concolic engine benchmarks: interpreter throughput, tracer overhead,
//! and the pruning policy's effect (the quantitative side of experiment
//! E8).

use lisa_bench::harness::{bench, group};

use lisa_analysis::{AliasMap, TargetSpec};
use lisa_concolic::{ConcolicTracer, Policy};
use lisa_lang::{Interp, NullTracer, Program, Value};

fn hot_loop_program() -> Program {
    Program::parse_single(
        "bench",
        "fn spin(n: int) -> int {\n\
             let acc = 0;\n\
             let i = 0;\n\
             while (i < n) {\n\
                 if (i % 3 == 0) { acc = acc + i; } else { acc = acc - 1; }\n\
                 i = i + 1;\n\
             }\n\
             return acc;\n\
         }",
    )
    .expect("program")
}

fn guarded_program(guards: usize) -> Program {
    let mut src = String::from(
        "struct E { id: int, ok: bool }\n\
         global store: map<int, E>;\n\
         global out: map<str, int>;\n\
         global knobs: map<int, int>;\n\
         fn act(e: E, tag: str) { out.put(tag, e.id); }\n\
         fn drive(eid: int, tag: str) {\n\
             let e: E = store.get(eid);\n\
             if (e == null || e.ok == false) { return; }\n",
    );
    for i in 0..guards {
        src.push_str(&format!(
            "    let k{i} = knobs.get({i});\n    if (k{i} > 10) {{ log(\"hot\"); }}\n"
        ));
    }
    src.push_str(
        "    act(e, tag);\n}\n\
         fn seed() { store.put(1, new E { id: 1, ok: true }); }\n",
    );
    Program::parse_single("bench", &src).expect("program")
}

fn bench_interp() {
    let p = hot_loop_program();
    group("interp/spin_loop");
    for n in [100i64, 1_000, 10_000] {
        bench(&format!("interp/spin_loop/{n}"), || {
            let mut interp = Interp::new(&p);
            interp
                .call("spin", vec![Value::Int(n)], &mut NullTracer)
                .expect("run")
        });
    }
}

fn bench_tracer_overhead() {
    let p = guarded_program(64);
    let target = TargetSpec::Call { callee: "act".into() };
    let mut aliases = AliasMap::default();
    aliases.insert("drive", "e", "e");
    aliases.insert("act", "e", "e");

    group("concolic/policy_overhead");
    bench("concolic/policy_overhead/null_tracer", || {
        let mut interp = Interp::new(&p);
        interp.call("seed", vec![], &mut NullTracer).expect("seed");
        interp
            .call("drive", vec![Value::Int(1), Value::Str("t".into())], &mut NullTracer)
            .expect("drive")
    });
    bench("concolic/policy_overhead/relevant_only", || {
        let mut interp = Interp::new(&p);
        let mut tr = ConcolicTracer::new(&target, &aliases, Policy::RelevantOnly);
        interp.call("seed", vec![], &mut tr).expect("seed");
        interp
            .call("drive", vec![Value::Int(1), Value::Str("t".into())], &mut tr)
            .expect("drive");
        assert_eq!(tr.hits.len(), 1);
    });
    bench("concolic/policy_overhead/record_all", || {
        let mut interp = Interp::new(&p);
        let mut tr = ConcolicTracer::new(&target, &aliases, Policy::RecordAll);
        interp.call("seed", vec![], &mut tr).expect("seed");
        interp
            .call("drive", vec![Value::Int(1), Value::Str("t".into())], &mut tr)
            .expect("drive");
        assert_eq!(tr.hits.len(), 1);
    });
}

fn bench_pruning_scaling() {
    group("concolic/pruning_scaling");
    for guards in [16usize, 64, 256] {
        let p = guarded_program(guards);
        let target = TargetSpec::Call { callee: "act".into() };
        let mut aliases = AliasMap::default();
        aliases.insert("drive", "e", "e");
        for (name, policy) in
            [("pruned", Policy::RelevantOnly), ("unpruned", Policy::RecordAll)]
        {
            bench(&format!("concolic/pruning_scaling/{name}/{guards}"), || {
                let mut interp = Interp::new(&p);
                let mut tr = ConcolicTracer::new(&target, &aliases, policy.clone());
                interp.call("seed", vec![], &mut tr).expect("seed");
                interp
                    .call("drive", vec![Value::Int(1), Value::Str("t".into())], &mut tr)
                    .expect("drive");
                tr.hits.len()
            });
        }
    }
}

fn main() {
    bench_interp();
    bench_tracer_overhead();
    bench_pruning_scaling();
}
