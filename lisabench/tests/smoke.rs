//! A short run of every workload, untraced and traced, through the
//! binary: each must end with a correct JSON result line carrying
//! exactly the metrics its mode promises.

use std::process::Command;

const END_TO_END: [&str; 5] = [
    "latency_ms_p50",
    "latency_ms_p95",
    "throughput_per_s",
    "peak_rss_mb",
    "setup_s",
];

fn run(workload: &str, trace: u8) -> String {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("lisabench-smoke-{workload}-{trace}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    let out = Command::new(env!("CARGO_BIN_EXE_lisabench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "5",
            "--seconds",
            "2",
            "--trace",
        ])
        .arg(trace.to_string())
        .current_dir(&dir)
        .output()
        .expect("run lisabench");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "{workload}: {stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let leftovers: Vec<_> = std::fs::read_dir(&dir)
        .expect("read dir")
        .filter_map(|e| e.ok().map(|e| e.file_name().to_string_lossy().into_owned()))
        .filter(|n| n != ".lisabench-out")
        .collect();
    assert!(
        leftovers.is_empty(),
        "{workload}: left behind {leftovers:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
    stdout.lines().last().expect("a result line").to_string()
}

/// The metric names of a result line, in order: each is the string
/// just before a `":{"value"`.
fn metric_names(line: &str) -> Vec<String> {
    let parts: Vec<&str> = line.split("\":{\"value\"").collect();
    parts[..parts.len() - 1]
        .iter()
        .map(|p| p.rsplit('"').next().expect("a quoted name").to_string())
        .collect()
}

#[test]
fn every_workload_runs_and_checks_its_verdicts() {
    for workload in ["gate-cold", "gate-warm", "serve-durable"] {
        let line = run(workload, 0);
        assert!(line.starts_with("{\"correct\":true,"), "{workload}: {line}");
        assert!(line.contains("\"failed\":0,"), "{workload}: {line}");
        assert_eq!(metric_names(&line), END_TO_END, "{workload}: {line}");
    }
}

#[test]
fn traced_run_reports_every_layer() {
    let line = run("gate-warm", 1);
    assert!(line.starts_with("{\"correct\":true,"), "{line}");
    let names = metric_names(&line);
    for want in [
        "lang.load_us_p50",
        "analysis.callgraph_us_p50",
        "concolic.run_us_p50",
        "smt.query_us_p50",
        "pipeline.self_us_p50",
        "sched.steal_ratio",
        "cache.trace.hit_ratio",
        "store.append_us_p50",
        "repl.frames_per_job",
        "serve.fabric_us_p99",
        "loadgen.late_ms_p99",
        "trace.unattributed_share",
        "trace.overhead_ratio",
    ] {
        assert!(
            names.iter().any(|n| n == want),
            "{want} missing from {line}"
        );
    }
    assert!(
        !names.iter().any(|n| n == "setup_s"),
        "traced runs report layers only"
    );
}
