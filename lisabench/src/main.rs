//! `lisabench --workload <gate-cold|gate-warm|serve-durable> --seed <n>
//! --seconds <s> --trace <0|1>`: prints a report, then one JSON line
//! with `correct`, `attempted`, `failed` and `metrics`. Exits 1 when a
//! verdict disagrees with ground truth or a request fails, 2 when the
//! run cannot be set up.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match lisabench::bench::parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("lisabench: {e}");
            return ExitCode::from(2);
        }
    };
    match lisabench::bench::run(&args) {
        Ok(outcome) => {
            for line in &outcome.lines {
                println!("{line}");
            }
            for e in outcome.errors.iter().take(10) {
                eprintln!("lisabench: failed: {e}");
            }
            println!("{}", outcome.json());
            if outcome.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("lisabench: {e}");
            ExitCode::from(2)
        }
    }
}
