//! End-to-end tests for the `lisa` CLI: load a system from `.sir` files,
//! author rules from a rules file, and gate — exit codes double as the
//! CI contract.

use std::io::Write as _;
use std::process::Command;

const SYSTEM: &str = r#"
struct Order { id: int, paid: bool, cancelled: bool }
global orders: map<int, Order>;
global shipped: map<int, int>;

fn ship_order(o: Order, courier: int) { shipped.put(o.id, courier); }

fn checkout_ship(oid: int, courier: int) {
    let o: Order = orders.get(oid);
    if (o == null || o.paid == false || o.cancelled) { return; }
    ship_order(o, courier);
}

fn admin_reship(oid: int, courier: int) {
    let ord: Order = orders.get(oid);
    if (ord == null || ord.paid == false) { return; }
    ship_order(ord, courier);
}

fn seed(id: int, paid: bool, cancelled: bool) {
    orders.put(id, new Order { id: id, paid: paid, cancelled: cancelled });
}

fn test_checkout() { seed(1, true, false); checkout_ship(1, 7); assert(shipped.contains(1), "ok"); }
fn test_reship() { seed(2, true, false); admin_reship(2, 9); assert(shipped.contains(2), "ok"); }
"#;

const RULES: &str = "# shield rule\n\
    when calling ship_order, require o != null && o.paid == true && o.cancelled == false\n";

struct Fixture {
    dir: std::path::PathBuf,
}

impl Fixture {
    fn new(tag: &str) -> Fixture {
        let dir = std::env::temp_dir().join(format!("lisa-cli-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let mut f = std::fs::File::create(dir.join("orders.sir")).expect("sir");
        f.write_all(SYSTEM.as_bytes()).expect("write");
        let mut f = std::fs::File::create(dir.join("rules.txt")).expect("rules");
        f.write_all(RULES.as_bytes()).expect("write");
        Fixture { dir }
    }

    fn run(&self, args: &[&str]) -> (i32, String) {
        let out = Command::new(env!("CARGO_BIN_EXE_lisa"))
            .args(args)
            .output()
            .expect("spawn lisa");
        let text = format!(
            "{}{}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
        (out.status.code().unwrap_or(-1), text)
    }

    fn system(&self) -> String {
        self.dir.to_string_lossy().into_owned()
    }

    fn rules(&self) -> String {
        self.dir.join("rules.txt").to_string_lossy().into_owned()
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

#[test]
fn gate_blocks_the_unguarded_path_with_exit_code_1() {
    let fx = Fixture::new("gate");
    let (code, out) = fx.run(&["gate", "--system", &fx.system(), "--rules", &fx.rules()]);
    assert_eq!(code, 1, "{out}");
    assert!(out.contains("decision: BLOCK"), "{out}");
    assert!(out.contains("admin_reship"), "{out}");
    assert!(out.contains("o.cancelled = true"), "{out}");
}

#[test]
fn check_reports_chain_verdicts() {
    let fx = Fixture::new("check");
    let (code, out) = fx.run(&["check", "--system", &fx.system(), "--rules", &fx.rules()]);
    assert_eq!(code, 1, "{out}");
    assert!(out.contains("[VIOLATED] admin_reship"), "{out}");
    assert!(out.contains("[verified] checkout_ship"), "{out}");
}

#[test]
fn suggest_mines_existing_guards() {
    let fx = Fixture::new("suggest");
    let (code, out) =
        fx.run(&["suggest", "--system", &fx.system(), "--target", "ship_order"]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("o != null && o.paid && !o.cancelled"), "{out}");
}

#[test]
fn paths_lists_execution_chains() {
    let fx = Fixture::new("paths");
    let (code, out) = fx.run(&["paths", "--system", &fx.system(), "--target", "ship_order"]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("2 chain(s)"), "{out}");
    assert!(out.contains("checkout_ship [ship_order]"), "{out}");
    assert!(out.contains("admin_reship [ship_order]"), "{out}");
}

#[test]
fn usage_errors_exit_2() {
    let fx = Fixture::new("usage");
    let (code, out) = fx.run(&["frobnicate"]);
    assert_eq!(code, 2, "{out}");
    assert!(out.contains("usage:"), "{out}");
    let (code, _) = fx.run(&["gate", "--system", &fx.system()]);
    assert_eq!(code, 2);
    let (code, out) = fx.run(&["gate", "--system", "/no/such/dir", "--rules", &fx.rules()]);
    assert_eq!(code, 2, "{out}");
}

#[test]
fn flags_a_subcommand_does_not_read_exit_2() {
    let fx = Fixture::new("flags");
    let (sys, rules) = (fx.system(), fx.rules());
    // Misspelt knobs must not run the gate at their defaults; the first
    // unknown flag, in argument order, is named.
    let (code, out) = fx.run(&[
        "gate", "--system", &sys, "--rules", &rules, "--failmode", "open", "--wokers", "8",
    ]);
    assert_eq!(code, 2, "{out}");
    assert!(out.contains("unknown flag --failmode for `gate`"), "{out}");
    assert!(!out.contains("decision:"), "the gate must not run: {out}");
    let (code, out) =
        fx.run(&["resume", "--system", &sys, "--rules", &rules, "--cache-queries", "3"]);
    assert_eq!(code, 2, "{out}");
    assert!(out.contains("unknown flag --cache-queries for `resume`"), "{out}");
    // A real flag of one subcommand is unknown to another that ignores it.
    let (code, out) =
        fx.run(&["paths", "--system", &sys, "--target", "ship_order", "--cache", "off"]);
    assert_eq!(code, 2, "{out}");
    assert!(out.contains("unknown flag --cache for `paths`"), "{out}");
    let (code, out) = fx.run(&["check", "--system", &sys, "--rules", &rules, "--workers", "2"]);
    assert_eq!(code, 2, "{out}");
    assert!(out.contains("unknown flag --workers for `check`"), "{out}");
    // What a subcommand does read, and the flags every one accepts, pass.
    let metrics = fx.dir.join("m.json").to_string_lossy().into_owned();
    let (code, out) = fx.run(&[
        "check", "--system", &sys, "--rules", &rules, "--rag", "1", "--verbose", "--metrics-out",
        &metrics,
    ]);
    assert_eq!(code, 1, "{out}");
    let (code, out) =
        fx.run(&["paths", "--system", &sys, "--target", "ship_order", "--verbose"]);
    assert_eq!(code, 0, "{out}");
}

#[test]
fn bad_rules_file_reports_line() {
    let fx = Fixture::new("badrules");
    std::fs::write(fx.dir.join("bad.txt"), "please be correct\n").expect("write");
    let bad = fx.dir.join("bad.txt").to_string_lossy().into_owned();
    let (code, out) = fx.run(&["gate", "--system", &fx.system(), "--rules", &bad]);
    assert_eq!(code, 2, "{out}");
    assert!(out.contains(":1:"), "error should carry the line: {out}");
}

#[test]
fn gate_passes_after_the_fix() {
    let fx = Fixture::new("fixed");
    // Apply the fix the gate asks for.
    let fixed = SYSTEM.replace(
        "if (ord == null || ord.paid == false) { return; }",
        "if (ord == null || ord.paid == false || ord.cancelled) { return; }",
    );
    std::fs::write(fx.dir.join("orders.sir"), fixed).expect("write");
    let (code, out) = fx.run(&["gate", "--system", &fx.system(), "--rules", &fx.rules()]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("decision: PASS"), "{out}");
}

#[test]
fn json_format_emits_machine_readable_gate() {
    let fx = Fixture::new("json");
    let (code, out) = fx.run(&[
        "gate",
        "--system",
        &fx.system(),
        "--rules",
        &fx.rules(),
        "--format",
        "json",
    ]);
    assert_eq!(code, 1, "{out}");
    let line = out.lines().find(|l| l.starts_with('{')).expect("json line");
    // The schema is versioned and the version leads the document — CI
    // consumers pin on this, so a bump must be deliberate.
    assert!(line.starts_with("{\"schema_version\":3,"), "{line}");
    assert!(line.contains("\"decision\":\"BLOCK\""), "{line}");
    assert!(line.contains("\"verdict\":\"VIOLATED\""), "{line}");
    assert!(line.ends_with('}'), "{line}");
    // No human-readable noise in json mode.
    assert!(!out.contains("== LISA gate"), "{out}");
}

#[test]
fn a_faulted_durable_run_never_answers_a_clean_one() {
    // The CI cache-smoke fixture: no `admin_reship`, two rules, and the
    // gate passes.
    let fx = Fixture::new("fault-resume");
    let reship = SYSTEM.find("fn admin_reship").expect("admin_reship");
    let seed = SYSTEM.find("fn seed").expect("seed");
    let system: String = format!("{}{}", &SYSTEM[..reship], &SYSTEM[seed..])
        .lines()
        .filter(|l| !l.starts_with("fn test_reship"))
        .map(|l| format!("{l}\n"))
        .collect();
    assert!(!system.contains("reship"), "{system}");
    std::fs::write(fx.dir.join("orders.sir"), system).expect("write");
    std::fs::write(
        fx.dir.join("rules.txt"),
        "when calling ship_order, require o != null && o.paid == true && o.cancelled == false\n\
         when calling ship_order, require o.cancelled == false\n",
    )
    .expect("write");
    let (system, rules) = (fx.system(), fx.rules());
    let gate = |state: &str, extra: &[&str]| {
        let dir = fx.dir.join(state).to_string_lossy().into_owned();
        let mut args = vec!["gate", "--system", &system, "--rules", &rules, "--state", &dir];
        args.extend_from_slice(extra);
        fx.run(&args)
    };
    let (_, out) = gate("state", &["--fault-seed", "3", "--fault-rate", "1.0"]);
    assert!(out.contains("engine_errors=1"), "the drill must fault a rule: {out}");
    // A clean run in the drill's state dir decides like one in a fresh
    // dir: the faulted verdicts are archived, never resumed.
    let (code, out) = gate("state", &[]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("PASS — 2 rule(s), 0 reused from journal, 2 fresh"), "{out}");
    let (code, out) = gate("fresh", &[]);
    assert_eq!(code, 0, "{out}");
    assert_eq!(
        std::fs::read(fx.dir.join("state/wal.log")).expect("wal"),
        std::fs::read(fx.dir.join("fresh/wal.log")).expect("fresh wal"),
        "a used state dir must journal what a fresh one does"
    );
}
