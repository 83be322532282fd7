#!/usr/bin/env bash
# CI entry point: build, test, lint. Mirrors the tier-1 gate the repo is
# held to; run from the workspace root.
set -euo pipefail
cd "$(dirname "$0")/.."

# The tracked tree as this run found it (empty outside a git work tree),
# compared once every step has run.
TRACKED_BEFORE=""
if git rev-parse --is-inside-work-tree > /dev/null 2>&1; then
    TRACKED_BEFORE=$(git diff --binary | cksum)
fi

cargo build --release
cargo test -q
cargo clippy --workspace --all-targets -- -D warnings

# No call sites may depend on deprecated APIs: the old free-function
# entry points are gone, and nothing new may rot behind a deprecation
# warning either.
RUSTFLAGS="-D deprecated" cargo check -q --workspace --all-targets
echo "deny-deprecated check: ok"

# Benchmark crate: `lisabench/` is a workspace of its own, so the root
# `cargo test` never builds it, and an API change in the crates it uses
# would break it silently. Build it, run its tests, and run short
# gate-warm and gate-cold smokes; each exits 1 on any verdict that
# disagrees with the corpus ground truth. gate-cold is the one that runs
# the interpreter and the concolic tracer on every request.
cargo build --release --offline --manifest-path lisabench/Cargo.toml
cargo test -q --release --offline --manifest-path lisabench/Cargo.toml
lisabench/target/release/lisabench --workload gate-warm --seed 1 --seconds 2 --trace 0 \
    > /dev/null
lisabench/target/release/lisabench --workload gate-cold --seed 1 --seconds 2 --trace 0 \
    > /dev/null
# The traced path: span replay of every layer, which produces the
# per-layer metrics (`smt.query_us_p50`, `sched.gate_self_us_p50`, ...)
# and never runs at `--trace 0`. It also exits 1 on any wrong verdict;
# its spans land in `.lisabench-out/`. The layers a cold rule check
# spends its time in must stay measured: its result line (the last one)
# must report a nonzero p50 for each.
TRACED=$(mktemp)
lisabench/target/release/lisabench --workload gate-cold --seed 1 --seconds 2 --trace 1 \
    > "$TRACED"
for m in analysis.callgraph_us_p50 smt.query_us_p50 pipeline.rule_us_p50; do
    tail -n 1 "$TRACED" | grep -qE "\"${m//./\\.}\":\{\"value\":[0-9.]*[1-9]" \
        || { echo "traced gate-cold reports no nonzero $m" >&2; exit 1; }
done
# A warm re-gate is almost all SIR load (parse and type check): the
# layer a warm-gate speedup claims must stay measured too.
lisabench/target/release/lisabench --workload gate-warm --seed 1 --seconds 2 --trace 1 \
    > "$TRACED"
tail -n 1 "$TRACED" | grep -qE '"lang\.load_us_p50":\{"value":[0-9.]*[1-9]' \
    || { echo "traced gate-warm reports no nonzero lang.load_us_p50" >&2; exit 1; }
rm -f "$TRACED"
echo "benchmark smoke: ok"

# Crash-recovery e2e: kill-at-every-boundary matrix, seeded disk faults,
# and the supervised `lisa serve` daemon.
cargo test -q -p lisa --test e2e_recovery

# E11 smoke: the durability invariant end to end (asserts internally).
cargo run -q --release -p lisa-experiments --bin e11_recovery > /dev/null
echo "e11 recovery smoke: ok"

# Telemetry smoke: `lisa gate --trace-out/--metrics-out` on the ZooKeeper
# corpus emits valid trace/metrics JSON (validated via core::json, with
# the expected top-level spans and live solver counters) and telemetry
# never perturbs the verdict artifact.
cargo test -q -p lisa --test e2e_telemetry
echo "telemetry smoke: ok"

# Cache smoke: the rule-report memo must be invisible in every
# artifact and pay off on a repeat. Gate a fixture with the cache off and
# on (stdout must be byte-identical, and the rule-report memo must be
# consulted once per rule), then run the durable gate twice over one
# state dir — the second run must reuse every journaled verdict.
SMOKE="$(mktemp -d)"
trap 'rm -rf "$SMOKE"' EXIT
cat > "$SMOKE/orders.sir" <<'SIR'
struct Order { id: int, paid: bool, cancelled: bool }
global orders: map<int, Order>;
global shipped: map<int, int>;

fn ship_order(o: Order, courier: int) { shipped.put(o.id, courier); }

fn checkout_ship(oid: int, courier: int) {
    let o: Order = orders.get(oid);
    if (o == null || o.paid == false || o.cancelled) { return; }
    ship_order(o, courier);
}

fn seed(id: int, paid: bool, cancelled: bool) {
    orders.put(id, new Order { id: id, paid: paid, cancelled: cancelled });
}

fn test_checkout() { seed(1, true, false); checkout_ship(1, 7); assert(shipped.contains(1), "ok"); }
SIR
cat > "$SMOKE/rules.txt" <<'RULES'
when calling ship_order, require o != null && o.paid == true && o.cancelled == false
when calling ship_order, require o.cancelled == false
RULES
LISA=target/release/lisa
"$LISA" gate --system "$SMOKE" --rules "$SMOKE/rules.txt" --cache off > "$SMOKE/off.out"
"$LISA" gate --system "$SMOKE" --rules "$SMOKE/rules.txt" --cache on \
    --metrics-out "$SMOKE/m1.json" > "$SMOKE/on.out"
cmp "$SMOKE/off.out" "$SMOKE/on.out"
grep -Eq '"cache\.rule\.misses":2[,}]' "$SMOKE/m1.json"
grep -Eq '"smt\.queries":[1-9]' "$SMOKE/m1.json"
# Each span is its layer's one clock: the layers' histograms are the
# spans' `<name>_us`, and no second `stage.*` timer is left.
for h in pipeline.rule_us analysis.callgraph_us lang.load_us smt.check_us; do
    grep -qF "\"$h\"" "$SMOKE/m1.json" || { echo "m1.json has no $h histogram" >&2; exit 1; }
done
if grep -q '"stage\.' "$SMOKE/m1.json"; then echo "m1.json has a stage.* key" >&2; exit 1; fi
"$LISA" gate --system "$SMOKE" --rules "$SMOKE/rules.txt" --state "$SMOKE/state" > /dev/null
"$LISA" gate --system "$SMOKE" --rules "$SMOKE/rules.txt" --state "$SMOKE/state" \
    --metrics-out "$SMOKE/m2.json" > "$SMOKE/d2.out"
grep -q '2 reused from journal, 0 fresh' "$SMOKE/d2.out"
grep -Eq '"service\.verdicts_reused":2' "$SMOKE/m2.json"
# Durable runs persist nothing beside the journal, and a state dir shared
# across versions decides exactly like a fresh one: gate a second version
# of the fixture into the used state dir and into a fresh one.
test ! -e "$SMOKE/state/fingerprints.log"
mkdir "$SMOKE/v2"
sed 's/checkout_ship(1, 7)/checkout_ship(1, 9)/' "$SMOKE/orders.sir" > "$SMOKE/v2/orders.sir"
if cmp -s "$SMOKE/orders.sir" "$SMOKE/v2/orders.sir"; then echo "v2 fixture unchanged" >&2; exit 1; fi
"$LISA" gate --system "$SMOKE/v2" --rules "$SMOKE/rules.txt" --state "$SMOKE/state" > /dev/null
"$LISA" gate --system "$SMOKE/v2" --rules "$SMOKE/rules.txt" --state "$SMOKE/state-v2" \
    > /dev/null
cmp "$SMOKE/state/wal.log" "$SMOKE/state-v2/wal.log"
# Past a zero deadline no rule starts: every rule is journaled "not
# checked", and fail-closed blocks with exit 2. The deadline is not part
# of the journal key, so the next run over that state dir without one
# must check every rule and print what a fresh state dir prints.
dl_code=0
"$LISA" gate --system "$SMOKE" --rules "$SMOKE/rules.txt" --state "$SMOKE/state-dl" \
    --deadline-ms 0 --fail-mode closed > "$SMOKE/dl1.out" || dl_code=$?
test "$dl_code" -eq 2
grep -q '(not checked)' "$SMOKE/dl1.out"
"$LISA" gate --system "$SMOKE" --rules "$SMOKE/rules.txt" --state "$SMOKE/state-dl" \
    > "$SMOKE/dl2.out"
grep -q '0 reused from journal' "$SMOKE/dl2.out"
"$LISA" gate --system "$SMOKE" --rules "$SMOKE/rules.txt" --state "$SMOKE/state-dl-fresh" \
    > "$SMOKE/dl-fresh.out"
cmp "$SMOKE/dl2.out" "$SMOKE/dl-fresh.out"
echo "cache smoke: ok"

# Durable width smoke: a durable run is one engine call whose journal is
# written at the registry-order merge frontier, so the journal must not
# depend on the worker count.
"$LISA" gate --system "$SMOKE" --rules "$SMOKE/rules.txt" --state "$SMOKE/state-w1" \
    --workers 1 > /dev/null
"$LISA" gate --system "$SMOKE" --rules "$SMOKE/rules.txt" --state "$SMOKE/state-w8" \
    --workers 8 > /dev/null
cmp "$SMOKE/state-w1/wal.log" "$SMOKE/state-w8/wal.log"
echo "durable width smoke: ok"

# Timed speedup gates, in release and one at a time: the warm repeat of
# an unchanged version >= 2x faster than a cold gate, and the cold corpus
# gate >= 2x faster at 4 workers (>= 3x at 8) where the machine has
# those cores. Tier-1 `cargo test` skips them (`#[ignore]`).
cargo test -q --release -p lisa --test speedups -- --ignored --test-threads 1

# Parallel gate: worker count must be a throughput knob, never an input.
# The width-1/2/4/8 byte-identity matrix (corpus, CLI, WAL) lives in the
# e2e suite; here we re-gate the cache fixture at --workers 8 against the
# sequential stdout. Pool overlap is a unit test of the rule pool.
cargo test -q -p lisa --test e2e_parallel
cargo test -q -p lisa --test par_prop
"$LISA" gate --system "$SMOKE" --rules "$SMOKE/rules.txt" --cache off --workers 8 \
    > "$SMOKE/off-w8.out"
cmp "$SMOKE/off.out" "$SMOKE/off-w8.out"
"$LISA" gate --system "$SMOKE" --rules "$SMOKE/rules.txt" --cache on --workers 8 \
    > "$SMOKE/on-w8.out"
cmp "$SMOKE/on.out" "$SMOKE/on-w8.out"
# A gate starts no more workers than it has rules: a width far past the
# 2-rule fixture must cost two workers, not thousands of thread spawns,
# and still print the sequential bytes.
"$LISA" gate --system "$SMOKE" --rules "$SMOKE/rules.txt" --cache off --workers 4096 \
    > "$SMOKE/off-w4096.out"
cmp "$SMOKE/off.out" "$SMOKE/off-w4096.out"
echo "parallel gate: ok"

# One-node restart smoke: a job settled by a daemon, the daemon
# SIGKILLed and started again on the same state root. The resubmitted
# job must get the same verdict from the journal without re-executing
# anything (`tests/e2e_recovery.rs` compares the verdict digests).
RESTARTED=""
trap 'kill -9 $RESTARTED 2>/dev/null || true; rm -rf "$SMOKE"' EXIT
serve_restart() {
    "$LISA" serve --socket "$SMOKE/restart.sock" --state-root "$SMOKE/rstate" &
    RESTARTED=$!
    for _ in $(seq 100); do
        "$LISA" submit --socket "$SMOKE/restart.sock" --op ping > /dev/null 2>&1 && break
        sleep 0.1
    done
}
serve_restart
"$LISA" submit --socket "$SMOKE/restart.sock" --system "$SMOKE" \
    --rules "$SMOKE/rules.txt" --job-id fo1 > "$SMOKE/fo-first.out"
grep -q '"decision":"PASS"' "$SMOKE/fo-first.out"
kill -9 "$RESTARTED"
wait "$RESTARTED" 2>/dev/null || true
serve_restart
"$LISA" submit --socket "$SMOKE/restart.sock" --system "$SMOKE" \
    --rules "$SMOKE/rules.txt" --job-id fo1 > "$SMOKE/fo-restarted.out"
grep -q '"decision":"PASS"' "$SMOKE/fo-restarted.out"
grep -q '"reused":2' "$SMOKE/fo-restarted.out"
grep -q '"fresh":0' "$SMOKE/fo-restarted.out"
"$LISA" submit --socket "$SMOKE/restart.sock" --op shutdown > /dev/null
wait "$RESTARTED"
RESTARTED=""
# Replication, in-process job retry and the explicit per-tenant queue cap
# are gone: their flags are refused like any unknown flag.
for flag in follow repl-listen heartbeat-ms heartbeat-timeout-ms repl-fault-seed max-attempts \
    tenant-cap; do
    code=0
    "$LISA" serve --socket "$SMOKE/gone.sock" "--$flag" 1 2> "$SMOKE/gone.err" || code=$?
    test "$code" -eq 2
    grep -q "unknown flag --$flag for \`serve\`" "$SMOKE/gone.err"
done
echo "restart smoke: ok"

# Multi-tenant serve e2e: transport byte-parity, weighted-fair dequeue,
# structured load-shedding, bounded job ids, per-tenant stats, and over a
# thousand connections open at once from one client thread.
cargo test -q -p lisa --test e2e_serve_load

# Serve-durable smoke: lisabench drives an in-process daemon over TCP
# with fresh and resubmitted durable jobs, and exits 1 on any lost,
# malformed, error or shed reply, or a verdict that disagrees with the
# corpus ground truth.
lisabench/target/release/lisabench --workload serve-durable --seed 1 --seconds 2 --trace 0 \
    > /dev/null
echo "serve-durable smoke: ok"

# No step may rewrite a committed file: the tracked tree must read as it
# did before the first step.
if [ -n "$TRACKED_BEFORE" ] && [ "$(git diff --binary | cksum)" != "$TRACKED_BEFORE" ]; then
    echo "ci.sh changed tracked files:" >&2
    git diff --stat >&2
    exit 1
fi
echo "tracked tree unchanged: ok"
