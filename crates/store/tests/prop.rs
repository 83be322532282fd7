//! Property tests for the durable store, seeded so failures reproduce.
//!
//! The recovery design rests on two algebraic facts, each checked here
//! over arbitrary generated event sequences and corruptions:
//!
//! 1. **Replay is idempotent** — applying a journal twice yields the
//!    same state as applying it once (so a resumed process that replays
//!    an already-applied prefix cannot drift).
//! 2. **Corruption only shrinks, never corrupts** — cutting or flipping
//!    bytes anywhere in the journal file yields, on reopen, a clean
//!    prefix of the original records (possibly with quarantined middles
//!    skipped), never a record that was not written.

use lisa_store::{scan, GateEvent, Journal, RuleOutcome, RunState};
use lisa_util::Prng;

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("lisa-prop-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

/// Generate an arbitrary (but decodable) gate event.
fn arb_event(rng: &mut Prng) -> GateEvent {
    let rule_pool = ["ZK-1208-r0", "SHOP-1-r0", "SHOP-2-r0", "AUD-1-r0", "X"];
    match rng.gen_index(4) {
        0 => GateEvent::RunStarted { run_key: format!("key-{}", rng.gen_index(3)) },
        1 => GateEvent::RuleCheckStarted {
            rule_id: rule_pool[rng.gen_index(rule_pool.len())].to_string(),
        },
        2 => {
            let id = rule_pool[rng.gen_index(rule_pool.len())];
            GateEvent::RuleCheckFinished {
                outcome: RuleOutcome {
                    rule_id: id.to_string(),
                    fingerprint: format!(
                        "[verified] p{} -> q\n[VIOLATED] r={}\t%",
                        rng.gen_index(100),
                        rng.gen_index(10)
                    ),
                    verified: rng.gen_index(5) as u64,
                    violated: rng.gen_index(3) as u64,
                    not_covered: rng.gen_index(2) as u64,
                    engine_errors: rng.gen_index(2) as u64,
                    unchecked: rng.gen_bool(0.2),
                    sanity_ok: rng.gen_bool(0.9),
                },
            }
        }
        _ => GateEvent::RunFinished {
            decision: if rng.gen_bool(0.5) { "PASS" } else { "BLOCK" }.to_string(),
        },
    }
}

/// A run sequence that starts with RunStarted under one key (arbitrary
/// events after that), mirroring what the gate actually writes.
fn arb_sequence(rng: &mut Prng, len: usize) -> Vec<GateEvent> {
    let mut events = vec![GateEvent::RunStarted { run_key: "key-0".to_string() }];
    for _ in 0..len {
        events.push(arb_event(rng));
    }
    events
}

fn state_of(events: &[GateEvent]) -> RunState {
    let mut s = RunState::default();
    for e in events {
        s.apply(e);
    }
    s
}

/// Canonical comparable rendering of a RunState.
fn canon(s: &RunState) -> String {
    let mut out = String::new();
    out.push_str(&format!("run_key={:?}\n", s.run_key));
    out.push_str(&format!("started={:?}\n", s.started));
    for o in &s.finished {
        out.push_str(&format!("finished {} {:?} v={} x={} nc={} ee={} d={} s={}\n",
            o.rule_id, o.fingerprint, o.verified, o.violated, o.not_covered,
            o.engine_errors, o.unchecked, o.sanity_ok));
    }
    out.push_str(&format!("decision={:?}\n", s.decision));
    out
}

#[test]
fn replay_is_idempotent() {
    for seed in 0..50u64 {
        let mut rng = Prng::seed_from_u64(0xD0_0D + seed);
        let len = 1 + rng.gen_index(40);
        let events = arb_sequence(&mut rng, len);
        let once = state_of(&events);
        // Apply the whole history a second time on top of the first.
        let mut twice = state_of(&events);
        for e in &events {
            twice.apply(e);
        }
        assert_eq!(canon(&once), canon(&twice), "seed {seed}: double replay drifted");
    }
}

#[test]
fn corruption_only_loses_a_suffix_or_quarantines_never_invents() {
    let dir = tmpdir("corrupt");
    for seed in 0..30u64 {
        let mut rng = Prng::seed_from_u64(0xBAD + seed);
        let len = 1 + rng.gen_index(20);
        let events = arb_sequence(&mut rng, len);
        let path = dir.join(format!("wal-{seed}.log"));
        let _ = std::fs::remove_file(&path);
        {
            let (mut j, _) = Journal::open(&path, None).expect("open");
            for e in &events {
                j.append(&e.encode()).expect("append");
            }
        }
        let pristine = std::fs::read(&path).expect("read");
        let written: Vec<Vec<u8>> = events.iter().map(|e| e.encode()).collect();

        // Corruption 1: cut the file at an arbitrary byte offset.
        let cut = rng.gen_index(pristine.len() + 1);
        std::fs::write(&path, &pristine[..cut]).expect("truncate");
        let (_, report) = Journal::open(&path, None).expect("reopen after cut");
        assert!(
            report.records.iter().eq(written.iter().take(report.records.len())),
            "seed {seed}: cut at {cut} produced non-prefix records"
        );

        // Corruption 2: flip one byte mid-file; surviving records must
        // each be byte-identical to something that was actually written.
        std::fs::write(&path, &pristine).expect("restore");
        let mut mangled = pristine.clone();
        let at = rng.gen_index(mangled.len());
        mangled[at] ^= 0x41;
        std::fs::write(&path, &mangled).expect("mangle");
        let (_, report) = Journal::open(&path, None).expect("reopen after flip");
        for rec in &report.records {
            assert!(
                written.contains(rec),
                "seed {seed}: flip at {at} fabricated record {rec:?}"
            );
        }
        assert!(
            report.records.len() >= written.len().saturating_sub(2),
            "seed {seed}: one flipped byte lost more than its own frame + tail resync"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn scan_boundaries_are_exact_replay_prefixes() {
    // The E11 kill-matrix depends on this: truncating the journal at
    // boundary k must replay exactly the first k records.
    let mut rng = Prng::seed_from_u64(0xB0B);
    let events = arb_sequence(&mut rng, 25);
    let mut bytes = Vec::new();
    for e in &events {
        bytes.extend_from_slice(&lisa_store::journal::frame(&e.encode()));
    }
    let s = scan(&bytes);
    assert_eq!(s.records.len(), events.len());
    assert_eq!(s.boundaries.len(), events.len(), "one end-offset per record");
    // Kill point 0 (nothing durable yet) plus each record's end offset.
    for (k, b) in std::iter::once(0u64).chain(s.boundaries.iter().copied()).enumerate() {
        let cut = scan(&bytes[..b as usize]);
        assert_eq!(cut.records.len(), k, "boundary {k} is not a {k}-record prefix");
        assert_eq!(cut.torn_bytes, 0);
    }
}
