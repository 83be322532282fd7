//! Property test for journal shipping: a follower that applies the
//! shipped frame stream — any prefix of it, i.e. the leader killed at
//! any frame boundary — and then recovers through the ordinary
//! [`RunStore`] open path lands in exactly the state the leader held
//! when that frame was published.
//!
//! The claim is "shipped record stream ≡ leader's in-memory state", over
//! randomized sequences of appends and kill points.

use std::path::PathBuf;
use std::time::Duration;

use lisa_store::{
    decode_wire, Applier, BusPoll, ReplBus, RuleOutcome, RunState, RunStore, Wire,
};
use lisa_util::Prng;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lisa-replprop-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

/// Drain every frame past `pos` from the bus (retention is sized so the
/// test never gaps).
fn drain(bus: &ReplBus, pos: &mut u64) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    loop {
        match bus.poll_after(*pos, Duration::from_millis(1)) {
            BusPoll::Frames(frames) => {
                for (seq, payload) in frames {
                    *pos = seq;
                    out.push(payload.as_ref().clone());
                }
            }
            BusPoll::Idle { .. } => return out,
            BusPoll::Gap => panic!("retention too small for the test"),
        }
    }
}

#[test]
fn shipped_prefix_recovers_to_the_leaders_state_at_that_frame() {
    for seed in 0..25u64 {
        let mut rng = Prng::seed_from_u64(seed);
        let root = tmpdir(&format!("leader-{seed}"));
        let bus = ReplBus::with_retention(&root, 100_000);
        let run_key = "prop-key";
        let mut store =
            RunStore::open_replicated(root.join("job"), run_key, None, Some(bus.clone()))
                .expect("leader store");

        // Random op sequence. After every op, record the frames it
        // published and the leader's state once it settled — one shadow
        // entry per frame, because a kill can land between any two
        // frames.
        let mut pos = 0u64;
        let mut frames: Vec<Vec<u8>> = Vec::new();
        let mut shadows: Vec<RunState> = Vec::new();
        for f in drain(&bus, &mut pos) {
            frames.push(f);
            shadows.push(store.state.clone());
        }
        let ops = 4 + rng.gen_index(12);
        for _ in 0..ops {
            match rng.gen_index(3) {
                0 => store.record_started(&format!("R{}", rng.gen_index(5))),
                1 => {
                    let violated = rng.gen_index(2) as u64;
                    store.record_finished(RuleOutcome {
                        rule_id: format!("R{}", rng.gen_index(5)),
                        fingerprint: format!("[verified] a -> b\nviolated={violated}"),
                        verified: 1,
                        violated,
                        not_covered: 0,
                        engine_errors: 0,
                        degraded: false,
                        sanity_ok: true,
                        retries: rng.gen_index(3) as u64,
                    });
                }
                _ => store.record_run_finished(if rng.gen_bool(0.5) { "PASS" } else { "BLOCK" }),
            }
            for f in drain(&bus, &mut pos) {
                frames.push(f);
                shadows.push(store.state.clone());
            }
        }
        assert!(!frames.is_empty(), "seed {seed}: the run published nothing");

        // Kill the leader at every frame boundary: apply the first k
        // frames on a fresh follower root, recover through RunStore, and
        // compare against the shadow.
        for k in 0..=frames.len() {
            let froot = tmpdir(&format!("follower-{seed}-{k}"));
            let applier = Applier::new(&froot).expect("applier");
            for payload in &frames[..k] {
                match decode_wire(payload).expect("shipped frame decodes") {
                    Wire::Event { event, .. } => applier.apply(&event).expect("apply"),
                    other => panic!("bus never ships {other:?}"),
                }
            }
            let recovered =
                RunStore::open(froot.join("job"), run_key, None).expect("follower recovery");
            let expected = if k == 0 {
                // Nothing shipped yet: the follower starts the run fresh,
                // exactly as a leader opening an empty directory would.
                RunState { run_key: Some(run_key.to_string()), ..RunState::default() }
            } else {
                shadows[k - 1].clone()
            };
            assert_eq!(
                recovered.state, expected,
                "seed {seed}, kill point {k}: follower recovery diverged from the leader"
            );
            let _ = std::fs::remove_dir_all(&froot);
        }
        let _ = std::fs::remove_dir_all(&root);
    }
}
