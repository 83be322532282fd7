//! Seeded mutation of `lisa serve` request lines: the NDJSON reader is
//! the daemon's one network decoder, so no line a client sends may panic
//! `Json::parse`.
//!
//! Each case takes one request line of the kind the e2e suites send
//! (ping, gate, stats, verdict, shutdown) and applies one to three seeded
//! mutations — byte flips, truncations, splices from another line, and
//! deep nesting around the whole line or one of its values — then checks
//! that `Json::parse` returns `Ok` or `Err` instead of panicking. Bytes
//! that are not UTF-8 are decoded lossily, as the daemon's readiness
//! loop decodes a request line.

use std::panic::{catch_unwind, AssertUnwindSafe};

use lisa::Json;
use lisa_util::Prng;

const SEED: u64 = 0x4a53_0001;
const CASES: usize = 20_000;

/// Request lines as the e2e suites and `lisa submit` write them.
const LINES: [&str; 9] = [
    r#"{"v":1,"op":"ping"}"#,
    r#"{"op":"ping"}"#,
    r#"{"v":1,"op":"gate","job_id":"fo1","tenant":"gold","system":"/tmp/sys dir","rules":"/tmp/rules.txt","fail_mode":"open"}"#,
    r#"{"v":1,"op":"gate","job_id":"j-7","system":"café🦀","rules":"r\\s\"q\"","chaos":"panic-once"}"#,
    r#"{"v":1,"op":"stats"}"#,
    r#"{"v":1,"op":"verdict","job_id":"par-unix"}"#,
    r#"{"v":1,"op":"verdict","job_id":"\u0041\ud83d\ude00\n"}"#,
    r#"{"v":1,"op":"shutdown"}"#,
    r#"{"v":1.5e0,"op":"gate","n":[-0.25,true,false,null,{}],"e":""}"#,
];

/// Bytes a flip writes: JSON's structural and escape alphabet, so flips
/// land on the parser's decisions more often than random bytes would.
const ALPHABET: &[u8] = b"{}[]:,\"\\ubfnrt+-.eE0123456789aAfFxz \t\n\x00\x7f\xc3\xa9\xff";

fn mutate(rng: &mut Prng, line: &mut Vec<u8>) -> &'static str {
    match rng.gen_index(5) {
        0 => {
            if line.is_empty() {
                return "flip (empty)";
            }
            let at = rng.gen_index(line.len());
            line[at] = if rng.gen_bool(0.75) {
                *rng.pick(ALPHABET)
            } else {
                rng.next_u64() as u8
            };
            "flip"
        }
        1 => {
            line.truncate(rng.gen_index(line.len() + 1));
            "truncate"
        }
        2 => {
            let donor = rng.pick(&LINES).as_bytes();
            let lo = rng.gen_index(donor.len());
            let hi = (lo + 1 + rng.gen_index(24)).min(donor.len());
            let at = rng.gen_index(line.len() + 1);
            line.splice(at..at, donor[lo..hi].iter().copied());
            "splice"
        }
        3 => {
            // Nest the whole line, up to past the parser's depth bound,
            // sometimes leaving the brackets unclosed.
            let depth = rng.gen_index(160);
            let (open, close): (&[u8], &[u8]) =
                if rng.gen_bool(0.5) { (b"[", b"]") } else { (b"{\"a\":", b"}") };
            let mut nested = open.repeat(depth);
            nested.append(line);
            if rng.gen_bool(0.7) {
                nested.extend(close.repeat(depth));
            }
            *line = nested;
            "nest"
        }
        _ => {
            // Replace a value after one of the line's colons with a
            // deeply nested array.
            let colons: Vec<usize> =
                line.iter().enumerate().filter(|(_, b)| **b == b':').map(|(i, _)| i + 1).collect();
            if colons.is_empty() {
                return "nest-value (none)";
            }
            let at = *rng.pick(&colons);
            let depth = rng.gen_index(200);
            let mut value = b"[".repeat(depth);
            value.push(b'1');
            value.extend(b"]".repeat(depth));
            line.splice(at..at, value);
            "nest-value"
        }
    }
}

#[test]
fn mutated_request_lines_never_panic_the_parser() {
    for line in LINES {
        assert!(Json::parse(line).is_ok(), "seed line must parse: {line}");
    }
    let mut rng = Prng::seed_from_u64(SEED);
    let (mut accepted, mut rejected) = (0, 0);
    for case in 0..CASES {
        let mut line = rng.pick(&LINES).as_bytes().to_vec();
        let rounds = 1 + rng.gen_index(3);
        let ops: Vec<&str> = (0..rounds).map(|_| mutate(&mut rng, &mut line)).collect();
        let text = String::from_utf8_lossy(&line);
        let parsed = catch_unwind(AssertUnwindSafe(|| Json::parse(&text))).unwrap_or_else(|_| {
            panic!("Json::parse panicked on case {case} ({}): {text:?}", ops.join(", "))
        });
        match parsed {
            Ok(_) => accepted += 1,
            Err(_) => rejected += 1,
        }
    }
    // The slice must exercise both outcomes.
    assert!(accepted > CASES / 50 && rejected > CASES / 2, "{accepted} ok, {rejected} err");
}
