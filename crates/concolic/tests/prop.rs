//! Property tests for the concolic engine — the soundness core of the
//! whole reproduction:
//!
//! **π-soundness**: whenever execution reaches the target, the recorded
//! path condition π must be *true of the actual concrete state*. If this
//! held only "usually", violation verdicts would be meaningless.
//!
//! We generate entities with random boolean/integer fields, random
//! guard subsets per path, and random concrete states; run the test
//! concolically; and evaluate π against a model built directly from the
//! concrete field values. Scenarios are drawn from `lisa_util::Prng`
//! with fixed seeds so every case reproduces exactly.

use lisa_analysis::{AliasMap, TargetSpec};
use lisa_concolic::{ConcolicTracer, Policy};
use lisa_lang::{Interp, Program, Value};
use lisa_smt::{Model, Value as SmtValue};
use lisa_util::Prng;

/// Guard atoms available to the generator: (field, sir unsafe form,
/// smt-relevant field path).
const BOOL_FIELDS: [&str; 3] = ["closing", "stale", "frozen"];
const INT_FIELDS: [&str; 2] = ["ttl", "quota"];

#[derive(Debug, Clone)]
struct Scenario {
    /// Guard subset: which bool fields are checked (`e.<f> == true` ⇒ reject).
    checked_bools: Vec<bool>,
    /// Which int fields are checked (`e.<f> <= 0` ⇒ reject).
    checked_ints: Vec<bool>,
    /// Concrete state.
    bool_vals: Vec<bool>,
    int_vals: Vec<i64>,
    /// Whether the entity is seeded at all.
    seeded: bool,
    policy_all: bool,
}

fn gen_scenario(rng: &mut Prng) -> Scenario {
    Scenario {
        checked_bools: (0..3).map(|_| rng.gen_bool(0.5)).collect(),
        checked_ints: (0..2).map(|_| rng.gen_bool(0.5)).collect(),
        bool_vals: (0..3).map(|_| rng.gen_bool(0.5)).collect(),
        int_vals: (0..2).map(|_| rng.gen_range_i64(-5, 4)).collect(),
        seeded: rng.gen_bool(0.5),
        policy_all: rng.gen_bool(0.5),
    }
}

fn build_program(s: &Scenario) -> Program {
    let mut fields = String::new();
    for f in BOOL_FIELDS {
        fields.push_str(&format!(", {f}: bool"));
    }
    for f in INT_FIELDS {
        fields.push_str(&format!(", {f}: int"));
    }
    let mut guard = vec!["e == null".to_string()];
    for (i, f) in BOOL_FIELDS.iter().enumerate() {
        if s.checked_bools[i] {
            guard.push(format!("e.{f} == true"));
        }
    }
    for (i, f) in INT_FIELDS.iter().enumerate() {
        if s.checked_ints[i] {
            guard.push(format!("e.{f} <= 0"));
        }
    }
    let src = format!(
        "struct E {{ id: int{fields} }}\n\
         global store: map<int, E>;\n\
         global out: map<str, int>;\n\
         fn act(e: E, tag: str) {{ out.put(tag, e.id); }}\n\
         fn drive(eid: int, tag: str) {{\n\
             let e: E = store.get(eid);\n\
             if ({guard}) {{ return; }}\n\
             act(e, tag);\n\
         }}\n",
        guard = guard.join(" || "),
    );
    Program::parse_single("prop", &src).expect("generated program parses")
}

/// The model of the actual concrete state, in rule vocabulary.
fn concrete_model(s: &Scenario) -> Model {
    let mut m = Model::new();
    if s.seeded {
        m.set("e", SmtValue::Ref(Some(1)));
        for (i, f) in BOOL_FIELDS.iter().enumerate() {
            m.set(format!("e.{f}"), SmtValue::Bool(s.bool_vals[i]));
        }
        for (i, f) in INT_FIELDS.iter().enumerate() {
            m.set(format!("e.{f}"), SmtValue::Int(s.int_vals[i]));
        }
    } else {
        m.set("e", SmtValue::Ref(None));
    }
    m.set("$locks.held", SmtValue::Int(0));
    m
}

fn guard_rejects(s: &Scenario) -> bool {
    if !s.seeded {
        return true;
    }
    for i in 0..BOOL_FIELDS.len() {
        if s.checked_bools[i] && s.bool_vals[i] {
            return true;
        }
    }
    for i in 0..INT_FIELDS.len() {
        if s.checked_ints[i] && s.int_vals[i] <= 0 {
            return true;
        }
    }
    false
}

fn run(s: &Scenario) -> (Vec<lisa_concolic::TargetHit>, bool) {
    let p = build_program(s);
    assert!(lisa_lang::check_program(&p).is_empty());
    let mut interp = Interp::new(&p);
    if s.seeded {
        // Seed via direct heap construction (id 1).
        let mut fields = std::collections::BTreeMap::new();
        fields.insert("id".to_string(), Value::Int(1));
        for (i, f) in BOOL_FIELDS.iter().enumerate() {
            fields.insert(f.to_string(), Value::Bool(s.bool_vals[i]));
        }
        for (i, f) in INT_FIELDS.iter().enumerate() {
            fields.insert(f.to_string(), Value::Int(s.int_vals[i]));
        }
        let r = interp.heap.alloc(lisa_lang::HeapObj::Struct { ty: "E".into(), fields });
        let store = interp.global("store").expect("store").clone();
        if let (Value::Ref(mid), true) = (&store, true) {
            if let lisa_lang::HeapObj::Map { entries, .. } = interp.heap.get_mut(*mid) {
                entries.insert(lisa_lang::MapKey::Int(1), Value::Ref(r));
            }
        }
    }
    let mut aliases = AliasMap::default();
    aliases.insert("drive", "e", "e");
    aliases.insert("act", "e", "e");
    let target = TargetSpec::Call { callee: "act".into() };
    let mut tracer = ConcolicTracer::new(
        &target,
        &aliases,
        if s.policy_all { Policy::RecordAll } else { Policy::RelevantOnly },
    );
    interp
        .call("drive", vec![Value::Int(1), Value::Str("t".into())], &mut tracer)
        .expect("drive runs");
    let acted = {
        let out = interp.global("out").expect("out").clone();
        match out {
            Value::Ref(r) => match interp.heap.get(r) {
                lisa_lang::HeapObj::Map { entries, .. } => !entries.is_empty(),
                _ => false,
            },
            _ => false,
        }
    };
    (tracer.hits, acted)
}

#[test]
fn pi_is_sound_for_the_concrete_state() {
    let mut rng = Prng::seed_from_u64(0xc0c0_0001);
    for case in 0..160 {
        let s = gen_scenario(&mut rng);
        let (hits, acted) = run(&s);
        // The guard decides reachability...
        assert_eq!(acted, !guard_rejects(&s), "case {case}: {s:?}");
        assert_eq!(hits.len(), usize::from(!guard_rejects(&s)), "case {case}: {s:?}");
        // ...and on arrival, π must hold of the actual state.
        if let Some(hit) = hits.first() {
            let m = concrete_model(&s);
            assert!(
                m.eval(&hit.pi),
                "case {case}: π {} is false of the concrete state {}",
                hit.pi,
                m
            );
        }
    }
}

#[test]
fn violation_check_agrees_with_ground_truth() {
    // The full rule: all fields healthy.
    let rule = lisa_smt::parse_cond(
        "e != null && e.closing == false && e.stale == false && e.frozen == false \
         && e.ttl > 0 && e.quota > 0",
    )
    .expect("rule");
    let mut rng = Prng::seed_from_u64(0xc0c0_0002);
    for case in 0..160 {
        let s = gen_scenario(&mut rng);
        let (hits, _) = run(&s);
        if let Some(hit) = hits.first() {
            let violated = lisa_smt::violates(&hit.pi, &rule).is_some();
            // Ground truth: the path is safe only if *every* conjunct was
            // dynamically guaranteed, i.e. every field was checked.
            let fully_checked =
                s.checked_bools.iter().all(|&c| c) && s.checked_ints.iter().all(|&c| c);
            assert_eq!(
                violated,
                !fully_checked,
                "case {case}: pi: {} checked_bools {:?} checked_ints {:?}",
                hit.pi,
                s.checked_bools,
                s.checked_ints
            );
        }
    }
}

#[test]
fn policies_agree_on_relevant_constraints() {
    let mut rng = Prng::seed_from_u64(0xc0c0_0003);
    for case in 0..160 {
        let s = gen_scenario(&mut rng);
        let mut s_all = s.clone();
        s_all.policy_all = true;
        let mut s_rel = s;
        s_rel.policy_all = false;
        let (h_all, _) = run(&s_all);
        let (h_rel, _) = run(&s_rel);
        assert_eq!(h_all.len(), h_rel.len(), "case {case}");
        if let (Some(a), Some(r)) = (h_all.first(), h_rel.first()) {
            // π from both policies must be SMT-equivalent: everything the
            // unpruned recorder adds is rule-irrelevant and dropped at
            // rename time.
            assert!(
                lisa_smt::equivalent(&a.pi, &r.pi),
                "case {case}: record-all π {} vs relevant-only π {}",
                a.pi,
                r.pi
            );
        }
    }
}
