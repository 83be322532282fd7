//! Golden solver queries: one pinned value per corpus version.
//!
//! For each case the rule mined from its original ticket is traced
//! through every test of every version, under both recording policies,
//! and every hit's violation query `π ∧ ¬checker` is folded in two
//! forms: the text of its canonical form (`preprocess_violation`) and
//! the outcome of a fresh `violates_budgeted`, witness model included.
//! Any change to how a query is canonicalized or solved moves a value in
//! the table below and fails this test.

mod common;

use common::{mined_rule, rule_aliases};
use lisa_concolic::{run_tests_budgeted, HarnessBudget, Policy, SystemVersion};
use lisa_corpus::all_cases;
use lisa_oracle::SemanticRule;
use lisa_smt::nnf::preprocess_violation;
use lisa_smt::{violates_budgeted, ViolationOutcome};
use lisa_util::Fnv1a;

/// The outcome's `Debug` bytes with the witness rendered through the
/// model's `Display`: `Model`'s derived `Debug` walks a `HashMap`, whose
/// order differs from one process to the next, while `Display` sorts by
/// variable name.
fn part_outcome(h: &mut Fnv1a, outcome: &ViolationOutcome) {
    match outcome {
        ViolationOutcome::Violated(m) => {
            h.part_display(format_args!("Violated({m}, validated: {})", m.validated))
        }
        other => h.part_display(format_args!("{other:?}")),
    };
}

fn fold(version: &SystemVersion, rule: &SemanticRule) -> u64 {
    let aliases = rule_aliases(version, rule);
    let checker = &rule.condition;
    let mut h = Fnv1a::new();
    for policy in [Policy::RelevantOnly, Policy::RecordAll] {
        let outcome = run_tests_budgeted(
            &version.program,
            &version.tests,
            &rule.target,
            &aliases,
            &policy,
            &HarnessBudget::default(),
        );
        for hit in outcome.runs.iter().flat_map(|run| &run.hits) {
            h.part_display(preprocess_violation(&hit.pi, checker));
            part_outcome(&mut h, &violates_budgeted(&hit.pi, checker, None));
        }
    }
    h.finish()
}

const GOLDEN: &[(&str, &str, u64)] = &[
    ("zk-ephemeral", "v1-buggy", 0x1e434a04277b7b65),
    ("zk-ephemeral", "v2-fixed", 0xd2940883a96d5d55),
    ("zk-ephemeral", "v3-regressed", 0x02386329af46da65),
    ("zk-ephemeral", "v4-latest", 0x7647407a6f88b065),
    ("zk-sync-serialize", "v1-buggy", 0x3f2853c9144fd6c5),
    ("zk-sync-serialize", "v2-fixed", 0xcbf29ce484222325),
    ("zk-sync-serialize", "v3-regressed", 0x3f2853c9144fd6c5),
    ("zk-sync-serialize", "v4-latest", 0xcbf29ce484222325),
    ("hbase-snapshot-ttl", "v1-buggy", 0x20f70a1392371391),
    ("hbase-snapshot-ttl", "v2-fixed", 0x408f43a68e82214d),
    ("hbase-snapshot-ttl", "v3-regressed", 0x64013782add5dc41),
    ("hbase-snapshot-ttl", "v4-latest", 0x89ac4629452adb11),
    ("hdfs-observer-read", "v1-buggy", 0x836bf7e8d155d259),
    ("hdfs-observer-read", "v2-fixed", 0x833fe2f7cd8fd135),
    ("hdfs-observer-read", "v3-regressed", 0xf93cd9a798f39753),
    ("hdfs-observer-read", "v4-latest", 0xf07946702aa1d241),
    ("zk-watch-trigger", "v1-buggy", 0x8894d97fc2abedb1),
    ("zk-watch-trigger", "v2-fixed", 0x94c64a81534bcb1d),
    ("zk-watch-trigger", "v3-regressed", 0xd439c2d4459c4bfd),
    ("zk-watch-trigger", "v4-latest", 0xb008c475dc753e6d),
    ("zk-acl-cache", "v1-buggy", 0x842cbcd9b2908149),
    ("zk-acl-cache", "v2-fixed", 0xf70b8b5bf57a2e81),
    ("zk-acl-cache", "v3-regressed", 0xd2455ad1a6b4cc8d),
    ("zk-acl-cache", "v4-latest", 0x9e45a3d37d7832fd),
    ("zk-quota-check", "v1-buggy", 0x371ff72b5cc499b5),
    ("zk-quota-check", "v2-fixed", 0xa2b9899f7a46547d),
    ("zk-quota-check", "v3-regressed", 0x17030617f7e13b15),
    ("zk-quota-check", "v4-latest", 0x165463b684b4502d),
    ("hbase-region-close", "v1-buggy", 0x9caabe50c3584c01),
    ("hbase-region-close", "v2-fixed", 0x1e5598ae417acb89),
    ("hbase-region-close", "v3-regressed", 0x2e7681f2796dcc91),
    ("hbase-region-close", "v4-latest", 0x79d6725a78c4e5fd),
    ("hbase-wal-roll", "v1-buggy", 0xd5d26d6e7230c82d),
    ("hbase-wal-roll", "v2-fixed", 0x47bfa8b9dd4d6cdd),
    ("hbase-wal-roll", "v3-regressed", 0xb63c5f98e85edddd),
    ("hbase-wal-roll", "v4-latest", 0xb20a9cc5a3201835),
    ("hbase-meta-cache", "v1-buggy", 0xb10266a6b18dd891),
    ("hbase-meta-cache", "v2-fixed", 0x0b3fcdf5a40c3b5d),
    ("hbase-meta-cache", "v3-regressed", 0x5fb2449fa4bd7689),
    ("hbase-meta-cache", "v4-latest", 0x57f0f9777d786b35),
    ("hdfs-decommission", "v1-buggy", 0xe3d2ebbdc9c50cf1),
    ("hdfs-decommission", "v2-fixed", 0xbf69a3810c66aa5d),
    ("hdfs-decommission", "v3-regressed", 0x935ca38decbdf20f),
    ("hdfs-decommission", "v4-latest", 0xd37db8ad0d371ded),
    ("hdfs-lease-renew", "v1-buggy", 0xbd6ca1d9262e9fa5),
    ("hdfs-lease-renew", "v2-fixed", 0xb3355571c95dc8f5),
    ("hdfs-lease-renew", "v3-regressed", 0x03fa4251ac395dd9),
    ("hdfs-lease-renew", "v4-latest", 0xd60f938a5b4d1b05),
    ("hdfs-safemode", "v1-buggy", 0xebd110d85fa3fe59),
    ("hdfs-safemode", "v2-fixed", 0xa140d03b0673ddc5),
    ("hdfs-safemode", "v3-regressed", 0x9bea6bdd22d159e5),
    ("hdfs-safemode", "v4-latest", 0x73bd23c6b478ade5),
    ("cass-tombstone", "v1-buggy", 0xe4ace07a8a47d6f7),
    ("cass-tombstone", "v2-fixed", 0xb4ec8d24394a730d),
    ("cass-tombstone", "v3-regressed", 0x8d85a0deeb1f2139),
    ("cass-tombstone", "v4-latest", 0xad8d2f6c819ffd7d),
    ("cass-hint-ttl", "v1-buggy", 0x6be47392339f4723),
    ("cass-hint-ttl", "v2-fixed", 0x1066958e6e16c129),
    ("cass-hint-ttl", "v3-regressed", 0xb8773ac83c32123d),
    ("cass-hint-ttl", "v4-latest", 0x482ec6bd983b2abd),
    ("cass-read-repair", "v1-buggy", 0x508c2f454e2b32c9),
    ("cass-read-repair", "v2-fixed", 0x2c853c8eff44dfb5),
    ("cass-read-repair", "v3-regressed", 0xae6ffb52316ff615),
    ("cass-read-repair", "v4-latest", 0xbcfb86fd5f029445),
];

#[test]
fn every_corpus_version_keeps_its_queries() {
    let mut seen = Vec::new();
    for case in all_cases() {
        let rule = mined_rule(&case);
        for v in case.versions.all() {
            seen.push((case.meta.id.to_string(), v.label.clone(), fold(v, &rule)));
        }
    }
    let rendered: Vec<String> = seen
        .iter()
        .map(|(id, label, fp)| format!("    ({id:?}, {label:?}, 0x{fp:016x}),"))
        .collect();
    assert_eq!(seen.len(), 64, "16 cases x 4 versions");
    assert_eq!(
        seen.len(),
        GOLDEN.len(),
        "golden table out of date:\n{}",
        rendered.join("\n")
    );
    for ((id, label, fp), (gid, glabel, gfp)) in seen.iter().zip(GOLDEN) {
        assert_eq!((id.as_str(), label.as_str()), (*gid, *glabel));
        assert_eq!(*fp, *gfp, "{id}/{label}: query moved (0x{fp:016x})");
    }
}
