//! Golden solver queries: one pinned value per corpus version.
//!
//! For each case the rule mined from its original ticket is traced
//! through every test of every version, under both recording policies,
//! and every hit's violation query `π ∧ ¬checker` is folded in three
//! forms: the text of its canonical form (`preprocess_violation`), its
//! `QueryCache` key, and the outcome of a fresh `violates_budgeted`,
//! witness model included. Any change to how a query is canonicalized,
//! keyed or solved moves a value in the table below and fails this test.

mod common;

use common::{mined_rule, rule_aliases};
use lisa_concolic::{run_tests_budgeted, HarnessBudget, Policy, SystemVersion};
use lisa_corpus::all_cases;
use lisa_oracle::SemanticRule;
use lisa_smt::nnf::preprocess_violation;
use lisa_smt::{violates_budgeted, QueryCache, ViolationOutcome};
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
            let (key, budget) = QueryCache::key(&hit.pi, checker, None);
            h.part_u64(key);
            h.part_u64(budget.map_or(u64::MAX, |b| b));
            part_outcome(&mut h, &violates_budgeted(&hit.pi, checker, None));
        }
    }
    h.finish()
}

const GOLDEN: &[(&str, &str, u64)] = &[
    ("zk-ephemeral", "v1-buggy", 0x8ae4d1d24c5182d1),
    ("zk-ephemeral", "v2-fixed", 0x8f47f7c2c0e56dad),
    ("zk-ephemeral", "v3-regressed", 0xa43df17b2629a8c3),
    ("zk-ephemeral", "v4-latest", 0xaf3b0f75bc3155fd),
    ("zk-sync-serialize", "v1-buggy", 0x7cda481d043af99d),
    ("zk-sync-serialize", "v2-fixed", 0xcbf29ce484222325),
    ("zk-sync-serialize", "v3-regressed", 0x7cda481d043af99d),
    ("zk-sync-serialize", "v4-latest", 0xcbf29ce484222325),
    ("hbase-snapshot-ttl", "v1-buggy", 0x5b0726bc5668d30d),
    ("hbase-snapshot-ttl", "v2-fixed", 0xd022cb7347e88ded),
    ("hbase-snapshot-ttl", "v3-regressed", 0x36cabdb486f3d583),
    ("hbase-snapshot-ttl", "v4-latest", 0x526e552f03d7bb15),
    ("hdfs-observer-read", "v1-buggy", 0x1c15b794765bbbd5),
    ("hdfs-observer-read", "v2-fixed", 0xcb7f558d2b54d033),
    ("hdfs-observer-read", "v3-regressed", 0x35894acc25d877f5),
    ("hdfs-observer-read", "v4-latest", 0xcb1f04bc596ddf95),
    ("zk-watch-trigger", "v1-buggy", 0xc3933c963bddb18d),
    ("zk-watch-trigger", "v2-fixed", 0x237d87d9ba7a6815),
    ("zk-watch-trigger", "v3-regressed", 0x51283bdd03068975),
    ("zk-watch-trigger", "v4-latest", 0x2b1e7b71201315b5),
    ("zk-acl-cache", "v1-buggy", 0xa89d2281a529ec5d),
    ("zk-acl-cache", "v2-fixed", 0xe9f3ac1f12a26959),
    ("zk-acl-cache", "v3-regressed", 0x4dd132af2ccbaf5d),
    ("zk-acl-cache", "v4-latest", 0xe94c09d1f1e1e2bd),
    ("zk-quota-check", "v1-buggy", 0x124012f2c0e2dc09),
    ("zk-quota-check", "v2-fixed", 0x6f3b712e2b630cfd),
    ("zk-quota-check", "v3-regressed", 0x606ec26be0c5ca6d),
    ("zk-quota-check", "v4-latest", 0x8769ad0e4fbaad2d),
    ("hbase-region-close", "v1-buggy", 0x5699b204e296f741),
    ("hbase-region-close", "v2-fixed", 0xfb2de31439aecc35),
    ("hbase-region-close", "v3-regressed", 0xeb8a744018b2cedd),
    ("hbase-region-close", "v4-latest", 0xaf6c138e8d8e4945),
    ("hbase-wal-roll", "v1-buggy", 0x33baf68f9c92e329),
    ("hbase-wal-roll", "v2-fixed", 0xcc9e28f51173d0e1),
    ("hbase-wal-roll", "v3-regressed", 0x92c843bc82b9c83d),
    ("hbase-wal-roll", "v4-latest", 0x6dd44cb2d977499d),
    ("hbase-meta-cache", "v1-buggy", 0xa9fd2ae6b6039875),
    ("hbase-meta-cache", "v2-fixed", 0x5a19543600b8aae5),
    ("hbase-meta-cache", "v3-regressed", 0x3d483a8f0e4a6bd1),
    ("hbase-meta-cache", "v4-latest", 0xf9a02bef3e71c6a5),
    ("hdfs-decommission", "v1-buggy", 0x43ec7a920cdfb95f),
    ("hdfs-decommission", "v2-fixed", 0xcd78f1835946a11d),
    ("hdfs-decommission", "v3-regressed", 0x2cd7c2bf1ebd6f73),
    ("hdfs-decommission", "v4-latest", 0xbe3703f0b16765ad),
    ("hdfs-lease-renew", "v1-buggy", 0xfcec826018eb1eb1),
    ("hdfs-lease-renew", "v2-fixed", 0x9668d42f75a77279),
    ("hdfs-lease-renew", "v3-regressed", 0x3b6304e7e0162745),
    ("hdfs-lease-renew", "v4-latest", 0x07cb0dd6031b689d),
    ("hdfs-safemode", "v1-buggy", 0xa5d0df3d8e126965),
    ("hdfs-safemode", "v2-fixed", 0xd2bdfd45f69c6039),
    ("hdfs-safemode", "v3-regressed", 0x196919e70ac86b25),
    ("hdfs-safemode", "v4-latest", 0x5c509e3e46b1072d),
    ("cass-tombstone", "v1-buggy", 0x8372d903a88924f3),
    ("cass-tombstone", "v2-fixed", 0x330060b1f9ae2365),
    ("cass-tombstone", "v3-regressed", 0x21404c67b408dc93),
    ("cass-tombstone", "v4-latest", 0xaa601a450c44fee5),
    ("cass-hint-ttl", "v1-buggy", 0xf57d1fcd7fd3cda7),
    ("cass-hint-ttl", "v2-fixed", 0x5629da71a6ff0da5),
    ("cass-hint-ttl", "v3-regressed", 0xafa4de98eb2d97ef),
    ("cass-hint-ttl", "v4-latest", 0x507b23df491b7225),
    ("cass-read-repair", "v1-buggy", 0xf7837fa3d92dc951),
    ("cass-read-repair", "v2-fixed", 0x10e485ac2f190085),
    ("cass-read-repair", "v3-regressed", 0x049616e8b75aa2c3),
    ("cass-read-repair", "v4-latest", 0x0cd6574e4f79f1e5),
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
