//! Golden concolic traces: one pinned value per corpus version.
//!
//! For each case the rule mined from its original ticket (builtin rules
//! generalized, as the end-to-end sweep does) is traced through every
//! test of every version, under both recording policies. The value folds
//! in everything a trace carries: per test its name, step count, error
//! text and engine counters; per hit the caller, callee, span, π, dynamic
//! chain and lock count; per raw constraint its function, term, statement
//! and span. Any change to what the interpreter executes or what the
//! tracer records moves a value in the table below and fails this test.

mod common;

use common::{mined_rule, rule_aliases};
use lisa_concolic::{run_tests_budgeted, HarnessBudget, Policy, SystemVersion};
use lisa_corpus::all_cases;
use lisa_lang::Span;
use lisa_oracle::SemanticRule;
use lisa_util::Fnv1a;

fn part_span(h: &mut Fnv1a, span: Span) {
    h.part_u64(span.lo as u64);
    h.part_u64(span.hi as u64);
}

fn fold(version: &SystemVersion, rule: &SemanticRule) -> u64 {
    let aliases = rule_aliases(version, rule);
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
        for run in &outcome.runs {
            h.part(run.test.as_bytes());
            h.part_u64(run.steps);
            match &run.error {
                Some(e) => h.part_display(e),
                None => h.part(b"ok"),
            };
            h.part_u64(run.stats.branches_seen);
            h.part_u64(run.stats.branches_recorded);
            h.part_u64(run.stats.constraints_invalidated);
            h.part_u64(run.stats.target_hits);
            for hit in &run.hits {
                h.part(hit.caller.as_bytes());
                h.part(hit.callee.as_bytes());
                part_span(&mut h, hit.span);
                h.part_display(&hit.pi);
                for f in &hit.chain {
                    h.part(f.as_bytes());
                }
                h.part_u64(hit.locks_held as u64);
                for c in &hit.raw {
                    h.part(c.function.as_bytes());
                    h.part_display(&c.term);
                    h.part_u64(u64::from(c.stmt.0));
                    part_span(&mut h, c.span);
                }
            }
        }
    }
    h.finish()
}

const GOLDEN: &[(&str, &str, u64)] = &[
    ("zk-ephemeral", "v1-buggy", 0xcead96f97dd9af3a),
    ("zk-ephemeral", "v2-fixed", 0xa1dcaa833841fd23),
    ("zk-ephemeral", "v3-regressed", 0x181b691b1e7060ef),
    ("zk-ephemeral", "v4-latest", 0xca3857ca8d287387),
    ("zk-sync-serialize", "v1-buggy", 0x2a77798288b71f09),
    ("zk-sync-serialize", "v2-fixed", 0x446c23ece6ba3a25),
    ("zk-sync-serialize", "v3-regressed", 0x2a7b3050942dc3c5),
    ("zk-sync-serialize", "v4-latest", 0x653071be69f779ad),
    ("hbase-snapshot-ttl", "v1-buggy", 0x64a9d4c5d86247f5),
    ("hbase-snapshot-ttl", "v2-fixed", 0x84c331fdca49b18b),
    ("hbase-snapshot-ttl", "v3-regressed", 0x55755d49bee4c005),
    ("hbase-snapshot-ttl", "v4-latest", 0x7ada042ab8fbea21),
    ("hdfs-observer-read", "v1-buggy", 0x27e80f591663aca1),
    ("hdfs-observer-read", "v2-fixed", 0x61b969dc293ccc91),
    ("hdfs-observer-read", "v3-regressed", 0x772f25f269b0cd60),
    ("hdfs-observer-read", "v4-latest", 0xb797a3dc5fbaa355),
    ("zk-watch-trigger", "v1-buggy", 0x37c4f2c38fdffa20),
    ("zk-watch-trigger", "v2-fixed", 0x5872c5709d0c8e68),
    ("zk-watch-trigger", "v3-regressed", 0x7fef00a14d0e3fc6),
    ("zk-watch-trigger", "v4-latest", 0x20dbcd6a2e04b918),
    ("zk-acl-cache", "v1-buggy", 0x2d45140194141774),
    ("zk-acl-cache", "v2-fixed", 0x530eb909e5a9d8e4),
    ("zk-acl-cache", "v3-regressed", 0x35464259194db890),
    ("zk-acl-cache", "v4-latest", 0x66924a12c4a38e30),
    ("zk-quota-check", "v1-buggy", 0xc75a8d2ec22aabf8),
    ("zk-quota-check", "v2-fixed", 0x8782e40608ae0cc2),
    ("zk-quota-check", "v3-regressed", 0x6f5e082571f70664),
    ("zk-quota-check", "v4-latest", 0xf8daa57745b1479c),
    ("hbase-region-close", "v1-buggy", 0xeb3152430149663e),
    ("hbase-region-close", "v2-fixed", 0x4f00fea3a0ffaf10),
    ("hbase-region-close", "v3-regressed", 0x434c7cde38517396),
    ("hbase-region-close", "v4-latest", 0x300cc341c191a0d8),
    ("hbase-wal-roll", "v1-buggy", 0x064dd43d1c32bc38),
    ("hbase-wal-roll", "v2-fixed", 0xca59ec9350208c78),
    ("hbase-wal-roll", "v3-regressed", 0x5b6c22bf6ff0d148),
    ("hbase-wal-roll", "v4-latest", 0x6c29100304c50e9e),
    ("hbase-meta-cache", "v1-buggy", 0x59ad9b052600faf8),
    ("hbase-meta-cache", "v2-fixed", 0x7fa0525021b26998),
    ("hbase-meta-cache", "v3-regressed", 0xbad098edeadd1900),
    ("hbase-meta-cache", "v4-latest", 0x679ff647b43be190),
    ("hdfs-decommission", "v1-buggy", 0x994857d6196eeb9a),
    ("hdfs-decommission", "v2-fixed", 0xf6594d9304568a6c),
    ("hdfs-decommission", "v3-regressed", 0x8538b0e1483c4396),
    ("hdfs-decommission", "v4-latest", 0xcfa07b7534f810c6),
    ("hdfs-lease-renew", "v1-buggy", 0xa165cc8a36252746),
    ("hdfs-lease-renew", "v2-fixed", 0xf99a172ef9b8d4bc),
    ("hdfs-lease-renew", "v3-regressed", 0x38791b8ea34633e6),
    ("hdfs-lease-renew", "v4-latest", 0x3cf7f49e722d2388),
    ("hdfs-safemode", "v1-buggy", 0x7118af4e4b49fc92),
    ("hdfs-safemode", "v2-fixed", 0xf5b0ba1c61fab8ce),
    ("hdfs-safemode", "v3-regressed", 0xceb3f9c41fcd24c8),
    ("hdfs-safemode", "v4-latest", 0xd7859b76dc331490),
    ("cass-tombstone", "v1-buggy", 0xe647ab7f15011170),
    ("cass-tombstone", "v2-fixed", 0x12a2927f5b56240c),
    ("cass-tombstone", "v3-regressed", 0x283363333bb765b4),
    ("cass-tombstone", "v4-latest", 0xd0fd5000113cb870),
    ("cass-hint-ttl", "v1-buggy", 0xf548c42a327f7f76),
    ("cass-hint-ttl", "v2-fixed", 0x13e2164cfa34023e),
    ("cass-hint-ttl", "v3-regressed", 0x02f5a7613b601650),
    ("cass-hint-ttl", "v4-latest", 0xa46184a081427140),
    ("cass-read-repair", "v1-buggy", 0x185887de225a0c30),
    ("cass-read-repair", "v2-fixed", 0x4439726b501b78e0),
    ("cass-read-repair", "v3-regressed", 0x801727ef990d39d8),
    ("cass-read-repair", "v4-latest", 0x4bf8108a122acb90),
];

#[test]
fn every_corpus_version_keeps_its_traces() {
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
        assert_eq!(*fp, *gfp, "{id}/{label}: trace moved (0x{fp:016x})");
    }
}
