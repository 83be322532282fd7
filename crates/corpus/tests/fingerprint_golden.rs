//! Golden fingerprints: a pin on the rule-report memo's key inputs for
//! every corpus version.
//!
//! Program fingerprints key the rule-report memo, and they reach disk:
//! a durable run's journal key (`wal.log`'s `run-started` record) hashes
//! `SystemVersion::fingerprint`, which hashes the program fingerprint. A
//! value that moved without notice would silently split or merge memo
//! keys and make every journaled run re-check once, so the values below
//! are pinned: any change to the canonical rendering or to the hashing
//! moves a value in the table and fails this test.

use lisa_corpus::all_cases;
use lisa_lang::pretty::print_module;
use lisa_lang::{fingerprint_decls, fingerprint_program, fn_fingerprints};
use lisa_util::Fnv1a;

/// One u64 per version: the program, declaration and per-function
/// fingerprints, and the FNV-1a of every module's canonical rendering.
fn fold(program: &lisa_lang::Program) -> u64 {
    let mut h = Fnv1a::new();
    h.part_u64(fingerprint_program(program));
    h.part_u64(fingerprint_decls(program));
    for (name, fp) in fn_fingerprints(program) {
        h.part(name.as_bytes());
        h.part_u64(fp);
    }
    for module in &program.modules {
        h.part(module.name.as_bytes());
        h.part_u64(lisa_util::fnv1a(print_module(module).as_bytes()));
    }
    h.finish()
}

const GOLDEN: &[(&str, &str, u64)] = &[
    ("zk-ephemeral", "v1-buggy", 0xe128820bac3d7044),
    ("zk-ephemeral", "v2-fixed", 0xcaff0af74e057e92),
    ("zk-ephemeral", "v3-regressed", 0x7ba57d1b3d77aff8),
    ("zk-ephemeral", "v4-latest", 0x5f8bd944c2fe7050),
    ("zk-sync-serialize", "v1-buggy", 0xcb9bdb8953fbbec4),
    ("zk-sync-serialize", "v2-fixed", 0xd60d3ad989a8c634),
    ("zk-sync-serialize", "v3-regressed", 0xaf6cfa4aad3c6ab3),
    ("zk-sync-serialize", "v4-latest", 0x15ebb9b37b9720cb),
    ("hbase-snapshot-ttl", "v1-buggy", 0x1444deea6776a0b9),
    ("hbase-snapshot-ttl", "v2-fixed", 0xb3c8bf48798832db),
    ("hbase-snapshot-ttl", "v3-regressed", 0xc9d3661463965ab1),
    ("hbase-snapshot-ttl", "v4-latest", 0x4bf3b7736ba13d5b),
    ("hdfs-observer-read", "v1-buggy", 0xc1cdd47e94389fab),
    ("hdfs-observer-read", "v2-fixed", 0xc3b70049e3ae7112),
    ("hdfs-observer-read", "v3-regressed", 0x8601c697d203d858),
    ("hdfs-observer-read", "v4-latest", 0x96fff2dff6243e3e),
    ("zk-watch-trigger", "v1-buggy", 0x7b6b0131f294802d),
    ("zk-watch-trigger", "v2-fixed", 0xb6b0bd579eb78e2c),
    ("zk-watch-trigger", "v3-regressed", 0xb93aa48d965ab2a8),
    ("zk-watch-trigger", "v4-latest", 0x5d8af3779683e6a3),
    ("zk-acl-cache", "v1-buggy", 0x50a6984739958b7d),
    ("zk-acl-cache", "v2-fixed", 0xb4a4a0638ffb4e87),
    ("zk-acl-cache", "v3-regressed", 0x121bb7c6a0cc7690),
    ("zk-acl-cache", "v4-latest", 0xe9d7631b04f23e2c),
    ("zk-quota-check", "v1-buggy", 0xa748620974ba2b11),
    ("zk-quota-check", "v2-fixed", 0xd5fa88954a907e2e),
    ("zk-quota-check", "v3-regressed", 0x745b3ff8b84cc1f4),
    ("zk-quota-check", "v4-latest", 0x8f15210c0df1bb2d),
    ("hbase-region-close", "v1-buggy", 0xbbafe9ea71a44496),
    ("hbase-region-close", "v2-fixed", 0xa9295a0dac437a23),
    ("hbase-region-close", "v3-regressed", 0x77818e95cc13760d),
    ("hbase-region-close", "v4-latest", 0x64352ab2d907b8b6),
    ("hbase-wal-roll", "v1-buggy", 0xd8d6a91a4060b618),
    ("hbase-wal-roll", "v2-fixed", 0x84bf9afdd6312765),
    ("hbase-wal-roll", "v3-regressed", 0x1cd211701768e58a),
    ("hbase-wal-roll", "v4-latest", 0xa5e9248af1c1d227),
    ("hbase-meta-cache", "v1-buggy", 0x043f1acfa65acbdc),
    ("hbase-meta-cache", "v2-fixed", 0x473082f1b00087d2),
    ("hbase-meta-cache", "v3-regressed", 0xa7b8d50dac327d81),
    ("hbase-meta-cache", "v4-latest", 0x68d8e5032ce8b287),
    ("hdfs-decommission", "v1-buggy", 0xacde5078c37b80af),
    ("hdfs-decommission", "v2-fixed", 0x41af0601e14c8d26),
    ("hdfs-decommission", "v3-regressed", 0xfb00ed240f425e39),
    ("hdfs-decommission", "v4-latest", 0x7b734adba38a9865),
    ("hdfs-lease-renew", "v1-buggy", 0x7e39a94c00e3abbc),
    ("hdfs-lease-renew", "v2-fixed", 0x20657a096cb7eee9),
    ("hdfs-lease-renew", "v3-regressed", 0x08b71b48d67958ac),
    ("hdfs-lease-renew", "v4-latest", 0xf47f2551a146904a),
    ("hdfs-safemode", "v1-buggy", 0xed3fd512505d0adb),
    ("hdfs-safemode", "v2-fixed", 0x14039cb62f027521),
    ("hdfs-safemode", "v3-regressed", 0x6f27cbb583d80d46),
    ("hdfs-safemode", "v4-latest", 0xeb2570d7af9e2cf6),
    ("cass-tombstone", "v1-buggy", 0xc757b6312b8897e4),
    ("cass-tombstone", "v2-fixed", 0x28680866a1efc087),
    ("cass-tombstone", "v3-regressed", 0xcc3b2248f1b28b65),
    ("cass-tombstone", "v4-latest", 0x5b6b260f14fa721f),
    ("cass-hint-ttl", "v1-buggy", 0xe8a1698973e26a20),
    ("cass-hint-ttl", "v2-fixed", 0x1d6e39951a175cba),
    ("cass-hint-ttl", "v3-regressed", 0x903fe72e449a965c),
    ("cass-hint-ttl", "v4-latest", 0x3f734c90f6b88265),
    ("cass-read-repair", "v1-buggy", 0xf4a92a11b3ffb979),
    ("cass-read-repair", "v2-fixed", 0xc80fca03d2c4b752),
    ("cass-read-repair", "v3-regressed", 0xfd3ac522f260f1aa),
    ("cass-read-repair", "v4-latest", 0xba51b747c6e55748),
];

#[test]
fn every_corpus_version_keeps_its_fingerprints() {
    let mut seen = Vec::new();
    for case in all_cases() {
        for v in case.versions.all() {
            seen.push((case.meta.id.to_string(), v.label.clone(), fold(&v.program)));
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
        assert_eq!(*fp, *gfp, "{id}/{label}: fingerprint moved (0x{fp:016x})");
    }
}
