//! A per-rule outcome file beside a run's journal, keyed by an opaque
//! hash the caller chooses.
//!
//! No gate path reads or writes it: durable runs reuse verdicts only
//! through journal resume and the in-memory rule-report memo. The type
//! is kept solely for the serve replay mirror in `lisabench`, which
//! times a load, an insert per rule and a save, until lisabench v2
//! (ROADMAP.md, item 2) retires that mirror.
//!
//! The file is replaced atomically as one checksummed frame
//! (`journal::write_atomic`), so a torn or corrupt file reads as absent.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use crate::codec::{decode, encode, field, field_u64};
use crate::event::RuleOutcome;
use crate::journal::{read_atomic, write_atomic};

/// On-disk file name, beside `wal.log` in the run's state directory.
const FINGERPRINTS: &str = "fingerprints.log";

/// One rule's recorded hash and settled outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
struct RuleFingerprint {
    dep_hash: u64,
    outcome: RuleOutcome,
}

/// The persisted map, rule id → recorded fingerprint.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct FingerprintFile {
    entries: BTreeMap<String, RuleFingerprint>,
}

impl FingerprintFile {
    fn path(dir: &Path) -> PathBuf {
        dir.join(FINGERPRINTS)
    }

    /// Load the fingerprint file from `dir`. Absent, torn, or corrupt
    /// files all yield the empty map.
    pub fn load(dir: &Path) -> FingerprintFile {
        let Some(payload) = read_atomic(&Self::path(dir)) else {
            return FingerprintFile::default();
        };
        let text = match std::str::from_utf8(&payload) {
            Ok(t) => t,
            Err(_) => return FingerprintFile::default(),
        };
        let mut entries = BTreeMap::new();
        for line in text.lines() {
            let Ok(entry) = decode_entry(line.as_bytes()) else {
                // One undecodable entry poisons nothing else.
                continue;
            };
            entries.insert(entry.outcome.rule_id.clone(), entry);
        }
        FingerprintFile { entries }
    }

    /// Atomically replace the fingerprint file in `dir`.
    pub fn save(&self, dir: &Path) -> std::io::Result<()> {
        let mut lines = Vec::with_capacity(self.entries.len());
        for fp in self.entries.values() {
            lines.push(String::from_utf8_lossy(&encode_entry(fp)).into_owned());
        }
        write_atomic(&Self::path(dir), lines.join("\n").as_bytes())
    }

    pub fn insert(&mut self, dep_hash: u64, outcome: RuleOutcome) {
        self.entries
            .insert(outcome.rule_id.clone(), RuleFingerprint { dep_hash, outcome });
    }
}

fn encode_entry(fp: &RuleFingerprint) -> Vec<u8> {
    let o = &fp.outcome;
    encode(&[
        ("dep", &format!("{:016x}", fp.dep_hash)),
        ("rule", &o.rule_id),
        ("fp", &o.fingerprint),
        ("verified", &o.verified.to_string()),
        ("violated", &o.violated.to_string()),
        ("not_covered", &o.not_covered.to_string()),
        ("engine_errors", &o.engine_errors.to_string()),
        ("degraded", if o.unchecked { "1" } else { "0" }),
        ("sanity_ok", if o.sanity_ok { "1" } else { "0" }),
    ])
}

fn decode_entry(payload: &[u8]) -> Result<RuleFingerprint, String> {
    let fields = decode(payload)?;
    let dep = field(&fields, "dep")?;
    let dep_hash =
        u64::from_str_radix(dep, 16).map_err(|_| format!("bad dep hash {dep:?}"))?;
    let outcome = RuleOutcome {
        rule_id: field(&fields, "rule")?.to_string(),
        fingerprint: field(&fields, "fp")?.to_string(),
        verified: field_u64(&fields, "verified")?,
        violated: field_u64(&fields, "violated")?,
        not_covered: field_u64(&fields, "not_covered")?,
        engine_errors: field_u64(&fields, "engine_errors")?,
        unchecked: field(&fields, "degraded")? == "1",
        sanity_ok: field(&fields, "sanity_ok")? == "1",
    };
    Ok(RuleFingerprint { dep_hash, outcome })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(rule_id: &str) -> RuleOutcome {
        RuleOutcome {
            rule_id: rule_id.to_string(),
            fingerprint: "[verified] a -> b\nverified=1".to_string(),
            verified: 1,
            violated: 0,
            not_covered: 0,
            engine_errors: 0,
            unchecked: false,
            sanity_ok: true,
        }
    }

    #[test]
    fn round_trips_through_disk() {
        let dir = std::env::temp_dir().join(format!("lisa-fp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut file = FingerprintFile::default();
        file.insert(0xabc, outcome("R1"));
        file.insert(0xdef, outcome("R2"));
        file.save(&dir).unwrap();
        let loaded = FingerprintFile::load(&dir);
        assert_eq!(loaded, file);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_or_corrupt_file_reads_empty() {
        let dir = std::env::temp_dir().join(format!("lisa-fp-c-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        assert!(FingerprintFile::load(&dir).entries.is_empty(), "absent");
        std::fs::write(dir.join(FINGERPRINTS), b"garbage not a frame").unwrap();
        assert!(FingerprintFile::load(&dir).entries.is_empty(), "corrupt");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn escaped_fields_survive_newlines_in_fingerprints() {
        let dir = std::env::temp_dir().join(format!("lisa-fp-e-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut o = outcome("R-multi");
        o.fingerprint = "line one\nline two\ttabbed\neq=sign".to_string();
        let mut file = FingerprintFile::default();
        file.insert(7, o);
        file.save(&dir).unwrap();
        assert_eq!(FingerprintFile::load(&dir), file);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
