//! Gate events: what the journal records.
//!
//! The unit of durability is the *settled rule verdict*: once a
//! `RuleCheckFinished` event is on disk, a resumed run reuses the
//! outcome instead of re-running concolic exploration — losing
//! accumulated solver work on a crash is the dominant recovery cost
//! (cf. the symbolic-execution orchestration literature). Outcomes are
//! stored as opaque verdict fingerprints plus fold counts, never as
//! re-interpretable reports: corruption can force a re-check, but it can
//! never fabricate a verdict.

use crate::codec::{decode, encode, field, field_u64};

/// The settled result of one rule check, as journaled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleOutcome {
    pub rule_id: String,
    /// Canonical multi-line verdict fingerprint (chain labels + rendered
    /// paths + fold counts) — the byte-comparable artifact the recovery
    /// invariant is stated over.
    pub fingerprint: String,
    pub verified: u64,
    pub violated: u64,
    pub not_covered: u64,
    pub engine_errors: u64,
    /// The rule was not checked (the gate deadline expired before it
    /// started), so a resumed run checks it again. Journaled under the
    /// wire key `degraded`, which earlier releases wrote for the same
    /// "do not resume this outcome" meaning.
    pub unchecked: bool,
    pub sanity_ok: bool,
}

impl RuleOutcome {
    pub fn has_violation(&self) -> bool {
        self.violated > 0
    }

    pub fn has_engine_error(&self) -> bool {
        self.engine_errors > 0
    }
}

/// One journaled gate event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GateEvent {
    /// A new run began; `run_key` fingerprints (version, rule set) so a
    /// stale journal from a different input can never poison recovery.
    RunStarted { run_key: String },
    /// A rule check began (crash between Started and Finished ⇒ the rule
    /// is re-checked on resume).
    RuleCheckStarted { rule_id: String },
    /// A rule check settled; the outcome is now durable.
    RuleCheckFinished { outcome: RuleOutcome },
    /// The run completed with a final gate decision.
    RunFinished { decision: String },
}

impl GateEvent {
    /// Serialize to a journal record payload.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            GateEvent::RunStarted { run_key } => {
                encode(&[("kind", "run-started"), ("run_key", run_key)])
            }
            GateEvent::RuleCheckStarted { rule_id } => {
                encode(&[("kind", "check-started"), ("rule", rule_id)])
            }
            GateEvent::RuleCheckFinished { outcome: o } => encode(&[
                ("kind", "check-finished"),
                ("rule", &o.rule_id),
                ("fp", &o.fingerprint),
                ("verified", &o.verified.to_string()),
                ("violated", &o.violated.to_string()),
                ("not_covered", &o.not_covered.to_string()),
                ("engine_errors", &o.engine_errors.to_string()),
                ("degraded", if o.unchecked { "1" } else { "0" }),
                ("sanity_ok", if o.sanity_ok { "1" } else { "0" }),
            ]),
            GateEvent::RunFinished { decision } => {
                encode(&[("kind", "run-finished"), ("decision", decision)])
            }
        }
    }

    /// Parse a journal record payload. Fields a kind does not read are
    /// ignored, so records written with fields since retired (the
    /// `retries` count of `check-finished`) still decode.
    pub fn decode(payload: &[u8]) -> Result<GateEvent, String> {
        let fields = decode(payload)?;
        let kind = field(&fields, "kind")?;
        match kind {
            "run-started" => Ok(GateEvent::RunStarted { run_key: field(&fields, "run_key")?.to_string() }),
            "check-started" => {
                Ok(GateEvent::RuleCheckStarted { rule_id: field(&fields, "rule")?.to_string() })
            }
            "check-finished" => Ok(GateEvent::RuleCheckFinished {
                outcome: RuleOutcome {
                    rule_id: field(&fields, "rule")?.to_string(),
                    fingerprint: field(&fields, "fp")?.to_string(),
                    verified: field_u64(&fields, "verified")?,
                    violated: field_u64(&fields, "violated")?,
                    not_covered: field_u64(&fields, "not_covered")?,
                    engine_errors: field_u64(&fields, "engine_errors")?,
                    unchecked: field(&fields, "degraded")? == "1",
                    sanity_ok: field(&fields, "sanity_ok")? == "1",
                },
            }),
            "run-finished" => {
                Ok(GateEvent::RunFinished { decision: field(&fields, "decision")?.to_string() })
            }
            other => Err(format!("unknown event kind {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub fn sample_outcome(rule_id: &str, violated: u64) -> RuleOutcome {
        RuleOutcome {
            rule_id: rule_id.to_string(),
            fingerprint: format!("[verified] a -> b\n[VIOLATED] c -> d\nviolated={violated}"),
            verified: 1,
            violated,
            not_covered: 0,
            engine_errors: 0,
            unchecked: false,
            sanity_ok: true,
        }
    }

    #[test]
    fn all_event_kinds_roundtrip() {
        let events = [
            GateEvent::RunStarted { run_key: "v1/abcd=ef\t".to_string() },
            GateEvent::RuleCheckStarted { rule_id: "ZK-1208-r0".to_string() },
            GateEvent::RuleCheckFinished { outcome: sample_outcome("ZK-1208-r0", 1) },
            GateEvent::RunFinished { decision: "BLOCK".to_string() },
        ];
        for e in &events {
            let back = GateEvent::decode(&e.encode()).expect("decode");
            assert_eq!(&back, e);
        }
    }

    #[test]
    fn check_finished_with_a_retired_retries_field_still_decodes() {
        // A `check-finished` record as journals before schema 2 wrote it.
        let o = sample_outcome("ZK-1208-r0", 1);
        let old = encode(&[
            ("kind", "check-finished"),
            ("rule", &o.rule_id),
            ("fp", &o.fingerprint),
            ("verified", "1"),
            ("violated", "1"),
            ("not_covered", "0"),
            ("engine_errors", "0"),
            ("degraded", "0"),
            ("sanity_ok", "1"),
            ("retries", "2"),
        ]);
        let back = GateEvent::decode(&old).expect("old record decodes");
        assert_eq!(back, GateEvent::RuleCheckFinished { outcome: o.clone() });
        // Re-encoding writes no `retries` field.
        let new = GateEvent::RuleCheckFinished { outcome: o }.encode();
        assert!(!String::from_utf8_lossy(&new).contains("retries"));
    }

    #[test]
    fn unknown_kind_is_an_error() {
        let payload = encode(&[("kind", "mystery")]);
        assert!(GateEvent::decode(&payload).is_err());
        assert!(GateEvent::decode(b"garbage").is_err());
    }
}
