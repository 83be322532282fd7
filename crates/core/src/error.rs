//! Engine-side error taxonomy for the enforcement gate.
//!
//! The gate's contract is that it *always returns a decision*: a rule
//! whose check panics or arrives malformed must not kill the whole
//! enforcement run. Stage boundaries return `Result<_, LisaError>` and
//! the gate folds failures into per-rule engine-error reports, with the
//! fail-mode deciding whether they block. A rule check is a pure
//! function of its inputs, so a failed check is never retried in
//! process: running it again would fail the same way.

use std::fmt;

/// A failure of the gate machinery itself, as opposed to a semantic-rule
/// violation in the system under check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LisaError {
    /// The rule check panicked (a bug in the engine or a pathological
    /// input); the payload is preserved for the report.
    RulePanicked { rule_id: String, reason: String },
    /// The rule itself is unusable — e.g. the oracle emitted a condition
    /// that does not parse. A per-rule error, never a process abort.
    MalformedRule { rule_id: String, detail: String },
}

impl LisaError {
    /// The rule the error is attributed to.
    pub fn rule_id(&self) -> &str {
        match self {
            LisaError::RulePanicked { rule_id, .. } | LisaError::MalformedRule { rule_id, .. } => {
                rule_id
            }
        }
    }
}

impl fmt::Display for LisaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LisaError::RulePanicked { rule_id, reason } => {
                write!(f, "rule {rule_id}: check panicked: {reason}")
            }
            LisaError::MalformedRule { rule_id, detail } => {
                write!(f, "rule {rule_id}: malformed rule: {detail}")
            }
        }
    }
}

impl std::error::Error for LisaError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_rule_and_detail() {
        let e = LisaError::MalformedRule { rule_id: "ZK-1".into(), detail: "bad token".into() };
        let s = e.to_string();
        assert!(s.contains("ZK-1") && s.contains("bad token"));
        let p = LisaError::RulePanicked { rule_id: "R".into(), reason: "boom".into() };
        assert_eq!(p.to_string(), "rule R: check panicked: boom");
        assert_eq!(p.rule_id(), "R");
    }
}
