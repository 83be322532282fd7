//! Static validation of inferred rules against a program version.
//!
//! First line of defence against hallucinated semantics (§5): before any
//! concolic work, a rule must be *well-formed for the codebase* — its
//! target exists, its placeholders name real parameters or globals, and
//! placeholder field paths exist on the parameter's struct type. Rules
//! that fail here are rejected outright; dynamic cross-checking against
//! tests (in `lisa::crosscheck`) catches the subtler wrong-but-well-formed
//! ones.

use lisa_analysis::TargetSpec;
use lisa_lang::{Program, Type};

use crate::rule::SemanticRule;

/// A validation finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidationError {
    UnknownTarget(String),
    UnknownPlaceholder { placeholder: String, target: String },
    UnknownFieldPath { path: String, on_type: String },
    EmptyCondition,
}

impl std::fmt::Display for ValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValidationError::UnknownTarget(t) => write!(f, "target `{t}` not in codebase"),
            ValidationError::UnknownPlaceholder { placeholder, target } => {
                write!(f, "placeholder `{placeholder}` is not a parameter of `{target}` or a global")
            }
            ValidationError::UnknownFieldPath { path, on_type } => {
                write!(f, "field path `{path}` does not exist on `{on_type}`")
            }
            ValidationError::EmptyCondition => write!(f, "condition constrains nothing"),
        }
    }
}

/// Validate a rule against a program. Empty vec = valid.
pub fn validate_rule(program: &Program, rule: &SemanticRule) -> Vec<ValidationError> {
    let mut errors = Vec::new();
    // Target exists?
    match &rule.target {
        TargetSpec::Call { callee } => {
            if program.function(callee).is_none() {
                errors.push(ValidationError::UnknownTarget(callee.clone()));
                return errors;
            }
        }
        TargetSpec::BuiltinInCaller { caller, .. } => {
            if program.function(caller).is_none() {
                errors.push(ValidationError::UnknownTarget(caller.clone()));
                return errors;
            }
        }
        TargetSpec::Builtin { .. } | TargetSpec::BuiltinInSync { .. } => {}
    }
    let vars = rule.condition.vars();
    if vars.is_empty() {
        errors.push(ValidationError::EmptyCondition);
    }
    for (var, _) in &vars {
        if var.starts_with('$') {
            continue; // synthetic ($locks.held)
        }
        let root = lisa_lang::symbolic::path_root(var);
        // Root resolves to a parameter of the target callee or a global.
        let root_ty: Option<Type> = match &rule.target {
            TargetSpec::Call { callee } => program
                .function(callee)
                .and_then(|f| f.params.iter().find(|(p, _)| p == root))
                .map(|(_, t)| t.clone()),
            _ => None,
        }
        .or_else(|| program.global(root).map(|g| g.ty.clone()));
        let Some(mut ty) = root_ty else {
            errors.push(ValidationError::UnknownPlaceholder {
                placeholder: root.to_string(),
                target: rule.target.callee().to_string(),
            });
            continue;
        };
        // Field components must exist along the struct chain.
        for field in var.split('.').skip(1) {
            match &ty {
                Type::Struct(sname) => {
                    match program.struct_decl(sname).and_then(|d| d.field_type(field)) {
                        Some(ft) => ty = ft.clone(),
                        None => {
                            errors.push(ValidationError::UnknownFieldPath {
                                path: var.clone(),
                                on_type: sname.to_string(),
                            });
                            break;
                        }
                    }
                }
                other => {
                    errors.push(ValidationError::UnknownFieldPath {
                        path: var.clone(),
                        on_type: other.to_string(),
                    });
                    break;
                }
            }
        }
    }
    errors
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = "struct Session { id: int, closing: bool, ttl: int }\n\
         global safemode: bool;\n\
         fn create_ephemeral(s: Session, path: str) {}\n";

    fn program() -> Program {
        Program::parse_single("t", SRC).expect("p")
    }

    fn rule(cond: &str) -> SemanticRule {
        SemanticRule::new(
            "T-r0",
            "test",
            TargetSpec::Call { callee: "create_ephemeral".into() },
            cond,
        )
        .expect("rule")
    }

    #[test]
    fn valid_rule_passes() {
        assert!(validate_rule(&program(), &rule("s != null && s.closing == false")).is_empty());
    }

    #[test]
    fn global_placeholder_passes() {
        assert!(validate_rule(&program(), &rule("safemode == false && s != null")).is_empty());
    }

    #[test]
    fn unknown_target_rejected() {
        let mut r = rule("s != null");
        r.target = TargetSpec::Call { callee: "no_such_fn".into() };
        assert_eq!(
            validate_rule(&program(), &r),
            vec![ValidationError::UnknownTarget("no_such_fn".into())]
        );
    }

    #[test]
    fn hallucinated_placeholder_rejected() {
        let errs = validate_rule(&program(), &rule("s_old != null"));
        assert!(matches!(errs[0], ValidationError::UnknownPlaceholder { .. }));
    }

    #[test]
    fn hallucinated_field_rejected() {
        let errs = validate_rule(&program(), &rule("s.expired == false"));
        assert!(matches!(errs[0], ValidationError::UnknownFieldPath { .. }));
    }

    #[test]
    fn locks_var_is_synthetic() {
        let r = SemanticRule::new(
            "T-r1",
            "io",
            TargetSpec::BuiltinInSync { name: "blocking_io".into() },
            "$locks.held == 0",
        )
        .expect("rule");
        assert!(validate_rule(&program(), &r).is_empty());
    }
}
