//! Developer-authored rules (§5 Q2).
//!
//! "Can we provide better interface for developers to encode low-level
//! semantics? … a structured prompt template to describe expected
//! behaviors in natural language … paired with LLM-assisted suggestions
//! that generate corresponding formal rules."
//!
//! The template is a constrained English sentence:
//!
//! ```text
//! when calling serve_snapshot, require snap != null && snap.expires_at >= req_time
//! never call blocking_io while holding a lock
//! never call blocking_io inside serialize_tree
//! ```
//!
//! [`author_rule`] parses it into a [`SemanticRule`];
//! [`suggest_conditions`] plays the assistant, proposing candidate
//! conditions mined from the guards already protecting the target in the
//! codebase (ranked by how many paths enforce them).

use std::collections::HashMap;

use lisa_analysis::{CallGraph, TargetSpec};
use lisa_lang::ast::StmtKind;
use lisa_lang::symbolic::guard_term;
use lisa_lang::Program;
use lisa_smt::{parse_cond, Term};

use crate::rule::{condition_roots, SemanticRule};

/// Authoring error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuthorError {
    /// The sentence does not match the template.
    BadTemplate(String),
    /// The condition does not parse.
    BadCondition(String),
}

impl std::fmt::Display for AuthorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AuthorError::BadTemplate(s) => write!(
                f,
                "unrecognized template: {s:?} (expected `when calling <fn>, require <cond>` \
                 or `never call <builtin> while holding a lock` or `never call <builtin> \
                 inside <fn>`)"
            ),
            AuthorError::BadCondition(s) => write!(f, "condition does not parse: {s}"),
        }
    }
}

impl std::error::Error for AuthorError {}

/// Parse one template sentence into a rule.
pub fn author_rule(id: &str, sentence: &str) -> Result<SemanticRule, AuthorError> {
    let s = sentence.trim();
    if let Some(rest) = s.strip_prefix("when calling ") {
        let Some((fn_name, cond)) = rest.split_once(", require ") else {
            return Err(AuthorError::BadTemplate(s.to_string()));
        };
        let condition =
            parse_cond(cond.trim()).map_err(|e| AuthorError::BadCondition(e.to_string()))?;
        return Ok(SemanticRule {
            id: id.to_string(),
            description: s.to_string(),
            target: TargetSpec::Call { callee: fn_name.trim().to_string() },
            condition_src: cond.trim().to_string(),
            placeholder_roots: condition_roots(&condition),
            condition,
        });
    }
    if let Some(rest) = s.strip_prefix("never call ") {
        if let Some(name) = rest.strip_suffix(" while holding a lock") {
            let condition = parse_cond("$locks.held == 0").expect("static condition");
            return Ok(SemanticRule {
                id: id.to_string(),
                description: s.to_string(),
                target: TargetSpec::BuiltinInSync { name: name.trim().to_string() },
                condition_src: "$locks.held == 0".to_string(),
                placeholder_roots: Vec::new(),
                condition,
            });
        }
        if let Some((name, caller)) = rest.split_once(" inside ") {
            let condition = Term::False;
            return Ok(SemanticRule {
                id: id.to_string(),
                description: s.to_string(),
                target: TargetSpec::BuiltinInCaller {
                    name: name.trim().to_string(),
                    caller: caller.trim().to_string(),
                },
                condition_src: "false".to_string(),
                placeholder_roots: Vec::new(),
                condition,
            });
        }
    }
    Err(AuthorError::BadTemplate(s.to_string()))
}

/// One suggested condition with its support.
#[derive(Debug, Clone)]
pub struct Suggestion {
    /// Condition in surface syntax, over the target's parameter names.
    pub condition_src: String,
    /// How many distinct guarding paths already enforce it.
    pub support: usize,
}

/// Suggest candidate conditions for a call target by mining the guards
/// that already protect it in the codebase — the deterministic stand-in
/// for the "LLM-assisted suggestions" of §5 Q2. Guards are rewritten
/// onto the callee's parameter names and ranked by support.
pub fn suggest_conditions(program: &Program, callee: &str) -> Vec<Suggestion> {
    let Some(decl) = program.function(callee) else { return Vec::new() };
    let graph = CallGraph::build(program);
    let mut counts: HashMap<String, usize> = HashMap::new();
    for &sid in graph.callers_of(callee) {
        let site = graph.site(sid);
        let Some(caller) = program.function(site.caller) else { continue };
        // Parameter renaming: caller arg path root -> callee param name.
        let mut rename: HashMap<String, String> = HashMap::new();
        for (idx, arg) in site.args.iter().enumerate() {
            let path = lisa_lang::symbolic::expr_path(arg);
            if let (Some(path), Some((pname, _))) = (path, decl.params.get(idx)) {
                rename.insert(
                    lisa_lang::symbolic::path_root(&path).to_string(),
                    pname.to_string(),
                );
            }
        }
        // Collect early-return guards lexically before the site.
        let mut body_guards: Vec<Term> = Vec::new();
        caller_guards(&caller.body, &mut body_guards);
        for guard in body_guards {
            // The guard is the unsafe condition: the enforced safe
            // condition is its negation.
            let safe = lisa_smt::preprocess(&guard.not());
            let renamed = safe.rename_vars(&|v| {
                let root = lisa_lang::symbolic::path_root(v);
                match rename.get(root) {
                    Some(p) => format!("{p}{}", &v[root.len()..]),
                    None => v.to_string(),
                }
            });
            // Keep only conditions fully over the callee's parameters.
            let roots = condition_roots(&renamed);
            let param_names: Vec<&str> =
                decl.params.iter().map(|(p, _)| p.as_str()).collect();
            if !roots.is_empty() && roots.iter().all(|r| param_names.contains(&r.as_str())) {
                *counts.entry(renamed.to_string()).or_insert(0) += 1;
            }
        }
    }
    let mut out: Vec<Suggestion> = counts
        .into_iter()
        .map(|(condition_src, support)| Suggestion { condition_src, support })
        .collect();
    out.sort_by(|a, b| b.support.cmp(&a.support).then(a.condition_src.cmp(&b.condition_src)));
    out
}

/// Collect guards of early-exit `if` statements in a body.
fn caller_guards(body: &[lisa_lang::Stmt], out: &mut Vec<Term>) {
    for s in body {
        if let StmtKind::If { cond, then_body, else_body } = &s.kind {
            let exits = then_body.iter().any(|t| {
                matches!(t.kind, StmtKind::Return(_) | StmtKind::Throw(_))
            });
            if exits {
                out.push(guard_term(cond));
            }
            caller_guards(then_body, out);
            caller_guards(else_body, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn authors_a_call_rule() {
        let r = author_rule(
            "DEV-1",
            "when calling serve_snapshot, require snap != null && snap.expires_at >= req_time",
        )
        .expect("author");
        assert_eq!(r.target, TargetSpec::Call { callee: "serve_snapshot".into() });
        assert_eq!(r.placeholder_roots, vec!["req_time".to_string(), "snap".to_string()]);
    }

    #[test]
    fn authors_the_lock_rule() {
        let r = author_rule("DEV-2", "never call blocking_io while holding a lock")
            .expect("author");
        assert_eq!(r.target, TargetSpec::BuiltinInSync { name: "blocking_io".into() });
        assert_eq!(r.condition_src, "$locks.held == 0");
    }

    #[test]
    fn authors_the_caller_scoped_ban() {
        let r = author_rule("DEV-3", "never call blocking_io inside serialize_tree")
            .expect("author");
        assert_eq!(
            r.target,
            TargetSpec::BuiltinInCaller {
                name: "blocking_io".into(),
                caller: "serialize_tree".into()
            }
        );
    }

    #[test]
    fn rejects_garbage() {
        assert!(matches!(
            author_rule("X", "please make the system correct"),
            Err(AuthorError::BadTemplate(_))
        ));
        assert!(matches!(
            author_rule("X", "when calling f, require x >"),
            Err(AuthorError::BadCondition(_))
        ));
    }

    #[test]
    fn suggestions_mine_existing_guards() {
        let src = "struct S { closing: bool, ttl: int }\n\
             global store: map<int, S>;\n\
             fn act(s: S) {}\n\
             fn p1(sid: int) {\n\
                 let a: S = store.get(sid);\n\
                 if (a == null || a.closing) { return; }\n\
                 act(a);\n\
             }\n\
             fn p2(sid: int) {\n\
                 let b: S = store.get(sid);\n\
                 if (b == null || b.closing) { return; }\n\
                 act(b);\n\
             }\n\
             fn p3(sid: int) {\n\
                 let c: S = store.get(sid);\n\
                 if (c == null) { return; }\n\
                 act(c);\n\
             }";
        let p = Program::parse_single("t", src).expect("parse");
        let suggestions = suggest_conditions(&p, "act");
        assert!(!suggestions.is_empty());
        // The strongest suggestion is the full guard, supported by 2 paths.
        assert_eq!(suggestions[0].support, 2);
        let top = parse_cond(&suggestions[0].condition_src).expect("cond");
        let want = parse_cond("s != null && s.closing == false").expect("want");
        assert!(lisa_smt::equivalent(&top, &want), "{}", suggestions[0].condition_src);
    }

    #[test]
    fn suggestions_empty_for_unknown_target() {
        let p = Program::parse_single("t", "fn f() {}").expect("parse");
        assert!(suggest_conditions(&p, "nope").is_empty());
    }
}
