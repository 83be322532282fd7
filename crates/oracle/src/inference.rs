//! The staged inference engine — the deterministic stand-in for the
//! paper's LLM backend (OpenAI o4-mini in the prototype).
//!
//! The engine replays the steps of the paper's prompt (Listing 1) over a
//! [`FailureTicket`]:
//!
//! 1. *root cause* — mined from the developer discussion,
//! 2. *high-level semantics* — templated from the ticket description,
//! 3. *low-level semantics* — mined from the patch: every added guard
//!    line (`if (…) { return/throw … }`) names a predicate the fix now
//!    enforces; the protected statement is the first call after the guard
//!    whose arguments mention the guarded variables,
//! 4. *checkable translation* — the guard is negated (early-exit guards
//!    encode the unsafe condition), parsed into `lisa-smt` terms, and its
//!    variables renamed onto the target callee's parameters,
//! 5. *reasoning* — an audit trail of the above.
//!
//! Substitution note (DESIGN.md): LISA's claims depend on this interface
//! — ticket in, `{condition, target, reasoning}` out, *sometimes wrong* —
//! not on model weights. [`crate::noise`] reintroduces the LLM's failure
//! modes (non-determinism, hallucination) in controlled, seedable form.

use std::collections::BTreeMap;

use lisa_analysis::{CallGraph, TargetSpec};
use lisa_lang::symbolic::{expr_path, path_root};
use lisa_lang::{LineMap, Program};
use lisa_smt::{parse_cond, Term};

use crate::rule::{condition_roots, InferenceReport, LowLevelOut, SemanticRule};
use crate::ticket::FailureTicket;

/// Inference failure.
#[derive(Debug, Clone)]
pub enum InferError {
    /// The fixed sources do not parse/typecheck — the bundle is corrupt.
    BadSources(String),
    /// No rule could be mined from the patch.
    NothingInferred { reasoning: String },
}

impl std::fmt::Display for InferError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InferError::BadSources(e) => write!(f, "ticket sources invalid: {e}"),
            InferError::NothingInferred { reasoning } => {
                write!(f, "no low-level semantics inferred: {reasoning}")
            }
        }
    }
}

impl std::error::Error for InferError {}

/// Result of inference on one ticket.
#[derive(Debug, Clone)]
pub struct InferenceResult {
    pub rules: Vec<SemanticRule>,
    pub report: InferenceReport,
}

/// Infer low-level semantic rules from a failure ticket.
pub fn infer_rules(ticket: &FailureTicket) -> Result<InferenceResult, InferError> {
    let fixed_sources: Vec<(&str, &str)> =
        ticket.fixed.iter().map(|v| (v.module.as_str(), v.text.as_str())).collect();
    let fixed = Program::parse(&fixed_sources)
        .map_err(|e| InferError::BadSources(e.to_string()))?;
    let buggy_sources: Vec<(&str, &str)> =
        ticket.buggy.iter().map(|v| (v.module.as_str(), v.text.as_str())).collect();
    let buggy = Program::parse(&buggy_sources).ok();

    let mut reasoning: Vec<String> = Vec::new();
    reasoning.push(root_cause(ticket));

    // Group mined (target, condition) pairs; multiple guards protecting
    // the same statement conjoin.
    let mut mined: BTreeMap<String, (TargetSpec, Vec<Term>, Vec<String>)> = BTreeMap::new();

    for (module_name, diff) in ticket.patch() {
        let Some(module) = fixed.modules.iter().find(|m| m.name == module_name) else {
            continue;
        };
        let lm = LineMap::new(module.name.clone(), &module.source);
        for (line_no, text) in diff.added_lines() {
            let Some(guard_src) = extract_guard(text) else { continue };
            let Ok(guard) = parse_cond(&guard_src) else {
                reasoning.push(format!(
                    "skipped guard at {module_name}:{line_no}: condition not in the \
                     checkable fragment ({guard_src})"
                ));
                continue;
            };
            // Early-exit guards encode the *unsafe* condition.
            let early_exit = text.contains("return") || text.contains("throw");
            let safe = if early_exit { guard.clone().not() } else { guard.clone() };
            let roots = condition_roots(&safe);
            if roots.is_empty() {
                continue;
            }
            let Some(enclosing) = enclosing_function(module, &lm, line_no) else { continue };
            let Some((target_callee, renamed)) =
                bind_to_target(&fixed, &enclosing, &roots, &safe, line_no, &lm)
            else {
                reasoning.push(format!(
                    "guard at {module_name}:{line_no} has no protected call mentioning \
                     {roots:?}; not anchored"
                ));
                continue;
            };
            reasoning.push(format!(
                "added guard `{guard_src}` in {enclosing} protects call to \
                 {target_callee}; safe condition: {renamed}"
            ));
            let entry = mined.entry(target_callee.clone()).or_insert_with(|| {
                (TargetSpec::Call { callee: target_callee.clone() }, Vec::new(), Vec::new())
            });
            entry.1.push(renamed);
            entry.2.push(guard_src);
        }
    }

    // Blocking-I/O family: the fix removed a blocking call from a locked
    // region (ZK-2201 shape).
    if let Some(buggy) = &buggy {
        let buggy_graph = CallGraph::build(buggy);
        let fixed_graph = CallGraph::build(&fixed);
        for site in &buggy_graph.sites {
            if site.callee != "blocking_io" || site.sync_locks.is_empty() {
                continue;
            }
            let still_locked = fixed_graph.sites.iter().any(|s| {
                s.callee == "blocking_io" && s.caller == site.caller && !s.sync_locks.is_empty()
            });
            if !still_locked {
                reasoning.push(format!(
                    "fix moved blocking_io out of the `{}` sync section in {}",
                    site.sync_locks.join("/"),
                    site.caller
                ));
                let key = format!("$io:{}", site.caller);
                mined.entry(key).or_insert_with(|| {
                    (
                        TargetSpec::BuiltinInCaller {
                            name: "blocking_io".into(),
                            caller: site.caller.to_string(),
                        },
                        vec![parse_cond("$locks.held == 0").expect("static condition")],
                        vec!["$locks.held == 0".to_string()],
                    )
                });
            }
        }
    }

    if mined.is_empty() {
        return Err(InferError::NothingInferred { reasoning: reasoning.join("; ") });
    }

    let high_level = high_level_semantics(ticket);
    let mut rules = Vec::new();
    let mut lows = Vec::new();
    for (k, (target, conds, srcs)) in mined {
        let condition = Term::and(conds);
        let condition_src = condition.to_string();
        let description = low_level_description(ticket, &target);
        let rule = SemanticRule {
            id: format!("{}-r{}", ticket.id, rules.len()),
            description: description.clone(),
            target: target.clone(),
            condition_src: condition_src.clone(),
            placeholder_roots: condition_roots(&condition),
            condition,
        };
        lows.push(LowLevelOut {
            description,
            target_statement: target.to_string(),
            condition_statement: condition_src,
        });
        rules.push(rule);
        let _ = (k, srcs);
    }

    Ok(InferenceResult {
        rules,
        report: InferenceReport {
            ticket: ticket.id.clone(),
            high_level_semantics: high_level,
            low_level_semantics: lows,
            reasoning: reasoning.join(" | "),
        },
    })
}

/// Step 1: root cause, mined from discussion (first line that mentions a
/// causal keyword, else the ticket description).
fn root_cause(ticket: &FailureTicket) -> String {
    ticket
        .discussion
        .iter()
        .find(|l| {
            let l = l.to_lowercase();
            ["race", "cause", "because", "allows", "missing", "stale", "delay"]
                .iter()
                .any(|k| l.contains(k))
        })
        .cloned()
        .map(|l| format!("root cause: {l}"))
        .unwrap_or_else(|| format!("root cause: {}", ticket.description))
}

/// Step 2: high-level semantics (system-level behavioural statement).
fn high_level_semantics(ticket: &FailureTicket) -> String {
    format!("[{}] {}", ticket.system, ticket.title)
}

fn low_level_description(ticket: &FailureTicket, target: &TargetSpec) -> String {
    match target {
        TargetSpec::Call { callee } => {
            format!("{} must only execute when its precondition holds ({})", callee, ticket.id)
        }
        TargetSpec::Builtin { name } => format!("no unguarded {name} ({})", ticket.id),
        TargetSpec::BuiltinInSync { name } => {
            format!("no {name} while holding a lock ({})", ticket.id)
        }
        TargetSpec::BuiltinInCaller { name, caller } => {
            format!("no {name} inside a sync section of {caller} ({})", ticket.id)
        }
    }
}

/// Extract the guard text of an `if (…)` line (balanced parentheses).
fn extract_guard(line: &str) -> Option<String> {
    let start = line.find("if (")? + 4;
    let bytes = line.as_bytes();
    let mut depth = 1u32;
    let mut end = start;
    while end < bytes.len() {
        match bytes[end] {
            b'(' => depth += 1,
            b')' => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            _ => {}
        }
        end += 1;
    }
    if depth != 0 {
        return None;
    }
    Some(line[start..end].trim().to_string())
}

/// Function whose span contains the 1-based line number.
fn enclosing_function(
    module: &lisa_lang::Module,
    lm: &LineMap,
    line_no: u32,
) -> Option<String> {
    module
        .functions
        .iter()
        .find(|f| {
            let lo = lm.line_of(f.span.lo);
            let hi = lm.line_of(f.span.hi.saturating_sub(1).max(f.span.lo));
            lo <= line_no && line_no <= hi
        })
        .map(|f| f.name.to_string())
}

/// Find the protected call: a user-function call inside `enclosing` whose
/// argument paths mention the guard roots, preferring sites after the
/// guard line. Returns the callee and the condition renamed onto its
/// parameters.
fn bind_to_target(
    fixed: &Program,
    enclosing: &str,
    roots: &[String],
    safe: &Term,
    guard_line: u32,
    lm: &LineMap,
) -> Option<(String, Term)> {
    let graph = CallGraph::build(fixed);
    let mut candidates: Vec<(&lisa_analysis::CallSite, u32)> = graph
        .sites_in(enclosing)
        .iter()
        .map(|&i| graph.site(i))
        .filter(|s| !s.builtin)
        .filter(|s| {
            s.args.iter().filter_map(expr_path).any(|p| roots.iter().any(|r| r == path_root(&p)))
        })
        .map(|s| (s, lm.line_of(s.span.lo)))
        .collect();
    candidates.sort_by_key(|&(_, line)| (line < guard_line, line));
    let (site, _) = candidates.first()?;
    let callee = fixed.function(site.callee)?;
    // root -> parameter name of the callee (global roots pass through).
    let mut rename: std::collections::HashMap<String, String> = std::collections::HashMap::new();
    for root in roots {
        if fixed.global(root).is_some() {
            rename.insert(root.clone(), root.clone());
            continue;
        }
        let idx = site
            .args
            .iter()
            .position(|a| expr_path(a).as_deref().map(path_root) == Some(root.as_str()))?;
        let (pname, _) = callee.params.get(idx)?;
        rename.insert(root.clone(), pname.to_string());
    }
    let renamed = safe.rename_vars(&|v| {
        let root = path_root(v);
        match rename.get(root) {
            Some(new_root) => format!("{new_root}{}", &v[root.len()..]),
            None => v.to_string(),
        }
    });
    Some((site.callee.to_string(), renamed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ticket::TicketBuilder;

    const BUGGY: &str = "struct Session { id: int, closing: bool, ttl: int }\n\
         global sessions: map<int, Session>;\n\
         fn create_ephemeral(s: Session, path: str) { log(path); }\n\
         fn prep_create(sid: int, path: str) {\n\
             let session: Session = sessions.get(sid);\n\
             if (session == null) { return; }\n\
             create_ephemeral(session, path);\n\
         }";

    const FIXED: &str = "struct Session { id: int, closing: bool, ttl: int }\n\
         global sessions: map<int, Session>;\n\
         fn create_ephemeral(s: Session, path: str) { log(path); }\n\
         fn prep_create(sid: int, path: str) {\n\
             let session: Session = sessions.get(sid);\n\
             if (session == null || session.closing) { return; }\n\
             create_ephemeral(session, path);\n\
         }";

    #[test]
    fn infers_the_zookeeper_rule() {
        let ticket = TicketBuilder::new("ZK-1208", "mini-zookeeper")
            .title("Ephemeral node not removed after the client session is long gone")
            .description("create on closing session leaves a stale ephemeral node")
            .discuss("a race in the request processor allows create on a closing session")
            .buggy("zk/prep", BUGGY)
            .fixed("zk/prep", FIXED)
            .regression_test("test_create_on_closing_session")
            .build();
        let out = infer_rules(&ticket).expect("inference");
        assert_eq!(out.rules.len(), 1);
        let r = &out.rules[0];
        assert_eq!(r.target, TargetSpec::Call { callee: "create_ephemeral".into() });
        // Condition renamed from `session` to the callee parameter `s`.
        let want = parse_cond("s != null && s.closing == false").expect("cond");
        assert!(
            lisa_smt::equivalent(&r.condition, &want),
            "got condition {}",
            r.condition
        );
        assert!(out.report.reasoning.contains("root cause"));
        assert_eq!(out.report.low_level_semantics.len(), 1);
    }

    #[test]
    fn infers_blocking_io_rule_from_moved_call() {
        let buggy = "fn serialize_node(path: str) {\n\
             sync (tree) {\n\
                 blocking_io(\"write node\");\n\
             }\n\
         }";
        let fixed = "fn serialize_node(path: str) {\n\
             let data = path;\n\
             blocking_io(\"write node\");\n\
         }";
        let ticket = TicketBuilder::new("ZK-2201", "mini-zookeeper")
            .title("Cluster stuck: serialization blocks inside synchronized section")
            .description("write path blocked while holding the tree lock")
            .discuss("blocking write while holding the tree lock causes a zombie cluster")
            .buggy("zk/ser", buggy)
            .fixed("zk/ser", fixed)
            .build();
        let out = infer_rules(&ticket).expect("inference");
        assert_eq!(out.rules.len(), 1);
        assert_eq!(
            out.rules[0].target,
            TargetSpec::BuiltinInCaller {
                name: "blocking_io".into(),
                caller: "serialize_node".into()
            }
        );
        assert_eq!(out.rules[0].condition_src, "$locks.held == 0");
    }

    #[test]
    fn unanchored_guard_reports_reasoning() {
        let buggy = "fn f(x: int) -> int { return x; }";
        let fixed = "fn f(x: int) -> int { if (x < 0) { return 0; } return x; }";
        let ticket = TicketBuilder::new("T-1", "sys")
            .buggy("m", buggy)
            .fixed("m", fixed)
            .build();
        let err = infer_rules(&ticket).expect_err("no protected call");
        match err {
            InferError::NothingInferred { reasoning } => {
                assert!(reasoning.contains("not anchored") || reasoning.contains("no protected"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn var_var_timestamp_guard() {
        let buggy = "struct Snap { expires_at: int }\n\
             fn read_snapshot(snap: Snap, req_time: int) -> int { return snap.expires_at; }\n\
             fn handle_read(sn: Snap, t: int) -> int {\n\
                 return read_snapshot(sn, t);\n\
             }";
        let fixed = "struct Snap { expires_at: int }\n\
             fn read_snapshot(snap: Snap, req_time: int) -> int { return snap.expires_at; }\n\
             fn handle_read(sn: Snap, t: int) -> int {\n\
                 if (sn.expires_at < t) { throw \"snapshot expired\"; }\n\
                 return read_snapshot(sn, t);\n\
             }";
        let ticket = TicketBuilder::new("HB-27671", "mini-hbase")
            .title("Expired snapshot served to client")
            .description("snapshot past its ttl still readable")
            .discuss("missing expiration check on the read path")
            .buggy("hb/snap", buggy)
            .fixed("hb/snap", fixed)
            .build();
        let out = infer_rules(&ticket).expect("inference");
        let r = &out.rules[0];
        assert_eq!(r.target, TargetSpec::Call { callee: "read_snapshot".into() });
        let want = parse_cond("snap.expires_at >= req_time").expect("cond");
        assert!(lisa_smt::equivalent(&r.condition, &want), "got {}", r.condition);
        let mut roots = r.placeholder_roots.clone();
        roots.sort();
        assert_eq!(roots, vec!["req_time", "snap"]);
    }

    #[test]
    fn bad_sources_rejected() {
        let ticket = TicketBuilder::new("T-2", "sys").fixed("m", "fn f( {").build();
        assert!(matches!(infer_rules(&ticket), Err(InferError::BadSources(_))));
    }

    #[test]
    fn guard_extraction_handles_nesting() {
        assert_eq!(
            extract_guard("  if ((a || b) && c) { return; }").as_deref(),
            Some("(a || b) && c")
        );
        assert_eq!(extract_guard("let x = 3;"), None);
        assert_eq!(extract_guard("if (unclosed"), None);
    }
}
