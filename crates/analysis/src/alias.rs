//! Placeholder aliasing: mapping rule variables onto the concrete
//! variables of each function along an execution chain.
//!
//! Paper §3.2: the engine follows "only branches whose guards involve
//! variables relevant to the semantic", and obtains "that variable set by
//! prompting an LLM — given the semantic's Boolean condition and the
//! path's source code — to map the condition's placeholders to concrete
//! variables". Our deterministic equivalent walks the call chain: a rule
//! placeholder is canonically a parameter of the target function (or a
//! module global); at each call site the argument expression's syntactic
//! path names the caller-side alias, and so on up to the entry function.

use std::borrow::Cow;

use crate::callgraph::CallGraph;
use crate::tree::CallChain;
use lisa_lang::symbolic::path_root;
use lisa_lang::Program;

/// Alias table for one rule on one call chain.
///
/// Maps `(function, local object path)` to the rule placeholder that
/// object instantiates. Longest-prefix matching applies: with alias
/// `(touch, "s") -> "s"`, the guard variable `s.isClosing` in `touch`
/// renames to `s.isClosing` of the rule.
///
/// A map holds a handful of entries, kept sorted, so every probe the
/// concolic tracer makes (per branch, assignment and hit) is a binary
/// search over `&str` pairs that allocates nothing. Function names and
/// placeholders borrow from the program and the rule (`'a`), and so does
/// a path that is a plain variable; only a field path (`req.session`)
/// is owned.
#[derive(Debug, Clone, Default)]
pub struct AliasMap<'a> {
    /// `(function, path, placeholder)`, sorted by the unique
    /// `(function, path)`. The function "*" means "any function" (used
    /// for globals).
    entries: Vec<(&'a str, Cow<'a, str>, &'a str)>,
}

impl<'a> AliasMap<'a> {
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn find(&self, function: &str, path: &str) -> Result<usize, usize> {
        self.entries.binary_search_by(|(f, p, _)| (*f, &**p).cmp(&(function, path)))
    }

    pub fn insert(
        &mut self,
        function: &'a str,
        path: impl Into<Cow<'a, str>>,
        placeholder: &'a str,
    ) {
        let path = path.into();
        match self.find(function, &path) {
            Ok(i) => self.entries[i].2 = placeholder,
            Err(i) => self.entries.insert(i, (function, path, placeholder)),
        }
    }

    /// The longest prefix of `var_path` (observed in `function`) that
    /// aliases a placeholder, with that placeholder.
    fn longest_alias<'s>(&'s self, function: &str, var_path: &str) -> Option<(usize, &'s str)> {
        let mut prefix = var_path;
        loop {
            for scope in [function, "*"] {
                if let Ok(i) = self.find(scope, prefix) {
                    return Some((prefix.len(), self.entries[i].2));
                }
            }
            prefix = &prefix[..prefix.rfind('.')?];
        }
    }

    /// Rename a guard variable path observed in `function` to rule
    /// vocabulary, if it aliases a placeholder.
    pub fn rename(&self, function: &str, var_path: &str) -> Option<String> {
        let (len, ph) = self.longest_alias(function, var_path)?;
        Some(format!("{ph}{}", &var_path[len..]))
    }

    /// Does the variable path observed in `function` alias a placeholder?
    /// The same question as `rename(..).is_some()`, without building the
    /// renamed string.
    pub fn is_relevant(&self, function: &str, var_path: &str) -> bool {
        self.longest_alias(function, var_path).is_some()
    }

    /// Number of alias entries (for reports).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Iterate `(function, path, placeholder)` entries in `(function,
    /// path)` order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str, &str)> {
        self.entries.iter().map(|(f, p, ph)| (*f, &**p, *ph))
    }

    /// Absorb another alias map (union across chains).
    pub fn merge(&mut self, other: &AliasMap<'a>) {
        for (f, p, ph) in &other.entries {
            self.insert(f, p.clone(), ph);
        }
    }
}

/// Compute the alias map for `chain`: placeholders are `placeholder_roots`
/// (root variables of the rule condition). A placeholder seeds as:
/// - the same-named parameter of the target function (then propagates to
///   caller argument paths up the chain), or
/// - a module global of that name (relevant in every function).
pub fn chain_aliases<'a>(
    program: &'a Program,
    graph: &CallGraph<'a>,
    chain: &CallChain<'a>,
    target_fn: &'a str,
    placeholder_roots: &'a [String],
) -> AliasMap<'a> {
    let mut map = AliasMap::default();
    // The index of `name` among the parameters of function `f`.
    let param_of = |f: &str, name: &str| {
        program.function(f).and_then(|d| d.params.iter().position(|(p, _)| p == name))
    };
    // The parameter of `f` that `path` names as a whole, if any.
    let whole_param = |path: &str, f: &str| {
        if path_root(path) == path {
            param_of(f, path)
        } else {
            None
        }
    };
    for ph in placeholder_roots {
        if program.global(ph).is_some() {
            map.insert("*", ph, ph);
            continue;
        }
        // Seed at the target function parameter.
        let Some(param_idx) = param_of(target_fn, ph) else { continue };
        map.insert(target_fn, ph, ph);
        // Walk the chain bottom-up. The last site in `chain.sites` calls
        // the function containing the target site; the target site itself
        // calls `target_fn` — handle that hop first.
        let tsite = graph.site(chain.target_site);
        if tsite.callee != target_fn {
            // Target is the site's own function (builtin target):
            // placeholders must be globals for builtin targets.
            continue;
        }
        // Hop 1: from target_fn to the function containing the target call.
        // The alias flows further up only when it is itself a whole
        // parameter of the caller; a field path like `req.session` still
        // renames locally but stops here.
        let Some(arg_path) = tsite.arg_path(param_idx) else { continue };
        let up = whole_param(&arg_path, tsite.caller);
        map.insert(tsite.caller, arg_path, ph);
        let Some(mut cur_idx) = up else { continue };
        let mut cur_fn = tsite.caller;
        // Remaining hops: walk chain sites from innermost to entry.
        for &sid in chain.sites.iter().rev() {
            let site = graph.site(sid);
            if site.callee != cur_fn {
                break;
            }
            let Some(arg_path) = site.arg_path(cur_idx) else { break };
            let up = whole_param(&arg_path, site.caller);
            map.insert(site.caller, arg_path, ph);
            match up {
                Some(i) => {
                    cur_fn = site.caller;
                    cur_idx = i;
                }
                None => break,
            }
        }
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::target::TargetSpec;
    use crate::tree::{execution_tree, TreeLimits};

    const SRC: &str = "struct Session { id: int, closing: bool, ttl: int }\n\
         global safemode: bool;\n\
         fn create_node(s: Session, path: str) {}\n\
         fn prep(session: Session) { if (session != null) { create_node(session, \"/a\"); } }\n\
         fn handle(req: Session) { prep(req); }\n\
         fn direct(x: Session) { create_node(x, \"/b\"); }";

    fn program() -> Program {
        Program::parse_single("t", SRC).expect("p")
    }

    #[test]
    fn aliases_flow_up_the_chain() {
        let p = program();
        let g = CallGraph::build(&p);
        let tree = execution_tree(
            &g,
            &TargetSpec::Call { callee: "create_node".into() },
            TreeLimits::default(),
        );
        let chain = tree
            .chains
            .iter()
            .find(|c| c.entry == "handle")
            .expect("handle chain");
        let roots = ["s".to_string()];
        let aliases = chain_aliases(&p, &g, chain, "create_node", &roots);
        assert_eq!(aliases.rename("create_node", "s"), Some("s".to_string()));
        assert_eq!(aliases.rename("prep", "session"), Some("s".to_string()));
        assert_eq!(aliases.rename("prep", "session.closing"), Some("s.closing".to_string()));
        assert_eq!(aliases.rename("handle", "req.ttl"), Some("s.ttl".to_string()));
        // Unrelated names do not rename.
        assert_eq!(aliases.rename("prep", "other"), None);
        assert_eq!(aliases.rename("direct", "x"), None, "different chain");
    }

    #[test]
    fn direct_chain_uses_its_own_names() {
        let p = program();
        let g = CallGraph::build(&p);
        let tree = execution_tree(
            &g,
            &TargetSpec::Call { callee: "create_node".into() },
            TreeLimits::default(),
        );
        let chain = tree.chains.iter().find(|c| c.entry == "direct").expect("chain");
        let roots = ["s".to_string()];
        let aliases = chain_aliases(&p, &g, chain, "create_node", &roots);
        assert_eq!(aliases.rename("direct", "x.closing"), Some("s.closing".to_string()));
        assert_eq!(aliases.rename("prep", "session"), None);
    }

    #[test]
    fn globals_are_relevant_everywhere() {
        let p = program();
        let g = CallGraph::build(&p);
        let tree = execution_tree(
            &g,
            &TargetSpec::Call { callee: "create_node".into() },
            TreeLimits::default(),
        );
        let chain = &tree.chains[0];
        let roots = ["safemode".to_string()];
        let aliases = chain_aliases(&p, &g, chain, "create_node", &roots);
        assert_eq!(aliases.rename("anything", "safemode"), Some("safemode".to_string()));
    }

    #[test]
    fn relevance_check() {
        let p = program();
        let g = CallGraph::build(&p);
        let tree = execution_tree(
            &g,
            &TargetSpec::Call { callee: "create_node".into() },
            TreeLimits::default(),
        );
        let chain = tree.chains.iter().find(|c| c.entry == "handle").expect("chain");
        let roots = ["s".to_string()];
        let aliases = chain_aliases(&p, &g, chain, "create_node", &roots);
        assert!(aliases.is_relevant("prep", "session.closing"));
        assert!(!aliases.is_relevant("prep", "reqCount"));
    }
}
