//! Whole programs: a set of parsed modules with a flat declaration
//! namespace, plus source versioning support used by the corpus.

use crate::ast::{FnDecl, GlobalDecl, Module, StructDecl};
use crate::parser::{parse_module, ParseError};

/// A complete SIR program (one or more modules, flat namespace).
#[derive(Debug, Clone, Default)]
pub struct Program {
    pub modules: Vec<Module>,
    fn_index: Vec<Pos>,
    struct_index: Vec<Pos>,
    global_index: Vec<Pos>,
}

/// Where a declaration sits: `(module, index within its kind)`. Each
/// index lists every declaration of one kind sorted by name, so a lookup
/// is a binary search over the declarations' own names and no name is
/// copied into the index.
type Pos = (usize, usize);

/// A declaration with a name in the program's flat namespace.
trait Named {
    fn name(&self) -> &str;
}

impl Named for FnDecl {
    fn name(&self) -> &str {
        &self.name
    }
}

impl Named for StructDecl {
    fn name(&self) -> &str {
        &self.name
    }
}

impl Named for GlobalDecl {
    fn name(&self) -> &str {
        &self.name
    }
}

/// Every declaration `decls` lists, sorted by name, and the first
/// duplicate in declaration order: the earliest declaration whose name
/// an earlier one already took.
fn index<T: Named>(modules: &[Module], decls: impl Fn(&Module) -> &[T]) -> (Vec<Pos>, Option<Pos>) {
    let name = |(m, i): Pos| decls(&modules[m])[i].name();
    let mut index: Vec<Pos> = Vec::with_capacity(modules.iter().map(|m| decls(m).len()).sum());
    for (m, module) in modules.iter().enumerate() {
        index.extend((0..decls(module).len()).map(|i| (m, i)));
    }
    // Positions are distinct, so breaking name ties by position makes
    // the order total and an unstable (allocation-free) sort exact.
    index.sort_unstable_by(|&a, &b| name(a).cmp(name(b)).then(a.cmp(&b)));
    let duplicate = index.windows(2).filter(|w| name(w[0]) == name(w[1])).map(|w| w[1]).min();
    (index, duplicate)
}

/// Where the declaration named `name` sits in a duplicate-free `index`.
fn find<T: Named>(
    modules: &[Module],
    index: &[Pos],
    decls: impl Fn(&Module) -> &[T],
    name: &str,
) -> Option<usize> {
    index.binary_search_by(|&(m, i)| decls(&modules[m])[i].name().cmp(name)).ok()
}

/// Error constructing a program.
#[derive(Debug, Clone)]
pub enum ProgramError {
    Parse(ParseError),
    Duplicate { kind: &'static str, name: String },
}

impl std::fmt::Display for ProgramError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProgramError::Parse(e) => write!(f, "{e}"),
            ProgramError::Duplicate { kind, name } => {
                write!(f, "duplicate {kind} declaration `{name}`")
            }
        }
    }
}

impl std::error::Error for ProgramError {}

impl From<ParseError> for ProgramError {
    fn from(e: ParseError) -> Self {
        ProgramError::Parse(e)
    }
}

impl Program {
    /// Build from already-parsed modules.
    pub fn from_modules(modules: Vec<Module>) -> Result<Program, ProgramError> {
        let mut p = Program { modules, ..Default::default() };
        p.reindex()?;
        Ok(p)
    }

    /// Parse and combine named sources.
    pub fn parse(sources: &[(&str, &str)]) -> Result<Program, ProgramError> {
        let mut modules = Vec::new();
        for (name, src) in sources {
            modules.push(parse_module(name, src)?);
        }
        Program::from_modules(modules)
    }

    /// Parse a single source.
    pub fn parse_single(name: &str, src: &str) -> Result<Program, ProgramError> {
        Program::parse(&[(name, src)])
    }

    fn reindex(&mut self) -> Result<(), ProgramError> {
        let modules = &self.modules;
        let (fns, dup_fn) = index(modules, |m| &m.functions);
        let (structs, dup_struct) = index(modules, |m| &m.structs);
        let (globals, dup_global) = index(modules, |m| &m.globals);
        // Report the duplicate a walk of the modules in order meets
        // first, taking each module's functions, then structs, then
        // globals.
        let first = [
            dup_fn.map(|(m, i)| ((m, 0, i), "function", &modules[m].functions[i].name)),
            dup_struct.map(|(m, i)| ((m, 1, i), "struct", &modules[m].structs[i].name)),
            dup_global.map(|(m, i)| ((m, 2, i), "global", &modules[m].globals[i].name)),
        ]
        .into_iter()
        .flatten()
        .min_by_key(|&(at, _, _)| at);
        if let Some((_, kind, name)) = first {
            return Err(ProgramError::Duplicate { kind, name: name.to_string() });
        }
        self.fn_index = fns;
        self.struct_index = structs;
        self.global_index = globals;
        Ok(())
    }

    pub fn function(&self, name: &str) -> Option<&FnDecl> {
        let (m, i) = self.fn_index[find(&self.modules, &self.fn_index, |m| &m.functions, name)?];
        Some(&self.modules[m].functions[i])
    }

    pub fn struct_decl(&self, name: &str) -> Option<&StructDecl> {
        let at = find(&self.modules, &self.struct_index, |m| &m.structs, name)?;
        let (m, i) = self.struct_index[at];
        Some(&self.modules[m].structs[i])
    }

    pub fn global(&self, name: &str) -> Option<&GlobalDecl> {
        let (m, i) = self.global_index[self.global_slot(name)?];
        Some(&self.modules[m].globals[i])
    }

    /// The slot of global `name`: its rank among the program's globals
    /// sorted by name, below [`Program::global_count`]. An interpreter
    /// keeps global values in a vector by slot instead of a map keyed by
    /// copies of the names.
    pub fn global_slot(&self, name: &str) -> Option<usize> {
        find(&self.modules, &self.global_index, |m| &m.globals, name)
    }

    /// Number of globals across all modules.
    pub fn global_count(&self) -> usize {
        self.global_index.len()
    }

    pub fn functions(&self) -> impl Iterator<Item = &FnDecl> {
        self.modules.iter().flat_map(|m| m.functions.iter())
    }

    pub fn structs(&self) -> impl Iterator<Item = &StructDecl> {
        self.modules.iter().flat_map(|m| m.structs.iter())
    }

    pub fn globals(&self) -> impl Iterator<Item = &GlobalDecl> {
        self.modules.iter().flat_map(|m| m.globals.iter())
    }

    /// Total statement count across modules (size metric for reports).
    pub fn stmt_count(&self) -> usize {
        self.modules.iter().map(|m| m.stmt_count()).sum()
    }

    /// Total source line count across modules.
    pub fn line_count(&self) -> usize {
        self.modules.iter().map(|m| m.source.lines().count()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: &str = "struct S { v: int } global g: map<int, S>; fn fa() -> int { return 1; }";
    const B: &str = "fn fb() -> int { return fa() + 1; }";

    #[test]
    fn merges_modules_with_flat_namespace() {
        let p = Program::parse(&[("a", A), ("b", B)]).expect("program");
        assert!(p.function("fa").is_some());
        assert!(p.function("fb").is_some());
        assert!(p.struct_decl("S").is_some());
        assert!(p.global("g").is_some());
        assert_eq!(p.global_slot("g"), Some(0));
        assert_eq!(p.global_slot("fa"), None);
        assert_eq!(p.global_count(), 1);
    }

    #[test]
    fn duplicate_function_rejected() {
        let err = Program::parse(&[("a", "fn f() {}"), ("b", "fn f() {}")]).expect_err("dup");
        assert!(matches!(err, ProgramError::Duplicate { kind: "function", .. }));
    }

    #[test]
    fn duplicate_struct_rejected() {
        let err =
            Program::parse(&[("a", "struct S { v: int }"), ("b", "struct S { v: int }")])
                .expect_err("dup");
        assert!(matches!(err, ProgramError::Duplicate { kind: "struct", .. }));
    }

    #[test]
    fn counts() {
        let p = Program::parse(&[("a", A)]).expect("program");
        assert_eq!(p.stmt_count(), 1);
        assert!(p.line_count() >= 1);
    }
}
