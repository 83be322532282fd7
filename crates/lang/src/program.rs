//! Whole programs: a set of parsed modules with a flat declaration
//! namespace, plus source versioning support used by the corpus.

use std::collections::HashMap;

use crate::ast::{FnDecl, GlobalDecl, Module, StructDecl};
use crate::parser::{parse_module, ParseError};

/// A complete SIR program (one or more modules, flat namespace).
#[derive(Debug, Clone, Default)]
pub struct Program {
    pub modules: Vec<Module>,
    fn_index: HashMap<String, (usize, usize)>,
    struct_index: HashMap<String, (usize, usize)>,
    global_index: HashMap<String, (usize, usize)>,
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
        self.fn_index.clear();
        self.struct_index.clear();
        self.global_index.clear();
        for (mi, m) in self.modules.iter().enumerate() {
            for (i, f) in m.functions.iter().enumerate() {
                if self.fn_index.insert(f.name.clone(), (mi, i)).is_some() {
                    return Err(ProgramError::Duplicate { kind: "function", name: f.name.clone() });
                }
            }
            for (i, s) in m.structs.iter().enumerate() {
                if self.struct_index.insert(s.name.clone(), (mi, i)).is_some() {
                    return Err(ProgramError::Duplicate { kind: "struct", name: s.name.clone() });
                }
            }
            for (i, g) in m.globals.iter().enumerate() {
                if self.global_index.insert(g.name.clone(), (mi, i)).is_some() {
                    return Err(ProgramError::Duplicate { kind: "global", name: g.name.clone() });
                }
            }
        }
        Ok(())
    }

    pub fn function(&self, name: &str) -> Option<&FnDecl> {
        self.fn_index.get(name).map(|&(m, i)| &self.modules[m].functions[i])
    }

    pub fn struct_decl(&self, name: &str) -> Option<&StructDecl> {
        self.struct_index.get(name).map(|&(m, i)| &self.modules[m].structs[i])
    }

    pub fn global(&self, name: &str) -> Option<&GlobalDecl> {
        self.global_index.get(name).map(|&(m, i)| &self.modules[m].globals[i])
    }

    /// Module that declares function `name`.
    pub fn module_of_fn(&self, name: &str) -> Option<&Module> {
        self.fn_index.get(name).map(|&(m, _)| &self.modules[m])
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
        assert_eq!(p.module_of_fn("fb").expect("m").name, "b");
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
