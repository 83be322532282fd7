//! Source locations.
//!
//! Every AST node carries a [`Span`]; diagnostics and traces report a
//! resolved [`Loc`] (file + line/column). Lines are 1-based, columns are
//! 1-based byte columns.

use std::fmt;

/// A byte range in one source file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Span {
    pub lo: usize,
    pub hi: usize,
}

impl Span {
    pub fn new(lo: usize, hi: usize) -> Span {
        Span { lo, hi }
    }

    /// The smallest span covering both.
    pub fn to(self, other: Span) -> Span {
        Span { lo: self.lo.min(other.lo), hi: self.hi.max(other.hi) }
    }
}

/// A resolved human-readable location.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Loc {
    /// Source name (module path or file name).
    pub source: String,
    pub line: u32,
    pub col: u32,
}

impl fmt::Display for Loc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}:{}", self.source, self.line, self.col)
    }
}

/// Maps byte offsets to line/column positions for one source text.
#[derive(Debug, Clone)]
pub struct LineMap {
    source: String,
    /// Byte offset of the start of each line.
    line_starts: Vec<usize>,
}

impl LineMap {
    pub fn new(source_name: impl Into<String>, text: &str) -> LineMap {
        let mut line_starts = vec![0];
        for (i, b) in text.bytes().enumerate() {
            if b == b'\n' {
                line_starts.push(i + 1);
            }
        }
        LineMap { source: source_name.into(), line_starts }
    }

    /// Resolve a byte offset.
    pub fn loc(&self, offset: usize) -> Loc {
        let line_idx = match self.line_starts.binary_search(&offset) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        Loc {
            source: self.source.clone(),
            line: (line_idx + 1) as u32,
            col: (offset - self.line_starts[line_idx] + 1) as u32,
        }
    }

    /// Resolve the start of a span.
    pub fn span_loc(&self, span: Span) -> Loc {
        self.loc(span.lo)
    }

    /// 1-based line number of a byte offset.
    pub fn line_of(&self, offset: usize) -> u32 {
        self.loc(offset).line
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linemap_resolves_lines_and_columns() {
        let text = "ab\ncde\n\nf";
        let lm = LineMap::new("m.sir", text);
        assert_eq!(lm.loc(0), Loc { source: "m.sir".into(), line: 1, col: 1 });
        assert_eq!(lm.loc(1), Loc { source: "m.sir".into(), line: 1, col: 2 });
        assert_eq!(lm.loc(3), Loc { source: "m.sir".into(), line: 2, col: 1 });
        assert_eq!(lm.loc(5), Loc { source: "m.sir".into(), line: 2, col: 3 });
        assert_eq!(lm.loc(7), Loc { source: "m.sir".into(), line: 3, col: 1 });
        assert_eq!(lm.loc(8), Loc { source: "m.sir".into(), line: 4, col: 1 });
    }

    #[test]
    fn span_union() {
        assert_eq!(Span::new(3, 5).to(Span::new(1, 4)), Span::new(1, 5));
    }

    #[test]
    fn loc_displays_compactly() {
        let l = Loc { source: "zk/session.sir".into(), line: 12, col: 3 };
        assert_eq!(l.to_string(), "zk/session.sir:12:3");
    }
}
