//! Line diffs between source versions.
//!
//! Ticket bundles carry "the code patch (the diff)" between the buggy and
//! fixed versions of a module. This module computes an LCS-based line
//! diff and renders it in unified style; the oracle mines *added guard
//! lines* out of it when inferring low-level semantics.

use std::fmt;

/// One diff operation over whole lines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiffOp {
    /// Line present in both versions (old line number, new line number).
    Keep { old_line: u32, new_line: u32, text: String },
    /// Line removed from the old version.
    Remove { old_line: u32, text: String },
    /// Line added in the new version.
    Add { new_line: u32, text: String },
}

/// A computed diff.
#[derive(Debug, Clone, Default)]
pub struct Diff {
    pub ops: Vec<DiffOp>,
}

impl Diff {
    /// All added lines with their new-version line numbers.
    pub fn added_lines(&self) -> Vec<(u32, &str)> {
        self.ops
            .iter()
            .filter_map(|op| match op {
                DiffOp::Add { new_line, text } => Some((*new_line, text.as_str())),
                _ => None,
            })
            .collect()
    }

    /// Number of changed (added + removed) lines.
    pub fn change_count(&self) -> usize {
        self.ops
            .iter()
            .filter(|op| !matches!(op, DiffOp::Keep { .. }))
            .count()
    }

    pub fn is_empty(&self) -> bool {
        self.change_count() == 0
    }
}

impl fmt::Display for Diff {
    /// Unified-style rendering (context suppressed to changed regions ±2).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let interesting: Vec<bool> = {
            let flags: Vec<bool> =
                self.ops.iter().map(|op| !matches!(op, DiffOp::Keep { .. })).collect();
            let mut out = vec![false; flags.len()];
            for (i, &changed) in flags.iter().enumerate() {
                if changed {
                    let lo = i.saturating_sub(2);
                    let hi = (i + 2).min(flags.len() - 1);
                    for o in out.iter_mut().take(hi + 1).skip(lo) {
                        *o = true;
                    }
                }
            }
            out
        };
        let mut last_shown = true;
        for (i, op) in self.ops.iter().enumerate() {
            if !interesting[i] {
                if last_shown {
                    writeln!(f, "  ...")?;
                    last_shown = false;
                }
                continue;
            }
            last_shown = true;
            match op {
                DiffOp::Keep { text, .. } => writeln!(f, "  {text}")?,
                DiffOp::Remove { old_line, text } => writeln!(f, "- [{old_line}] {text}")?,
                DiffOp::Add { new_line, text } => writeln!(f, "+ [{new_line}] {text}")?,
            }
        }
        Ok(())
    }
}

/// Compute the line diff from `old` to `new` (LCS dynamic program).
pub fn diff_lines(old: &str, new: &str) -> Diff {
    let a: Vec<&str> = old.lines().collect();
    let b: Vec<&str> = new.lines().collect();
    let (n, m) = (a.len(), b.len());
    // lcs[i][j] = LCS length of a[i..] and b[j..].
    let mut lcs = vec![vec![0u32; m + 1]; n + 1];
    for i in (0..n).rev() {
        for j in (0..m).rev() {
            lcs[i][j] = if a[i] == b[j] {
                lcs[i + 1][j + 1] + 1
            } else {
                lcs[i + 1][j].max(lcs[i][j + 1])
            };
        }
    }
    let mut ops = Vec::new();
    let (mut i, mut j) = (0usize, 0usize);
    while i < n && j < m {
        if a[i] == b[j] {
            ops.push(DiffOp::Keep {
                old_line: (i + 1) as u32,
                new_line: (j + 1) as u32,
                text: a[i].to_string(),
            });
            i += 1;
            j += 1;
        } else if lcs[i + 1][j] >= lcs[i][j + 1] {
            ops.push(DiffOp::Remove { old_line: (i + 1) as u32, text: a[i].to_string() });
            i += 1;
        } else {
            ops.push(DiffOp::Add { new_line: (j + 1) as u32, text: b[j].to_string() });
            j += 1;
        }
    }
    while i < n {
        ops.push(DiffOp::Remove { old_line: (i + 1) as u32, text: a[i].to_string() });
        i += 1;
    }
    while j < m {
        ops.push(DiffOp::Add { new_line: (j + 1) as u32, text: b[j].to_string() });
        j += 1;
    }
    Diff { ops }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_sources_have_empty_diff() {
        let d = diff_lines("a\nb\nc", "a\nb\nc");
        assert!(d.is_empty());
        assert_eq!(d.ops.len(), 3);
    }

    #[test]
    fn detects_added_guard_line() {
        let old = "fn touch(sid: int) -> bool {\n  let s = sessions.get(sid);\n  if (s == null) { return false; }\n  return true;\n}";
        let new = "fn touch(sid: int) -> bool {\n  let s = sessions.get(sid);\n  if (s == null || s.closing) { return false; }\n  return true;\n}";
        let d = diff_lines(old, new);
        let added = d.added_lines();
        assert_eq!(added.len(), 1);
        assert!(added[0].1.contains("s.closing"));
        assert_eq!(d.change_count(), 2, "one line replaced");
    }

    #[test]
    fn pure_insertion() {
        let d = diff_lines("a\nc", "a\nb\nc");
        assert_eq!(d.added_lines(), vec![(2, "b")]);
        assert_eq!(d.change_count(), 1);
    }

    #[test]
    fn pure_deletion() {
        let d = diff_lines("a\nb\nc", "a\nc");
        assert_eq!(d.ops[1], DiffOp::Remove { old_line: 2, text: "b".to_string() });
        assert_eq!(d.change_count(), 1);
        assert!(d.added_lines().is_empty());
    }

    #[test]
    fn line_numbers_are_one_based_in_new_version() {
        let d = diff_lines("", "x\ny");
        assert_eq!(d.added_lines(), vec![(1, "x"), (2, "y")]);
    }

    #[test]
    fn display_shows_changes_with_context() {
        let d = diff_lines("1\n2\n3\n4\n5\n6\n7", "1\n2\n3\nX\n5\n6\n7");
        let text = d.to_string();
        assert!(text.contains("- [4] 4"));
        assert!(text.contains("+ [4] X"));
        assert!(text.contains("..."), "far context should be elided: {text}");
    }

    #[test]
    fn change_count() {
        let d = diff_lines("a\nb", "a\nc");
        assert_eq!(d.change_count(), 2);
    }
}
