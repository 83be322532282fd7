//! Human-readable rendering of enforcement results: CI-log style rule
//! summaries and plain-text tables for the experiment harnesses.

use std::fmt::Write as _;

use crate::enforce::EnforcementReport;
use crate::verdict::{ChainVerdict, RuleReport};

/// Render one rule report as a CI log block.
pub fn render_rule_report(r: &RuleReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "rule {} — {}", r.rule_id, r.rule_description);
    let _ = writeln!(out, "  target:    {}", r.target);
    let _ = writeln!(out, "  condition: {}", r.condition);
    let _ = writeln!(
        out,
        "  chains: {} verified, {} violated, {} not covered (of {})",
        r.verified_count(),
        r.violated_count(),
        r.not_covered_count(),
        r.chains.len()
    );
    if r.unchecked {
        let _ = writeln!(out, "  note: not checked (the gate deadline expired before it started)");
    }
    for c in r.chains.iter() {
        let _ = writeln!(out, "    [{}] {}", c.verdict.label(), c.rendered);
        match &c.verdict {
            ChainVerdict::Violated(v) => {
                let _ = writeln!(out, "        test:    {}", v.test);
                let _ = writeln!(out, "        pi:      {}", v.pi);
                let _ = writeln!(out, "        witness: {}", v.witness);
            }
            ChainVerdict::EngineError { reason } => {
                let _ = writeln!(out, "        reason:  {reason}");
            }
            _ => {}
        }
    }
    for v in r.off_tree_violations.iter() {
        let _ = writeln!(out, "    [VIOLATED off-tree] via {:?}", v.chain);
        let _ = writeln!(out, "        test:    {}", v.test);
        let _ = writeln!(out, "        pi:      {}", v.pi);
        let _ = writeln!(out, "        witness: {}", v.witness);
    }
    if !r.sanity_ok {
        let _ = writeln!(
            out,
            "    warning: no verified chain — the fixed path did not confirm (sanity check)"
        );
    }
    out
}

/// Render a full gate report.
pub fn render_enforcement(e: &EnforcementReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== LISA gate for version `{}` ==", e.version);
    for r in &e.reports {
        out.push_str(&render_rule_report(r));
    }
    for w in &e.warnings {
        let _ = writeln!(out, "warning: {w}");
    }
    if e.engine_errors > 0 {
        let _ = writeln!(
            out,
            "resilience: {} engine error(s), {} unchecked rule(s) (fail-{})",
            e.engine_errors, e.unchecked_rules, e.fail_mode
        );
    }
    let _ = writeln!(out, "decision: {} ({} chain(s) need developer review)", e.decision, e.review_needed);
    out
}

/// A minimal fixed-width table builder for experiment output.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(header: &[&str]) -> Table {
        Table { header: header.iter().map(|s| s.to_string()).collect(), rows: Vec::new() }
    }

    pub fn row(&mut self, cells: &[String]) {
        self.rows.push(cells.to_vec());
    }

    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(cols) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                let w = widths.get(i).copied().unwrap_or(c.len());
                let _ = write!(line, "{c:<w$}");
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let mut t = Table::new(&["approach", "detected", "cost"]);
        t.row(&["testing".into(), "no".into(), "1".into()]);
        t.row(&["lisa".into(), "yes".into(), "42".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("approach"));
        assert!(lines[2].starts_with("testing"));
        // Column alignment: "detected" column starts at the same offset.
        let col = lines[0].find("detected").expect("header");
        assert_eq!(&lines[2][col..col + 2], "no");
        assert_eq!(&lines[3][col..col + 3], "yes");
    }
}
