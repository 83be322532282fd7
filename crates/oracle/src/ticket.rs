//! Failure tickets.
//!
//! The unit of input to the inference pipeline (paper §3, Figure 5): for
//! each historical failure we bundle the textual description, the
//! developer discussion, the code patch (diff between buggy and fixed
//! sources), the post-patch source, and the regression tests added by
//! the fix. This mirrors the three inputs of the paper's prompt
//! (Listing 1) plus the metadata our experiments score against.

use lisa_lang::diff::{diff_lines, Diff};

/// A source module version: name + full text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceVersion {
    pub module: String,
    pub text: String,
}

/// One historical failure, as filed.
#[derive(Debug, Clone)]
pub struct FailureTicket {
    /// Ticket id, e.g. `ZK-1208`.
    pub id: String,
    /// Subject system, e.g. `mini-zookeeper`.
    pub system: String,
    pub title: String,
    /// Failure description (symptom, impact).
    pub description: String,
    /// Developer discussion (root-cause analysis, review notes).
    pub discussion: Vec<String>,
    /// Module sources before the fix.
    pub buggy: Vec<SourceVersion>,
    /// Module sources after the fix.
    pub fixed: Vec<SourceVersion>,
    /// Names of regression tests added by the fix.
    pub regression_tests: Vec<String>,
}

impl FailureTicket {
    /// The code patch: per-module diffs from buggy to fixed.
    pub fn patch(&self) -> Vec<(String, Diff)> {
        self.fixed
            .iter()
            .map(|after| {
                let before = self
                    .buggy
                    .iter()
                    .find(|b| b.module == after.module)
                    .map(|b| b.text.as_str())
                    .unwrap_or("");
                (after.module.clone(), diff_lines(before, &after.text))
            })
            .collect()
    }

    /// Total changed line count (patch size metric).
    pub fn patch_size(&self) -> usize {
        self.patch().iter().map(|(_, d)| d.change_count()).sum()
    }
}

/// Builder-style construction for corpus code.
#[derive(Debug, Default)]
pub struct TicketBuilder {
    id: String,
    system: String,
    title: String,
    description: String,
    discussion: Vec<String>,
    buggy: Vec<SourceVersion>,
    fixed: Vec<SourceVersion>,
    regression_tests: Vec<String>,
}

impl TicketBuilder {
    pub fn new(id: impl Into<String>, system: impl Into<String>) -> TicketBuilder {
        TicketBuilder { id: id.into(), system: system.into(), ..Default::default() }
    }

    pub fn title(mut self, t: impl Into<String>) -> Self {
        self.title = t.into();
        self
    }

    pub fn description(mut self, d: impl Into<String>) -> Self {
        self.description = d.into();
        self
    }

    pub fn discuss(mut self, line: impl Into<String>) -> Self {
        self.discussion.push(line.into());
        self
    }

    pub fn buggy(mut self, module: impl Into<String>, text: impl Into<String>) -> Self {
        self.buggy.push(SourceVersion { module: module.into(), text: text.into() });
        self
    }

    pub fn fixed(mut self, module: impl Into<String>, text: impl Into<String>) -> Self {
        self.fixed.push(SourceVersion { module: module.into(), text: text.into() });
        self
    }

    pub fn regression_test(mut self, name: impl Into<String>) -> Self {
        self.regression_tests.push(name.into());
        self
    }

    pub fn build(self) -> FailureTicket {
        FailureTicket {
            id: self.id,
            system: self.system,
            title: self.title,
            description: self.description,
            discussion: self.discussion,
            buggy: self.buggy,
            fixed: self.fixed,
            regression_tests: self.regression_tests,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ticket() -> FailureTicket {
        TicketBuilder::new("ZK-1208", "mini-zookeeper")
            .title("Ephemeral node not removed after session close")
            .description("Ephemeral node created on closing session persists")
            .discuss("Race in PrepRequestProcessor allows create on closing session")
            .buggy("zk/session", "fn touch(sid: int) {\n  let s = get(sid);\n  if (s == null) { return; }\n  use_it(s);\n}")
            .fixed("zk/session", "fn touch(sid: int) {\n  let s = get(sid);\n  if (s == null || s.closing) { return; }\n  use_it(s);\n}")
            .regression_test("test_touch_closing_session")
            .build()
    }

    #[test]
    fn patch_extracts_guard_change() {
        let t = ticket();
        let patches = t.patch();
        assert_eq!(patches.len(), 1);
        let (_, d) = &patches[0];
        assert_eq!(d.added_lines().len(), 1);
        assert!(d.added_lines()[0].1.contains("s.closing"));
        assert_eq!(t.patch_size(), 2);
    }

    #[test]
    fn clone_preserves_ticket() {
        let t = ticket();
        let cloned = t.clone();
        assert_eq!(cloned.id, "ZK-1208");
        assert_eq!(cloned.regression_tests, vec!["test_touch_closing_session"]);
    }

    #[test]
    fn missing_buggy_module_diffs_from_empty() {
        let t = TicketBuilder::new("X-1", "sys")
            .fixed("m", "line1\nline2")
            .build();
        let patches = t.patch();
        assert_eq!(patches[0].1.added_lines().len(), 2);
    }
}
