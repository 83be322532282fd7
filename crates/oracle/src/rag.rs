//! Retrieval-augmented test selection.
//!
//! Paper §3.2: tests act as the concolic engine's concrete inputs, and
//! "our system automatically selects relevant tests for each path using
//! LLM-based similarity search over test embeddings". Here: test
//! summaries are embedded once ([`TestIndex`]); a path is described in
//! natural language (entry function, chain, target, rule condition) and
//! the top-k nearest tests are selected.

use crate::embedding::{Embedder, Embedding};

/// An indexed document (test summary).
#[derive(Debug, Clone)]
struct Doc {
    id: String,
    embedding: Embedding,
}

/// Embedding index over test summaries.
#[derive(Debug, Clone)]
pub struct TestIndex {
    embedder: Embedder,
    docs: Vec<Doc>,
}

/// A scored selection result.
#[derive(Debug, Clone, PartialEq)]
pub struct Selected {
    pub test: String,
    pub score: f32,
}

impl TestIndex {
    /// Build the index from `(test_name, summary)` pairs.
    pub fn build(tests: &[(String, String)]) -> TestIndex {
        let embedder = Embedder::fit(tests.iter().map(|(_, s)| s.as_str()));
        let docs = tests
            .iter()
            .map(|(id, summary)| Doc {
                id: id.clone(),
                // Index name + summary: names carry feature vocabulary.
                embedding: embedder.embed(&format!("{id} {summary}")),
            })
            .collect();
        TestIndex { embedder, docs }
    }

    pub fn len(&self) -> usize {
        self.docs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// Top-k tests for a free-text query, best first. Deterministic
    /// tie-break by test name.
    pub fn query(&self, text: &str, k: usize) -> Vec<Selected> {
        let q = self.embedder.embed(text);
        let mut scored: Vec<Selected> = self
            .docs
            .iter()
            .map(|d| Selected { test: d.id.clone(), score: q.cosine(&d.embedding) })
            .collect();
        scored.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.test.cmp(&b.test))
        });
        scored.truncate(k);
        scored
    }
}

/// Describe an execution path for retrieval: the feature words of the
/// functions on the chain plus the rule vocabulary, mirroring how the
/// paper's LLM "identifies the features involved by this execution
/// path".
pub fn describe_path(entry: &str, chain_fns: &[&str], target: &str, condition: &str) -> String {
    let mut parts: Vec<String> = Vec::new();
    parts.push(entry.replace('_', " "));
    for f in chain_fns {
        parts.push(f.replace('_', " "));
    }
    parts.push(target.replace('_', " "));
    parts.push(condition.replace(['.', '_'], " "));
    parts.join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index() -> TestIndex {
        TestIndex::build(&[
            (
                "test_create_ephemeral_live_session".to_string(),
                "create an ephemeral node on a live session and verify it exists".to_string(),
            ),
            (
                "test_session_close_removes_ephemeral".to_string(),
                "closing a session removes its ephemeral nodes".to_string(),
            ),
            (
                "test_snapshot_ttl_expiry".to_string(),
                "snapshot past its ttl is rejected on read".to_string(),
            ),
            (
                "test_observer_block_report".to_string(),
                "observer namenode returns locations after block report".to_string(),
            ),
        ])
    }

    #[test]
    fn selects_feature_relevant_tests() {
        let idx = index();
        let desc = describe_path(
            "prep_create",
            &["prep_create", "create_ephemeral"],
            "create_ephemeral",
            "s != null && s.closing == false",
        );
        let top = idx.query(&desc, 2);
        assert_eq!(top.len(), 2);
        assert!(
            top.iter().any(|s| s.test.contains("ephemeral")),
            "expected ephemeral tests first, got {top:?}"
        );
        assert!(
            !top.iter().any(|s| s.test.contains("observer")),
            "observer test is unrelated: {top:?}"
        );
    }

    #[test]
    fn snapshot_query_finds_snapshot_test() {
        let idx = index();
        let top = idx.query("snapshot expired ttl read path", 1);
        assert_eq!(top[0].test, "test_snapshot_ttl_expiry");
    }

    #[test]
    fn k_larger_than_corpus_returns_all() {
        let idx = index();
        assert_eq!(idx.query("anything", 100).len(), 4);
    }

    #[test]
    fn deterministic_ordering() {
        let idx = index();
        let a = idx.query("ephemeral session", 4);
        let b = idx.query("ephemeral session", 4);
        assert_eq!(a, b);
    }

    #[test]
    fn describe_path_mentions_all_parts() {
        let d = describe_path("entry_fn", &["helper_fn"], "target_fn", "s.ttl > 0");
        for w in ["entry fn", "helper fn", "target fn", "s ttl"] {
            assert!(d.contains(w), "{d}");
        }
    }
}
