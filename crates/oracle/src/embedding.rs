//! Deterministic text embeddings.
//!
//! The prototype uses OpenAI `text-embedding-3-large`; we substitute
//! feature-hashed TF-IDF vectors (dimension 256) with cosine similarity.
//! The property the pipeline needs — tests about the same feature land
//! near each other, unrelated tests far away — holds for lexical
//! embeddings because corpus test summaries share feature vocabulary
//! ("ephemeral", "snapshot", "observer"), which is exactly why RAG over
//! test code works in the paper's setting.

use std::collections::HashMap;

/// Embedding dimension.
pub const DIM: usize = 256;

/// Tokenize: lowercase alphanumeric runs, with camelCase and snake_case
/// splitting.
pub fn tokenize(text: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    let mut cur = String::new();
    let mut prev_lower = false;
    for c in text.chars() {
        if c.is_alphanumeric() {
            if c.is_uppercase() && prev_lower && !cur.is_empty() {
                tokens.push(std::mem::take(&mut cur));
            }
            prev_lower = c.is_lowercase() || c.is_numeric();
            cur.push(c.to_ascii_lowercase());
        } else {
            prev_lower = false;
            if !cur.is_empty() {
                tokens.push(std::mem::take(&mut cur));
            }
        }
    }
    if !cur.is_empty() {
        tokens.push(cur);
    }
    tokens
}

/// A dense embedding vector.
#[derive(Debug, Clone, PartialEq)]
pub struct Embedding(pub Vec<f32>);

impl Embedding {
    pub fn cosine(&self, other: &Embedding) -> f32 {
        let dot: f32 = self.0.iter().zip(&other.0).map(|(a, b)| a * b).sum();
        let na: f32 = self.0.iter().map(|a| a * a).sum::<f32>().sqrt();
        let nb: f32 = other.0.iter().map(|b| b * b).sum::<f32>().sqrt();
        if na == 0.0 || nb == 0.0 {
            0.0
        } else {
            dot / (na * nb)
        }
    }
}

/// Embedding model: corpus-level document frequencies + feature hashing.
///
/// Build it over the document set once (`fit`), then `embed` queries and
/// documents alike. Terms unseen at fit time get a neutral IDF.
#[derive(Debug, Clone, Default)]
pub struct Embedder {
    doc_count: usize,
    doc_freq: HashMap<String, usize>,
}

impl Embedder {
    /// Fit document frequencies over a corpus.
    pub fn fit<'a>(docs: impl IntoIterator<Item = &'a str>) -> Embedder {
        let mut e = Embedder::default();
        for doc in docs {
            e.doc_count += 1;
            let mut seen = std::collections::HashSet::new();
            for tok in tokenize(doc) {
                if seen.insert(tok.clone()) {
                    *e.doc_freq.entry(tok).or_insert(0) += 1;
                }
            }
        }
        e
    }

    fn idf(&self, token: &str) -> f32 {
        let df = self.doc_freq.get(token).copied().unwrap_or(0);
        // Smoothed IDF; unseen terms get the maximum weight.
        (((self.doc_count + 1) as f32) / ((df + 1) as f32)).ln() + 1.0
    }

    /// Embed a text into the hashed TF-IDF space.
    pub fn embed(&self, text: &str) -> Embedding {
        let mut v = vec![0.0f32; DIM];
        let tokens = tokenize(text);
        if tokens.is_empty() {
            return Embedding(v);
        }
        let mut tf: HashMap<String, f32> = HashMap::new();
        for t in &tokens {
            *tf.entry(t.clone()).or_insert(0.0) += 1.0;
        }
        let n = tokens.len() as f32;
        for (tok, count) in tf {
            let h = lisa_util::fnv1a(tok.as_bytes());
            let idx = (h % DIM as u64) as usize;
            // Sign bit decorrelates collisions (standard hashing trick).
            let sign = if (h >> 32) & 1 == 0 { 1.0 } else { -1.0 };
            v[idx] += sign * (count / n) * self.idf(&tok);
        }
        Embedding(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenizer_splits_camel_and_snake() {
        assert_eq!(
            tokenize("testEphemeralNode_onClosingSession"),
            vec!["test", "ephemeral", "node", "on", "closing", "session"]
        );
        assert_eq!(tokenize("HBASE-29296: snapshot TTL"), vec!["hbase", "29296", "snapshot", "ttl"]);
    }

    #[test]
    fn identical_texts_have_cosine_one() {
        let e = Embedder::fit(["ephemeral node closing session", "snapshot ttl expiry"]);
        let a = e.embed("ephemeral node closing session");
        let b = e.embed("ephemeral node closing session");
        assert!((a.cosine(&b) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn related_texts_beat_unrelated() {
        let docs = [
            "create ephemeral node on closing session",
            "snapshot ttl expired read",
            "observer namenode block report delay",
        ];
        let e = Embedder::fit(docs);
        let q = e.embed("ephemeral node created while session closing");
        let related = e.embed(docs[0]);
        let unrelated = e.embed(docs[2]);
        assert!(
            q.cosine(&related) > q.cosine(&unrelated),
            "related {} vs unrelated {}",
            q.cosine(&related),
            q.cosine(&unrelated)
        );
    }

    #[test]
    fn empty_text_embeds_to_zero() {
        let e = Embedder::fit(["a"]);
        let z = e.embed("");
        assert_eq!(z.cosine(&e.embed("a")), 0.0);
    }

    #[test]
    fn deterministic_across_instances() {
        let e1 = Embedder::fit(["alpha beta", "gamma"]);
        let e2 = Embedder::fit(["alpha beta", "gamma"]);
        assert_eq!(e1.embed("alpha gamma"), e2.embed("alpha gamma"));
    }
}
