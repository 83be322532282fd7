//! Content hashing for cache keys and fingerprints.
//!
//! One algorithm for the whole workspace: 64-bit FNV-1a. Fingerprints
//! computed by different layers (function bodies in `lisa-lang`, SMT
//! query keys in `lisa-smt`, journal checksums in `lisa-store`) must
//! stay comparable across processes and releases, so the definition
//! lives here rather than being re-derived per crate.

/// 64-bit FNV-1a over a byte slice.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Incremental FNV-1a hasher for composite keys: feed parts separated by
/// an explicit delimiter so `("ab","c")` and `("a","bc")` never collide.
#[derive(Debug, Clone)]
pub struct Fnv1a {
    state: u64,
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a { state: 0xcbf29ce484222325 }
    }
}

impl Fnv1a {
    pub fn new() -> Fnv1a {
        Fnv1a::default()
    }

    pub fn update(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.state ^= b as u64;
            self.state = self.state.wrapping_mul(0x100000001b3);
        }
        self
    }

    /// Feed one delimited part (the part's bytes, then a `0x1f` unit
    /// separator that cannot appear in printable cache-key material).
    pub fn part(&mut self, bytes: &[u8]) -> &mut Self {
        self.update(bytes);
        self.update(&[0x1f]);
        self
    }

    pub fn part_u64(&mut self, v: u64) -> &mut Self {
        self.part(&v.to_le_bytes())
    }

    /// Feed one delimited part that `write` renders straight into the
    /// hash: the same value as `part` over the bytes it writes, without
    /// building them up as a `String`.
    pub fn part_with(&mut self, write: impl FnOnce(&mut Self) -> std::fmt::Result) -> &mut Self {
        // Writing into the hasher cannot fail.
        let _ = write(self);
        self.update(&[0x1f])
    }

    /// [`Fnv1a::part_with`] for a `Display` value: the same value as
    /// `part(value.to_string().as_bytes())`.
    pub fn part_display(&mut self, value: impl std::fmt::Display) -> &mut Self {
        use std::fmt::Write as _;
        self.part_with(|h| write!(h, "{value}"))
    }

    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// Formatted output hashes the bytes it would have written, so
/// anything that renders into a `fmt::Write` can be fingerprinted
/// without an intermediate `String`.
impl std::fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.update(s.as_bytes());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_reference_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn parts_are_delimited() {
        let mut a = Fnv1a::new();
        a.part(b"ab").part(b"c");
        let mut b = Fnv1a::new();
        b.part(b"a").part(b"bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn streamed_display_equals_rendered_part() {
        let mut a = Fnv1a::new();
        a.part(format!("{}-{:?}", 42, "x").as_bytes());
        let mut b = Fnv1a::new();
        b.part_display(format_args!("{}-{:?}", 42, "x"));
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn incremental_equals_one_shot() {
        let mut h = Fnv1a::new();
        h.update(b"foo").update(b"bar");
        assert_eq!(h.finish(), fnv1a(b"foobar"));
    }
}
