//! Names that share their module's source text.
//!
//! A parsed module keeps its source as one shared, reference-counted
//! text. Every identifier in its tree, and every string literal written
//! without escapes, is a [`Name`]: a handle on that text plus the byte
//! range the name occupies in it. Parsing a module therefore allocates
//! its text once, not once per identifier occurrence, and cloning a name
//! bumps a reference count instead of copying bytes. A literal with
//! escapes has no copy in the source; its [`Name`] holds its own text.
//!
//! A `Name` is a `str` to every observer: it derefs to `&str` and
//! displays, debugs, compares, orders and hashes exactly as its text
//! does, so printed modules, fingerprints and error texts do not depend
//! on how a name is stored. Code that reads a tree borrows `&str` from
//! it; a name is cloned only where a tree is built.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, Range};
use std::sync::Arc;

/// A string that shares a module's source text (see the module docs).
#[derive(Clone)]
pub struct Name {
    text: Arc<str>,
    start: u32,
    end: u32,
}

/// The longest text a [`Name`] can address: byte offsets are `u32`.
pub(crate) const MAX_TEXT_LEN: usize = u32::MAX as usize;

impl Name {
    /// A name for the whole of `text`.
    ///
    /// # Panics
    /// If `text` is longer than [`MAX_TEXT_LEN`] bytes.
    pub(crate) fn new(text: Arc<str>) -> Name {
        let end = u32::try_from(text.len()).expect("name text longer than u32::MAX bytes");
        Name {
            text,
            start: 0,
            end,
        }
    }

    /// The name of bytes `range` of this name's text, sharing it.
    ///
    /// # Panics
    /// If `range` is out of bounds or splits a character.
    pub(crate) fn slice(&self, range: Range<usize>) -> Name {
        let text = self.as_str();
        assert!(
            text.get(range.clone()).is_some(),
            "slice {range:?} of a {}-byte name is out of bounds or splits a character",
            text.len()
        );
        // In bounds, so both ends fit the `u32` offsets of this name.
        Name {
            text: Arc::clone(&self.text),
            start: self.start + range.start as u32,
            end: self.start + range.end as u32,
        }
    }

    /// The text of this name.
    #[inline]
    pub fn as_str(&self) -> &str {
        &self.text[self.start as usize..self.end as usize]
    }
}

impl Deref for Name {
    type Target = str;

    #[inline]
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl AsRef<[u8]> for Name {
    fn as_ref(&self) -> &[u8] {
        self.as_bytes()
    }
}

impl From<&str> for Name {
    fn from(s: &str) -> Name {
        Name::new(Arc::from(s))
    }
}

impl From<String> for Name {
    fn from(s: String) -> Name {
        Name::new(Arc::from(s))
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.as_str(), f)
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl PartialEq for Name {
    fn eq(&self, other: &Name) -> bool {
        self.as_str() == other.as_str()
    }
}

impl Eq for Name {}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Name) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Name {
    fn cmp(&self, other: &Name) -> Ordering {
        self.as_str().cmp(other.as_str())
    }
}

impl Hash for Name {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state)
    }
}

impl PartialEq<str> for Name {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Name {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialEq<String> for Name {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<Name> for str {
    fn eq(&self, other: &Name) -> bool {
        self == other.as_str()
    }
}

impl PartialEq<Name> for &str {
    fn eq(&self, other: &Name) -> bool {
        *self == other.as_str()
    }
}

impl PartialEq<Name> for String {
    fn eq(&self, other: &Name) -> bool {
        self == other.as_str()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of<T: Hash + ?Sized>(v: &T) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    /// Names cut from one shared text, beside the strings they spell.
    fn samples() -> Vec<(Name, &'static str)> {
        let text = Name::from("sessions café_id ✓ a\\n\"b\" zz");
        let escaped = Name::from("a\n\"b\"".to_string());
        vec![
            (text.slice(0..8), "sessions"),
            (text.slice(9..17), "café_id"),
            (text.slice(18..21), "✓"),
            (text.slice(0..0), ""),
            (text.slice(29..31), "zz"),
            (escaped, "a\n\"b\""),
            (Name::from("sessions"), "sessions"),
        ]
    }

    #[test]
    fn a_name_is_its_text_to_every_observer() {
        let samples = samples();
        for (name, text) in &samples {
            assert_eq!(name.as_str(), *text);
            assert_eq!(&**name, *text);
            assert_eq!(name.len(), text.len());
            assert_eq!(name.to_string(), text.to_string());
            assert_eq!(format!("{name:?}"), format!("{text:?}"));
            assert_eq!(
                format!("{name:>12}|{name:<3}|"),
                format!("{text:>12}|{text:<3}|")
            );
            assert_eq!(hash_of(name), hash_of(*text));
            assert!(name == text && *text == name && *name == **text);
            let owned = text.to_string();
            assert!(*name == owned, "Name == String");
            assert!(owned == *name, "String == Name");
            for (other, other_text) in &samples {
                assert_eq!(
                    name == other,
                    text == other_text,
                    "{text:?} == {other_text:?}"
                );
                assert_eq!(
                    name.cmp(other),
                    text.cmp(other_text),
                    "{text:?} vs {other_text:?}"
                );
                assert_eq!(name.partial_cmp(other), text.partial_cmp(other_text));
            }
        }
    }

    #[test]
    fn names_key_maps_by_their_text() {
        let mut names: Vec<Name> = samples().into_iter().map(|(n, _)| n).collect();
        names.sort();
        let mut texts: Vec<&str> = samples().into_iter().map(|(_, t)| t).collect();
        texts.sort();
        assert!(names.iter().map(Name::as_str).eq(texts.iter().copied()));
        let set: std::collections::HashSet<Name> = names.into_iter().collect();
        assert!(set.contains(&Name::from("sessions")) && !set.contains(&Name::from("café")));
        assert_eq!(set.len(), 6, "the two `sessions` are one key");
    }

    #[test]
    fn slices_share_the_text_and_nest() {
        let text = Name::from("fn touch(sid: int)");
        let args = text.slice(8..18);
        let sid = args.slice(1..4);
        assert_eq!((args.as_str(), sid.as_str()), ("(sid: int)", "sid"));
        assert!(Arc::ptr_eq(&text.text, &sid.text), "no copy of the text");
    }

    #[test]
    #[should_panic]
    fn a_slice_may_not_split_a_character() {
        let _ = Name::from("é").slice(0..1);
    }
}
