//! Runtime values and the heap.
//!
//! SIR values are concrete; the concolic layer derives symbolic path
//! constraints *syntactically* from branch guards (see
//! [`crate::symbolic`]), so no symbolic shadow state is threaded through
//! the interpreter. Structs, maps, and lists live on a heap and are
//! passed by reference, matching Java semantics closely enough for the
//! corpus systems.

use std::collections::BTreeMap;
use std::fmt;

/// Index into the interpreter heap.
pub type RefId = usize;

/// A first-class value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Unit,
    Int(i64),
    Bool(bool),
    Str(String),
    /// Reference to a heap object (struct, map, or list).
    Ref(RefId),
    Null,
}

impl Value {
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Unit => "unit",
            Value::Int(_) => "int",
            Value::Bool(_) => "bool",
            Value::Str(_) => "str",
            Value::Ref(_) => "ref",
            Value::Null => "null",
        }
    }

    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Unit => write!(f, "unit"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Ref(r) => write!(f, "ref#{r}"),
            Value::Null => write!(f, "null"),
        }
    }
}

/// Keys usable in SIR maps.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum MapKey {
    Int(i64),
    Str(String),
    Bool(bool),
}

impl MapKey {
    /// Convert a value to a map key; `None` for non-key types.
    pub fn from_value(v: &Value) -> Option<MapKey> {
        match v {
            Value::Int(i) => Some(MapKey::Int(*i)),
            Value::Str(s) => Some(MapKey::Str(s.clone())),
            Value::Bool(b) => Some(MapKey::Bool(*b)),
            _ => None,
        }
    }

    pub fn to_value(&self) -> Value {
        match self {
            MapKey::Int(i) => Value::Int(*i),
            MapKey::Str(s) => Value::Str(s.clone()),
            MapKey::Bool(b) => Value::Bool(*b),
        }
    }
}

impl fmt::Display for MapKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MapKey::Int(i) => write!(f, "{i}"),
            MapKey::Str(s) => write!(f, "{s:?}"),
            MapKey::Bool(b) => write!(f, "{b}"),
        }
    }
}

/// A heap object.
#[derive(Debug, Clone, PartialEq)]
pub enum HeapObj {
    Struct { ty: String, fields: BTreeMap<String, Value> },
    Map {
        entries: BTreeMap<MapKey, Value>,
        /// Value returned by `get` on a missing key: `Null` for struct
        /// values, the zero value for scalars (Java primitive defaults).
        default: Value,
    },
    List { items: Vec<Value> },
}

impl HeapObj {
    pub fn kind(&self) -> &'static str {
        match self {
            HeapObj::Struct { .. } => "struct",
            HeapObj::Map { .. } => "map",
            HeapObj::List { .. } => "list",
        }
    }
}

/// The heap: append-only arena of objects (no GC — executions are short
/// test runs; the whole heap is dropped afterwards).
#[derive(Debug, Clone, Default)]
pub struct Heap {
    objects: Vec<HeapObj>,
}

impl Heap {
    pub fn new() -> Heap {
        Heap::default()
    }

    pub fn alloc(&mut self, obj: HeapObj) -> RefId {
        self.objects.push(obj);
        self.objects.len() - 1
    }

    pub fn get(&self, r: RefId) -> &HeapObj {
        &self.objects[r]
    }

    pub fn get_mut(&mut self, r: RefId) -> &mut HeapObj {
        &mut self.objects[r]
    }

    pub fn len(&self) -> usize {
        self.objects.len()
    }

    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Render a value for diagnostics, dereferencing one level.
    pub fn display(&self, v: &Value) -> String {
        match v {
            Value::Ref(r) => match self.get(*r) {
                HeapObj::Struct { ty, fields } => {
                    let body: Vec<String> =
                        fields.iter().map(|(k, v)| format!("{k}: {v}")).collect();
                    format!("{ty} {{ {} }}", body.join(", "))
                }
                HeapObj::Map { entries, .. } => format!("map(len={})", entries.len()),
                HeapObj::List { items } => format!("list(len={})", items.len()),
            },
            other => other.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heap_alloc_and_access() {
        let mut h = Heap::new();
        let r = h.alloc(HeapObj::List { items: vec![Value::Int(1)] });
        assert_eq!(h.len(), 1);
        match h.get_mut(r) {
            HeapObj::List { items } => items.push(Value::Int(2)),
            _ => panic!("list"),
        }
        assert_eq!(h.get(r), &HeapObj::List { items: vec![Value::Int(1), Value::Int(2)] });
    }

    #[test]
    fn map_keys_order_and_convert() {
        let k = MapKey::from_value(&Value::Str("a".into())).expect("key");
        assert_eq!(k.to_value(), Value::Str("a".into()));
        assert!(MapKey::from_value(&Value::Null).is_none());
        assert!(MapKey::Int(1) < MapKey::Int(2));
    }

    #[test]
    fn display_struct() {
        let mut h = Heap::new();
        let mut fields = BTreeMap::new();
        fields.insert("id".to_string(), Value::Int(7));
        let r = h.alloc(HeapObj::Struct { ty: "Session".into(), fields });
        assert_eq!(h.display(&Value::Ref(r)), "Session { id: 7 }");
    }
}
