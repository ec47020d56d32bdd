//! Event occurrences and their parameters.
//!
//! A primitive event in the paper is `U → F(PA₁ … PAₙ)` — a subject invoking
//! a function with parameters. Occurrences carry those parameters so the
//! **W** (condition) and **T/E** (action) parts of OWTE rules can read them.

use crate::time::{Interval, Ts};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// Index of an event node in a [`crate::detector::Detector`]'s graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct EventId(pub u32);

impl fmt::Display for EventId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "E{}", self.0)
    }
}

/// A parameter value. The small closed set covers everything RBAC
/// enforcement needs; `Str` is the escape hatch.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Value {
    /// A signed integer (entity ids, counts).
    Int(i64),
    /// A boolean flag.
    Bool(bool),
    /// A string (names, messages).
    Str(String),
    /// A timestamp (used by temporal events).
    Time(Ts),
}

impl Value {
    /// The integer value, if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The boolean value, if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The string value, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The timestamp value, if this is a `Time`.
    pub fn as_time(&self) -> Option<Ts> {
        match self {
            Value::Time(t) => Some(*t),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Time(t) => write!(f, "{t}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::Int(v)
    }
}
impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value::Int(v as i64)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Value {
        Value::Int(i64::from(v))
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(v)
    }
}
impl From<Ts> for Value {
    fn from(v: Ts) -> Value {
        Value::Time(v)
    }
}

/// A parameter name.
///
/// The names a request carries are fixed long before the request: the
/// engine's API and the rule generator use string literals, a policy read
/// from the DSL or from a stored snapshot has its names in the rule pool.
/// A key therefore never owns a buffer of its own: it either points at a
/// literal or shares one allocation with every other copy, and cloning it
/// costs at most a reference count. Keys compare, print and serialize as
/// the string they name.
#[derive(Clone)]
pub enum Key {
    /// A string literal.
    Static(&'static str),
    /// A name made at run time (DSL text, deserialization), shared.
    Shared(Arc<str>),
}

impl Key {
    /// The name.
    pub fn as_str(&self) -> &str {
        match self {
            Key::Static(s) => s,
            Key::Shared(s) => s,
        }
    }
}

impl std::ops::Deref for Key {
    type Target = str;
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl AsRef<str> for Key {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

impl From<&'static str> for Key {
    fn from(s: &'static str) -> Key {
        Key::Static(s)
    }
}

impl From<String> for Key {
    fn from(s: String) -> Key {
        Key::Shared(s.into())
    }
}

impl From<&Key> for Key {
    fn from(k: &Key) -> Key {
        k.clone()
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Key) -> bool {
        self.as_str() == other.as_str()
    }
}

impl Eq for Key {}

impl fmt::Debug for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl Serialize for Key {
    fn serialize<S: serde::Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        self.as_str().serialize(s)
    }
}

impl<'de> Deserialize<'de> for Key {
    fn deserialize<D: serde::Deserializer<'de>>(d: D) -> Result<Key, D::Error> {
        String::deserialize(d).map(Key::from)
    }
}

/// Named parameter list of an occurrence (`⟨PA₁ … PAₙ⟩`).
///
/// Composite occurrences merge their constituents' parameters; on a name
/// collision the *later* (terminator-side) value wins, matching Snoop's
/// left-to-right parameter concatenation with the most recent binding
/// visible.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Params(Vec<(Key, Value)>);

impl Params {
    /// An empty parameter list.
    pub fn new() -> Params {
        Params(Vec::new())
    }

    /// An empty parameter list with room for `n` parameters.
    pub fn with_capacity(n: usize) -> Params {
        Params(Vec::with_capacity(n))
    }

    /// Builder: add a parameter.
    pub fn with(mut self, name: impl Into<Key> + AsRef<str>, value: impl Into<Value>) -> Params {
        self.set(name, value);
        self
    }

    /// Set (or overwrite) a parameter. The name is compared as it is and
    /// converted into a [`Key`] only when it opens a new slot, so
    /// overwriting costs nothing for the name and inserting a `&Key` costs
    /// a reference count.
    pub fn set(&mut self, name: impl Into<Key> + AsRef<str>, value: impl Into<Value>) {
        let value = value.into();
        if let Some(slot) = self.0.iter_mut().find(|(n, _)| **n == *name.as_ref()) {
            slot.1 = value;
        } else {
            self.0.push((name.into(), value));
        }
    }

    /// Look up a parameter by name.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.0.iter().find(|(n, _)| **n == *name).map(|(_, v)| v)
    }

    /// Look up an integer parameter.
    pub fn get_int(&self, name: &str) -> Option<i64> {
        self.get(name).and_then(Value::as_int)
    }

    /// Look up a string parameter.
    pub fn get_str(&self, name: &str) -> Option<&str> {
        self.get(name).and_then(Value::as_str)
    }

    /// Look up a boolean parameter.
    pub fn get_bool(&self, name: &str) -> Option<bool> {
        self.get(name).and_then(Value::as_bool)
    }

    /// Are there no parameters?
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Number of parameters.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Iterate over (name, value) pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.0.iter().map(|(n, v)| (n.as_str(), v))
    }

    /// Merge `other` into `self`; colliding names take `other`'s value.
    pub fn merge(&mut self, other: &Params) {
        for (n, v) in &other.0 {
            self.set(n, v.clone());
        }
    }

    /// A new params list merging `a` then `b` (b wins collisions).
    pub fn merged(a: &Params, b: &Params) -> Params {
        let mut p = a.clone();
        p.merge(b);
        p
    }
}

impl fmt::Display for Params {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, (n, v)) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{n}={v}")?;
        }
        write!(f, ")")
    }
}

/// One occurrence of an event (primitive or composite).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Occurrence {
    /// The event node this occurrence belongs to.
    pub event: EventId,
    /// Occurrence interval in SnoopIB semantics (primitives are instantaneous).
    pub interval: Interval,
    /// Merged parameters.
    pub params: Params,
    /// Primitive events that contributed, in detection order. Lets rule
    /// conditions ask *which* constituent fired (e.g. the TSOD₁ rule's
    /// "if roleDisableNurse == TRUE" branch).
    pub sources: Arc<Vec<EventId>>,
}

impl Occurrence {
    /// A new primitive occurrence at instant `t`.
    pub fn primitive(event: EventId, t: Ts, params: Params) -> Occurrence {
        Occurrence::leaf(event, t, params, &mut None)
    }

    /// [`Occurrence::primitive`] for a leaf node of the event graph, whose
    /// occurrences all have the source list `[event]`: `own` holds it from
    /// the first occurrence on, and each one shares it by reference count.
    pub(crate) fn leaf(
        event: EventId,
        t: Ts,
        params: Params,
        own: &mut Option<Arc<Vec<EventId>>>,
    ) -> Occurrence {
        Occurrence {
            event,
            interval: Interval::at(t),
            params,
            sources: Arc::clone(own.get_or_insert_with(|| Arc::new(vec![event]))),
        }
    }

    /// A composite occurrence combining constituents (in order).
    pub fn composite(event: EventId, interval: Interval, parts: &[&Occurrence]) -> Occurrence {
        Occurrence::composite_with_room(event, interval, parts, 0)
    }

    /// [`Occurrence::composite`] whose parameter buffer has room for
    /// `extra` more (the temporal operators add `fired_at`, `tick`, …).
    pub(crate) fn composite_with_room(
        event: EventId,
        interval: Interval,
        parts: &[&Occurrence],
        extra: usize,
    ) -> Occurrence {
        // One constituent (OR, PLUS, a periodic tick): its source list is
        // the composite's, shared.
        let sources = match parts {
            [only] => Arc::clone(&only.sources),
            _ => {
                let mut all = Vec::with_capacity(parts.iter().map(|p| p.sources.len()).sum());
                for p in parts {
                    all.extend_from_slice(&p.sources);
                }
                Arc::new(all)
            }
        };
        let room = parts.iter().map(|p| p.params.len()).sum::<usize>() + extra;
        let mut params = Params::with_capacity(room);
        for p in parts {
            params.merge(&p.params);
        }
        Occurrence {
            event,
            interval,
            params,
            sources,
        }
    }

    /// Did primitive event `id` contribute to this occurrence?
    pub fn has_source(&self, id: EventId) -> bool {
        self.sources.contains(&id)
    }
}

impl fmt::Display for Occurrence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}{}", self.event, self.interval, self.params)
    }
}

/// A detected occurrence of a *watched* event, as returned by the detector.
#[derive(Debug, Clone, PartialEq)]
pub struct Detection {
    /// The occurrence that was detected.
    pub occurrence: Occurrence,
}

impl Detection {
    /// The detected event.
    pub fn event(&self) -> EventId {
        self.occurrence.event
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn params_set_get_overwrite() {
        let mut p = Params::new().with("user", "bob").with("n", 5i64);
        assert_eq!(p.get_str("user"), Some("bob"));
        assert_eq!(p.get_int("n"), Some(5));
        assert_eq!(p.get("missing"), None);
        p.set("n", 7i64);
        assert_eq!(p.get_int("n"), Some(7));
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn params_merge_later_wins() {
        let a = Params::new().with("x", 1i64).with("y", 2i64);
        let b = Params::new().with("y", 9i64).with("z", 3i64);
        let m = Params::merged(&a, &b);
        assert_eq!(m.get_int("x"), Some(1));
        assert_eq!(m.get_int("y"), Some(9));
        assert_eq!(m.get_int("z"), Some(3));
    }

    /// The one allocation behind a run-time key.
    fn shared(k: &Key) -> &Arc<str> {
        match k {
            Key::Shared(name) => name,
            Key::Static(_) => panic!("a literal has no allocation"),
        }
    }

    fn owners(k: &Key) -> usize {
        Arc::strong_count(shared(k))
    }

    #[test]
    fn overwrite_compares_first_and_insert_shares_the_key() {
        let names = ["user", "session", "role", "op"].map(|n| Key::from(n.to_string()));
        let mut p = Params::new();
        for (i, k) in names.iter().enumerate() {
            p.set(k, i as i64);
        }
        assert!(names.iter().all(|k| owners(k) == 2), "inserted by refcount");
        // Overwriting finds the slot by comparing: whatever names it, the
        // stored key stays and the offered one is not even cloned.
        p.set(&names[0], 7i64);
        p.set("user", 8i64);
        p.set(String::from("user"), 9i64);
        assert_eq!((p.len(), p.get_int("user")), (4, Some(9)));
        assert_eq!(owners(&names[0]), 2);
        assert!(Arc::ptr_eq(shared(&p.0[0].0), shared(&names[0])));
    }

    #[test]
    fn composite_merge_allocates_no_keys() {
        let names = ["user", "session", "role", "op"].map(|n| Key::from(n.to_string()));
        let occ = |id, t, base: i64| {
            let mut p = Params::with_capacity(4);
            for (i, k) in names.iter().enumerate() {
                p.set(k, base + i as i64);
            }
            Occurrence::primitive(EventId(id), Ts::from_secs(t), p)
        };
        let (o1, o2) = (occ(1, 1, 0), occ(2, 2, 10));
        assert!(names.iter().all(|k| owners(k) == 3));
        let c = Occurrence::composite(EventId(9), o1.interval.hull(&o2.interval), &[&o1, &o2]);
        // Four slots opened by `o1`'s keys (one more owner each), four
        // overwrites by `o2`'s (none): no key was built.
        assert!(names.iter().all(|k| owners(k) == 4));
        assert_eq!(c.params.len(), 4);
        assert_eq!(c.params.get_int("op"), Some(13), "later value wins");
        assert_eq!(c.params.0.capacity(), 8, "one buffer, sized before merging");
        assert_eq!(*c.sources, vec![EventId(1), EventId(2)]);
        // A single constituent's source list is shared, not rebuilt.
        let or = Occurrence::composite(EventId(10), o1.interval, &[&o1]);
        assert!(Arc::ptr_eq(&or.sources, &o1.sources));
    }

    #[test]
    fn keys_are_their_strings_to_serde_and_fmt() {
        let p = Params::new()
            .with("user", 1i64)
            .with("zone".to_string(), "z1");
        let json = serde_json::to_string(&p).unwrap();
        assert_eq!(json, r#"[["user",{"Int":1}],["zone",{"Str":"z1"}]]"#);
        let back: Params = serde_json::from_str(&json).unwrap();
        assert_eq!(back, p, "a literal and a shared key of one name are equal");
        assert!(matches!(back.0[0].0, Key::Shared(_)));
        assert_eq!(
            format!("{:?} {}", back.0[0].0, back.0[0].0),
            "\"user\" user"
        );
    }

    #[test]
    fn composite_merges_sources_and_params() {
        let e1 = EventId(1);
        let e2 = EventId(2);
        let o1 = Occurrence::primitive(e1, Ts::from_secs(1), Params::new().with("a", 1i64));
        let o2 = Occurrence::primitive(e2, Ts::from_secs(3), Params::new().with("b", 2i64));
        let c = Occurrence::composite(EventId(9), o1.interval.hull(&o2.interval), &[&o1, &o2]);
        assert!(c.has_source(e1));
        assert!(c.has_source(e2));
        assert!(!c.has_source(EventId(5)));
        assert_eq!(c.params.get_int("a"), Some(1));
        assert_eq!(c.params.get_int("b"), Some(2));
        assert_eq!(
            c.interval,
            Interval::new(Ts::from_secs(1), Ts::from_secs(3))
        );
    }

    #[test]
    fn value_accessors() {
        assert_eq!(Value::from(4i64).as_int(), Some(4));
        assert_eq!(Value::from(true).as_bool(), Some(true));
        assert_eq!(Value::from("hi").as_str(), Some("hi"));
        assert_eq!(
            Value::from(Ts::from_secs(1)).as_time(),
            Some(Ts::from_secs(1))
        );
        assert_eq!(Value::from("hi").as_int(), None);
    }

    #[test]
    fn occurrence_display() {
        let o = Occurrence::primitive(EventId(3), Ts::from_secs(2), Params::new().with("u", "jo"));
        assert_eq!(o.to_string(), "E3@[2s, 2s](u=\"jo\")");
    }
}
