//! Extensible parameter tables.
//!
//! The paper's first extensibility dimension is "inclusion of arbitrary system
//! parameters (hardware host properties, network link properties, software
//! component properties, software interaction properties)". Every model part
//! therefore carries a [`ParamTable`]: an ordered map from [`ParamKey`] to
//! [`ParamValue`]. Well-known keys used by the built-in objectives and
//! constraints live in [`keys`]; user-defined solutions are free to add their
//! own.

use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;

/// Well-known parameter keys understood by the built-in objectives,
/// constraints, monitors and generators.
///
/// These are plain strings so that external tools (ADL documents, monitors,
/// visualizations) can refer to them without linking against this crate.
pub mod keys {
    /// Available memory on a host (abstract units).
    pub const HOST_MEMORY: &str = "host.memory";
    /// Memory required by a component (abstract units).
    pub const COMPONENT_MEMORY: &str = "component.memory";
    /// Reliability of a physical link in `[0, 1]`.
    pub const LINK_RELIABILITY: &str = "link.reliability";
    /// Bandwidth of a physical link (bytes per time unit).
    pub const LINK_BANDWIDTH: &str = "link.bandwidth";
    /// Transmission delay of a physical link (time units).
    pub const LINK_DELAY: &str = "link.delay";
    /// Security level of a physical link in `[0, 1]` (user-input).
    pub const LINK_SECURITY: &str = "link.security";
    /// Frequency of interaction over a logical link (events per time unit).
    pub const INTERACTION_FREQUENCY: &str = "interaction.frequency";
    /// Average event size over a logical link (bytes).
    pub const EVENT_SIZE: &str = "interaction.event_size";
}

/// A parameter name.
///
/// Keys are cheap to construct from string literals and from owned strings:
///
/// ```
/// use redep_model::ParamKey;
/// let a = ParamKey::from("host.memory");
/// let b = ParamKey::from(String::from("host.memory"));
/// assert_eq!(a, b);
/// ```
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
#[serde(transparent)]
pub struct ParamKey(Cow<'static, str>);

impl fmt::Display for ParamKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&'static str> for ParamKey {
    fn from(name: &'static str) -> Self {
        ParamKey(Cow::Borrowed(name))
    }
}

impl From<String> for ParamKey {
    fn from(name: String) -> Self {
        ParamKey(Cow::Owned(name))
    }
}

impl AsRef<str> for ParamKey {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

/// A parameter value: a float, integer, boolean or text.
///
/// Monitors typically write [`ParamValue::Float`] values; architects may also
/// provide booleans (e.g. "link is wired") and text (e.g. installed software).
///
/// # Example
///
/// ```
/// use redep_model::{ParamTable, ParamValue};
/// let mut t = ParamTable::new();
/// t.set("x", 0.75);
/// t.set("n", 3i64);
/// assert_eq!(t.get_f64("x"), Some(0.75));
/// assert_eq!(t.get_f64("n"), Some(3.0));
/// assert_eq!(ParamValue::from(3i64).as_i64(), Some(3));
/// assert_eq!(ParamValue::from(true), ParamValue::Bool(true));
/// ```
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
#[serde(untagged)]
pub enum ParamValue {
    /// A boolean flag.
    Bool(bool),
    /// A signed integer.
    Int(i64),
    /// A floating-point quantity (the common case for monitored data).
    Float(f64),
    /// Free-form text.
    Text(String),
}

impl ParamValue {
    /// Returns the value as a float, coercing integers.
    fn as_f64(&self) -> Option<f64> {
        match self {
            ParamValue::Float(v) => Some(*v),
            ParamValue::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// Returns the value as an integer (floats are not coerced).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            ParamValue::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns the value as text.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            ParamValue::Text(v) => Some(v),
            _ => None,
        }
    }
}

impl fmt::Display for ParamValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamValue::Bool(v) => write!(f, "{v}"),
            ParamValue::Int(v) => write!(f, "{v}"),
            ParamValue::Float(v) => write!(f, "{v}"),
            ParamValue::Text(v) => f.write_str(v),
        }
    }
}

impl From<f64> for ParamValue {
    fn from(v: f64) -> Self {
        ParamValue::Float(v)
    }
}

impl From<i64> for ParamValue {
    fn from(v: i64) -> Self {
        ParamValue::Int(v)
    }
}

impl From<bool> for ParamValue {
    fn from(v: bool) -> Self {
        ParamValue::Bool(v)
    }
}

impl From<String> for ParamValue {
    fn from(v: String) -> Self {
        ParamValue::Text(v)
    }
}

impl From<&str> for ParamValue {
    fn from(v: &str) -> Self {
        ParamValue::Text(v.to_owned())
    }
}

/// An ordered, extensible table of named parameters.
///
/// The table iterates in key order, so everything derived from it (view
/// renderings, serializations, hashes of model state) is deterministic.
///
/// # Example
///
/// ```
/// use redep_model::{ParamTable, keys};
/// let mut t = ParamTable::new();
/// t.set(keys::HOST_MEMORY, 512.0);
/// assert_eq!(t.get_f64(keys::HOST_MEMORY), Some(512.0));
/// assert_eq!(t.get_f64_or("no.such.key", 1.0), 1.0);
/// ```
#[derive(Clone, PartialEq, Debug, Default, Serialize, Deserialize)]
#[serde(transparent)]
pub struct ParamTable {
    entries: BTreeMap<ParamKey, ParamValue>,
}

impl ParamTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        ParamTable::default()
    }

    /// Sets a parameter, returning the previous value if any.
    pub fn set(
        &mut self,
        key: impl Into<ParamKey>,
        value: impl Into<ParamValue>,
    ) -> Option<ParamValue> {
        self.entries.insert(key.into(), value.into())
    }

    /// Returns a parameter value.
    fn get(&self, key: impl Into<ParamKey>) -> Option<&ParamValue> {
        self.entries.get(&key.into())
    }

    /// Returns a parameter as a float (integers are coerced).
    pub fn get_f64(&self, key: impl Into<ParamKey>) -> Option<f64> {
        self.get(key).and_then(ParamValue::as_f64)
    }

    /// Returns a parameter as a float, or `default` when absent.
    pub fn get_f64_or(&self, key: impl Into<ParamKey>, default: f64) -> f64 {
        self.get_f64(key).unwrap_or(default)
    }

    /// Removes a parameter, returning its value if present.
    pub fn remove(&mut self, key: impl Into<ParamKey>) -> Option<ParamValue> {
        self.entries.remove(&key.into())
    }

    /// Returns `true` if the table has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Returns the number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Iterates over `(key, value)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&ParamKey, &ParamValue)> {
        self.entries.iter()
    }
}

impl<K: Into<ParamKey>, V: Into<ParamValue>> FromIterator<(K, V)> for ParamTable {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        let mut t = ParamTable::new();
        for (k, v) in iter {
            t.set(k, v);
        }
        t
    }
}

impl<K: Into<ParamKey>, V: Into<ParamValue>> Extend<(K, V)> for ParamTable {
    fn extend<I: IntoIterator<Item = (K, V)>>(&mut self, iter: I) {
        for (k, v) in iter {
            self.set(k, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_and_get() {
        let mut t = ParamTable::new();
        assert!(t.is_empty());
        t.set(keys::LINK_RELIABILITY, 0.9);
        assert_eq!(t.len(), 1);
        assert_eq!(t.get_f64(keys::LINK_RELIABILITY), Some(0.9));
    }

    #[test]
    fn set_returns_previous_value() {
        let mut t = ParamTable::new();
        assert_eq!(t.set("x", 1.0), None);
        assert_eq!(t.set("x", 2.0), Some(ParamValue::Float(1.0)));
    }

    #[test]
    fn int_coerces_to_float() {
        let mut t = ParamTable::new();
        t.set("n", 5i64);
        assert_eq!(t.get_f64("n"), Some(5.0));
        assert_eq!(t.get("n").and_then(ParamValue::as_i64), Some(5));
    }

    #[test]
    fn bool_and_text_do_not_coerce_to_float() {
        let mut t = ParamTable::new();
        t.set("flag", true);
        t.set("label", "gps");
        assert_eq!(t.get_f64("flag"), None);
        assert_eq!(t.get_f64("label"), None);
        assert_eq!(t.get("flag"), Some(&ParamValue::Bool(true)));
        assert_eq!(t.get("label").and_then(ParamValue::as_text), Some("gps"));
    }

    #[test]
    fn default_applies_only_when_absent() {
        let mut t = ParamTable::new();
        assert_eq!(t.get_f64_or("k", 7.0), 7.0);
        t.set("k", 3.0);
        assert_eq!(t.get_f64_or("k", 7.0), 3.0);
    }

    #[test]
    fn remove_clears_entry() {
        let mut t = ParamTable::new();
        t.set("k", 1.0);
        assert_eq!(t.remove("k"), Some(ParamValue::Float(1.0)));
        assert_eq!(t.remove("k"), None);
        assert!(t.is_empty());
    }

    #[test]
    fn iteration_is_key_ordered() {
        let mut t = ParamTable::new();
        t.set("b", 2.0);
        t.set("a", 1.0);
        t.set("c", 3.0);
        let order: Vec<&str> = t.iter().map(|(k, _)| k.as_ref()).collect();
        assert_eq!(order, ["a", "b", "c"]);
    }

    #[test]
    fn from_iterator_collects() {
        let t: ParamTable = [("a", 1.0), ("b", 2.0)].into_iter().collect();
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn serde_roundtrip() {
        let mut t = ParamTable::new();
        t.set("f", 1.5);
        t.set("i", 2i64);
        t.set("b", true);
        t.set("s", "hello");
        let json = serde_json::to_string(&t).unwrap();
        let back: ParamTable = serde_json::from_str(&json).unwrap();
        assert_eq!(t, back);
    }
}
