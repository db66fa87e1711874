//! Events — the sole communication mechanism between Prism components.

use crate::symbol::Symbol;
use redep_model::ParamValue;
use redep_telemetry::TraceCtx;
use std::fmt;

/// The role an event plays in an interaction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EventKind {
    /// A request expecting a reply.
    Request,
    /// A reply to an earlier request.
    Reply,
    /// A one-way notification.
    Notification,
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EventKind::Request => f.write_str("request"),
            EventKind::Reply => f.write_str("reply"),
            EventKind::Notification => f.write_str("notification"),
        }
    }
}

/// Parameters of one event, ordered by name.
///
/// Most events carry at most a handful of parameters, so the list stores up
/// to [`INLINE_PARAMS`] entries inline (no heap allocation at all for the
/// common case) and spills to a `Vec` beyond that. Entries are kept sorted
/// by parameter *name* on insert, preserving the overwrite semantics and
/// deterministic iteration order of the `BTreeMap` it replaced.
#[derive(Clone, Debug)]
pub(crate) enum ParamVec {
    /// Up to [`INLINE_PARAMS`] entries, filled prefix-first.
    Inline {
        /// Number of occupied slots.
        len: u8,
        /// The slots; `slots[..len]` are `Some`, the rest `None`.
        slots: [Option<(Symbol, ParamValue)>; INLINE_PARAMS],
    },
    /// Heap fallback for parameter-heavy events.
    Spilled(Vec<(Symbol, ParamValue)>),
}

/// Number of parameters stored without touching the heap.
pub(crate) const INLINE_PARAMS: usize = 4;

impl ParamVec {
    pub(crate) fn new() -> Self {
        ParamVec::Inline {
            len: 0,
            slots: [None, None, None, None],
        }
    }

    pub(crate) fn len(&self) -> usize {
        match self {
            ParamVec::Inline { len, .. } => *len as usize,
            ParamVec::Spilled(v) => v.len(),
        }
    }

    pub(crate) fn iter(&self) -> ParamIter<'_> {
        match self {
            ParamVec::Inline { len, slots } => ParamIter::Inline(slots[..*len as usize].iter()),
            ParamVec::Spilled(v) => ParamIter::Spilled(v.iter()),
        }
    }

    /// Inserts keeping name order; an existing entry with the same name is
    /// overwritten (the `BTreeMap` contract).
    pub(crate) fn insert(&mut self, key: Symbol, value: ParamValue) {
        match self {
            ParamVec::Inline { len, slots } => {
                let n = *len as usize;
                let mut pos = n;
                for (i, slot) in slots[..n].iter().enumerate() {
                    let existing = slot.as_ref().expect("prefix filled").0;
                    if existing == key {
                        slots[i] = Some((key, value));
                        return;
                    }
                    if existing > key {
                        pos = i;
                        break;
                    }
                }
                if n < INLINE_PARAMS {
                    for i in (pos..n).rev() {
                        slots[i + 1] = slots[i].take();
                    }
                    slots[pos] = Some((key, value));
                    *len += 1;
                } else {
                    let mut spilled: Vec<(Symbol, ParamValue)> = Vec::with_capacity(n + 1);
                    spilled.extend(slots.iter_mut().map(|s| s.take().expect("prefix filled")));
                    spilled.insert(pos, (key, value));
                    *self = ParamVec::Spilled(spilled);
                }
            }
            ParamVec::Spilled(v) => match v.binary_search_by(|(k, _)| k.cmp(&key)) {
                Ok(i) => v[i] = (key, value),
                Err(i) => v.insert(i, (key, value)),
            },
        }
    }

    pub(crate) fn get(&self, key: &str) -> Option<&ParamValue> {
        self.iter().find(|(k, _)| k.as_str() == key).map(|(_, v)| v)
    }
}

/// Iterator over a [`ParamVec`]'s `(name, value)` entries in name order.
pub(crate) enum ParamIter<'a> {
    Inline(std::slice::Iter<'a, Option<(Symbol, ParamValue)>>),
    Spilled(std::slice::Iter<'a, (Symbol, ParamValue)>),
}

impl<'a> Iterator for ParamIter<'a> {
    type Item = &'a (Symbol, ParamValue);
    fn next(&mut self) -> Option<Self::Item> {
        match self {
            ParamIter::Inline(it) => it.next().map(|o| o.as_ref().expect("prefix filled")),
            ParamIter::Spilled(it) => it.next(),
        }
    }
}

impl PartialEq for ParamVec {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

/// An event routed between components by connectors (and between hosts by
/// the distribution transport).
///
/// Events carry an interned [`Symbol`] name, typed parameters (inline up to
/// four, stored in a small-vector `ParamVec`), and an optional opaque payload (used e.g. to
/// ship serialized component state during redeployment). The `size` field is
/// what network accounting charges — it defaults to a rough serialized size
/// but workload generators can set it explicitly to model arbitrary
/// interaction volumes.
///
/// The string API is a thin shim over the symbols: any `impl Into<Symbol>`
/// (including `&str` and `String`) is accepted where a name goes, and
/// [`Event::name`] hands the `&str` back without allocating.
///
/// # Example
///
/// ```
/// use redep_prism::Event;
/// let e = Event::notification("position.update")
///     .with_param("fix", 7i64)
///     .with_param("source", "gps")
///     .with_size(64);
/// assert_eq!(e.name(), "position.update");
/// assert_eq!(e.param("fix").and_then(|v| v.as_i64()), Some(7));
/// assert_eq!(e.param_text("source"), Some("gps"));
/// assert_eq!(e.size(), 64);
/// ```
#[derive(Clone, PartialEq, Debug)]
pub struct Event {
    pub(crate) name: Symbol,
    pub(crate) kind: EventKind,
    pub(crate) params: ParamVec,
    pub(crate) payload: Vec<u8>,
    /// Name of the component that emitted the event (set by the runtime).
    pub(crate) source: Option<Symbol>,
    /// Explicit wire size override.
    pub(crate) size: Option<u64>,
    /// Causal trace context, carried across hosts on the wire. Events
    /// without one encode byte-identically to the pre-trace format.
    pub(crate) trace: Option<TraceCtx>,
}

impl Event {
    /// Creates an event of the given kind.
    fn new(name: impl Into<Symbol>, kind: EventKind) -> Self {
        Event {
            name: name.into(),
            kind,
            params: ParamVec::new(),
            payload: Vec::new(),
            source: None,
            size: None,
            trace: None,
        }
    }

    /// Creates a request event.
    pub fn request(name: impl Into<Symbol>) -> Self {
        Event::new(name, EventKind::Request)
    }

    /// Creates a reply event.
    pub fn reply(name: impl Into<Symbol>) -> Self {
        Event::new(name, EventKind::Reply)
    }

    /// Creates a notification event.
    pub fn notification(name: impl Into<Symbol>) -> Self {
        Event::new(name, EventKind::Notification)
    }

    /// The event name.
    pub fn name(&self) -> &str {
        self.name.as_str()
    }

    /// The event name as its interned symbol (id comparison, no memcmp).
    pub fn name_symbol(&self) -> Symbol {
        self.name
    }

    /// The emitting component's instance name, if stamped by the runtime.
    pub fn source(&self) -> Option<&str> {
        self.source.map(Symbol::as_str)
    }

    /// Stamps the emitting component (done by the runtime on emission).
    pub(crate) fn set_source(&mut self, source: impl Into<Symbol>) {
        self.source = Some(source.into());
    }

    /// Adds a typed parameter (builder style).
    pub fn with_param(mut self, key: impl Into<Symbol>, value: impl Into<ParamValue>) -> Self {
        self.params.insert(key.into(), value.into());
        self
    }

    /// Reads a parameter.
    pub fn param(&self, key: &str) -> Option<&ParamValue> {
        self.params.get(key)
    }

    /// Reads a parameter as text.
    pub fn param_text(&self, key: &str) -> Option<&str> {
        self.param(key).and_then(ParamValue::as_text)
    }

    /// Attaches an opaque payload (builder style).
    pub fn with_payload(mut self, payload: Vec<u8>) -> Self {
        self.payload = payload;
        self
    }

    /// The opaque payload (empty when none was attached).
    pub fn payload(&self) -> &[u8] {
        &self.payload
    }

    /// Overrides the accounted wire size (builder style).
    pub fn with_size(mut self, size: u64) -> Self {
        self.size = Some(size);
        self
    }

    /// Attaches a causal trace context (builder style). The context rides
    /// the wire with the event and links the receiving host's telemetry to
    /// the span that caused the send.
    pub fn with_trace(mut self, ctx: TraceCtx) -> Self {
        self.trace = Some(ctx);
        self
    }

    /// The causal trace context, if the event carries one.
    pub fn trace(&self) -> Option<TraceCtx> {
        self.trace
    }

    /// The size charged on the wire: the explicit override when set,
    /// otherwise an estimate (name + params + payload bytes), computed
    /// without allocating.
    pub fn size(&self) -> u64 {
        self.size.unwrap_or_else(|| {
            let params: u64 = self
                .params
                .iter()
                .map(|(k, v)| k.as_str().len() as u64 + 8 + param_value_width(v))
                .sum();
            self.name.as_str().len() as u64 + params + self.payload.len() as u64 + 16
        })
    }

    /// Serializes the event for the wire (the binary layout documented in
    /// [`crate::codec`]).
    ///
    /// # Errors
    ///
    /// Never: encoding cannot fail, and the crate's own callers use the
    /// infallible encoder underneath. The `Result` stays for callers outside
    /// the workspace that unwrap it (the `benchmark/` harness).
    pub fn encode(&self) -> Result<Vec<u8>, crate::PrismError> {
        Ok(crate::codec::encode_event(self))
    }

    /// Deserializes an event from the wire.
    ///
    /// # Errors
    ///
    /// Returns [`crate::PrismError::Codec`] for malformed bytes; input that
    /// does not start with the event magic byte is reported with its
    /// leading byte.
    pub fn decode(bytes: &[u8]) -> Result<Self, crate::PrismError> {
        crate::codec::decode_event(bytes)
    }
}

/// Width estimate of one parameter value's textual form, allocation-free
/// (the previous implementation built a `String` per parameter only to take
/// its length).
fn param_value_width(v: &ParamValue) -> u64 {
    match v {
        ParamValue::Bool(b) => {
            if *b {
                4 // "true"
            } else {
                5 // "false"
            }
        }
        ParamValue::Int(i) => decimal_width(*i),
        // f64 Display output varies; charge the round-trip-precision worst
        // case instead of formatting.
        ParamValue::Float(_) => 17,
        ParamValue::Text(s) => s.len() as u64,
    }
}

/// Number of characters in the decimal rendering of `i`.
fn decimal_width(i: i64) -> u64 {
    let mut w = u64::from(i < 0);
    let mut magnitude = i.unsigned_abs();
    loop {
        w += 1;
        magnitude /= 10;
        if magnitude == 0 {
            return w;
        }
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} '{}'", self.kind, self.name)?;
        if let Some(src) = self.source {
            write!(f, " from {src}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_kind() {
        assert_eq!(Event::request("r").kind, EventKind::Request);
        assert_eq!(Event::reply("r").kind, EventKind::Reply);
        assert_eq!(Event::notification("n").kind, EventKind::Notification);
    }

    #[test]
    fn params_typed_access() {
        let e = Event::notification("n")
            .with_param("f", 1.5)
            .with_param("s", "text")
            .with_param("i", 3i64);
        assert_eq!(e.param("f"), Some(&ParamValue::Float(1.5)));
        assert_eq!(e.param("i"), Some(&ParamValue::Int(3)));
        assert_eq!(e.param_text("s"), Some("text"));
        assert_eq!(e.param("missing"), None);
    }

    #[test]
    fn params_overwrite_and_stay_name_ordered() {
        let mut e = Event::notification("n");
        for (k, v) in [("zz", 1i64), ("aa", 2), ("mm", 3), ("zz", 4), ("bb", 5)] {
            e = e.with_param(k, v);
        }
        let keys: Vec<&str> = e.params.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["aa", "bb", "mm", "zz"]);
        assert_eq!(
            e.param("zz"),
            Some(&ParamValue::Int(4)),
            "later insert overwrites"
        );
    }

    #[test]
    fn params_spill_beyond_inline_capacity() {
        let mut e = Event::notification("n");
        for i in 0..10i64 {
            e = e.with_param(format!("p{i}"), i);
        }
        assert_eq!(e.params.len(), 10);
        for i in 0..10i64 {
            assert_eq!(e.param(&format!("p{i}")), Some(&ParamValue::Int(i)));
        }
        let keys: Vec<&str> = e.params.iter().map(|(k, _)| k.as_str()).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn size_override_and_estimate() {
        let small = Event::notification("n");
        assert!(small.size() > 0);
        let sized = Event::notification("n").with_size(4096);
        assert_eq!(sized.size(), 4096);
        let with_payload = Event::notification("n").with_payload(vec![0; 100]);
        assert!(with_payload.size() >= 100);
    }

    #[test]
    fn size_estimate_counts_params_without_allocating() {
        let bare = Event::notification("n");
        let with_params = Event::notification("n")
            .with_param("flag", true)
            .with_param("count", -1234i64)
            .with_param("ratio", 0.25)
            .with_param("label", "hello");
        assert!(with_params.size() > bare.size());
        // The integer estimate matches its decimal width exactly.
        assert_eq!(decimal_width(-1234), 5);
        assert_eq!(decimal_width(0), 1);
        assert_eq!(decimal_width(i64::MIN), 20);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let mut e = Event::request("cmd")
            .with_param("x", 2.0)
            .with_payload(vec![1, 2, 3])
            .with_size(99);
        e.set_source("sensor-1");
        let bytes = e.encode().unwrap();
        let back = Event::decode(&bytes).unwrap();
        assert_eq!(e, back);
        assert_eq!(back.source(), Some("sensor-1"));
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(matches!(
            Event::decode(b"not an event"),
            Err(crate::PrismError::Codec(_))
        ));
    }

    #[test]
    fn display_mentions_kind_name_source() {
        let mut e = Event::request("cmd");
        e.set_source("gui");
        assert_eq!(e.to_string(), "request 'cmd' from gui");
    }
}
