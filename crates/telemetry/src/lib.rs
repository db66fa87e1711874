//! Sim-time-aware telemetry for the redep workspace.
//!
//! The paper's framework is an observability loop — monitors estimate what
//! the network does, the analyzer decides from those estimates — so the
//! instrumentation layer has two hard requirements the usual tracing stacks
//! don't:
//!
//! 1. **Determinism.** Every record is stamped with *simulation* time
//!    (microseconds as `u64`), never wall clock. Two runs with the same
//!    seed must produce byte-identical exported journals, so traces can be
//!    diffed across seeded runs.
//! 2. **Hot-path cost.** Counters and gauges are single relaxed atomic
//!    operations; the journal takes one short mutex hold per record; and a
//!    disabled [`Telemetry`] handle short-circuits before allocating, so
//!    instrumentation can stay compiled in.
//!
//! The crate deliberately takes time as a raw `u64` of microseconds rather
//! than `netsim::SimTime` — netsim *depends on* this crate, so the time
//! type cannot flow the other way. Callers stamp with
//! `SimTime::as_micros()`.
//!
//! # Layout
//!
//! - [`MetricsRegistry`] — named [`Counter`]s, [`Gauge`]s, and fixed-bucket
//!   [`Histogram`]s; registration locks, increments never do.
//! - [`Journal`] — a bounded ring buffer of structured [`Event`]s
//!   (drop-oldest, with a drop counter so truncation is visible).
//! - [`Telemetry`] — a cheap-to-clone handle bundling both plus the
//!   enabled/disabled switch; [`Telemetry::export_jsonl`] renders the
//!   machine-readable journal and [`Telemetry::summary`] the human one.
//! - [`trace`] — causal trace contexts ([`TraceCtx`]) with deterministic
//!   span-id generation ([`SpanIdGen`]).
//! - [`merge_export_jsonl`] — reconstructs the single global record order
//!   from the per-shard journals of the sharded simulator, using the `(sim_time, event_key)` order stamps written via
//!   [`Telemetry::set_order`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::borrow::Cow;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use serde_json::{Number, Value};

pub mod metrics;
pub mod trace;

pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry};
pub use trace::{SpanIdGen, TraceCtx};

/// One structured field value attached to an [`Event`].
#[derive(Clone, Debug, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point.
    F64(f64),
    /// Boolean flag.
    Bool(bool),
    /// Text (static labels stay unallocated).
    Str(Cow<'static, str>),
}

macro_rules! field_from {
    ($($t:ty => $variant:ident as $cast:ty),*) => {$(
        impl From<$t> for FieldValue {
            fn from(v: $t) -> Self {
                FieldValue::$variant(v as $cast)
            }
        }
    )*};
}

field_from!(
    u64 => U64 as u64,
    u32 => U64 as u64,
    usize => U64 as u64,
    i64 => I64 as i64,
    i32 => I64 as i64,
    f64 => F64 as f64
);

impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}

impl From<&'static str> for FieldValue {
    fn from(v: &'static str) -> Self {
        FieldValue::Str(Cow::Borrowed(v))
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(Cow::Owned(v))
    }
}

impl FieldValue {
    fn to_json(&self) -> Value {
        match self {
            FieldValue::U64(v) => Value::Number(Number::U(*v)),
            FieldValue::I64(v) => Value::Number(Number::I(*v)),
            FieldValue::F64(v) => Value::Number(Number::F(*v)),
            FieldValue::Bool(v) => Value::Bool(*v),
            FieldValue::Str(v) => Value::String(v.clone().into_owned()),
        }
    }
}

/// One journal record: a named occurrence at a simulation time, with
/// structured fields. Spans are events that also carry an end time.
#[derive(Clone, Debug, PartialEq)]
pub struct Event {
    /// Simulation time of the event (or span start), in microseconds.
    pub t_us: u64,
    /// Span end in simulation microseconds; `None` for point events.
    pub end_us: Option<u64>,
    /// Dot-separated event name, e.g. `"net.link.drop"`.
    pub name: Cow<'static, str>,
    /// Structured payload, in insertion order.
    pub fields: Vec<(Cow<'static, str>, FieldValue)>,
    /// Global-order stamp `[sim_time_us, event_key, intra]` used to merge
    /// per-shard journals back into the one-shard processing order (see
    /// [`merge_export_jsonl`]). The simulator sets the first two components per
    /// processed sim event via [`Telemetry::set_order`]; the third counts
    /// records emitted under that sim event. Records made outside a
    /// simulation keep zeros there, and the stamp never appears in exported
    /// JSONL.
    pub ord: [u64; 3],
}

impl Event {
    /// Renders the event as one JSON object (the JSONL line without the
    /// trailing newline). Field keys are emitted in sorted order so output
    /// is independent of instrumentation-site ordering.
    pub fn to_json(&self) -> Value {
        let mut obj = std::collections::BTreeMap::new();
        obj.insert("t_us".to_owned(), Value::Number(Number::U(self.t_us)));
        if let Some(end) = self.end_us {
            obj.insert("end_us".to_owned(), Value::Number(Number::U(end)));
        }
        obj.insert(
            "event".to_owned(),
            Value::String(self.name.clone().into_owned()),
        );
        if !self.fields.is_empty() {
            let fields: std::collections::BTreeMap<String, Value> = self
                .fields
                .iter()
                .map(|(k, v)| (k.clone().into_owned(), v.to_json()))
                .collect();
            obj.insert("fields".to_owned(), Value::Object(fields));
        }
        Value::Object(obj)
    }
}

/// A bounded, drop-oldest ring buffer of [`Event`]s.
///
/// Records hold a mutex only long enough to push; when full, the oldest
/// record is evicted and counted in [`Journal::dropped`], so a truncated
/// journal is always detectable.
pub struct Journal {
    buf: Mutex<VecDeque<Event>>,
    capacity: usize,
    dropped: AtomicU64,
    ord0: AtomicU64,
    ord1: AtomicU64,
    intra: AtomicU64,
}

impl Journal {
    /// A journal retaining at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        Journal {
            buf: Mutex::new(VecDeque::with_capacity(capacity.min(4096))),
            capacity: capacity.max(1),
            dropped: AtomicU64::new(0),
            ord0: AtomicU64::new(0),
            ord1: AtomicU64::new(0),
            intra: AtomicU64::new(0),
        }
    }

    /// Sets the order stamp applied to subsequent records: `t_us` is the
    /// simulation time of the sim event being processed and `key` its
    /// queue tie-break key. Resets the intra-event counter. The sharded
    /// simulator calls this before every node/fault callback so that
    /// per-shard journals can be merged back into global processing order.
    pub fn set_order(&self, t_us: u64, key: u64) {
        self.ord0.store(t_us, Ordering::Relaxed);
        self.ord1.store(key, Ordering::Relaxed);
        self.intra.store(0, Ordering::Relaxed);
    }

    /// Appends one event, evicting the oldest when at capacity. The event
    /// is stamped with the current order (see [`Journal::set_order`]).
    pub fn record(&self, mut event: Event) {
        event.ord = [
            self.ord0.load(Ordering::Relaxed),
            self.ord1.load(Ordering::Relaxed),
            self.intra.fetch_add(1, Ordering::Relaxed),
        ];
        let mut buf = self.buf();
        if buf.len() >= self.capacity {
            buf.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        buf.push_back(event);
    }

    /// The retained events, locked; a record that panicked mid-push still
    /// leaves a well-formed deque, so a poisoned lock is taken as is.
    fn buf(&self) -> MutexGuard<'_, VecDeque<Event>> {
        self.buf.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Number of events currently retained.
    pub fn len(&self) -> usize {
        self.buf().len()
    }

    /// Whether the journal holds no events.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// How many events were evicted to respect the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// A copy of the retained events, oldest first.
    pub fn snapshot(&self) -> Vec<Event> {
        self.buf().iter().cloned().collect()
    }

    /// Removes and returns all retained events, oldest first.
    pub fn drain(&self) -> Vec<Event> {
        self.buf().drain(..).collect()
    }
}

/// Builder returned by [`Telemetry::event`] / [`Telemetry::span`]; collects
/// fields and writes the record on [`emit`](EventBuilder::emit). When the
/// telemetry handle is disabled the builder is inert and never allocates.
pub struct EventBuilder<'a> {
    journal: Option<&'a Journal>,
    event: Event,
}

impl EventBuilder<'_> {
    /// Attaches one structured field.
    #[must_use]
    pub fn field(mut self, key: &'static str, value: impl Into<FieldValue>) -> Self {
        if self.journal.is_some() {
            self.event.fields.push((Cow::Borrowed(key), value.into()));
        }
        self
    }

    /// Attaches a causal trace context as the standard `trace_id` /
    /// `span_id` / `parent_id` fields.
    #[must_use]
    pub fn trace(mut self, ctx: TraceCtx) -> Self {
        if self.journal.is_some() {
            self.event.fields.push((
                Cow::Borrowed(trace::FIELD_TRACE_ID),
                FieldValue::U64(ctx.trace_id),
            ));
            self.event.fields.push((
                Cow::Borrowed(trace::FIELD_SPAN_ID),
                FieldValue::U64(ctx.span_id),
            ));
            if let Some(parent) = ctx.parent_id {
                self.event.fields.push((
                    Cow::Borrowed(trace::FIELD_PARENT_ID),
                    FieldValue::U64(parent),
                ));
            }
        }
        self
    }

    /// Attaches a trace context when one is present; no-op otherwise.
    #[must_use]
    pub fn trace_opt(self, ctx: Option<TraceCtx>) -> Self {
        match ctx {
            Some(ctx) => self.trace(ctx),
            None => self,
        }
    }

    /// Writes the record into the journal.
    pub fn emit(self) {
        if let Some(journal) = self.journal {
            journal.record(self.event);
        }
    }
}

/// Shared telemetry handle: metrics + journal + the on/off switch.
///
/// Cloning is an `Arc` bump; every layer of the system can hold its own
/// handle. A handle built with [`Telemetry::disabled`] keeps the full API
/// but records nothing — instrumentation stays compiled in and costs a
/// branch.
#[derive(Clone)]
pub struct Telemetry {
    inner: Arc<Inner>,
}

struct Inner {
    enabled: bool,
    metrics: MetricsRegistry,
    journal: Journal,
}

/// Default journal capacity: enough for the longest experiment runs while
/// bounding memory at roughly a few MiB.
const DEFAULT_JOURNAL_CAPACITY: usize = 65_536;

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::new(DEFAULT_JOURNAL_CAPACITY)
    }
}

impl Telemetry {
    /// An enabled handle with the given journal capacity.
    pub fn new(journal_capacity: usize) -> Self {
        Telemetry {
            inner: Arc::new(Inner {
                enabled: true,
                metrics: MetricsRegistry::new(),
                journal: Journal::new(journal_capacity),
            }),
        }
    }

    /// A no-op handle: full API, records nothing, near-zero cost.
    pub fn disabled() -> Self {
        Telemetry {
            inner: Arc::new(Inner {
                enabled: false,
                metrics: MetricsRegistry::new(),
                journal: Journal::new(1),
            }),
        }
    }

    /// The metrics registry (counters/gauges/histograms).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.inner.metrics
    }

    /// The event journal.
    pub fn journal(&self) -> &Journal {
        &self.inner.journal
    }

    /// Sets the order stamp for subsequent journal records; see
    /// [`Journal::set_order`]. No-op on a disabled handle.
    pub fn set_order(&self, t_us: u64, key: u64) {
        if self.inner.enabled {
            self.inner.journal.set_order(t_us, key);
        }
    }

    /// Starts a point event at simulation time `t_us`.
    #[must_use]
    pub fn event(&self, name: &'static str, t_us: u64) -> EventBuilder<'_> {
        EventBuilder {
            journal: self.inner.enabled.then(|| &self.inner.journal),
            event: Event {
                t_us,
                end_us: None,
                name: Cow::Borrowed(name),
                fields: Vec::new(),
                ord: [0; 3],
            },
        }
    }

    /// Starts a span record covering `[start_us, end_us]` in simulation time.
    #[must_use]
    pub fn span(&self, name: &'static str, start_us: u64, end_us: u64) -> EventBuilder<'_> {
        EventBuilder {
            journal: self.inner.enabled.then(|| &self.inner.journal),
            event: Event {
                t_us: start_us,
                end_us: Some(end_us),
                name: Cow::Borrowed(name),
                fields: Vec::new(),
                ord: [0; 3],
            },
        }
    }

    /// Renders the journal as JSON Lines: one deterministic, sorted-key
    /// object per event, oldest first.
    pub fn export_jsonl(&self) -> String {
        let mut out = String::new();
        for event in self.inner.journal.snapshot() {
            out.push_str(
                &serde_json::to_string(&event.to_json()).expect("journal events always serialize"),
            );
            out.push('\n');
        }
        out
    }

    /// Human-readable run digest: journal shape, event counts by name, and
    /// every registered metric.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        let events = self.inner.journal.snapshot();
        let dropped = self.inner.journal.dropped();
        let _ = writeln!(
            out,
            "telemetry summary: {} events retained, {} dropped{}",
            events.len(),
            dropped,
            if self.inner.enabled {
                ""
            } else {
                " (disabled)"
            }
        );
        if let (Some(first), Some(last)) = (events.first(), events.last()) {
            let _ = writeln!(
                out,
                "  sim-time range: {:.6}s .. {:.6}s",
                first.t_us as f64 / 1e6,
                last.t_us as f64 / 1e6
            );
        }
        let mut counts: std::collections::BTreeMap<&str, u64> = std::collections::BTreeMap::new();
        for event in &events {
            *counts.entry(event.name.as_ref()).or_default() += 1;
        }
        if !counts.is_empty() {
            let _ = writeln!(out, "  events by name:");
            for (name, n) in counts {
                let _ = writeln!(out, "    {name:<40} {n:>8}");
            }
        }
        let mut durations: std::collections::BTreeMap<&str, Vec<f64>> =
            std::collections::BTreeMap::new();
        for event in &events {
            if let Some(end) = event.end_us {
                durations
                    .entry(event.name.as_ref())
                    .or_default()
                    .push(end.saturating_sub(event.t_us) as f64 / 1e3);
            }
        }
        if !durations.is_empty() {
            let _ = writeln!(out, "  span durations (ms):");
            for (name, samples) in durations {
                if let Some([p50, p90, p99]) = percentiles(&samples) {
                    let _ = writeln!(
                        out,
                        "    {name:<40} n={:>6} p50={p50:.3} p90={p90:.3} p99={p99:.3}",
                        samples.len()
                    );
                }
            }
        }
        out.push_str(&self.inner.metrics.render());
        out
    }
}

/// Exact nearest-rank p50/p90/p99 over a sample set; `None` when empty.
///
/// Unlike the bucket-interpolated quantiles [`MetricsRegistry::render`]
/// prints for a [`Histogram`], this sorts the raw samples, so it is exact — use it for bounded sample sets (per-window availability,
/// span durations), not unbounded hot-path streams.
pub fn percentiles(samples: &[f64]) -> Option<[f64; 3]> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let pick = |q: f64| {
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    };
    Some([pick(0.50), pick(0.90), pick(0.99)])
}

/// Merges per-shard journals into the global processing order.
///
/// Each shard of the sharded simulator journals into its own [`Telemetry`]
/// handle, stamping every record with the `(sim_time, queue_key)` of the sim
/// event that produced it (see [`Telemetry::set_order`]). Because those keys
/// are the one-shard pop order, sorting the concatenation by
/// `(ord, shard_index)` yields exactly the record sequence a single-shard run
/// would have journaled — provided no shard's journal dropped records.
///
/// Within one shard the stamps are non-decreasing, so a stable sort here is
/// a k-way merge; shard index only breaks ties between records that carry an
/// identical stamp, which cannot happen for records of distinct sim events.
fn merge_journals(shards: &[&Telemetry]) -> Vec<Event> {
    let mut all: Vec<(usize, Event)> = Vec::new();
    for (idx, tele) in shards.iter().enumerate() {
        all.extend(tele.journal().snapshot().into_iter().map(|e| (idx, e)));
    }
    all.sort_by(|(ia, a), (ib, b)| a.ord.cmp(&b.ord).then(ia.cmp(ib)));
    all.into_iter().map(|(_, e)| e).collect()
}

/// Renders `merge_journals` as JSON Lines — the sharded counterpart of
/// [`Telemetry::export_jsonl`], byte-identical to a single-shard export of
/// the same run when no journal overflowed.
pub fn merge_export_jsonl(shards: &[&Telemetry]) -> String {
    let mut out = String::new();
    for event in merge_journals(shards) {
        out.push_str(
            &serde_json::to_string(&event.to_json()).expect("journal events always serialize"),
        );
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_round_trip_through_jsonl() {
        let tele = Telemetry::new(16);
        tele.event("net.link.drop", 1_500_000)
            .field("src", 1u32)
            .field("dst", 2u32)
            .field("reason", "loss")
            .emit();
        tele.span("prism.migration", 2_000_000, 2_500_000)
            .field("component", "comp_a".to_owned())
            .field("buffered", 7u64)
            .emit();
        let jsonl = tele.export_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        let first: Value = serde_json::from_str(lines[0]).unwrap();
        assert_eq!(first.get("t_us").and_then(Value::as_u64), Some(1_500_000));
        assert_eq!(
            first.get("event").and_then(Value::as_str),
            Some("net.link.drop")
        );
        assert_eq!(
            first
                .get("fields")
                .and_then(|f| f.get("reason"))
                .and_then(Value::as_str),
            Some("loss")
        );
        let second: Value = serde_json::from_str(lines[1]).unwrap();
        assert_eq!(
            second.get("end_us").and_then(Value::as_u64),
            Some(2_500_000)
        );
    }

    #[test]
    fn journal_drops_oldest_and_counts() {
        let tele = Telemetry::new(3);
        for i in 0..5u64 {
            tele.event("tick", i).emit();
        }
        let events = tele.journal().snapshot();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].t_us, 2);
        assert_eq!(tele.journal().dropped(), 2);
    }

    #[test]
    fn disabled_handle_records_nothing() {
        let tele = Telemetry::disabled();
        tele.event("x", 1).field("a", 1u64).emit();
        assert!(tele.journal().is_empty());
        // Metrics still function (they are registry-owned, not gated), so
        // callers never need to branch.
        tele.metrics().counter("c").inc();
        assert_eq!(tele.metrics().counter("c").get(), 1);
    }

    #[test]
    fn export_is_deterministic() {
        let run = || {
            let tele = Telemetry::new(64);
            for i in 0..10u64 {
                tele.event("step", i * 1000)
                    .field("z_last", i)
                    .field("a_first", i * 2)
                    .emit();
            }
            tele.export_jsonl()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn percentiles_are_exact_nearest_rank() {
        assert_eq!(percentiles(&[]), None);
        let samples: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let [p50, p90, p99] = percentiles(&samples).unwrap();
        assert_eq!(p50, 50.0);
        assert_eq!(p90, 90.0);
        assert_eq!(p99, 99.0);
        assert_eq!(percentiles(&[7.0]), Some([7.0, 7.0, 7.0]));
    }

    #[test]
    fn summary_reports_span_duration_percentiles() {
        let tele = Telemetry::new(16);
        for i in 0..4u64 {
            tele.span("core.cycle", i * 1000, i * 1000 + 500 + i).emit();
        }
        let summary = tele.summary();
        assert!(summary.contains("span durations (ms)"), "{summary}");
        assert!(summary.contains("p90="), "{summary}");
    }

    #[test]
    fn summary_mentions_counts_and_metrics() {
        let tele = Telemetry::new(16);
        tele.event("a.b", 0).emit();
        tele.event("a.b", 1).emit();
        tele.metrics().counter("net.sent").add(5);
        let summary = tele.summary();
        assert!(summary.contains("a.b"), "{summary}");
        assert!(summary.contains("net.sent"), "{summary}");
        assert!(summary.contains("2 events retained"), "{summary}");
    }
}
