//! Deterministic causal tracing and the trace-analysis engine.
//!
//! Every control-plane record in a run journal can carry a [`TraceCtx`]:
//! a trace identifier (one per dependability cycle or fault episode), a
//! span identifier for the record itself, and an optional parent span.
//! IDs come from [`SpanIdGen`] — per-instance monotonic counters, no RNG
//! and no wall clock — so two runs with the same seed allocate the same
//! IDs in the same order and double-run journals stay byte-identical.
//!
//! # ID layout
//!
//! ```text
//! 63      56 55              32 31                0
//! [ domain ] [ node (24 bits) ] [ counter from 1  ]
//! ```
//!
//! The domain byte keeps generators owned by different subsystems
//! (framework, host runtime, deployer, network simulator) from ever
//! colliding, and the node bits do the same for per-host generators
//! within a domain.
//!
//! # Analysis
//!
//! The second half of the module reconstructs span trees from a journal
//! ([`TraceForest::build`]), computes per-trace critical paths and phase
//! latency breakdowns, windows per-host availability out of
//! `net.host.state` transitions, and checks the structural invariants the
//! fault campaign relies on: every child has a live parent, every
//! migration span settles, and no cycle ends with the model disagreeing
//! with the actual deployment. [`summarize`] and [`diff_jsonl`] are the
//! engines behind the `redep-trace` binary.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

use serde_json::Value;

use crate::{Event, FieldValue};

/// Field key carrying [`TraceCtx::trace_id`] on a journal record.
pub const FIELD_TRACE_ID: &str = "trace_id";
/// Field key carrying [`TraceCtx::span_id`] on a journal record.
pub const FIELD_SPAN_ID: &str = "span_id";
/// Field key carrying [`TraceCtx::parent_id`] on a journal record.
pub const FIELD_PARENT_ID: &str = "parent_id";

/// Span-ID domain for the framework control loop (analyzer/effector).
pub const DOMAIN_FRAMEWORK: u8 = 0;
/// Span-ID domain for per-host middleware runtimes.
pub const DOMAIN_HOST: u8 = 1;
/// Span-ID domain for the deployer component's migration moves.
pub const DOMAIN_DEPLOYER: u8 = 2;
/// Span-ID domain for the network simulator's fault machinery.
pub const DOMAIN_NET: u8 = 3;

/// Causal context attached to events and journal records.
///
/// `trace_id` groups everything caused by one logical episode (a
/// dependability cycle, a fault action); `span_id` names this record;
/// `parent_id` links to the span that caused it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceCtx {
    /// Episode identifier shared by every span in the trace.
    pub trace_id: u64,
    /// This span's identifier, unique within the run.
    pub span_id: u64,
    /// The causing span, or `None` for a trace root.
    pub parent_id: Option<u64>,
}

impl TraceCtx {
    /// A root context: a fresh trace whose root span is the trace itself.
    pub fn root(id: u64) -> Self {
        TraceCtx {
            trace_id: id,
            span_id: id,
            parent_id: None,
        }
    }

    /// A child context in the same trace, parented to `self`.
    pub fn child(&self, span_id: u64) -> Self {
        TraceCtx {
            trace_id: self.trace_id,
            span_id,
            parent_id: Some(self.span_id),
        }
    }
}

/// Deterministic span-ID allocator: `(domain, node)` prefix plus a
/// monotonic counter starting at 1. Allocation order equals processing
/// order in the single-threaded simulator, so same-seed runs always hand
/// out identical IDs.
#[derive(Debug)]
pub struct SpanIdGen {
    base: u64,
    next: AtomicU64,
}

impl SpanIdGen {
    /// A generator whose IDs carry the given domain and node prefix.
    pub fn new(domain: u8, node: u32) -> Self {
        SpanIdGen {
            base: ((domain as u64) << 56) | (((node & 0x00FF_FFFF) as u64) << 32),
            next: AtomicU64::new(1),
        }
    }

    /// The next unique span ID.
    pub fn next_id(&self) -> u64 {
        self.base | self.next.fetch_add(1, Ordering::Relaxed)
    }

    /// Allocates a fresh root context (new trace).
    pub fn root(&self) -> TraceCtx {
        TraceCtx::root(self.next_id())
    }

    /// Allocates a fresh child context under `parent`.
    pub fn child(&self, parent: &TraceCtx) -> TraceCtx {
        parent.child(self.next_id())
    }
}

impl Clone for SpanIdGen {
    fn clone(&self) -> Self {
        SpanIdGen {
            base: self.base,
            next: AtomicU64::new(self.next.load(Ordering::Relaxed)),
        }
    }
}

/// Extracts the trace context from a journal record's fields, if present.
fn ctx_of(event: &Event) -> Option<TraceCtx> {
    let mut trace_id = None;
    let mut span_id = None;
    let mut parent_id = None;
    for (key, value) in &event.fields {
        let FieldValue::U64(v) = value else { continue };
        match key.as_ref() {
            FIELD_TRACE_ID => trace_id = Some(*v),
            FIELD_SPAN_ID => span_id = Some(*v),
            FIELD_PARENT_ID => parent_id = Some(*v),
            _ => {}
        }
    }
    Some(TraceCtx {
        trace_id: trace_id?,
        span_id: span_id?,
        parent_id,
    })
}

// ---------------------------------------------------------------------------
// Journal parsing (the reverse of `Event::to_json`)
// ---------------------------------------------------------------------------

fn field_from_json(value: &Value) -> Result<FieldValue, String> {
    use serde_json::Number;
    match value {
        Value::Bool(b) => Ok(FieldValue::Bool(*b)),
        Value::String(s) => Ok(FieldValue::Str(s.clone().into())),
        Value::Number(Number::U(u)) => Ok(FieldValue::U64(*u)),
        Value::Number(Number::I(i)) => Ok(FieldValue::I64(*i)),
        Value::Number(Number::F(f)) => Ok(FieldValue::F64(*f)),
        other => Err(format!("unsupported field value {other:?}")),
    }
}

fn event_from_json(value: &Value) -> Result<Event, String> {
    let obj = value.as_object().ok_or("journal line is not an object")?;
    let t_us = obj
        .get("t_us")
        .and_then(Value::as_u64)
        .ok_or("record missing `t_us`")?;
    let end_us = obj.get("end_us").and_then(Value::as_u64);
    let name = obj
        .get("event")
        .and_then(Value::as_str)
        .ok_or("record missing `event`")?
        .to_owned();
    let mut fields = Vec::new();
    if let Some(raw) = obj.get("fields") {
        let map = raw.as_object().ok_or("`fields` is not an object")?;
        for (key, val) in map {
            fields.push((key.clone().into(), field_from_json(val)?));
        }
    }
    Ok(Event {
        t_us,
        end_us,
        name: name.into(),
        fields,
        ord: [0; 3],
    })
}

/// Parses a JSONL journal (as produced by `Telemetry::export_jsonl`) back
/// into events. Blank lines are skipped; the error names the first bad line.
pub fn parse_jsonl(text: &str) -> Result<Vec<Event>, String> {
    let mut events = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let value =
            serde_json::parse(line).map_err(|e| format!("line {}: not JSON: {e}", i + 1))?;
        events.push(event_from_json(&value).map_err(|e| format!("line {}: {e}", i + 1))?);
    }
    Ok(events)
}

// ---------------------------------------------------------------------------
// Span-tree reconstruction
// ---------------------------------------------------------------------------

/// One reconstructed span: every journal record sharing a `span_id`,
/// merged. Open markers and their settle record deliberately share an ID,
/// so the merged interval runs from the earliest record start to the
/// latest recorded end.
#[derive(Clone, Debug)]
pub struct Span {
    /// Trace this span belongs to.
    pub trace_id: u64,
    /// Unique span identifier.
    pub span_id: u64,
    /// Causing span, if any.
    pub parent_id: Option<u64>,
    /// Display name: the settling record's name when one exists, else the
    /// first record's.
    pub name: String,
    /// Earliest record start, microseconds of sim time.
    pub start_us: u64,
    /// Latest recorded end; `None` when the span never settled.
    pub end_us: Option<u64>,
    /// Every distinct record name merged into this span, in arrival order.
    pub record_names: Vec<String>,
    /// Merged non-trace fields (first writer wins), stringified.
    pub fields: BTreeMap<String, String>,
    /// Child spans, sorted by `(start_us, span_id)`.
    pub children: Vec<u64>,
    /// Number of journal records merged into this span.
    pub records: usize,
}

impl Span {
    /// Span duration in microseconds, when settled.
    fn duration_us(&self) -> Option<u64> {
        self.end_us.map(|e| e.saturating_sub(self.start_us))
    }

    fn effective_end(&self) -> u64 {
        self.end_us.unwrap_or(self.start_us)
    }

    /// Whether any merged record marks this span as an open marker that
    /// must later settle (names ending in `.open`).
    fn has_open_marker(&self) -> bool {
        self.record_names.iter().any(|n| n.ends_with(".open"))
    }
}

fn field_display(value: &FieldValue) -> String {
    match value {
        FieldValue::U64(v) => v.to_string(),
        FieldValue::I64(v) => v.to_string(),
        FieldValue::F64(v) => format!("{v:.4}"),
        FieldValue::Bool(v) => v.to_string(),
        FieldValue::Str(v) => v.clone().into_owned(),
    }
}

/// Totals for one span name inside a trace or a whole journal.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
struct PhaseStat {
    /// Number of settled spans with this name.
    count: u64,
    /// Sum of their durations, microseconds.
    total_us: u64,
}

/// All spans of one trace, indexed by span ID.
#[derive(Clone, Debug)]
pub struct TraceTree {
    /// The shared trace identifier.
    pub trace_id: u64,
    /// Spans by ID.
    pub spans: BTreeMap<u64, Span>,
    /// Spans without a parent, sorted by `(start_us, span_id)`.
    pub roots: Vec<u64>,
}

impl TraceTree {
    /// The earliest root span, if the trace is non-empty.
    fn root_span(&self) -> Option<&Span> {
        self.roots.first().and_then(|id| self.spans.get(id))
    }

    /// Earliest span start in the trace.
    fn start_us(&self) -> u64 {
        self.spans.values().map(|s| s.start_us).min().unwrap_or(0)
    }

    /// Latest effective span end in the trace.
    fn end_us(&self) -> u64 {
        self.spans
            .values()
            .map(Span::effective_end)
            .max()
            .unwrap_or(0)
    }

    /// The chain from the root to the leaf that finishes last — where the
    /// trace's wall-clock (sim-clock) time actually went. Ties break on
    /// span ID so the path is deterministic.
    pub fn critical_path(&self) -> Vec<&Span> {
        let mut path = Vec::new();
        let Some(mut current) = self.root_span() else {
            return path;
        };
        loop {
            path.push(current);
            let next = current
                .children
                .iter()
                .filter_map(|id| self.spans.get(id))
                .max_by_key(|s| (s.effective_end(), s.span_id));
            match next {
                Some(child) => current = child,
                None => return path,
            }
        }
    }

    /// Settled-span duration totals by span name.
    fn phase_breakdown(&self) -> BTreeMap<String, PhaseStat> {
        let mut out: BTreeMap<String, PhaseStat> = BTreeMap::new();
        for span in self.spans.values() {
            if let Some(d) = span.duration_us() {
                let stat = out.entry(span.name.clone()).or_default();
                stat.count += 1;
                stat.total_us += d;
            }
        }
        out
    }

    fn render_span(&self, out: &mut String, id: u64, depth: usize, lines: &mut usize) {
        const MAX_LINES: usize = 200;
        let Some(span) = self.spans.get(&id) else {
            return;
        };
        if *lines >= MAX_LINES {
            return;
        }
        *lines += 1;
        let indent = "  ".repeat(depth);
        let timing = match span.end_us {
            Some(end) => format!(
                "{:.3}s +{:.3}s",
                span.start_us as f64 / 1e6,
                (end.saturating_sub(span.start_us)) as f64 / 1e6
            ),
            None => format!("{:.3}s (unsettled)", span.start_us as f64 / 1e6),
        };
        let mut annot = String::new();
        for key in [
            "component",
            "dest",
            "outcome",
            "phase",
            "mode",
            "action",
            "host",
        ] {
            if let Some(v) = span.fields.get(key) {
                let _ = write!(annot, " {key}={v}");
            }
        }
        let _ = writeln!(out, "    {indent}{} [{timing}]{annot}", span.name);
        if *lines == MAX_LINES {
            let _ = writeln!(out, "    {indent}  … (tree truncated)");
            return;
        }
        for child in &span.children {
            self.render_span(out, *child, depth + 1, lines);
        }
    }

    /// Indented tree rendering of the whole trace (capped to stay readable).
    fn render(&self) -> String {
        let mut out = String::new();
        let mut lines = 0usize;
        for root in &self.roots {
            self.render_span(&mut out, *root, 0, &mut lines);
        }
        out
    }
}

/// Every trace in a journal, plus the record counts outside any trace.
#[derive(Clone, Debug, Default)]
pub struct TraceForest {
    /// Traces by trace ID.
    pub traces: BTreeMap<u64, TraceTree>,
    /// Records carrying a trace context.
    pub traced_records: usize,
    /// Records without one (data-plane and legacy events).
    pub untraced_records: usize,
}

impl TraceForest {
    /// Reconstructs span trees from journal records. Records sharing a
    /// `(trace_id, span_id)` pair merge into one span (earliest start,
    /// latest end); the settling record — the one carrying `end_us` —
    /// names the span.
    pub fn build(events: &[Event]) -> TraceForest {
        let mut forest = TraceForest::default();
        for event in events {
            let Some(ctx) = ctx_of(event) else {
                forest.untraced_records += 1;
                continue;
            };
            forest.traced_records += 1;
            let tree = forest
                .traces
                .entry(ctx.trace_id)
                .or_insert_with(|| TraceTree {
                    trace_id: ctx.trace_id,
                    spans: BTreeMap::new(),
                    roots: Vec::new(),
                });
            let span = tree.spans.entry(ctx.span_id).or_insert_with(|| Span {
                trace_id: ctx.trace_id,
                span_id: ctx.span_id,
                parent_id: ctx.parent_id,
                name: event.name.clone().into_owned(),
                start_us: event.t_us,
                end_us: None,
                record_names: Vec::new(),
                fields: BTreeMap::new(),
                children: Vec::new(),
                records: 0,
            });
            span.records += 1;
            span.start_us = span.start_us.min(event.t_us);
            if let Some(end) = event.end_us {
                if span.end_us.is_none_or(|e| end > e) {
                    span.end_us = Some(end);
                    // The settling record is authoritative for the name.
                    span.name = event.name.clone().into_owned();
                }
            }
            // A record that knows its parent wins over one that does not
            // (the open marker may arrive before or after the settle).
            if span.parent_id.is_none() {
                span.parent_id = ctx.parent_id;
            }
            let name = event.name.as_ref();
            if !span.record_names.iter().any(|n| n == name) {
                span.record_names.push(name.to_owned());
            }
            for (key, value) in &event.fields {
                let key = key.as_ref();
                if key == FIELD_TRACE_ID || key == FIELD_SPAN_ID || key == FIELD_PARENT_ID {
                    continue;
                }
                span.fields
                    .entry(key.to_owned())
                    .or_insert_with(|| field_display(value));
            }
        }
        for tree in forest.traces.values_mut() {
            let mut edges: Vec<(u64, u64, u64)> = Vec::new(); // (parent, start, child)
            let mut roots: Vec<(u64, u64)> = Vec::new();
            for span in tree.spans.values() {
                match span.parent_id {
                    Some(p) if tree.spans.contains_key(&p) => {
                        edges.push((p, span.start_us, span.span_id));
                    }
                    // Orphans render as roots; `check` still reports them.
                    _ => roots.push((span.start_us, span.span_id)),
                }
            }
            edges.sort_unstable();
            roots.sort_unstable();
            for (parent, _, child) in edges {
                let parent = tree.spans.get_mut(&parent).expect("edge keys exist");
                parent.children.push(child);
            }
            // Order children by (start, id) for stable rendering.
            let starts: BTreeMap<u64, u64> =
                tree.spans.iter().map(|(id, s)| (*id, s.start_us)).collect();
            for span in tree.spans.values_mut() {
                span.children
                    .sort_by_key(|id| (starts.get(id).copied().unwrap_or(0), *id));
            }
            tree.roots = roots.into_iter().map(|(_, id)| id).collect();
        }
        forest
    }

    /// Structural invariant violations: orphaned children, children that
    /// start before their parent, and open markers that never settled.
    pub fn check(&self) -> Vec<String> {
        let mut violations = Vec::new();
        for tree in self.traces.values() {
            for span in tree.spans.values() {
                if let Some(parent_id) = span.parent_id {
                    match tree.spans.get(&parent_id) {
                        None => violations.push(format!(
                            "trace {:#x}: span {:#x} ({}) references missing parent {:#x}",
                            tree.trace_id, span.span_id, span.name, parent_id
                        )),
                        Some(parent) if span.start_us < parent.start_us => {
                            violations.push(format!(
                                "trace {:#x}: span {:#x} ({}) starts at {}us before its \
                                 parent {:#x} ({}) at {}us",
                                tree.trace_id,
                                span.span_id,
                                span.name,
                                span.start_us,
                                parent_id,
                                parent.name,
                                parent.start_us
                            ))
                        }
                        Some(_) => {}
                    }
                }
                if span.has_open_marker() && span.end_us.is_none() {
                    violations.push(format!(
                        "trace {:#x}: span {:#x} ({}) opened at {}us but never settled",
                        tree.trace_id, span.span_id, span.name, span.start_us
                    ));
                }
            }
        }
        violations
    }

    /// Settled-span duration totals by name, across every trace.
    fn phase_totals(&self) -> BTreeMap<String, PhaseStat> {
        let mut out: BTreeMap<String, PhaseStat> = BTreeMap::new();
        for tree in self.traces.values() {
            for (name, stat) in tree.phase_breakdown() {
                let entry = out.entry(name).or_default();
                entry.count += stat.count;
                entry.total_us += stat.total_us;
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Journal-level checks and summaries
// ---------------------------------------------------------------------------

fn field_bool(event: &Event, key: &str) -> Option<bool> {
    event.fields.iter().find_map(|(k, v)| match v {
        FieldValue::Bool(b) if k.as_ref() == key => Some(*b),
        _ => None,
    })
}

fn field_u64(event: &Event, key: &str) -> Option<u64> {
    event.fields.iter().find_map(|(k, v)| match v {
        FieldValue::U64(u) if k.as_ref() == key => Some(*u),
        _ => None,
    })
}

/// Full invariant check over a journal: structural span-tree invariants
/// plus the cycle-level consistency rule — no `core.cycle` record may end
/// with the analyzer's model disagreeing with the actual deployment.
pub fn check_journal(events: &[Event]) -> Vec<String> {
    let forest = TraceForest::build(events);
    let mut violations = forest.check();
    for event in events {
        if event.name == "core.cycle" {
            if let Some(false) = field_bool(event, "model_matches_actual") {
                violations.push(format!(
                    "cycle at {}us ended with model != actual deployment",
                    event.t_us
                ));
            }
        }
    }
    violations
}

/// Windowed per-host availability from `net.host.state` transitions:
/// the up-fraction of each `window_us`-wide window from time 0 to the
/// last event. Hosts are assumed up until their first transition.
fn host_availability(events: &[Event], window_us: u64) -> BTreeMap<u64, Vec<f64>> {
    let window_us = window_us.max(1);
    let end = events
        .iter()
        .map(|e| e.end_us.unwrap_or(e.t_us))
        .max()
        .unwrap_or(0);
    let mut transitions: BTreeMap<u64, Vec<(u64, bool)>> = BTreeMap::new();
    for event in events {
        if event.name != "net.host.state" {
            continue;
        }
        let (Some(host), Some(up)) = (field_u64(event, "host"), field_bool(event, "up")) else {
            continue;
        };
        transitions.entry(host).or_default().push((event.t_us, up));
    }
    let windows = (end / window_us + 1) as usize;
    let mut out = BTreeMap::new();
    for (host, mut changes) in transitions {
        changes.sort_by_key(|&(t, _)| t);
        let mut per_window = vec![0u64; windows]; // up-time per window, us
        let mut cursor = 0u64;
        let mut up = true;
        let credit = |from: u64, to: u64, per_window: &mut Vec<u64>| {
            let mut t = from;
            while t < to {
                let idx = (t / window_us) as usize;
                let boundary = ((t / window_us) + 1) * window_us;
                let step = boundary.min(to) - t;
                if let Some(slot) = per_window.get_mut(idx) {
                    *slot += step;
                }
                t += step;
            }
        };
        for (t, next_up) in changes {
            let t = t.min(end);
            if up {
                credit(cursor, t, &mut per_window);
            }
            cursor = t;
            up = next_up;
        }
        if up {
            credit(cursor, end, &mut per_window);
        }
        let fractions = per_window
            .iter()
            .enumerate()
            .map(|(i, &us)| {
                let span = if i + 1 == windows {
                    (end - i as u64 * window_us).max(1)
                } else {
                    window_us
                };
                us as f64 / span as f64
            })
            .collect();
        out.insert(host, fractions);
    }
    out
}

fn fmt_secs(us: u64) -> String {
    format!("{:.3}s", us as f64 / 1e6)
}

/// Human-readable digest of one journal: record/trace counts, phase
/// latency totals, windowed host availability, the slowest trace's full
/// span tree and critical path, and the invariant verdict.
pub fn summarize(events: &[Event]) -> String {
    let forest = TraceForest::build(events);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "journal: {} records ({} traced, {} untraced), {} traces",
        events.len(),
        forest.traced_records,
        forest.untraced_records,
        forest.traces.len()
    );

    let phases = forest.phase_totals();
    if !phases.is_empty() {
        let _ = writeln!(out, "  phase totals (settled spans):");
        for (name, stat) in &phases {
            let mean = stat.total_us as f64 / stat.count.max(1) as f64 / 1e6;
            let _ = writeln!(
                out,
                "    {name:<36} {:>5} spans  total {:>9}  mean {mean:.3}s",
                stat.count,
                fmt_secs(stat.total_us)
            );
        }
    }

    let availability = host_availability(events, 1_000_000);
    if !availability.is_empty() {
        let _ = writeln!(out, "  availability (1s windows):");
        for (host, windows) in &availability {
            let mean = windows.iter().sum::<f64>() / windows.len().max(1) as f64;
            let min = windows.iter().copied().fold(f64::INFINITY, f64::min);
            let _ = writeln!(
                out,
                "    host {host:<4} mean {mean:.4}  min {min:.4}  over {} windows",
                windows.len()
            );
        }
    }

    // The slowest trace is where the run's time went; show its whole tree.
    let slowest = forest
        .traces
        .values()
        .max_by_key(|t| (t.end_us().saturating_sub(t.start_us()), t.trace_id));
    if let Some(tree) = slowest {
        let _ = writeln!(
            out,
            "  slowest trace {:#x} ({} spans, {}):",
            tree.trace_id,
            tree.spans.len(),
            fmt_secs(tree.end_us().saturating_sub(tree.start_us()))
        );
        out.push_str(&tree.render());
        let path = tree.critical_path();
        if path.len() > 1 {
            let chain = path
                .iter()
                .map(|s| s.name.as_str())
                .collect::<Vec<_>>()
                .join(" -> ");
            let _ = writeln!(out, "  critical path: {chain}");
        }
    }

    let violations = check_journal(events);
    if violations.is_empty() {
        let _ = writeln!(out, "  invariants: ok");
    } else {
        let _ = writeln!(out, "  invariants: {} violation(s)", violations.len());
        for v in &violations {
            let _ = writeln!(out, "    {v}");
        }
    }
    out
}

/// Line-by-line comparison of two JSONL journals — the tool to reach for
/// when a byte-identical-runs gate trips. Reports the first divergence
/// with surrounding context, or confirms the journals match.
pub fn diff_jsonl(a: &str, b: &str) -> String {
    let a_lines: Vec<&str> = a.lines().collect();
    let b_lines: Vec<&str> = b.lines().collect();
    let common = a_lines.len().min(b_lines.len());
    let divergence = (0..common).find(|&i| a_lines[i] != b_lines[i]);
    let mut out = String::new();
    match divergence {
        None if a_lines.len() == b_lines.len() => {
            let _ = writeln!(out, "journals are identical ({} lines)", a_lines.len());
        }
        None => {
            let _ = writeln!(
                out,
                "journals agree for {common} lines, then lengths diverge: {} vs {} lines",
                a_lines.len(),
                b_lines.len()
            );
            let longer = if a_lines.len() > b_lines.len() {
                &a_lines
            } else {
                &b_lines
            };
            for line in longer.iter().skip(common).take(3) {
                let _ = writeln!(out, "  extra: {line}");
            }
        }
        Some(i) => {
            let _ = writeln!(
                out,
                "journals diverge at line {} (of {} / {})",
                i + 1,
                a_lines.len(),
                b_lines.len()
            );
            for line in &a_lines[i.saturating_sub(2)..i] {
                let _ = writeln!(out, "    both: {line}");
            }
            let _ = writeln!(out, "  first:  {}", a_lines[i]);
            let _ = writeln!(out, "  second: {}", b_lines[i]);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Telemetry;

    #[test]
    fn span_ids_are_prefixed_and_monotonic() {
        let g = SpanIdGen::new(DOMAIN_DEPLOYER, 7);
        let a = g.next_id();
        let b = g.next_id();
        assert_eq!(a >> 56, DOMAIN_DEPLOYER as u64);
        assert_eq!((a >> 32) & 0xFF_FFFF, 7);
        assert_eq!(b, a + 1);
        // Distinct domains/nodes never collide.
        let other = SpanIdGen::new(DOMAIN_HOST, 7);
        assert_ne!(other.next_id(), a);
    }

    #[test]
    fn ctx_round_trips_through_builder_and_jsonl() {
        let tele = Telemetry::new(16);
        let gen = SpanIdGen::new(DOMAIN_FRAMEWORK, 0);
        let root = gen.root();
        let child = gen.child(&root);
        tele.span("core.cycle", 0, 100).trace(root).emit();
        tele.event("core.analyzer.decision", 10)
            .trace(child)
            .field("algorithm", "avala")
            .emit();
        let events = parse_jsonl(&tele.export_jsonl()).unwrap();
        assert_eq!(ctx_of(&events[0]), Some(root));
        assert_eq!(ctx_of(&events[1]), Some(child));
        let forest = TraceForest::build(&events);
        let tree = &forest.traces[&root.trace_id];
        assert_eq!(tree.roots, vec![root.span_id]);
        assert_eq!(tree.spans[&root.span_id].children, vec![child.span_id]);
        assert!(forest.check().is_empty());
    }

    #[test]
    fn open_and_settle_records_merge_into_one_span() {
        let tele = Telemetry::new(16);
        let gen = SpanIdGen::new(DOMAIN_DEPLOYER, 1);
        let root = gen.root();
        let mv = gen.child(&root);
        tele.span("core.cycle", 0, 900).trace(root).emit();
        tele.event("prism.migration.move.open", 100)
            .trace(mv)
            .field("component", "comp_1")
            .emit();
        tele.span("prism.migration.move", 100, 400)
            .trace(mv)
            .field("outcome", "confirmed")
            .emit();
        let events = parse_jsonl(&tele.export_jsonl()).unwrap();
        let forest = TraceForest::build(&events);
        let tree = &forest.traces[&root.trace_id];
        let span = &tree.spans[&mv.span_id];
        assert_eq!(span.records, 2);
        assert_eq!(span.name, "prism.migration.move");
        assert_eq!(span.end_us, Some(400));
        assert!(span.has_open_marker());
        assert!(forest.check().is_empty());
    }

    #[test]
    fn check_flags_orphans_unsettled_moves_and_model_drift() {
        let tele = Telemetry::new(16);
        let gen = SpanIdGen::new(DOMAIN_FRAMEWORK, 0);
        let root = gen.root();
        tele.span("core.cycle", 0, 500)
            .trace(root)
            .field("model_matches_actual", false)
            .emit();
        // Orphan: parent never journaled.
        let ghost = TraceCtx {
            trace_id: root.trace_id,
            span_id: gen.next_id(),
            parent_id: Some(0xDEAD),
        };
        tele.event("core.recovery", 50).trace(ghost).emit();
        // Unsettled move: open marker with no settle record.
        let mv = gen.child(&root);
        tele.event("core.move.open", 60).trace(mv).emit();
        let events = parse_jsonl(&tele.export_jsonl()).unwrap();
        let violations = check_journal(&events);
        assert_eq!(violations.len(), 3, "{violations:?}");
        assert!(violations.iter().any(|v| v.contains("missing parent")));
        assert!(violations.iter().any(|v| v.contains("never settled")));
        assert!(violations.iter().any(|v| v.contains("model != actual")));
    }

    #[test]
    fn critical_path_follows_latest_finishing_child() {
        let tele = Telemetry::new(16);
        let gen = SpanIdGen::new(DOMAIN_FRAMEWORK, 0);
        let root = gen.root();
        let fast = gen.child(&root);
        let slow = gen.child(&root);
        let leaf = gen.child(&slow);
        tele.span("cycle", 0, 1000).trace(root).emit();
        tele.span("fast", 10, 50).trace(fast).emit();
        tele.span("slow", 10, 900).trace(slow).emit();
        tele.span("leaf", 20, 880).trace(leaf).emit();
        let events = parse_jsonl(&tele.export_jsonl()).unwrap();
        let forest = TraceForest::build(&events);
        let path: Vec<&str> = forest.traces[&root.trace_id]
            .critical_path()
            .iter()
            .map(|s| s.name.as_str())
            .collect();
        assert_eq!(path, vec!["cycle", "slow", "leaf"]);
    }

    #[test]
    fn availability_windows_credit_downtime() {
        let tele = Telemetry::new(16);
        // Host 3 down from 1.5s to 2.5s; run ends at 4s.
        tele.event("net.host.state", 1_500_000)
            .field("host", 3u64)
            .field("up", false)
            .emit();
        tele.event("net.host.state", 2_500_000)
            .field("host", 3u64)
            .field("up", true)
            .emit();
        tele.event("run.end", 4_000_000).emit();
        let events = parse_jsonl(&tele.export_jsonl()).unwrap();
        let avail = host_availability(&events, 1_000_000);
        let windows = &avail[&3];
        assert_eq!(windows.len(), 5);
        assert!((windows[0] - 1.0).abs() < 1e-9);
        assert!((windows[1] - 0.5).abs() < 1e-9);
        assert!((windows[2] - 0.5).abs() < 1e-9);
        assert!((windows[3] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn diff_reports_first_divergence_and_identity() {
        let a = "{\"t\":1}\n{\"t\":2}\n{\"t\":3}\n";
        let b = "{\"t\":1}\n{\"t\":9}\n{\"t\":3}\n";
        let report = diff_jsonl(a, b);
        assert!(report.contains("diverge at line 2"), "{report}");
        assert!(diff_jsonl(a, a).contains("identical"));
        let c = "{\"t\":1}\n";
        assert!(diff_jsonl(a, c).contains("lengths diverge"));
    }

    #[test]
    fn summarize_renders_tree_and_verdict() {
        let tele = Telemetry::new(32);
        let gen = SpanIdGen::new(DOMAIN_FRAMEWORK, 0);
        let root = gen.root();
        let redep = gen.child(&root);
        tele.span("core.cycle", 0, 2_000_000)
            .trace(root)
            .field("model_matches_actual", true)
            .emit();
        tele.span("core.redeployment", 100_000, 1_500_000)
            .trace(redep)
            .emit();
        let events = parse_jsonl(&tele.export_jsonl()).unwrap();
        let text = summarize(&events);
        assert!(text.contains("core.cycle"), "{text}");
        assert!(text.contains("critical path"), "{text}");
        assert!(text.contains("invariants: ok"), "{text}");
    }
}
