//! In-memory span recorder for the traced run.
//!
//! The harness opens a span around every call it makes into a layer's public
//! API (name, start, end, parent, repetition). Spans stay in memory and are
//! written out once, after the measurement. A layer's *self time* is its
//! span's duration minus the part of that interval its child spans cover.
//! A disabled tracer records nothing, so the untraced run pays one branch.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, PartialEq, Debug)]
pub struct Span {
    /// `<layer>.<what>`; the layer is the part before the first dot.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    /// Which repetition of the workload script the span belongs to.
    pub rep: u32,
}

/// Handle returned by [`Tracer::enter`]; pass it back to [`Tracer::exit`].
#[derive(Clone, Copy, Debug)]
pub struct SpanId(Option<usize>);

/// Aggregate of every span sharing a name.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct SpanTotal {
    /// Number of spans.
    pub count: u64,
    /// Summed durations, seconds.
    pub total_s: f64,
    /// Summed self times, seconds.
    pub self_s: f64,
}

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    rep: u32,
}

impl Tracer {
    /// A tracer that records spans iff `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            rep: 0,
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Tags subsequently opened spans with a repetition index.
    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    /// Opens a span under the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let now = self.origin.elapsed().as_nanos() as u64;
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            rep: self.rep,
        });
        self.open.push(index);
        SpanId(Some(index))
    }

    /// Closes a span (and any span still open inside it).
    pub fn exit(&mut self, id: SpanId) {
        let Some(index) = id.0 else { return };
        let now = self.origin.elapsed().as_nanos() as u64;
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == index {
                break;
            }
        }
    }

    /// All recorded spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name totals with self times.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotal> {
        let self_ns = self_times(&self.spans);
        let mut out: BTreeMap<&'static str, SpanTotal> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self_ns) {
            let t = out.entry(span.name).or_default();
            t.count += 1;
            t.total_s += (span.end_ns - span.start_ns) as f64 * 1e-9;
            t.self_s += own as f64 * 1e-9;
        }
        out
    }

    /// Summed duration of the spans named `name`, seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .sum()
    }

    /// Writes one JSON object per span.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn write_jsonl(&self, path: &std::path::Path, workload: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"workload\":\"{workload}\",\"rep\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.rep, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: duration minus the union of its direct
/// children's intervals, each clipped to the parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let (a, b) = (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi));
            if b > a {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            rep: 0,
        }
    }

    #[test]
    fn self_time_subtracts_child_coverage_once() {
        let spans = vec![
            span("core.cycle", 0, 100, None),
            span("netsim.run", 10, 40, Some(0)),
            // Overlaps its sibling: the shared 30..40 counts once.
            span("desi.pull", 30, 60, Some(0)),
            // Grandchild: charged to its own parent only.
            span("prism.x", 12, 20, Some(1)),
            // Sticks out of the parent: clipped to 90..100.
            span("desi.push", 90, 130, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![40, 22, 30, 8, 40]);
    }

    #[test]
    fn tracer_nests_and_aggregates() {
        let mut t = Tracer::new(true);
        t.set_rep(2);
        let outer = t.enter("core.cycle");
        let inner = t.enter("netsim.run");
        t.exit(inner);
        let inner = t.enter("netsim.run");
        t.exit(inner);
        t.exit(outer);
        assert_eq!(t.spans().len(), 3);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[2].parent, Some(0));
        assert_eq!(t.spans()[0].rep, 2);
        let totals = t.totals();
        assert_eq!(totals["netsim.run"].count, 2);
        let cycle = totals["core.cycle"];
        assert!(cycle.self_s <= cycle.total_s);
        assert!((cycle.total_s - cycle.self_s - totals["netsim.run"].total_s).abs() < 1e-9);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.enter("core.cycle");
        t.exit(id);
        assert!(t.spans().is_empty());
        assert_eq!(t.total_s("core.cycle"), 0.0);
    }

    #[test]
    fn exit_closes_spans_left_open_inside() {
        let mut t = Tracer::new(true);
        let outer = t.enter("a.outer");
        let _leaked = t.enter("a.inner");
        t.exit(outer);
        assert!(t.spans().iter().all(|s| s.end_ns >= s.start_ns));
        let next = t.enter("a.next");
        t.exit(next);
        assert_eq!(t.spans()[2].parent, None);
    }
}
