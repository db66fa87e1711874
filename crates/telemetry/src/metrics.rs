//! Lock-free metric instruments behind a named registry.
//!
//! Registration (name → instrument) takes a mutex; the instruments
//! themselves are `Arc`-shared atomics, so the hot path — `inc`, `add`,
//! `set`, `observe` — never locks. The orderings are relaxed: an instrument
//! publishes no other data.
//!
//! # Stripes
//!
//! The shards of the simulator count into one registry from several
//! threads, each through its lane of one handle ([`crate::Telemetry::lane`]).
//! So that they never write one cache line, a [`Counter`] and a
//! [`Histogram`] keep `STRIPES` copies of their cells, each copy on cache
//! lines of its own (histogram buckets included): an instrument taken from
//! the registry of lane `i` adds into stripe `i mod STRIPES`, and every
//! read — [`Counter::get`], a histogram's snapshot,
//! [`MetricsRegistry::render`] — sums the stripes. Counts are exact at any
//! lane. A histogram's sum is an `f64` per stripe, summed in stripe order
//! when read: exact for whole-number observations, so a histogram observed
//! from several shard threads takes only whole numbers (as
//! `prism.routing.latency_us` does, in microseconds). A [`Gauge`] is
//! last-write-wins and has one cell.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Copies of each counter's and histogram's cells: enough for every shard
/// thread of a run to count into its own.
const STRIPES: usize = 8;

/// Cells per [`Line`].
const CELLS: usize = 16;

/// 128 bytes of cells: two 64-byte cache lines, which x86-64's
/// adjacent-line prefetcher pairs, so two `Line`s never share a line.
#[repr(align(128))]
#[derive(Default)]
struct Line([AtomicU64; CELLS]);

/// `STRIPES` rows of `width` cells, each row on lines of its own.
#[derive(Clone)]
struct Striped {
    lines: Arc<[Line]>,
    /// Lines per row.
    row: usize,
}

impl Striped {
    fn new(width: usize) -> Self {
        let row = width.div_ceil(CELLS);
        Striped {
            lines: (0..STRIPES * row).map(|_| Line::default()).collect(),
            row,
        }
    }

    #[inline]
    fn cell(&self, stripe: usize, at: usize) -> &AtomicU64 {
        &self.lines[stripe * self.row + at / CELLS].0[at % CELLS]
    }

    /// Cell `at` summed over the stripes.
    fn total(&self, at: usize) -> u64 {
        let each = (0..STRIPES).map(|stripe| self.cell(stripe, at).load(Ordering::Relaxed));
        each.sum()
    }
}

/// A monotonically increasing `u64`.
#[derive(Clone)]
pub struct Counter {
    cells: Striped,
    stripe: usize,
}

impl Counter {
    fn new() -> Self {
        let cells = Striped::new(1);
        Counter { cells, stripe: 0 }
    }

    /// This counter, adding into `stripe`.
    fn on(&self, stripe: usize) -> Counter {
        Counter {
            stripe,
            ..self.clone()
        }
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        let cell = self.cells.cell(self.stripe, 0);
        cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value: every stripe's count.
    pub fn get(&self) -> u64 {
        self.cells.total(0)
    }
}

/// A last-write-wins `f64` (stored as bits in an atomic).
#[derive(Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Default for Gauge {
    fn default() -> Self {
        Gauge(Arc::new(AtomicU64::new(0f64.to_bits())))
    }
}

impl Gauge {
    /// Overwrites the value.
    #[inline]
    pub fn set(&self, value: f64) {
        self.0.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// A fixed-bucket histogram over `f64` observations.
///
/// Bucket bounds are upper-inclusive; one extra overflow bucket catches
/// everything above the last bound. Each stripe keeps its buckets and its
/// sum, an atomic `f64` (compare-and-swap loop); the count is the buckets'
/// total. See the [module docs](self) for when the sum is exact.
#[derive(Clone)]
pub struct Histogram {
    bounds: Arc<[f64]>,
    /// Per stripe: the buckets, then the sum's bits.
    cells: Striped,
    stripe: usize,
}

impl Histogram {
    fn new(bounds: &[f64]) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Histogram {
            bounds: bounds.into(),
            cells: Striped::new(bounds.len() + 2),
            stripe: 0,
        }
    }

    /// This histogram, observing into `stripe`.
    fn on(&self, stripe: usize) -> Histogram {
        Histogram {
            stripe,
            ..self.clone()
        }
    }

    /// Records one observation.
    #[inline]
    pub fn observe(&self, value: f64) {
        let overflow = self.bounds.len();
        let bucket = self.bounds.iter().position(|&b| value <= b);
        let count = self.cells.cell(self.stripe, bucket.unwrap_or(overflow));
        count.fetch_add(1, Ordering::Relaxed);
        let sum = self.cells.cell(self.stripe, overflow + 1);
        let add = |bits| Some((f64::from_bits(bits) + value).to_bits());
        let _ = sum.fetch_update(Ordering::Relaxed, Ordering::Relaxed, add);
    }

    /// A point-in-time copy of the histogram's state, the stripes summed.
    fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> = (0..=self.bounds.len())
            .map(|at| self.cells.total(at))
            .collect();
        let sum_at = self.bounds.len() + 1;
        let sums = (0..STRIPES).map(|stripe| self.cells.cell(stripe, sum_at));
        HistogramSnapshot {
            bounds: self.bounds.to_vec(),
            count: buckets.iter().sum(),
            buckets,
            sum: sums.fold(0.0, |sum, bits| {
                sum + f64::from_bits(bits.load(Ordering::Relaxed))
            }),
        }
    }
}

/// Frozen histogram state, as produced by [`Histogram::snapshot`].
#[derive(Clone, Debug, PartialEq)]
struct HistogramSnapshot {
    /// Upper-inclusive bucket bounds.
    bounds: Vec<f64>,
    /// Per-bucket counts; the final entry is the overflow bucket.
    buckets: Vec<u64>,
    /// Total observations.
    count: u64,
    /// Sum of observations.
    sum: f64,
}

impl HistogramSnapshot {
    /// Mean observation (0 when empty).
    fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Approximate quantile via linear interpolation over the buckets.
    fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target.max(1) {
                return match i.checked_sub(1).and_then(|p| self.bounds.get(p)) {
                    _ if i == self.bounds.len() => *self.bounds.last().unwrap_or(&0.0),
                    Some(&lower) => (lower + self.bounds[i]) / 2.0,
                    None => self.bounds.first().copied().unwrap_or(0.0),
                };
            }
        }
        *self.bounds.last().unwrap_or(&0.0)
    }
}

enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// Named home for every instrument. Lookup/registration locks briefly;
/// returned handles are lock-free clones.
#[derive(Clone, Default)]
pub struct MetricsRegistry {
    metrics: Arc<Mutex<BTreeMap<String, Metric>>>,
    /// The stripe the counters and histograms it hands out add into.
    stripe: usize,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// The same instruments, for lane `index`: they add into stripe
    /// `index mod STRIPES` (see the [module docs](self)).
    pub(crate) fn lane(&self, index: usize) -> MetricsRegistry {
        MetricsRegistry {
            metrics: self.metrics.clone(),
            stripe: index % STRIPES,
        }
    }

    /// The instruments by name, locked; a registration that panicked leaves
    /// a well-formed map, so a poisoned lock is taken as is.
    fn metrics(&self) -> MutexGuard<'_, BTreeMap<String, Metric>> {
        self.metrics.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The counter named `name`, creating it on first use.
    ///
    /// # Panics
    /// If `name` is already registered as a different instrument kind.
    pub fn counter(&self, name: &str) -> Counter {
        let mut metrics = self.metrics();
        match metrics
            .entry(name.to_owned())
            .or_insert_with(|| Metric::Counter(Counter::new()))
        {
            Metric::Counter(c) => c.on(self.stripe),
            _ => panic!("metric `{name}` is not a counter"),
        }
    }

    /// The gauge named `name`, creating it on first use.
    ///
    /// # Panics
    /// If `name` is already registered as a different instrument kind.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut metrics = self.metrics();
        match metrics
            .entry(name.to_owned())
            .or_insert_with(|| Metric::Gauge(Gauge::default()))
        {
            Metric::Gauge(g) => g.clone(),
            _ => panic!("metric `{name}` is not a gauge"),
        }
    }

    /// The histogram named `name` with the given upper-inclusive bucket
    /// bounds, creating it on first use (bounds are fixed at creation).
    ///
    /// # Panics
    /// If `name` is already registered as a different instrument kind.
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Histogram {
        let mut metrics = self.metrics();
        match metrics
            .entry(name.to_owned())
            .or_insert_with(|| Metric::Histogram(Histogram::new(bounds)))
        {
            Metric::Histogram(h) => h.on(self.stripe),
            _ => panic!("metric `{name}` is not a histogram"),
        }
    }

    /// Human-readable listing of every metric, sorted by name.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let metrics = self.metrics();
        let mut out = String::new();
        if metrics.is_empty() {
            return out;
        }
        let _ = writeln!(out, "  metrics:");
        for (name, metric) in metrics.iter() {
            match metric {
                Metric::Counter(c) => {
                    let _ = writeln!(out, "    {name:<40} {:>12}", c.get());
                }
                Metric::Gauge(g) => {
                    let _ = writeln!(out, "    {name:<40} {:>12.4}", g.get());
                }
                Metric::Histogram(h) => {
                    let snap = h.snapshot();
                    let _ = writeln!(
                        out,
                        "    {name:<40} count={} mean={:.2} p50={:.2} p90={:.2} p99={:.2}",
                        snap.count,
                        snap.mean(),
                        snap.quantile(0.50),
                        snap.quantile(0.90),
                        snap.quantile(0.99),
                    );
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_share_by_name() {
        let registry = MetricsRegistry::new();
        let a = registry.counter("x");
        let b = registry.counter("x");
        a.inc();
        b.add(4);
        assert_eq!(registry.counter("x").get(), 5);
        registry.gauge("g").set(2.5);
        assert_eq!(registry.gauge("g").get(), 2.5);
    }

    #[test]
    #[should_panic(expected = "not a counter")]
    fn kind_mismatch_panics() {
        let registry = MetricsRegistry::new();
        registry.gauge("x");
        registry.counter("x");
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let registry = MetricsRegistry::new();
        let h = registry.histogram("lat", &[1.0, 10.0, 100.0]);
        for v in [0.5, 0.7, 5.0, 50.0, 500.0] {
            h.observe(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 5);
        assert_eq!(snap.buckets, vec![2, 1, 1, 1]);
        assert!((snap.sum - 556.2).abs() < 1e-9);
        assert!(snap.mean() > 100.0);
        let p50 = snap.quantile(0.5);
        assert!(p50 <= 10.0, "p50 {p50}");
    }

    /// Adds `n` to `counter` and observes whole numbers into `histogram`.
    fn count(counter: &Counter, histogram: &Histogram, n: u64) {
        for i in 0..n {
            counter.add(i);
            histogram.observe((i % 700) as f64);
        }
    }

    /// Threads counting into lanes 0 and 1 of one handle, and into a lane
    /// past the last stripe, which shares stripe 1 with lane 1: every
    /// counter total, and the histogram's count, buckets and sum, equal one
    /// thread counting everything.
    #[test]
    fn striped_lanes_count_exactly() {
        let bounds = [1.0, 10.0, 100.0, 500.0];
        let tele = crate::Telemetry::new(16);
        let lanes = [0, 1, STRIPES + 1].map(|i| tele.lane(i));
        let start = std::sync::Barrier::new(lanes.len());
        std::thread::scope(|scope| {
            for (lane, n) in lanes.iter().zip([5_000, 7_000, 3_000]) {
                let start = &start;
                scope.spawn(move || {
                    let metrics = lane.metrics();
                    let (c, h) = (metrics.counter("c"), metrics.histogram("h", &bounds));
                    start.wait();
                    count(&c, &h, n);
                });
            }
        });
        assert_eq!(lanes[2].metrics().counter("c").stripe, 1);

        let one = MetricsRegistry::new();
        let (c, h) = (one.counter("c"), one.histogram("h", &bounds));
        for n in [5_000, 7_000, 3_000] {
            count(&c, &h, n);
        }
        let metrics = tele.metrics();
        assert_eq!(metrics.counter("c").get(), c.get());
        let striped = metrics.histogram("h", &bounds).snapshot();
        assert_eq!(striped, h.snapshot());
        assert_eq!(striped.count, 15_000);
        assert_eq!(metrics.render(), one.render());
    }
}
