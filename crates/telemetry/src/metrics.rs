//! Lock-free metric instruments behind a named registry.
//!
//! Registration (name → instrument) takes a mutex; the instruments
//! themselves are `Arc`-shared atomics, so the hot path — `inc`, `add`,
//! `set`, `observe` — never locks. In the single-threaded simulator the
//! relaxed orderings are exact; under concurrency they are the usual
//! monotonic-counter semantics.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// A monotonically increasing `u64`.
#[derive(Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
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
/// everything above the last bound. The sum is kept in an atomic `f64`
/// (compare-and-swap loop), which is exact in the single-threaded sim.
#[derive(Clone)]
pub struct Histogram {
    inner: Arc<HistogramInner>,
}

struct HistogramInner {
    bounds: Vec<f64>,
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum_bits: AtomicU64,
}

impl Histogram {
    fn new(bounds: &[f64]) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Histogram {
            inner: Arc::new(HistogramInner {
                bounds: bounds.to_vec(),
                buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
                count: AtomicU64::new(0),
                sum_bits: AtomicU64::new(0f64.to_bits()),
            }),
        }
    }

    /// Records one observation.
    #[inline]
    pub fn observe(&self, value: f64) {
        let inner = &*self.inner;
        let idx = inner
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(inner.bounds.len());
        inner.buckets[idx].fetch_add(1, Ordering::Relaxed);
        inner.count.fetch_add(1, Ordering::Relaxed);
        let mut current = inner.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(current) + value).to_bits();
            match inner.sum_bits.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => current = actual,
            }
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.inner.count.load(Ordering::Relaxed)
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.inner.sum_bits.load(Ordering::Relaxed))
    }

    /// Mean observation (0 when empty).
    pub fn mean(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            0.0
        } else {
            self.sum() / count as f64
        }
    }

    /// A point-in-time copy of the histogram's state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.inner.bounds.clone(),
            buckets: self
                .inner
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count(),
            sum: self.sum(),
        }
    }
}

/// Frozen histogram state, as produced by [`Histogram::snapshot`].
#[derive(Clone, Debug, PartialEq)]
pub struct HistogramSnapshot {
    /// Upper-inclusive bucket bounds.
    pub bounds: Vec<f64>,
    /// Per-bucket counts; the final entry is the overflow bucket.
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
}

impl HistogramSnapshot {
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
#[derive(Default)]
pub struct MetricsRegistry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
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
            .or_insert_with(|| Metric::Counter(Counter::default()))
        {
            Metric::Counter(c) => c.clone(),
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
            Metric::Histogram(h) => h.clone(),
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
                        h.mean(),
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
        assert!(h.mean() > 100.0);
        let p50 = snap.quantile(0.5);
        assert!(p50 <= 10.0, "p50 {p50}");
    }
}
