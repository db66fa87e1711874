//! The metric catalogue (names and units, mirrored by `BENCHMARK.json`), the
//! simulated-statistics digest, and the result a run prints.

use serde_json::{json, Value};
use std::collections::BTreeMap;

/// One end-to-end metric of the catalogue.
#[derive(Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
    /// A simulated statistic: the same seed must reproduce it exactly.
    pub exact: bool,
    /// How a run's outcome yields the metric.
    pub value: fn(&Outcome) -> f64,
}

/// End-to-end metrics, reported by every workload with `--trace 0`.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
        exact: false,
        value: |outcome| crate::stats::median(&outcome.setup_s),
    },
    EndToEnd {
        name: "work_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
        exact: false,
        value: Outcome::work_per_s,
    },
    EndToEnd {
        name: "availability",
        unit: "ratio",
        better: "higher",
        bound: 0.25,
        exact: true,
        value: |outcome| crate::stats::mean(&outcome.availability),
    },
];

/// Per-layer metrics, reported by every workload with `--trace 1`. A metric
/// a workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    // netsim: counts
    ("netsim.sim_events", "count"),
    ("netsim.sent", "count"),
    ("netsim.delivered", "count"),
    ("netsim.dropped_loss", "count"),
    ("netsim.dropped_disconnected", "count"),
    ("netsim.in_flight_end", "count"),
    ("netsim.sim_events_per_app_event", "ratio"),
    // netsim: times and isolated costs
    ("netsim.run_s", "s"),
    ("netsim.chunk_ms.p50", "ms"),
    ("netsim.chunk_ms.tail", "ms"),
    ("netsim.wall_us_per_sim_event", "us"),
    ("netsim.wall_s_per_sim_s", "s"),
    ("netsim.window_drift", "ratio"),
    ("netsim.calendar.push_pop_ns", "ns"),
    ("netsim.bare_event_ns", "ns"),
    ("netsim.share", "ratio"),
    // prism: counts
    ("prism.events_routed", "count"),
    ("prism.codec_bytes", "count"),
    ("prism.codec_bytes_per_event", "ratio"),
    ("prism.app_emitted", "count"),
    ("prism.app_received", "count"),
    ("prism.control_sent", "count"),
    ("prism.retransmissions", "count"),
    ("prism.retransmit_ratio", "ratio"),
    ("prism.events_buffered", "count"),
    ("prism.events_replayed", "count"),
    ("prism.events_undeliverable", "count"),
    ("prism.frames_forwarded", "count"),
    ("prism.frames_unroutable", "count"),
    ("prism.durable_records", "count"),
    ("prism.durable_bytes", "count"),
    ("prism.durable_records_per_event", "ratio"),
    ("prism.durable_checkpoints", "count"),
    ("prism.durable_replayed", "count"),
    ("prism.recoveries", "count"),
    ("prism.recovery_verdicts", "count"),
    // prism: isolated costs and estimated shares
    ("prism.codec.encode_ns", "ns"),
    ("prism.codec.decode_ns", "ns"),
    ("prism.architecture.route_ns", "ns"),
    ("prism.durable.append_ns", "ns"),
    ("prism.durable.checkpoint_ms", "ms"),
    ("prism.durable.recover_ms", "ms"),
    ("prism.codec.share", "ratio"),
    ("prism.architecture.share", "ratio"),
    ("prism.durable.share", "ratio"),
    ("prism.unattributed_share", "ratio"),
    // model
    ("model.generate_s", "s"),
    ("model.compile_s", "s"),
    ("model.hierarchy_build_s", "s"),
    ("model.eval.peek_ns", "ns"),
    ("model.eval.set_ns", "ns"),
    ("model.eval.score_full_us", "us"),
    // algorithms
    ("algorithms.evals_full", "count"),
    ("algorithms.evals_delta", "count"),
    ("algorithms.evals_pruned", "count"),
    ("algorithms.pruned_share", "ratio"),
    ("algorithms.hierarchy_clusters", "count"),
    ("algorithms.refine_rounds", "count"),
    ("algorithms.avala-h.run_ms.p50", "ms"),
    ("algorithms.avala-h.run_ms.max", "ms"),
    ("algorithms.avala-h.scale_ms", "ms"),
    ("algorithms.avala-h.scorings_per_s", "1/s"),
    ("algorithms.stochastic-h.run_ms.p50", "ms"),
    ("algorithms.stochastic-h.run_ms.max", "ms"),
    ("algorithms.stochastic-h.scale_ms", "ms"),
    ("algorithms.stochastic-h.scorings_per_s", "1/s"),
    ("algorithms.annealing-h.run_ms.p50", "ms"),
    ("algorithms.annealing-h.run_ms.max", "ms"),
    ("algorithms.annealing-h.scale_ms", "ms"),
    ("algorithms.annealing-h.scorings_per_s", "1/s"),
    ("algorithms.decap-h.run_ms.p50", "ms"),
    ("algorithms.decap-h.run_ms.max", "ms"),
    ("algorithms.decap-h.scale_ms", "ms"),
    ("algorithms.decap-h.scorings_per_s", "1/s"),
    ("algorithms.place_s", "s"),
    ("algorithms.place_scale_s", "s"),
    ("algorithms.solve_s", "s"),
    ("algorithms.solve_share", "ratio"),
    // desi
    ("desi.pull_s", "s"),
    ("desi.push_s", "s"),
    // core: counts
    ("core.cycles", "count"),
    ("core.cycles_redeployed", "count"),
    ("core.cycles_reconciled", "count"),
    ("core.moves_requested", "count"),
    ("core.moves_failed", "count"),
    ("core.moves_unfinished", "count"),
    ("core.settle_sim_s", "s"),
    ("core.recovery_sim_s", "s"),
    // core: times
    ("core.build_s", "s"),
    ("core.cycle_s", "s"),
    ("core.cycle_s.max", "s"),
    ("core.monitor_s", "s"),
    ("core.analyze_s", "s"),
    ("core.settle_s", "s"),
    ("core.reconcile_s", "s"),
    ("core.cycle_unattributed_share", "ratio"),
    ("core.decentralized.cycle_s", "s"),
    ("core.composed_equiv", "ratio"),
    // telemetry
    ("telemetry.journal_records", "count"),
    ("telemetry.journal_dropped", "count"),
    ("telemetry.counter_ns", "ns"),
    ("telemetry.event_disabled_ns", "ns"),
    ("telemetry.event_enabled_ns", "ns"),
    ("telemetry.share", "ratio"),
    // the harness itself
    ("bench.timed_wall_s", "s"),
    ("bench.spans", "count"),
    ("bench.peak_rss_mb", "MB"),
];

/// FNV-1a over every exact simulated statistic of a run: a change meant only
/// to make the program faster must leave it identical.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds raw bytes in.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds a count in.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Folds a float in, bit for bit.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// The digest value.
    pub fn value(&self) -> u64 {
        self.0
    }
}

/// Values of the per-layer metrics a workload filled in, by catalogue name.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Sets a metric.
    ///
    /// # Panics
    ///
    /// Panics on a name missing from [`PER_LAYER`] — a bug in the harness.
    pub fn set(&mut self, name: &str, value: f64) {
        let (key, _) = PER_LAYER
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("per-layer metric '{name}' is not in the catalogue"));
        self.0.insert(key, value);
    }

    /// Adds to a metric (unset reads 0).
    pub fn add(&mut self, name: &str, value: f64) {
        self.set(name, self.get(name) + value);
    }

    /// Reads a metric (unset reads 0).
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// `a / b`, or 0 when `b` is 0 (a ratio nothing contributed to).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Everything one run of one workload produced.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Outcome {
    /// Wall time of each set-up (one per repetition), seconds.
    pub setup_s: Vec<f64>,
    /// The steps of the timed scripts, over all repetitions: units of work
    /// completed (see README: routed events or component placements) and
    /// the wall seconds that took.
    pub steps: Vec<(f64, f64)>,
    /// Wall seconds of timed work that is not a step of the rate.
    pub unrated_wall_s: f64,
    /// Availability of each repetition.
    pub availability: Vec<f64>,
    /// Operations attempted in the timed scripts.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Failed correctness checks; empty means the run is correct.
    pub problems: Vec<String>,
    /// Digest of the exact simulated statistics.
    pub digest: Digest,
    /// Per-layer metrics (filled by the traced run).
    pub layers: Layers,
    /// Human-readable lines printed above the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records one step of a timed script.
    pub fn step(&mut self, work: f64, wall_s: f64) {
        self.steps.push((work, wall_s));
    }

    /// Wall time of the timed scripts: every step, plus what no step covers.
    pub fn timed_wall_s(&self) -> f64 {
        self.steps.iter().map(|(_, wall_s)| wall_s).sum::<f64>() + self.unrated_wall_s
    }

    /// The end-to-end rate: the *median over steps* of work per wall
    /// second. A step a noisy neighbour stalled moves the median little,
    /// where it would move total work ÷ total time a lot.
    pub fn work_per_s(&self) -> f64 {
        let rates: Vec<f64> = self
            .steps
            .iter()
            .map(|&(work, wall_s)| ratio(work, wall_s))
            .collect();
        crate::stats::median(&rates)
    }

    /// Records a failed correctness check.
    pub fn problem(&mut self, what: impl Into<String>) {
        self.problems.push(what.into());
    }

    /// Checks a condition, recording `what` when it does not hold.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }
}

/// The last line of standard output: exactly `correct`, `attempted`,
/// `failed` and `metrics`, the latter holding every catalogue metric of the
/// run's kind.
pub fn result_line(outcome: &Outcome, traced: bool) -> Value {
    let mut metrics = BTreeMap::new();
    let mut put = |name: &str, unit: &str, value: f64| {
        metrics.insert(name.to_owned(), json!({ "value": value, "unit": unit }));
    };
    if traced {
        for &(name, unit) in PER_LAYER {
            put(name, unit, outcome.layers.get(name));
        }
    } else {
        for m in END_TO_END {
            put(m.name, m.unit, (m.value)(outcome));
        }
    }
    json!({
        "correct": (outcome.problems.is_empty()),
        "attempted": (outcome.attempted.max(1)),
        "failed": (outcome.failed),
        "metrics": (Value::Object(metrics)),
    })
}

/// The metric values of a result line, by name.
pub fn metric_values(line: &Value) -> BTreeMap<String, f64> {
    let metrics = line
        .as_object()
        .and_then(|o| o.get("metrics"))
        .and_then(Value::as_object);
    metrics
        .into_iter()
        .flatten()
        .filter_map(|(name, metric)| {
            let value = metric.as_object()?.get("value")?.as_f64()?;
            Some((name.clone(), value))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_stable_and_order_sensitive() {
        let mut a = Digest::default();
        a.u64(1);
        a.f64(0.5);
        let mut b = Digest::default();
        b.u64(1);
        b.f64(0.5);
        assert_eq!(a, b);
        // Pinned: the digest of a fixed input must never change silently,
        // or recorded baselines stop being comparable.
        assert_eq!(a.value(), 0x38b5_30f1_4d8d_bc89);
        let mut c = Digest::default();
        c.f64(0.5);
        c.u64(1);
        assert_ne!(a, c);
    }

    #[test]
    fn catalogue_names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        let end_to_end = END_TO_END.iter().map(|m| (m.name, m.unit));
        for (name, unit) in end_to_end.chain(PER_LAYER.iter().copied()) {
            assert!(seen.insert(name), "duplicate metric {name}");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut outcome = Outcome {
            setup_s: vec![0.3, 0.1, 0.2],
            // One stalled step: the median rate ignores it.
            steps: vec![(50.0, 1.0), (50.0, 1.0), (50.0, 10.0)],
            availability: vec![0.5, 0.7],
            attempted: 10,
            ..Outcome::default()
        };
        outcome.layers.set("core.cycles", 4.0);
        let untraced = result_line(&outcome, false);
        let keys: Vec<&str> = untraced
            .as_object()
            .unwrap()
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let value_of = |line: &Value, name: &str| metric_values(line).get(name).copied();
        let count = |line: &Value| metric_values(line).len();
        assert_eq!(count(&untraced), END_TO_END.len());
        assert_eq!(value_of(&untraced, "setup_s"), Some(0.2));
        assert_eq!(value_of(&untraced, "work_per_s"), Some(50.0));
        assert_eq!(value_of(&untraced, "availability"), Some(0.6));
        let traced = result_line(&outcome, true);
        assert_eq!(count(&traced), PER_LAYER.len());
        assert_eq!(value_of(&traced, "core.cycles"), Some(4.0));
        assert_eq!(value_of(&traced, "core.moves_failed"), Some(0.0));
    }
}
