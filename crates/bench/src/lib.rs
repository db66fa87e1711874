//! # redep-bench
//!
//! The experiment harness regenerating every table and figure of the DSN'04
//! evaluation (see `DESIGN.md` for the experiment index E1–E12 and
//! `EXPERIMENTS.md` for recorded results).
//!
//! Each experiment is a binary (`cargo run -p redep-bench --release --bin
//! exp_e3_scaling`) that prints the table/series the paper reports;
//! wall-clock-sensitive measurements additionally live in Criterion benches
//! (`cargo bench`).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use serde_json::Value;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Schema tag stamped into every JSON report so downstream tooling can
/// detect incompatible layouts.
pub const REPORT_SCHEMA: &str = "redep-bench/v1";

/// The acceptance bound of one gated metric.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Bound {
    /// The metric must be at least this value.
    AtLeast(f64),
    /// The metric must be at most this value.
    AtMost(f64),
}

impl Bound {
    /// Whether `value` satisfies the bound.
    pub fn holds(self, value: f64) -> bool {
        match self {
            Bound::AtLeast(x) => value >= x,
            Bound::AtMost(x) => value <= x,
        }
    }

    /// The bound's JSON key and limit.
    fn key_and_limit(self) -> (&'static str, f64) {
        match self {
            Bound::AtLeast(x) => ("at_least", x),
            Bound::AtMost(x) => ("at_most", x),
        }
    }
}

/// One experiment's machine-readable report: the shared `--json` schema for
/// every `exp_*` binary.
///
/// Binaries keep printing their human tables, record each acceptance bound
/// with [`ExpReport::gate`] beside the metric it bounds, and end with
/// [`ExpReport::finish`]. One schema across binaries means a results
/// dashboard — and `validate_report` — needs exactly one parser and one
/// check ([`ExpReport::violations`]):
///
/// ```json
/// {"schema":"redep-bench/v1","experiment":"e11","title":"...",
///  "passed":true,"metrics":{"mean_rel_error":0.02},
///  "gates":[{"metric":"mean_rel_error","at_most":0.15}],
///  "percentiles":{"cycle_ms":{"p50":12.0,"p90":31.0,"p99":44.0}},
///  "journal_dropped":0,"notes":["..."]}
/// ```
#[derive(Clone, PartialEq, Debug)]
pub struct ExpReport {
    /// Short experiment id, e.g. `"e11"`; names the output file.
    pub experiment: String,
    /// Human title of the experiment.
    pub title: String,
    /// Whether every gate held. [`ExpReport::gate`] keeps it so; a parsed
    /// report carries what its file says, which [`ExpReport::violations`]
    /// checks against the gates.
    pub passed: bool,
    /// Flat scalar results, keyed by metric name (sorted, so exports are
    /// deterministic).
    pub metrics: BTreeMap<String, f64>,
    /// The acceptance bounds, in the order they were gated: metric name and
    /// bound. A metric may carry several.
    pub gates: Vec<(String, Bound)>,
    /// Distribution summaries (p50/p90/p99 per sample name), for metrics
    /// where a single scalar hides the tail.
    pub percentiles: BTreeMap<String, [f64; 3]>,
    /// Telemetry events dropped because a journal overflowed its capacity
    /// during the run. A non-zero count means the journal (and anything
    /// derived from it — trace trees, invariant checks) is incomplete, so
    /// such a report is a violation.
    pub journal_dropped: u64,
    /// Free-form remarks (tolerances used, truncations applied, …).
    pub notes: Vec<String>,
}

impl ExpReport {
    /// Creates an empty, passing report.
    pub fn new(experiment: impl Into<String>, title: impl Into<String>) -> Self {
        ExpReport {
            experiment: experiment.into(),
            title: title.into(),
            passed: true,
            metrics: BTreeMap::new(),
            gates: Vec::new(),
            percentiles: BTreeMap::new(),
            journal_dropped: 0,
            notes: Vec::new(),
        }
    }

    /// Records one scalar metric (last write wins on duplicate names).
    pub fn metric(&mut self, name: impl Into<String>, value: f64) -> &mut Self {
        self.metrics.insert(name.into(), value);
        self
    }

    /// Records one metric together with its acceptance bound; a value
    /// outside the bound fails the report.
    pub fn gate(&mut self, name: impl Into<String>, value: f64, bound: Bound) -> &mut Self {
        let name = name.into();
        self.passed &= bound.holds(value);
        self.metrics.insert(name.clone(), value);
        self.gates.push((name, bound));
        self
    }

    /// Records a p50/p90/p99 summary of `samples` under `name` (nearest-rank,
    /// matching `Telemetry::summary`). A no-op on an empty sample.
    pub fn percentiles_of(&mut self, name: impl Into<String>, samples: &[f64]) -> &mut Self {
        if let Some(p) = redep_telemetry::percentiles(samples) {
            self.percentiles.insert(name.into(), p);
        }
        self
    }

    /// Accumulates the dropped-event count of a run's journal. Call once per
    /// run/cell with `telemetry.journal().dropped()`.
    pub fn add_journal_dropped(&mut self, dropped: u64) -> &mut Self {
        self.journal_dropped += dropped;
        self
    }

    /// Appends a free-form note.
    pub fn note(&mut self, note: impl Into<String>) -> &mut Self {
        self.notes.push(note.into());
        self
    }

    /// Everything wrong with the report, whichever experiment wrote it: an
    /// overflowed journal, a gate on a missing metric, a metric outside its
    /// gate, and a `passed` verdict that disagrees with the gates. Empty
    /// for a valid report.
    pub fn violations(&self) -> Vec<String> {
        let mut out = Vec::new();
        if self.journal_dropped > 0 {
            out.push(format!(
                "{} telemetry events dropped: the journal overflowed",
                self.journal_dropped
            ));
        }
        let mut gates_hold = true;
        for (name, bound) in &self.gates {
            let (key, limit) = bound.key_and_limit();
            match self.metrics.get(name) {
                Some(&value) if bound.holds(value) => continue,
                Some(value) => out.push(format!("{name} = {value} fails {key} {limit}")),
                None => out.push(format!("gate {key} {limit} names missing metric {name}")),
            }
            gates_hold = false;
        }
        if self.passed != gates_hold {
            out.push(format!("passed: {} disagrees with the gates", self.passed));
        }
        out
    }

    /// Ends an experiment: writes `BENCH_<experiment>.json` into the current
    /// directory when the process was invoked with `--json`, prints every
    /// violation, and returns an error if there was one — so `main` fails
    /// exactly when `validate_report` would reject the report.
    ///
    /// # Errors
    ///
    /// The file's I/O error, or a summary of the violations.
    pub fn finish(&self) -> Result<(), Box<dyn std::error::Error>> {
        if std::env::args().any(|a| a == "--json") {
            let json = serde_json::to_string_pretty(&self.to_json())?;
            std::fs::write(self.file_name(), json + "\n")?;
            println!("\nwrote {}", self.file_name());
        }
        let violations = self.violations();
        for violation in &violations {
            eprintln!("{} FAILED: {violation}", self.experiment);
        }
        if !violations.is_empty() {
            return Err(format!(
                "{} FAILED ({} violations)",
                self.experiment,
                violations.len()
            )
            .into());
        }
        let gates = self.gates.len();
        println!(
            "\n{} PASS: every gate holds ({gates} gated).",
            self.experiment
        );
        Ok(())
    }

    /// Renders the report as a JSON value with deterministic (sorted) keys.
    pub fn to_json(&self) -> Value {
        let number = |x: f64| Value::Number(serde_json::Number::F(x));
        let mut obj = BTreeMap::new();
        obj.insert("schema".to_owned(), Value::String(REPORT_SCHEMA.to_owned()));
        obj.insert(
            "experiment".to_owned(),
            Value::String(self.experiment.clone()),
        );
        obj.insert("title".to_owned(), Value::String(self.title.clone()));
        obj.insert("passed".to_owned(), Value::Bool(self.passed));
        let metrics = (self.metrics.iter()).map(|(k, &v)| (k.clone(), number(v)));
        obj.insert("metrics".to_owned(), Value::Object(metrics.collect()));
        let gates = self.gates.iter().map(|(name, bound)| {
            let (key, limit) = bound.key_and_limit();
            let mut gate = BTreeMap::new();
            gate.insert("metric".to_owned(), Value::String(name.clone()));
            gate.insert(key.to_owned(), number(limit));
            Value::Object(gate)
        });
        obj.insert("gates".to_owned(), Value::Array(gates.collect()));
        let percentiles = self.percentiles.iter().map(|(k, &[p50, p90, p99])| {
            let q = [("p50", p50), ("p90", p90), ("p99", p99)];
            let q = q.into_iter().map(|(p, v)| (p.to_owned(), number(v)));
            (k.clone(), Value::Object(q.collect()))
        });
        obj.insert(
            "percentiles".to_owned(),
            Value::Object(percentiles.collect()),
        );
        obj.insert(
            "journal_dropped".to_owned(),
            Value::Number(serde_json::Number::U(self.journal_dropped)),
        );
        obj.insert(
            "notes".to_owned(),
            Value::Array(self.notes.iter().cloned().map(Value::String).collect()),
        );
        Value::Object(obj)
    }

    /// Parses a report back from its JSON form.
    ///
    /// # Errors
    ///
    /// Returns an error when the value is not an object, carries a different
    /// `schema` tag, or misses a required key.
    pub fn from_json(value: &Value) -> Result<Self, serde::Error> {
        let obj = value
            .as_object()
            .ok_or_else(|| serde::Error::custom("report must be an object"))?;
        let schema = field(obj, "schema", Value::as_str)?;
        if schema != REPORT_SCHEMA {
            return Err(serde::Error::custom(format!(
                "unsupported schema {schema:?} (expected {REPORT_SCHEMA:?})"
            )));
        }
        let metrics = field(obj, "metrics", Value::as_object)?;
        let metrics = (metrics.keys())
            .map(|k| Ok((k.clone(), field(metrics, k, Value::as_f64)?)))
            .collect::<Result<_, serde::Error>>()?;
        let gates = (field(obj, "gates", Value::as_array)?.iter())
            .map(|gate| {
                let gate = gate
                    .as_object()
                    .ok_or_else(|| serde::Error::custom("a gate is not an object"))?;
                let name = field(gate, "metric", Value::as_str)?.to_owned();
                let bound = match (gate.contains_key("at_least"), gate.contains_key("at_most")) {
                    (true, false) => Bound::AtLeast(field(gate, "at_least", Value::as_f64)?),
                    (false, true) => Bound::AtMost(field(gate, "at_most", Value::as_f64)?),
                    _ => {
                        let error = format!("the gate on {name} needs exactly one bound");
                        return Err(serde::Error::custom(error));
                    }
                };
                Ok((name, bound))
            })
            .collect::<Result<_, serde::Error>>()?;
        let percentiles = field(obj, "percentiles", Value::as_object)?;
        let percentiles = (percentiles.keys())
            .map(|name| {
                let q = field(percentiles, name, Value::as_object)?;
                let p = |key| field(q, key, Value::as_f64);
                Ok((name.clone(), [p("p50")?, p("p90")?, p("p99")?]))
            })
            .collect::<Result<_, serde::Error>>()?;
        let notes = (field(obj, "notes", Value::as_array)?.iter())
            .map(|n| n.as_str().map(str::to_owned))
            .collect::<Option<_>>()
            .ok_or_else(|| serde::Error::custom("a note is not a string"))?;
        Ok(ExpReport {
            experiment: field(obj, "experiment", Value::as_str)?.to_owned(),
            title: field(obj, "title", Value::as_str)?.to_owned(),
            passed: field(obj, "passed", Value::as_bool)?,
            metrics,
            gates,
            percentiles,
            journal_dropped: field(obj, "journal_dropped", Value::as_u64)?,
            notes,
        })
    }

    /// The file the report lands in: `BENCH_<experiment>.json`.
    pub fn file_name(&self) -> String {
        format!("BENCH_{}.json", self.experiment)
    }
}

/// `obj[key]` read through `cast`, or an error naming the key.
fn field<'a, T>(
    obj: &'a BTreeMap<String, Value>,
    key: &str,
    cast: impl FnOnce(&'a Value) -> Option<T>,
) -> Result<T, serde::Error> {
    let value = (obj.get(key)).ok_or_else(|| serde::Error::custom(format!("missing key {key}")))?;
    cast(value).ok_or_else(|| serde::Error::custom(format!("{key} has the wrong type")))
}

/// Prints a titled ASCII table: experiment binaries share one look.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("{}", render_table(title, headers, rows));
}

/// Renders a titled ASCII table to a string.
pub fn render_table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let _ = writeln!(out, "\n## {title}");
    let mut line = String::new();
    for (h, w) in headers.iter().zip(&widths) {
        let _ = write!(line, "{h:>w$}  ", w = w);
    }
    let _ = writeln!(out, "{}", line.trim_end());
    let _ = writeln!(out, "{}", "-".repeat(line.trim_end().len()));
    for row in rows {
        let mut line = String::new();
        for (cell, w) in row.iter().zip(&widths) {
            let _ = write!(line, "{cell:>w$}  ", w = w);
        }
        let _ = writeln!(out, "{}", line.trim_end());
    }
    out
}

/// Arithmetic mean of a sample.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Sample standard deviation.
pub fn std_dev(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let m = mean(values);
    (values.iter().map(|v| (v - m).powi(2)).sum::<f64>() / (values.len() - 1) as f64).sqrt()
}

/// Formats a float compactly for table cells.
pub fn fmt_f(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        format!("{v:.3}")
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let t = render_table(
            "demo",
            &["a", "long-header"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
        assert!(t.contains("## demo"));
        assert!(t.contains("long-header"));
        assert!(t.lines().count() >= 5);
    }

    #[test]
    fn stats_helpers() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert!(std_dev(&[1.0, 1.0, 1.0]) < 1e-12);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(std_dev(&[5.0]), 0.0);
    }

    #[test]
    fn report_round_trips_through_json() {
        let mut report = ExpReport::new("e11", "monitor accuracy");
        report
            .metric("mean_rel_error", 0.021)
            .gate("mean_freq_error", 0.104, Bound::AtMost(0.25))
            .gate("mean_freq_error", 0.104, Bound::AtLeast(0.0))
            .gate("hosts_reporting", 4.0, Bound::AtLeast(4.0))
            .percentiles_of("cycle_ms", &[10.0, 20.0, 30.0, 40.0])
            .add_journal_dropped(3)
            .note("frequency table truncated to 15 rows");
        let text = serde_json::to_string_pretty(&report.to_json()).unwrap();
        let back = ExpReport::from_json(&serde_json::from_str(&text).unwrap()).unwrap();
        assert_eq!(back, report);
        assert!(text.contains(REPORT_SCHEMA));
        assert!(text.contains("\"at_most\": 0.25"), "{text}");
        assert_eq!(back.gates.len(), 3);
        assert_eq!(
            back.gates[2],
            ("hosts_reporting".into(), Bound::AtLeast(4.0))
        );
        assert_eq!(back.metrics["mean_freq_error"], 0.104);
        assert!(back.passed);
        assert_eq!(back.percentiles["cycle_ms"], [20.0, 40.0, 40.0]);
        assert_eq!(back.journal_dropped, 3);
        assert_eq!(report.file_name(), "BENCH_e11.json");
    }

    /// A report with one passing and one failing gate, as JSON.
    fn failing_report() -> Value {
        let mut report = ExpReport::new("e3", "speed-up");
        report.gate("dense_speedup", 7.1, Bound::AtLeast(5.0)).gate(
            "opaque_secs",
            0.5,
            Bound::AtMost(0.1),
        );
        report.to_json()
    }

    fn edited(edit: impl FnOnce(&mut BTreeMap<String, Value>)) -> ExpReport {
        let Value::Object(mut obj) = failing_report() else {
            panic!("reports serialize to objects")
        };
        edit(&mut obj);
        ExpReport::from_json(&Value::Object(obj)).unwrap()
    }

    #[test]
    fn a_failing_gate_fails_the_report_and_finish() {
        let mut report = ExpReport::new("e3", "speed-up");
        report.gate("dense_speedup", 7.1, Bound::AtLeast(5.0));
        assert!(report.passed && report.violations().is_empty());
        assert!(report.finish().is_ok());
        // The dense speed-up below its bound: the verdict and the exit
        // status both follow the gate.
        report.gate("genetic_speedup", 4.2, Bound::AtLeast(5.0));
        assert!(!report.passed);
        assert_eq!(
            report.violations(),
            ["genetic_speedup = 4.2 fails at_least 5"]
        );
        assert!(report.finish().is_err());
        // An honest failing report is consistent: only the gate is flagged.
        let back = ExpReport::from_json(&failing_report()).unwrap();
        assert!(!back.passed);
        assert_eq!(back.violations(), ["opaque_secs = 0.5 fails at_most 0.1"]);
    }

    #[test]
    fn violations_reject_a_metric_outside_its_recorded_bound() {
        let report = edited(|obj| {
            let Some(Value::Object(metrics)) = obj.get_mut("metrics") else {
                panic!("metrics is an object")
            };
            metrics.insert(
                "dense_speedup".into(),
                Value::Number(serde_json::Number::F(4.9)),
            );
        });
        let violations = report.violations();
        assert!(violations.contains(&"dense_speedup = 4.9 fails at_least 5".to_owned()));
    }

    #[test]
    fn violations_reject_passed_beside_a_failing_gate() {
        let report = edited(|obj| {
            obj.insert("passed".into(), Value::Bool(true));
        });
        assert_eq!(
            report.violations(),
            [
                "opaque_secs = 0.5 fails at_most 0.1",
                "passed: true disagrees with the gates"
            ]
        );
    }

    #[test]
    fn violations_reject_a_gate_on_a_missing_metric() {
        let report = edited(|obj| {
            let Some(Value::Object(metrics)) = obj.get_mut("metrics") else {
                panic!("metrics is an object")
            };
            metrics.remove("dense_speedup");
        });
        let violations = report.violations();
        assert!(
            violations.contains(&"gate at_least 5 names missing metric dense_speedup".to_owned())
        );
    }

    #[test]
    fn violations_reject_an_overflowed_journal() {
        let mut report = ExpReport::new("e1", "t");
        report.add_journal_dropped(2);
        assert!(report.passed);
        assert_eq!(
            report.violations(),
            ["2 telemetry events dropped: the journal overflowed"]
        );
    }

    #[test]
    fn reports_without_gates_do_not_parse() {
        let Value::Object(mut obj) = failing_report() else {
            panic!("reports serialize to objects")
        };
        obj.remove("gates");
        let err = ExpReport::from_json(&Value::Object(obj)).unwrap_err();
        assert!(err.to_string().contains("missing key gates"), "{err}");
    }

    #[test]
    fn report_rejects_foreign_schemas() {
        let mut report = ExpReport::new("e1", "t");
        report.metric("x", 1.0);
        let Value::Object(mut obj) = report.to_json() else {
            panic!("reports serialize to objects")
        };
        obj.insert("schema".into(), Value::String("other/v9".into()));
        let err = ExpReport::from_json(&Value::Object(obj)).unwrap_err();
        assert!(err.to_string().contains("unsupported schema"), "{err}");
    }

    #[test]
    fn report_json_keys_are_sorted_and_deterministic() {
        let mut report = ExpReport::new("e5", "overhead");
        report
            .metric("z_overhead_pct", 3.0)
            .metric("a_throughput", 1e6);
        let a = serde_json::to_string(&report.to_json()).unwrap();
        let b = serde_json::to_string(&report.to_json()).unwrap();
        assert_eq!(a, b);
        let experiment = a.find("\"experiment\"").unwrap();
        let metrics = a.find("\"metrics\"").unwrap();
        let schema = a.find("\"schema\"").unwrap();
        assert!(experiment < metrics && metrics < schema, "{a}");
    }

    #[test]
    fn float_formatting() {
        assert_eq!(fmt_f(0.0), "0");
        assert_eq!(fmt_f(1234.6), "1235");
        assert_eq!(fmt_f(4.5678), "4.568");
        assert_eq!(fmt_f(0.12345), "0.1235");
    }
}
