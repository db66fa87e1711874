//! The telemetry dashboard view: the run journal and algorithm convergence
//! traces, rendered as text alongside the Figure 9/10 views.
//!
//! Where [`TableView`](crate::TableView) shows *what the system is* and
//! [`GraphView`](crate::GraphView) *where everything runs*, the telemetry
//! view shows *what happened during the run*: journal shape, event counts,
//! metric values, and an ASCII convergence plot per recorded algorithm
//! result.

use crate::results::AlgoResultData;
use redep_telemetry::Telemetry;
use std::fmt::Write as _;

/// ASCII intensity ramp used for the convergence sparklines (low → high).
const RAMP: &[u8] = b" .:-=+*#%@";

/// Sparkline width, in characters.
const SPARK_WIDTH: usize = 48;

/// Renders a telemetry handle plus recorded algorithm results as a
/// text dashboard.
#[derive(Clone, Copy, Debug, Default)]
pub struct TelemetryView;

impl TelemetryView {
    /// Creates the view.
    pub fn new() -> Self {
        TelemetryView
    }

    /// Renders the journal/metrics digest and the convergence panel.
    pub fn render(&self, telemetry: &Telemetry, results: &AlgoResultData) -> String {
        let mut out = String::new();
        Self::rule(&mut out, "Telemetry");
        for line in telemetry.summary().lines() {
            let _ = writeln!(out, "{line}");
        }
        self.render_convergence(&mut out, results);
        out
    }

    fn rule(out: &mut String, title: &str) {
        let _ = writeln!(
            out,
            "\n=== {title} {}",
            "=".repeat(60usize.saturating_sub(title.len()))
        );
    }

    fn render_convergence(&self, out: &mut String, results: &AlgoResultData) {
        Self::rule(out, "Convergence");
        if results.is_empty() {
            let _ = writeln!(out, "(no algorithms run yet)");
            return;
        }
        for r in results.records() {
            let trace = &r.result.convergence;
            let _ = writeln!(
                out,
                "{:<12} {:<14} {} point{} -> final {:.4}",
                r.result.algorithm,
                r.objective,
                trace.len(),
                if trace.len() == 1 { "" } else { "s" },
                r.result.value,
            );
            if let Some(spark) = self.sparkline(trace) {
                let first = trace.first().expect("non-empty trace");
                let last = trace.last().expect("non-empty trace");
                let _ = writeln!(
                    out,
                    "  [{spark}]  {:.4} @ {} .. {:.4} @ {}",
                    first.1, first.0, last.1, last.0
                );
            }
        }
    }

    /// Maps a trace to a fixed-width ASCII sparkline, step-sampling the
    /// progress axis and ramping value between the trace's min and max.
    /// Returns `None` for traces too short to plot.
    fn sparkline(&self, trace: &[(u64, f64)]) -> Option<String> {
        if trace.len() < 2 {
            return None;
        }
        let (lo, hi) = trace
            .iter()
            .fold((f64::MAX, f64::MIN), |(lo, hi), &(_, v)| {
                (lo.min(v), hi.max(v))
            });
        let span = hi - lo;
        let cells = SPARK_WIDTH.min(trace.len().max(2));
        let mut spark = String::with_capacity(cells);
        for cell in 0..cells {
            // Sample the trace entry whose index maps onto this cell.
            let idx = cell * (trace.len() - 1) / (cells - 1);
            let v = trace[idx].1;
            let level = if span <= f64::EPSILON {
                RAMP.len() - 1
            } else {
                (((v - lo) / span) * (RAMP.len() - 1) as f64).round() as usize
            };
            spark.push(RAMP[level.min(RAMP.len() - 1)] as char);
        }
        Some(spark)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::results::RecordedResult;
    use crate::system_data::SystemData;
    use redep_algorithms::{RedeploymentAlgorithm, StochasticAlgorithm};
    use redep_model::{Availability, Generator, GeneratorConfig};

    fn recorded() -> AlgoResultData {
        let s = Generator::generate(&GeneratorConfig::sized(3, 8).with_seed(7)).unwrap();
        let sys = SystemData::new(s.model, s.initial);
        let mut results = AlgoResultData::new();
        let raw = StochasticAlgorithm::new()
            .run(
                sys.model(),
                &Availability,
                sys.model().constraints(),
                Some(sys.deployment()),
            )
            .unwrap();
        results.push(RecordedResult::new(
            sys.model(),
            sys.deployment(),
            &Availability,
            raw,
        ));
        results
    }

    #[test]
    fn renders_summary_and_convergence_sections() {
        let tele = Telemetry::new(16);
        tele.event("net.link.drop", 1_000)
            .field("reason", "loss")
            .emit();
        tele.metrics().counter("net.sent").add(3);
        let text = TelemetryView::new().render(&tele, &recorded());
        assert!(text.contains("Telemetry"), "{text}");
        assert!(text.contains("net.link.drop"), "{text}");
        assert!(text.contains("net.sent"), "{text}");
        assert!(text.contains("Convergence"), "{text}");
        assert!(text.contains("stochastic"), "{text}");
    }

    #[test]
    fn empty_results_say_so() {
        let text = TelemetryView::new().render(&Telemetry::disabled(), &AlgoResultData::new());
        assert!(text.contains("(no algorithms run yet)"));
        assert!(text.contains("disabled"));
    }

    #[test]
    fn sparkline_spans_the_value_range() {
        let view = TelemetryView::new();
        let trace: Vec<(u64, f64)> = (0..100).map(|i| (i, i as f64)).collect();
        let spark = view.sparkline(&trace).unwrap();
        assert_eq!(spark.len(), SPARK_WIDTH);
        assert!(
            spark.starts_with(' '),
            "lowest value maps to ramp start: {spark:?}"
        );
        assert!(
            spark.ends_with('@'),
            "highest value maps to ramp end: {spark:?}"
        );
    }

    #[test]
    fn flat_and_short_traces_are_handled() {
        let view = TelemetryView::new();
        assert!(view.sparkline(&[(1, 0.5)]).is_none());
        let flat = view.sparkline(&[(1, 0.5), (2, 0.5), (3, 0.5)]).unwrap();
        assert!(flat.bytes().all(|b| b == b'@'), "{flat:?}");
    }
}
