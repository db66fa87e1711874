//! E11 (Figure 8): a monitored Prism-MW system.
//!
//! Event-frequency monitors and ping-based reliability probes run alongside
//! a live workload; the experiment compares their estimates against the
//! simulator's configured ground truth.

use redep_bench::{fmt_f, mean, print_table, Bound, ExpReport};
use redep_core::{RuntimeConfig, SystemRuntime};
use redep_model::{Generator, GeneratorConfig};
use redep_netsim::Duration;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let system = Generator::generate(&GeneratorConfig::sized(4, 12).with_seed(6))?;
    let mut runtime =
        SystemRuntime::build(&system.model, &system.initial, &RuntimeConfig::default())?;
    runtime.run_for(Duration::from_secs_f64(120.0));

    let master = runtime.master().unwrap();
    let snapshots = runtime
        .host(master)
        .and_then(|h| h.deployer())
        .map(|d| d.snapshots().clone())
        .unwrap_or_default();

    // ---- reliability estimates ------------------------------------------
    let mut rows = Vec::new();
    let mut rel_errors = Vec::new();
    for (host, snap) in &snapshots {
        for (peer, estimate) in &snap.reliabilities {
            if let Some(link) = runtime.sim().topology().link(*host, *peer) {
                let truth = link.spec.reliability;
                rel_errors.push((estimate - truth).abs());
                rows.push(vec![
                    format!("{host}–{peer}"),
                    fmt_f(*estimate),
                    fmt_f(truth),
                    fmt_f((estimate - truth).abs()),
                ]);
            }
        }
    }
    print_table(
        "E11a: ping-based reliability estimates vs ground truth",
        &["link", "monitored", "truth", "abs error"],
        &rows,
    );

    // ---- frequency estimates ---------------------------------------------
    let names = runtime.component_names().clone();
    let mut rows = Vec::new();
    let mut freq_errors = Vec::new();
    for snap in snapshots.values() {
        for ((a, b), freq) in &snap.frequencies {
            let ids: Vec<_> = names
                .iter()
                .filter(|(_, n)| *n == a || *n == b)
                .map(|(id, _)| *id)
                .collect();
            if ids.len() == 2 {
                let truth = system.model.frequency(ids[0], ids[1]);
                if truth > 0.0 {
                    freq_errors.push((freq - truth).abs() / truth);
                    rows.push(vec![
                        format!("{a}↔{b}"),
                        fmt_f(*freq),
                        fmt_f(truth),
                        format!("{:.1}%", 100.0 * (freq - truth).abs() / truth),
                    ]);
                }
            }
        }
    }
    rows.truncate(15); // the full list is long; the summary below covers all
    print_table(
        "E11b: interaction-frequency estimates vs model parameters (first 15)",
        &["pair", "monitored (ev/s)", "truth (ev/s)", "rel error"],
        &rows,
    );

    let mean_rel_err = mean(&rel_errors);
    let mean_freq_err = mean(&freq_errors);
    print_table(
        "E11 summary",
        &["estimate", "mean error"],
        &[
            vec!["link reliability (absolute)".into(), fmt_f(mean_rel_err)],
            vec![
                "interaction frequency (relative)".into(),
                format!("{:.1}%", 100.0 * mean_freq_err),
            ],
        ],
    );
    let mut report = ExpReport::new(
        "e11",
        "monitored estimates vs simulator ground truth (Figure 8)",
    );
    report
        .gate(
            "mean_reliability_abs_error",
            mean_rel_err,
            Bound::AtMost(0.15),
        )
        .gate(
            "mean_frequency_rel_error",
            mean_freq_err,
            Bound::AtMost(0.25),
        )
        .gate(
            "hosts_reporting",
            snapshots.len() as f64,
            Bound::AtLeast(runtime.hosts().len() as f64),
        )
        .metric("reliability_links_compared", rel_errors.len() as f64)
        .metric("frequency_pairs_compared", freq_errors.len() as f64);
    report.finish()
}
