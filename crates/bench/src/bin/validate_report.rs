//! Validates a checked-in `BENCH_*.json` against the `ExpReport` schema.
//!
//! Usage: `validate_report <file.json> [<file.json> …]`
//!
//! For each file, parses the JSON, round-trips it through
//! [`ExpReport::from_json`] (which enforces the `redep-bench/v1` schema and
//! field types), and requires `passed: true`. Exits non-zero on the first
//! violation — CI runs this right after regenerating a report to catch both
//! schema drift and silently-failing experiments.
//!
//! Report-specific gates: no pipeline report may carry a `*_legacy` metric
//! (the JSON wire path those measured no longer exists), and any pipeline
//! report carrying the steady cell's exact count
//! `durable_bytes_per_event_32x128` (quick mode included) must keep it
//! ≤ 100 — whole-state journaling took 413 — and its
//! `report_payload_bytes_mean_32x128` ≤ 4 500 — the JSON report took 6 460 —
//! and its `allocs_per_event_32x128` ≤ 3.889 (0.7 × the 5.5556 allocator
//! calls per routed event measured before the per-message path kept its
//! buffers).
//! A full-mode *algorithms* report
//! (one carrying `e3d.avala.20x160.speedup_vs_flat`) must clear the
//! hierarchical-engine acceptance — ≥ 10× evals/s over the flat path for
//! avala and decap, all four hierarchical algorithms completing 200×2000,
//! and the 1000×10000 scale rows of avala and decap, decap's within 2 s
//! (it took 8.7 s while its monitoring exchange was cubic). A full-mode *faults* report (one carrying
//! `.avala.` cells) must show every `*.decap.final` availability ≥ 0.90 —
//! the partial-view starvation fix the hierarchical auctions exist for.
//! Quick-mode (CI smoke) reports omit those metrics and skip the gates —
//! except the durable-recovery gate, which fires on *any* faults report
//! carrying crash cells: every `crash.<algo>` cell must show ≥ 1 recovery
//! report, ≥ 1 verdict, and `recover.state_equiv == 1.0`.

use redep_bench::ExpReport;

/// Enforces the hierarchical-engine acceptance on full-mode algorithm
/// reports.
fn check_algorithms_gates(file: &str, report: &ExpReport) -> Result<(), String> {
    if !report
        .metrics
        .contains_key("e3d.avala.20x160.speedup_vs_flat")
    {
        return Ok(()); // quick-mode report: nothing to gate
    }
    for algo in ["avala", "decap"] {
        let key = format!("e3d.{algo}.20x160.speedup_vs_flat");
        let speedup = report
            .metrics
            .get(&key)
            .copied()
            .ok_or_else(|| format!("{file}: full-mode algorithms report is missing {key}"))?;
        if speedup < 10.0 {
            return Err(format!(
                "{file}: hierarchical {algo} speedup {speedup:.2}× is below \
                 the 10× flat-path gate"
            ));
        }
    }
    for algo in ["avala", "decap", "stochastic", "annealing"] {
        let key = format!("e3d.{algo}.200x2000.evals_per_sec");
        if !report.metrics.contains_key(&key) {
            return Err(format!(
                "{file}: full-mode algorithms report is missing the 200x2000 \
                 row for {algo} ({key})"
            ));
        }
    }
    for algo in ["avala", "decap"] {
        if !report
            .metrics
            .contains_key(&format!("e3d.{algo}.1000x10000.wall_secs"))
        {
            return Err(format!(
                "{file}: full-mode algorithms report is missing the 1000x10000 \
                 scale row for {algo}"
            ));
        }
    }
    let decap_secs = report.metrics["e3d.decap.1000x10000.wall_secs"];
    if decap_secs > 2.0 {
        return Err(format!(
            "{file}: decap-h took {decap_secs:.2} s at 1000x10000, above the 2 s \
             gate — with bitset views and a gossip fixed point it takes ~0.5 s, \
             with an O(hosts³) exchange every round it took 8.7 s"
        ));
    }
    Ok(())
}

/// Enforces the decentralized-recovery acceptance on full-mode fault
/// reports: no fault class may leave DecAp below 0.90 final availability.
fn check_faults_gates(file: &str, report: &ExpReport) -> Result<(), String> {
    check_crash_recovery_gates(file, report)?;
    if !report.metrics.keys().any(|k| k.contains(".avala.")) {
        return Ok(()); // quick-mode report: nothing to gate
    }
    for (key, &value) in &report.metrics {
        if key.ends_with(".decap.final") && value < 0.90 {
            return Err(format!(
                "{file}: {key} = {value:.4} is below the 0.90 final-availability \
                 gate for hierarchical DecAp"
            ));
        }
    }
    Ok(())
}

/// Enforces the durable-recovery acceptance on any fault report carrying
/// crash cells (quick-mode smoke included): each crash cell must show at
/// least one durable recovery (checkpoint + journal replay), at least one
/// per-operation verdict, and a perfect state-equivalence self-check.
fn check_crash_recovery_gates(file: &str, report: &ExpReport) -> Result<(), String> {
    let algos: Vec<String> = report
        .metrics
        .keys()
        .filter_map(|k| {
            k.strip_prefix("crash.")
                .and_then(|rest| rest.strip_suffix(".final"))
                .map(str::to_owned)
        })
        .collect();
    for algo in &algos {
        for (suffix, minimum) in [
            ("recover.reports", 1.0),
            ("recover.verdicts", 1.0),
            ("recover.state_equiv", 1.0),
        ] {
            let key = format!("crash.{algo}.{suffix}");
            let value = report
                .metrics
                .get(&key)
                .copied()
                .ok_or_else(|| format!("{file}: crash cell is missing {key}"))?;
            if value < minimum {
                return Err(format!(
                    "{file}: {key} = {value} is below the durable-recovery \
                     gate ({minimum})"
                ));
            }
        }
    }
    Ok(())
}

/// Enforces the pipeline acceptances: no stale `*_legacy` metrics, and
/// bounded exact counts of the 32×128 steady cell. Rates are readings of
/// one machine and gate nothing.
fn check_pipeline_gates(file: &str, report: &ExpReport) -> Result<(), String> {
    if let Some(key) = report.metrics.keys().find(|k| k.ends_with("_legacy")) {
        return Err(format!(
            "{file}: stale metric {key} — the JSON wire path it measured was \
             removed; regenerate the report"
        ));
    }
    if let Some(&bytes) = report.metrics.get("durable_bytes_per_event_32x128") {
        if bytes > 100.0 {
            return Err(format!(
                "{file}: {bytes:.1} durable journal bytes per routed event in the \
                 32x128 steady cell is above the 100 B gate — is control-plane \
                 state journaled whole again?"
            ));
        }
    }
    if let Some(&bytes) = report.metrics.get("report_payload_bytes_mean_32x128") {
        if bytes > 4_500.0 {
            return Err(format!(
                "{file}: a mean journaled monitoring report of {bytes:.0} B in the \
                 32x128 steady cell is above the 4500 B gate — is the snapshot a \
                 text document again, or are pair names written twice?"
            ));
        }
    }
    if let Some(&allocs) = report.metrics.get("allocs_per_event_32x128") {
        if allocs > 0.7 * 5.5556 {
            return Err(format!(
                "{file}: {allocs:.4} allocator calls per routed event in the 32x128 \
                 steady cell is above the 3.889 gate (0.7 × the 5.5556 of the tree-keyed \
                 path) — is a per-message buffer rebuilt instead of kept?"
            ));
        }
    }
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let files: Vec<String> = std::env::args().skip(1).collect();
    if files.is_empty() {
        return Err("usage: validate_report <BENCH_*.json> …".into());
    }
    for file in &files {
        let text = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
        let value: serde_json::Value =
            serde_json::from_str(&text).map_err(|e| format!("{file}: invalid JSON: {e}"))?;
        let report =
            ExpReport::from_json(&value).map_err(|e| format!("{file}: schema violation: {e}"))?;
        if !report.passed {
            return Err(format!(
                "{file}: experiment '{}' reports passed=false",
                report.experiment
            )
            .into());
        }
        if report.journal_dropped > 0 {
            return Err(format!(
                "{file}: experiment '{}' overflowed its telemetry journal \
                 ({} events dropped) — derived metrics and traces are incomplete",
                report.experiment, report.journal_dropped
            )
            .into());
        }
        if report.experiment == "pipeline" {
            check_pipeline_gates(file, &report)?;
        }
        if report.experiment == "algorithms" {
            check_algorithms_gates(file, &report)?;
        }
        if report.experiment == "faults" {
            check_faults_gates(file, &report)?;
        }
        println!(
            "{file}: ok (experiment '{}', {} metrics)",
            report.experiment,
            report.metrics.len()
        );
    }
    Ok(())
}
