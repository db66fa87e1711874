//! Validates `BENCH_*.json` reports.
//!
//! Usage: `validate_report <file.json> [<file.json> …]`
//!
//! For each file, parses the JSON through [`ExpReport::from_json`] (which
//! enforces the `redep-bench/v1` schema and field types) and requires
//! [`ExpReport::violations`] to be empty: no overflowed journal, every
//! recorded gate holding on its recorded metric, and `passed` agreeing with
//! the gates. The bounds themselves live in the binary that measures them,
//! so this check knows no experiment. Exits non-zero on the first invalid
//! file — CI runs it on every regenerated and every checked-in report.

use redep_bench::ExpReport;

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
        let violations = report.violations();
        if !violations.is_empty() {
            return Err(format!("{file}: {}", violations.join("; ")).into());
        }
        println!(
            "{file}: ok (experiment '{}', {} metrics, {} gates)",
            report.experiment,
            report.metrics.len(),
            report.gates.len()
        );
    }
    Ok(())
}
