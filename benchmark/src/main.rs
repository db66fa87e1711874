//! The repository's benchmark: five workloads, end-to-end metrics with
//! tracing off, per-layer metrics from a separate traced run. See README.md
//! next to this package's manifest, and `BENCHMARK.json` at the repository
//! root for the contract.
//!
//! ```text
//! redep-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! redep-benchmark --all [--seed <n>] [--seconds <s>] [--repeat <k>]
//! redep-benchmark --smoke
//! ```

mod inputs;
mod isolated;
mod report;
mod rss;
mod stats;
mod trace;
mod workloads;

use report::{Outcome, END_TO_END, PER_LAYER};
use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::{RunConfig, WORKLOADS};

/// Default workload seed of `--all` and `--smoke`.
const DEFAULT_SEED: u64 = 11;
/// Default `--seconds`; `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 10.0;

/// What the command line asked for.
#[derive(Clone, PartialEq, Debug)]
enum Mode {
    One { workload: String, trace: bool },
    All { repeat: usize },
    Smoke,
}

#[derive(Clone, PartialEq, Debug)]
struct Args {
    mode: Mode,
    seed: u64,
    seconds: f64,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut trace = false;
    let mut all = false;
    let mut smoke = false;
    let mut repeat = 1usize;
    let mut seed = DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value("a workload name")?),
            "--seed" => {
                seed = value("a whole number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                seconds = value("a number of seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".to_owned());
                }
            }
            "--trace" => {
                trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                };
            }
            "--repeat" => {
                repeat = value("a count")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?;
                if !(1..=10).contains(&repeat) {
                    return Err("--repeat must be between 1 and 10".to_owned());
                }
            }
            "--all" => all = true,
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    let mode = match (workload, all, smoke) {
        (Some(workload), false, false) => Mode::One { workload, trace },
        (None, true, false) => Mode::All { repeat },
        (None, false, true) => Mode::Smoke,
        _ => return Err("choose exactly one of --workload <name>, --all and --smoke".to_owned()),
    };
    Ok(Args {
        mode,
        seed,
        seconds,
    })
}

/// Where traces and results go: `benchmark/` inside cargo's target
/// directory (the one this executable was built into), which is ignored.
fn output_dir() -> PathBuf {
    let exe = std::env::current_exe().unwrap_or_default();
    let is_profile = |dir: &&Path| {
        matches!(
            dir.file_name().and_then(|n| n.to_str()),
            Some("release" | "debug")
        )
    };
    exe.ancestors()
        .find(is_profile)
        .and_then(Path::parent)
        .or(exe.parent())
        .unwrap_or(Path::new("."))
        .join("benchmark")
}

/// Prints the human-readable part of a run: notes, every metric by name
/// with its unit, failed checks, the steps (work:wall seconds) and the two
/// `#` lines `--all` parses.
fn print_report(name: &str, cfg: &RunConfig, traced: bool, outcome: &Outcome) {
    println!(
        "== {name}  seed {}  seconds {}  {}",
        cfg.seed,
        cfg.seconds,
        if traced {
            "traced run: per-layer metrics"
        } else {
            "tracing off: end-to-end metrics"
        }
    );
    for note in &outcome.notes {
        println!("   {note}");
    }
    let catalogue: Vec<(&str, &str, f64)> = if traced {
        let value = |name| outcome.layers.get(name);
        PER_LAYER.iter().map(|&(n, u)| (n, u, value(n))).collect()
    } else {
        let value = |m: &report::EndToEnd| (m.value)(outcome);
        END_TO_END
            .iter()
            .map(|m| (m.name, m.unit, value(m)))
            .collect()
    };
    for (metric, unit, value) in catalogue {
        println!("   {metric:<42} {value:>18.6} {unit}");
    }
    let rates: Vec<f64> = outcome
        .steps
        .iter()
        .map(|&(work, wall_s)| report::ratio(work, wall_s))
        .collect();
    println!(
        "   steps n={}  work/s p50={:.1} min={:.1} max={:.1}  (timed wall {:.3} s)",
        rates.len(),
        stats::median(&rates),
        rates.iter().copied().fold(f64::INFINITY, f64::min),
        rates.iter().copied().fold(0.0, f64::max),
        outcome.timed_wall_s(),
    );
    println!(
        "   operations attempted {}  failed {}  set-up samples {:?} s",
        outcome.attempted.max(1),
        outcome.failed,
        outcome
            .setup_s
            .iter()
            .map(|s| (s * 1e4).round() / 1e4)
            .collect::<Vec<_>>()
    );
    for problem in &outcome.problems {
        println!("   CHECK FAILED: {problem}");
    }
    println!(
        "# steps {}",
        outcome
            .steps
            .iter()
            .map(|(work, wall_s)| format!("{work}:{wall_s:.6}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    println!("# timed_wall_s {}", outcome.timed_wall_s());
    println!("# sim_digest {:016x}", outcome.digest.value());
}

/// One workload in this process. Returns the outcome and its result line.
fn run_workload(name: &str, cfg: &RunConfig, traced: bool) -> Result<(Outcome, Value), String> {
    let mut tracer = trace::Tracer::new(traced);
    let mut outcome = workloads::run(name, cfg, &mut tracer)?;
    if traced {
        outcome
            .layers
            .set("bench.timed_wall_s", outcome.timed_wall_s());
        outcome
            .layers
            .set("bench.spans", tracer.spans().len() as f64);
        let path = output_dir().join(format!("trace-{name}.jsonl"));
        if let Err(e) = tracer.write_jsonl(&path, name) {
            outcome.problem(format!("cannot write {}: {e}", path.display()));
        }
    }
    let line = report::result_line(&outcome, traced);
    Ok((outcome, line))
}

/// The driver's entry point: one workload, one result line.
fn run_one(name: &str, cfg: &RunConfig, traced: bool) -> ExitCode {
    let _watchdog = rss::Watchdog::start(name);
    match run_workload(name, cfg, traced) {
        Ok((outcome, line)) => {
            print_report(name, cfg, traced, &outcome);
            println!(
                "{}",
                serde_json::to_string(&line).expect("results serialize")
            );
            if outcome.problems.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

/// What `--all` keeps of one child run.
struct ChildRun {
    ok: bool,
    metrics: BTreeMap<String, f64>,
    timed_wall_s: f64,
    digest: String,
}

/// Runs one workload in a child process — so that `peak_rss_mb` is per
/// workload — echoing its report.
fn run_child(name: &str, cfg: &RunConfig, traced: bool) -> ChildRun {
    let failed = |why: String| {
        println!("   CHILD FAILED: {why}");
        ChildRun {
            ok: false,
            metrics: BTreeMap::new(),
            timed_wall_s: 0.0,
            digest: String::new(),
        }
    };
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => return failed(format!("cannot find this executable: {e}")),
    };
    let output = std::process::Command::new(exe)
        .args(["--workload", name])
        .args(["--seed", &cfg.seed.to_string()])
        .args(["--seconds", &cfg.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output();
    let output = match output {
        Ok(output) => output,
        Err(e) => return failed(format!("cannot start: {e}")),
    };
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or_default();
    for line in &lines {
        println!("{line}");
    }
    let tagged = |tag: &str| {
        lines
            .iter()
            .find_map(|l| l.strip_prefix(tag))
            .map(str::trim)
            .unwrap_or_default()
            .to_owned()
    };
    let Ok(result) = serde_json::from_str::<Value>(last) else {
        return failed(match output.status.code() {
            Some(rss::EXIT_RSS_LIMIT) => "stopped by the memory watchdog".to_owned(),
            code => format!("no result line (exit code {code:?})"),
        });
    };
    let correct = result.as_object().expect("result object")["correct"].as_bool();
    ChildRun {
        ok: output.status.success() && correct == Some(true),
        metrics: report::metric_values(&result),
        timed_wall_s: tagged("# timed_wall_s").parse().unwrap_or(0.0),
        digest: tagged("# sim_digest"),
    }
}

/// The `--repeat` verdicts of one workload: against the first set, the
/// digest and the simulated statistics must be identical and the wall-clock
/// metrics within their bound.
fn compare_with_first(
    verdicts: &mut Vec<(String, bool)>,
    label: &str,
    base: &ChildRun,
    run: &ChildRun,
) {
    verdicts.push((
        format!("{label}: sim_digest equal to set 1"),
        base.digest == run.digest,
    ));
    for m in END_TO_END {
        let value = |r: &ChildRun| r.metrics.get(m.name).copied().unwrap_or(0.0);
        let (a, b) = (value(base), value(run));
        let off = report::ratio((b - a).abs(), a.abs());
        let (allowed, kind) = if m.exact {
            (0.0, "exact")
        } else {
            (m.bound, "wall")
        };
        let direction = if a == b {
            "equal"
        } else if (b > a) == (m.better == "higher") {
            "better"
        } else {
            "worse"
        };
        verdicts.push((
            format!(
                "{label}: {} {b:.6} vs {a:.6} {} ({kind}, {direction}, off by {:.2} %, allowed {:.0} %)",
                m.name,
                m.unit,
                off * 100.0,
                allowed * 100.0
            ),
            off <= allowed,
        ));
    }
}

/// `--all`: every workload, untraced then traced, `repeat` sets back to
/// back; a summary, the verdicts, and `results.json`.
fn run_all(cfg: &RunConfig, repeat: usize) -> ExitCode {
    let mut verdicts: Vec<(String, bool)> = Vec::new();
    let mut sets = Vec::new();
    let mut first: BTreeMap<&str, ChildRun> = BTreeMap::new();
    for set in 0..repeat {
        let mut set_json = BTreeMap::new();
        for &(name, _) in WORKLOADS {
            println!("\n#### set {} of {repeat}: {name}", set + 1);
            let untraced = run_child(name, cfg, false);
            let traced = run_child(name, cfg, true);
            let overhead = report::ratio(traced.timed_wall_s, untraced.timed_wall_s) - 1.0;
            println!(
                "   {:<42} {overhead:>18.6} ratio",
                "bench.trace_overhead_share"
            );
            verdicts.push((
                format!("set {} {name}: correctness checks pass", set + 1),
                untraced.ok && traced.ok,
            ));
            verdicts.push((
                format!(
                    "set {} {name}: sim_digest equal with tracing off and on ({} / {})",
                    set + 1,
                    untraced.digest,
                    traced.digest
                ),
                !untraced.digest.is_empty() && untraced.digest == traced.digest,
            ));
            set_json.insert(
                name.to_owned(),
                json!({
                    "end_to_end": (untraced.metrics.clone()),
                    "per_layer": (traced.metrics.clone()),
                    "sim_digest": (untraced.digest.clone()),
                    "trace_overhead_share": overhead,
                    "correct": (untraced.ok && traced.ok),
                }),
            );
            match first.get(name) {
                Some(base) => compare_with_first(
                    &mut verdicts,
                    &format!("set {} {name}", set + 1),
                    base,
                    &untraced,
                ),
                None => {
                    first.insert(name, untraced);
                }
            }
        }
        sets.push(Value::Object(set_json));
    }

    println!("\n#### verdicts");
    for (what, ok) in &verdicts {
        println!("   {} {what}", if *ok { "ok  " } else { "FAIL" });
    }
    let passed = verdicts.iter().all(|(_, ok)| *ok);
    let results = json!({
        "seed": (cfg.seed),
        "seconds": (cfg.seconds),
        "threads": (inputs::threads()),
        "sets": (Value::Array(sets)),
        "passed": passed,
    });
    let path = output_dir().join("results.json");
    let written = std::fs::create_dir_all(output_dir()).and_then(|()| {
        std::fs::write(
            &path,
            serde_json::to_string_pretty(&results).expect("results serialize"),
        )
    });
    match written {
        Ok(()) => println!("\nwrote {}", path.display()),
        Err(e) => {
            eprintln!("benchmark: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    println!("benchmark {}", if passed { "PASS" } else { "FAIL" });
    if passed {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `--smoke`: every workload at toy scale, tracing off and on, in this
/// process. Checks correctness and digest equality; compares no baselines.
///
/// # Errors
///
/// Returns what went wrong, one line per problem.
fn smoke(seed: u64) -> Result<(), String> {
    let cfg = RunConfig {
        seed,
        seconds: 1.0,
        smoke: true,
    };
    let mut problems = Vec::new();
    for &(name, _) in WORKLOADS {
        let started = std::time::Instant::now();
        let (untraced, _) = run_workload(name, &cfg, false)?;
        let (traced, line) = run_workload(name, &cfg, true)?;
        for p in untraced.problems.iter().chain(&traced.problems) {
            problems.push(format!("{name}: {p}"));
        }
        if untraced.digest != traced.digest {
            problems.push(format!(
                "{name}: sim_digest {:016x} with tracing off, {:016x} with tracing on",
                untraced.digest.value(),
                traced.digest.value()
            ));
        }
        if untraced.failed + traced.failed > 0 {
            problems.push(format!("{name}: operations failed"));
        }
        let reported = report::metric_values(&line).len();
        if reported != PER_LAYER.len() {
            problems.push(format!("{name}: {reported} per-layer metrics reported"));
        }
        println!(
            "smoke {name:<18} digest {:016x}  work/s {:>9.0}  {:.2} s",
            untraced.digest.value(),
            untraced.work_per_s(),
            started.elapsed().as_secs_f64()
        );
    }
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems.join("\n"))
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}\nsee benchmark/README.md");
            return ExitCode::from(2);
        }
    };
    let cfg = RunConfig {
        seed: args.seed,
        seconds: args.seconds,
        smoke: false,
    };
    match args.mode {
        Mode::One { workload, trace } => run_one(&workload, &cfg, trace),
        Mode::All { repeat } => run_all(&cfg, repeat),
        Mode::Smoke => match smoke(args.seed) {
            Ok(()) => {
                println!("smoke PASS");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("smoke FAIL:\n{e}");
                ExitCode::FAILURE
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = args(&[
            "--workload",
            "place-scale",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            a,
            Args {
                mode: Mode::One {
                    workload: "place-scale".to_owned(),
                    trace: true
                },
                seed: 7,
                seconds: 10.0,
            }
        );
        assert_eq!(args(&["--all"]).unwrap().seed, DEFAULT_SEED);
        assert_eq!(
            args(&["--all", "--repeat", "2"]).unwrap().mode,
            Mode::All { repeat: 2 }
        );
    }

    #[test]
    fn bad_command_lines_are_refused() {
        assert!(args(&[]).is_err());
        assert!(args(&["--all", "--smoke"]).is_err());
        assert!(args(&["--workload"]).is_err());
        assert!(args(&["--workload", "x", "--trace", "yes"]).is_err());
        assert!(args(&["--workload", "x", "--seconds", "0"]).is_err());
        assert!(args(&["--all", "--repeat", "0"]).is_err());
        assert!(args(&["--frobnicate"]).is_err());
    }

    /// `BENCHMARK.json` at the repository root must mirror the catalogue:
    /// the driver refuses a run whose metrics differ from the file's.
    #[test]
    fn benchmark_json_mirrors_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let file: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let file = file.as_object().unwrap();
        let keys: Vec<&str> = file.keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        assert_eq!(file["run_seconds"].as_f64(), Some(DEFAULT_SECONDS));
        let text_of =
            |v: &Value, key: &str| v.as_object().unwrap()[key].as_str().unwrap().to_owned();
        let workloads: Vec<(String, String)> = file["workloads"]
            .as_array()
            .unwrap()
            .iter()
            .map(|w| (text_of(w, "name"), text_of(w, "why")))
            .collect();
        let expected: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|(n, w)| ((*n).to_owned(), (*w).to_owned()))
            .collect();
        assert_eq!(workloads, expected);
        assert!(workloads.iter().all(|(_, why)| why.len() <= 200));
        let end_to_end = file["end_to_end"].as_array().unwrap();
        assert_eq!(end_to_end.len(), END_TO_END.len());
        for (entry, m) in end_to_end.iter().zip(END_TO_END) {
            assert_eq!(text_of(entry, "name"), m.name);
            assert_eq!(text_of(entry, "unit"), m.unit);
            assert_eq!(text_of(entry, "better"), m.better);
            let bound = entry.as_object().unwrap()["bound"].as_f64().unwrap();
            assert_eq!(bound, m.bound);
            assert!(bound <= 0.25);
        }
        let per_layer = file["per_layer"].as_array().unwrap();
        assert_eq!(per_layer.len(), PER_LAYER.len());
        for (entry, (name, unit)) in per_layer.iter().zip(PER_LAYER) {
            assert_eq!(text_of(entry, "name"), *name);
            assert_eq!(text_of(entry, "unit"), *unit);
            let better = text_of(entry, "better");
            assert!(better == "higher" || better == "lower");
        }
    }

    /// The smoke run: every workload end to end at toy scale, both ways.
    #[test]
    fn smoke_runs_every_workload() {
        smoke(DEFAULT_SEED).unwrap();
    }
}
