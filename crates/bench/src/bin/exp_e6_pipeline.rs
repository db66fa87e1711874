//! E6-pipeline: runtime hot-path throughput of the event pipeline.
//!
//! Drives a full `SystemRuntime` (Prism hosts, workload components, the
//! network simulator) at three scales — 8×32, 64×256, 256×1024
//! hosts×components — and measures the wall-clock event rate of the whole
//! pipeline: routing through interned-symbol adjacency, `Arc`-shared
//! payloads, the wire codec, and the calendar-queue scheduler. Each run
//! starts from a freshly built runtime, so the rates are *cold-start*
//! rates over a short horizon (the `pipeline-steady` workload of
//! `BENCHMARK.json` measures the same path after warm-up).
//!
//! Events are counted by the middleware's own `pipeline.events.routed`
//! counter and wire volume by `pipeline.codec.bytes`, giving events/second
//! and bytes/event per cell. The 64×256 cell is gated against the last
//! rate recorded for the serde_json wire format before it was removed
//! ([`RECORDED_JSON_64X256`]).
//!
//! On top of the single-queue cells, the **sharded** conservative-PDES
//! engine ([`redep_core::ShardedRuntime`]) is measured at 256×1024 (4
//! shards) and 1024×8192 (8 shards). Its gate compares the sharded
//! aggregate rate against the *seed* single-shard baseline checked into
//! `BENCH_pipeline.json` before this change (60,930 ev/s at 256×1024); the
//! same-run measured single-shard rate is also reported for transparency —
//! see EXPERIMENTS.md for the methodology.
//!
//! `--quick` runs only the 8×32 cells (the CI smoke configuration);
//! `--json` writes `BENCH_pipeline.json` in the shared `ExpReport` schema.
//! `--shard-smoke` skips the benchmark and instead runs the sharded engine
//! at two thread counts, asserting the merged journals are byte-identical
//! (the CI determinism gate).

use redep_bench::{print_table, ExpReport};
use redep_core::{RuntimeConfig, ShardedRuntime, SystemRuntime};
use redep_model::{Generator, GeneratorConfig};
use redep_netsim::SimTime;
use redep_telemetry::Telemetry;
use std::time::Instant;

/// The single-shard 256×1024 fast-path rate recorded in the checked-in
/// `BENCH_pipeline.json` before the sharded engine landed — the fixed
/// reference for the sharded speedup gate.
const SEED_BASELINE_256X1024: f64 = 60_930.0;

/// The 64×256 rate of the serde_json wire format, as last recorded in the
/// checked-in `BENCH_pipeline.json` (`events_per_sec_64x256_legacy`) before
/// that format was deleted — the fixed reference for the ≥3× hot-path gate.
const RECORDED_JSON_64X256: f64 = 64_326.0;

/// One measured cell.
struct Sample {
    /// Events routed through component handlers (`pipeline.events.routed`).
    events: u64,
    /// Bytes produced by the wire codec (`pipeline.codec.bytes`).
    bytes: u64,
    /// Wall-clock seconds for the simulated horizon.
    wall_secs: f64,
    /// Per-chunk throughput samples (events/s over each horizon slice),
    /// feeding the report's p50/p90/p99 summary.
    chunk_rates: Vec<f64>,
    /// Journal-overflow count (always 0 with a disabled handle; recorded so
    /// `validate_report` can gate on it).
    journal_dropped: u64,
}

impl Sample {
    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.wall_secs.max(1e-9)
    }
    fn bytes_per_event(&self) -> f64 {
        self.bytes as f64 / self.events.max(1) as f64
    }
}

/// Builds a runtime at the given scale and runs it for `horizon` simulated
/// seconds, reading the pipeline counters afterwards.
fn run_cell(
    hosts: usize,
    comps: usize,
    horizon: f64,
) -> Result<Sample, Box<dyn std::error::Error>> {
    let system = Generator::generate(&GeneratorConfig::sized(hosts, comps).with_seed(11))?;
    let runtime_config = RuntimeConfig {
        seed: 1,
        ..RuntimeConfig::default()
    };
    let mut rt = SystemRuntime::build(&system.model, &system.initial, &runtime_config)?;
    // A disabled handle journals nothing (we are measuring the hot path,
    // not recording it) but its counters still count.
    let telemetry = Telemetry::disabled();
    rt.set_telemetry(telemetry.clone());
    let routed = telemetry.metrics().counter("pipeline.events.routed");
    let bytes = telemetry.metrics().counter("pipeline.codec.bytes");

    // Run the horizon in ten equal slices, sampling the event rate of each
    // — the slice rates feed the percentile summary, exposing throughput
    // jitter that the aggregate mean hides.
    const CHUNKS: u32 = 10;
    let mut chunk_rates = Vec::with_capacity(CHUNKS as usize);
    let mut prev_events = 0u64;
    let started = Instant::now();
    for chunk in 1..=CHUNKS {
        let chunk_started = Instant::now();
        rt.sim_mut().run_until(SimTime::from_secs_f64(
            horizon * f64::from(chunk) / f64::from(CHUNKS),
        ));
        let chunk_secs = chunk_started.elapsed().as_secs_f64();
        let now_events = routed.get();
        chunk_rates.push((now_events - prev_events) as f64 / chunk_secs.max(1e-9));
        prev_events = now_events;
    }
    let wall_secs = started.elapsed().as_secs_f64();
    Ok(Sample {
        events: routed.get(),
        bytes: bytes.get(),
        wall_secs,
        chunk_rates,
        journal_dropped: telemetry.journal().dropped(),
    })
}

/// Builds a *sharded* runtime at the given scale and runs it for `horizon`
/// simulated seconds, reading the same pipeline counters summed across the
/// per-shard telemetry handles.
fn run_sharded_cell(
    hosts: usize,
    comps: usize,
    horizon: f64,
    shards: usize,
    threads: usize,
) -> Result<Sample, Box<dyn std::error::Error>> {
    let system = Generator::generate(&GeneratorConfig::sized(hosts, comps).with_seed(11))?;
    let runtime_config = RuntimeConfig {
        seed: 1,
        ..RuntimeConfig::default()
    };
    let mut rt = ShardedRuntime::build(&system.model, &system.initial, &runtime_config, shards)?;
    let handles: Vec<Telemetry> = (0..shards).map(|_| Telemetry::disabled()).collect();
    rt.set_telemetry(handles.clone());
    let routed: Vec<_> = handles
        .iter()
        .map(|t| t.metrics().counter("pipeline.events.routed"))
        .collect();
    let bytes: Vec<_> = handles
        .iter()
        .map(|t| t.metrics().counter("pipeline.codec.bytes"))
        .collect();
    let total =
        |counters: &[redep_telemetry::Counter]| counters.iter().map(|c| c.get()).sum::<u64>();

    const CHUNKS: u32 = 10;
    let mut chunk_rates = Vec::with_capacity(CHUNKS as usize);
    let mut prev_events = 0u64;
    let started = Instant::now();
    for chunk in 1..=CHUNKS {
        let chunk_started = Instant::now();
        rt.sim_mut().run_until(
            SimTime::from_secs_f64(horizon * f64::from(chunk) / f64::from(CHUNKS)),
            threads,
        );
        let chunk_secs = chunk_started.elapsed().as_secs_f64();
        let now_events = total(&routed);
        chunk_rates.push((now_events - prev_events) as f64 / chunk_secs.max(1e-9));
        prev_events = now_events;
    }
    let wall_secs = started.elapsed().as_secs_f64();
    Ok(Sample {
        events: total(&routed),
        bytes: total(&bytes),
        wall_secs,
        chunk_rates,
        journal_dropped: handles.iter().map(|t| t.journal().dropped()).sum(),
    })
}

/// The CI determinism gate: runs the sharded pipeline at two thread counts
/// with journaling enabled and asserts the merged exports are
/// byte-identical.
fn shard_smoke() -> Result<(), Box<dyn std::error::Error>> {
    const SHARDS: usize = 4;
    let run = |threads: usize| -> Result<String, Box<dyn std::error::Error>> {
        let system = Generator::generate(&GeneratorConfig::sized(16, 64).with_seed(11))?;
        let runtime_config = RuntimeConfig {
            seed: 1,
            ..RuntimeConfig::default()
        };
        let mut rt =
            ShardedRuntime::build(&system.model, &system.initial, &runtime_config, SHARDS)?;
        // Large journals: the byte-equality contract only holds when no
        // shard overflows its ring.
        let handles: Vec<Telemetry> = (0..SHARDS).map(|_| Telemetry::new(1 << 20)).collect();
        rt.set_telemetry(handles.clone());
        rt.run_for(redep_netsim::Duration::from_secs_f64(5.0), threads);
        for t in &handles {
            assert_eq!(
                t.journal().dropped(),
                0,
                "journal overflowed; raise capacity"
            );
        }
        Ok(rt.sim().export_merged_jsonl())
    };
    let single = run(1)?;
    let multi = run(4)?;
    assert!(!single.is_empty(), "shard smoke produced an empty journal");
    assert_eq!(
        single, multi,
        "shard smoke FAILED: journals diverged between 1 and 4 threads"
    );
    println!(
        "shard smoke PASS: {} journal bytes identical across 1 and 4 threads ({SHARDS} shards).",
        single.len()
    );
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    if std::env::args().any(|a| a == "--shard-smoke") {
        return shard_smoke();
    }
    let quick = std::env::args().any(|a| a == "--quick");
    // (hosts, components, simulated horizon): larger systems carry more
    // traffic per simulated second, so the horizon shrinks with scale to
    // keep each cell's wall time in the seconds range.
    let scales: &[(usize, usize, f64)] = if quick {
        &[(8, 32, 10.0)]
    } else {
        &[(8, 32, 10.0), (64, 256, 5.0), (256, 1024, 1.0)]
    };

    let mut report = ExpReport::new("pipeline", "E6-pipeline: hot-path event throughput");
    report.note(if quick {
        "quick mode: 8x32 only, 10 s simulated horizon"
    } else {
        "full mode: 8x32 / 64x256 / 256x1024, horizons 10/5/1 s simulated"
    });

    let mut rows = Vec::new();
    let mut gate_speedup = f64::INFINITY;
    let mut measured_single_256 = None;
    for &(hosts, comps, horizon) in scales {
        let sample = run_cell(hosts, comps, horizon)?;
        assert!(
            sample.events > 0,
            "{hosts}x{comps}: pipeline routed no events"
        );
        let key = format!("{hosts}x{comps}");
        report.metric(
            format!("events_per_sec_{key}_fast"),
            sample.events_per_sec(),
        );
        report.metric(
            format!("bytes_per_event_{key}_fast"),
            sample.bytes_per_event(),
        );
        report.percentiles_of(
            format!("chunk_events_per_sec_{key}_fast"),
            &sample.chunk_rates,
        );
        report.add_journal_dropped(sample.journal_dropped);
        let mut vs_json = String::from("-");
        match (hosts, comps) {
            (64, 256) => {
                let speedup = sample.events_per_sec() / RECORDED_JSON_64X256;
                report.metric("speedup_vs_recorded_json_64x256", speedup);
                gate_speedup = speedup;
                vs_json = format!("{speedup:.1}×");
            }
            (256, 1024) => measured_single_256 = Some(sample.events_per_sec()),
            _ => {}
        }
        rows.push(vec![
            key,
            format!("{:.0}", sample.events_per_sec()),
            format!("{:.0}", sample.bytes_per_event()),
            vs_json,
        ]);
    }
    print_table(
        "E6-pipeline: wall-clock throughput (events routed per second)",
        &["k×n", "ev/s", "B/ev", "vs recorded JSON"],
        &rows,
    );

    // Sharded conservative-PDES cells: quick mode sanity-checks a tiny
    // configuration; full mode measures 256×1024 on 4 shards (the gated
    // cell) and the 1024×8192 scale point on 8 shards.
    let sharded_scales: &[(usize, usize, f64, usize)] = if quick {
        &[(8, 32, 10.0, 2)]
    } else {
        &[(256, 1024, 1.0, 4), (1024, 8192, 0.25, 8)]
    };
    let mut sharded_rows = Vec::new();
    let mut sharded_gate = f64::INFINITY;
    for &(hosts, comps, horizon, shards) in sharded_scales {
        // Never oversubscribe: worker threads beyond the machine's cores only
        // add barrier wake-ups per window round. Results are byte-identical
        // at any thread count (the shard-smoke gate), so the thread count is
        // purely an execution detail.
        let threads = std::thread::available_parallelism()
            .map(std::num::NonZero::get)
            .unwrap_or(1)
            .min(shards);
        let sample = run_sharded_cell(hosts, comps, horizon, shards, threads)?;
        assert!(
            sample.events > 0,
            "{hosts}x{comps} sharded: pipeline routed no events"
        );
        let key = format!("{hosts}x{comps}");
        report.metric(
            format!("events_per_sec_{key}_sharded{shards}"),
            sample.events_per_sec(),
        );
        report.percentiles_of(
            format!("chunk_events_per_sec_{key}_sharded{shards}"),
            &sample.chunk_rates,
        );
        report.add_journal_dropped(sample.journal_dropped);
        let mut vs_seed = String::from("-");
        if (hosts, comps) == (256, 1024) {
            // The sharded gate: aggregate rate vs the seed single-shard
            // baseline (fixed), with the same-run measured single-shard
            // ratio reported alongside for transparency.
            let speedup_seed = sample.events_per_sec() / SEED_BASELINE_256X1024;
            report.metric("speedup_vs_seed_single_shard", speedup_seed);
            sharded_gate = sharded_gate.min(speedup_seed);
            vs_seed = format!("{speedup_seed:.1}×");
            if let Some(measured) = measured_single_256 {
                report.metric(
                    "speedup_vs_measured_single_shard",
                    sample.events_per_sec() / measured.max(1e-9),
                );
            }
        }
        sharded_rows.push(vec![
            key,
            format!("{shards}"),
            format!("{:.0}", sample.events_per_sec()),
            vs_seed,
        ]);
    }
    print_table(
        "E6-pipeline: sharded conservative-PDES throughput",
        &["k×n", "shards", "ev/s", "vs seed 1-shard"],
        &sharded_rows,
    );

    // Acceptance (full mode; quick mode only checks that its cells route
    // events, since CI machines vary): the hot path must clear 3× the
    // recorded JSON-codec rate at 64×256, and the sharded engine 4× the seed
    // single-shard baseline at 256×1024.
    let threshold = 3.0;
    let sharded_threshold = 4.0;
    let hot_path_pass = quick || gate_speedup >= threshold;
    let sharded_pass = quick || sharded_gate >= sharded_threshold;
    report.set_passed(hot_path_pass && sharded_pass);
    if !quick {
        report.note(format!(
            "acceptance: hot path ≥{threshold}× the recorded JSON-codec rate \
             ({RECORDED_JSON_64X256:.0} ev/s) at 64x256 (observed {gate_speedup:.1}×)"
        ));
        report.note(format!(
            "acceptance: sharded ≥{sharded_threshold}× the seed single-shard baseline \
             ({SEED_BASELINE_256X1024:.0} ev/s) at 256x1024 (observed {sharded_gate:.1}×)"
        ));
    }
    assert!(
        hot_path_pass,
        "pipeline FAILED: hot path {gate_speedup:.1}× below the {threshold}× gate"
    );
    assert!(
        sharded_pass,
        "pipeline FAILED: sharded speedup {sharded_gate:.1}× below the {sharded_threshold}× gate"
    );
    if let Some(file) = report.emit_if_requested()? {
        println!("\nwrote {file}");
    }
    println!("\nE6-pipeline PASS.");
    Ok(())
}
