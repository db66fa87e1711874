//! E6-pipeline: runtime hot-path throughput of the event pipeline.
//!
//! Drives a full `SystemRuntime` (Prism hosts, workload components, the
//! simulation engine at one shard) at three scales — 8×32, 64×256, 256×1024
//! hosts×components — and measures the wall-clock event rate of the whole
//! pipeline: routing through interned-symbol adjacency, `Arc`-shared
//! payloads, the wire codec, and the calendar-queue scheduler. Each run
//! starts from a freshly built runtime, so the rates are *cold-start*
//! rates over a short horizon (the `pipeline-steady` workload of
//! `BENCHMARK.json` measures the same path after warm-up).
//!
//! Events are counted by the middleware's own `pipeline.events.routed`
//! counter and wire volume by `pipeline.codec.bytes`, giving events/second
//! and bytes/event per cell. Rates are recorded, never gated against a
//! constant: they are readings of one machine.
//!
//! On top of the one-shard cells, the same engine over several shards
//! ([`redep_core::ShardedRuntime`]) is measured at 256×1024 (4 shards) and
//! 1024×8192 (8 shards), with the same-run one-shard rate at 256×1024
//! reported beside it (`speedup_vs_measured_single_shard`) — see
//! EXPERIMENTS.md for the methodology.
//!
//! Both engines also run one **steady-state** cell at 32×128: 12 simulated
//! seconds of warm-up (past the longest link delay, monitor stabilisation
//! and the first periodic checkpoint), then 10 timed seconds — the
//! `pipeline-steady` configuration. Besides its event rate the cell reports
//! exact counts: the durable-journal bytes appended per routed event
//! (`durable_bytes_per_event_32x128`), gated at [`MAX_DURABLE_BYTES_PER_EVENT`]
//! so a return of whole-state journaling fails CI on any machine; the share
//! of those bytes monitoring causes (`monitor_journal_bytes_per_event_32x128`:
//! `monitor_window` + `report_received` records); and the mean journaled
//! monitoring report (`report_payload_bytes_mean_32x128`: one encoded
//! snapshot plus a few framing bytes), gated at [`MAX_REPORT_BYTES`] so a
//! return of a text encoding — or of pair names written twice — fails too.
//! The binary also counts every call into the global allocator: a one-shard
//! run uses no thread, so allocator calls and bytes requested over the
//! timed window, per routed event (`allocs_per_event_32x128`,
//! `alloc_bytes_per_event_32x128`), repeat exactly and the first is gated at
//! [`MAX_ALLOCS_PER_EVENT`] — the tripwire for a per-message buffer that is
//! rebuilt instead of kept.
//!
//! The sharded steady cell also reports what the window protocol says about
//! itself ([`redep_netsim::RoundStats`]): `shard_*_32x128` are exact counts,
//! asserted equal between a one-thread run of the cell and the threaded one.
//! Two wall-clock figures ride along, recorded and never gated (a CI box may
//! have one core; `available_parallelism` and each sharded cell's thread
//! count are in the report for that reason): `thread_speedup_32x128`, the
//! threaded rate over the one-thread rate, and `barrier_wait_share_32x128_t<i>`,
//! the share of the timed window thread `i` spent waiting at the round
//! barrier.
//!
//! `--quick` runs only the 8×32 cells and the steady cells (the CI smoke
//! configuration);
//! `--json` writes `BENCH_pipeline.json` in the shared `ExpReport` schema.
//! `--shard-smoke` skips the benchmark and instead runs the pipeline on one
//! shard (`SystemRuntime`) and on four shards at two thread counts,
//! asserting all three journals are byte-identical (the CI one-engine and
//! determinism gate).

use redep_bench::{print_table, ExpReport};
use redep_core::{RuntimeConfig, ShardedRuntime, SystemRuntime};
use redep_model::{Generator, GeneratorConfig};
use redep_netsim::{RoundStats, SimTime};
use redep_telemetry::Telemetry;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The system allocator with two relaxed counters in front: calls that
/// obtain memory (`alloc`, `alloc_zeroed`, `realloc`) and the bytes they ask
/// for. Statistics only — they publish no other data.
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

fn count_alloc(bytes: usize) {
    ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
    ALLOC_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc(layout.size());
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_alloc(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc(new_size);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Ceiling on durable-journal bytes per routed event in the 32×128 steady
/// cell. Event deliveries and timers take ~27 B/event; journaling every
/// host's monitoring snapshot on every report took 413.
const MAX_DURABLE_BYTES_PER_EVENT: f64 = 100.0;

/// Ceiling on the mean journaled monitoring report in the 32×128 steady
/// cell (~130 component pairs per host). The JSON document took 6 460 B.
const MAX_REPORT_BYTES: f64 = 4_500.0;

/// `allocs_per_event_32x128` at the commit before the per-message path
/// kept its buffers (`host_actions`/`outbox` regrown every flush, a boxed
/// closure per delivery, a second buffer per decoded frame).
const PARENT_ALLOCS_PER_EVENT: f64 = 5.5556;

/// Ceiling on allocator calls per routed event in the 32×128 steady cell
/// (one shard): 0.7 × what that commit took.
const MAX_ALLOCS_PER_EVENT: f64 = 0.7 * PARENT_ALLOCS_PER_EVENT;

/// The steady-state cell: (hosts, components, warm-up s, timed s).
const STEADY: (usize, usize, f64, f64) = (32, 128, 12.0, 10.0);

/// One measured cell.
struct Sample {
    /// Events routed through component handlers (`pipeline.events.routed`).
    events: u64,
    /// Bytes produced by the wire codec (`pipeline.codec.bytes`).
    bytes: u64,
    /// Bytes the hosts appended to their durable journals.
    durable_bytes: u64,
    /// The part of `durable_bytes` in `monitor_window` and `report_received`
    /// records.
    monitor_journal_bytes: u64,
    /// Calls into the global allocator over the timed window.
    allocs: u64,
    /// Bytes those calls requested.
    alloc_bytes: u64,
    /// Wall-clock seconds for the simulated horizon.
    wall_secs: f64,
    /// Per-chunk throughput samples (events/s over each horizon slice),
    /// feeding the report's p50/p90/p99 summary.
    chunk_rates: Vec<f64>,
    /// Journal-overflow count (always 0 with a disabled handle; recorded so
    /// `validate_report` can gate on it).
    journal_dropped: u64,
    /// `(kind, records, bytes)` of the durable journals since the build,
    /// from the `prism.durable.journal.{records,bytes}.<kind>` counters.
    journal_kinds: Vec<(&'static str, u64, u64)>,
    /// Sharded cells: the window protocol's exact report over the whole run
    /// (warm-up included), and per thread the share of the timed window it
    /// waited at the round barrier (wall-clock).
    rounds: RoundStats,
    barrier_wait_shares: Vec<f64>,
}

impl Sample {
    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.wall_secs.max(1e-9)
    }
    fn bytes_per_event(&self) -> f64 {
        self.bytes as f64 / self.events.max(1) as f64
    }
    fn allocs_per_event(&self) -> f64 {
        self.allocs as f64 / self.events.max(1) as f64
    }
    fn alloc_bytes_per_event(&self) -> f64 {
        self.alloc_bytes as f64 / self.events.max(1) as f64
    }
    fn durable_bytes_per_event(&self) -> f64 {
        self.durable_bytes as f64 / self.events.max(1) as f64
    }
    fn monitor_journal_bytes_per_event(&self) -> f64 {
        self.monitor_journal_bytes as f64 / self.events.max(1) as f64
    }
    /// Mean `report_received` record, in bytes (0 when none was journaled).
    fn report_bytes_mean(&self) -> f64 {
        let (_, records, bytes) = self.journal_kinds[kind_index("report_received")];
        bytes as f64 / records.max(1) as f64
    }
}

fn kind_index(kind: &str) -> usize {
    let index = redep_prism::RECORD_KINDS.iter().position(|k| *k == kind);
    index.expect("a journal record kind")
}

/// Journal bytes in the two record kinds monitoring causes.
fn monitor_bytes(kinds: &[(&'static str, u64, u64)]) -> u64 {
    kinds[kind_index("monitor_window")].2 + kinds[kind_index("report_received")].2
}

/// Reads the per-kind durable-journal counters of `handles`.
fn journal_kinds(handles: &[Telemetry]) -> Vec<(&'static str, u64, u64)> {
    let read = |name: String| -> u64 {
        handles
            .iter()
            .map(|t| t.metrics().counter(&name).get())
            .sum()
    };
    redep_prism::RECORD_KINDS
        .iter()
        .map(|kind| {
            (
                *kind,
                read(format!("prism.durable.journal.records.{kind}")),
                read(format!("prism.durable.journal.bytes.{kind}")),
            )
        })
        .collect()
}

/// Journal bytes appended so far, summed over `hosts`.
fn durable_bytes<'a>(hosts: impl Iterator<Item = &'a redep_prism::PrismHost>) -> u64 {
    hosts
        .map(|host| host.services().durable().bytes_appended())
        .sum()
}

/// Builds a runtime at the given scale, runs `warmup` simulated seconds
/// untimed, then times `horizon` more, reading the pipeline counters over
/// the timed part.
fn run_cell(
    hosts: usize,
    comps: usize,
    warmup: f64,
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
    rt.sim_mut().run_until(SimTime::from_secs_f64(warmup));
    let journaled =
        |rt: &SystemRuntime| durable_bytes(rt.hosts().iter().filter_map(|&h| rt.host(h)));
    let (events_before, bytes_before, durable_before) = (routed.get(), bytes.get(), journaled(&rt));
    let monitor_before = monitor_bytes(&journal_kinds(std::slice::from_ref(&telemetry)));
    let mut chunk_rates = Vec::with_capacity(CHUNKS as usize);
    let mut prev_events = events_before;
    let allocated = || {
        (
            ALLOC_CALLS.load(Ordering::Relaxed),
            ALLOC_BYTES.load(Ordering::Relaxed),
        )
    };
    let (allocs_before, alloc_bytes_before) = allocated();
    let started = Instant::now();
    for chunk in 1..=CHUNKS {
        let chunk_started = Instant::now();
        rt.sim_mut().run_until(SimTime::from_secs_f64(
            warmup + horizon * f64::from(chunk) / f64::from(CHUNKS),
        ));
        let chunk_secs = chunk_started.elapsed().as_secs_f64();
        let now_events = routed.get();
        chunk_rates.push((now_events - prev_events) as f64 / chunk_secs.max(1e-9));
        prev_events = now_events;
    }
    let wall_secs = started.elapsed().as_secs_f64();
    let (allocs, alloc_bytes) = allocated();
    let journal_kinds = journal_kinds(std::slice::from_ref(&telemetry));
    Ok(Sample {
        allocs: allocs - allocs_before,
        alloc_bytes: alloc_bytes - alloc_bytes_before,
        events: routed.get() - events_before,
        bytes: bytes.get() - bytes_before,
        durable_bytes: journaled(&rt) - durable_before,
        monitor_journal_bytes: monitor_bytes(&journal_kinds) - monitor_before,
        wall_secs,
        chunk_rates,
        journal_dropped: telemetry.journal().dropped(),
        journal_kinds,
        rounds: RoundStats::default(),
        barrier_wait_shares: Vec::new(),
    })
}

/// Builds a *sharded* runtime at the given scale and runs it like
/// [`run_cell`], reading the same pipeline counters summed across the
/// per-shard telemetry handles.
fn run_sharded_cell(
    hosts: usize,
    comps: usize,
    warmup: f64,
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
    rt.sim_mut()
        .run_until(SimTime::from_secs_f64(warmup), threads);
    let journaled =
        |rt: &ShardedRuntime| durable_bytes(rt.hosts().iter().filter_map(|&h| rt.host(h)));
    let (events_before, bytes_before, durable_before) =
        (total(&routed), total(&bytes), journaled(&rt));
    let monitor_before = monitor_bytes(&journal_kinds(&handles));
    let waited_before = rt.sim().barrier_wait_secs();
    let mut chunk_rates = Vec::with_capacity(CHUNKS as usize);
    let mut prev_events = events_before;
    let started = Instant::now();
    for chunk in 1..=CHUNKS {
        let chunk_started = Instant::now();
        rt.sim_mut().run_until(
            SimTime::from_secs_f64(warmup + horizon * f64::from(chunk) / f64::from(CHUNKS)),
            threads,
        );
        let chunk_secs = chunk_started.elapsed().as_secs_f64();
        let now_events = total(&routed);
        chunk_rates.push((now_events - prev_events) as f64 / chunk_secs.max(1e-9));
        prev_events = now_events;
    }
    let wall_secs = started.elapsed().as_secs_f64();
    let journal_kinds = journal_kinds(&handles);
    // One entry per thread: only the first shard of a chunk ever waits.
    let waited = rt.sim().barrier_wait_secs();
    let barrier_wait_shares = (waited.iter().zip(&waited_before))
        .filter(|(after, _)| **after > 0.0)
        .map(|(after, before)| (after - before) / wall_secs.max(1e-9))
        .collect();
    Ok(Sample {
        // Channel and barrier timing make multi-threaded counts vary run
        // to run; only the one-shard cell's are reported.
        allocs: 0,
        alloc_bytes: 0,
        events: total(&routed) - events_before,
        bytes: total(&bytes) - bytes_before,
        durable_bytes: journaled(&rt) - durable_before,
        monitor_journal_bytes: monitor_bytes(&journal_kinds) - monitor_before,
        wall_secs,
        chunk_rates,
        journal_dropped: handles.iter().map(|t| t.journal().dropped()).sum(),
        journal_kinds,
        rounds: rt.sim().round_stats(),
        barrier_wait_shares,
    })
}

/// Threads for `shards` shards. Never oversubscribe: a thread beyond the
/// machine's cores only makes the others yield to it at every barrier.
/// Results are byte-identical at any thread count (the shard-smoke gate), so
/// the thread count is purely an execution detail.
fn threads_for(shards: usize) -> usize {
    cores().min(shards)
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// The CI one-engine and determinism gate: runs the pipeline with
/// journaling enabled on one shard (`SystemRuntime`) and on four shards at
/// one and at four threads, and asserts the three journals are
/// byte-identical.
fn shard_smoke() -> Result<(), Box<dyn std::error::Error>> {
    const SHARDS: usize = 4;
    let system = Generator::generate(&GeneratorConfig::sized(16, 64).with_seed(11))?;
    let runtime_config = RuntimeConfig {
        seed: 1,
        ..RuntimeConfig::default()
    };
    let span = redep_netsim::Duration::from_secs_f64(5.0);
    // Large journals: the byte-equality contract only holds when no
    // journal overflows its ring.
    let handles =
        |n: usize| -> Vec<Telemetry> { (0..n).map(|_| Telemetry::new(1 << 20)).collect() };
    let no_overflow = |handles: &[Telemetry]| {
        let dropped: u64 = handles.iter().map(|t| t.journal().dropped()).sum();
        assert_eq!(dropped, 0, "journal overflowed; raise capacity");
    };
    let run = |threads: usize| -> Result<String, Box<dyn std::error::Error>> {
        let mut rt =
            ShardedRuntime::build(&system.model, &system.initial, &runtime_config, SHARDS)?;
        let handles = handles(SHARDS);
        rt.set_telemetry(handles.clone());
        rt.run_for(span, threads);
        no_overflow(&handles);
        Ok(rt.sim().export_merged_jsonl())
    };
    let one_thread = run(1)?;
    let four_threads = run(4)?;
    assert!(
        !one_thread.is_empty(),
        "shard smoke produced an empty journal"
    );
    assert_eq!(
        one_thread, four_threads,
        "shard smoke FAILED: journals diverged between 1 and 4 threads"
    );
    let mut rt = SystemRuntime::build(&system.model, &system.initial, &runtime_config)?;
    let handle = handles(1);
    rt.set_telemetry(handle[0].clone());
    rt.run_for(span);
    no_overflow(&handle);
    assert_eq!(
        rt.telemetry().export_jsonl(),
        one_thread,
        "shard smoke FAILED: the one-shard SystemRuntime journal differs from the {SHARDS}-shard one"
    );
    println!(
        "shard smoke PASS: {} journal bytes identical on 1 shard and on {SHARDS} shards at 1 and 4 threads.",
        one_thread.len()
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
        "quick mode: 8x32 cold (10 s simulated) and the 32x128 steady cells"
    } else {
        "full mode: 8x32 / 64x256 / 256x1024 cold, horizons 10/5/1 s simulated, and the 32x128 steady cells"
    });
    // What every sharded rate below ran on.
    report.metric("available_parallelism", cores() as f64);

    let mut rows = Vec::new();
    let mut measured_single_256 = None;
    for &(hosts, comps, horizon) in scales {
        let sample = run_cell(hosts, comps, 0.0, horizon)?;
        assert!(
            sample.events > 0,
            "{hosts}x{comps}: pipeline routed no events"
        );
        let key = format!("{hosts}x{comps}");
        report.metric(format!("events_per_sec_{key}"), sample.events_per_sec());
        report.metric(format!("bytes_per_event_{key}"), sample.bytes_per_event());
        report.percentiles_of(format!("chunk_events_per_sec_{key}"), &sample.chunk_rates);
        report.add_journal_dropped(sample.journal_dropped);
        if (hosts, comps) == (256, 1024) {
            measured_single_256 = Some(sample.events_per_sec());
        }
        rows.push(vec![
            key,
            format!("{:.0}", sample.events_per_sec()),
            format!("{:.0}", sample.bytes_per_event()),
        ]);
    }
    print_table(
        "E6-pipeline: wall-clock throughput, one shard (events routed per second)",
        &["k×n", "ev/s", "B/ev"],
        &rows,
    );

    // Multi-shard cells: quick mode sanity-checks a tiny configuration;
    // full mode measures 256×1024 on 4 shards and the 1024×8192 scale point
    // on 8 shards.
    let sharded_scales: &[(usize, usize, f64, usize)] = if quick {
        &[(8, 32, 10.0, 2)]
    } else {
        &[(256, 1024, 1.0, 4), (1024, 8192, 0.25, 8)]
    };
    let mut sharded_rows = Vec::new();
    for &(hosts, comps, horizon, shards) in sharded_scales {
        let threads = threads_for(shards);
        let sample = run_sharded_cell(hosts, comps, 0.0, horizon, shards, threads)?;
        assert!(
            sample.events > 0,
            "{hosts}x{comps} sharded: pipeline routed no events"
        );
        let key = format!("{hosts}x{comps}");
        report.metric(
            format!("events_per_sec_{key}_sharded{shards}"),
            sample.events_per_sec(),
        );
        report.metric(format!("threads_{key}_sharded{shards}"), threads as f64);
        report.percentiles_of(
            format!("chunk_events_per_sec_{key}_sharded{shards}"),
            &sample.chunk_rates,
        );
        report.add_journal_dropped(sample.journal_dropped);
        let mut vs_one = String::from("-");
        if let (Some(one), (256, 1024)) = (measured_single_256, (hosts, comps)) {
            let speedup = sample.events_per_sec() / one.max(1e-9);
            report.metric("speedup_vs_measured_single_shard", speedup);
            vs_one = format!("{speedup:.1}×");
        }
        sharded_rows.push(vec![
            key,
            format!("{shards}"),
            format!("{threads}"),
            format!("{:.0}", sample.events_per_sec()),
            vs_one,
        ]);
    }
    print_table(
        "E6-pipeline: wall-clock throughput, several shards",
        &["k×n", "shards", "threads", "ev/s", "vs 1 shard, same run"],
        &sharded_rows,
    );

    // Steady-state cells, one shard and several, in both modes: the rate
    // after warm-up, and the exact counts of the one-shard cell.
    const STEADY_SHARDS: usize = 2;
    let (hosts, comps, warmup, horizon) = STEADY;
    let key = format!("{hosts}x{comps}");
    let single = run_cell(hosts, comps, warmup, horizon)?;
    let steady_threads = threads_for(STEADY_SHARDS);
    let sharded = run_sharded_cell(hosts, comps, warmup, horizon, STEADY_SHARDS, steady_threads)?;
    let one_thread = run_sharded_cell(hosts, comps, warmup, horizon, STEADY_SHARDS, 1)?;
    assert_eq!(
        sharded.rounds, one_thread.rounds,
        "pipeline FAILED: the window protocol's counts depend on the thread count"
    );
    let durable_per_event = single.durable_bytes_per_event();
    let report_bytes = single.report_bytes_mean();
    report.metric(
        format!("steady_events_per_sec_{key}"),
        single.events_per_sec(),
    );
    report.metric(
        format!("steady_events_per_sec_{key}_sharded{STEADY_SHARDS}"),
        sharded.events_per_sec(),
    );
    report.metric(
        format!("threads_{key}_sharded{STEADY_SHARDS}"),
        steady_threads as f64,
    );
    // Wall-clock, recorded and not gated: ≈ 1 by construction on one core.
    let thread_speedup = sharded.events_per_sec() / one_thread.events_per_sec().max(1e-9);
    report.metric(format!("thread_speedup_{key}"), thread_speedup);
    for (thread, share) in sharded.barrier_wait_shares.iter().enumerate() {
        report.metric(format!("barrier_wait_share_{key}_t{thread}"), *share);
    }
    let rounds = &sharded.rounds;
    let events_per_round = rounds.events as f64 / rounds.rounds.max(1) as f64;
    let cross_shard_ratio =
        rounds.cross_shard as f64 / (rounds.cross_shard + rounds.same_shard).max(1) as f64;
    let exact_counts = [
        ("rounds", rounds.rounds as f64),
        ("lookahead_us", rounds.lookahead_us as f64),
        ("events_per_round_mean", events_per_round),
        ("cross_shard_ratio", cross_shard_ratio),
        ("deepest_mailbox", rounds.deepest_mailbox as f64),
    ];
    for (name, value) in exact_counts {
        report.metric(format!("shard_{name}_{key}"), value);
    }
    for shard in 0..rounds.shard_events.len() {
        let per_shard = [
            ("events", rounds.shard_events[shard]),
            ("max_window_events", rounds.max_window_events[shard]),
            ("idle_rounds", rounds.idle_rounds[shard]),
        ];
        for (name, value) in per_shard {
            report.metric(format!("shard_{name}_{key}_s{shard}"), value as f64);
        }
    }
    report.metric(format!("durable_bytes_per_event_{key}"), durable_per_event);
    report.metric(
        format!("monitor_journal_bytes_per_event_{key}"),
        single.monitor_journal_bytes_per_event(),
    );
    report.metric(format!("report_payload_bytes_mean_{key}"), report_bytes);
    let allocs_per_event = single.allocs_per_event();
    report.metric(format!("allocs_per_event_{key}"), allocs_per_event);
    report.metric(
        format!("alloc_bytes_per_event_{key}"),
        single.alloc_bytes_per_event(),
    );
    report.add_journal_dropped(single.journal_dropped + sharded.journal_dropped);
    print_table(
        "E6-pipeline: steady state (12 s warm-up, 10 s timed)",
        &[
            "k×n",
            "engine",
            "ev/s",
            "durable B/ev",
            "of it monitoring",
            "report B",
            "allocs/ev",
            "alloc B/ev",
        ],
        &[
            ("1 shard".to_owned(), &single),
            (format!("{STEADY_SHARDS} shards"), &sharded),
        ]
        .map(|(engine, cell)| {
            vec![
                key.clone(),
                engine,
                format!("{:.0}", cell.events_per_sec()),
                format!("{:.1}", cell.durable_bytes_per_event()),
                format!("{:.1}", cell.monitor_journal_bytes_per_event()),
                format!("{:.0}", cell.report_bytes_mean()),
                format!("{:.4}", cell.allocs_per_event()),
                format!("{:.1}", cell.alloc_bytes_per_event()),
            ]
        }),
    );

    print_table(
        "E6-pipeline: the window protocol on the sharded steady cell (22 s, exact counts; waits are wall-clock)",
        &[
            "threads",
            "vs 1 thread",
            "rounds",
            "lookahead µs",
            "ev/round mean",
            "max by shard",
            "cross-shard",
            "deepest mailbox",
            "idle rounds by shard",
            "events by shard",
            "barrier wait by thread",
        ],
        &[vec![
            format!("{steady_threads} of {} cores", cores()),
            format!("{thread_speedup:.2}×"),
            format!("{}", rounds.rounds),
            format!("{}", rounds.lookahead_us),
            format!("{events_per_round:.0}"),
            format!("{:?}", rounds.max_window_events),
            format!("{:.1} %", 100.0 * cross_shard_ratio),
            format!("{}", rounds.deepest_mailbox),
            format!("{:?}", rounds.idle_rounds),
            format!("{:?}", rounds.shard_events),
            (sharded.barrier_wait_shares.iter())
                .map(|share| format!("{:.0} %", 100.0 * share))
                .collect::<Vec<_>>()
                .join(" "),
        ]],
    );

    // Where the one-shard cell's journal bytes went (warm-up included):
    // a record kind with a large mean size is state journaled whole.
    let kind_rows: Vec<Vec<String>> = single
        .journal_kinds
        .iter()
        .filter(|(_, records, _)| *records > 0)
        .map(|(kind, records, bytes)| {
            vec![
                (*kind).to_owned(),
                format!("{records}"),
                format!("{bytes}"),
                format!("{:.0}", *bytes as f64 / *records as f64),
            ]
        })
        .collect();
    print_table(
        "E6-pipeline: durable journal by record kind (32x128, 1 shard, 22 s)",
        &["kind", "records", "bytes", "mean B"],
        &kind_rows,
    );

    // Acceptance: exact counts only, so the gates hold on any machine.
    let durable_pass = single.events > 0 && durable_per_event <= MAX_DURABLE_BYTES_PER_EVENT;
    let report_pass = report_bytes > 0.0 && report_bytes <= MAX_REPORT_BYTES;
    let allocs_pass = allocs_per_event > 0.0 && allocs_per_event <= MAX_ALLOCS_PER_EVENT;
    report.set_passed(durable_pass && report_pass && allocs_pass);
    report.note(format!(
        "acceptance: durable journal ≤{MAX_DURABLE_BYTES_PER_EVENT} B per routed event in the \
         32x128 steady cell (observed {durable_per_event:.1}); mean journaled monitoring report \
         ≤{MAX_REPORT_BYTES} B (observed {report_bytes:.0}); allocator calls per routed event \
         ≤{MAX_ALLOCS_PER_EVENT:.4} = 0.7 × the {PARENT_ALLOCS_PER_EVENT} measured before the \
         per-message path kept its buffers (observed {allocs_per_event:.4})"
    ));
    assert!(
        durable_pass,
        "pipeline FAILED: {durable_per_event:.1} durable journal bytes per event, above the \
         {MAX_DURABLE_BYTES_PER_EVENT} B gate"
    );
    assert!(
        report_pass,
        "pipeline FAILED: mean journaled monitoring report of {report_bytes:.0} B, outside the \
         (0, {MAX_REPORT_BYTES}] B gate"
    );
    assert!(
        allocs_pass,
        "pipeline FAILED: {allocs_per_event:.4} allocator calls per routed event, outside the \
         (0, {MAX_ALLOCS_PER_EVENT:.4}] gate"
    );
    if let Some(file) = report.emit_if_requested()? {
        println!("\nwrote {file}");
    }
    println!("\nE6-pipeline PASS.");
    Ok(())
}
