//! E6-pipeline: runtime hot-path throughput of the event pipeline.
//!
//! Drives a full [`redep_core::ShardedRuntime`] (Prism hosts, workload
//! components, the simulation engine) at three one-shard scales — 8×32,
//! 64×256, 256×1024 hosts×components — and prints the wall-clock event rate
//! of the whole pipeline: routing through interned-symbol adjacency,
//! `Arc`-shared payloads, the wire codec, and the calendar-queue scheduler.
//! Each run starts from a freshly built runtime, so the rates are
//! *cold-start* rates over a short horizon (the `pipeline-steady` workload of
//! `BENCHMARK.json` measures the same path after warm-up).
//!
//! Events are counted by the middleware's own `pipeline.events.routed`
//! counter and wire volume by `pipeline.codec.bytes`. The same engine over
//! several shards is measured at 256×1024 (4 shards) and 1024×8192 (8
//! shards), beside the same-run one-shard rate at 256×1024 — see
//! EXPERIMENTS.md for the methodology. Rates, thread counts and barrier waits
//! are readings of one machine: the tables print them, the report holds
//! none of them.
//!
//! The report holds what one run reproduces exactly. One **steady-state**
//! cell at 32×128 runs on one shard and on two: 12 simulated seconds of
//! warm-up (past the longest link delay, monitor stabilisation and the first
//! periodic checkpoint), then 10 timed seconds — the `pipeline-steady`
//! configuration. The one-shard cell's exact counts are gated: the
//! durable-journal bytes appended per routed event
//! (`durable_bytes_per_event_32x128`, at most [`MAX_DURABLE_BYTES_PER_EVENT`],
//! so a return of whole-state journaling fails on any machine); the share of
//! those bytes monitoring causes (`monitor_journal_bytes_per_event_32x128`:
//! `monitor_window` + `report_received` records); and the mean journaled
//! monitoring report (`report_payload_bytes_mean_32x128`: one encoded
//! snapshot plus a few framing bytes, at most [`MAX_REPORT_BYTES`], so a
//! return of a text encoding — or of pair names written twice — fails too).
//! The binary also counts every call into the global allocator: a one-shard
//! run uses no thread, so allocator calls and bytes requested over the timed
//! window, per routed event (`allocs_per_event_32x128`,
//! `alloc_bytes_per_event_32x128`), repeat exactly and the first is gated at
//! [`MAX_ALLOCS_PER_EVENT`] — the tripwire for a per-message buffer that is
//! rebuilt instead of kept.
//!
//! The two-shard steady cell reports what the window protocol says about
//! itself ([`redep_netsim::RoundStats`]): `shard_*_32x128` are exact counts,
//! asserted equal between a one-thread run of the cell and the threaded one.
//! Its table also prints the threaded rate over the one-thread rate and the
//! share of the timed window each thread waited at the round barrier.
//!
//! `--quick` runs only the 8×32 cells and the steady cells (the CI smoke
//! configuration, and the checked-in `BENCH_pipeline.json`);
//! `--json` writes `BENCH_pipeline.json` in the shared `ExpReport` schema.
//! `--shard-smoke` skips the benchmark and instead runs the pipeline on one
//! shard (`SystemRuntime`) and on four shards at two thread counts,
//! asserting all three journals are byte-identical (the CI one-engine and
//! determinism gate).

use redep_bench::{print_table, Bound, ExpReport};
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
    /// Calls into the global allocator over the timed window (one-shard
    /// cells; 0 for several shards).
    allocs: u64,
    /// Bytes those calls requested.
    alloc_bytes: u64,
    /// Wall-clock seconds for the simulated horizon.
    wall_secs: f64,
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

/// Builds a runtime of `shards` shards at the given scale, runs `warmup`
/// simulated seconds untimed on `threads` threads, then times `horizon`
/// more, reading the pipeline counters summed across the per-shard
/// telemetry handles over the timed part.
fn run_cell(
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
    // Disabled handles journal nothing (we are measuring the hot path, not
    // recording it) but their counters still count.
    let handles: Vec<Telemetry> = (0..shards).map(|_| Telemetry::disabled()).collect();
    rt.set_telemetry(handles.clone());
    let total = |name: &str| -> u64 {
        let counters = handles.iter().map(|t| t.metrics().counter(name).get());
        counters.sum()
    };
    let (routed, bytes) = ("pipeline.events.routed", "pipeline.codec.bytes");
    let allocated = || {
        (
            ALLOC_CALLS.load(Ordering::Relaxed),
            ALLOC_BYTES.load(Ordering::Relaxed),
        )
    };

    // The horizon runs in ten equal slices: every slice end also ends a
    // round of the window protocol, so the slices are part of what the
    // sharded cell's exact round counts measure.
    const CHUNKS: u32 = 10;
    rt.sim_mut()
        .run_until(SimTime::from_secs_f64(warmup), threads);
    let journaled =
        |rt: &ShardedRuntime| durable_bytes(rt.hosts().iter().filter_map(|&h| rt.host(h)));
    let (events_before, bytes_before, durable_before) =
        (total(routed), total(bytes), journaled(&rt));
    let monitor_before = monitor_bytes(&journal_kinds(&handles));
    let waited_before = rt.sim().barrier_wait_secs();
    let (allocs_before, alloc_bytes_before) = allocated();
    let started = Instant::now();
    for chunk in 1..=CHUNKS {
        rt.sim_mut().run_until(
            SimTime::from_secs_f64(warmup + horizon * f64::from(chunk) / f64::from(CHUNKS)),
            threads,
        );
    }
    let wall_secs = started.elapsed().as_secs_f64();
    // Channel and barrier timing make multi-threaded allocation counts vary
    // run to run; a one-shard run uses no thread, so only its are exact.
    let (calls, requested) = allocated();
    let (allocs, alloc_bytes) = if shards == 1 {
        (calls - allocs_before, requested - alloc_bytes_before)
    } else {
        (0, 0)
    };
    let journal_kinds = journal_kinds(&handles);
    // One entry per thread: only the first shard of a chunk ever waits.
    let waited = rt.sim().barrier_wait_secs();
    let barrier_wait_shares = (waited.iter().zip(&waited_before))
        .filter(|(after, _)| **after > 0.0)
        .map(|(after, before)| (after - before) / wall_secs.max(1e-9))
        .collect();
    Ok(Sample {
        allocs,
        alloc_bytes,
        events: total(routed) - events_before,
        bytes: total(bytes) - bytes_before,
        durable_bytes: journaled(&rt) - durable_before,
        monitor_journal_bytes: monitor_bytes(&journal_kinds) - monitor_before,
        wall_secs,
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

    let mut rows = Vec::new();
    let mut measured_single_256 = None;
    for &(hosts, comps, horizon) in scales {
        let sample = run_cell(hosts, comps, 0.0, horizon, 1, 1)?;
        let key = format!("{hosts}x{comps}");
        let events = sample.events as f64;
        report.gate(format!("events_{key}"), events, Bound::AtLeast(1.0));
        report.metric(format!("bytes_per_event_{key}"), sample.bytes_per_event());
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
        let sample = run_cell(hosts, comps, 0.0, horizon, shards, threads)?;
        let key = format!("{hosts}x{comps}");
        let events = sample.events as f64;
        report.gate(
            format!("events_{key}_sharded{shards}"),
            events,
            Bound::AtLeast(1.0),
        );
        report.add_journal_dropped(sample.journal_dropped);
        let vs_one = match (measured_single_256, (hosts, comps)) {
            (Some(one), (256, 1024)) => format!("{:.1}×", sample.events_per_sec() / one.max(1e-9)),
            _ => "-".to_owned(),
        };
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
    let single = run_cell(hosts, comps, warmup, horizon, 1, 1)?;
    let steady_threads = threads_for(STEADY_SHARDS);
    let sharded = run_cell(hosts, comps, warmup, horizon, STEADY_SHARDS, steady_threads)?;
    let one_thread = run_cell(hosts, comps, warmup, horizon, STEADY_SHARDS, 1)?;
    assert_eq!(
        sharded.rounds, one_thread.rounds,
        "pipeline FAILED: the window protocol's counts depend on the thread count"
    );
    let thread_speedup = sharded.events_per_sec() / one_thread.events_per_sec().max(1e-9);
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
    // The one-shard cell's exact counts, gated so the gates hold on any
    // machine. A journaled report is never empty, so a mean of ≥ 1 B says
    // one was journaled.
    let events = single.events as f64;
    report.gate(format!("events_{key}"), events, Bound::AtLeast(1.0));
    report.gate(
        format!("durable_bytes_per_event_{key}"),
        single.durable_bytes_per_event(),
        Bound::AtMost(MAX_DURABLE_BYTES_PER_EVENT),
    );
    report.metric(
        format!("monitor_journal_bytes_per_event_{key}"),
        single.monitor_journal_bytes_per_event(),
    );
    let report_bytes = single.report_bytes_mean();
    let report_key = format!("report_payload_bytes_mean_{key}");
    report.gate(&report_key, report_bytes, Bound::AtLeast(1.0));
    report.gate(report_key, report_bytes, Bound::AtMost(MAX_REPORT_BYTES));
    let allocs = single.allocs as f64;
    report.gate(format!("allocs_{key}"), allocs, Bound::AtLeast(1.0));
    report.gate(
        format!("allocs_per_event_{key}"),
        single.allocs_per_event(),
        Bound::AtMost(MAX_ALLOCS_PER_EVENT),
    );
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

    report.finish()
}
