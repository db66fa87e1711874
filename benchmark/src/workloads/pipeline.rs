//! `pipeline-steady` and `pipeline-sharded`: the middleware hot path in
//! steady state, on either engine.
//!
//! Each repetition generates a system, builds the runtime with a disabled
//! telemetry handle, and warms up for 12 simulated seconds — past the
//! longest link delay (5 s), monitor stabilisation (6 s) and the first
//! durable checkpoint (8 s). All of that is set-up. The timed window then
//! advances the simulated clock in chunks of 0.1 s. Inside the simulation
//! the workload components send open-loop on the simulated clock; in host
//! time the script is a batch: a fixed number of chunks, as fast as the
//! engine goes.

use super::{
    finish_sim_ratios, note_memory, script_units, NetCounts, Probe, Reading, RunConfig, ShareBase,
    SimWindow,
};
use crate::inputs::{dense, rep_seed, threads, REPS};
use crate::isolated;
use crate::report::{ratio, Outcome};
use crate::stats;
use crate::trace::Tracer;
use redep_core::{RuntimeConfig, ShardedRuntime, SystemRuntime};
use redep_model::{GeneratedSystem, Generator};
use redep_netsim::SimTime;
use redep_prism::PrismHost;
use redep_telemetry::Telemetry;
use std::time::Instant;

/// Shards of the sharded engine.
const SHARDS: usize = 2;
/// Simulated warm-up before the timed window, microseconds.
const WARMUP_US: u64 = 12_000_000;
/// One chunk of the timed window, microseconds of simulated time.
const CHUNK_US: u64 = 100_000;
/// A step of the script is one simulated second.
const CHUNKS_PER_STEP: u64 = 10;
/// Availability is measured over this many trailing steps (10 simulated s).
const AVAILABILITY_STEPS: u64 = 10;
/// The shortest timed window, in steps.
const MIN_STEPS: u64 = 3;

/// Simulated deadlines, in microseconds, of the chunks of 1-based `step`:
/// the step ends on a whole simulated second after the warm-up.
fn chunk_deadlines_us(step: u64) -> impl Iterator<Item = u64> {
    let first = (step - 1) * CHUNKS_PER_STEP + 1;
    (first..first + CHUNKS_PER_STEP).map(|chunk| WARMUP_US + chunk * CHUNK_US)
}

/// The event rate of the last third of a window over that of the first
/// third, from per-chunk `(events, wall seconds)`: ~1 in steady state, where
/// the cold-start transient is 5–6× off. Thirds, because single chunks are
/// too spiky to compare.
fn window_drift(chunks: &[(f64, f64)]) -> f64 {
    let third = (chunks.len() / 3).max(1);
    let rate = |part: &[(f64, f64)]| {
        ratio(
            part.iter().map(|(events, _)| events).sum(),
            part.iter().map(|(_, wall)| wall).sum(),
        )
    };
    ratio(
        rate(&chunks[chunks.len() - third..]),
        rate(&chunks[..third]),
    )
}

/// Either engine under the same Prism middleware.
enum Engine {
    Single(Box<SystemRuntime>),
    Sharded(Box<ShardedRuntime>, usize),
}

impl Engine {
    fn run_until(&mut self, deadline: SimTime) -> u64 {
        match self {
            Engine::Single(rt) => rt.sim_mut().run_until(deadline),
            Engine::Sharded(rt, threads) => rt.sim_mut().run_until(deadline, *threads),
        }
    }

    fn hosts(&self) -> Box<dyn Iterator<Item = &PrismHost> + '_> {
        match self {
            Engine::Single(rt) => Box::new(rt.hosts().iter().filter_map(|&h| rt.host(h))),
            Engine::Sharded(rt, _) => Box::new(rt.hosts().iter().filter_map(|&h| rt.host(h))),
        }
    }

    fn net(&self) -> NetCounts {
        match self {
            Engine::Single(rt) => NetCounts::of(rt.sim().stats()),
            Engine::Sharded(rt, _) => NetCounts::of(&rt.sim().stats()),
        }
    }

    fn read(&self, probe: &Probe) -> Reading {
        let now = match self {
            Engine::Single(rt) => rt.sim().now(),
            Engine::Sharded(rt, _) => rt.sim().now(),
        };
        probe.read(self.hosts(), self.net(), now)
    }

    /// In-flight messages; the sharded engine has no public accessor.
    fn in_flight(&self) -> Option<u64> {
        match self {
            Engine::Single(rt) => Some(rt.sim().in_flight() as u64),
            Engine::Sharded(..) => None,
        }
    }
}

fn runtime_config() -> RuntimeConfig {
    RuntimeConfig {
        seed: 1,
        ..RuntimeConfig::default()
    }
}

/// Builds the engine with a disabled telemetry handle: its counters still
/// count, but nothing is journaled — the hot path is measured, not recorded.
fn build(system: &GeneratedSystem, sharded: bool) -> (Engine, Probe) {
    if sharded {
        let mut rt =
            ShardedRuntime::build(&system.model, &system.initial, &runtime_config(), SHARDS)
                .expect("generated systems build");
        let handles: Vec<Telemetry> = (0..SHARDS).map(|_| Telemetry::disabled()).collect();
        rt.set_telemetry(handles.clone());
        (
            Engine::Sharded(Box::new(rt), threads()),
            Probe::new(handles),
        )
    } else {
        let mut rt = SystemRuntime::build(&system.model, &system.initial, &runtime_config())
            .expect("generated systems build");
        let handle = Telemetry::disabled();
        rt.set_telemetry(handle.clone());
        (Engine::Single(Box::new(rt)), Probe::new(vec![handle]))
    }
}

/// The sharded engine's determinism contract on a short prefix: the merged
/// journal must be byte-identical at one and at two threads.
fn sharded_prefix_is_thread_invariant(cfg: &RunConfig) -> bool {
    let (hosts, comps, secs) = if cfg.smoke {
        (8, 32, 1.0)
    } else {
        (16, 64, 2.0)
    };
    let system =
        Generator::generate(&dense(hosts, comps, cfg.seed)).expect("default ranges generate");
    let journal = |threads: usize| {
        let mut rt =
            ShardedRuntime::build(&system.model, &system.initial, &runtime_config(), SHARDS)
                .expect("generated systems build");
        let handles: Vec<Telemetry> = (0..SHARDS).map(|_| Telemetry::new(1 << 20)).collect();
        rt.set_telemetry(handles.clone());
        rt.run_for(redep_netsim::Duration::from_secs_f64(secs), threads);
        let dropped: u64 = handles.iter().map(|t| t.journal().dropped()).sum();
        (rt.sim().export_merged_jsonl(), dropped)
    };
    let (one, dropped_one) = journal(1);
    let (two, dropped_two) = journal(2);
    !one.is_empty() && one == two && dropped_one == 0 && dropped_two == 0
}

/// Runs the workload on the single-queue (`sharded == false`) or the sharded
/// engine.
pub fn run(cfg: &RunConfig, tracer: &mut Tracer, sharded: bool) -> Outcome {
    let (hosts, comps) = if cfg.smoke { (8, 32) } else { (32, 128) };
    let steps = if cfg.smoke {
        1
    } else {
        script_units(cfg.seconds, 1.0, MIN_STEPS)
    };
    let chunks = steps * CHUNKS_PER_STEP;
    let mut out = Outcome::default();
    if sharded {
        let ok = sharded_prefix_is_thread_invariant(cfg);
        out.check(ok, || {
            "sharded merged journals differ between 1 and 2 threads".to_owned()
        });
    }

    let mut chunk_ms = Vec::new();
    let mut drift = Vec::new();
    let mut sim_s = 0.0;
    let mut base = ShareBase::default();
    let mut shape = isolated::SimShape::default();
    for rep in 0..REPS {
        tracer.set_rep(rep as u32);
        // --- set-up: generate, build, warm up -------------------------
        let setup = tracer.enter("bench.setup");
        let started = Instant::now();
        let span = tracer.enter("model.generate");
        let system = Generator::generate(&dense(hosts, comps, rep_seed(cfg.seed, rep)))
            .expect("default ranges generate");
        tracer.exit(span);
        let span = tracer.enter("core.build");
        let (mut engine, probe) = build(&system, sharded);
        tracer.exit(span);
        let span = tracer.enter("bench.warmup");
        engine.run_until(SimTime::from_micros(WARMUP_US));
        tracer.exit(span);
        out.setup_s.push(started.elapsed().as_secs_f64());
        tracer.exit(setup);

        // --- the timed window ------------------------------------------
        let before = engine.read(&probe);
        let mut tail_before = before;
        let mut sim_events = 0;
        let mut routed_prev = probe.routed();
        let mut window_chunks = Vec::with_capacity(chunks as usize);
        let timed = tracer.enter("bench.timed");
        for step in 1..=steps {
            if steps - step + 1 == AVAILABILITY_STEPS.min(steps) {
                tail_before = engine.read(&probe);
            }
            let (mut step_wall, step_start) = (0.0, routed_prev);
            for deadline_us in chunk_deadlines_us(step) {
                let chunk_started = Instant::now();
                let span = tracer.enter("netsim.run_until");
                sim_events += engine.run_until(SimTime::from_micros(deadline_us));
                tracer.exit(span);
                let wall = chunk_started.elapsed().as_secs_f64();
                let routed_now = probe.routed();
                window_chunks.push(((routed_now - routed_prev) as f64, wall));
                routed_prev = routed_now;
                chunk_ms.push(wall * 1e3);
                step_wall += wall;
            }
            out.step((routed_prev - step_start) as f64, step_wall);
        }
        tracer.exit(timed);

        // --- counts, checks ---------------------------------------------
        let after = engine.read(&probe);
        let journal_dropped = probe.journal_dropped();
        let window = SimWindow {
            sim_events,
            in_flight_end: engine.in_flight().unwrap_or(0),
            journal_dropped,
            ..after.since(&before)
        };
        if let Some(in_flight) = engine.in_flight() {
            let net = engine.net();
            out.check(
                net.sent == net.delivered + net.dropped_loss + net.dropped_disconnected + in_flight,
                || {
                    format!(
                        "rep {rep}: network conservation broken: sent {} != delivered {} + lost {} + \
                         disconnected {} + in flight {in_flight}",
                        net.sent, net.delivered, net.dropped_loss, net.dropped_disconnected
                    )
                },
            );
        }
        out.check(journal_dropped == 0, || {
            format!("rep {rep}: telemetry journal dropped {journal_dropped} records")
        });
        out.check(window.routed > 0, || {
            format!("rep {rep}: the pipeline routed no events")
        });
        out.attempted += window.tally.app_emitted;
        // Modelled link loss is input, not failure; an event the middleware
        // could not route or deliver is.
        out.failed += window.tally.events_undeliverable + window.tally.frames_unroutable;
        let tail = after.since(&tail_before).tally.availability();
        out.availability.push(tail);
        window.digest_into(&mut out.digest);
        out.digest.f64(tail);
        window.add_to(&mut out.layers);
        sim_s += window.sim_s;
        base.add(&window, 0.0);
        drift.push(window_drift(&window_chunks));
        if rep == 0 {
            shape = isolated::SimShape::observe(&system, &window, engine.in_flight());
        }
    }

    note_memory(&mut out);
    out.notes.push(format!(
        "{REPS} systems of {hosts}x{comps}; warm-up {} simulated s; timed window {chunks} chunks of {} simulated ms \
         each; engine: {}",
        WARMUP_US / 1_000_000,
        CHUNK_US / 1000,
        if sharded {
            format!("sharded, {SHARDS} shards, {} threads", threads())
        } else {
            "single queue".to_owned()
        }
    ));
    out.notes.push(format!(
        "chunk wall: n={} p50={:.3} ms{}; window drift (event rate of the last third of the window / the first) = {:.3}",
        chunk_ms.len(),
        stats::median(&chunk_ms),
        stats::tail_percentile(&chunk_ms)
            .map_or(String::new(), |(q, v)| format!(" p{}={v:.3} ms", q * 100.0)),
        stats::mean(&drift),
    ));

    if tracer.enabled() {
        let layers = &mut out.layers;
        base.run_s = tracer.total_s("netsim.run_until");
        layers.set("netsim.run_s", base.run_s);
        layers.set("netsim.chunk_ms.p50", stats::median(&chunk_ms));
        layers.set(
            "netsim.chunk_ms.tail",
            stats::tail_percentile(&chunk_ms).map_or(0.0, |(_, v)| v),
        );
        layers.set("netsim.window_drift", stats::mean(&drift));
        layers.set(
            "model.generate_s",
            tracer.total_s("model.generate") / REPS as f64,
        );
        layers.set("core.build_s", tracer.total_s("core.build") / REPS as f64);
        finish_sim_ratios(layers, sim_s);
        isolated::sim_costs(layers, &shape, &base, cfg.smoke, false);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steps_are_whole_simulated_seconds_of_contiguous_chunks() {
        let first: Vec<u64> = chunk_deadlines_us(1).collect();
        assert_eq!(first.len() as u64, CHUNKS_PER_STEP);
        assert_eq!(first[0], WARMUP_US + CHUNK_US);
        assert_eq!(*first.last().unwrap(), WARMUP_US + 1_000_000);
        let second: Vec<u64> = chunk_deadlines_us(2).collect();
        assert_eq!(second[0], first.last().unwrap() + CHUNK_US);
        assert_eq!(*second.last().unwrap(), WARMUP_US + 2_000_000);
        assert!(first.windows(2).all(|w| w[1] - w[0] == CHUNK_US));
    }

    #[test]
    fn drift_compares_the_rates_of_the_outer_thirds() {
        // Nine chunks of 100 events: the last three take twice as long.
        let mut chunks = vec![(100.0, 1.0); 9];
        assert_eq!(window_drift(&chunks), 1.0);
        for c in &mut chunks[6..] {
            c.1 = 2.0;
        }
        assert_eq!(window_drift(&chunks), 0.5);
        // The middle third does not count.
        chunks[4].1 = 50.0;
        assert_eq!(window_drift(&chunks), 0.5);
        assert_eq!(window_drift(&[(10.0, 1.0)]), 1.0);
    }
}
