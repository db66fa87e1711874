//! `fault-recover`: the decentralized (DecAp) loop under a scripted crash,
//! partition and link degradation, with the telemetry journal **on**.
//!
//! The same layers as the pipeline workloads, used differently: durable
//! *replay* beside append, transport *retransmission and backoff* beside
//! first sends, the journal recording beside the disabled handle, the other
//! framework. A hot-path gain bought by weakening recovery shows here.
//!
//! Set-up generates a sparse system, builds the framework, installs the
//! JSON-round-tripped fault plan and runs the first 10 simulated seconds
//! (before any fault). The timed script repeats a block of five 1 s windows
//! and a framework cycle until the horizon is passed.

use super::{finish_sim_ratios, note_memory, script_units, Probe, RunConfig, ShareBase, SimWindow};
use crate::inputs::{fault_plan, rep_seed, sparse, FAULTS_CLEAR_AT, REPS};
use crate::isolated;
use crate::report::Outcome;
use crate::stats;
use crate::trace::Tracer;
use redep_core::{DecentralizedFramework, RecoveryPolicy, RuntimeConfig};
use redep_model::{Availability, Generator};
use redep_netsim::Duration;
use redep_telemetry::Telemetry;
use std::time::Instant;

/// Simulated seconds run during set-up; the first fault starts at 20 s.
const WARMUP_WINDOWS: u64 = 10;
/// A framework cycle follows every this many 1 s windows.
const WINDOWS_PER_CYCLE: u64 = 5;
/// The script never ends before the faults have cleared and the system had
/// time to recover.
const MIN_HORIZON_WINDOWS: u64 = 90;
/// Availability is measured over this many trailing windows.
const AVAILABILITY_WINDOWS: usize = 10;
/// Capacity of the telemetry journal; overflowing it fails the run.
const JOURNAL_CAPACITY: usize = 1 << 22;

/// Runs the workload.
pub fn run(cfg: &RunConfig, tracer: &mut Tracer) -> Outcome {
    let (hosts, comps) = if cfg.smoke { (8, 32) } else { (24, 192) };
    let horizon = if cfg.smoke {
        MIN_HORIZON_WINDOWS
    } else {
        script_units(cfg.seconds, 9.0, MIN_HORIZON_WINDOWS)
    };
    let window_span = Duration::from_secs_f64(1.0);
    let effect_wait = Duration::from_secs_f64(20.0);
    let mut out = Outcome::default();
    let mut cycle_s = Vec::new();
    let mut recovery_sim_s = Vec::new();
    let mut visible = ShareBase::default();
    let mut visible_sim_s = 0.0;
    let mut shape = isolated::SimShape::default();

    for rep in 0..REPS {
        tracer.set_rep(rep as u32);
        // --- set-up ---------------------------------------------------------
        let setup = tracer.enter("bench.setup");
        let started = Instant::now();
        let span = tracer.enter("model.generate");
        let system = Generator::generate(&sparse(hosts, comps, rep_seed(cfg.seed, rep)))
            .expect("sparse ranges generate");
        tracer.exit(span);
        let span = tracer.enter("core.build");
        let runtime_config = RuntimeConfig {
            seed: 1,
            ..RuntimeConfig::default()
        };
        let mut fw = DecentralizedFramework::new(
            system.model.clone(),
            system.initial.clone(),
            &runtime_config,
        )
        .expect("generated systems build");
        fw.set_recovery_policy(RecoveryPolicy::reconcile(2));
        let telemetry = Telemetry::new(JOURNAL_CAPACITY);
        fw.runtime_mut().set_telemetry(telemetry.clone());
        fw.runtime_mut()
            .sim_mut()
            .install_fault_plan(&fault_plan(&system.model));
        tracer.exit(span);
        let span = tracer.enter("bench.warmup");
        // Windowed availability samples (simulated end time, availability),
        // taken from the very start: the pre-fault ones are the baseline.
        let probe = Probe::on(fw.runtime());
        let mut samples: Vec<(f64, f64)> = Vec::new();
        let mut last = probe.read_runtime(fw.runtime());
        let mut sample = |fw: &DecentralizedFramework, samples: &mut Vec<(f64, f64)>| {
            let now = probe.read_runtime(fw.runtime());
            samples.push((
                fw.runtime().sim().now().as_secs_f64(),
                now.since(&last).tally.availability(),
            ));
            last = now;
            now
        };
        for _ in 0..WARMUP_WINDOWS {
            fw.runtime_mut().sim_mut().run_for(window_span);
            sample(&fw, &mut samples);
        }
        tracer.exit(span);
        out.setup_s.push(started.elapsed().as_secs_f64());
        tracer.exit(setup);

        // --- the timed script -------------------------------------------------
        let before = probe.read_runtime(fw.runtime());
        let mut reading = before;
        let mut sim_events = 0;
        let timed = tracer.enter("bench.timed");
        while fw.runtime().sim().now().as_secs_f64() < horizon as f64 {
            // One step of the script: five 1 s windows, then a cycle.
            let block_before = reading;
            let mut block_wall = 0.0;
            for _ in 0..WINDOWS_PER_CYCLE {
                let window_started = Instant::now();
                let span = tracer.enter("netsim.run_for");
                let events = fw.runtime_mut().sim_mut().run_for(window_span);
                tracer.exit(span);
                let run_s = window_started.elapsed().as_secs_f64();
                block_wall += run_s;
                // Only these windows are simulated where the harness can
                // see them; they are the base of the estimated shares.
                let seen = sample(&fw, &mut samples);
                visible.add(
                    &SimWindow {
                        sim_events: events,
                        ..seen.since(&reading)
                    },
                    run_s,
                );
                visible_sim_s += window_span.as_secs_f64();
                sim_events += events;
                reading = seen;
            }
            // Monitoring accumulated during the windows; the cycle itself
            // only synchronizes, auctions, votes and effects.
            let cycle_started = Instant::now();
            let span = tracer.enter("core.decentralized.cycle");
            let report = fw
                .cycle(&Availability, Duration::ZERO, effect_wait)
                .expect("reconciling cycles do not error");
            tracer.exit(span);
            let wall = cycle_started.elapsed().as_secs_f64();
            cycle_s.push(wall);
            block_wall += wall;
            reading = sample(&fw, &mut samples);
            out.step(reading.since(&block_before).routed as f64, block_wall);
            let consistent = fw.system().deployment() == &fw.runtime().actual_deployment_by_id();
            out.check(consistent, || {
                format!(
                    "rep {rep} t={:.1}: the model differs from the running system",
                    report.time_secs
                )
            });
            // Operations: cycles and crash recoveries (below). Under
            // injected faults a move that does not land is reconciled by
            // design — the fault is input, like modelled link loss — so
            // moves are counted per layer, not as failures.
            out.attempted += 1;
            out.failed += u64::from(!consistent);
            let layers = &mut out.layers;
            layers.add("core.cycles", 1.0);
            layers.add(
                "core.cycles_redeployed",
                f64::from(u8::from(report.adopted)),
            );
            layers.add(
                "core.cycles_reconciled",
                f64::from(u8::from(report.reconciled)),
            );
            layers.add("core.moves_requested", report.moves as f64);
        }
        tracer.exit(timed);

        // --- counts, checks -----------------------------------------------------
        let after = probe.read_runtime(fw.runtime());
        let window = SimWindow {
            sim_events,
            in_flight_end: fw.runtime().sim().in_flight() as u64,
            journal_dropped: probe.journal_dropped(),
            ..after.since(&before)
        };
        out.check(window.journal_dropped == 0, || {
            format!(
                "rep {rep}: telemetry journal dropped {} records",
                window.journal_dropped
            )
        });
        out.check(window.tally.recoveries >= 2, || {
            format!(
                "rep {rep}: {} crash recoveries, the script crashes two hosts",
                window.tally.recoveries
            )
        });
        out.check(window.tally.recoveries_not_equivalent == 0, || {
            format!(
                "rep {rep}: {} recoveries rebuilt a state that differs from the pre-crash one",
                window.tally.recoveries_not_equivalent
            )
        });
        out.attempted += window.tally.recoveries;
        out.failed += window.tally.recoveries_not_equivalent;
        let span = tracer.enter("telemetry.check_journal");
        let violations = redep_telemetry::trace::check_journal(&telemetry.journal().snapshot());
        tracer.exit(span);
        out.check(violations.is_empty(), || {
            format!(
                "rep {rep}: {} trace invariant violations, first: {}",
                violations.len(),
                violations[0]
            )
        });

        // Recovery: after the last fault clears, simulated seconds until a
        // window is back at ≥ 90 % of the pre-fault baseline.
        let baseline: Vec<f64> = samples
            .iter()
            .filter(|(t, _)| *t > 3.0 && *t <= 20.0)
            .map(|(_, a)| *a)
            .collect();
        let threshold = 0.9 * stats::mean(&baseline);
        let recovered = samples
            .iter()
            .find(|(t, a)| *t >= FAULTS_CLEAR_AT && *a >= threshold)
            .map(|(t, _)| t - FAULTS_CLEAR_AT);
        out.check(recovered.is_some(), || {
            format!("rep {rep}: availability never returned to 90 % of the pre-fault baseline")
        });
        let recovered = recovered.unwrap_or(window.sim_s);
        recovery_sim_s.push(recovered);
        let tail: Vec<f64> = samples
            .iter()
            .rev()
            .take(AVAILABILITY_WINDOWS)
            .map(|(_, a)| *a)
            .collect();
        let availability = stats::mean(&tail);
        out.availability.push(availability);
        window.digest_into(&mut out.digest);
        out.digest.f64(availability);
        out.digest.f64(recovered);
        for (c, h) in fw.system().deployment().iter() {
            out.digest.u64(u64::from(c.raw()));
            out.digest.u64(u64::from(h.raw()));
        }
        window.add_to(&mut out.layers);
        if rep == 0 {
            shape = isolated::SimShape::observe(&system, &window, Some(window.in_flight_end));
        }
    }

    note_memory(&mut out);
    out.notes.push(format!(
        "{REPS} sparse systems of {hosts}x{comps}; faults: crash host[1] @20/10 s, partition @35/10, degrade @50/10 \
         + crash host[2] @52/8; horizon {horizon} simulated s; journal on"
    ));
    out.notes.push(format!(
        "cycle wall: n={} mean={:.3} s p50={:.3} s max={:.3} s; recovery after the last fault: {:?} simulated s",
        cycle_s.len(),
        stats::mean(&cycle_s),
        stats::median(&cycle_s),
        cycle_s.iter().copied().fold(0.0, f64::max),
        recovery_sim_s,
    ));
    out.layers
        .set("core.recovery_sim_s", stats::mean(&recovery_sim_s));

    if tracer.enabled() {
        let layers = &mut out.layers;
        let n = cycle_s.len().max(1) as f64;
        layers.set(
            "core.decentralized.cycle_s",
            tracer.total_s("core.decentralized.cycle") / n,
        );
        layers.set(
            "core.cycle_s.max",
            cycle_s.iter().copied().fold(0.0, f64::max),
        );
        // The simulation as driven from outside: what runs inside `cycle()`
        // (the settle waits) is part of `core.decentralized.cycle_s`, and
        // neither its events nor its simulated seconds are counted here.
        layers.set("netsim.run_s", tracer.total_s("netsim.run_for"));
        layers.set(
            "model.generate_s",
            tracer.total_s("model.generate") / REPS as f64,
        );
        layers.set("core.build_s", tracer.total_s("core.build") / REPS as f64);
        finish_sim_ratios(layers, visible_sim_s);
        isolated::sim_costs(layers, &shape, &visible, cfg.smoke, true);
    }
    out
}
