//! `redeploy-cycle`: the paper's whole loop — monitor, analyze, effect,
//! settle — on the centralized framework and a clean network.
//!
//! Set-up generates a sparse system, builds the framework and advances it
//! until every host has reported to the master. The timed script then runs
//! the loop on a schedule, as a deployed framework would: one
//! `cycle(&Availability, 5 s, 20 s)` at the start of every 25-simulated-second
//! slot (later if the previous cycle overran its slot), the system simply
//! running for the rest of the slot. The first cycle is the first analysing
//! one, which usually redeploys most. A fixed schedule keeps the simulated
//! time a run covers — and with it the work done and the memory grown — the
//! same from one generated system to the next; a fixed *number* of cycles
//! does not, because a redeploying cycle takes 25–45 simulated seconds and a
//! quiet one 5.
//!
//! The untraced run calls `CentralizedFramework::cycle`, which is opaque
//! from outside. The traced run drives the same loop *composed from the
//! public pieces* (`SystemRuntime::run_for`, adapter pull,
//! `CentralizedAnalyzer::analyze`, adapter push, the settle loop,
//! `resync_directories`/`adopt_deployment`) with a span around each, and
//! must arrive at the same simulated statistics as `cycle()` does.

use super::{finish_sim_ratios, note_memory, script_units, Probe, RunConfig, ShareBase, SimWindow};
use crate::inputs::{rep_seed, sparse};
use crate::isolated;
use crate::report::{ratio, Digest, Outcome};
use crate::stats;
use crate::trace::Tracer;
use redep_algorithms::{
    AnnealingAlgorithm, AvalaAlgorithm, ExactAlgorithm, GeneticAlgorithm, StochasticAlgorithm,
};
use redep_core::{
    AnalyzerConfig, CentralizedAnalyzer, CentralizedFramework, CoreError, RecoveryPolicy,
    RuntimeConfig, SystemRuntime,
};
use redep_desi::{DeSi, MiddlewareAdapter, SystemData};
use redep_model::{Availability, Deployment, GeneratedSystem, Generator, Objective};
use redep_netsim::Duration;
use redep_telemetry::{trace::DOMAIN_FRAMEWORK, SpanIdGen, Telemetry};
use std::time::Instant;

/// Simulated seconds of monitoring at the start of every cycle.
const MONITOR_FOR_S: f64 = 5.0;
/// Simulated seconds an effected redeployment may take per attempt.
const EFFECT_WAIT_S: f64 = 20.0;
/// Effect attempts before the framework reconciles.
const EFFECT_ATTEMPTS: u32 = 2;
/// Set-up gives up waiting for monitoring reports after this many steps.
const MAX_WARMUP_STEPS: usize = 20;
/// One cycle starts in every slot of this many simulated seconds.
const SLOT_S: f64 = 25.0;
/// Independent systems per run. More than the other workloads' three: what
/// a system's loop costs depends on how its redeployments go, and set-up
/// here is cheap.
const REPS: usize = 5;

fn runtime_config() -> RuntimeConfig {
    RuntimeConfig {
        seed: 1,
        ..RuntimeConfig::default()
    }
}

/// Simulated end, in microseconds, of 1-based `slot` of a script that
/// started at `start_us`. Slots are absolute: a cycle that overruns its slot
/// eats into the next one instead of shifting the schedule.
fn slot_end_us(start_us: u64, slot: u64) -> u64 {
    start_us + (slot as f64 * SLOT_S * 1e6) as u64
}

/// What one cycle did, whichever way it was driven.
#[derive(Clone, PartialEq, Debug, Default)]
struct CycleFacts {
    analysed: bool,
    accepted: bool,
    completed: bool,
    reconciled: bool,
    moves_requested: u64,
    moves_failed: u64,
    target: Option<Deployment>,
    /// The algorithm the analyzer settled on and the system it ran against
    /// (composed loop only).
    solved: Option<(String, SystemData)>,
    sim_events: u64,
}

/// The centralized loop composed from public pieces, mirroring
/// `CentralizedFramework::cycle` step for step — including the order in
/// which trace ids are drawn, because the redeployment's trace context
/// travels in the wire format and so shapes the simulation.
struct ComposedLoop {
    runtime: SystemRuntime,
    desi: DeSi,
    adapter: MiddlewareAdapter,
    analyzer: CentralizedAnalyzer,
    ids: SpanIdGen,
}

impl ComposedLoop {
    fn new(system: &GeneratedSystem) -> Result<Self, CoreError> {
        let mut runtime = SystemRuntime::build(&system.model, &system.initial, &runtime_config())?;
        runtime.set_telemetry(Telemetry::disabled());
        let master = runtime.master().expect("the default config has a master");
        let mut desi = DeSi::new(system.model.clone(), system.initial.clone());
        desi.container_mut().register(ExactAlgorithm::new());
        desi.container_mut().register(StochasticAlgorithm::new());
        desi.container_mut().register(AvalaAlgorithm::new());
        desi.container_mut().register(GeneticAlgorithm::new());
        desi.container_mut().register(AnnealingAlgorithm::new());
        Ok(ComposedLoop {
            runtime,
            desi,
            adapter: MiddlewareAdapter::new(master),
            analyzer: CentralizedAnalyzer::new(AnalyzerConfig::default()),
            ids: SpanIdGen::new(DOMAIN_FRAMEWORK, 0),
        })
    }

    fn run_for(&mut self, tracer: &mut Tracer, span: Duration) -> u64 {
        let s = tracer.enter("netsim.run_for");
        let events = self.runtime.sim_mut().run_for(span);
        tracer.exit(s);
        events
    }

    fn cycle(&mut self, tracer: &mut Tracer) -> Result<CycleFacts, CoreError> {
        let mut facts = CycleFacts::default();
        let cycle = tracer.enter("core.cycle");
        let cycle_ctx = self.ids.root();

        let monitor = tracer.enter("core.monitor");
        facts.sim_events += self.run_for(tracer, Duration::from_secs_f64(MONITOR_FOR_S));
        for _report in self.runtime.drain_recovery_reports() {
            self.ids.child(&cycle_ctx);
        }
        let pull = tracer.enter("desi.pull");
        let snapshots = self
            .adapter
            .pull_monitoring_data(self.runtime.sim(), self.desi.system_mut())?;
        tracer.exit(pull);
        self.ids.child(&cycle_ctx);
        tracer.exit(monitor);

        if snapshots == self.runtime.hosts().len() {
            facts.analysed = true;
            let snapshot = tracer.enter("bench.snapshot");
            let before = self.desi.system().clone();
            tracer.exit(snapshot);
            let analyze = tracer.enter("core.analyze");
            let availability =
                Availability.evaluate(self.desi.system().model(), self.desi.system().deployment());
            self.analyzer
                .observe(self.runtime.sim().now().as_secs_f64(), availability);
            let decision = self.analyzer.analyze(&mut self.desi, &Availability)?;
            tracer.exit(analyze);
            self.ids.child(&cycle_ctx);
            facts.solved = Some((decision.algorithm.clone(), before));
            if decision.accepted {
                facts.accepted = true;
                facts.moves_requested = decision.record.moves as u64;
                let redeploy_ctx = self.ids.child(&cycle_ctx);
                let target = decision.record.result.deployment.clone();
                let step = Duration::from_millis(500);
                let effect_wait = Duration::from_secs_f64(EFFECT_WAIT_S);
                for attempt in 1..=EFFECT_ATTEMPTS {
                    if attempt > 1 {
                        let s = tracer.enter("core.reconcile");
                        self.runtime.resync_directories();
                        tracer.exit(s);
                    }
                    let push = tracer.enter("desi.push");
                    self.adapter.push_deployment_traced(
                        self.runtime.sim_mut(),
                        self.desi.system(),
                        &target,
                        Some(redeploy_ctx),
                    )?;
                    tracer.exit(push);
                    let settle = tracer.enter("core.settle");
                    let mut waited = Duration::ZERO;
                    while waited < effect_wait {
                        facts.sim_events += self.run_for(tracer, step);
                        waited = waited + step;
                        if self.adapter.redeployment_settled(self.runtime.sim())? {
                            break;
                        }
                    }
                    tracer.exit(settle);
                    if self.adapter.redeployment_complete(self.runtime.sim())? {
                        facts.completed = true;
                        break;
                    }
                }
                facts.moves_failed = self
                    .adapter
                    .redeployment_failures(self.runtime.sim())?
                    .len() as u64;
                let s = tracer.enter("core.reconcile");
                if facts.completed {
                    self.desi.adopt_deployment(target.clone());
                } else {
                    self.adapter.abandon_pending_moves(self.runtime.sim_mut())?;
                    let actual = self.runtime.actual_deployment_by_id();
                    self.runtime.resync_directories();
                    self.desi.adopt_deployment(actual);
                    facts.reconciled = true;
                    self.ids.child(&cycle_ctx);
                }
                tracer.exit(s);
                facts.target = Some(target);
            }
        }

        // The unconditional drift guard at the end of every cycle.
        let s = tracer.enter("core.reconcile");
        let actual = self.runtime.actual_deployment_by_id();
        if self.desi.system().deployment() != &actual {
            self.runtime.resync_directories();
            self.desi.adopt_deployment(actual);
            facts.reconciled = true;
            self.ids.child(&cycle_ctx);
        }
        tracer.exit(s);
        tracer.exit(cycle);
        Ok(facts)
    }
}

/// The loop under test: the framework's own `cycle()` in the untraced run,
/// the composed loop in the traced one.
enum Loop {
    Framework(Box<CentralizedFramework>),
    Composed(Box<ComposedLoop>),
}

impl Loop {
    fn build(system: &GeneratedSystem, composed: bool) -> Result<Loop, CoreError> {
        if composed {
            return Ok(Loop::Composed(Box::new(ComposedLoop::new(system)?)));
        }
        let mut fw = CentralizedFramework::new(
            system.model.clone(),
            system.initial.clone(),
            &runtime_config(),
            AnalyzerConfig::default(),
        )?;
        fw.set_recovery_policy(RecoveryPolicy::reconcile(EFFECT_ATTEMPTS));
        // One disabled handle across the system: nothing is journaled, but
        // the pipeline counters of every host add up in one place.
        fw.set_telemetry(Telemetry::disabled());
        Ok(Loop::Framework(Box::new(fw)))
    }

    fn runtime(&self) -> &SystemRuntime {
        match self {
            Loop::Framework(fw) => fw.runtime(),
            Loop::Composed(l) => &l.runtime,
        }
    }

    fn runtime_mut(&mut self) -> &mut SystemRuntime {
        match self {
            Loop::Framework(fw) => fw.runtime_mut(),
            Loop::Composed(l) => &mut l.runtime,
        }
    }

    fn model_deployment(&self) -> &Deployment {
        match self {
            Loop::Framework(fw) => fw.desi().system().deployment(),
            Loop::Composed(l) => l.desi.system().deployment(),
        }
    }

    /// Hosts whose monitoring report has reached the master's deployer.
    fn hosts_reported(&self) -> usize {
        let rt = self.runtime();
        rt.master()
            .and_then(|m| rt.host(m))
            .and_then(|h| h.deployer())
            .map_or(0, |d| d.snapshots().len())
    }

    fn cycle(&mut self, tracer: &mut Tracer) -> Result<CycleFacts, CoreError> {
        match self {
            Loop::Composed(l) => l.cycle(tracer),
            Loop::Framework(fw) => {
                let report = fw.cycle(
                    &Availability,
                    Duration::from_secs_f64(MONITOR_FOR_S),
                    Duration::from_secs_f64(EFFECT_WAIT_S),
                )?;
                let decision = report.decision.as_ref();
                let accepted = decision.is_some_and(|d| d.accepted);
                Ok(CycleFacts {
                    analysed: decision.is_some(),
                    accepted,
                    completed: report.redeployment_completed,
                    reconciled: report.reconciled,
                    moves_requested: decision
                        .filter(|d| d.accepted)
                        .map_or(0, |d| d.record.moves as u64),
                    moves_failed: report.failed_moves.len() as u64,
                    target: decision
                        .filter(|d| d.accepted)
                        .map(|d| d.record.result.deployment.clone()),
                    solved: None,
                    sim_events: 0,
                })
            }
        }
    }
}

/// Everything exact one repetition produced, for comparing the two ways of
/// driving the loop.
fn rep_digest(window: &SimWindow, placement: &Deployment, end_us: u64) -> u64 {
    let mut d = Digest::default();
    // `sim_events` is only visible in the composed loop; leave it out.
    let mut comparable = *window;
    comparable.sim_events = 0;
    comparable.digest_into(&mut d);
    for (c, h) in placement.iter() {
        d.u64(u64::from(c.raw()));
        d.u64(u64::from(h.raw()));
    }
    d.u64(end_us);
    d.value()
}

/// What one repetition leaves behind.
struct Rep {
    digest: u64,
    system: GeneratedSystem,
    window: SimWindow,
}

/// One repetition: set-up, then the timed slots.
fn run_rep(
    cfg: &RunConfig,
    tracer: &mut Tracer,
    rep: usize,
    composed: bool,
    slots: u64,
    out: &mut Outcome,
    cycle_s: &mut Vec<f64>,
) -> Rep {
    let (hosts, comps) = if cfg.smoke { (6, 24) } else { (12, 96) };
    // --- set-up: generate, build, wait for every host to report ----------
    let setup = tracer.enter("bench.setup");
    let started = Instant::now();
    let span = tracer.enter("model.generate");
    let system = Generator::generate(&sparse(hosts, comps, rep_seed(cfg.seed, rep)))
        .expect("sparse ranges generate");
    tracer.exit(span);
    let span = tracer.enter("core.build");
    let mut lp = Loop::build(&system, composed).expect("generated systems build");
    tracer.exit(span);
    let span = tracer.enter("bench.warmup");
    let mut steps = 0;
    while lp.hosts_reported() < hosts && steps < MAX_WARMUP_STEPS {
        lp.runtime_mut()
            .run_for(Duration::from_secs_f64(MONITOR_FOR_S));
        steps += 1;
    }
    tracer.exit(span);
    out.setup_s.push(started.elapsed().as_secs_f64());
    tracer.exit(setup);
    out.check(lp.hosts_reported() == hosts, || {
        format!(
            "rep {rep}: only {} of {hosts} hosts reported during set-up",
            lp.hosts_reported()
        )
    });

    // --- the timed slots ---------------------------------------------------
    let probe = Probe::on(lp.runtime());
    let before = probe.read_runtime(lp.runtime());
    let mut tail_before = before;
    let mut sim_events = 0;
    let start_us = lp.runtime().sim().now().as_micros();
    let timed = tracer.enter("bench.timed");
    for slot in 1..=slots {
        let slot_before = probe.read_runtime(lp.runtime());
        if slot == slots {
            // Availability is the last slot's.
            tail_before = slot_before;
        }
        let before_us = lp.runtime().sim().now().as_micros();
        let cycle_started = Instant::now();
        let facts = lp
            .cycle(tracer)
            .expect("cycles on a clean network do not error");
        let mut wall = cycle_started.elapsed().as_secs_f64();
        cycle_s.push(wall);
        let after_us = lp.runtime().sim().now().as_micros();

        let actual = lp.runtime().actual_deployment_by_id();
        let consistent = lp.model_deployment() == &actual;
        out.check(consistent, || {
            format!("rep {rep} slot {slot}: the model differs from the running system")
        });
        out.check(facts.analysed, || {
            format!("rep {rep} slot {slot}: no analysis although every host had reported")
        });
        let unfinished = match (&facts.target, facts.completed) {
            (Some(target), false) => actual.diff(target).len() as u64,
            _ => 0,
        };
        // Operations: every requested move and every cycle. A move the
        // deployer gave up on failed; so did a cycle that ended
        // inconsistent. Moves still unfinished when the wait budget ran out
        // are counted apart (`core.moves_unfinished`): the framework
        // reconciles them by design and they may still land.
        out.attempted += 1 + facts.moves_requested;
        out.failed += facts.moves_failed + u64::from(!consistent);
        sim_events += facts.sim_events;
        let layers = &mut out.layers;
        layers.add("core.cycles", 1.0);
        layers.add(
            "core.cycles_redeployed",
            f64::from(u8::from(facts.accepted)),
        );
        layers.add(
            "core.cycles_reconciled",
            f64::from(u8::from(facts.reconciled)),
        );
        layers.add("core.moves_requested", facts.moves_requested as f64);
        layers.add("core.moves_failed", facts.moves_failed as f64);
        layers.add("core.moves_unfinished", unfinished as f64);
        layers.add(
            "core.settle_sim_s",
            (after_us - before_us) as f64 * 1e-6 - MONITOR_FOR_S,
        );
        if let (Some((name, given)), Loop::Composed(l)) = (&facts.solved, &lp) {
            // Re-run the selected algorithm on the system it was given: the
            // solve's own cost, apart from the rest of the analysis.
            if let Some(algorithm) = l.desi.container().get(name) {
                let s = tracer.enter("algorithms.solve");
                let again = algorithm.run(
                    given.model(),
                    &Availability,
                    given.model().constraints(),
                    Some(given.deployment()),
                );
                tracer.exit(s);
                let same = match (&again, &facts.target) {
                    (Ok(r), Some(target)) => &r.deployment == target,
                    (Ok(_), None) => true,
                    (Err(_), _) => false,
                };
                out.check(same, || {
                    format!("rep {rep} slot {slot}: re-running {name} gave a different placement")
                });
            }
        }

        // The rest of the slot: the system just runs.
        let slot_end_us = slot_end_us(start_us, slot);
        if after_us < slot_end_us {
            let idle_started = Instant::now();
            let span = tracer.enter("netsim.run_for");
            sim_events += lp
                .runtime_mut()
                .sim_mut()
                .run_for(Duration::from_micros(slot_end_us - after_us));
            tracer.exit(span);
            wall += idle_started.elapsed().as_secs_f64();
        }
        // A step of the rate is a slot in which the loop redeployed in
        // earnest; its wall time is the program's alone, without the
        // harness's checks in between. Quiet slots are too different to
        // share a median — a redeploying slot routes ~125 k events per wall
        // second, a quiet one ~185 k — and how many of each a system has
        // depends on the system; what a quiet system costs is the
        // pipeline workloads' to measure.
        if facts.moves_requested * 10 >= comps as u64 {
            let routed = probe.read_runtime(lp.runtime()).since(&slot_before).routed;
            out.step(routed as f64, wall);
        } else {
            out.unrated_wall_s += wall;
        }
    }
    tracer.exit(timed);

    // --- counts ----------------------------------------------------------------
    let after = probe.read_runtime(lp.runtime());
    let window = SimWindow {
        sim_events,
        in_flight_end: lp.runtime().sim().in_flight() as u64,
        journal_dropped: probe.journal_dropped(),
        ..after.since(&before)
    };
    out.check(window.journal_dropped == 0, || {
        format!("rep {rep}: telemetry journal dropped records")
    });
    let tail = after.since(&tail_before).tally.availability();
    out.availability.push(tail);
    let end_us = lp.runtime().sim().now().as_micros();
    let digest = rep_digest(&window, lp.model_deployment(), end_us);
    out.digest.u64(digest);
    out.digest.f64(tail);
    window.add_to(&mut out.layers);
    Rep {
        digest,
        system,
        window,
    }
}

/// Runs the workload.
pub fn run(cfg: &RunConfig, tracer: &mut Tracer) -> Outcome {
    let slots = if cfg.smoke {
        2
    } else {
        script_units(cfg.seconds, 0.2, 2)
    };
    let composed = tracer.enabled();
    let mut out = Outcome::default();
    let mut cycle_s = Vec::new();
    let mut reps = Vec::with_capacity(REPS);
    for rep in 0..REPS {
        tracer.set_rep(rep as u32);
        reps.push(run_rep(
            cfg,
            tracer,
            rep,
            composed,
            slots,
            &mut out,
            &mut cycle_s,
        ));
    }
    note_memory(&mut out);
    out.check(!out.steps.is_empty(), || {
        "no slot redeployed in earnest, so there is no step to rate".to_owned()
    });
    out.notes.push(format!(
        "{REPS} sparse systems of {}; {slots} slots of {SLOT_S} simulated s each, a cycle of monitor {MONITOR_FOR_S} s + \
         effect wait {EFFECT_WAIT_S} s x {EFFECT_ATTEMPTS} at the start of each; driven by {}",
        if cfg.smoke { "6x24" } else { "12x96" },
        if composed {
            "the loop composed from public pieces (traced)"
        } else {
            "CentralizedFramework::cycle"
        }
    ));
    let longest = cycle_s.iter().copied().fold(0.0, f64::max);
    out.notes.push(format!(
        "cycle wall: n={} mean={:.3} s p50={:.3} s max={longest:.3} s",
        cycle_s.len(),
        stats::mean(&cycle_s),
        stats::median(&cycle_s),
    ));

    if composed {
        // The composed loop must be `cycle()` in all but name: drive the
        // first repetition's system through the framework too and compare
        // every exact statistic. A difference does not fail the run — the
        // framework is the program under test and may change — but it means
        // the phase times below describe a different loop, and says so.
        let reference = run_rep(
            cfg,
            &mut Tracer::new(false),
            0,
            false,
            slots,
            &mut Outcome::default(),
            &mut Vec::new(),
        );
        let equivalent = reference.digest == reps[0].digest;
        if !equivalent {
            out.notes.push(
                "WARNING: the composed loop no longer matches CentralizedFramework::cycle \
                 (core.composed_equiv = 0); the per-phase times describe the composed loop only"
                    .to_owned(),
            );
        }
        let layers = &mut out.layers;
        layers.set("core.composed_equiv", f64::from(u8::from(equivalent)));
        let n = cycle_s.len().max(1) as f64;
        let cycle_total = tracer.total_s("core.cycle");
        layers.set("core.cycle_s", cycle_total / n);
        layers.set("core.cycle_s.max", longest);
        layers.set("core.monitor_s", tracer.total_s("core.monitor") / n);
        layers.set("core.analyze_s", tracer.total_s("core.analyze") / n);
        layers.set("core.settle_s", tracer.total_s("core.settle") / n);
        layers.set("core.reconcile_s", tracer.total_s("core.reconcile") / n);
        layers.set("desi.pull_s", tracer.total_s("desi.pull") / n);
        layers.set("desi.push_s", tracer.total_s("desi.push") / n);
        let own = tracer.totals().get("core.cycle").map_or(0.0, |t| t.self_s);
        layers.set("core.cycle_unattributed_share", ratio(own, cycle_total));
        let solve = tracer.total_s("algorithms.solve");
        layers.set("algorithms.solve_s", solve / n);
        layers.set("algorithms.solve_share", ratio(solve, cycle_total));
        // Every simulator call of the composed loop is visible from outside.
        let run_s = tracer.total_s("netsim.run_for");
        layers.set("netsim.run_s", run_s);
        layers.set(
            "model.generate_s",
            tracer.total_s("model.generate") / REPS as f64,
        );
        layers.set("core.build_s", tracer.total_s("core.build") / REPS as f64);
        let mut base = ShareBase::default();
        for rep in &reps {
            base.add(&rep.window, 0.0);
        }
        base.run_s = run_s;
        finish_sim_ratios(layers, reps.iter().map(|r| r.window.sim_s).sum());
        let first = &reps[0];
        let shape = isolated::SimShape::observe(
            &first.system,
            &first.window,
            Some(first.window.in_flight_end),
        );
        isolated::sim_costs(layers, &shape, &base, cfg.smoke, false);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_are_absolute_on_the_simulated_clock() {
        let start = 15_000_000;
        assert_eq!(slot_end_us(start, 1), start + 25_000_000);
        assert_eq!(slot_end_us(start, 2), start + 50_000_000);
        // An overrunning cycle does not move later slot ends.
        assert_eq!(
            slot_end_us(start, 3) - slot_end_us(start, 2),
            (SLOT_S * 1e6) as u64
        );
    }
}
