//! The centralized instantiation (Figure 2): a Master Host with global
//! knowledge runs the Centralized Model, Analyzer and Algorithms (DeSi) and
//! the Master Monitor/Effector (the Prism deployer); every Slave Host runs
//! a Slave Monitor and Slave Effector (its Prism admin).

use crate::analyzer::{AnalyzerConfig, AnalyzerDecision, CentralizedAnalyzer};
use crate::error::CoreError;
use crate::recovery::{self, RecoveryPolicy};
use crate::runtime::{RuntimeConfig, SystemRuntime};
use redep_algorithms::{
    AnnealingAlgorithm, AvalaAlgorithm, ExactAlgorithm, GeneticAlgorithm, StochasticAlgorithm,
};
use redep_desi::{DeSi, MiddlewareAdapter};
use redep_model::{Deployment, DeploymentModel, Objective};
use redep_netsim::Duration;
use redep_telemetry::{trace::DOMAIN_FRAMEWORK, SpanIdGen, Telemetry};

/// The outcome of one monitoring/analysis/redeployment cycle.
#[derive(Clone, PartialEq, Debug)]
pub struct CycleReport {
    /// Simulated time at the end of the cycle (seconds).
    pub time_secs: f64,
    /// Monitoring snapshots pulled into the model this cycle.
    pub snapshots_applied: usize,
    /// The analyzer's decision, when analysis ran (it requires monitoring
    /// data from every host).
    pub decision: Option<AnalyzerDecision>,
    /// Whether an accepted redeployment completed within the cycle.
    pub redeployment_completed: bool,
    /// Moves the deployer gave up on this cycle, with their last failure
    /// reasons (empty when everything completed).
    pub failed_moves: Vec<(String, String)>,
    /// Whether an incomplete redeployment was reconciled: the model was
    /// synchronized to the placement the running system actually reached and
    /// every host directory was rewritten from ground truth. The cycle is
    /// then degraded but consistent.
    pub reconciled: bool,
    /// Measured availability (ground truth) up to the end of the cycle.
    pub measured_availability: f64,
}

/// The complete centralized framework: running system + DeSi + analyzer,
/// connected by the middleware adapter.
pub struct CentralizedFramework {
    runtime: SystemRuntime,
    desi: DeSi,
    adapter: MiddlewareAdapter,
    analyzer: CentralizedAnalyzer,
    recovery: RecoveryPolicy,
    /// Allocates the per-cycle trace roots and framework-phase span ids.
    tracer: SpanIdGen,
}

impl std::fmt::Debug for CentralizedFramework {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CentralizedFramework")
            .field("runtime", &self.runtime)
            .finish()
    }
}

impl CentralizedFramework {
    /// Assembles the framework around a model and its initial deployment.
    ///
    /// The standard §5.1 algorithm suite (Exact, Stochastic, Avala, plus the
    /// genetic extension) is pre-registered.
    ///
    /// # Errors
    ///
    /// Propagates runtime assembly failures. Requires a master host.
    pub fn new(
        model: DeploymentModel,
        initial: Deployment,
        runtime_config: &RuntimeConfig,
        analyzer_config: AnalyzerConfig,
    ) -> Result<Self, CoreError> {
        let runtime = SystemRuntime::build(&model, &initial, runtime_config)?;
        let master = runtime
            .master()
            .ok_or_else(|| CoreError::Build("centralized framework needs a master host".into()))?;
        let mut desi = DeSi::new(model, initial);
        desi.container_mut().register(ExactAlgorithm::new());
        desi.container_mut().register(StochasticAlgorithm::new());
        desi.container_mut().register(AvalaAlgorithm::new());
        desi.container_mut().register(GeneticAlgorithm::new());
        desi.container_mut().register(AnnealingAlgorithm::new());
        Ok(CentralizedFramework {
            runtime,
            desi,
            adapter: MiddlewareAdapter::new(master),
            analyzer: CentralizedAnalyzer::new(analyzer_config),
            recovery: RecoveryPolicy::default(),
            tracer: SpanIdGen::new(DOMAIN_FRAMEWORK, 0),
        })
    }

    /// Sets the reaction to redeployments that do not finish cleanly
    /// (default: two effect attempts, then reconcile).
    pub fn set_recovery_policy(&mut self, policy: RecoveryPolicy) {
        self.recovery = policy;
    }

    /// Installs one telemetry handle across the framework and the running
    /// system underneath it (see [`SystemRuntime::set_telemetry`]); the
    /// framework journals through the running system's handle.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.runtime.set_telemetry(telemetry);
    }

    /// The framework's telemetry handle — the running system's (disabled
    /// unless installed).
    pub fn telemetry(&self) -> &Telemetry {
        self.runtime.telemetry()
    }

    /// The running system.
    pub fn runtime(&self) -> &SystemRuntime {
        &self.runtime
    }

    /// The running system, mutable (fault injection between cycles).
    pub fn runtime_mut(&mut self) -> &mut SystemRuntime {
        &mut self.runtime
    }

    /// The DeSi environment (model, results, views).
    pub fn desi(&self) -> &DeSi {
        &self.desi
    }

    /// The analyzer.
    pub fn analyzer(&self) -> &CentralizedAnalyzer {
        &self.analyzer
    }

    /// Runs the system without analysis (e.g. to warm up monitoring).
    pub fn advance(&mut self, span: Duration) {
        self.runtime.run_for(span);
    }

    /// Runs one full framework cycle:
    ///
    /// 1. advance the system for `monitor_for` (monitoring accumulates),
    /// 2. pull monitoring data into the centralized model (Master Monitor),
    /// 3. let the analyzer observe / select / run an algorithm,
    /// 4. effect an accepted result (Master Effector) and wait up to
    ///    `effect_wait` per attempt for it to settle,
    /// 5. recover from an unfinished redeployment per the
    ///    [`RecoveryPolicy`]: re-effect the remainder against ground truth,
    ///    and finally reconcile model and directories with the placement
    ///    actually reached, reporting a degraded-but-consistent cycle.
    ///
    /// Analysis is skipped (decision `None`) until every host has reported.
    ///
    /// # Errors
    ///
    /// Propagates adapter and analyzer failures.
    pub fn cycle(
        &mut self,
        objective: &dyn Objective,
        monitor_for: Duration,
        effect_wait: Duration,
    ) -> Result<CycleReport, CoreError> {
        // One trace per cycle: the cycle span is the root, and monitoring,
        // analysis, redeployment (down to every protocol hop) and recovery
        // hang off it in the journal.
        let cycle_start = self.runtime.sim().now();
        let cycle_ctx = self.tracer.root();
        self.runtime.run_for(monitor_for);
        recovery::drain_crash_replays(&mut self.runtime, &self.tracer, cycle_ctx);
        let snapshots = self
            .adapter
            .pull_monitoring_data(self.runtime.sim(), self.desi.system_mut())?;
        let telemetry = self.runtime.telemetry().clone();
        telemetry
            .span(
                "core.monitor",
                cycle_start.as_micros(),
                self.runtime.sim().now().as_micros(),
            )
            .field("snapshots", snapshots)
            .trace(self.tracer.child(&cycle_ctx))
            .emit();

        let now = self.runtime.sim().now().as_secs_f64();
        let mut decision = None;
        let mut completed = false;
        let mut failed_moves = Vec::new();
        let mut reconciled = false;

        if snapshots == self.runtime.hosts().len() {
            let availability = redep_model::Availability
                .evaluate(self.desi.system().model(), self.desi.system().deployment());
            self.analyzer.observe(now, availability);
            let d = self.analyzer.analyze(&mut self.desi, objective)?;
            telemetry
                .event(
                    "core.analyzer.decision",
                    self.runtime.sim().now().as_micros(),
                )
                .field("algorithm", d.algorithm.clone())
                .field("accepted", d.accepted)
                .field("stable", self.analyzer.is_stable())
                .field("current_availability", d.current_availability)
                .field("predicted_availability", d.record.availability)
                .field("current_latency", d.current_latency)
                .field("predicted_latency", d.record.latency)
                .field("reason", d.reason.clone())
                .trace(self.tracer.child(&cycle_ctx))
                .emit();
            // Aggregate how much of the search ran on the compiled
            // delta-scoring path vs full rescoring.
            let result = &d.record.result;
            for (counter, n) in [
                ("algo.eval.full", result.full_evaluations),
                ("algo.eval.delta", result.delta_evaluations),
                ("algo.eval.pruned", result.pruned_evaluations),
                ("algo.hierarchy.clusters", result.hierarchy_clusters),
                ("algo.hierarchy.refine_rounds", result.refine_rounds),
            ] {
                telemetry.metrics().counter(counter).add(n);
            }
            if d.accepted {
                let effect_start = self.runtime.sim().now();
                let redeploy_ctx = self.tracer.child(&cycle_ctx);
                let measured_before = self.runtime.measured_availability();
                let target = d.record.result.deployment.clone();
                for attempt in 1..=self.recovery.effect_attempts() {
                    if attempt > 1 {
                        // Ground every directory in the placement actually
                        // reached, so the new epoch's diff (and its holder
                        // resolution) starts from truth, not from the failed
                        // epoch's optimistic broadcast.
                        self.runtime.resync_directories();
                    }
                    self.adapter.push_deployment_traced(
                        self.runtime.sim_mut(),
                        self.desi.system(),
                        &target,
                        Some(redeploy_ctx),
                    )?;
                    // Drive the system until the epoch settles: everything
                    // confirmed, or every unfinished move given up on.
                    self.runtime.settle(effect_wait, &|rt| {
                        Ok(self.adapter.redeployment_settled(rt.sim())?)
                    })?;
                    if self.adapter.redeployment_complete(self.runtime.sim())? {
                        completed = true;
                        break;
                    }
                }
                failed_moves = self.adapter.redeployment_failures(self.runtime.sim())?;
                telemetry
                    .span(
                        "core.redeployment",
                        effect_start.as_micros(),
                        self.runtime.sim().now().as_micros(),
                    )
                    .field("moves", d.record.moves)
                    .field("completed", completed)
                    .field("failed", failed_moves.len())
                    .field("measured_before", measured_before)
                    .field("measured_after", self.runtime.measured_availability())
                    .trace(redeploy_ctx)
                    .emit();
                if completed {
                    self.desi.adopt_deployment(target);
                } else {
                    // Giving up settles the epoch's still-open move spans as
                    // `abandoned` first, so the journal never ends with
                    // dangling moves.
                    self.adapter.abandon_pending_moves(self.runtime.sim_mut())?;
                    recovery::reconcile(
                        &mut self.runtime,
                        self.desi.system_mut(),
                        ("failed_moves", failed_moves.len()),
                        &self.tracer,
                        cycle_ctx,
                    );
                    reconciled = true;
                }
            }
            decision = Some(d);
        }

        reconciled |= recovery::guard_drift(
            &mut self.runtime,
            self.desi.system_mut(),
            &self.tracer,
            cycle_ctx,
        );
        let measured_availability = self.runtime.measured_availability();
        let model_matches_actual =
            self.desi.system().deployment() == &self.runtime.actual_deployment_by_id();
        telemetry
            .span(
                "core.cycle",
                cycle_start.as_micros(),
                self.runtime.sim().now().as_micros(),
            )
            .field("snapshots", snapshots)
            .field("analyzed", decision.is_some())
            .field("redeployed", completed)
            .field("reconciled", reconciled)
            .field("measured_availability", measured_availability)
            .field("model_matches_actual", model_matches_actual)
            .trace(cycle_ctx)
            .emit();
        Ok(CycleReport {
            time_secs: self.runtime.sim().now().as_secs_f64(),
            snapshots_applied: snapshots,
            decision,
            redeployment_completed: completed,
            failed_moves,
            reconciled,
            measured_availability,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redep_model::{Availability, Generator, GeneratorConfig};

    fn framework() -> CentralizedFramework {
        let s = Generator::generate(&GeneratorConfig::sized(3, 8).with_seed(11)).unwrap();
        CentralizedFramework::new(
            s.model,
            s.initial,
            &RuntimeConfig::default(),
            AnalyzerConfig::default(),
        )
        .unwrap()
    }

    #[test]
    fn cycles_eventually_analyze_and_do_not_regress() {
        let mut fw = framework();
        let mut analyzed = false;
        let before =
            Availability.evaluate(fw.desi().system().model(), fw.desi().system().deployment());
        for _ in 0..8 {
            let report = fw
                .cycle(
                    &Availability,
                    Duration::from_secs_f64(4.0),
                    Duration::from_secs_f64(30.0),
                )
                .unwrap();
            if report.decision.is_some() {
                analyzed = true;
            }
        }
        assert!(analyzed, "no cycle gathered full monitoring data");
        let after =
            Availability.evaluate(fw.desi().system().model(), fw.desi().system().deployment());
        assert!(
            after >= before - 0.15,
            "availability regressed: {before} -> {after}"
        );
    }

    #[test]
    fn accepted_redeployments_change_the_running_system() {
        let mut fw = framework();
        let mut effected = None;
        for _ in 0..10 {
            let report = fw
                .cycle(
                    &Availability,
                    Duration::from_secs_f64(4.0),
                    Duration::from_secs_f64(60.0),
                )
                .unwrap();
            if let Some(d) = &report.decision {
                if d.accepted {
                    assert!(report.redeployment_completed);
                    effected = Some(d.record.result.deployment.clone());
                    break;
                }
            }
        }
        if let Some(target) = effected {
            // The running system's actual placement matches the target.
            assert_eq!(fw.runtime().actual_deployment_by_id(), target);
        }
    }

    #[test]
    fn redeployment_span_counts_the_migrations() {
        // `moves` on `core.redeployment` is the number of components the
        // accepted decision migrates, as on the decentralized span. This
        // system's first accepted decision moves 9 of its 10 components, so
        // the count differs from the target deployment's size.
        let s = Generator::generate(&GeneratorConfig::sized(3, 10).with_seed(4)).unwrap();
        let mut fw = CentralizedFramework::new(
            s.model,
            s.initial,
            &RuntimeConfig::default(),
            AnalyzerConfig::default(),
        )
        .unwrap();
        fw.set_telemetry(Telemetry::default());
        for _ in 0..10 {
            let report = fw
                .cycle(
                    &Availability,
                    Duration::from_secs_f64(4.0),
                    Duration::from_secs_f64(60.0),
                )
                .unwrap();
            let Some(d) = report.decision.filter(|d| d.accepted) else {
                continue;
            };
            let events = fw.telemetry().journal().snapshot();
            let span = events
                .iter()
                .rev()
                .find(|e| e.name == "core.redeployment")
                .expect("an accepted decision is effected");
            let moves = span.fields.iter().find(|(k, _)| k == "moves");
            assert_eq!(
                moves.map(|(_, v)| v),
                Some(&redep_telemetry::FieldValue::from(d.record.moves))
            );
            assert!(d.record.moves < d.record.result.deployment.len());
            return;
        }
        panic!("no cycle accepted a redeployment");
    }

    #[test]
    fn telemetry_journals_cycles_and_decisions() {
        let mut fw = framework();
        fw.set_telemetry(Telemetry::default());
        for _ in 0..6 {
            fw.cycle(
                &Availability,
                Duration::from_secs_f64(4.0),
                Duration::from_secs_f64(60.0),
            )
            .unwrap();
        }
        let events = fw.telemetry().journal().snapshot();
        let cycles = events.iter().filter(|e| e.name == "core.cycle").count();
        assert_eq!(cycles, 6);
        assert!(
            events.iter().any(|e| e.name == "prism.monitor.window"),
            "middleware events should share the framework journal"
        );
        assert!(
            events.iter().any(|e| e.name == "core.analyzer.decision"),
            "six cycles should produce at least one analysis"
        );
        fw.runtime().publish_gauges();
        let metrics = fw.telemetry().metrics();
        assert!(metrics.gauge("net.truth.sent").get() > 0.0);
        assert!((0.0..=1.0).contains(&metrics.gauge("core.measured_availability").get()));
        assert!(
            metrics.counter("algo.eval.full").get() > 0,
            "analysis runs should record full evaluations"
        );
        assert!(
            metrics.counter("algo.eval.delta").get() > 0,
            "compiled searches should record delta evaluations"
        );
    }

    #[test]
    fn every_analysis_solves_a_freshly_compiled_model() {
        // Pulling monitoring data edits the DeSi model before each analysis,
        // so no cycle can reuse the previous cycle's compiled snapshot.
        let s = Generator::generate(&GeneratorConfig::sized(12, 96).with_seed(3)).unwrap();
        let mut fw = CentralizedFramework::new(
            s.model,
            s.initial,
            &RuntimeConfig::default(),
            AnalyzerConfig::default(),
        )
        .unwrap();
        let cycle = |fw: &mut CentralizedFramework| {
            fw.cycle(
                &Availability,
                Duration::from_secs_f64(4.0),
                Duration::from_secs_f64(30.0),
            )
            .unwrap()
        };
        let monitored = (0..4).any(|_| cycle(&mut fw).decision.is_some());
        assert!(monitored, "no cycle gathered full monitoring data");
        let before = fw.desi().system().model().compiled();
        assert!(cycle(&mut fw).decision.is_some());
        let model = fw.desi().system().model();
        let after = model.compiled();
        assert!(!std::sync::Arc::ptr_eq(&before, &after));
        assert_eq!(*after, redep_model::CompiledModel::compile(model));
    }

    #[test]
    fn master_is_required() {
        let s = Generator::generate(&GeneratorConfig::sized(3, 6)).unwrap();
        let cfg = RuntimeConfig {
            master: None,
            ..RuntimeConfig::default()
        };
        assert!(matches!(
            CentralizedFramework::new(s.model, s.initial, &cfg, AnalyzerConfig::default()),
            Err(CoreError::Build(_))
        ));
    }
}
