//! The decentralized instantiation (Figure 3): no single point of control.
//!
//! Each host runs a Local Monitor and Local Effector (its Prism admin), and
//! maintains a Decentralized Model covering only the hosts it is *aware* of.
//! The Decentralized Algorithm is DecAp's auction protocol, whose bids are
//! computed strictly from per-host partial views; the Decentralized Analyzer
//! uses a distributed-voting protocol to decide whether to adopt the
//! auctions' outcome; effecting happens pairwise between local effectors
//! ("Local Effectors, which collaborate in performing the redeployment").

use crate::error::CoreError;
use crate::recovery::{self, RecoveryPolicy};
use crate::runtime::{RuntimeConfig, SystemRuntime};
use redep_algorithms::{
    CoordinationProtocol, DecApAlgorithm, HierarchicalConfig, MonitoringExchange,
    RedeploymentAlgorithm, VotingProtocol,
};
use redep_desi::{MiddlewareAdapter, SystemData};
use redep_model::{Availability, AwarenessGraph, Deployment, DeploymentModel, HostId, Objective};
use redep_netsim::Duration;
use redep_prism::MonitoringSnapshot;
use redep_telemetry::{trace::DOMAIN_FRAMEWORK, SpanIdGen, TraceCtx};
use std::collections::BTreeMap;

/// The outcome of one decentralized cycle.
#[derive(Clone, PartialEq, Debug)]
pub struct DecentralizedCycleReport {
    /// Simulated time at the end of the cycle (seconds).
    pub time_secs: f64,
    /// Hosts whose local monitors produced a snapshot this cycle.
    pub hosts_reporting: usize,
    /// Availability (on the synchronized model) before the auctions.
    pub availability_before: f64,
    /// Availability of the auctions' proposed deployment.
    pub availability_proposed: f64,
    /// Votes for adopting the proposal vs. keeping the current deployment.
    pub votes_for: usize,
    /// Whether the proposal was adopted and effected.
    pub adopted: bool,
    /// Component moves performed.
    pub moves: usize,
    /// Whether every adopted move landed in the running system (vacuously
    /// true when nothing was adopted).
    pub completed: bool,
    /// Whether an incomplete redeployment was reconciled: the synchronized
    /// model was set to the placement actually reached and every host
    /// directory was rewritten from ground truth.
    pub reconciled: bool,
    /// Measured availability (ground truth) up to the end of the cycle.
    pub measured_availability: f64,
}

/// The complete decentralized framework.
pub struct DecentralizedFramework {
    runtime: SystemRuntime,
    system: SystemData,
    awareness: AwarenessGraph,
    recovery: RecoveryPolicy,
    /// Allocates the per-cycle trace roots and per-move span ids.
    tracer: SpanIdGen,
}

impl std::fmt::Debug for DecentralizedFramework {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DecentralizedFramework")
            .field("runtime", &self.runtime)
            .field("mean_awareness", &self.awareness.mean_awareness())
            .finish()
    }
}

impl DecentralizedFramework {
    /// Assembles the framework; awareness defaults to physical connectivity
    /// (each host knows its direct neighbors), per the paper.
    ///
    /// # Errors
    ///
    /// Propagates runtime assembly failures.
    pub fn new(
        model: DeploymentModel,
        initial: Deployment,
        runtime_config: &RuntimeConfig,
    ) -> Result<Self, CoreError> {
        Self::with_awareness(
            model.clone(),
            initial,
            runtime_config,
            AwarenessGraph::from_connectivity(&model),
        )
    }

    /// Assembles the framework with an explicit awareness graph — which
    /// hosts each host knows of, and so auctions with — in place of the
    /// physical connectivity [`Self::new`] derives.
    ///
    /// # Errors
    ///
    /// Propagates runtime assembly failures.
    pub fn with_awareness(
        model: DeploymentModel,
        initial: Deployment,
        runtime_config: &RuntimeConfig,
        awareness: AwarenessGraph,
    ) -> Result<Self, CoreError> {
        let config = RuntimeConfig {
            master: None,
            ..runtime_config.clone()
        };
        let runtime = SystemRuntime::build(&model, &initial, &config)?;
        Ok(DecentralizedFramework {
            runtime,
            system: SystemData::new(model, initial),
            awareness,
            recovery: RecoveryPolicy::default(),
            tracer: SpanIdGen::new(DOMAIN_FRAMEWORK, 0),
        })
    }

    /// Sets the reaction to adopted moves that do not land cleanly
    /// (default: two effect attempts — one re-request pass — then
    /// reconcile).
    pub fn set_recovery_policy(&mut self, policy: RecoveryPolicy) {
        self.recovery = policy;
    }

    /// The running system.
    pub fn runtime(&self) -> &SystemRuntime {
        &self.runtime
    }

    /// The running system, mutable.
    pub fn runtime_mut(&mut self) -> &mut SystemRuntime {
        &mut self.runtime
    }

    /// The synchronized model (the union of per-host knowledge; every
    /// *decision* is still restricted to per-host awareness views).
    pub fn system(&self) -> &SystemData {
        &self.system
    }

    /// Runs the system without analysis.
    pub fn advance(&mut self, span: Duration) {
        self.runtime.run_for(span);
    }

    /// Runs one decentralized cycle:
    ///
    /// 1. advance the system for `monitor_for` (local monitors accumulate),
    /// 2. synchronize models: each host's snapshot updates the shared
    ///    parameters it is authoritative for,
    /// 3. run the DecAp auctions over awareness-restricted views,
    /// 4. vote: each host compares current vs. proposed on its own partial
    ///    view; the proposal is adopted on a strict majority,
    /// 5. effect adopted moves pairwise between local effectors, wait up to
    ///    `effect_wait` per attempt, and recover per the [`RecoveryPolicy`]:
    ///    re-request stragglers from wherever they actually live, and
    ///    finally reconcile the synchronized model (and every directory)
    ///    with the placement actually reached.
    ///
    /// # Errors
    ///
    /// Propagates adapter/algorithm failures.
    pub fn cycle(
        &mut self,
        objective: &dyn Objective,
        monitor_for: Duration,
        effect_wait: Duration,
    ) -> Result<DecentralizedCycleReport, CoreError> {
        // One trace per cycle, rooted in the `core.decentralized.cycle`
        // span emitted at the end.
        let cycle_start = self.runtime.sim().now();
        let cycle_ctx = self.tracer.root();
        self.runtime.run_for(monitor_for);
        // Moves whose landing a restarted host *proved* by replaying the
        // migrant's attach record from its durable journal. Seeded from
        // crashes during the monitoring phase, extended during effecting.
        let mut recovered_landed =
            recovery::drain_crash_replays(&mut self.runtime, &self.tracer, cycle_ctx);
        // The latest snapshot of every host's local monitor.
        let snapshots: Vec<&MonitoringSnapshot> = self
            .runtime
            .hosts()
            .iter()
            .filter_map(|&h| self.runtime.host(h))
            .filter_map(|host| host.admin().last_snapshot())
            .collect();
        let hosts_reporting = snapshots.len();
        MiddlewareAdapter::apply_snapshots(&mut self.system, snapshots)?;

        let model = self.system.model().clone();
        let current = self.system.deployment().clone();
        let availability_before = Availability.evaluate(&model, &current);

        // Hierarchical auctions with gossip exchange: one auction per
        // super-node cluster per round (rotating the conducting host, so
        // wide awareness no longer hands every auction to the same host)
        // while the monitoring layer forwards host inventories to aware
        // peers between rounds, widening partial views instead of starving
        // poorly connected hosts.
        let result = DecApAlgorithm::new()
            .with_awareness(self.awareness.clone())
            .with_exchange(MonitoringExchange::Gossip { hops: 1 })
            .with_hierarchy(HierarchicalConfig::default())
            .run(&model, objective, model.constraints(), Some(&current))?;
        let proposed = result.deployment.clone();
        let availability_proposed = Availability.evaluate(&model, &proposed);

        // Distributed voting: each host scores both alternatives on its own
        // partial view and votes for the better one. The report counts the
        // hosts that scored both and strictly prefer the proposal.
        let mut alternatives: Vec<Vec<(HostId, f64)>> = vec![Vec::new(), Vec::new()];
        let mut votes_for = 0;
        for &h in self.runtime.hosts() {
            let scores = [&current, &proposed].map(|candidate| {
                let view = self.awareness.partial_view(&model, candidate, h).ok()?;
                Some(Availability.evaluate(&view.model, &view.deployment))
            });
            for (alternative, score) in alternatives.iter_mut().zip(scores) {
                alternative.extend(score.map(|s| (h, s)));
            }
            if let [Some(a), Some(b)] = scores {
                votes_for += usize::from(b > a);
            }
        }
        let auction_end = self.runtime.sim().now().as_micros();
        let choice = VotingProtocol.decide(&alternatives);
        let adopted = choice == Some(1) && proposed != current;
        self.runtime
            .telemetry()
            .event("core.decentralized.vote", auction_end)
            .field("hosts_reporting", hosts_reporting)
            .field("votes_for", votes_for)
            .field("adopted", adopted)
            .field("availability_before", availability_before)
            .field("availability_proposed", availability_proposed)
            .trace(self.tracer.child(&cycle_ctx))
            .emit();

        let mut moves = 0;
        let mut completed = true;
        let mut reconciled = false;
        if adopted {
            let effect_start = self.runtime.sim().now();
            let redeploy_ctx = self.tracer.child(&cycle_ctx);
            let telemetry = self.runtime.telemetry().clone();
            let measured_before = self.runtime.measured_availability();
            let names = self.runtime.component_names().clone();
            let migrations = current.diff(&proposed);
            moves = migrations.len();
            // One span per pairwise move: the `.open` marker and the settle
            // record after the landing loop share a span id, and the
            // request/transfer hops journal as its children.
            let mut move_ctxs: BTreeMap<String, TraceCtx> = BTreeMap::new();
            // Update every host's directory (the paper's model sync between
            // connected hosts, collapsed to one pass), then let destination
            // effectors request their components from the holders.
            for m in &migrations {
                let name = names
                    .get(&m.component)
                    .ok_or_else(|| CoreError::Build(format!("unknown component {}", m.component)))?
                    .clone();
                for &h in &self.runtime.hosts().to_vec() {
                    if let Some(host) = self.runtime.host_mut(h) {
                        host.update_directory(name.clone(), m.to);
                    }
                }
                if let Some(from) = m.from {
                    let ctx = redeploy_ctx.child(self.tracer.next_id());
                    telemetry
                        .event("core.move.open", effect_start.as_micros())
                        .field("component", name.clone())
                        .field("from", from.raw())
                        .field("to", m.to.raw())
                        .trace(ctx)
                        .emit();
                    move_ctxs.insert(name.clone(), ctx);
                    if let Some(host) = self.runtime.host_mut(m.to) {
                        host.request_component(&name, from, Some(ctx));
                    }
                }
            }
            let landed = |rt: &SystemRuntime, m: &redep_model::Migration| {
                let name = &names[&m.component];
                rt.host(m.to)
                    .is_some_and(|h| h.architecture().contains_component(name))
            };
            // Wait for the moves to land; re-request stragglers from their
            // *actual* holders between attempts (a crashed or partitioned
            // holder may have left the original pairwise request in limbo).
            for attempt in 1..=self.recovery.effect_attempts() {
                if attempt > 1 {
                    // Consult durable recovery verdicts before chasing: a
                    // destination that crashed and replayed the migrant's
                    // attach from its journal verifiably holds it, so a
                    // re-request would only spawn a duplicate transfer.
                    recovered_landed.extend(recovery::drain_crash_replays(
                        &mut self.runtime,
                        &self.tracer,
                        cycle_ctx,
                    ));
                    let actual = self.runtime.actual_deployment();
                    for m in &migrations {
                        let name = &names[&m.component];
                        if landed(&self.runtime, m) || recovered_landed.contains(name) {
                            continue;
                        }
                        if let Some(&holder) = actual.get(name) {
                            if holder != m.to {
                                // Re-requests carry the move's own span, so
                                // every straggler chase chains back to the
                                // move it serves.
                                let ctx = move_ctxs.get(name).copied();
                                if let Some(host) = self.runtime.host_mut(m.to) {
                                    host.request_component(name, holder, ctx);
                                }
                            }
                        }
                    }
                }
                completed = self.runtime.settle(effect_wait, &|rt| {
                    Ok(migrations.iter().all(|m| landed(rt, m)))
                })?;
                if completed {
                    break;
                }
            }
            // Settle every move span: landed moves confirm, stragglers are
            // abandoned (the reconcile below follows reality for them), so
            // no journal ends with an open move span.
            let settle_end = self.runtime.sim().now();
            for m in &migrations {
                let name = &names[&m.component];
                let Some(ctx) = move_ctxs.get(name).copied() else {
                    continue;
                };
                let outcome = if landed(&self.runtime, m) {
                    "confirmed"
                } else {
                    "abandoned"
                };
                telemetry
                    .span(
                        "core.move",
                        effect_start.as_micros(),
                        settle_end.as_micros(),
                    )
                    .field("component", name.clone())
                    .field("outcome", outcome)
                    .trace(ctx)
                    .emit();
            }
            self.runtime
                .telemetry()
                .span(
                    "core.redeployment",
                    effect_start.as_micros(),
                    self.runtime.sim().now().as_micros(),
                )
                .field("moves", moves)
                .field("completed", completed)
                .field("measured_before", measured_before)
                .field("measured_after", self.runtime.measured_availability())
                .trace(redeploy_ctx)
                .emit();
            if completed {
                self.system.set_deployment(proposed);
            } else {
                let stuck = migrations
                    .iter()
                    .filter(|m| !landed(&self.runtime, m))
                    .count();
                recovery::reconcile(
                    &mut self.runtime,
                    &mut self.system,
                    ("stuck_moves", stuck),
                    &self.tracer,
                    cycle_ctx,
                );
                reconciled = true;
            }
        }

        reconciled |=
            recovery::guard_drift(&mut self.runtime, &mut self.system, &self.tracer, cycle_ctx);
        let measured_availability = self.runtime.measured_availability();
        let model_matches_actual =
            self.system.deployment() == &self.runtime.actual_deployment_by_id();
        self.runtime
            .telemetry()
            .span(
                "core.decentralized.cycle",
                cycle_start.as_micros(),
                self.runtime.sim().now().as_micros(),
            )
            .field("hosts_reporting", hosts_reporting)
            .field("adopted", adopted)
            .field("completed", completed)
            .field("reconciled", reconciled)
            .field("measured_availability", measured_availability)
            .field("model_matches_actual", model_matches_actual)
            .trace(cycle_ctx)
            .emit();
        Ok(DecentralizedCycleReport {
            time_secs: self.runtime.sim().now().as_secs_f64(),
            hosts_reporting,
            availability_before,
            availability_proposed,
            votes_for,
            adopted,
            moves,
            completed,
            reconciled,
            measured_availability,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redep_model::{Generator, GeneratorConfig};

    fn framework() -> DecentralizedFramework {
        let s = Generator::generate(&GeneratorConfig::sized(4, 10).with_seed(21)).unwrap();
        DecentralizedFramework::new(s.model, s.initial, &RuntimeConfig::default()).unwrap()
    }

    #[test]
    fn cycle_reports_consistent_numbers() {
        let mut fw = framework();
        let report = fw
            .cycle(
                &Availability,
                Duration::from_secs_f64(6.0),
                Duration::from_secs_f64(60.0),
            )
            .unwrap();
        assert!(report.hosts_reporting <= fw.runtime().hosts().len());
        assert!((0.0..=1.0).contains(&report.availability_before));
        assert!((0.0..=1.0).contains(&report.availability_proposed));
        assert!(report.availability_proposed >= report.availability_before - 1e-9);
        if report.adopted {
            assert!(report.moves > 0);
        }
    }

    #[test]
    fn adopted_moves_land_in_the_running_system() {
        let mut fw = framework();
        for _ in 0..4 {
            let report = fw
                .cycle(
                    &Availability,
                    Duration::from_secs_f64(6.0),
                    Duration::from_secs_f64(120.0),
                )
                .unwrap();
            if report.adopted {
                let actual = fw.runtime().actual_deployment_by_id();
                assert_eq!(&actual, fw.system().deployment());
                return;
            }
        }
        // Not adopting anything is legitimate (already near-optimal);
        // the test then only checks the cycles ran.
    }

    #[test]
    fn zero_awareness_never_adopts() {
        let s = Generator::generate(&GeneratorConfig::sized(4, 10).with_seed(22)).unwrap();
        let isolated = AwarenessGraph::isolated(s.model.host_ids());
        let mut fw = DecentralizedFramework::with_awareness(
            s.model,
            s.initial,
            &RuntimeConfig::default(),
            isolated,
        )
        .unwrap();
        let report = fw
            .cycle(
                &Availability,
                Duration::from_secs_f64(6.0),
                Duration::from_secs_f64(30.0),
            )
            .unwrap();
        assert!(!report.adopted);
        assert_eq!(report.moves, 0);
    }
}
