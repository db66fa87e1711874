//! The system runtime: a whole distributed Prism-MW system assembled from a
//! deployment model and executed on the network simulator.
//!
//! This is the "Implementation Platform" box of the paper's Figure 1: the
//! running system the framework monitors and reconfigures. Both the
//! centralized and the decentralized instantiations build on it.

use crate::error::CoreError;
use redep_desi::SystemData;
use redep_model::{ComponentId, Deployment, DeploymentModel, HostId};
use redep_netsim::{Duration, NetworkTopology, ShardedSimulator, Simulator};
use redep_prism::workload::{InteractionSpec, WORKLOAD_TYPE};
use redep_prism::{host::HostConfig, ComponentFactory, PrismHost, WorkloadComponent};
use redep_telemetry::Telemetry;
use std::borrow::BorrowMut;
use std::collections::{BTreeMap, BTreeSet};

/// Configuration of a system runtime.
#[derive(Clone, PartialEq, Debug)]
pub struct RuntimeConfig {
    /// Simulation seed.
    pub seed: u64,
    /// The master host (runs the deployer) — `None` for decentralized
    /// systems without a single point of control.
    pub master: Option<HostId>,
    /// Whether hosts park events for absent components during migrations
    /// (disable only for the buffering ablation).
    pub buffer_during_migration: bool,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            seed: 0,
            master: Some(HostId::new(0)),
            buffer_during_migration: true,
        }
    }
}

/// The simulated time [`SystemRuntime::settle`] runs between two checks.
pub(crate) const SETTLE_STEP: Duration = Duration::from_millis(500);

/// A running distributed system: one [`PrismHost`] per model host, workload
/// components realizing the model's logical links, all executing inside the
/// simulation engine `S` over a topology that mirrors the model's physical
/// links.
///
/// One body, two faces of one engine: [`SystemRuntime`] runs on the
/// [`Simulator`] (what the frameworks drive: up to two shards on as many
/// threads, behind one-shard signatures), [`ShardedRuntime`] on the
/// [`ShardedSimulator`] at a shard and thread count of the caller's. Built
/// from the same model, deployment and config, the two run byte-identically.
pub struct Runtime<S> {
    sim: S,
    hosts: Vec<HostId>,
    master: Option<HostId>,
    names: BTreeMap<ComponentId, String>,
}

/// The runtime on the [`Simulator`] face.
pub type SystemRuntime = Runtime<Simulator>;

/// The runtime on the [`ShardedSimulator`], partitioned over shards and run
/// on up to as many threads.
pub type ShardedRuntime = Runtime<ShardedSimulator>;

impl<S> std::fmt::Debug for Runtime<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field("hosts", &self.hosts.len())
            .field("components", &self.names.len())
            .field("master", &self.master)
            .finish()
    }
}

impl SystemRuntime {
    /// Assembles and starts a runtime for `model` deployed as `deployment`.
    ///
    /// Each model component becomes a migratable [`WorkloadComponent`] whose
    /// interaction specs realize the model's logical links (the lower-id
    /// endpoint of each link acts as the sender).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Build`] when component names are not unique or
    /// the deployment is incomplete, and propagates model errors.
    pub fn build(
        model: &DeploymentModel,
        deployment: &Deployment,
        config: &RuntimeConfig,
    ) -> Result<Self, CoreError> {
        let topology = NetworkTopology::from_model(model);
        let sim = Simulator::with_topology(config.seed, &topology);
        Runtime::mount(sim, model, deployment, config)
    }

    /// Installs one telemetry handle across the whole running system: the
    /// engine and every Prism host share it, so network, middleware, and
    /// framework records interleave in a single sim-time-ordered journal.
    /// Each shard, and each host on it, journals and counts through the
    /// shard's lane ([`Telemetry::lane`]).
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.install_telemetry(telemetry);
    }

    /// Advances the system by `span` of simulated time.
    pub fn run_for(&mut self, span: Duration) {
        self.sim.run_for(span);
    }

    /// Runs the system in steps of [`SETTLE_STEP`] until `settled` holds
    /// after a step or `budget` has passed; returns whether it held. Both
    /// frameworks wait out an effect attempt this way — the centralized one
    /// on its deployer's epoch settling, the decentralized one on every
    /// pairwise move landing.
    ///
    /// # Errors
    ///
    /// Propagates the first error `settled` returns.
    pub(crate) fn settle(
        &mut self,
        budget: Duration,
        settled: &dyn Fn(&Self) -> Result<bool, CoreError>,
    ) -> Result<bool, CoreError> {
        let mut waited = Duration::ZERO;
        while waited < budget {
            self.run_for(SETTLE_STEP);
            waited = waited + SETTLE_STEP;
            if settled(self)? {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Grounds `system` in the placement the running system actually
    /// reached: every host's directory is rewritten from ground truth
    /// ([`Runtime::resync_directories`]) and `system`'s deployment is set to
    /// [`Runtime::actual_deployment_by_id`].
    pub(crate) fn follow_actual(&mut self, system: &mut SystemData) {
        let actual = self.actual_deployment_by_id();
        self.resync_directories();
        system.set_deployment(actual);
    }
}

impl ShardedRuntime {
    /// Assembles and starts a runtime for `model` deployed as `deployment`,
    /// partitioned into `shards` shards.
    ///
    /// # Errors
    ///
    /// Same contract as [`SystemRuntime::build`].
    pub fn build(
        model: &DeploymentModel,
        deployment: &Deployment,
        config: &RuntimeConfig,
        shards: usize,
    ) -> Result<Self, CoreError> {
        let topology = NetworkTopology::from_model(model);
        let sim = ShardedSimulator::new(config.seed, &topology, shards);
        Runtime::mount(sim, model, deployment, config)
    }

    /// Installs `handles[0]` across the whole running system, as
    /// [`SystemRuntime::set_telemetry`] installs its handle; the other
    /// handles stay unused. It takes a vector only because `benchmark/`
    /// passes one handle per shard: ROADMAP item 9 (`benchmark/` as a thin
    /// driver) deletes this form for `set_telemetry(Telemetry)`.
    ///
    /// # Panics
    ///
    /// Panics if `handles` is empty.
    pub fn set_telemetry(&mut self, handles: Vec<Telemetry>) {
        let telemetry = handles.into_iter().next();
        self.install_telemetry(telemetry.expect("at least one telemetry handle"));
    }

    /// Advances the system by `span` of simulated time on up to `threads`
    /// OS threads. Returns the number of events processed.
    pub fn run_for(&mut self, span: Duration, threads: usize) -> u64 {
        let deadline = self.sim.now() + span;
        self.sim.run_until(deadline, threads)
    }
}

impl<S: BorrowMut<ShardedSimulator>> Runtime<S> {
    /// Mounts one assembled [`PrismHost`] per model host on `sim`.
    fn mount(
        mut sim: S,
        model: &DeploymentModel,
        deployment: &Deployment,
        config: &RuntimeConfig,
    ) -> Result<Self, CoreError> {
        let (assembled, names) = assemble_hosts(model, deployment, config)?;
        let mut hosts = Vec::with_capacity(assembled.len());
        for (h, prism) in assembled {
            hosts.push(h);
            sim.borrow_mut().add_host(h, prism);
        }
        Ok(Runtime {
            sim,
            hosts,
            master: config.master,
            names,
        })
    }

    /// The one body of both runtimes' `set_telemetry`.
    fn install_telemetry(&mut self, telemetry: Telemetry) {
        let sim = self.sim.borrow_mut();
        for &h in &self.hosts {
            let lane = telemetry.lane(sim.plan().shard_of(h));
            if let Some(host) = sim.node_mut::<PrismHost>(h) {
                host.set_telemetry(lane);
            }
        }
        sim.set_telemetry(telemetry);
    }

    /// The system-wide telemetry handle (disabled unless installed).
    pub fn telemetry(&self) -> &Telemetry {
        self.sim.borrow().telemetry()
    }

    /// Folds ground-truth gauges into the telemetry registry: the
    /// simulator's `net.truth.*` set, every host's `prism.h<id>.*` set, and
    /// the system-wide measured availability.
    pub fn publish_gauges(&self) {
        self.sim.borrow().publish_gauges();
        for &h in &self.hosts {
            if let Some(host) = self.host(h) {
                host.publish_gauges();
            }
        }
        self.telemetry()
            .metrics()
            .gauge("core.measured_availability")
            .set(self.measured_availability());
    }

    /// The underlying simulator.
    pub fn sim(&self) -> &S {
        &self.sim
    }

    /// The underlying simulator, mutable (fault plans, topology edits, …).
    pub fn sim_mut(&mut self) -> &mut S {
        &mut self.sim
    }

    /// All host ids.
    pub fn hosts(&self) -> &[HostId] {
        &self.hosts
    }

    /// The master host, when one exists.
    pub fn master(&self) -> Option<HostId> {
        self.master
    }

    /// Component instance names by model id.
    pub fn component_names(&self) -> &BTreeMap<ComponentId, String> {
        &self.names
    }

    /// Borrows the Prism runtime of one host.
    pub fn host(&self, h: HostId) -> Option<&PrismHost> {
        self.sim.borrow().node_ref::<PrismHost>(h)
    }

    /// Mutably borrows the Prism runtime of one host.
    pub fn host_mut(&mut self, h: HostId) -> Option<&mut PrismHost> {
        self.sim.borrow_mut().node_mut::<PrismHost>(h)
    }

    /// Application events `(emitted, received)` so far, summed over all
    /// hosts.
    pub fn app_event_totals(&self) -> (u64, u64) {
        let mut totals = (0, 0);
        for &h in &self.hosts {
            if let Some(host) = self.host(h) {
                let stats = host.services().stats();
                totals.0 += stats.app_events_emitted;
                totals.1 += stats.app_events_received;
            }
        }
        totals
    }

    /// The *measured* availability so far: the fraction of emitted
    /// application events that were actually delivered, summed over all
    /// hosts (ground truth, independent of the model's estimate).
    pub fn measured_availability(&self) -> f64 {
        let (emitted, received) = self.app_event_totals();
        if emitted == 0 {
            1.0
        } else {
            received as f64 / emitted as f64
        }
    }

    /// Where each component *actually* lives right now, by instance name
    /// (read from the running architectures, not from any model).
    pub fn actual_deployment(&self) -> BTreeMap<String, HostId> {
        let mut out = BTreeMap::new();
        for &h in &self.hosts {
            if let Some(host) = self.host(h) {
                for (name, ty) in host.architecture().component_inventory() {
                    if ty == WORKLOAD_TYPE {
                        out.insert(name, h);
                    }
                }
            }
        }
        out
    }

    /// The actual deployment translated back to model ids.
    pub fn actual_deployment_by_id(&self) -> Deployment {
        let by_name = self.actual_deployment();
        self.names
            .iter()
            .filter_map(|(id, name)| by_name.get(name).map(|h| (*id, *h)))
            .collect()
    }

    /// Rewrites every host's deployment directory from ground truth (the
    /// components actually attached to each running architecture), flushing
    /// events parked for components that turn out to live elsewhere. Called
    /// by the frameworks after reconciling an incomplete redeployment.
    pub fn resync_directories(&mut self) {
        let actual = self.actual_deployment();
        for &h in &self.hosts {
            if let Some(host) = self.sim.borrow_mut().node_mut::<PrismHost>(h) {
                host.resync_directory(actual.clone());
            }
        }
    }

    /// Drains every host's fresh [`redep_prism::RecoveryReport`]s — crash
    /// recoveries (checkpoint + journal replays) the frameworks have not
    /// consulted yet. Each report carries an explicit completed/not-completed
    /// verdict per operation that was in flight at the crash, so recovery
    /// decisions read durable facts instead of guessing from silence.
    pub fn drain_recovery_reports(&mut self) -> Vec<redep_prism::RecoveryReport> {
        let mut out = Vec::new();
        for &h in &self.hosts {
            if let Some(host) = self.sim.borrow_mut().node_mut::<PrismHost>(h) {
                out.extend(host.take_fresh_recovery_reports());
            }
        }
        out
    }
}

/// Output of [`assemble_hosts`]: configured hosts in model order plus the
/// component-name table.
type AssembledHosts = (Vec<(HostId, PrismHost)>, BTreeMap<ComponentId, String>);

/// Assembles one configured [`PrismHost`] per model host — the front half
/// of [`Runtime::mount`].
fn assemble_hosts(
    model: &DeploymentModel,
    deployment: &Deployment,
    config: &RuntimeConfig,
) -> Result<AssembledHosts, CoreError> {
    deployment.validate(model)?;

    // Component instance names must be unique: they are the middleware's
    // addressing scheme.
    let mut names: BTreeMap<ComponentId, String> = BTreeMap::new();
    let mut seen: BTreeSet<String> = BTreeSet::new();
    for c in model.components() {
        if !seen.insert(c.name().to_owned()) {
            return Err(CoreError::Build(format!(
                "duplicate component name '{}'",
                c.name()
            )));
        }
        names.insert(c.id(), c.name().to_owned());
    }

    // Interaction specs: one sender per logical link.
    let mut specs: BTreeMap<ComponentId, Vec<InteractionSpec>> = BTreeMap::new();
    for link in model.logical_links() {
        let (lo, hi) = (link.ends().lo(), link.ends().hi());
        if link.frequency() <= 0.0 {
            continue;
        }
        specs.entry(lo).or_default().push(InteractionSpec {
            peer: names[&hi].clone(),
            frequency: link.frequency(),
            event_size: link.event_size().max(1.0) as u64,
        });
    }

    let directory: BTreeMap<String, HostId> = deployment
        .iter()
        .map(|(c, h)| (names[&c].clone(), h))
        .collect();

    let hosts = model.host_ids();
    // One O(links) pass, in link order, for the neighbor sets and the
    // routes: `model.neighbors` scans every physical link, so calling it per
    // host or per BFS visit is O(hosts² · links) — minutes at a thousand
    // dense hosts.
    let mut adjacency: BTreeMap<HostId, Vec<HostId>> =
        hosts.iter().map(|&h| (h, Vec::new())).collect();
    for link in model.physical_links() {
        let (lo, hi) = (link.ends().lo(), link.ends().hi());
        adjacency.entry(lo).or_default().push(hi);
        adjacency.entry(hi).or_default().push(lo);
    }
    let master = config.master;
    // Even without a master, control traffic needs a mediation address;
    // unreachable mediation is simply dropped.
    let mediation = master.or_else(|| hosts.first().copied());
    let mut assembled = Vec::with_capacity(hosts.len());
    for &h in &hosts {
        let mut factory = ComponentFactory::new();
        factory.register(WORKLOAD_TYPE, WorkloadComponent::build);
        let host_config = HostConfig {
            deployer_host: mediation.unwrap_or(h),
            neighbors: adjacency[&h].iter().copied().collect(),
            routes: routes_from(h, &adjacency),
            buffer_during_migration: config.buffer_during_migration,
            ..HostConfig::default()
        };
        let mut prism = PrismHost::new(h, factory, host_config);
        if Some(h) == master {
            prism.enable_deployer();
        }
        for c in deployment.components_on(h) {
            let behavior = WorkloadComponent::new(specs.remove(&c).unwrap_or_default());
            prism
                .add_app_component(names[&c].clone(), behavior)
                .map_err(CoreError::Prism)?;
        }
        prism.set_initial_directory(directory.clone());
        assembled.push((h, prism));
    }
    Ok((assembled, names))
}

/// Next-hop routes from `src` over the physical `adjacency` (BFS shortest
/// paths). Entry `d → n` means `src` relays frames for `d` through its
/// neighbor `n`; direct neighbors are omitted (they need no relay).
fn routes_from(src: HostId, adjacency: &BTreeMap<HostId, Vec<HostId>>) -> BTreeMap<HostId, HostId> {
    // The first hop towards every host the BFS has reached, recorded when
    // it is discovered: the host itself below `src`, else its parent's.
    let mut first = BTreeMap::from([(src, src)]);
    let mut queue = std::collections::VecDeque::from([src]);
    while let Some(u) = queue.pop_front() {
        for &v in &adjacency[&u] {
            if !first.contains_key(&v) {
                let hop = if u == src { v } else { first[&u] };
                first.insert(v, hop);
                queue.push_back(v);
            }
        }
    }
    // `src` and its direct neighbors are their own first hop.
    first.retain(|dst, hop| dst != hop);
    first
}

#[cfg(test)]
mod tests {
    use super::*;
    use redep_model::{Generator, GeneratorConfig};
    use redep_netsim::{NetStats, SimTime};

    fn system() -> (DeploymentModel, Deployment) {
        let s = Generator::generate(&GeneratorConfig::sized(3, 8).with_seed(2)).unwrap();
        (s.model, s.initial)
    }

    #[test]
    fn builds_and_runs() {
        let (m, d) = system();
        let mut rt = SystemRuntime::build(&m, &d, &RuntimeConfig::default()).unwrap();
        rt.run_for(Duration::from_secs_f64(5.0));
        assert_eq!(rt.sim().now(), SimTime::from_secs_f64(5.0));
        // Workload flowed.
        let availability = rt.measured_availability();
        assert!((0.0..=1.0).contains(&availability));
        assert!(rt.sim().stats().sent > 0);
    }

    #[test]
    fn actual_deployment_matches_initial() {
        let (m, d) = system();
        let rt = SystemRuntime::build(&m, &d, &RuntimeConfig::default()).unwrap();
        assert_eq!(rt.actual_deployment_by_id(), d);
    }

    #[test]
    fn master_runs_the_deployer() {
        let (m, d) = system();
        let rt = SystemRuntime::build(&m, &d, &RuntimeConfig::default()).unwrap();
        let master = rt.master().unwrap();
        assert!(rt.host(master).unwrap().is_deployer());
        for &h in rt.hosts() {
            if h != master {
                assert!(!rt.host(h).unwrap().is_deployer());
            }
        }
    }

    #[test]
    fn decentralized_runtime_has_no_deployer_anywhere() {
        let (m, d) = system();
        let cfg = RuntimeConfig {
            master: None,
            ..RuntimeConfig::default()
        };
        let rt = SystemRuntime::build(&m, &d, &cfg).unwrap();
        // master() falls back to the first host for mediation addressing,
        // but no deployer component exists.
        for &h in rt.hosts() {
            assert!(!rt.host(h).unwrap().is_deployer());
        }
    }

    #[test]
    fn sharded_runtime_is_shard_and_thread_count_invariant() {
        let (m, d) = system();
        let run = |shards: usize, threads: usize| {
            let mut rt = ShardedRuntime::build(&m, &d, &RuntimeConfig::default(), shards).unwrap();
            rt.set_telemetry(vec![Telemetry::default()]);
            let events = rt.run_for(Duration::from_secs_f64(5.0), threads);
            assert!(events > 0);
            (
                rt.telemetry().export_jsonl(),
                rt.sim().stats(),
                rt.measured_availability(),
            )
        };
        let reference = run(1, 1);
        assert!(!reference.0.is_empty());
        assert_eq!(run(2, 1), reference, "diverged at 2 shards");
        assert_eq!(run(2, 2), reference, "diverged at 2 threads");
        assert_eq!(run(3, 2), reference, "diverged at 3 shards / 2 threads");
    }

    /// Journals a framework-style span over the runs so far, as a cycle
    /// does between two runs.
    fn cycle_span<S: BorrowMut<ShardedSimulator>>(rt: &Runtime<S>) {
        let now = rt.sim().borrow().now().as_micros();
        rt.telemetry().span("core.cycle", 0, now).emit();
    }

    /// What a framework does between two runs: journals a span, and edits a
    /// link — one that crosses the face's shards if one does — to half its
    /// delay.
    fn between_runs<S: BorrowMut<ShardedSimulator>>(rt: &mut Runtime<S>, (a, b): (HostId, HostId)) {
        cycle_span(rt);
        let sim = rt.sim_mut().borrow_mut();
        let spec = sim.topology().link(a, b).unwrap().spec;
        let delay = spec.delay / 2.0;
        sim.set_link(a, b, redep_netsim::LinkSpec { delay, ..spec });
    }

    /// The proof that there is one engine: under a fault plan with a crash,
    /// a partition, a degrade and a flap, plus link churn (a flap on every
    /// other link, each with its own phase and period), the `SystemRuntime`
    /// face and the `ShardedRuntime` at several shard and thread counts
    /// journal, count and measure byte for byte alike — also with a span
    /// journaled between two runs, mid-partition.
    #[test]
    fn system_runtime_equals_sharded_runtime_under_faults_and_churn() {
        let (m, d, plan) = churned_system();
        let half = Duration::from_secs_f64(5.5);
        let config = RuntimeConfig::default();
        let handle = || Telemetry::new(1 << 20);

        let mut single = SystemRuntime::build(&m, &d, &config).unwrap();
        single.set_telemetry(handle());
        single.sim_mut().install_fault_plan(&plan);
        single.run_for(half);
        cycle_span(&single);
        single.run_for(half);
        assert_eq!(single.telemetry().journal().dropped(), 0);
        let journal = single.telemetry().export_jsonl();
        for needle in [
            "net.fault",
            "net.partition",
            "net.link.state",
            "net.host.state",
        ] {
            assert!(journal.contains(needle), "no {needle} in the journal");
        }
        let reference = (
            journal,
            single.sim().stats().clone(),
            single.measured_availability(),
        );
        for (shards, threads) in [(1, 1), (2, 2), (8, 2)] {
            let mut sharded = ShardedRuntime::build(&m, &d, &config, shards).unwrap();
            sharded.set_telemetry(vec![handle()]);
            sharded.sim_mut().install_fault_plan(&plan);
            sharded.run_for(half, threads);
            cycle_span(&sharded);
            sharded.run_for(half, threads);
            let outcome = (
                sharded.telemetry().export_jsonl(),
                sharded.sim().stats(),
                sharded.measured_availability(),
            );
            assert!(outcome == reference, "{shards} shards, {threads} threads");
        }
    }

    /// The 8×24 system of the churn tests and its fault plan: a crash, a
    /// partition, a degrade and a flap, and a flap on every other link.
    fn churned_system() -> (DeploymentModel, Deployment, redep_netsim::FaultPlan) {
        use redep_netsim::{FaultKind, FaultPlan};
        let s = Generator::generate(&GeneratorConfig::sized(8, 24).with_seed(5)).unwrap();
        let (m, d) = (s.model, s.initial);
        let links: Vec<_> = m.physical_links().map(|l| l.ends()).collect();
        let hosts = m.host_ids();
        let (half, h) = (hosts.len() / 2, |i: usize| hosts[i]);
        let mut plan = FaultPlan::new()
            .episode(3.0, 2.0, FaultKind::HostCrash { host: h(2) })
            .episode(
                5.0,
                2.0,
                FaultKind::Partition {
                    groups: vec![hosts[..half].to_vec(), hosts[half..].to_vec()],
                },
            )
            .episode(
                2.0,
                4.0,
                FaultKind::LinkDegrade {
                    a: links[0].lo(),
                    b: links[0].hi(),
                    reliability_factor: 0.5,
                    bandwidth_factor: 0.25,
                },
            )
            .episode(
                1.0,
                3.0,
                FaultKind::LinkFlap {
                    a: links[1].lo(),
                    b: links[1].hi(),
                    period_secs: 0.4,
                },
            );
        for (i, link) in links.iter().enumerate().skip(2).step_by(2) {
            let (a, b) = (link.lo(), link.hi());
            let period_secs = 0.5 + (i % 3) as f64 * 0.5;
            let churn = FaultKind::LinkFlap { a, b, period_secs };
            plan = plan.episode(1.0 + (i % 4) as f64 * 0.25, 8.0, churn);
        }
        (m, d, plan)
    }

    /// Drives `rt` through three runs of `span`, doing between them what a
    /// framework and a crash do: after the first, journal a span, edit
    /// `edited` to half its delay and crash `crashed`; after the second,
    /// restart `crashed` (its restart hook journals the recovery).
    fn drive<S: BorrowMut<ShardedSimulator>>(
        rt: &mut Runtime<S>,
        run: impl Fn(&mut Runtime<S>),
        edited: (HostId, HostId),
        crashed: HostId,
    ) {
        run(rt);
        between_runs(rt, edited);
        rt.sim_mut().borrow_mut().set_host_up(crashed, false);
        run(rt);
        rt.sim_mut().borrow_mut().set_host_up(crashed, true);
        run(rt);
    }

    /// Between runs the face journals a framework-style span, edits a link
    /// that crosses its shards (when it runs two) to half its delay, and
    /// crashes and later restarts a host on the last shard: every record
    /// keeps its place, and the journal, statistics and availability equal
    /// a one-shard run's, and a `ShardedRuntime`'s at two and at four
    /// shards on two threads, byte for byte.
    #[test]
    fn between_run_records_and_edits_keep_the_face_equal_to_one_shard() {
        let (m, d, plan) = churned_system();
        let links: Vec<_> = m.physical_links().map(|l| l.ends()).collect();
        let (span, config) = (Duration::from_secs_f64(4.0), RuntimeConfig::default());
        let crashed = m.host_ids()[3];

        let mut face = SystemRuntime::build(&m, &d, &config).unwrap();
        let shards = face.sim().plan();
        let crossing = links
            .iter()
            .find(|l| shards.shard_of(l.lo()) != shards.shard_of(l.hi()));
        let edited = crossing.map_or((links[2].lo(), links[2].hi()), |l| (l.lo(), l.hi()));
        face.set_telemetry(Telemetry::new(1 << 20));
        face.sim_mut().install_fault_plan(&plan);
        drive(&mut face, |rt| rt.run_for(span), edited, crashed);
        assert_eq!(face.telemetry().journal().dropped(), 0);
        let journal = face.telemetry().export_jsonl();
        assert!(journal.contains("prism.recover"), "no recovery journaled");
        let reference = (
            journal,
            face.sim().stats().clone(),
            face.measured_availability(),
        );

        for (shards, threads) in [(1, 1), (2, 2), (4, 2)] {
            let mut rt = ShardedRuntime::build(&m, &d, &config, shards).unwrap();
            assert_eq!(rt.sim().plan().shard_of(crashed), shards - 1);
            rt.set_telemetry(vec![Telemetry::new(1 << 20)]);
            rt.sim_mut().install_fault_plan(&plan);
            let run = |rt: &mut ShardedRuntime| {
                rt.run_for(span, threads);
            };
            drive(&mut rt, run, edited, crashed);
            let outcome = (
                rt.telemetry().export_jsonl(),
                rt.sim().stats(),
                rt.measured_availability(),
            );
            assert!(outcome == reference, "{shards} shards, {threads} threads");
        }
    }

    /// Publishes `rt`'s gauges and checks that the system's one registry
    /// carries the counts their layers keep: the engine's `NetStats` as
    /// `net.truth.*`, every host's durable store's per-kind table as
    /// `prism.h<id>.durable.{records,bytes}.<kind>`.
    fn assert_gauges_export_the_counts<S: BorrowMut<ShardedSimulator>>(
        rt: &Runtime<S>,
        net: &NetStats,
    ) {
        rt.publish_gauges();
        let truth = rt.telemetry().metrics();
        for (name, value) in [
            ("sent", net.sent),
            ("delivered", net.delivered),
            ("dropped_loss", net.dropped_loss),
            ("dropped_disconnected", net.dropped_disconnected),
        ] {
            let gauge = truth.gauge(&format!("net.truth.{name}")).get();
            assert_eq!(gauge, value as f64, "net.truth.{name}");
        }
        assert!(
            net.dropped_loss > 0 && net.dropped_disconnected > 0,
            "{net:?}"
        );
        let mut published = 0;
        for &h in rt.hosts() {
            let host = rt.host(h).unwrap();
            for (kind, records, bytes) in host.services().durable().stats_by_kind() {
                for (what, value) in [("records", records), ("bytes", bytes)] {
                    let name = format!("prism.{h}.durable.{what}.{kind}");
                    assert_eq!(truth.gauge(&name).get(), value as f64, "{name}");
                    published += usize::from(value > 0);
                }
            }
        }
        assert!(published > 0, "no durable journal gauge was published");
    }

    /// The export path alone carries the network and durable counts: on
    /// either engine, after a run with a lossy link and a crash,
    /// `publish_gauges` writes exactly what `NetStats` and
    /// `stats_by_kind` hold.
    #[test]
    fn published_gauges_equal_the_engine_and_store_counts() {
        use redep_netsim::{FaultKind, FaultPlan};
        let (m, d) = system();
        let link = m.physical_links().next().unwrap().ends();
        let plan = FaultPlan::new()
            .episode(
                0.0,
                10.0,
                FaultKind::LinkDegrade {
                    a: link.lo(),
                    b: link.hi(),
                    reliability_factor: 0.3,
                    bandwidth_factor: 1.0,
                },
            )
            .episode(
                2.0,
                2.0,
                FaultKind::HostCrash {
                    host: m.host_ids()[1],
                },
            );
        let (config, span) = (RuntimeConfig::default(), Duration::from_secs_f64(10.0));

        let mut single = SystemRuntime::build(&m, &d, &config).unwrap();
        single.set_telemetry(Telemetry::default());
        single.sim_mut().install_fault_plan(&plan);
        single.run_for(span);
        assert_gauges_export_the_counts(&single, single.sim().stats());

        let mut sharded = ShardedRuntime::build(&m, &d, &config, 2).unwrap();
        sharded.set_telemetry(vec![Telemetry::default()]);
        sharded.sim_mut().install_fault_plan(&plan);
        sharded.run_for(span, 2);
        assert_gauges_export_the_counts(&sharded, &sharded.sim().stats());
    }

    #[test]
    fn unknown_hosts_have_no_prism_host_on_either_engine() {
        let (m, d) = system();
        let single = SystemRuntime::build(&m, &d, &RuntimeConfig::default()).unwrap();
        let sharded = ShardedRuntime::build(&m, &d, &RuntimeConfig::default(), 2).unwrap();
        let unknown = HostId::new(99);
        assert!(single.host(unknown).is_none());
        assert!(sharded.host(unknown).is_none());
        assert!(sharded.host(sharded.hosts()[0]).is_some());
    }

    #[test]
    fn sharded_runtime_carries_workload() {
        let (m, d) = system();
        let mut rt = ShardedRuntime::build(&m, &d, &RuntimeConfig::default(), 2).unwrap();
        rt.run_for(Duration::from_secs_f64(5.0), 2);
        let availability = rt.measured_availability();
        assert!((0.0..=1.0).contains(&availability));
        assert!(rt.sim().stats().sent > 0);
        assert_eq!(rt.hosts().len(), 3);
    }

    /// DeSi's adapter drives the engine at any shard count: pulling
    /// monitoring data, pushing one redeployment and waiting until its moves
    /// settle journal the same bytes and reach the same placement at one
    /// shard and at two shards on two threads.
    #[test]
    fn the_adapter_drives_a_sharded_runtime() {
        use redep_desi::MiddlewareAdapter;
        let (m, d) = system();
        let (component, from) = d.iter().next().unwrap();
        let run = |shards: usize, threads: usize| {
            let mut rt = ShardedRuntime::build(&m, &d, &RuntimeConfig::default(), shards).unwrap();
            rt.set_telemetry(vec![Telemetry::new(1 << 20)]);
            let adapter = MiddlewareAdapter::new(rt.master().unwrap());
            let mut system = SystemData::new(m.clone(), d.clone());
            rt.run_for(Duration::from_secs_f64(10.0), threads);
            let pulled = adapter.pull_monitoring_data(rt.sim(), &mut system).unwrap();
            assert!(pulled > 0, "no host reported in 10 s");
            let to = *rt.hosts().iter().rev().find(|&&h| h != from).unwrap();
            let mut target = system.deployment().clone();
            target.assign(component, to);
            adapter
                .push_deployment_traced(rt.sim_mut(), &system, &target, None)
                .unwrap();
            let mut steps = 0;
            loop {
                rt.run_for(SETTLE_STEP, threads);
                steps += 1;
                if adapter.redeployment_settled(rt.sim()).unwrap() {
                    break;
                }
                assert!(steps < 120, "the moves did not settle in 60 s");
            }
            assert!(
                adapter.redeployment_complete(rt.sim()).unwrap(),
                "failed moves: {:?}",
                adapter.redeployment_failures(rt.sim()).unwrap()
            );
            let actual = rt.actual_deployment_by_id();
            assert_eq!(actual.host_of(component), Some(to));
            (rt.telemetry().export_jsonl(), actual)
        };
        let (journal, actual) = run(1, 1);
        let (sharded_journal, sharded_actual) = run(2, 2);
        assert!(
            sharded_journal == journal,
            "the journals differ at 2 shards"
        );
        assert_eq!(sharded_actual, actual);
    }

    #[test]
    fn duplicate_component_names_are_rejected() {
        let mut m = DeploymentModel::new();
        let h = m.add_host("h").unwrap();
        let a = m.add_component("same").unwrap();
        let b = m.add_component("same").unwrap();
        let d: Deployment = [(a, h), (b, h)].into_iter().collect();
        assert!(matches!(
            SystemRuntime::build(&m, &d, &RuntimeConfig::default()),
            Err(CoreError::Build(_))
        ));
    }

    #[test]
    fn incomplete_deployment_is_rejected() {
        let (m, _) = system();
        assert!(SystemRuntime::build(&m, &Deployment::new(), &RuntimeConfig::default()).is_err());
    }
}
