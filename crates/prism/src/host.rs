//! The per-host middleware runtime.
//!
//! A [`PrismHost`] is the "address space" of the paper: it owns one
//! [`Architecture`], the distribution transport to other hosts, the
//! host-level monitors, and the meta-level [`AdminComponent`] (plus, on the
//! master host, the [`DeployerComponent`]). It implements
//! [`redep_netsim::Node`], so whole distributed Prism systems run inside the
//! network simulator.

use crate::admin::{AdminComponent, DeployerComponent};
use crate::architecture::{Architecture, HostAction};
use crate::brick::{BrickId, ComponentBehavior, ComponentFactory};
use crate::codec::encode_event;
use crate::durable::{DurableStore, JournalRecord, OpKind, OpVerdict, RecordRef, RecoveryReport};
use crate::event::Event;
use crate::monitor::{EventFrequencyMonitor, ReliabilityProbe};
use crate::symbol::Symbol;
use crate::timers::TimerTable;
use crate::transport::{ReliableChannel, WireMsg, RTO};
use crate::PrismError;
use redep_model::HostId;
use redep_netsim::{Duration, Message, Node, NodeCtx, SimTime};

use redep_telemetry::{Counter, Histogram, Telemetry, TraceCtx};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

/// Reserved component address of the admin on every host.
pub const ADMIN_ADDRESS: &str = "prism.admin";
/// Reserved component address of the deployer on the master host.
pub const DEPLOYER_ADDRESS: &str = "prism.deployer";

/// Event parameter marking an application event that was already forwarded
/// once to chase a migrated component (prevents forwarding loops between
/// hosts with mutually stale directories).
const FORWARDED_MARKER: &str = "prism.forwarded";

const TOKEN_RTO: u64 = 0;
const TOKEN_PING: u64 = 1;
const TOKEN_MONITOR: u64 = 2;
const TOKEN_DEPLOY: u64 = 3;
const TOKEN_COMPONENT_BASE: u64 = 1000;

/// Interval between reliability pings to each neighbor.
const PING_INTERVAL: Duration = Duration::from_millis(250);
/// Length of one monitoring window.
pub(crate) const MONITOR_WINDOW: Duration = Duration::from_millis(2_000);
/// Interval of the deployer's deadline sweep.
const DEPLOY_TICK: Duration = Duration::from_millis(1_000);

/// Static configuration of a host runtime.
#[derive(Clone, PartialEq, Debug)]
pub struct HostConfig {
    /// The master host running the deployer.
    pub deployer_host: HostId,
    /// Hosts this host can talk to directly (its physical neighbors).
    pub neighbors: BTreeSet<HostId>,
    /// Next-hop routing table for non-neighbor destinations
    /// (destination → neighbor to relay through). Destinations absent from
    /// both `neighbors` and `routes` are unreachable.
    pub routes: BTreeMap<HostId, HostId>,
    /// Whether events addressed to absent components are parked and
    /// replayed after the component arrives (the paper's behavior).
    /// Disable only for the buffering ablation — events are then dropped.
    pub buffer_during_migration: bool,
    /// Monitoring windows between durable checkpoints. Each checkpoint
    /// snapshots the host's full durable state and truncates the write-ahead
    /// journal, bounding both replay time after a crash and journal growth.
    pub checkpoint_interval_windows: u32,
}

impl Default for HostConfig {
    fn default() -> Self {
        HostConfig {
            deployer_host: HostId::new(0),
            neighbors: BTreeSet::new(),
            routes: BTreeMap::new(),
            buffer_during_migration: true,
            checkpoint_interval_windows: 4,
        }
    }
}

/// Counters describing one host runtime's activity.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct HostStats {
    /// Application events emitted by local components via named sends
    /// (whether they ended up local or remote).
    pub app_events_emitted: u64,
    /// Application events put on the wire (raw frames).
    pub app_events_sent: u64,
    /// Application events delivered into the local architecture.
    pub app_events_received: u64,
    /// Control frames put on the wire (first transmissions).
    pub control_sent: u64,
    /// Control frames retransmitted.
    pub retransmissions: u64,
    /// Events buffered because their target component is not (yet) here.
    pub events_buffered: u64,
    /// Buffered events replayed after a component arrived.
    pub events_replayed: u64,
    /// Events dropped because the directory knows no location for the target.
    pub events_undeliverable: u64,
    /// Frames relayed on behalf of other hosts.
    pub frames_forwarded: u64,
    /// Frames dropped because no route to the destination exists.
    pub frames_unroutable: u64,
}

/// The host-level services the admin and deployer act through: the
/// distribution transport, the deployment directory, and the buffer that
/// parks events for components that are mid-migration.
pub struct HostServices {
    host: HostId,
    now: SimTime,
    deployer_host: HostId,
    /// Physical neighbors, ascending (probed per outbound frame).
    neighbors: Vec<HostId>,
    routes: BTreeMap<HostId, HostId>,
    directory: BTreeMap<String, HostId>,
    /// Answers of `directory` already given, as `(symbol id, location)`
    /// sorted by id — the per-event [`HostServices::locate_symbol`] must not
    /// pay a string-keyed tree walk. Emptied on every directory mutation and
    /// refilled on demand, so it never interns a name (see
    /// [`Symbol::intern`]) and holds only what this host asked about.
    dir_memo: Vec<(u32, Option<HostId>)>,
    /// Reliable channels by peer, ascending (checkpoints and the RTO sweep
    /// walk them in peer order).
    channels: Vec<(HostId, ReliableChannel)>,
    /// The platform-dependent reliability monitor (ping counters).
    pub(crate) probe: ReliabilityProbe,
    /// Frames waiting for the next flush, oldest first. A deque: the flush
    /// pops what was queued before it began while local loopbacks queue
    /// behind, in the one buffer.
    outbox: VecDeque<(HostId, WireMsg)>,
    buffered: BTreeMap<String, Vec<Event>>,
    next_nonce: u64,
    buffer_during_migration: bool,
    stats: HostStats,
    /// The write-ahead journal + checkpoint store backing crash recovery.
    durable: DurableStore,
    /// Set while `on_restart` replays the store: journaling hooks no-op, so
    /// replaying a record never re-journals it.
    replaying: bool,
    /// Reused buffer for the encoded event of a `Delivery` record.
    event_scratch: Vec<u8>,
}

impl fmt::Debug for HostServices {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HostServices")
            .field("host", &self.host)
            .field("directory", &self.directory)
            .field("outbox", &self.outbox.len())
            .finish()
    }
}

impl HostServices {
    fn new(host: HostId, config: &HostConfig) -> Self {
        HostServices {
            host,
            now: SimTime::ZERO,
            deployer_host: config.deployer_host,
            neighbors: config.neighbors.iter().copied().collect(),
            routes: config.routes.clone(),
            directory: BTreeMap::new(),
            dir_memo: Vec::new(),
            channels: Vec::new(),
            probe: ReliabilityProbe::new(),
            outbox: VecDeque::new(),
            buffered: BTreeMap::new(),
            next_nonce: 0,
            buffer_during_migration: config.buffer_during_migration,
            stats: HostStats::default(),
            durable: DurableStore::in_memory(),
            replaying: false,
            event_scratch: Vec::new(),
        }
    }

    /// Appends one record to the write-ahead journal — unless a crash
    /// recovery is currently replaying that very journal.
    pub(crate) fn journal(&mut self, record: RecordRef<'_>) {
        if self.replaying {
            return;
        }
        self.durable.append(&record);
    }

    /// Journals the publication of `event` into the local `component` — the
    /// per-event record, so the event is encoded into a reused buffer.
    pub(crate) fn journal_delivery(&mut self, component: &str, event: &Event) {
        if self.replaying {
            return;
        }
        self.event_scratch.clear();
        crate::codec::encode_event_into(event, &mut self.event_scratch);
        self.durable.append(&JournalRecord::Delivery {
            component,
            event: &self.event_scratch[..],
        });
    }

    /// The durable store (journal + checkpoints) backing this host.
    pub fn durable(&self) -> &DurableStore {
        &self.durable
    }

    /// This host's id.
    pub fn host(&self) -> HostId {
        self.host
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The master host running the deployer.
    pub fn deployer_host(&self) -> HostId {
        self.deployer_host
    }

    /// Hosts directly reachable from here, ascending.
    pub fn neighbors(&self) -> &[HostId] {
        &self.neighbors
    }

    /// Whether `peer` is directly reachable.
    fn can_reach(&self, peer: HostId) -> bool {
        self.neighbors.binary_search(&peer).is_ok()
    }

    /// The reliable channel to `peer`, if one was ever opened.
    fn channel_mut(&mut self, peer: HostId) -> Option<&mut ReliableChannel> {
        let at = self
            .channels
            .binary_search_by_key(&peer, |(p, _)| *p)
            .ok()?;
        Some(&mut self.channels[at].1)
    }

    /// The reliable channel to `peer`, opened idle on first use.
    fn channel_entry(&mut self, peer: HostId) -> &mut ReliableChannel {
        let at = match self.channels.binary_search_by_key(&peer, |(p, _)| *p) {
            Ok(at) => at,
            Err(at) => {
                self.channels.insert(at, (peer, ReliableChannel::new()));
                at
            }
        };
        &mut self.channels[at].1
    }

    /// Activity counters.
    pub fn stats(&self) -> HostStats {
        self.stats
    }

    /// Unacknowledged reliable frames per peer (diagnostics).
    pub fn pending_control(&self) -> Vec<(HostId, usize)> {
        self.channels
            .iter()
            .filter(|(_, ch)| ch.in_flight() > 0)
            .map(|(peer, ch)| (*peer, ch.in_flight()))
            .collect()
    }

    /// The deployment directory: component instance name → current host.
    pub fn directory(&self) -> &BTreeMap<String, HostId> {
        &self.directory
    }

    /// Replaces the whole directory (sent with every redeployment command).
    pub fn replace_directory(&mut self, directory: BTreeMap<String, HostId>) {
        self.dir_memo.clear();
        self.journal(JournalRecord::DirectoryReplaced {
            directory: directory
                .iter()
                .map(|(c, h)| (c.as_str(), h.raw()))
                .collect(),
        });
        self.directory = directory;
    }

    /// Records one component's location.
    pub fn directory_set(&mut self, component: impl Into<String>, host: HostId) {
        let component = component.into();
        self.journal(JournalRecord::DirectorySet {
            component: &component,
            host: host.raw(),
        });
        self.dir_memo.clear();
        self.directory.insert(component, host);
    }

    /// Looks up where a component currently lives.
    fn locate(&self, component: &str) -> Option<HostId> {
        self.directory.get(component).copied()
    }

    /// `locate` for the per-event path, whose callers hold the component's
    /// `Symbol`: one directory walk per name per directory version, an
    /// integer search after that.
    fn locate_symbol(&mut self, component: Symbol) -> Option<HostId> {
        match self
            .dir_memo
            .binary_search_by_key(&component.id(), |&(id, _)| id)
        {
            Ok(at) => self.dir_memo[at].1,
            Err(at) => {
                let there = self.locate(component.as_str());
                self.dir_memo.insert(at, (component.id(), there));
                there
            }
        }
    }

    /// Sends a control event reliably to a component on `dst`. Unreachable
    /// destinations are mediated through the deployer host, reproducing the
    /// paper's "the relevant request events are sent to the
    /// DeployerComponent, which then mediates their interaction".
    pub fn send_reliable(&mut self, dst: HostId, to_component: impl Into<Symbol>, event: &Event) {
        let to_component = to_component.into();
        if dst == self.host {
            // Local control messages short-circuit at the host layer; the
            // runtime routes them on the next processing pass.
            self.outbox.push_back((
                dst,
                WireMsg::Raw {
                    to_component,
                    event: encode_event(event),
                },
            ));
            return;
        }
        if self.next_hop(dst).is_some() || dst == self.deployer_host {
            let now = self.now;
            let frame = self
                .channel_entry(dst)
                .send(to_component, encode_event(event), now);
            // A consumed sequence number must survive the crash: a recovered
            // sender that reused it would be silently deduplicated by the
            // peer's watermark, stalling the protocol forever.
            self.journal(JournalRecord::ChannelSend { peer: dst.raw() });
            self.stats.control_sent += 1;
            self.wire(dst, frame);
        } else if self.host == self.deployer_host {
            // We *are* the mediator of last resort and still have no route:
            // wrapping the frame to ourselves would loop forever. Drop it.
            self.stats.frames_unroutable += 1;
        } else {
            // Mediate via the deployer.
            let wrapped = Event::request(crate::admin::EV_MEDIATE)
                .with_param(crate::admin::P_FINAL_HOST, dst.raw() as i64)
                .with_param(crate::admin::P_FINAL_COMPONENT, to_component.as_str())
                .with_payload(encode_event(event));
            let now = self.now;
            let frame = self.channel_entry(self.deployer_host).send(
                Symbol::intern(DEPLOYER_ADDRESS),
                encode_event(&wrapped),
                now,
            );
            let deployer = self.deployer_host;
            self.journal(JournalRecord::ChannelSend {
                peer: deployer.raw(),
            });
            self.stats.control_sent += 1;
            self.wire(deployer, frame);
        }
    }

    /// Sends an application event unreliably (raw frame) to a component on
    /// `dst`. Subject to link loss — by design.
    fn send_raw(&mut self, dst: HostId, to_component: impl Into<Symbol>, event: &Event) {
        self.stats.app_events_sent += 1;
        self.wire(
            dst,
            WireMsg::Raw {
                to_component: to_component.into(),
                event: encode_event(event),
            },
        );
    }

    /// Parks an event for a component that is not currently attached here
    /// (dropped instead when buffering is ablated away, counting as
    /// undeliverable).
    fn buffer_event(&mut self, component: &str, event: Event) {
        if !self.buffer_during_migration {
            self.stats.events_undeliverable += 1;
            return;
        }
        self.stats.events_buffered += 1;
        self.journal(JournalRecord::EventBuffered {
            component,
            event: &encode_event(&event),
        });
        self.buffered
            .entry(component.to_owned())
            .or_default()
            .push(event);
    }

    /// Takes all buffered events for `component` (e.g. after it arrived).
    pub fn take_buffered(&mut self, component: &str) -> Vec<Event> {
        let events = self.buffered.remove(component).unwrap_or_default();
        if !events.is_empty() {
            self.journal(JournalRecord::BufferDrained { component });
        }
        self.stats.events_replayed += events.len() as u64;
        events
    }

    /// Component names with parked events.
    fn buffered_components(&self) -> Vec<String> {
        self.buffered.keys().cloned().collect()
    }

    /// Total number of events currently parked across all components.
    fn buffered_total(&self) -> usize {
        self.buffered.values().map(Vec::len).sum()
    }

    /// The neighbor to relay through for `dst` (the destination itself
    /// when directly connected).
    fn next_hop(&self, dst: HostId) -> Option<HostId> {
        if self.can_reach(dst) {
            Some(dst)
        } else {
            self.routes.get(&dst).copied()
        }
    }

    /// Puts a frame on the wire toward `dst`, relaying through the routing
    /// table when `dst` is not a neighbor. Unroutable frames are dropped
    /// (and counted).
    fn wire(&mut self, dst: HostId, frame: WireMsg) {
        if dst == self.host || self.can_reach(dst) {
            self.outbox.push_back((dst, frame));
            return;
        }
        match self.next_hop(dst) {
            Some(hop) => {
                let wrapped = WireMsg::Forward {
                    src: self.host,
                    dst,
                    frame: frame.encode(),
                };
                self.outbox.push_back((hop, wrapped));
            }
            None => {
                self.stats.frames_unroutable += 1;
            }
        }
    }

    fn ping(&mut self, peer: HostId) {
        let nonce = self.next_nonce;
        self.next_nonce += 1;
        self.probe.record_ping(peer);
        self.outbox.push_back((peer, WireMsg::Ping { nonce }));
    }
}

/// One host of a distributed Prism-MW system, runnable inside
/// [`redep_netsim::Simulator`].
///
/// See the crate docs for the big picture and `crates/prism/tests` /
/// the repository examples for full systems.
pub struct PrismHost {
    arch: Architecture,
    factory: ComponentFactory,
    services: HostServices,
    admin: AdminComponent,
    deployer: Option<DeployerComponent>,
    checkpoint_interval_windows: u32,
    app_connector: BrickId,
    next_timer: u64,
    /// Armed component timers by host-level id: `(component, its token)`.
    timers: TimerTable<(Symbol, u64)>,
    /// Monitoring windows closed since the last checkpoint.
    windows_since_checkpoint: u32,
    /// Every crash recovery this host performed, in order (cumulative; see
    /// [`PrismHost::take_fresh_recovery_reports`] for the consuming cursor).
    recovery_reports: Vec<RecoveryReport>,
    /// Index of the first report not yet handed out by
    /// [`PrismHost::take_fresh_recovery_reports`].
    fresh_reports: usize,
    telemetry: Telemetry,
    routing_latency: Histogram,
    /// Deliveries pumped through the local architecture
    /// (`pipeline.events.routed`).
    events_routed: Counter,
    /// Bytes produced by the wire codec for outbound frames
    /// (`pipeline.codec.bytes`).
    codec_bytes: Counter,
}

/// Upper-inclusive bounds (sim microseconds) for the event-routing latency
/// histogram: spanning sub-millisecond local hops to multi-second detours
/// through retransmission and mediation.
const ROUTING_LATENCY_BOUNDS_US: &[f64] = &[
    100.0,
    1_000.0,
    10_000.0,
    50_000.0,
    100_000.0,
    500_000.0,
    1_000_000.0,
    5_000_000.0,
];

/// A host's architecture as it starts, and after a crash: one application
/// connector (the host-local "bus") carrying an [`EventFrequencyMonitor`].
fn fresh_architecture(host: HostId) -> (Architecture, BrickId) {
    let mut arch = Architecture::new(format!("arch-{host}"), host);
    let bus = arch.add_connector("bus");
    arch.attach_monitor(bus, EventFrequencyMonitor::new(MONITOR_WINDOW))
        .expect("connector just created");
    (arch, bus)
}

/// Maps deployment-protocol event names onto migration phase labels.
fn migration_phase(event_name: &str) -> Option<&'static str> {
    match event_name {
        crate::admin::EV_CONFIGURE => Some("configure"),
        crate::admin::EV_REQUEST => Some("request"),
        crate::admin::EV_TRANSFER => Some("transfer"),
        crate::admin::EV_ACK => Some("ack"),
        crate::admin::EV_NACK => Some("nack"),
        _ => None,
    }
}

impl fmt::Debug for PrismHost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PrismHost")
            .field("host", &self.arch.host())
            .field("components", &self.arch.component_count())
            .field("deployer", &self.deployer.is_some())
            .finish()
    }
}

impl PrismHost {
    /// Creates a host runtime.
    ///
    /// The architecture starts with one application connector (the host-local
    /// "bus") carrying an [`EventFrequencyMonitor`], to which
    /// [`PrismHost::add_app_component`] welds every application component —
    /// the configuration of the paper's Figure 8.
    pub fn new(host: HostId, factory: ComponentFactory, config: HostConfig) -> Self {
        let (arch, app_connector) = fresh_architecture(host);
        let admin = AdminComponent::new(host);
        let services = HostServices::new(host, &config);
        let telemetry = Telemetry::disabled();
        let routing_latency = telemetry
            .metrics()
            .histogram("prism.routing.latency_us", ROUTING_LATENCY_BOUNDS_US);
        let events_routed = telemetry.metrics().counter("pipeline.events.routed");
        let codec_bytes = telemetry.metrics().counter("pipeline.codec.bytes");
        PrismHost {
            arch,
            factory,
            services,
            admin,
            deployer: None,
            checkpoint_interval_windows: config.checkpoint_interval_windows,
            app_connector,
            next_timer: 0,
            timers: TimerTable::new(),
            windows_since_checkpoint: 0,
            recovery_reports: Vec::new(),
            fresh_reports: 0,
            telemetry,
            routing_latency,
            events_routed,
            codec_bytes,
        }
    }

    /// Installs a telemetry handle (typically the same handle as the
    /// simulator's, so middleware and network records interleave in one
    /// journal). Install before the run starts.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.routing_latency = telemetry
            .metrics()
            .histogram("prism.routing.latency_us", ROUTING_LATENCY_BOUNDS_US);
        self.events_routed = telemetry.metrics().counter("pipeline.events.routed");
        self.codec_bytes = telemetry.metrics().counter("pipeline.codec.bytes");
        if let Some(deployer) = self.deployer.as_mut() {
            deployer.set_telemetry(telemetry.clone());
        }
        self.telemetry = telemetry;
    }

    /// The telemetry handle (a disabled no-op sink unless one was installed).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Folds this host's [`HostStats`] into the telemetry registry's gauges
    /// under a `prism.h<id>.*` prefix.
    pub fn publish_gauges(&self) {
        let host = self.arch.host();
        let stats = self.services.stats();
        let metrics = self.telemetry.metrics();
        for (name, value) in [
            ("app_events_emitted", stats.app_events_emitted),
            ("app_events_sent", stats.app_events_sent),
            ("app_events_received", stats.app_events_received),
            ("control_sent", stats.control_sent),
            ("retransmissions", stats.retransmissions),
            ("events_buffered", stats.events_buffered),
            ("events_replayed", stats.events_replayed),
            ("events_undeliverable", stats.events_undeliverable),
        ] {
            metrics
                .gauge(&format!("prism.{host}.{name}"))
                .set(value as f64);
        }
        // The per-kind journal table of this host's store: which record
        // kinds its journal bytes went to.
        for (kind, records, bytes) in self.services.durable.stats_by_kind() {
            for (what, value) in [("records", records), ("bytes", bytes)] {
                if value > 0 {
                    metrics
                        .gauge(&format!("prism.{host}.durable.{what}.{kind}"))
                        .set(value as f64);
                }
            }
        }
    }

    /// Enables the deployer role (call on the master host only).
    pub fn enable_deployer(&mut self) {
        let mut deployer = DeployerComponent::new(self.arch.host());
        deployer.set_telemetry(self.telemetry.clone());
        self.deployer = Some(deployer);
    }

    /// Whether this host runs the deployer.
    pub fn is_deployer(&self) -> bool {
        self.deployer.is_some()
    }

    /// The host's architecture.
    pub fn architecture(&self) -> &Architecture {
        &self.arch
    }

    /// The host's services (directory, transport, buffers).
    pub fn services(&self) -> &HostServices {
        &self.services
    }

    /// The admin (monitoring + effecting endpoint) of this host.
    pub fn admin(&self) -> &AdminComponent {
        &self.admin
    }

    /// The deployer, when enabled.
    pub fn deployer(&self) -> Option<&DeployerComponent> {
        self.deployer.as_ref()
    }

    /// The id of the host-local application connector ("bus").
    pub fn app_connector(&self) -> BrickId {
        self.app_connector
    }

    /// Adds an application component and welds it to the bus.
    ///
    /// # Errors
    ///
    /// Returns [`PrismError::DuplicateComponent`] if the name is taken.
    pub fn add_app_component(
        &mut self,
        name: impl Into<String>,
        behavior: impl ComponentBehavior,
    ) -> Result<BrickId, PrismError> {
        let name = name.into();
        let id = self.arch.add_component(name.clone(), behavior)?;
        self.arch.weld(id, self.app_connector)?;
        self.services.directory_set(name, self.arch.host());
        Ok(id)
    }

    /// Seeds the deployment directory (every host should start with the
    /// same global map).
    pub fn set_initial_directory(&mut self, directory: BTreeMap<String, HostId>) {
        self.services.replace_directory(directory);
    }

    /// Issues a redeployment from this (deployer) host: move the named
    /// components to the given hosts. Commands go out with the next
    /// processing pass. A trace context makes every move span (and the
    /// whole configure/request/transfer/ack cascade) a child of `parent` —
    /// typically a framework's redeployment span, so journals link each
    /// move to the cycle that decided it.
    ///
    /// # Errors
    ///
    /// Returns [`PrismError::UnknownComponent`] when this host does not run
    /// the deployer.
    pub fn effect_redeployment(
        &mut self,
        target: BTreeMap<String, HostId>,
        parent: Option<TraceCtx>,
    ) -> Result<(), PrismError> {
        let deployer = self
            .deployer
            .as_mut()
            .ok_or_else(|| PrismError::UnknownComponent(DEPLOYER_ADDRESS.to_owned()))?;
        let moves = target.len();
        deployer.effect(&mut self.services, target, parent);
        self.telemetry
            .event("prism.migration.effect", self.services.now.as_micros())
            .field("host", self.arch.host().raw())
            .field("moves", moves)
            .field("in_flight", deployer.status().in_flight.len())
            .trace_opt(parent)
            .emit();
        self.journal_deployer();
        Ok(())
    }

    /// Settles any still-open move spans of the current epoch as
    /// `abandoned` — called by frameworks when they reconcile an incomplete
    /// redeployment, so no journal ends with dangling move spans. A no-op on
    /// non-deployer hosts.
    pub fn abandon_pending_moves(&mut self) {
        let now = self.services.now;
        if let Some(deployer) = self.deployer.as_mut() {
            deployer.abandon_pending(now);
        }
        self.journal_deployer();
    }

    /// Journals the deployer's epoch state if the activity just handled
    /// changed it.
    fn journal_deployer(&mut self) {
        let changed = self
            .deployer
            .as_mut()
            .and_then(DeployerComponent::take_changed_state);
        if let Some(blob) = changed {
            self.services
                .journal(JournalRecord::DeployerState { blob: &blob });
        }
    }

    /// Asks the admin on `holder` to ship `component` here — the pairwise
    /// effecting path used by *decentralized* configurations, where there is
    /// no master deployer and "Local Effectors … collaborate in performing
    /// the redeployment". The request goes out with the next processing
    /// pass; completion is observable via
    /// [`Architecture::contains_component`]. A trace context makes the
    /// resulting request/transfer hops journal as children of the caller's
    /// span (decentralized frameworks pass their per-move span here).
    pub fn request_component(&mut self, component: &str, holder: HostId, ctx: Option<TraceCtx>) {
        let mut request = Event::request(crate::admin::EV_REQUEST)
            .with_param(crate::admin::P_COMPONENT, component)
            .with_param(crate::admin::P_REQUESTER, self.arch.host().raw() as i64);
        if let Some(ctx) = ctx {
            request = request.with_trace(ctx);
        }
        self.services.send_reliable(holder, ADMIN_ADDRESS, &request);
    }

    /// Records a component's new location in this host's directory (the
    /// decentralized counterpart of the deployer's directory broadcast).
    pub fn update_directory(&mut self, component: impl Into<String>, host: HostId) {
        self.services.directory_set(component, host);
    }

    /// Replaces the whole directory with ground truth and forwards any
    /// buffered events whose target turns out to live elsewhere — the
    /// recovery path frameworks use after reconciling an incomplete
    /// redeployment, so no host keeps routing on a stale map forever.
    pub fn resync_directory(&mut self, directory: BTreeMap<String, HostId>) {
        self.services.replace_directory(directory);
        for component in self.services.buffered_components() {
            match self.services.locate(&component) {
                Some(there) if there != self.arch.host() => {
                    for event in self.services.take_buffered(&component) {
                        let event = event.with_param(FORWARDED_MARKER, true);
                        self.services.send_raw(there, &component, &event);
                    }
                }
                // Still mapped here (or unknown): leave the events parked
                // for the component's arrival.
                _ => {}
            }
        }
    }

    // ---- durability ---------------------------------------------------------

    /// Every crash recovery this host performed, in order.
    pub fn recovery_reports(&self) -> &[RecoveryReport] {
        &self.recovery_reports
    }

    /// Recovery reports produced since the last call (frameworks drain these
    /// once per decision cycle; [`PrismHost::recovery_reports`] keeps the
    /// cumulative list for end-of-run accounting).
    pub fn take_fresh_recovery_reports(&mut self) -> Vec<RecoveryReport> {
        let fresh = self.recovery_reports[self.fresh_reports..].to_vec();
        self.fresh_reports = self.recovery_reports.len();
        fresh
    }

    /// The durable store's current contents (checkpoint + journal bytes) —
    /// the byte-identity witness double-run determinism checks compare.
    pub fn durable_digest(&self) -> Vec<u8> {
        self.services.durable.digest()
    }

    /// Writes the host's full durable state as a checkpoint — the records
    /// that rebuild it on a wiped host — truncating the write-ahead journal.
    fn checkpoint_now(&mut self) {
        let mut records = Vec::new();
        for (name, type_name, state) in self.arch.component_snapshots() {
            records.push(JournalRecord::ComponentAttached {
                name,
                type_name,
                state,
            });
        }
        let directory = self.services.directory.iter();
        let directory = directory.map(|(c, h)| (c.clone(), h.raw())).collect();
        records.push(JournalRecord::DirectoryReplaced { directory });
        for (component, events) in &self.services.buffered {
            for event in events {
                let (component, event) = (component.clone(), encode_event(event));
                records.push(JournalRecord::EventBuffered { component, event });
            }
        }
        for (peer, ch) in &self.services.channels {
            let (next_seq, next_expected) = ch.durable_state();
            records.push(JournalRecord::ChannelState {
                peer: peer.raw(),
                next_seq,
                next_expected,
            });
        }
        for (id, (component, token)) in self.timers.sorted() {
            let (component, token) = (component.as_str().to_owned(), *token);
            records.push(JournalRecord::TimerArmed {
                id,
                component,
                token,
            });
        }
        let (next, admin) = (self.next_timer, self.admin.durable_blob());
        records.push(JournalRecord::TimerCursor { next });
        records.push(JournalRecord::MonitorWindow { admin });
        records.extend(self.deployer_records());
        self.services.durable.checkpoint(records);
        self.windows_since_checkpoint = 0;
    }

    /// The deployer's durable records (none without a deployer): what a
    /// checkpoint holds of it, and what the recovery self-check compares.
    fn deployer_records(&self) -> Vec<JournalRecord> {
        let deployer = self.deployer.iter();
        deployer
            .flat_map(DeployerComponent::durable_records)
            .collect()
    }

    /// Pumps the architecture while *discarding* every host
    /// action — the replay half of crash recovery. The original run already
    /// carried those effects out: remote sends hit the wire before the
    /// crash, each local delivery hop has its own journal record, and timers
    /// are restored from `TimerArmed` records.
    fn replay_pump(&mut self, now: SimTime) {
        // One pump is the fixpoint: discarded actions feed nothing back.
        self.arch.pump(now);
        let discarded = self.arch.lend_host_actions();
        self.arch.return_host_actions(discarded);
    }

    /// Routes an event to a component address on this host: meta-level
    /// addresses go to admin/deployer, everything else into the
    /// architecture (or the migration buffer).
    fn deliver_local(&mut self, to_component: Symbol, event: Event) {
        match to_component.as_str() {
            ADMIN_ADDRESS => {
                let phase = migration_phase(event.name());
                let replayed_before = self.services.stats.events_replayed;
                self.admin.handle(
                    &mut self.arch,
                    &mut self.services,
                    &mut self.factory,
                    self.app_connector,
                    &event,
                );
                if let Some(phase) = phase {
                    let mut builder = self
                        .telemetry
                        .event("prism.migration.phase", self.services.now.as_micros())
                        .field("host", self.arch.host().raw())
                        .field("phase", phase)
                        .field("buffered", self.services.buffered_total())
                        .field(
                            "replayed",
                            self.services.stats.events_replayed - replayed_before,
                        )
                        .trace_opt(event.trace());
                    if let Some(component) = event.param_text(crate::admin::P_COMPONENT) {
                        builder = builder.field("component", component.to_owned());
                    }
                    builder.emit();
                }
            }
            DEPLOYER_ADDRESS => {
                if let Some(deployer) = self.deployer.as_mut() {
                    deployer.handle(&mut self.services, &event);
                    if let Some(phase) = migration_phase(event.name()) {
                        let status = deployer.status();
                        let mut builder = self
                            .telemetry
                            .event("prism.migration.phase", self.services.now.as_micros())
                            .field("host", self.arch.host().raw())
                            .field("phase", phase)
                            .field("in_flight", status.in_flight.len())
                            .field("confirmed", status.confirmed)
                            .trace_opt(event.trace());
                        if let Some(component) = event.param_text(crate::admin::P_COMPONENT) {
                            builder = builder.field("component", component.to_owned());
                        }
                        builder.emit();
                    }
                }
                self.journal_deployer();
            }
            name => {
                if self.arch.contains_symbol(to_component) {
                    self.services.stats.app_events_received += 1;
                    self.services.journal_delivery(name, &event);
                    self.arch
                        .publish_to(to_component, event)
                        .expect("component exists; publish cannot fail");
                } else {
                    // The target is not here (mid-migration or a stale
                    // directory at the sender). If the directory points
                    // elsewhere and the event has not been forwarded yet,
                    // chase the component once; otherwise park the event for
                    // replay — the paper's buffering during redeployment.
                    match self.services.locate_symbol(to_component) {
                        Some(there)
                            if there != self.arch.host()
                                && event.param(FORWARDED_MARKER).is_none() =>
                        {
                            let event = event.with_param(FORWARDED_MARKER, true);
                            self.services.send_raw(there, to_component, &event);
                        }
                        _ => self.services.buffer_event(name, event),
                    }
                }
            }
        }
    }

    /// Drains architecture host-actions and the services outbox into the
    /// simulator.
    fn flush(&mut self, ctx: &mut NodeCtx<'_>) {
        // Keep pumping until neither the architecture nor the meta layer
        // produces more local work.
        loop {
            let pumped = self.arch.pump(ctx.now());
            self.events_routed.add(pumped);
            let mut actions = self.arch.lend_host_actions();
            let done = actions.is_empty();
            for action in actions.drain(..) {
                match action {
                    HostAction::SendRemote {
                        host,
                        to_component,
                        event,
                    } => {
                        if host == self.arch.host() {
                            self.deliver_local(to_component, event);
                        } else {
                            self.services.send_raw(host, to_component, &event);
                        }
                    }
                    HostAction::SendNamed {
                        to_component,
                        event,
                    } => {
                        // Every named interaction — local or remote — is one
                        // logical-link interaction; the admin's frequency
                        // monitor counts it at the sender.
                        self.services.stats.app_events_emitted += 1;
                        self.admin.observe_interaction(
                            event.source,
                            to_component,
                            &event,
                            ctx.now(),
                        );
                        match self.services.locate_symbol(to_component) {
                            Some(host) if host == self.arch.host() => {
                                self.deliver_local(to_component, event);
                            }
                            Some(host) => {
                                self.services.send_raw(host, to_component, &event);
                            }
                            None => {
                                self.services.stats.events_undeliverable += 1;
                            }
                        }
                    }
                    HostAction::SetTimer {
                        component,
                        delay,
                        token,
                    } => {
                        let id = TOKEN_COMPONENT_BASE + self.next_timer;
                        self.next_timer += 1;
                        self.timers.insert(id, (component, token));
                        self.services.journal(JournalRecord::TimerArmed {
                            id,
                            component: component.as_str(),
                            token,
                        });
                        ctx.set_timer(delay, id);
                    }
                }
            }
            self.arch.return_host_actions(actions);
            if done {
                break;
            }
        }
        // Frames queued so far go out; what their local loopbacks queue in
        // turn waits, behind them, for the next activation.
        for _ in 0..self.services.outbox.len() {
            let (dst, frame) = self.services.outbox.pop_front().expect("counted");
            if dst == self.arch.host() {
                // Local loopback of a control frame.
                if let WireMsg::Raw {
                    to_component,
                    event,
                } = frame
                {
                    if let Ok(event) = Event::decode(&event) {
                        self.deliver_local(to_component, event);
                    }
                }
                continue;
            }
            let size = frame.wire_size();
            let bytes = frame.encode();
            self.codec_bytes.add(bytes.len() as u64);
            ctx.send(dst, bytes, size);
        }
    }
}

impl PrismHost {
    /// Processes one wire frame. `origin` is the *logical* sender: the
    /// previous hop for directly received frames, or the original source
    /// recovered from a [`WireMsg::Forward`] envelope.
    fn handle_frame(&mut self, origin: HostId, frame: WireMsg) {
        // Any frame from `origin` proves the path from it works right now;
        // stop probing that peer at the backoff cap and retry pending
        // frames at the base RTO (recovers in-flight control traffic
        // quickly once a partition heals or a lossy streak ends).
        let now = self.services.now;
        if let Some(ch) = self.services.channel_mut(origin) {
            ch.on_peer_activity(now);
        }
        match frame {
            WireMsg::Forward { src, dst, frame } => {
                if dst == self.arch.host() {
                    if let Ok(inner) = WireMsg::decode(frame) {
                        self.handle_frame(src, inner);
                    }
                } else {
                    // Relay toward the destination.
                    match self.services.next_hop(dst) {
                        Some(hop) => {
                            self.services.stats.frames_forwarded += 1;
                            self.services
                                .outbox
                                .push_back((hop, WireMsg::Forward { src, dst, frame }));
                        }
                        None => {
                            self.services.stats.frames_unroutable += 1;
                        }
                    }
                }
            }
            WireMsg::Ping { nonce } => {
                // Pings are neighbor-to-neighbor; answer directly.
                self.services
                    .outbox
                    .push_back((origin, WireMsg::Pong { nonce }));
            }
            WireMsg::Pong { .. } => {
                self.services.probe.record_pong(origin);
            }
            WireMsg::Raw {
                to_component,
                event,
            } => {
                if let Ok(event) = Event::decode(&event) {
                    self.deliver_local(to_component, event);
                }
            }
            WireMsg::Seq {
                seq,
                to_component,
                event,
            } => {
                // Ack travels back to the origin, possibly multi-hop.
                self.services.wire(origin, WireMsg::Ack { seq });
                if self.services.channel_entry(origin).on_seq(seq) {
                    if let Ok(event) = Event::decode(&event) {
                        self.deliver_local(to_component, event);
                    }
                }
            }
            WireMsg::Ack { seq } => {
                if let Some(ch) = self.services.channel_mut(origin) {
                    ch.on_ack(seq);
                }
            }
        }
    }
}

impl Node for PrismHost {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        ctx.set_timer(RTO, TOKEN_RTO);
        ctx.set_timer(PING_INTERVAL, TOKEN_PING);
        ctx.set_timer(MONITOR_WINDOW, TOKEN_MONITOR);
        if self.deployer.is_some() {
            ctx.set_timer(DEPLOY_TICK, TOKEN_DEPLOY);
        }
        self.services.now = ctx.now();
        // Checkpoint 0: the pre-run state (initial components + directory),
        // so even a crash before the first periodic checkpoint recovers the
        // deployment the run started from.
        self.checkpoint_now();
        self.flush(ctx);
    }

    fn on_restart(&mut self, ctx: &mut NodeCtx<'_>) {
        let host = self.arch.host();
        let now = ctx.now();
        self.services.now = now;
        self.services.replaying = true;

        // The state the host actually held at the crash instant — memory is
        // not physically lost in a simulator, so it doubles as the oracle
        // for the recovery self-check below.
        let live_components = self.arch.component_snapshots();
        let live_directory = self.services.directory.clone();
        // The control plane's durable state in its canonical encoding:
        // equal bytes mean equal reliabilities, report count and last
        // snapshot (admin), and equal epoch, counters, move sources, pending
        // and failed moves and snapshots (the deployer's records).
        let live_admin = self.admin.durable_blob();
        let live_deployer = self.deployer_records();

        // -- wipe: the crash loses every volatile structure ----------------
        (self.arch, self.app_connector) = fresh_architecture(host);
        self.services.directory.clear();
        self.services.dir_memo.clear();
        self.services.channels.clear();
        self.services.outbox.clear();
        self.services.buffered.clear();
        self.services.probe = ReliabilityProbe::new();
        self.admin = AdminComponent::new(host);
        if self.deployer.take().is_some() {
            self.enable_deployer();
        }
        self.timers.clear();
        self.next_timer = 0;
        self.windows_since_checkpoint = 0;

        // -- recover: the checkpoint's records first, then the journal tail -
        let recovered = self.services.durable.recover();
        let (checkpoint_seq, checkpoint) = recovered.checkpoint.unwrap_or_default();
        let replayed = recovered.tail.len() as u64;
        let torn_bytes = recovered.torn_bytes;
        let tail_from = checkpoint.len();

        // Every record was journaled *after* its in-memory effect, and a
        // checkpoint lists the records that rebuild its state, so applying
        // the sequence on the freshly wiped host reproduces the pre-crash
        // state; host actions emitted along the way are discarded (see
        // `replay_pump`).
        let mut drained: BTreeSet<String> = BTreeSet::new();
        let mut attached: Vec<String> = Vec::new();
        let records = checkpoint.into_iter().chain(recovered.tail);
        for (at, record) in records.enumerate() {
            match record {
                JournalRecord::Delivery { component, event } => {
                    if let Ok(event) = Event::decode(&event) {
                        if self.arch.publish(&component, event).is_ok() {
                            self.replay_pump(now);
                        }
                    }
                }
                JournalRecord::TimerFired { id } => {
                    if let Some((component, token)) = self.timers.remove(id) {
                        let _ = self.arch.deliver_timer(component, token);
                        self.replay_pump(now);
                    }
                }
                JournalRecord::TimerArmed {
                    id,
                    component,
                    token,
                } => {
                    self.timers.insert(id, (Symbol::intern(&component), token));
                    self.next_timer = self.next_timer.max(id - TOKEN_COMPONENT_BASE + 1);
                }
                JournalRecord::DirectorySet { component, host } => {
                    self.services.directory_set(component, HostId::new(host));
                }
                JournalRecord::DirectoryReplaced { directory } => {
                    self.services.replace_directory(
                        directory
                            .into_iter()
                            .map(|(component, host)| (component, HostId::new(host)))
                            .collect(),
                    );
                }
                JournalRecord::EventBuffered { component, event } => {
                    if let Ok(event) = Event::decode(&event) {
                        self.services
                            .buffered
                            .entry(component)
                            .or_default()
                            .push(event);
                    }
                }
                JournalRecord::BufferDrained { component } => {
                    self.services.buffered.remove(&component);
                    drained.insert(component);
                }
                JournalRecord::ChannelSend { peer } => {
                    self.services
                        .channel_entry(HostId::new(peer))
                        .bump_next_seq();
                }
                JournalRecord::ComponentAttached {
                    name,
                    type_name,
                    state,
                } => {
                    if let Ok(behavior) = self.factory.build(&type_name, &state) {
                        if let Ok(id) = self.arch.add_boxed_component(name.clone(), behavior) {
                            let _ = self.arch.weld(id, self.app_connector);
                        }
                        self.replay_pump(now);
                    }
                    // Only an attach in the tail is a move that landed since
                    // the checkpoint.
                    if at >= tail_from {
                        attached.push(name);
                    }
                }
                JournalRecord::ComponentDetached { name } => {
                    let _ = self.arch.detach_component(&name);
                }
                JournalRecord::MonitorWindow { admin } => {
                    let _ = self.admin.restore_durable(&admin);
                }
                JournalRecord::DeployerState { blob } => {
                    if let Some(deployer) = self.deployer.as_mut() {
                        let _ = deployer.restore_durable(&blob);
                    }
                }
                JournalRecord::ReportReceived { payload } => {
                    if let Some(deployer) = self.deployer.as_mut() {
                        deployer.accept_report(&mut self.services, &payload);
                    }
                }
                JournalRecord::ChannelState {
                    peer,
                    next_seq,
                    next_expected,
                } => {
                    *self.services.channel_entry(HostId::new(peer)) =
                        ReliableChannel::restore(next_seq, next_expected);
                }
                JournalRecord::TimerCursor { next } => self.next_timer = next,
            }
        }

        // -- self-check + per-operation verdicts ---------------------------
        let components = self.arch.component_snapshots();
        let diverged: Vec<&'static str> = [
            ("components", components != live_components),
            ("directory", self.services.directory != live_directory),
            ("admin", self.admin.durable_blob() != live_admin),
            ("deployer", self.deployer_records() != live_deployer),
        ]
        .into_iter()
        .filter_map(|(part, differs)| differs.then_some(part))
        .collect();
        let state_equiv = diverged.is_empty();

        // A migrant whose attach record reached the journal tail verifiably
        // landed here; a move the recovered deployer still holds as pending
        // verifiably did not complete. The monitoring window open at the
        // crash is lost by design: its raw counts were volatile, and the
        // journal has no closing record.
        let in_flight = self.deployer.as_ref().map(|d| d.status().in_flight);
        let parked = self.services.buffered.keys().cloned().collect();
        let verdicts: Vec<OpVerdict> = [
            (OpKind::MigrationMove, attached, true),
            (OpKind::MigrationMove, in_flight.unwrap_or_default(), false),
            (OpKind::BufferedEvent, drained.into_iter().collect(), true),
            (OpKind::BufferedEvent, parked, false),
            (OpKind::MonitorWindow, vec!["window".to_owned()], false),
        ]
        .into_iter()
        .flat_map(|(kind, subjects, completed)| {
            subjects.into_iter().map(move |subject| OpVerdict {
                kind,
                subject,
                completed,
            })
        })
        .collect();

        let at_us = now.as_micros();
        self.telemetry
            .span("prism.recover", at_us, at_us)
            .field("host", host.raw())
            .field("checkpoint_seq", checkpoint_seq)
            .field("replayed", replayed)
            .field("torn_bytes", torn_bytes)
            .field("state_equiv", state_equiv)
            .field("diverged", diverged.join(","))
            .field("verdicts", verdicts.len())
            .emit();
        for verdict in &verdicts {
            self.telemetry
                .event("prism.recover.verdict", at_us)
                .field("host", host.raw())
                .field("kind", verdict.kind.label())
                .field("subject", verdict.subject.clone())
                .field("completed", verdict.completed)
                .emit();
        }
        self.recovery_reports.push(RecoveryReport {
            host,
            at: now,
            checkpoint_seq,
            replayed,
            torn_bytes,
            state_equiv,
            diverged,
            verdicts,
        });
        self.services.replaying = false;
    }

    fn on_message(&mut self, ctx: &mut NodeCtx<'_>, msg: Message) {
        self.services.now = ctx.now();
        // Wire latency of the frame (queueing + transmission + propagation),
        // in simulation microseconds.
        self.routing_latency
            .observe((ctx.now().as_micros() - msg.sent_at.as_micros()) as f64);
        let Ok(frame) = WireMsg::decode(msg.payload) else {
            return;
        };
        self.handle_frame(msg.src, frame);
        self.flush(ctx);
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, token: u64) {
        self.services.now = ctx.now();
        match token {
            TOKEN_RTO => {
                // Only frames whose exponential backoff has expired go out;
                // a long outage degrades to a low-rate probe instead of a
                // full-backlog resend every RTO tick.
                let now = self.services.now;
                let mut frames = Vec::new();
                for (peer, ch) in self.services.channels.iter_mut() {
                    if ch.in_flight() == 0 {
                        continue;
                    }
                    for frame in ch.due_retransmits(now) {
                        frames.push((*peer, frame));
                    }
                }
                self.services.stats.retransmissions += frames.len() as u64;
                for (peer, frame) in frames {
                    self.services.wire(peer, frame);
                }
                ctx.set_timer(RTO, TOKEN_RTO);
            }
            TOKEN_PING => {
                for i in 0..self.services.neighbors.len() {
                    let peer = self.services.neighbors[i];
                    self.services.ping(peer);
                }
                ctx.set_timer(PING_INTERVAL, TOKEN_PING);
            }
            TOKEN_DEPLOY => {
                if let Some(deployer) = self.deployer.as_mut() {
                    let (retried, newly_failed) = deployer.on_deploy_tick(&mut self.services);
                    for component in retried {
                        let move_ctx = deployer.move_ctx(&component);
                        self.telemetry
                            .event("prism.migration.retry", ctx.now().as_micros())
                            .field("host", self.arch.host().raw())
                            .field("component", component)
                            .trace_opt(move_ctx)
                            .emit();
                    }
                    for (component, reason) in newly_failed {
                        let move_ctx = deployer.move_ctx(&component);
                        self.telemetry
                            .event("prism.migration.failed", ctx.now().as_micros())
                            .field("host", self.arch.host().raw())
                            .field("component", component)
                            .field("reason", reason)
                            .trace_opt(move_ctx)
                            .emit();
                    }
                    ctx.set_timer(DEPLOY_TICK, TOKEN_DEPLOY);
                }
                self.journal_deployer();
            }
            TOKEN_MONITOR => {
                let reports_before = self.admin.reports_sent();
                self.admin.on_monitor_window(
                    &mut self.arch,
                    &mut self.services,
                    self.app_connector,
                );
                let mut builder = self
                    .telemetry
                    .event("prism.monitor.window", ctx.now().as_micros())
                    .field("host", self.arch.host().raw())
                    .field("reported", self.admin.reports_sent() > reports_before)
                    .field("reports_total", self.admin.reports_sent());
                if let Some(snapshot) = self.admin.last_snapshot() {
                    builder = builder
                        .field("components", snapshot.components.len())
                        .field("total_rate", snapshot.frequencies.values().sum::<f64>());
                }
                builder.emit();
                // A closed window commits the admin's durable state; the
                // window cut short by a crash has no such record, which is
                // what its not-completed recovery verdict reports.
                let admin = self.admin.durable_blob();
                self.services
                    .journal(JournalRecord::MonitorWindow { admin: &admin });
                self.windows_since_checkpoint += 1;
                if self.windows_since_checkpoint >= self.checkpoint_interval_windows {
                    self.checkpoint_now();
                }
                ctx.set_timer(MONITOR_WINDOW, TOKEN_MONITOR);
            }
            id => {
                if let Some((component, token)) = self.timers.remove(id) {
                    self.services.journal(JournalRecord::TimerFired { id });
                    // The component may have migrated away; its timer dies
                    // with the departure.
                    let _ = self.arch.deliver_timer(component, token);
                }
            }
        }
        self.flush(ctx);
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    use super::*;

    /// Builds a bare `HostServices` for unit tests in sibling modules.
    pub(crate) fn services(host: HostId) -> HostServices {
        HostServices::new(host, &HostConfig::default())
    }

    /// Moves the services' clock (the host runtime does this per activation).
    pub(crate) fn set_now(services: &mut HostServices, now: SimTime) {
        services.now = now;
    }
}
