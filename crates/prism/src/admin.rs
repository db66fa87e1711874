//! The meta-level components: `AdminComponent` and `DeployerComponent`.
//!
//! In Prism-MW an `ExtensibleComponent` "contains a reference to
//! Architecture", acting as "a meta-level component that can automatically
//! effect run-time changes to the system's architecture". Rust's ownership
//! rules make literal self-reference impossible, so the host runtime passes
//! the admin an exclusive borrow of the architecture on every activation —
//! the same capability, with aliasing checked at compile time.
//!
//! The redeployment protocol follows §4.3 of the paper:
//!
//! 1. The **deployer** sends each admin its new local configuration and the
//!    remote locations of components it must obtain ([`EV_CONFIGURE`]).
//! 2. Each **admin** diffs the configuration against its architecture and
//!    requests the components to be deployed locally from their current
//!    holders ([`EV_REQUEST`]); a host without a direct route sends its
//!    request through the deployer, which relays it ([`EV_MEDIATE`]).
//! 3. A holder detaches the requested component, serializes it, and ships it
//!    ([`EV_TRANSFER`]).
//! 4. The recipient reconstitutes the migrant, re-welds it, replays events
//!    buffered during the move, and confirms to the deployer ([`EV_ACK`]).
//!
//! All protocol traffic travels over reliable channels; only application
//! events are exposed to link loss. Reliable channels alone do not make the
//! protocol self-healing, so it is hardened for the faulty networks the
//! paper targets:
//!
//! * a host that *cannot* fulfil a request or transfer answers with an
//!   explicit [`EV_NACK`] (reason attached) instead of dropping it;
//! * every redeployment is **epoch-tagged**: acks and nacks from an earlier
//!   `effect` call are ignored, so overlapping redeployments cannot corrupt
//!   each other's progress accounting;
//! * the deployer keeps a **per-move deadline**; expiry re-resolves the
//!   holder from the freshest monitoring inventories and re-issues the move,
//!   up to a configurable attempt budget, after which the move is reported
//!   as failed in [`RedeploymentStatus::failed`] rather than pending
//!   forever.

use crate::architecture::Architecture;
use crate::brick::{BrickId, ComponentFactory};
use crate::codec::{
    get_bytes, get_ctx, get_f64, get_str, get_u32, get_varint, put_bytes, put_ctx, put_f64,
    put_str, put_varint,
};
use crate::durable::JournalRecord;
use crate::event::Event;
use crate::host::{HostServices, ADMIN_ADDRESS, DEPLOYER_ADDRESS};
use crate::monitor::{EventFrequencyMonitor, FrequencyWindow, MonitoringSnapshot};
use crate::stability::StabilityGauge;
use crate::symbol::Symbol;
use crate::PrismError;
use redep_model::HostId;
use redep_netsim::{Duration, SimTime};
use redep_telemetry::{
    trace::{DOMAIN_DEPLOYER, DOMAIN_HOST},
    SpanIdGen, Telemetry, TraceCtx,
};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Event name: an admin ships a stable [`MonitoringSnapshot`] to the deployer.
pub const EV_REPORT: &str = "prism.monitor.report";
/// Event name: the deployer sends a host its new configuration.
pub const EV_CONFIGURE: &str = "prism.deploy.configure";
/// Event name: an admin requests a component from its current holder.
pub const EV_REQUEST: &str = "prism.deploy.request";
/// Event name: a holder ships a serialized component.
pub const EV_TRANSFER: &str = "prism.deploy.transfer";
/// Event name: a recipient confirms a completed move to the deployer.
pub const EV_ACK: &str = "prism.deploy.ack";
/// Event name: a host reports to the deployer that it cannot fulfil a
/// requested move (component absent, reconstruction failed, …).
pub const EV_NACK: &str = "prism.deploy.nack";
/// Event name: a control event relayed through the deployer because its
/// sender cannot reach the destination directly.
pub const EV_MEDIATE: &str = "prism.deploy.mediate";

/// Parameter: the relayed event's final destination host (integer id).
pub const P_FINAL_HOST: &str = "final_host";
/// Parameter: the relayed event's final destination component.
pub const P_FINAL_COMPONENT: &str = "final_component";
/// Parameter: the component a request/ack is about.
pub const P_COMPONENT: &str = "component";
/// Parameter: the host a request originates from.
pub const P_REQUESTER: &str = "requester";
/// Parameter: the redeployment epoch a protocol event belongs to.
const P_EPOCH: &str = "epoch";
/// Parameter: why a move could not be fulfilled (on [`EV_NACK`]).
const P_REASON: &str = "reason";

/// Body of an [`EV_CONFIGURE`] event.
#[derive(Clone, PartialEq, Debug, Default, Serialize, Deserialize)]
pub(crate) struct ConfigureDoc {
    /// The full new deployment directory: component → host.
    pub directory: BTreeMap<String, HostId>,
    /// Components this host must fetch, with their current holders.
    pub fetches: Vec<(String, HostId)>,
    /// The redeployment epoch this configuration belongs to.
    #[serde(default)]
    pub epoch: u64,
}

/// Body of an [`EV_TRANSFER`] event: one serialized migrant component.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub(crate) struct TransferDoc {
    pub name: String,
    pub type_name: String,
    pub state: Vec<u8>,
    #[serde(default)]
    pub epoch: u64,
}

/// Progress of an in-flight redeployment, as seen by the deployer.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct RedeploymentStatus {
    /// The epoch of the redeployment this status describes (bumped by every
    /// `effect` call; acks from earlier epochs are ignored).
    pub epoch: u64,
    /// Component moves the last `effect` call requested.
    pub requested: u64,
    /// Moves confirmed by recipient admins.
    pub confirmed: u64,
    /// Components still in flight.
    pub in_flight: Vec<String>,
    /// Components whose move exhausted its attempt budget, with the last
    /// failure reason. These are *settled* — the deployer has given up on
    /// them for this epoch — but not complete.
    pub failed: Vec<(String, String)>,
}

impl RedeploymentStatus {
    /// Whether every requested move has been confirmed.
    pub fn is_complete(&self) -> bool {
        self.in_flight.is_empty() && self.failed.is_empty()
    }

    /// Whether the deployer has stopped working on this epoch: every move
    /// either confirmed or given up on. A settled-but-incomplete epoch is
    /// what the framework's recovery policy reconciles.
    pub fn is_settled(&self) -> bool {
        self.in_flight.is_empty()
    }
}

/// ε of the admin's stability gauges.
const STABILITY_EPSILON: f64 = 0.5;
/// Consecutive stable differences required before an admin reports.
const STABLE_WINDOWS: usize = 2;

/// The per-host monitoring and effecting endpoint (the paper's
/// `AdminComponent`).
pub struct AdminComponent {
    host: HostId,
    /// Counts *named* interactions (local and remote) per component pair.
    interactions: EventFrequencyMonitor,
    freq_gauge: StabilityGauge,
    rel_gauge: StabilityGauge,
    latest_reliabilities: BTreeMap<HostId, f64>,
    reports_sent: u64,
    last_snapshot: Option<MonitoringSnapshot>,
    /// `last_snapshot` as encoded for shipping (empty while there is none):
    /// the report payload and the durable state share these bytes.
    last_encoded: Vec<u8>,
    /// Allocates span ids for protocol hops handled on this host.
    tracer: SpanIdGen,
}

impl std::fmt::Debug for AdminComponent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdminComponent")
            .field("host", &self.host)
            .field("reports_sent", &self.reports_sent)
            .finish()
    }
}

impl AdminComponent {
    pub(crate) fn new(host: HostId) -> Self {
        AdminComponent {
            host,
            interactions: EventFrequencyMonitor::new(),
            // Total event rate has no natural scale: judge it relatively.
            freq_gauge: StabilityGauge::new_relative(STABILITY_EPSILON, STABLE_WINDOWS),
            rel_gauge: StabilityGauge::new(STABILITY_EPSILON, STABLE_WINDOWS),
            latest_reliabilities: BTreeMap::new(),
            reports_sent: 0,
            last_snapshot: None,
            last_encoded: Vec::new(),
            tracer: SpanIdGen::new(DOMAIN_HOST, host.raw()),
        }
    }

    /// Number of monitoring reports shipped to the deployer so far.
    pub fn reports_sent(&self) -> u64 {
        self.reports_sent
    }

    /// The most recent snapshot this admin assembled (whether or not it was
    /// stable enough to ship).
    pub fn last_snapshot(&self) -> Option<&MonitoringSnapshot> {
        self.last_snapshot.as_ref()
    }

    /// Latest per-peer reliability estimates.
    pub fn reliability_estimates(&self) -> &BTreeMap<HostId, f64> {
        &self.latest_reliabilities
    }

    /// Serializes the admin's durable state (persisted in every checkpoint
    /// and every `MonitorWindow` journal record) in the store's binary
    /// framing: the reliability estimates as (host varint, f64 bits) pairs,
    /// the report count, and the last snapshot's encoded bytes once, raw.
    /// The stability gauges and the *open* window's raw interaction counts
    /// are deliberately volatile: the window in flight at a crash is lost,
    /// which is exactly what the recovery report's `MonitorWindow`
    /// not-completed verdict says.
    pub(crate) fn durable_blob(&self) -> Vec<u8> {
        let mut out =
            Vec::with_capacity(16 + 10 * self.latest_reliabilities.len() + self.last_encoded.len());
        put_varint(&mut out, self.latest_reliabilities.len() as u64);
        for (peer, reliability) in &self.latest_reliabilities {
            put_varint(&mut out, u64::from(peer.raw()));
            put_f64(&mut out, *reliability);
        }
        put_varint(&mut out, self.reports_sent);
        put_bytes(&mut out, &self.last_encoded);
        out
    }

    /// Restores the durable half of the admin from a [`Self::durable_blob`]
    /// (monitors and gauges restart empty).
    ///
    /// # Errors
    ///
    /// Returns [`PrismError::Codec`] for a truncated or over-long blob and
    /// leaves the admin untouched.
    pub(crate) fn restore_durable(&mut self, blob: &[u8]) -> Result<(), PrismError> {
        let pos = &mut 0usize;
        let mut reliabilities = BTreeMap::new();
        for _ in 0..get_varint(blob, pos)? {
            reliabilities.insert(HostId::new(get_u32(blob, pos)?), get_f64(blob, pos)?);
        }
        let reports_sent = get_varint(blob, pos)?;
        let encoded = get_bytes(blob, pos)?;
        if *pos != blob.len() {
            return Err(PrismError::Codec("trailing bytes after admin state".into()));
        }
        self.latest_reliabilities = reliabilities;
        self.reports_sent = reports_sent;
        self.last_snapshot = MonitoringSnapshot::decode(encoded).ok();
        self.last_encoded = encoded.to_vec();
        Ok(())
    }

    /// Records one named interaction (called by the host runtime for every
    /// `send_to`, local or remote).
    pub(crate) fn observe_interaction(
        &mut self,
        src: Option<Symbol>,
        dst: Symbol,
        event: &Event,
        now: SimTime,
    ) {
        use crate::monitor::ConnectorMonitor;
        let src = src.unwrap_or_else(|| Symbol::intern("?"));
        self.interactions.observe(src, dst, event, now);
    }

    /// Closes one monitoring window: rolls the interaction and reliability
    /// monitors, feeds the stability gauges, and — once the readings are
    /// stable — ships a [`MonitoringSnapshot`] to the deployer.
    pub(crate) fn on_monitor_window(
        &mut self,
        arch: &mut Architecture,
        services: &mut HostServices,
        app_connector: BrickId,
    ) {
        let now = services.now();

        // Platform-dependent halves: the connector tap and the ping probe.
        let named = self.interactions.roll_window(now);
        let bus = arch
            .monitor_mut::<EventFrequencyMonitor>(app_connector)
            .map(|m| m.roll_window(now))
            .unwrap_or_default();
        // Exponentially smooth the per-window reliability estimates: a
        // single window holds only a handful of ping samples, so the raw
        // ratio is heavily quantized (the platform-independent half of the
        // monitor "interprets … the monitored data").
        const EWMA_ALPHA: f64 = 0.3;
        for (peer, fresh) in services.probe.roll_window() {
            let smoothed = match self.latest_reliabilities.get(&peer) {
                Some(old) => (1.0 - EWMA_ALPHA) * old + EWMA_ALPHA * fresh,
                None => fresh,
            };
            self.latest_reliabilities.insert(peer, smoothed);
        }

        // Merge the two frequency sources (named sends + connector traffic).
        let (frequencies, event_sizes) = FrequencyWindow::estimates(&[&named, &bus]);

        // Platform-independent half: ε-stability across windows.
        let total_rate: f64 = frequencies.values().sum();
        let mean_rel = if self.latest_reliabilities.is_empty() {
            1.0
        } else {
            self.latest_reliabilities.values().sum::<f64>() / self.latest_reliabilities.len() as f64
        };
        self.freq_gauge.push(total_rate);
        self.rel_gauge.push(mean_rel);

        let snapshot = MonitoringSnapshot {
            host: self.host,
            components: arch.component_inventory().into_iter().collect(),
            frequencies,
            event_sizes,
            reliabilities: self.latest_reliabilities.clone(),
            taken_at_secs: now.as_secs_f64(),
        };
        self.last_encoded = snapshot.encode();
        self.last_snapshot = Some(snapshot);

        if self.freq_gauge.is_stable() && self.rel_gauge.is_stable() {
            let report = Event::notification(EV_REPORT).with_payload(self.last_encoded.clone());
            services.send_reliable(services.deployer_host(), DEPLOYER_ADDRESS, &report);
            self.reports_sent += 1;
        }
    }

    /// Handles a control event addressed to [`ADMIN_ADDRESS`].
    pub(crate) fn handle(
        &mut self,
        arch: &mut Architecture,
        services: &mut HostServices,
        factory: &mut ComponentFactory,
        app_connector: BrickId,
        event: &Event,
    ) {
        match event.name() {
            EV_CONFIGURE => self.on_configure(arch, services, event),
            EV_REQUEST => self.on_request(arch, services, event),
            EV_TRANSFER => self.on_transfer(arch, services, factory, app_connector, event),
            _ => {}
        }
    }

    fn on_configure(
        &mut self,
        arch: &mut Architecture,
        services: &mut HostServices,
        event: &Event,
    ) {
        let Ok(doc) = serde_json::from_slice::<ConfigureDoc>(event.payload()) else {
            return;
        };
        services.replace_directory(doc.directory);
        for (component, holder) in doc.fetches {
            // Each hop of the protocol opens its own child span under the
            // incoming event's context, so a journal reconstructs the full
            // configure → request → transfer → ack causal chain.
            let ctx = event
                .trace()
                .map(|parent| parent.child(self.tracer.next_id()));
            if arch.contains_component(&component) {
                // Already here (no-op move or retried configure after the
                // transfer landed); confirm immediately.
                send_ack(services, &component, doc.epoch, ctx);
                continue;
            }
            let mut request = Event::request(EV_REQUEST)
                .with_param(P_COMPONENT, component.as_str())
                .with_param(P_REQUESTER, self.host.raw() as i64)
                .with_param(P_EPOCH, doc.epoch as i64);
            if let Some(ctx) = ctx {
                request = request.with_trace(ctx);
            }
            services.send_reliable(holder, ADMIN_ADDRESS, &request);
        }
    }

    fn on_request(&mut self, arch: &mut Architecture, services: &mut HostServices, event: &Event) {
        let Some(component) = event.param_text(P_COMPONENT).map(str::to_owned) else {
            return;
        };
        let Some(requester) = event.param(P_REQUESTER).and_then(|v| v.as_i64()) else {
            return;
        };
        let epoch = event_epoch(event);
        let requester = HostId::new(requester as u32);
        let ctx = event
            .trace()
            .map(|parent| parent.child(self.tracer.next_id()));
        let Ok((type_name, state)) = arch.detach_component(&component) else {
            // Not here (already moved or never was). Silence would stall the
            // deployer's accounting forever; answer with an explicit nack so
            // it can re-resolve the holder or give the move up.
            send_nack(services, &component, epoch, "absent", ctx);
            return;
        };
        services.journal(JournalRecord::ComponentDetached { name: &component });
        let doc = TransferDoc {
            name: component,
            type_name,
            state,
            epoch,
        };
        let mut transfer = Event::reply(EV_TRANSFER)
            .with_payload(serde_json::to_vec(&doc).expect("transfer docs serialize"));
        if let Some(ctx) = ctx {
            transfer = transfer.with_trace(ctx);
        }
        services.send_reliable(requester, ADMIN_ADDRESS, &transfer);
    }

    fn on_transfer(
        &mut self,
        arch: &mut Architecture,
        services: &mut HostServices,
        factory: &mut ComponentFactory,
        app_connector: BrickId,
        event: &Event,
    ) {
        let Ok(doc) = serde_json::from_slice::<TransferDoc>(event.payload()) else {
            return;
        };
        let ctx = event
            .trace()
            .map(|parent| parent.child(self.tracer.next_id()));
        let Ok(behavior) = factory.build(&doc.type_name, &doc.state) else {
            // The migrant cannot be reconstituted here (unknown type,
            // corrupt state): report instead of losing the move silently.
            send_nack(services, &doc.name, doc.epoch, "build", ctx);
            return;
        };
        let Ok(id) = arch.add_boxed_component(doc.name.clone(), behavior) else {
            // Duplicate arrival of the same migrant (a retry raced the
            // original transfer). The component is here — re-confirm so a
            // lost ack cannot stall the deployer.
            send_ack(services, &doc.name, doc.epoch, ctx);
            return;
        };
        let _ = arch.weld(id, app_connector);
        services.journal(JournalRecord::ComponentAttached {
            name: &doc.name,
            type_name: &doc.type_name,
            state: &doc.state,
        });
        services.directory_set(doc.name.clone(), self.host);
        // Replay events buffered while the component was in flight. Each
        // replayed event is journaled like any other local delivery, so
        // crash recovery re-applies it to the migrant's recovered state.
        for buffered in services.take_buffered(&doc.name) {
            services.journal_delivery(&doc.name, &buffered);
            let _ = arch.publish(&doc.name, buffered);
        }
        send_ack(services, &doc.name, doc.epoch, ctx);
    }
}

/// Confirms one landed move to the deployer.
fn send_ack(services: &mut HostServices, component: &str, epoch: u64, ctx: Option<TraceCtx>) {
    let mut ack = Event::notification(EV_ACK)
        .with_param(P_COMPONENT, component)
        .with_param(P_EPOCH, epoch as i64);
    if let Some(ctx) = ctx {
        ack = ack.with_trace(ctx);
    }
    services.send_reliable(services.deployer_host(), DEPLOYER_ADDRESS, &ack);
}

/// Reports one unfulfillable move to the deployer.
fn send_nack(
    services: &mut HostServices,
    component: &str,
    epoch: u64,
    reason: &str,
    ctx: Option<TraceCtx>,
) {
    let mut nack = Event::notification(EV_NACK)
        .with_param(P_COMPONENT, component)
        .with_param(P_EPOCH, epoch as i64)
        .with_param(P_REASON, reason);
    if let Some(ctx) = ctx {
        nack = nack.with_trace(ctx);
    }
    services.send_reliable(services.deployer_host(), DEPLOYER_ADDRESS, &nack);
}

/// Reads the epoch parameter (0 for pre-epoch peers and direct host-to-host
/// requests outside any deployer-run redeployment).
fn event_epoch(event: &Event) -> u64 {
    event
        .param(P_EPOCH)
        .and_then(|v| v.as_i64())
        .map(|e| e as u64)
        .unwrap_or(0)
}

/// One move the deployer is still responsible for.
#[derive(Clone, PartialEq, Eq, Debug)]
struct PendingMove {
    /// Where the component must end up.
    dest: HostId,
    /// The holder the last attempt requested it from.
    holder: HostId,
    /// Attempts so far (the initial `effect` issue counts as attempt 1).
    attempts: u32,
    /// When the current attempt expires.
    deadline: SimTime,
    /// Trace context of this move's span: the `.open` marker and the settle
    /// record share its span id, so a journal merges them into one span.
    ctx: Option<TraceCtx>,
    /// When the move was issued (the span's start time).
    started: SimTime,
    /// Whether the span was already settled (framework abandon at
    /// reconcile); settling is idempotent per move.
    settled: bool,
}

impl PendingMove {
    fn encode_into(&self, out: &mut Vec<u8>) {
        put_varint(out, u64::from(self.dest.raw()));
        put_varint(out, u64::from(self.holder.raw()));
        put_varint(out, u64::from(self.attempts));
        put_varint(out, self.deadline.as_micros());
        put_varint(out, self.started.as_micros());
        put_varint(out, u64::from(self.settled));
        put_ctx(out, self.ctx);
    }

    fn decode(bytes: &[u8], pos: &mut usize) -> Result<Self, PrismError> {
        Ok(PendingMove {
            dest: HostId::new(get_u32(bytes, pos)?),
            holder: HostId::new(get_u32(bytes, pos)?),
            attempts: get_u32(bytes, pos)?,
            deadline: SimTime::from_micros(get_varint(bytes, pos)?),
            started: SimTime::from_micros(get_varint(bytes, pos)?),
            settled: get_varint(bytes, pos)? != 0,
            ctx: get_ctx(bytes, pos)?,
        })
    }
}

/// Everything the deployer needs to keep steering the *current epoch*
/// across a crash, journaled whole whenever a transition changes it.
/// Monitoring snapshots are not part of it: the journal carries each as its
/// own `ReportReceived` delta, and only checkpoints store the full set. The
/// per-move deadline and attempt budget are constants ([`MOVE_DEADLINE`],
/// [`MAX_MOVE_ATTEMPTS`]), and the span-id allocator restarts
/// deterministically, so neither is persisted.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
struct EpochState {
    epoch: u64,
    requested: u64,
    confirmed: u64,
    /// The directory the current epoch is steering towards (re-sent with
    /// every retry so late joiners converge on the same view).
    target_directory: BTreeMap<String, HostId>,
    /// Hosts a component was ever moved away from. Like the reporting hosts
    /// (the snapshot keys) they receive every directory refresh.
    move_sources: BTreeSet<HostId>,
    /// Moves of the current epoch still awaiting confirmation.
    pending: BTreeMap<String, PendingMove>,
    /// Moves of the current epoch given up on, with the last failure reason.
    failed: BTreeMap<String, String>,
    /// Trace contexts of this epoch's failed moves (the move is out of
    /// `pending`, but its span id is still needed for `prism.migration.failed`).
    failed_ctx: BTreeMap<String, TraceCtx>,
    /// The framework span the current epoch's moves are children of.
    epoch_ctx: Option<TraceCtx>,
}

impl EpochState {
    fn encode_into(&self, out: &mut Vec<u8>) {
        put_varint(out, self.epoch);
        put_varint(out, self.requested);
        put_varint(out, self.confirmed);
        put_varint(out, self.target_directory.len() as u64);
        for (component, host) in &self.target_directory {
            put_str(out, component);
            put_varint(out, u64::from(host.raw()));
        }
        put_varint(out, self.move_sources.len() as u64);
        for host in &self.move_sources {
            put_varint(out, u64::from(host.raw()));
        }
        put_varint(out, self.pending.len() as u64);
        for (component, mv) in &self.pending {
            put_str(out, component);
            mv.encode_into(out);
        }
        put_varint(out, self.failed.len() as u64);
        for (component, reason) in &self.failed {
            put_str(out, component);
            put_str(out, reason);
        }
        put_varint(out, self.failed_ctx.len() as u64);
        for (component, ctx) in &self.failed_ctx {
            put_str(out, component);
            put_ctx(out, Some(*ctx));
        }
        put_ctx(out, self.epoch_ctx);
    }

    fn decode(bytes: &[u8], pos: &mut usize) -> Result<Self, PrismError> {
        let mut state = EpochState {
            epoch: get_varint(bytes, pos)?,
            requested: get_varint(bytes, pos)?,
            confirmed: get_varint(bytes, pos)?,
            ..EpochState::default()
        };
        for _ in 0..get_varint(bytes, pos)? {
            state
                .target_directory
                .insert(get_str(bytes, pos)?, HostId::new(get_u32(bytes, pos)?));
        }
        for _ in 0..get_varint(bytes, pos)? {
            state.move_sources.insert(HostId::new(get_u32(bytes, pos)?));
        }
        for _ in 0..get_varint(bytes, pos)? {
            state
                .pending
                .insert(get_str(bytes, pos)?, PendingMove::decode(bytes, pos)?);
        }
        for _ in 0..get_varint(bytes, pos)? {
            state
                .failed
                .insert(get_str(bytes, pos)?, get_str(bytes, pos)?);
        }
        for _ in 0..get_varint(bytes, pos)? {
            let component = get_str(bytes, pos)?;
            let ctx = get_ctx(bytes, pos)?
                .ok_or_else(|| PrismError::Codec("failed move without a trace".into()))?;
            state.failed_ctx.insert(component, ctx);
        }
        state.epoch_ctx = get_ctx(bytes, pos)?;
        Ok(state)
    }
}

/// How long the deployer waits for a move's EV_ACK before reissuing the move
/// (with a freshly resolved holder).
const MOVE_DEADLINE: Duration = Duration::from_millis(8_000);
/// Send attempts per move before the deployer gives up and records the move
/// as failed.
const MAX_MOVE_ATTEMPTS: u32 = 5;

/// The master-host deployer (the paper's `DeployerComponent` — the
/// `ExtensibleComponent` with the `Deployer` implementation of `IAdmin`).
pub struct DeployerComponent {
    host: HostId,
    snapshots: BTreeMap<HostId, MonitoringSnapshot>,
    state: EpochState,
    /// `state` as last journaled or restored: a transition is journaled
    /// when the two differ ([`Self::take_changed_state`]).
    journaled: EpochState,
    /// Allocates the per-move and per-configure span ids.
    tracer: SpanIdGen,
    /// Where move open/settle records go (a disabled no-op sink until the
    /// host installs its telemetry handle).
    telemetry: Telemetry,
}

impl std::fmt::Debug for DeployerComponent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeployerComponent")
            .field("host", &self.host)
            .field("snapshots", &self.snapshots.len())
            .field("epoch", &self.state.epoch)
            .field("pending", &self.state.pending.len())
            .field("failed", &self.state.failed.len())
            .finish()
    }
}

impl DeployerComponent {
    pub(crate) fn new(host: HostId) -> Self {
        DeployerComponent {
            host,
            snapshots: BTreeMap::new(),
            state: EpochState::default(),
            journaled: EpochState::default(),
            tracer: SpanIdGen::new(DOMAIN_DEPLOYER, host.raw()),
            telemetry: Telemetry::disabled(),
        }
    }

    /// Installs the telemetry handle move open/settle records are journaled
    /// through (the host runtime forwards its own handle here).
    pub(crate) fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// The trace context of a move still pending — or already failed — in
    /// the current epoch (for the host runtime's retry/failure telemetry).
    pub(crate) fn move_ctx(&self, component: &str) -> Option<TraceCtx> {
        self.state
            .pending
            .get(component)
            .and_then(|mv| mv.ctx)
            .or_else(|| self.state.failed_ctx.get(component).copied())
    }

    /// Emits the settle record of one move span. Outcomes: `confirmed`,
    /// `failed`, `superseded`, `abandoned`.
    fn settle_move(&self, component: &str, mv: &PendingMove, now: SimTime, outcome: &str) {
        let Some(ctx) = mv.ctx else { return };
        if mv.settled {
            return;
        }
        self.telemetry
            .span(
                "prism.migration.move",
                mv.started.as_micros(),
                now.as_micros(),
            )
            .field("component", component.to_owned())
            .field("to", mv.dest.raw())
            .field("attempts", mv.attempts)
            .field("outcome", outcome.to_owned())
            .trace(ctx)
            .emit();
    }

    /// Settles every still-open move span as `abandoned` — called by a
    /// framework that reconciles an incomplete epoch, so no run ends with
    /// unsettled move spans. Accounting (`status()`) is untouched.
    pub(crate) fn abandon_pending(&mut self, now: SimTime) {
        let components: Vec<String> = self.state.pending.keys().cloned().collect();
        for component in components {
            let mv = self.state.pending[&component].clone();
            self.settle_move(&component, &mv, now, "abandoned");
            self.state
                .pending
                .get_mut(&component)
                .expect("still pending")
                .settled = true;
        }
    }

    /// The epoch state to journal as a `DeployerState` record, if a
    /// transition changed it since it was last journaled; `None` after
    /// activity that changed nothing (an idle deploy tick, a stale ack, a
    /// relayed event), so such activity appends nothing.
    pub(crate) fn take_changed_state(&mut self) -> Option<Vec<u8>> {
        if self.state == self.journaled {
            return None;
        }
        self.journaled = self.state.clone();
        let mut out = Vec::new();
        self.state.encode_into(&mut out);
        Some(out)
    }

    /// The records that rebuild the deployer on a wiped host: its epoch
    /// state as a `DeployerState` record, then one `ReportReceived` per
    /// held snapshot in ascending host order. Checkpoints hold them, and
    /// the recovery self-check compares them.
    pub(crate) fn durable_records(&self) -> Vec<JournalRecord> {
        let mut blob = Vec::new();
        self.state.encode_into(&mut blob);
        let reports = (self.snapshots.values()).map(|snapshot| JournalRecord::ReportReceived {
            payload: snapshot.encode(),
        });
        std::iter::once(JournalRecord::DeployerState { blob })
            .chain(reports)
            .collect()
    }

    /// Restores the deployer's epoch state from a `DeployerState` record
    /// (the snapshots stay as they are).
    ///
    /// # Errors
    ///
    /// Returns [`PrismError::Codec`] for a malformed blob and leaves the
    /// deployer untouched (the recovery report's verdicts and self-check
    /// then say what was dropped).
    pub(crate) fn restore_durable(&mut self, blob: &[u8]) -> Result<(), PrismError> {
        let pos = &mut 0usize;
        let state = EpochState::decode(blob, pos)?;
        if *pos != blob.len() {
            return Err(PrismError::Codec(
                "trailing bytes after deployer state".into(),
            ));
        }
        self.journaled = state.clone();
        self.state = state;
        Ok(())
    }

    /// Takes in one monitoring report payload and journals it as a
    /// `ReportReceived` delta — the live `EV_REPORT` path, and (journaling
    /// being a no-op then) the replay of that record. An undecodable report
    /// is dropped and leaves no record; so is a stale one — the reliable
    /// channel delivers exactly once but not in order, and a retransmitted
    /// report can arrive after its host's next.
    pub(crate) fn accept_report(&mut self, services: &mut HostServices, payload: &[u8]) {
        let Ok(snapshot) = MonitoringSnapshot::decode(payload) else {
            return;
        };
        let held = self.snapshots.get(&snapshot.host);
        if held.is_some_and(|held| held.taken_at_secs > snapshot.taken_at_secs) {
            return;
        }
        self.snapshots.insert(snapshot.host, snapshot);
        services.journal(JournalRecord::ReportReceived { payload });
    }

    /// Monitoring snapshots collected from every reporting host.
    pub fn snapshots(&self) -> &BTreeMap<HostId, MonitoringSnapshot> {
        &self.snapshots
    }

    /// Progress of the redeployment issued by the last `effect` call.
    pub fn status(&self) -> RedeploymentStatus {
        RedeploymentStatus {
            epoch: self.state.epoch,
            requested: self.state.requested,
            confirmed: self.state.confirmed,
            in_flight: self.state.pending.keys().cloned().collect(),
            failed: self
                .state
                .failed
                .iter()
                .map(|(c, r)| (c.clone(), r.clone()))
                .collect(),
        }
    }

    /// Issues a redeployment: computes per-host configurations from the
    /// desired `target` and the current directory, and sends every admin its
    /// new configuration (including the refreshed global directory).
    ///
    /// Every call opens a fresh epoch: progress counters reset, moves still
    /// pending from an earlier epoch are dropped (their late acks will be
    /// ignored by the epoch check), and `status()` describes only this call.
    ///
    /// `parent` is the trace context the new epoch's move spans hang off
    /// (typically a framework's redeployment span); `None` leaves the
    /// protocol untraced.
    pub(crate) fn effect(
        &mut self,
        services: &mut HostServices,
        target: BTreeMap<String, HostId>,
        parent: Option<TraceCtx>,
    ) {
        let current = services.directory().clone();
        let now = services.now();
        // Moves still open from the previous epoch are dropped; settle their
        // spans so the journal shows *why* they never confirmed.
        let superseded: Vec<(String, PendingMove)> = self
            .state
            .pending
            .iter()
            .map(|(c, m)| (c.clone(), m.clone()))
            .collect();
        for (component, mv) in superseded {
            self.settle_move(&component, &mv, now, "superseded");
        }
        self.state.epoch += 1;
        self.state.epoch_ctx = parent;
        self.state.pending.clear();
        self.state.failed.clear();
        self.state.failed_ctx.clear();
        self.state.requested = 0;
        self.state.confirmed = 0;
        let mut fetches_by_host: BTreeMap<HostId, Vec<(String, HostId)>> = BTreeMap::new();
        let mut new_directory = current.clone();
        for (component, to) in &target {
            new_directory.insert(component.clone(), *to);
            match current.get(component) {
                Some(from) if from == to => {}
                Some(from) => {
                    fetches_by_host
                        .entry(*to)
                        .or_default()
                        .push((component.clone(), *from));
                    let ctx = parent.map(|p| p.child(self.tracer.next_id()));
                    if let Some(ctx) = ctx {
                        // The `.open` marker shares the settle record's span
                        // id; a journal with an open marker and no settle is
                        // a trace-invariant violation.
                        self.telemetry
                            .event("prism.migration.move.open", now.as_micros())
                            .field("component", component.clone())
                            .field("from", from.raw())
                            .field("to", to.raw())
                            .field("epoch", self.state.epoch)
                            .trace(ctx)
                            .emit();
                    }
                    self.state.pending.insert(
                        component.clone(),
                        PendingMove {
                            dest: *to,
                            holder: *from,
                            attempts: 1,
                            deadline: now + MOVE_DEADLINE,
                            ctx,
                            started: now,
                            settled: false,
                        },
                    );
                    self.state.requested += 1;
                    // The source host may hold nothing else afterwards, yet
                    // it must learn the new directory to chase stale events.
                    self.state.move_sources.insert(*from);
                }
                None => {}
            }
        }
        self.state.target_directory = new_directory.clone();
        // Every known host gets the new directory — component holders, but
        // also bystanders (known from their monitoring reports), whose
        // stale directories would otherwise misroute application events.
        let mut all_hosts: BTreeSet<HostId> = new_directory.values().copied().collect();
        all_hosts.extend(self.snapshots.keys().copied());
        all_hosts.extend(self.state.move_sources.iter().copied());
        all_hosts.insert(self.host);
        for host in all_hosts {
            let doc = ConfigureDoc {
                directory: new_directory.clone(),
                fetches: fetches_by_host.remove(&host).unwrap_or_default(),
                epoch: self.state.epoch,
            };
            let mut configure = Event::request(EV_CONFIGURE)
                .with_payload(serde_json::to_vec(&doc).expect("configure docs serialize"));
            // One configure-wave span per host, under the epoch's framework
            // span; remote admins open further children off it per hop.
            if let Some(p) = parent {
                configure = configure.with_trace(p.child(self.tracer.next_id()));
            }
            services.send_reliable(host, ADMIN_ADDRESS, &configure);
        }
    }

    /// Expires overdue moves: each one is re-issued with the holder
    /// re-resolved from the freshest component inventories, until its
    /// attempt budget runs out and it lands in `failed`. Returns
    /// `(retried, newly_failed)` for the caller's telemetry.
    pub(crate) fn on_deploy_tick(
        &mut self,
        services: &mut HostServices,
    ) -> (Vec<String>, Vec<(String, String)>) {
        let now = services.now();
        let overdue: Vec<String> = self
            .state
            .pending
            .iter()
            .filter(|(_, mv)| mv.deadline <= now)
            .map(|(c, _)| c.clone())
            .collect();
        let mut retried = Vec::new();
        let mut newly_failed = Vec::new();
        for component in overdue {
            if self.retry_move(services, &component, "timeout") {
                retried.push(component);
            } else {
                let reason = self
                    .state
                    .failed
                    .get(&component)
                    .cloned()
                    .unwrap_or_else(|| "timeout".to_owned());
                newly_failed.push((component, reason));
            }
        }
        (retried, newly_failed)
    }

    /// Re-issues one pending move (or gives it up when its budget is spent).
    /// Returns `true` if a retry went out.
    fn retry_move(&mut self, services: &mut HostServices, component: &str, reason: &str) -> bool {
        let Some(mv) = self.state.pending.get_mut(component) else {
            return false;
        };
        if mv.attempts >= MAX_MOVE_ATTEMPTS {
            let mv = self
                .state
                .pending
                .remove(component)
                .expect("just looked up");
            self.settle_move(component, &mv, services.now(), "failed");
            if let Some(ctx) = mv.ctx {
                self.state.failed_ctx.insert(component.to_owned(), ctx);
            }
            self.state
                .failed
                .insert(component.to_owned(), reason.to_owned());
            return false;
        }
        mv.attempts += 1;
        mv.deadline = services.now() + MOVE_DEADLINE;
        // Re-resolve the holder from the freshest inventories: the paper's
        // monitoring reports double as a live component directory, so a
        // component that moved (or whose holder crashed and restarted
        // elsewhere) is chased to wherever it actually lives now.
        let mut holder = mv.holder;
        let mut freshest = f64::NEG_INFINITY;
        for (host, snapshot) in self.snapshots.iter() {
            if snapshot.taken_at_secs > freshest && snapshot.components.contains_key(component) {
                holder = *host;
                freshest = snapshot.taken_at_secs;
            }
        }
        mv.holder = holder;
        let dest = mv.dest;
        let ctx = mv.ctx;
        let doc = ConfigureDoc {
            directory: self.state.target_directory.clone(),
            fetches: vec![(component.to_owned(), holder)],
            epoch: self.state.epoch,
        };
        let mut configure = Event::request(EV_CONFIGURE)
            .with_payload(serde_json::to_vec(&doc).expect("configure docs serialize"));
        // A retry's configure carries the *move* span itself, so every
        // fault-induced re-issue chains back to the move it serves.
        if let Some(ctx) = ctx {
            configure = configure.with_trace(ctx);
        }
        services.send_reliable(dest, ADMIN_ADDRESS, &configure);
        true
    }

    /// Handles a control event addressed to [`DEPLOYER_ADDRESS`].
    pub(crate) fn handle(&mut self, services: &mut HostServices, event: &Event) {
        match event.name() {
            EV_REPORT => self.accept_report(services, event.payload()),
            EV_ACK => {
                if event_epoch(event) != self.state.epoch {
                    return; // stale ack from a superseded redeployment
                }
                if let Some(component) = event.param_text(P_COMPONENT) {
                    if let Some(mv) = self.state.pending.remove(component) {
                        self.settle_move(component, &mv, services.now(), "confirmed");
                        self.state.confirmed += 1;
                        // A confirmed arrival supersedes any earlier verdict
                        // a racing nack may have recorded.
                        self.state.failed.remove(component);
                        self.state.failed_ctx.remove(component);
                    }
                }
            }
            EV_NACK => {
                if event_epoch(event) != self.state.epoch {
                    return;
                }
                let Some(component) = event.param_text(P_COMPONENT).map(str::to_owned) else {
                    return;
                };
                let reason = event
                    .param_text(P_REASON)
                    .unwrap_or("unspecified")
                    .to_owned();
                // An explicit refusal: retry immediately (with holder
                // re-resolution) instead of waiting out the deadline.
                self.retry_move(services, &component, &reason);
            }
            EV_MEDIATE => {
                let (Some(host), Some(component)) = (
                    event.param(P_FINAL_HOST).and_then(|v| v.as_i64()),
                    event.param_text(P_FINAL_COMPONENT).map(str::to_owned),
                ) else {
                    return;
                };
                if let Ok(inner) = Event::decode(event.payload()) {
                    services.send_reliable(HostId::new(host as u32), &component, &inner);
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn configure_doc_roundtrip() {
        let mut doc = ConfigureDoc::default();
        doc.directory.insert("gui".into(), HostId::new(1));
        doc.fetches.push(("tracker".into(), HostId::new(2)));
        let bytes = serde_json::to_vec(&doc).unwrap();
        let back: ConfigureDoc = serde_json::from_slice(&bytes).unwrap();
        assert_eq!(doc, back);
    }

    #[test]
    fn transfer_doc_roundtrip() {
        let doc = TransferDoc {
            name: "tracker".into(),
            type_name: "workload".into(),
            state: vec![1, 2, 3],
            epoch: 4,
        };
        let bytes = serde_json::to_vec(&doc).unwrap();
        let back: TransferDoc = serde_json::from_slice(&bytes).unwrap();
        assert_eq!(doc, back);
    }

    fn deployer() -> DeployerComponent {
        DeployerComponent::new(HostId::new(0))
    }

    fn pending_move(dest: u32, holder: u32, attempts: u32) -> PendingMove {
        PendingMove {
            dest: HostId::new(dest),
            holder: HostId::new(holder),
            attempts,
            // Already overdue at the test services' t=0 clock.
            deadline: SimTime::ZERO,
            ctx: None,
            started: SimTime::ZERO,
            settled: false,
        }
    }

    #[test]
    fn status_reports_completion() {
        let mut d = deployer();
        assert!(d.status().is_complete());
        d.state.pending.insert("x".into(), pending_move(1, 2, 1));
        d.state.requested = 1;
        assert!(!d.status().is_complete());
        d.handle(
            &mut dummy_services(),
            &Event::notification(EV_ACK)
                .with_param(P_COMPONENT, "x")
                .with_param(P_EPOCH, 0i64),
        );
        let s = d.status();
        assert!(s.is_complete());
        assert_eq!(s.confirmed, 1);
    }

    #[test]
    fn stale_epoch_acks_are_ignored() {
        let mut d = deployer();
        d.state.epoch = 3;
        d.state.pending.insert("x".into(), pending_move(1, 2, 1));
        d.state.requested = 1;
        // An ack from epoch 2 (a superseded redeployment) must not count.
        d.handle(
            &mut dummy_services(),
            &Event::notification(EV_ACK)
                .with_param(P_COMPONENT, "x")
                .with_param(P_EPOCH, 2i64),
        );
        assert_eq!(d.status().confirmed, 0);
        assert!(!d.status().is_complete());
        // The current epoch's ack does.
        d.handle(
            &mut dummy_services(),
            &Event::notification(EV_ACK)
                .with_param(P_COMPONENT, "x")
                .with_param(P_EPOCH, 3i64),
        );
        assert_eq!(d.status().confirmed, 1);
        assert!(d.status().is_complete());
    }

    #[test]
    fn nack_retries_until_budget_then_fails_the_move() {
        let mut d = deployer();
        let mut services = dummy_services();
        let budget = MAX_MOVE_ATTEMPTS;
        d.state.pending.insert("x".into(), pending_move(1, 2, 1));
        d.state.requested = 1;
        let nack = Event::notification(EV_NACK)
            .with_param(P_COMPONENT, "x")
            .with_param(P_EPOCH, 0i64)
            .with_param(P_REASON, "absent");
        for _ in 1..budget {
            d.handle(&mut services, &nack);
            assert!(
                d.state.pending.contains_key("x"),
                "retry should keep it pending"
            );
        }
        d.handle(&mut services, &nack);
        assert!(d.state.pending.is_empty());
        let s = d.status();
        assert!(s.is_settled(), "given-up move settles the epoch");
        assert!(!s.is_complete(), "…but does not complete it");
        assert_eq!(s.failed, vec![("x".to_owned(), "absent".to_owned())]);
    }

    #[test]
    fn deadline_expiry_reissues_with_reresolved_holder() {
        let mut d = deployer();
        let mut services = dummy_services();
        d.state.pending.insert("x".into(), pending_move(1, 2, 1));
        // A fresh inventory shows the component actually lives on host 5.
        let snap = MonitoringSnapshot {
            host: HostId::new(5),
            components: [("x".to_owned(), "workload".to_owned())].into(),
            taken_at_secs: 9.0,
            ..MonitoringSnapshot::default()
        };
        d.handle(
            &mut services,
            &Event::notification(EV_REPORT).with_payload(snap.encode()),
        );
        let (retried, failed) = d.on_deploy_tick(&mut services);
        assert_eq!(retried, vec!["x".to_owned()]);
        assert!(failed.is_empty());
        assert_eq!(d.state.pending["x"].holder, HostId::new(5));
        assert_eq!(d.state.pending["x"].attempts, 2);
    }

    #[test]
    fn effect_opens_a_fresh_epoch() {
        let mut d = deployer();
        let mut services = dummy_services();
        services.directory_set("x", HostId::new(1));
        d.effect(
            &mut services,
            [("x".to_owned(), HostId::new(2))].into(),
            None,
        );
        assert_eq!(d.status().epoch, 1);
        assert_eq!(d.status().requested, 1);
        // Leftover state must not leak into the next call.
        d.state.failed.insert("ghost".into(), "timeout".into());
        d.state.confirmed = 7;
        d.effect(
            &mut services,
            [("x".to_owned(), HostId::new(3))].into(),
            None,
        );
        let s = d.status();
        assert_eq!(s.epoch, 2);
        assert_eq!(s.requested, 1);
        assert_eq!(s.confirmed, 0);
        assert!(s.failed.is_empty());
    }

    #[test]
    fn report_events_populate_snapshots() {
        let mut d = deployer();
        let snap = MonitoringSnapshot {
            host: HostId::new(3),
            ..MonitoringSnapshot::default()
        };
        let report = Event::notification(EV_REPORT).with_payload(snap.encode());
        d.handle(&mut dummy_services(), &report);
        assert_eq!(d.snapshots().len(), 1);
        assert!(d.snapshots().contains_key(&HostId::new(3)));
    }

    #[test]
    fn only_real_transitions_offer_an_epoch_state_to_journal() {
        let mut d = deployer();
        let mut services = dummy_services();
        // Nothing pending: a deploy tick is idle and must journal nothing.
        d.on_deploy_tick(&mut services);
        assert!(d.take_changed_state().is_none());
        d.state.epoch = 3;
        d.state.pending.insert("x".into(), pending_move(1, 2, 1));
        assert!(d.take_changed_state().is_some(), "the set-up is a change");
        let ack = |epoch: i64| {
            Event::notification(EV_ACK)
                .with_param(P_COMPONENT, "x")
                .with_param(P_EPOCH, epoch)
        };
        d.handle(&mut services, &ack(2));
        assert!(
            d.take_changed_state().is_none(),
            "a stale ack changes nothing"
        );
        d.handle(&mut services, &ack(3));
        let state = d
            .take_changed_state()
            .expect("a confirmed move is a transition");
        assert!(
            d.take_changed_state().is_none(),
            "the flag clears once taken"
        );
        let mut back = deployer();
        back.restore_durable(&state).unwrap();
        assert_eq!(back.status(), d.status());
    }

    #[test]
    fn a_report_journals_its_payload_once_and_no_epoch_state() {
        let mut d = deployer();
        let mut services = dummy_services();
        let snap = MonitoringSnapshot {
            host: HostId::new(3),
            components: [("x".to_owned(), "workload".to_owned())].into(),
            taken_at_secs: 9.0,
            ..MonitoringSnapshot::default()
        };
        let payload = snap.encode();
        let before = services.durable().bytes_appended();
        d.handle(
            &mut services,
            &Event::notification(EV_REPORT).with_payload(payload.clone()),
        );
        assert!(d.take_changed_state().is_none());
        let appended = services.durable().bytes_appended() - before;
        assert!(
            appended >= payload.len() as u64 && appended <= payload.len() as u64 + 16,
            "{appended} journal bytes for a {} byte report",
            payload.len()
        );
        // Replaying the record rebuilds exactly what the live handler built.
        let tail = services.durable().recover().tail;
        let [JournalRecord::ReportReceived { payload: logged }] = &tail[..] else {
            panic!("expected one ReportReceived record, got {tail:?}");
        };
        let mut back = deployer();
        back.accept_report(&mut dummy_services(), logged);
        assert_eq!(back.durable_records(), d.durable_records());
        // A report that does not decode — a frame cut short, or the JSON
        // document reports once were — is dropped and leaves no record.
        for damaged in [&payload[..payload.len() - 1], br#"{"host":3}"#] {
            d.handle(
                &mut services,
                &Event::notification(EV_REPORT).with_payload(damaged.to_vec()),
            );
        }
        assert_eq!(services.durable().records_appended(), 1);
    }

    #[test]
    fn a_stale_report_does_not_replace_a_newer_one() {
        let mut d = deployer();
        let mut services = dummy_services();
        let report = |taken_at_secs: f64, component: &str| {
            let snap = MonitoringSnapshot {
                host: HostId::new(3),
                components: [(component.to_owned(), "workload".to_owned())].into(),
                taken_at_secs,
                ..MonitoringSnapshot::default()
            };
            Event::notification(EV_REPORT).with_payload(snap.encode())
        };
        // The window-4 report overtakes the retransmitted window-2 report.
        d.handle(&mut services, &report(4.0, "new"));
        d.handle(&mut services, &report(2.0, "old"));
        let held = &d.snapshots()[&HostId::new(3)];
        assert_eq!(held.taken_at_secs, 4.0);
        assert!(held.components.contains_key("new"));
        assert_eq!(
            services.durable().records_appended(),
            1,
            "a dropped report leaves no record"
        );
        d.handle(&mut services, &report(6.0, "newer"));
        assert_eq!(d.snapshots()[&HostId::new(3)].taken_at_secs, 6.0);
        // Replaying what was journaled reaches the same snapshot set.
        let mut back = deployer();
        for record in services.durable().recover().tail {
            let JournalRecord::ReportReceived { payload } = record else {
                panic!("expected only ReportReceived records, got {record:?}");
            };
            back.accept_report(&mut dummy_services(), &payload);
        }
        assert_eq!(back.durable_records(), d.durable_records());
    }

    /// Emits one `said` notification of the asked-for size per `say` event.
    struct Talker;
    impl crate::brick::ComponentBehavior for Talker {
        fn type_name(&self) -> &str {
            "talker"
        }
        fn handle(&mut self, ctx: &mut crate::brick::ComponentCtx<'_>, event: &Event) {
            if let Some(bytes) = event.param("bytes").and_then(|v| v.as_i64()) {
                ctx.emit(Event::notification("said").with_size(bytes as u64));
            }
        }
    }

    /// The window close pinned against the values the five-map merge
    /// produced before it became one pass: both pair orders on both sources,
    /// pairs only one source saw, a zero-length window (its observations are
    /// dropped), and a second window that must not inherit from the first.
    #[test]
    fn window_close_matches_the_recorded_estimates() {
        let host = HostId::new(1);
        let mut arch = Architecture::new("pin", host);
        let bus = arch.add_connector("bus");
        for name in ["alpha", "beta", "gamma"] {
            let id = arch.add_component(name, Talker).unwrap();
            arch.weld(id, bus).unwrap();
        }
        arch.attach_monitor(bus, EventFrequencyMonitor::new())
            .unwrap();
        let mut admin = AdminComponent::new(host);
        let mut services = crate::host::test_support::services(host);

        let say = |arch: &mut Architecture, who: &str, bytes: i64, times: usize| {
            for _ in 0..times {
                arch.publish(who, Event::request("say").with_param("bytes", bytes))
                    .unwrap();
            }
            arch.pump(SimTime::ZERO);
        };
        let named =
            |admin: &mut AdminComponent, src: Option<&str>, dst: &str, bytes: u64, times| {
                let event = Event::notification("n").with_size(bytes);
                for _ in 0..times {
                    admin.observe_interaction(
                        src.map(Symbol::intern),
                        dst.into(),
                        &event,
                        SimTime::ZERO,
                    );
                }
            };
        let close = |admin: &mut AdminComponent,
                     arch: &mut Architecture,
                     services: &mut HostServices,
                     at: f64| {
            crate::host::test_support::set_now(services, SimTime::from_secs_f64(at));
            admin.on_monitor_window(arch, services, bus);
            admin.last_snapshot().unwrap().clone()
        };

        let inventory: BTreeMap<String, String> = ["alpha", "beta", "gamma"]
            .map(|name| (name.to_owned(), "talker".to_owned()))
            .into();
        let pairs = |rows: &[(&str, &str, f64)]| -> BTreeMap<(String, String), f64> {
            rows.iter()
                .map(|(a, b, v)| ((a.to_string(), b.to_string()), *v))
                .collect()
        };

        // Window 1, 1.7 s long.
        say(&mut arch, "alpha", 100, 3);
        say(&mut arch, "beta", 40, 1);
        named(&mut admin, Some("alpha"), "beta", 64, 2);
        named(&mut admin, Some("beta"), "alpha", 10, 1);
        named(&mut admin, None, "gamma", 7, 1);
        named(&mut admin, Some("alpha"), "remote", 1000, 5);
        let first = close(&mut admin, &mut arch, &mut services, 1.7);
        assert_eq!(first.components, inventory);
        assert_eq!(
            first.frequencies,
            pairs(&[
                ("?", "gamma", 0.5882352941176471),
                ("alpha", "beta", 4.117647058823529),
                ("alpha", "gamma", 1.7647058823529411),
                ("alpha", "remote", 2.9411764705882355),
                ("beta", "gamma", 0.5882352941176471),
            ])
        );
        assert_eq!(
            first.event_sizes,
            pairs(&[
                ("?", "gamma", 7.0),
                ("alpha", "beta", 68.28571428571429),
                ("alpha", "gamma", 100.0),
                ("alpha", "remote", 1000.0),
                ("beta", "gamma", 40.0),
            ])
        );

        // A zero-length window: what it observed is dropped with it.
        say(&mut arch, "gamma", 9, 2);
        named(&mut admin, Some("gamma"), "alpha", 9, 4);
        let empty = close(&mut admin, &mut arch, &mut services, 1.7);
        assert_eq!(empty.components, inventory);
        assert!(empty.frequencies.is_empty() && empty.event_sizes.is_empty());

        // Window 2, 2.3 s long: first-seen order reversed, one new pair, and
        // window 1's other pairs silent.
        say(&mut arch, "beta", 30, 2);
        say(&mut arch, "alpha", 50, 1);
        named(&mut admin, Some("beta"), "alpha", 11, 3);
        named(&mut admin, Some("alpha"), "beta", 13, 1);
        named(&mut admin, Some("gamma"), "remote", 5, 1);
        let second = close(&mut admin, &mut arch, &mut services, 4.0);
        assert_eq!(second.components, inventory);
        assert_eq!(
            second.frequencies,
            pairs(&[
                ("alpha", "beta", 3.0434782608695654),
                ("alpha", "gamma", 0.4347826086956522),
                ("beta", "gamma", 0.8695652173913044),
                ("gamma", "remote", 0.4347826086956522),
            ])
        );
        assert_eq!(
            second.event_sizes,
            pairs(&[
                ("alpha", "beta", 22.285714285714285),
                ("alpha", "gamma", 50.0),
                ("beta", "gamma", 30.0),
                ("gamma", "remote", 5.0),
            ])
        );
        // The shipped bytes are the snapshot, encoded once.
        assert_eq!(
            MonitoringSnapshot::decode(&admin.last_encoded).unwrap(),
            second
        );
    }

    mod framing {
        use super::*;
        use proptest::prelude::*;

        fn ctx_of(seed: u64) -> Option<TraceCtx> {
            match seed % 3 {
                0 => None,
                1 => Some(TraceCtx {
                    trace_id: seed,
                    span_id: seed / 3,
                    parent_id: None,
                }),
                _ => Some(TraceCtx {
                    trace_id: seed,
                    span_id: seed / 3,
                    parent_id: Some(seed / 7),
                }),
            }
        }

        /// A deployer whose every durable field is filled from the inputs.
        fn deployer_of(names: &[String], seed: u64, rates: &[f64]) -> DeployerComponent {
            let mut d = deployer();
            d.state.epoch = seed % 1000;
            d.state.requested = seed % 17;
            d.state.confirmed = seed % 5;
            d.state.epoch_ctx = ctx_of(seed);
            for (i, name) in names.iter().enumerate() {
                let i = i as u64;
                let host = HostId::new((seed.wrapping_add(i) % 64) as u32);
                d.state.target_directory.insert(name.clone(), host);
                d.state.move_sources.insert(host);
                match (seed + i) % 3 {
                    0 => {
                        d.state.pending.insert(
                            name.clone(),
                            PendingMove {
                                dest: host,
                                holder: HostId::new(i as u32),
                                attempts: (seed % 5) as u32 + 1,
                                deadline: SimTime::from_micros(seed / 2 + i),
                                ctx: ctx_of(seed + i),
                                started: SimTime::from_micros(seed / 4),
                                settled: (seed + i).is_multiple_of(2),
                            },
                        );
                    }
                    1 => {
                        d.state.failed.insert(name.clone(), format!("reason-{i}"));
                        if let Some(ctx) = ctx_of(seed + i) {
                            d.state.failed_ctx.insert(name.clone(), ctx);
                        }
                    }
                    _ => {}
                }
                let mut snapshot = MonitoringSnapshot {
                    host,
                    taken_at_secs: i as f64 + 0.5,
                    ..MonitoringSnapshot::default()
                };
                snapshot.components.insert(name.clone(), "workload".into());
                for (j, rate) in rates.iter().enumerate() {
                    snapshot
                        .frequencies
                        .insert((name.clone(), format!("peer-{j}")), *rate);
                }
                d.snapshots.insert(host, snapshot);
            }
            d
        }

        proptest! {
            /// The deployer's records rebuild every durable field on a fresh
            /// deployer, a `DeployerState` record leaves the snapshots
            /// alone, and a state blob cut anywhere (a torn write) or
            /// extended is rejected without touching the deployer.
            #[test]
            fn deployer_state_round_trips_and_rejects_damage(
                names in proptest::collection::vec("[a-z]{1,10}", 0..6),
                seed in any::<u64>(),
                rates in proptest::collection::vec(0.0f64..1e6, 0..4),
                cut in 1usize..4096,
            ) {
                let mut d = deployer_of(&names, seed, &rates);
                let records = d.durable_records();
                let mut back = deployer();
                for record in &records {
                    match record {
                        JournalRecord::DeployerState { blob } => back.restore_durable(blob).unwrap(),
                        JournalRecord::ReportReceived { payload } => {
                            back.accept_report(&mut dummy_services(), payload);
                        }
                        other => panic!("not a deployer record: {other:?}"),
                    }
                }
                prop_assert_eq!(back.durable_records(), records.clone());
                prop_assert_eq!(back.snapshots(), d.snapshots());
                prop_assert_eq!(&back.state, &d.state);
                prop_assert!(back.take_changed_state().is_none(), "restored is not changed");

                // Epoch state alone: snapshots survive the replace.
                let state = d.take_changed_state().unwrap_or_default();
                prop_assert_eq!(state.is_empty(), d.state == EpochState::default());
                let mut other = deployer_of(&names, seed.wrapping_add(1), &rates);
                let kept = other.snapshots().clone();
                if !state.is_empty() {
                    other.restore_durable(&state).unwrap();
                    prop_assert_eq!(&other.state, &d.state);
                    prop_assert_eq!(other.snapshots(), &kept);
                }

                let JournalRecord::DeployerState { blob } = &records[0] else {
                    panic!("the epoch state comes first");
                };
                let torn = &blob[..blob.len() - cut.min(blob.len())];
                prop_assert!(back.restore_durable(torn).is_err());
                let mut longer = blob.clone();
                longer.push(0);
                prop_assert!(back.restore_durable(&longer).is_err());
                prop_assert_eq!(back.durable_records(), records);
            }

            /// The admin's binary framing round-trips bit-exact floats and
            /// the raw snapshot bytes, and rejects a torn or extended blob.
            #[test]
            fn admin_state_round_trips_and_rejects_damage(
                peers in proptest::collection::vec((0u32..4096, any::<u64>()), 0..8),
                reports_sent in any::<u64>(),
                with_snapshot in any::<bool>(),
                cut in 1usize..512,
            ) {
                let mut admin = AdminComponent::new(HostId::new(1));
                for (peer, bits) in &peers {
                    // Any bit pattern, NaNs included: the blob stores bits.
                    admin
                        .latest_reliabilities
                        .insert(HostId::new(*peer), f64::from_bits(*bits));
                }
                admin.reports_sent = reports_sent;
                if with_snapshot {
                    let snapshot = MonitoringSnapshot {
                        host: HostId::new(1),
                        taken_at_secs: 2.5,
                        ..MonitoringSnapshot::default()
                    };
                    admin.last_encoded = snapshot.encode();
                    admin.last_snapshot = Some(snapshot);
                }
                let blob = admin.durable_blob();
                let mut back = AdminComponent::new(HostId::new(1));
                back.restore_durable(&blob).unwrap();
                prop_assert_eq!(back.durable_blob(), blob.clone());
                prop_assert_eq!(back.reports_sent(), reports_sent);
                prop_assert_eq!(back.last_snapshot(), admin.last_snapshot());

                let mut fresh = AdminComponent::new(HostId::new(1));
                let empty = fresh.durable_blob();
                prop_assert!(fresh.restore_durable(&blob[..blob.len() - cut.min(blob.len())]).is_err());
                let mut longer = blob.clone();
                longer.push(7);
                prop_assert!(fresh.restore_durable(&longer).is_err());
                prop_assert_eq!(fresh.durable_blob(), empty);
            }
        }
    }

    fn dummy_services() -> HostServices {
        // Accessing the private constructor through the crate namespace.
        crate::host::test_support::services(HostId::new(0))
    }
}
