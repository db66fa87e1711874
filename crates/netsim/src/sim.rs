//! The discrete-event simulation loop.

use crate::calendar::CalendarQueue;
use crate::faultplan::{FaultAction, FaultPlan};
use crate::fluctuation::FluctuationModel;
use crate::message::Message;
use crate::node::{Node, NodeAction, NodeCtx};
use crate::stats::{NetStats, NO_LINK_STATS};
use crate::time::{Duration, SimTime};
use crate::topology::{LinkSpec, NetworkTopology};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use redep_model::HostId;
use redep_telemetry::{trace::DOMAIN_NET, Counter, SpanIdGen, Telemetry, TraceCtx};
use std::any::Any;
use std::collections::BTreeMap;

/// The simulator's state for one link slot of the topology.
#[derive(Clone, Copy)]
struct LinkSide {
    /// Medium occupancy: transmissions serialize behind each other
    /// (half-duplex), so bursts over thin links experience queueing delay.
    busy_until: SimTime,
    /// The pair's slot in [`NetStats`], resolved on the first send.
    stats: u32,
}

/// What happens at a scheduled instant.
#[derive(Debug)]
enum Event {
    Start { host: HostId },
    Deliver { msg: Message },
    Timer { host: HostId, token: u64 },
    Fluctuate { index: usize },
    Fault { action: FaultAction, ctx: TraceCtx },
}

/// Counter handles cached at telemetry install time, so the per-message hot
/// path is a relaxed atomic increment and never touches the registry lock.
struct NetCounters {
    sent: Counter,
    delivered: Counter,
    dropped_loss: Counter,
    dropped_disconnected: Counter,
}

impl NetCounters {
    fn new(telemetry: &Telemetry) -> Self {
        let metrics = telemetry.metrics();
        NetCounters {
            sent: metrics.counter("net.sent"),
            delivered: metrics.counter("net.delivered"),
            dropped_loss: metrics.counter("net.dropped_loss"),
            dropped_disconnected: metrics.counter("net.dropped_disconnected"),
        }
    }
}

/// A deterministic discrete-event network simulator.
///
/// See the [crate docs](crate) for an end-to-end example.
pub struct Simulator {
    now: SimTime,
    seq: u64,
    /// Pending events in a calendar queue (bucketed time-wheel): O(1)
    /// schedule and amortized O(1) pop for the near-future timer swarm, with
    /// pop order identical to the `BinaryHeap` it replaced — see
    /// [`CalendarQueue`].
    queue: CalendarQueue<Event>,
    /// Count of scheduled-but-unprocessed [`Event::Deliver`] entries,
    /// maintained incrementally so [`Simulator::in_flight`] is O(1) instead
    /// of an O(n) queue scan.
    deliver_in_flight: usize,
    /// Node behaviors by raw host id.
    nodes: Vec<Option<Box<dyn Node>>>,
    topology: NetworkTopology,
    rng: ChaCha8Rng,
    stats: NetStats,
    fluctuations: Vec<(Duration, Box<dyn FluctuationModel>)>,
    /// Per-link state by topology link slot, grown as links are first used
    /// (the topology may gain links mid-run through `topology_mut`).
    link_sides: Vec<LinkSide>,
    /// Timers that fired while their host was down, kept in firing order and
    /// replayed when the host comes back up. Without this a restarted host
    /// would have lost every periodic loop (retransmit, ping, monitoring)
    /// forever — the silent-stall failure mode fault plans exist to expose.
    deferred_timers: BTreeMap<HostId, Vec<u64>>,
    /// Original link specs saved by [`FaultAction::Degrade`], restored at
    /// episode end.
    degraded_specs: BTreeMap<redep_model::HostPair, LinkSpec>,
    scratch: Vec<NodeAction>,
    telemetry: Telemetry,
    counters: NetCounters,
    /// Deterministic span IDs for fault traces (domain [`DOMAIN_NET`]).
    tracer: SpanIdGen,
    /// The fault action currently being applied; topology events emitted
    /// while it is set (host/link state, partitions, timer replays) become
    /// child spans of that fault, linking cause to effect in the journal.
    fault_ctx: Option<TraceCtx>,
}

impl std::fmt::Debug for Simulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("now", &self.now)
            .field("hosts", &self.nodes.iter().flatten().count())
            .field("pending_events", &self.queue.len())
            .finish()
    }
}

impl Simulator {
    /// Creates a simulator with the given RNG seed and an empty topology.
    /// Telemetry starts as a no-op sink; see [`Simulator::set_telemetry`].
    pub fn new(seed: u64) -> Self {
        let telemetry = Telemetry::disabled();
        let counters = NetCounters::new(&telemetry);
        Simulator {
            now: SimTime::ZERO,
            seq: 0,
            queue: CalendarQueue::new(),
            deliver_in_flight: 0,
            nodes: Vec::new(),
            topology: NetworkTopology::new(),
            rng: ChaCha8Rng::seed_from_u64(seed),
            stats: NetStats::new(),
            fluctuations: Vec::new(),
            link_sides: Vec::new(),
            deferred_timers: BTreeMap::new(),
            degraded_specs: BTreeMap::new(),
            scratch: Vec::new(),
            telemetry,
            counters,
            tracer: SpanIdGen::new(DOMAIN_NET, 0),
            fault_ctx: None,
        }
    }

    /// Installs a telemetry handle. Counters for the message hot path are
    /// re-cached from the handle's registry, so installation should happen
    /// before the run starts (counts recorded under the previous handle stay
    /// with that handle's registry).
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.counters = NetCounters::new(&telemetry);
        self.telemetry = telemetry;
    }

    /// The telemetry handle (a disabled no-op sink unless one was installed).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Folds the ground-truth [`NetStats`] into the telemetry registry's
    /// `net.truth.*` gauges (see [`NetStats::publish_gauges`]).
    pub fn publish_gauges(&self) {
        self.stats.publish_gauges(self.telemetry.metrics());
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The live network topology.
    pub fn topology(&self) -> &NetworkTopology {
        &self.topology
    }

    /// The live network topology, for runtime edits (fault injection etc.).
    pub fn topology_mut(&mut self) -> &mut NetworkTopology {
        &mut self.topology
    }

    /// Ground-truth statistics gathered so far.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Messages accepted by the network but not yet delivered (scheduled
    /// delivery events still in the queue). Together with the statistics
    /// this makes conservation checkable at any instant:
    /// `sent == delivered + dropped + in_flight`.
    pub fn in_flight(&self) -> usize {
        self.deliver_in_flight
    }

    /// Registers a node on `host` and schedules its [`Node::on_start`].
    ///
    /// # Panics
    ///
    /// Panics if the host already carries a node.
    pub fn add_host(&mut self, host: HostId, node: impl Node) {
        assert!(!self.has_node(host), "host {host} already has a node");
        self.topology.add_host(host);
        let raw = host.raw() as usize;
        if self.nodes.len() <= raw {
            self.nodes.resize_with(raw + 1, || None);
        }
        self.nodes[raw] = Some(Box::new(node));
        self.schedule(self.now, Event::Start { host });
    }

    /// Creates or replaces the link between `a` and `b`.
    ///
    /// # Panics
    ///
    /// Panics if the spec is invalid or `a == b`.
    pub fn set_link(&mut self, a: HostId, b: HostId, spec: LinkSpec) {
        self.topology.set_link(a, b, spec);
    }

    /// Marks a link up or down.
    pub fn set_link_up(&mut self, a: HostId, b: HostId, up: bool) {
        self.topology.set_link_up(a, b, up);
        let ctx = self.fault_child();
        self.telemetry
            .event("net.link.state", self.now.as_micros())
            .field("a", a.raw())
            .field("b", b.raw())
            .field("up", up)
            .trace_opt(ctx)
            .emit();
    }

    /// A child context under the fault action currently being applied, if
    /// any. Only called off the hot path (topology changes, replays).
    fn fault_child(&self) -> Option<TraceCtx> {
        self.fault_ctx.map(|ctx| self.tracer.child(&ctx))
    }

    /// Marks a host up or down. A down host receives neither messages nor
    /// timer callbacks; messages are dropped, timers are deferred and replay
    /// immediately when the host comes back up (so periodic loops resume
    /// after a restart instead of dying with the crash).
    pub fn set_host_up(&mut self, host: HostId, up: bool) {
        let was_up = self.topology.host_is_up(host);
        self.topology.set_host_up(host, up);
        let ctx = self.fault_child();
        self.telemetry
            .event("net.host.state", self.now.as_micros())
            .field("host", host.raw())
            .field("up", up)
            .trace_opt(ctx)
            .emit();
        if up {
            // Restart hook first: the node rebuilds its state (durable
            // replay) before any deferred timer fires and before any
            // same-instant queued event is delivered. A redundant "up" on a
            // host that never went down is not a restart.
            if !was_up {
                self.run_callback(host, |node, ctx| node.on_restart(ctx));
            }
            if let Some(tokens) = self.deferred_timers.remove(&host) {
                let replay_ctx = self.fault_child();
                self.telemetry
                    .event("net.host.timer.replay", self.now.as_micros())
                    .field("host", host.raw())
                    .field("timers", tokens.len())
                    .trace_opt(replay_ctx)
                    .emit();
                for token in tokens {
                    self.schedule(self.now, Event::Timer { host, token });
                }
            }
        }
    }

    /// Partitions the network (see [`NetworkTopology::partition`]).
    pub fn partition(&mut self, groups: &[Vec<HostId>]) {
        self.topology.partition(groups);
        let ctx = self.fault_child();
        self.telemetry
            .event("net.partition", self.now.as_micros())
            .field("groups", groups.len())
            .field("hosts", groups.iter().map(Vec::len).sum::<usize>())
            .trace_opt(ctx)
            .emit();
    }

    /// Heals all partitions.
    pub fn heal(&mut self) {
        self.topology.heal();
        let ctx = self.fault_child();
        self.telemetry
            .event("net.partition.heal", self.now.as_micros())
            .trace_opt(ctx)
            .emit();
    }

    /// Installs a fault plan: every episode is expanded into timed topology
    /// actions on the event queue ([`FaultPlan::expand`]). Times are absolute
    /// simulated seconds; actions already in the past run at the current
    /// instant, preserving their relative order. Each applied action emits a
    /// `net.fault` telemetry event, so a journal replays the fault history.
    pub fn install_fault_plan(&mut self, plan: &FaultPlan) {
        for (time, action) in plan.expand() {
            // Each action roots its own trace; everything it knocks over
            // (host/link state, partitions, deferred-timer replays) links
            // back to it as child spans.
            let ctx = self.tracer.root();
            self.schedule(time.max(self.now), Event::Fault { action, ctx });
        }
    }

    /// Applies one primitive fault action to the live topology.
    fn apply_fault(&mut self, action: FaultAction, ctx: TraceCtx) {
        self.telemetry
            .event("net.fault", self.now.as_micros())
            .field("action", action.label())
            .trace(ctx)
            .emit();
        self.fault_ctx = Some(ctx);
        match action {
            FaultAction::HostDown(h) => self.set_host_up(h, false),
            FaultAction::HostUp(h) => self.set_host_up(h, true),
            FaultAction::PartitionStart(groups) => self.partition(&groups),
            FaultAction::PartitionHeal(groups) => {
                self.topology.heal_between(&groups);
                let child = self.fault_child();
                self.telemetry
                    .event("net.partition.heal", self.now.as_micros())
                    .trace_opt(child)
                    .emit();
            }
            FaultAction::Degrade {
                a,
                b,
                reliability_factor,
                bandwidth_factor,
            } => {
                let pair = redep_model::HostPair::new(a, b);
                if let Some(state) = self.topology.link_mut(a, b) {
                    self.degraded_specs.entry(pair).or_insert(state.spec);
                    state.spec.reliability =
                        (state.spec.reliability * reliability_factor).clamp(0.0, 1.0);
                    state.spec.bandwidth = (state.spec.bandwidth * bandwidth_factor).max(1.0);
                }
            }
            FaultAction::Restore(a, b) => {
                let pair = redep_model::HostPair::new(a, b);
                if let Some(original) = self.degraded_specs.remove(&pair) {
                    if let Some(state) = self.topology.link_mut(a, b) {
                        state.spec = original;
                    }
                }
            }
            FaultAction::LinkDown(a, b) => self.set_link_up(a, b, false),
            FaultAction::LinkUp(a, b) => self.set_link_up(a, b, true),
        }
        self.fault_ctx = None;
    }

    /// Installs a fluctuation model applied every `interval`.
    pub fn add_fluctuation(&mut self, interval: Duration, model: impl FluctuationModel) {
        assert!(
            interval > Duration::ZERO,
            "fluctuation interval must be positive"
        );
        let index = self.fluctuations.len();
        self.fluctuations.push((interval, Box::new(model)));
        self.schedule(self.now + interval, Event::Fluctuate { index });
    }

    /// Borrows the node on `host`, downcast to its concrete type.
    pub fn node_ref<T: Node>(&self, host: HostId) -> Option<&T> {
        self.nodes
            .get(host.raw() as usize)?
            .as_deref()
            .and_then(|n| (n as &dyn Any).downcast_ref::<T>())
    }

    /// Mutably borrows the node on `host`, downcast to its concrete type.
    pub fn node_mut<T: Node>(&mut self, host: HostId) -> Option<&mut T> {
        self.nodes
            .get_mut(host.raw() as usize)?
            .as_deref_mut()
            .and_then(|n| (n as &mut dyn Any).downcast_mut::<T>())
    }

    /// Sends a message from outside any node (e.g. a test driver). Subject
    /// to the same loss/disconnection semantics as node sends.
    pub fn inject(&mut self, src: HostId, dst: HostId, payload: impl Into<Vec<u8>>, size: u64) {
        self.dispatch_send(src, dst, payload.into(), size);
    }

    /// Arms a timer on `host` from outside any node.
    pub fn inject_timer(&mut self, host: HostId, delay: Duration, token: u64) {
        self.schedule(self.now + delay, Event::Timer { host, token });
    }

    fn schedule(&mut self, time: SimTime, event: Event) {
        let seq = self.seq;
        self.seq += 1;
        if matches!(event, Event::Deliver { .. }) {
            self.deliver_in_flight += 1;
        }
        self.queue.push(time, seq, event);
    }

    /// Records one dropped message in the counters and the journal.
    fn record_drop(&self, src: HostId, dst: HostId, reason: &'static str) {
        let counter = match reason {
            "loss" => &self.counters.dropped_loss,
            _ => &self.counters.dropped_disconnected,
        };
        counter.inc();
        self.telemetry
            .event("net.link.drop", self.now.as_micros())
            .field("src", src.raw())
            .field("dst", dst.raw())
            .field("reason", reason)
            .emit();
    }

    fn has_node(&self, host: HostId) -> bool {
        matches!(self.nodes.get(host.raw() as usize), Some(Some(_)))
    }

    /// The topology link slot of `src`–`dst` (if a link was ever configured)
    /// and the pair's stat slot. Only a link's first send, and sends where
    /// no link exists, touch the ordered pair index of [`NetStats`].
    fn resolve_link(&mut self, src: HostId, dst: HostId) -> (Option<usize>, u32) {
        let Some(slot) = self.topology.link_slot(src, dst) else {
            return (None, self.stats.slot(src, dst));
        };
        if self.link_sides.len() <= slot {
            let unresolved = LinkSide {
                busy_until: SimTime::ZERO,
                stats: NO_LINK_STATS,
            };
            self.link_sides.resize(slot + 1, unresolved);
        }
        let side = &mut self.link_sides[slot];
        if side.stats == NO_LINK_STATS {
            side.stats = self.stats.slot(src, dst);
        }
        (Some(slot), side.stats)
    }

    /// Routes one message through the simulated network.
    fn dispatch_send(&mut self, src: HostId, dst: HostId, payload: Vec<u8>, size: u64) {
        self.counters.sent.inc();
        if src == dst {
            // Loopback: immediate delivery if the host is up.
            self.stats.record_sent(NO_LINK_STATS);
            if self.topology.host_is_up(src) {
                let msg = Message {
                    src,
                    dst,
                    payload,
                    size,
                    sent_at: self.now,
                };
                self.schedule(self.now, Event::Deliver { msg });
            } else {
                self.stats.record_disconnected(NO_LINK_STATS);
                self.record_drop(src, dst, "host_down");
            }
            return;
        }
        let (slot, stats) = self.resolve_link(src, dst);
        self.stats.record_sent(stats);
        let link = slot
            .and_then(|slot| self.topology.link_at(slot))
            .filter(|l| l.up && self.topology.host_is_up(src) && self.topology.host_is_up(dst));
        let Some(spec) = link.map(|l| l.spec) else {
            self.stats.record_disconnected(stats);
            self.record_drop(src, dst, "disconnected");
            return;
        };
        if !self.rng.random_bool(spec.reliability.clamp(0.0, 1.0)) {
            self.stats.record_loss(stats);
            self.record_drop(src, dst, "loss");
            return;
        }
        // Medium occupancy: the transmission starts when the link is free
        // and holds it for the serialization time; propagation delay then
        // runs in parallel with the next transmission.
        let side = &mut self.link_sides[slot.expect("a live link has a slot")];
        let free_at = side.busy_until.max(self.now);
        let transmit = Duration::from_secs_f64(size as f64 / spec.bandwidth);
        let done_transmitting = free_at + transmit;
        side.busy_until = done_transmitting;
        let deliver_at = done_transmitting + Duration::from_secs_f64(spec.delay);
        let msg = Message {
            src,
            dst,
            payload,
            size,
            sent_at: self.now,
        };
        self.schedule(deliver_at, Event::Deliver { msg });
    }

    /// Runs one node callback and applies the actions it buffered.
    fn run_callback(&mut self, host: HostId, f: impl FnOnce(&mut dyn Node, &mut NodeCtx<'_>)) {
        let Some(Some(node)) = self.nodes.get_mut(host.raw() as usize) else {
            return;
        };
        self.scratch.clear();
        f(
            node.as_mut(),
            &mut NodeCtx::new(host, self.now, &mut self.scratch),
        );
        // The buffer is lent out while its actions run (they re-enter
        // `self`) and handed back with its capacity.
        let mut actions = std::mem::take(&mut self.scratch);
        for action in actions.drain(..) {
            match action {
                NodeAction::Send { dst, payload, size } => {
                    self.dispatch_send(host, dst, payload, size)
                }
                NodeAction::SetTimer { delay, token } => {
                    self.schedule(self.now + delay, Event::Timer { host, token })
                }
            }
        }
        self.scratch = actions;
    }

    /// Processes the next event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some((time, _seq, event)) = self.queue.pop() else {
            return false;
        };
        debug_assert!(time >= self.now, "time went backwards");
        self.now = time;
        if matches!(event, Event::Deliver { .. }) {
            self.deliver_in_flight -= 1;
        }
        match event {
            Event::Start { host } => {
                self.run_callback(host, |node, ctx| node.on_start(ctx));
            }
            Event::Deliver { msg } => {
                let (src, dst, bytes) = (msg.src, msg.dst, msg.size);
                // A delivery follows a send over the same pair, so the
                // pair's stat slot is already resolved.
                let stats = match self.topology.link_slot(src, dst) {
                    Some(slot) => self.link_sides[slot].stats,
                    None => NO_LINK_STATS,
                };
                if self.topology.host_is_up(dst) {
                    self.stats.record_delivered(stats, bytes);
                    self.counters.delivered.inc();
                    self.run_callback(dst, |node, ctx| node.on_message(ctx, msg));
                } else {
                    self.stats.record_disconnected(stats);
                    self.record_drop(src, dst, "host_down");
                }
            }
            Event::Timer { host, token } => {
                if self.topology.host_is_up(host) {
                    self.run_callback(host, |node, ctx| node.on_timer(ctx, token));
                } else if self.has_node(host) {
                    // Defer instead of dropping: the token replays when the
                    // host restarts, so its periodic loops survive the crash.
                    self.deferred_timers.entry(host).or_default().push(token);
                }
            }
            Event::Fault { action, ctx } => {
                self.apply_fault(action, ctx);
            }
            Event::Fluctuate { index } => {
                let (interval, mut model) = {
                    let entry = &mut self.fluctuations[index];
                    (entry.0, std::mem::replace(&mut entry.1, Box::new(NoFluct)))
                };
                model.apply(&mut self.topology, &mut self.rng);
                self.telemetry
                    .event("net.fluctuation", self.now.as_micros())
                    .field("index", index)
                    .field("model", model.name().to_owned())
                    .emit();
                self.fluctuations[index].1 = model;
                self.schedule(self.now + interval, Event::Fluctuate { index });
            }
        }
        true
    }

    /// Runs until the queue is exhausted or simulated time reaches `deadline`
    /// (events at the deadline still run). Returns the number of events
    /// processed.
    ///
    /// Fluctuation events keep a simulation alive forever, so simulations
    /// with fluctuation must be driven by deadline, never to exhaustion.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        let mut n = 0;
        while let Some(next_time) = self.queue.peek_time() {
            if next_time > deadline {
                break;
            }
            self.step();
            n += 1;
        }
        // Advance the clock to the deadline even if the queue drained early.
        if self.now < deadline {
            self.now = deadline;
        }
        n
    }

    /// Runs for `span` of simulated time from now.
    pub fn run_for(&mut self, span: Duration) -> u64 {
        self.run_until(self.now + span)
    }

    /// Runs until no events remain. Returns the number of events processed.
    ///
    /// # Panics
    ///
    /// Panics after `10_000_000` events as a runaway-loop guard; simulations
    /// with periodic timers or fluctuation must use [`Simulator::run_until`].
    pub fn run_to_completion(&mut self) -> u64 {
        let mut n = 0u64;
        while self.step() {
            n += 1;
            assert!(
                n < 10_000_000,
                "run_to_completion exceeded 10M events; use run_until for periodic workloads"
            );
        }
        n
    }
}

/// Placeholder swapped in while a fluctuation model runs (never applied).
#[derive(Debug)]
struct NoFluct;
impl FluctuationModel for NoFluct {
    fn name(&self) -> &str {
        "none"
    }
    fn apply(&mut self, _topology: &mut NetworkTopology, _rng: &mut ChaCha8Rng) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h(n: u32) -> HostId {
        HostId::new(n)
    }

    /// Counts everything it receives.
    struct Sink {
        received: Vec<Message>,
    }
    impl Node for Sink {
        fn on_message(&mut self, _ctx: &mut NodeCtx<'_>, msg: Message) {
            self.received.push(msg);
        }
    }

    /// Sends `count` messages of `size` bytes to `peer` on start.
    struct Burst {
        peer: HostId,
        count: u32,
        size: u64,
    }
    impl Node for Burst {
        fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
            for i in 0..self.count {
                ctx.send(self.peer, vec![i as u8], self.size);
            }
        }
    }

    fn sink() -> Sink {
        Sink {
            received: Vec::new(),
        }
    }

    #[test]
    fn perfect_link_delivers_everything() {
        let mut sim = Simulator::new(1);
        sim.add_host(
            h(0),
            Burst {
                peer: h(1),
                count: 10,
                size: 100,
            },
        );
        sim.add_host(h(1), sink());
        sim.set_link(h(0), h(1), LinkSpec::default());
        sim.run_to_completion();
        assert_eq!(sim.stats().delivered, 10);
        assert_eq!(sim.node_ref::<Sink>(h(1)).unwrap().received.len(), 10);
    }

    #[test]
    fn delivery_time_reflects_delay_and_bandwidth() {
        let mut sim = Simulator::new(1);
        sim.add_host(
            h(0),
            Burst {
                peer: h(1),
                count: 1,
                size: 1000,
            },
        );
        sim.add_host(h(1), sink());
        sim.set_link(
            h(0),
            h(1),
            LinkSpec {
                reliability: 1.0,
                bandwidth: 10_000.0, // 1000 bytes -> 0.1 s
                delay: 0.5,
            },
        );
        sim.run_to_completion();
        // Delivery at 0.5 + 0.1 = 0.6 s.
        assert_eq!(sim.now().as_micros(), 600_000);
    }

    #[test]
    fn unreliable_link_drops_roughly_proportionally() {
        let mut sim = Simulator::new(7);
        sim.add_host(
            h(0),
            Burst {
                peer: h(1),
                count: 1000,
                size: 10,
            },
        );
        sim.add_host(h(1), sink());
        sim.set_link(
            h(0),
            h(1),
            LinkSpec {
                reliability: 0.7,
                ..LinkSpec::default()
            },
        );
        sim.run_to_completion();
        let ratio = sim.stats().link(h(0), h(1)).delivery_ratio();
        assert!((ratio - 0.7).abs() < 0.05, "observed ratio {ratio}");
        assert_eq!(sim.stats().sent, 1000);
        assert_eq!(sim.stats().delivered + sim.stats().dropped_loss, 1000);
    }

    #[test]
    fn no_link_means_disconnected_drop() {
        let mut sim = Simulator::new(1);
        sim.add_host(
            h(0),
            Burst {
                peer: h(1),
                count: 3,
                size: 1,
            },
        );
        sim.add_host(h(1), sink());
        sim.run_to_completion();
        assert_eq!(sim.stats().dropped_disconnected, 3);
        assert_eq!(sim.stats().delivered, 0);
    }

    #[test]
    fn downed_link_drops_then_recovers() {
        let mut sim = Simulator::new(1);
        sim.add_host(h(0), sink());
        sim.add_host(h(1), sink());
        sim.set_link(h(0), h(1), LinkSpec::default());
        sim.run_to_completion();
        sim.set_link_up(h(0), h(1), false);
        sim.inject(h(0), h(1), vec![1], 1);
        sim.run_to_completion();
        assert_eq!(sim.stats().dropped_disconnected, 1);
        sim.set_link_up(h(0), h(1), true);
        sim.inject(h(0), h(1), vec![2], 1);
        sim.run_to_completion();
        assert_eq!(sim.stats().delivered, 1);
    }

    #[test]
    fn crashed_host_receives_nothing_until_restart() {
        let mut sim = Simulator::new(1);
        sim.add_host(h(0), sink());
        sim.add_host(h(1), sink());
        sim.set_link(h(0), h(1), LinkSpec::default());
        sim.run_to_completion();
        sim.set_host_up(h(1), false);
        sim.inject(h(0), h(1), vec![1], 1);
        sim.run_to_completion();
        assert!(sim.node_ref::<Sink>(h(1)).unwrap().received.is_empty());
        sim.set_host_up(h(1), true);
        sim.inject(h(0), h(1), vec![2], 1);
        sim.run_to_completion();
        assert_eq!(sim.node_ref::<Sink>(h(1)).unwrap().received.len(), 1);
    }

    #[test]
    fn loopback_is_immediate_and_lossless() {
        struct SelfSender {
            got: u32,
        }
        impl Node for SelfSender {
            fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
                ctx.send(ctx.host(), vec![1], 1);
            }
            fn on_message(&mut self, _ctx: &mut NodeCtx<'_>, _msg: Message) {
                self.got += 1;
            }
        }
        let mut sim = Simulator::new(1);
        sim.add_host(h(0), SelfSender { got: 0 });
        sim.run_to_completion();
        assert_eq!(sim.node_ref::<SelfSender>(h(0)).unwrap().got, 1);
        assert_eq!(sim.now(), SimTime::ZERO);
    }

    #[test]
    fn timers_fire_in_order() {
        struct TimerNode {
            fired: Vec<u64>,
        }
        impl Node for TimerNode {
            fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
                ctx.set_timer(Duration::from_millis(20), 2);
                ctx.set_timer(Duration::from_millis(10), 1);
            }
            fn on_timer(&mut self, _ctx: &mut NodeCtx<'_>, token: u64) {
                self.fired.push(token);
            }
        }
        let mut sim = Simulator::new(1);
        sim.add_host(h(0), TimerNode { fired: vec![] });
        sim.run_to_completion();
        assert_eq!(sim.node_ref::<TimerNode>(h(0)).unwrap().fired, vec![1, 2]);
    }

    #[test]
    fn periodic_timer_respects_run_until() {
        struct Periodic {
            ticks: u32,
        }
        impl Node for Periodic {
            fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
                ctx.set_timer(Duration::from_millis(10), 0);
            }
            fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _token: u64) {
                self.ticks += 1;
                ctx.set_timer(Duration::from_millis(10), 0);
            }
        }
        let mut sim = Simulator::new(1);
        sim.add_host(h(0), Periodic { ticks: 0 });
        sim.run_until(SimTime::from_secs_f64(0.1));
        assert_eq!(sim.node_ref::<Periodic>(h(0)).unwrap().ticks, 10);
        assert_eq!(sim.now(), SimTime::from_secs_f64(0.1));
    }

    #[test]
    fn identical_seeds_give_identical_runs() {
        fn run(seed: u64) -> (u64, u64) {
            let mut sim = Simulator::new(seed);
            sim.add_host(
                h(0),
                Burst {
                    peer: h(1),
                    count: 500,
                    size: 10,
                },
            );
            sim.add_host(h(1), sink());
            sim.set_link(
                h(0),
                h(1),
                LinkSpec {
                    reliability: 0.6,
                    ..LinkSpec::default()
                },
            );
            sim.run_to_completion();
            (sim.stats().delivered, sim.stats().dropped_loss)
        }
        assert_eq!(run(5), run(5));
        assert_ne!(run(5).0, run(6).0); // extremely likely with 500 samples
    }

    #[test]
    fn partition_and_heal_through_simulator_api() {
        let mut sim = Simulator::new(1);
        sim.add_host(h(0), sink());
        sim.add_host(h(1), sink());
        sim.set_link(h(0), h(1), LinkSpec::default());
        sim.run_to_completion();
        sim.partition(&[vec![h(0)], vec![h(1)]]);
        sim.inject(h(0), h(1), vec![], 1);
        sim.run_to_completion();
        assert_eq!(sim.stats().dropped_disconnected, 1);
        sim.heal();
        sim.inject(h(0), h(1), vec![], 1);
        sim.run_to_completion();
        assert_eq!(sim.stats().delivered, 1);
    }

    #[test]
    #[should_panic(expected = "already has a node")]
    fn duplicate_host_panics() {
        let mut sim = Simulator::new(1);
        sim.add_host(h(0), sink());
        sim.add_host(h(0), sink());
    }

    #[test]
    fn fluctuation_fires_periodically_and_mutates_links() {
        use crate::fluctuation::RandomWalkFluctuation;
        let mut sim = Simulator::new(4);
        sim.add_host(h(0), sink());
        sim.add_host(h(1), sink());
        sim.set_link(
            h(0),
            h(1),
            LinkSpec {
                reliability: 0.5,
                ..LinkSpec::default()
            },
        );
        sim.add_fluctuation(
            Duration::from_secs_f64(1.0),
            RandomWalkFluctuation::new(0.1),
        );
        let before = sim.topology().link(h(0), h(1)).unwrap().spec.reliability;
        sim.run_until(SimTime::from_secs_f64(10.0));
        let after = sim.topology().link(h(0), h(1)).unwrap().spec.reliability;
        assert_ne!(
            before, after,
            "ten fluctuation ticks left the link untouched"
        );
        assert!((0.05..=1.0).contains(&after));
        // Deterministic: the same seed walks the same path.
        let mut sim2 = Simulator::new(4);
        sim2.add_host(h(0), sink());
        sim2.add_host(h(1), sink());
        sim2.set_link(
            h(0),
            h(1),
            LinkSpec {
                reliability: 0.5,
                ..LinkSpec::default()
            },
        );
        sim2.add_fluctuation(
            Duration::from_secs_f64(1.0),
            RandomWalkFluctuation::new(0.1),
        );
        sim2.run_until(SimTime::from_secs_f64(10.0));
        assert_eq!(
            after,
            sim2.topology().link(h(0), h(1)).unwrap().spec.reliability
        );
    }

    #[test]
    fn transmissions_serialize_on_a_shared_link() {
        // Two messages of 1000 bytes over a 10 kB/s link with 0.5 s delay:
        // the first transmits 0.0–0.1 and arrives at 0.6; the second waits
        // for the medium, transmits 0.1–0.2, and arrives at 0.7.
        let mut sim = Simulator::new(1);
        sim.add_host(
            h(0),
            Burst {
                peer: h(1),
                count: 2,
                size: 1000,
            },
        );
        sim.add_host(h(1), sink());
        sim.set_link(
            h(0),
            h(1),
            LinkSpec {
                reliability: 1.0,
                bandwidth: 10_000.0,
                delay: 0.5,
            },
        );
        sim.run_to_completion();
        assert_eq!(sim.now().as_micros(), 700_000);
        assert_eq!(sim.stats().delivered, 2);
    }

    #[test]
    fn conservation_holds_mid_flight() {
        let mut sim = Simulator::new(1);
        sim.add_host(
            h(0),
            Burst {
                peer: h(1),
                count: 50,
                size: 1000,
            },
        );
        sim.add_host(h(1), sink());
        sim.set_link(
            h(0),
            h(1),
            LinkSpec {
                reliability: 0.8,
                bandwidth: 10_000.0, // 0.1 s per message: many in flight
                delay: 0.5,
            },
        );
        // Stop mid-transfer.
        sim.run_until(SimTime::from_secs_f64(0.55));
        let s = sim.stats();
        assert!(sim.in_flight() > 0, "expected messages still in flight");
        assert_eq!(
            s.sent,
            s.delivered + s.dropped_loss + s.dropped_disconnected + sim.in_flight() as u64
        );
        // And after completion nothing is in flight.
        sim.run_to_completion();
        assert_eq!(sim.in_flight(), 0);
        let s = sim.stats();
        assert_eq!(
            s.sent,
            s.delivered + s.dropped_loss + s.dropped_disconnected
        );
    }

    #[test]
    fn run_until_advances_clock_past_empty_queue() {
        let mut sim = Simulator::new(1);
        sim.run_until(SimTime::from_secs_f64(5.0));
        assert_eq!(sim.now(), SimTime::from_secs_f64(5.0));
    }

    #[test]
    fn telemetry_counters_match_ground_truth() {
        let mut sim = Simulator::new(7);
        sim.set_telemetry(Telemetry::default());
        sim.add_host(
            h(0),
            Burst {
                peer: h(1),
                count: 200,
                size: 10,
            },
        );
        sim.add_host(h(1), sink());
        sim.set_link(
            h(0),
            h(1),
            LinkSpec {
                reliability: 0.7,
                ..LinkSpec::default()
            },
        );
        sim.run_to_completion();
        let metrics = sim.telemetry().metrics();
        assert_eq!(metrics.counter("net.sent").get(), sim.stats().sent);
        assert_eq!(
            metrics.counter("net.delivered").get(),
            sim.stats().delivered
        );
        assert_eq!(
            metrics.counter("net.dropped_loss").get(),
            sim.stats().dropped_loss
        );
        // Every loss left a journal record with its reason.
        let losses = sim
            .telemetry()
            .journal()
            .snapshot()
            .iter()
            .filter(|e| e.name == "net.link.drop")
            .count() as u64;
        assert_eq!(losses, sim.stats().dropped_loss);
        sim.publish_gauges();
        assert_eq!(
            metrics.gauge("net.truth.delivery_ratio").get(),
            sim.stats().delivery_ratio()
        );
    }

    #[test]
    fn topology_transitions_are_journaled() {
        let mut sim = Simulator::new(1);
        sim.set_telemetry(Telemetry::default());
        sim.add_host(h(0), sink());
        sim.add_host(h(1), sink());
        sim.set_link(h(0), h(1), LinkSpec::default());
        sim.partition(&[vec![h(0)], vec![h(1)]]);
        sim.heal();
        sim.set_link_up(h(0), h(1), false);
        sim.set_host_up(h(1), false);
        let names: Vec<String> = sim
            .telemetry()
            .journal()
            .snapshot()
            .iter()
            .map(|e| e.name.to_string())
            .collect();
        assert_eq!(
            names,
            vec![
                "net.partition",
                "net.partition.heal",
                "net.link.state",
                "net.host.state"
            ]
        );
    }

    struct Periodic2 {
        ticks: u32,
    }
    impl Node for Periodic2 {
        fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
            ctx.set_timer(Duration::from_millis(100), 0);
        }
        fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _token: u64) {
            self.ticks += 1;
            ctx.set_timer(Duration::from_millis(100), 0);
        }
    }

    #[test]
    fn crashed_host_resumes_periodic_timers_on_restart() {
        use crate::faultplan::{FaultKind, FaultPlan};
        let mut sim = Simulator::new(1);
        sim.add_host(h(0), Periodic2 { ticks: 0 });
        sim.install_fault_plan(&FaultPlan::new().episode(
            1.0,
            1.0,
            FaultKind::HostCrash { host: h(0) },
        ));
        sim.run_until(SimTime::from_secs_f64(2.0));
        let at_restart = sim.node_ref::<Periodic2>(h(0)).unwrap().ticks;
        sim.run_until(SimTime::from_secs_f64(3.0));
        let after = sim.node_ref::<Periodic2>(h(0)).unwrap().ticks;
        assert!(
            after >= at_restart + 9,
            "periodic loop did not resume after restart: {at_restart} -> {after}"
        );
        // And the down window really silenced it: ~20 ticks, not ~30.
        assert!(after < 25, "crash window did not suppress ticks: {after}");
    }

    /// Records the order in which restart and timer callbacks run.
    struct RestartProbe {
        log: Vec<&'static str>,
    }
    impl Node for RestartProbe {
        fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
            ctx.set_timer(Duration::from_millis(100), 0);
        }
        fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _token: u64) {
            self.log.push("timer");
            ctx.set_timer(Duration::from_millis(100), 0);
        }
        fn on_restart(&mut self, _ctx: &mut NodeCtx<'_>) {
            self.log.push("restart");
        }
    }

    #[test]
    fn restart_hook_runs_before_deferred_timer_replay() {
        use crate::faultplan::{FaultKind, FaultPlan};
        let mut sim = Simulator::new(1);
        sim.add_host(h(0), RestartProbe { log: Vec::new() });
        sim.install_fault_plan(&FaultPlan::new().episode(
            1.0,
            1.0,
            FaultKind::HostCrash { host: h(0) },
        ));
        sim.run_until(SimTime::from_secs_f64(2.05));
        let log = &sim.node_ref::<RestartProbe>(h(0)).unwrap().log;
        let restart = log
            .iter()
            .position(|&s| s == "restart")
            .expect("on_restart ran");
        // Ticks before the crash, then the restart hook, then the deferred
        // replay — recovery always observes the world before new callbacks.
        assert!(log[..restart].iter().all(|&s| s == "timer"));
        assert_eq!(log[restart + 1], "timer", "deferred replay follows hook");
    }

    #[test]
    fn redundant_host_up_is_not_a_restart() {
        let mut sim = Simulator::new(1);
        sim.add_host(h(0), RestartProbe { log: Vec::new() });
        sim.set_host_up(h(0), true);
        assert!(
            sim.node_ref::<RestartProbe>(h(0)).unwrap().log.is_empty(),
            "up -> up must not invoke the restart hook"
        );
    }

    #[test]
    fn degrade_episode_restores_the_original_spec() {
        use crate::faultplan::{FaultKind, FaultPlan};
        let mut sim = Simulator::new(1);
        sim.add_host(h(0), sink());
        sim.add_host(h(1), sink());
        let spec = LinkSpec {
            reliability: 0.9,
            bandwidth: 50_000.0,
            delay: 0.01,
        };
        sim.set_link(h(0), h(1), spec);
        sim.install_fault_plan(&FaultPlan::new().episode(
            1.0,
            2.0,
            FaultKind::LinkDegrade {
                a: h(0),
                b: h(1),
                reliability_factor: 0.5,
                bandwidth_factor: 0.1,
            },
        ));
        sim.run_until(SimTime::from_secs_f64(1.5));
        let mid = sim.topology().link(h(0), h(1)).unwrap().spec;
        assert!((mid.reliability - 0.45).abs() < 1e-12);
        assert!((mid.bandwidth - 5_000.0).abs() < 1e-9);
        sim.run_until(SimTime::from_secs_f64(4.0));
        assert_eq!(sim.topology().link(h(0), h(1)).unwrap().spec, spec);
    }

    #[test]
    fn partition_episode_heals_only_its_own_cuts() {
        use crate::faultplan::{FaultKind, FaultPlan};
        let mut sim = Simulator::new(1);
        for n in 0..3 {
            sim.add_host(h(n), sink());
        }
        sim.set_link(h(0), h(1), LinkSpec::default());
        sim.set_link(h(1), h(2), LinkSpec::default());
        sim.set_link(h(0), h(2), LinkSpec::default());
        // An unrelated outage on 0–1 must survive the partition heal.
        sim.set_link_up(h(0), h(1), false);
        sim.install_fault_plan(&FaultPlan::new().episode(
            1.0,
            1.0,
            FaultKind::Partition {
                groups: vec![vec![h(0), h(1)], vec![h(2)]],
            },
        ));
        sim.run_until(SimTime::from_secs_f64(1.5));
        assert!(!sim.topology().reachable(h(0), h(2)));
        sim.run_until(SimTime::from_secs_f64(3.0));
        assert!(sim.topology().reachable(h(0), h(2)));
        assert!(sim.topology().reachable(h(1), h(2)));
        // Partition start raised in-group links; heal_between left 0–1 as
        // the partition set it (up), documenting partition() semantics.
        assert!(sim.topology().reachable(h(0), h(1)));
    }

    #[test]
    fn same_fault_plan_and_seed_export_identical_journals() {
        use crate::faultplan::{FaultKind, FaultPlan};
        fn run() -> String {
            let plan = FaultPlan::new()
                .episode(0.5, 1.0, FaultKind::HostCrash { host: h(1) })
                .episode(
                    2.0,
                    1.0,
                    FaultKind::LinkFlap {
                        a: h(0),
                        b: h(1),
                        period_secs: 0.25,
                    },
                );
            let plan = FaultPlan::from_json(&plan.to_json()).unwrap();
            let mut sim = Simulator::new(77);
            sim.set_telemetry(Telemetry::default());
            sim.add_host(
                h(0),
                Burst {
                    peer: h(1),
                    count: 200,
                    size: 10,
                },
            );
            sim.add_host(h(1), sink());
            sim.set_link(
                h(0),
                h(1),
                LinkSpec {
                    reliability: 0.8,
                    ..LinkSpec::default()
                },
            );
            sim.install_fault_plan(&plan);
            sim.run_until(SimTime::from_secs_f64(5.0));
            sim.telemetry().export_jsonl()
        }
        let a = run();
        assert!(a.contains("net.fault"));
        assert_eq!(a, run(), "same plan + seed must replay byte-identically");
    }

    #[test]
    fn seeded_runs_export_byte_identical_journals() {
        use crate::fluctuation::RandomWalkFluctuation;
        fn run(seed: u64) -> String {
            let mut sim = Simulator::new(seed);
            sim.set_telemetry(Telemetry::default());
            sim.add_host(
                h(0),
                Burst {
                    peer: h(1),
                    count: 300,
                    size: 10,
                },
            );
            sim.add_host(h(1), sink());
            sim.set_link(
                h(0),
                h(1),
                LinkSpec {
                    reliability: 0.6,
                    ..LinkSpec::default()
                },
            );
            sim.add_fluctuation(
                Duration::from_secs_f64(0.5),
                RandomWalkFluctuation::new(0.1),
            );
            sim.run_until(SimTime::from_secs_f64(5.0));
            sim.telemetry().export_jsonl()
        }
        let a = run(42);
        assert!(!a.is_empty());
        assert_eq!(a, run(42), "same seed must export identical journals");
    }

    /// Two 1000-byte messages over a 10 kB/s, 0.5 s link: the second queues
    /// behind the first, so the last delivery is at 0.7 s, not 0.6 s.
    fn thin_link() -> LinkSpec {
        LinkSpec {
            reliability: 1.0,
            bandwidth: 10_000.0,
            delay: 0.5,
        }
    }

    #[test]
    fn link_added_mid_run_through_topology_mut_carries_traffic() {
        let mut sim = Simulator::new(1);
        for n in 0..3 {
            sim.add_host(h(n), sink());
        }
        sim.set_link(h(0), h(1), thin_link());
        sim.inject(h(0), h(1), vec![1], 1000);
        sim.inject(h(0), h(2), vec![2], 1000); // no link yet: dropped
        sim.run_until(SimTime::from_secs_f64(0.05));
        sim.topology_mut().set_link(h(0), h(2), thin_link());
        sim.inject(h(0), h(2), vec![3], 1000);
        sim.inject(h(2), h(0), vec![4], 1000);
        sim.run_to_completion();
        // The new link has its own medium, busy from 0.05 s: 0.25 + 0.5.
        assert_eq!(sim.now().as_micros(), 750_000);
        let new = sim.stats().link(h(0), h(2));
        assert_eq!(
            (new.sent, new.delivered, new.dropped_disconnected),
            (3, 2, 1)
        );
        assert_eq!(sim.stats().link(h(0), h(1)).delivered, 1);
        assert_eq!(sim.node_ref::<Sink>(h(2)).unwrap().received.len(), 1);
    }

    #[test]
    fn busy_medium_survives_removing_and_recreating_the_link() {
        let mut sim = Simulator::new(1);
        for n in 0..3 {
            sim.add_host(h(n), sink());
        }
        sim.set_link(h(0), h(1), thin_link());
        sim.inject(h(0), h(1), vec![1], 1000); // holds the medium until 0.1 s
        assert!(sim.topology_mut().remove_link(h(0), h(1)).is_some());
        sim.inject(h(0), h(1), vec![2], 1000); // no link: dropped
                                               // Another pair configured in between must not inherit the occupancy.
        sim.topology_mut().set_link(h(1), h(2), thin_link());
        sim.topology_mut().set_link(h(1), h(0), thin_link());
        sim.inject(h(1), h(2), vec![3], 1000); // free medium: arrives at 0.6 s
        sim.inject(h(1), h(0), vec![4], 1000); // waits for message 1: 0.7 s
        sim.run_until(SimTime::from_secs_f64(0.65));
        assert_eq!(sim.node_ref::<Sink>(h(2)).unwrap().received.len(), 1);
        assert_eq!(sim.in_flight(), 1);
        sim.run_to_completion();
        assert_eq!(sim.now().as_micros(), 700_000);
        let l = sim.stats().link(h(0), h(1));
        assert_eq!((l.sent, l.delivered, l.dropped_disconnected), (3, 2, 1));
    }
}
