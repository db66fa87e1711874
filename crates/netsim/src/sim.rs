//! A face on the simulation engine with one-shard signatures.
//!
//! [`Simulator`] holds a [`ShardedSimulator`] and dereferences to it: hosts,
//! links, fault plans and node access are the engine's own calls. The face
//! keeps what a single-threaded driver wants in a one-shard signature — one
//! telemetry handle, the statistics by reference, runs without a thread
//! count — and the direct topology calls between runs (crash a host, cut a
//! partition, heal it). During a run, links change only through an
//! installed fault plan.
//!
//! Inside, the face builds its engine at `k = min(2, available cores)`
//! shards and runs each window on one thread per shard that owns a host.
//! Every simulated result is the one a one-shard engine gives (the engine's
//! determinism rules): the face merges the shards' statistics, and its
//! telemetry handle gives each shard a lane of one journal
//! ([`Telemetry::lane`]) that a run stages and merges back into the
//! one-shard order.

use crate::faultplan::FaultAction;
use crate::shard::ShardedSimulator;
use crate::stats::NetStats;
use crate::time::{Duration, SimTime};
use crate::topology::NetworkTopology;
use redep_model::HostId;
use redep_telemetry::Telemetry;
use std::borrow::{Borrow, BorrowMut};
use std::cell::OnceCell;
use std::ops::{Deref, DerefMut};

/// Most shards — and so threads — a face uses; `benchmark/`'s sharded
/// workload runs the engine at two as well.
const MAX_SHARDS: usize = 2;

/// A deterministic discrete-event network simulator with a one-shard
/// signature. See the [crate docs](crate) for an end-to-end example.
///
/// A host the topology did not name joins shard 0 with the next dense index
/// when it is first registered (see [`ShardPlan`](crate::ShardPlan)), so a
/// simulator built with [`Simulator::new`] runs on one thread, and hosts
/// registered in ascending id order build the plan a one-shard
/// [`ShardedSimulator`] builds over the same topology. A run is
/// byte-identical to a [`ShardedSimulator`] run at any shard and thread
/// count.
#[derive(Debug)]
pub struct Simulator {
    engine: ShardedSimulator,
    /// Threads a run uses: the shards that own a host (hosts that join
    /// later join shard 0).
    threads: usize,
    /// The shards' statistics merged; emptied by every mutable access to
    /// the engine.
    stats: OnceCell<NetStats>,
}

impl Simulator {
    /// Creates a simulator with the given seed and an empty topology.
    /// Telemetry starts as a no-op sink; see [`Simulator::set_telemetry`].
    pub fn new(seed: u64) -> Self {
        Simulator::with_topology(seed, &NetworkTopology::new())
    }

    /// Creates a simulator over `topology`: the engine at
    /// `min(2, available cores)` shards.
    pub fn with_topology(seed: u64, topology: &NetworkTopology) -> Self {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        Simulator::at_shards(seed, topology, cores.min(MAX_SHARDS))
    }

    fn at_shards(seed: u64, topology: &NetworkTopology, shards: usize) -> Self {
        let engine = ShardedSimulator::new(seed, topology, shards);
        let plan = engine.plan();
        let busiest = plan.hosts().iter().map(|h| plan.shard_of(*h)).max();
        Simulator {
            threads: busiest.map_or(1, |shard| shard + 1),
            engine,
            stats: OnceCell::new(),
        }
    }

    /// Installs a telemetry handle: the engine journals into it from now on
    /// (records made under the previous handle stay with that handle), each
    /// shard through its lane.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        let shards = self.engine.plan().shards();
        let lanes = (0..shards).map(|lane| telemetry.lane(lane)).collect();
        self.engine.set_telemetry(lanes);
    }

    /// Ground-truth statistics gathered so far.
    pub fn stats(&self) -> &NetStats {
        self.stats.get_or_init(|| self.engine.stats())
    }

    /// Marks a host up or down. A down host receives neither messages nor
    /// timer callbacks; messages are dropped, timers are deferred and replay
    /// immediately when the host comes back up (so periodic loops resume
    /// after a restart instead of dying with the crash), right after the
    /// node's [`Node::on_restart`](crate::Node::on_restart) hook.
    pub fn set_host_up(&mut self, host: HostId, up: bool) {
        let action = if up {
            FaultAction::HostUp(host)
        } else {
            FaultAction::HostDown(host)
        };
        self.apply(&action);
    }

    /// Partitions the network (see [`NetworkTopology::partition`]).
    pub fn partition(&mut self, groups: &[Vec<HostId>]) {
        self.apply(&FaultAction::PartitionStart(groups.to_vec()));
    }

    /// Heals all partitions: every link comes back up.
    pub fn heal(&mut self) {
        let each_alone = self.plan().hosts().iter().map(|h| vec![*h]).collect();
        self.apply(&FaultAction::PartitionHeal(each_alone));
    }

    /// Sends a message from outside any node (e.g. a test driver). Subject
    /// to the same loss/disconnection semantics as node sends.
    pub fn inject(&mut self, src: HostId, dst: HostId, payload: impl Into<Vec<u8>>, size: u64) {
        self.deref_mut().inject(src, dst, payload.into(), size);
    }

    /// Runs until simulated time reaches `deadline` (events at the deadline
    /// still run), then sets the clock to the deadline. Returns the number
    /// of events processed. Fault-plan actions due by the deadline run in
    /// their `(time, key)` place; later ones stay queued.
    ///
    /// Periodic node timers keep a simulation alive forever, so such
    /// simulations must be driven by deadline, never to exhaustion.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        let threads = self.threads;
        // Several threads journal into one handle: each shard's lane keeps
        // its records until the run ends.
        let telemetry = (threads > 1).then(|| self.engine.telemetry().clone());
        if let Some(telemetry) = &telemetry {
            telemetry.stage_lanes();
        }
        let events = self.deref_mut().run_until(deadline, threads);
        if let Some(telemetry) = &telemetry {
            telemetry.merge_lanes();
        }
        events
    }

    /// Runs for `span` of simulated time from now.
    pub fn run_for(&mut self, span: Duration) -> u64 {
        self.run_until(self.now() + span)
    }

    /// Runs until no events remain, leaving the clock at the last one.
    /// Returns the number of events processed.
    ///
    /// # Panics
    ///
    /// Panics after `10_000_000` events as a runaway-loop guard; simulations
    /// with periodic timers must use [`Simulator::run_until`]. An installed
    /// fault plan ends: its last action is its last episode's end.
    pub fn run_to_completion(&mut self) -> u64 {
        let mut n = 0;
        while let Some(next) = self.engine.next_event_time() {
            n += self.run_until(next);
            assert!(
                n < 10_000_000,
                "run_to_completion exceeded 10M events; use run_until for periodic workloads"
            );
        }
        n
    }
}

impl Deref for Simulator {
    type Target = ShardedSimulator;

    fn deref(&self) -> &ShardedSimulator {
        &self.engine
    }
}

impl DerefMut for Simulator {
    fn deref_mut(&mut self) -> &mut ShardedSimulator {
        self.stats.take();
        &mut self.engine
    }
}

impl Borrow<ShardedSimulator> for Simulator {
    fn borrow(&self) -> &ShardedSimulator {
        self
    }
}

impl BorrowMut<ShardedSimulator> for Simulator {
    fn borrow_mut(&mut self) -> &mut ShardedSimulator {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LinkSpec, Message, Node, NodeCtx};

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
        sim.apply(&FaultAction::LinkDown(h(0), h(1)));
        sim.inject(h(0), h(1), vec![1], 1);
        sim.run_to_completion();
        assert_eq!(sim.stats().dropped_disconnected, 1);
        sim.apply(&FaultAction::LinkUp(h(0), h(1)));
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
            sim.telemetry()
                .metrics()
                .gauge("net.truth.delivery_ratio")
                .get(),
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
        sim.apply(&FaultAction::LinkDown(h(0), h(1)));
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
        sim.apply(&FaultAction::LinkDown(h(0), h(1)));
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
        use crate::faultplan::{FaultKind, FaultPlan};
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
            sim.install_fault_plan(
                &FaultPlan::new()
                    .episode(
                        0.5,
                        2.0,
                        FaultKind::LinkDegrade {
                            a: h(0),
                            b: h(1),
                            reliability_factor: 0.5,
                            bandwidth_factor: 0.5,
                        },
                    )
                    .episode(
                        3.0,
                        1.5,
                        FaultKind::LinkFlap {
                            a: h(0),
                            b: h(1),
                            period_secs: 0.5,
                        },
                    ),
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
    fn link_added_mid_run_carries_traffic() {
        let mut sim = Simulator::new(1);
        for n in 0..3 {
            sim.add_host(h(n), sink());
        }
        sim.set_link(h(0), h(1), thin_link());
        sim.inject(h(0), h(1), vec![1], 1000);
        sim.inject(h(0), h(2), vec![2], 1000); // no link yet: dropped
        sim.run_until(SimTime::from_secs_f64(0.05));
        sim.set_link(h(0), h(2), thin_link());
        sim.inject(h(0), h(2), vec![3], 1000);
        sim.inject(h(2), h(0), vec![4], 1000);
        sim.run_to_completion();
        // The new link's two directions each have their own medium, free
        // from 0.05 s: both messages arrive at 0.05 + 0.1 + 0.5.
        assert_eq!(sim.now().as_micros(), 650_000);
        let new = sim.stats().link(h(0), h(2));
        assert_eq!(
            (new.sent, new.delivered, new.dropped_disconnected),
            (3, 2, 1)
        );
        assert_eq!(sim.stats().link(h(0), h(1)).delivered, 1);
        assert_eq!(sim.node_ref::<Sink>(h(2)).unwrap().received.len(), 1);
    }

    /// Rewritten for the one engine: a downed link stands in for a removed
    /// one (there is no `topology_mut`), and the reverse direction has its
    /// own medium, so the wait is pinned on a second `0 → 1` send.
    #[test]
    fn busy_medium_survives_removing_and_recreating_the_link() {
        let mut sim = Simulator::new(1);
        for n in 0..3 {
            sim.add_host(h(n), sink());
        }
        sim.set_link(h(0), h(1), thin_link());
        sim.inject(h(0), h(1), vec![1], 1000); // holds 0 → 1 until 0.1 s
        sim.apply(&FaultAction::LinkDown(h(0), h(1)));
        sim.inject(h(0), h(1), vec![2], 1000); // link down: dropped
                                               // Another pair configured in between must not inherit the occupancy.
        sim.set_link(h(1), h(2), thin_link());
        sim.set_link(h(1), h(0), thin_link());
        sim.inject(h(1), h(2), vec![3], 1000); // free medium: arrives at 0.6 s
        sim.inject(h(1), h(0), vec![4], 1000); // own direction: 0.6 s too
        sim.inject(h(0), h(1), vec![5], 1000); // waits for message 1: 0.7 s
        sim.run_until(SimTime::from_secs_f64(0.65));
        assert_eq!(sim.node_ref::<Sink>(h(2)).unwrap().received.len(), 1);
        assert_eq!(sim.node_ref::<Sink>(h(0)).unwrap().received.len(), 1);
        assert_eq!(sim.in_flight(), 1);
        sim.run_to_completion();
        assert_eq!(sim.now().as_micros(), 700_000);
        let l = sim.stats().link(h(0), h(1));
        assert_eq!((l.sent, l.delivered, l.dropped_disconnected), (4, 3, 1));
    }

    #[test]
    fn unknown_hosts_have_no_node_before_and_after_the_plan_is_built() {
        let mut sim = Simulator::new(0);
        assert!(sim.node_ref::<Sink>(h(3)).is_none());
        sim.add_host(h(0), sink());
        sim.run_until(SimTime::from_secs_f64(1.0));
        assert!(sim.node_ref::<Sink>(h(0)).is_some());
        assert!(sim.node_ref::<Sink>(h(3)).is_none());
        assert!(sim.node_mut::<Sink>(h(3)).is_none());
    }

    #[test]
    fn run_to_completion_delivers_what_waits_in_a_mailbox() {
        let mut topo = NetworkTopology::new();
        topo.set_link(h(0), h(1), LinkSpec::default());
        let mut sim = Simulator::at_shards(1, &topo, 2);
        sim.add_host(h(0), sink());
        sim.add_host(h(1), sink());
        sim.run_to_completion();
        // Sent between runs to the other shard: it waits in a mailbox.
        sim.inject(h(0), h(1), vec![1], 1);
        sim.run_to_completion();
        assert_eq!(sim.node_ref::<Sink>(h(1)).unwrap().received.len(), 1);
    }

    #[test]
    fn hosts_added_between_runs_join_the_one_shard_plan() {
        let mut sim = Simulator::new(2);
        sim.add_host(h(5), sink());
        sim.run_until(SimTime::from_secs_f64(0.5));
        sim.add_host(
            h(1),
            Burst {
                peer: h(5),
                count: 4,
                size: 10,
            },
        );
        sim.set_link(h(1), h(5), LinkSpec::default());
        sim.run_until(SimTime::from_secs_f64(1.0));
        assert_eq!(sim.node_ref::<Sink>(h(5)).unwrap().received.len(), 4);
        assert!(sim.topology().reachable(h(1), h(5)));
    }

    /// Gossips round its peers every 7 ms, and journals what it receives
    /// and each restart through its shard's lane.
    struct Chatter {
        peers: Vec<HostId>,
        at: usize,
        telemetry: Telemetry,
    }
    impl Node for Chatter {
        fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
            ctx.set_timer(Duration::from_millis(7), 0);
        }
        fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _token: u64) {
            self.at += 1;
            ctx.send(self.peers[self.at % self.peers.len()], vec![1], 32);
            ctx.set_timer(Duration::from_millis(7), 0);
        }
        fn on_message(&mut self, ctx: &mut NodeCtx<'_>, msg: Message) {
            let t_us = ctx.now().as_micros();
            let got = self.telemetry.event("chatter.got", t_us);
            got.field("from", msg.src.raw()).emit();
        }
        fn on_restart(&mut self, ctx: &mut NodeCtx<'_>) {
            let t_us = ctx.now().as_micros();
            self.telemetry.event("chatter.restart", t_us).emit();
        }
    }

    /// Records made between runs keep their place at two shards on two
    /// threads: a framework-style span, a crash and a restart of a host on
    /// shard 1 (whose restart hook journals), and a link edit that shortens
    /// a cross-shard delay leave the journal, the statistics and every node
    /// as one shard leaves them.
    #[test]
    fn between_run_records_keep_their_place_at_two_shards() {
        let topo = {
            let mut topo = NetworkTopology::new();
            for i in 0..6 {
                let spec = LinkSpec {
                    reliability: 0.9,
                    bandwidth: 1e5,
                    delay: 0.002,
                };
                topo.set_link(h(i), h((i + 1) % 6), spec);
            }
            topo
        };
        let run = |shards: usize| {
            let mut sim = Simulator::at_shards(7, &topo, shards);
            assert_eq!(sim.threads, shards);
            let telemetry = Telemetry::new(1 << 16);
            sim.set_telemetry(telemetry.clone());
            for i in 0..6 {
                let chatter = Chatter {
                    peers: (0..6).filter(|&p| p != i).map(h).collect(),
                    at: i as usize,
                    telemetry: telemetry.lane(sim.plan().shard_of(h(i))),
                };
                sim.add_host(h(i), chatter);
            }
            assert_eq!(sim.plan().shard_of(h(1)), shards - 1);
            sim.run_until(SimTime::from_secs_f64(0.5));
            telemetry.span("framework.cycle", 0, 500_000).emit();
            sim.set_host_up(h(1), false);
            sim.run_until(SimTime::from_secs_f64(0.8));
            sim.set_host_up(h(1), true);
            telemetry.event("framework.note", 800_000).emit();
            let shorter = LinkSpec {
                delay: 0.0005,
                ..LinkSpec::default()
            };
            sim.set_link(h(0), h(1), shorter);
            sim.run_until(SimTime::from_secs_f64(1.5));
            let got: Vec<usize> = (0..6)
                .map(|i| sim.node_ref::<Chatter>(h(i)).unwrap().at)
                .collect();
            (telemetry.export_jsonl(), sim.stats().clone(), got)
        };
        let one = run(1);
        assert!(one.0.contains("chatter.restart") && one.0.contains("net.host.state"));
        assert!(run(2) == one, "two shards diverged from one");
    }
}
