//! Deterministic, serde-loadable fault-injection plans.
//!
//! A [`FaultPlan`] is a schedule of timed [`FaultEpisode`]s — host crashes,
//! partitions, link-quality degradations and link flaps — expressed in
//! absolute simulated seconds. Installing a plan on the engine (see
//! [`ShardedSimulator::install_fault_plan`]) expands every episode into a
//! fixed set of timed actions on the event queue, so the same plan on the
//! same seed replays the same faults at the same instants, byte for byte.
//!
//! Plans are plain data with serde derives: they round-trip through JSON
//! ([`FaultPlan::to_json`] / [`FaultPlan::from_json`]), which makes campaign
//! matrices and regression scenarios checkable into the repository.
//!
//! [`ShardedSimulator::install_fault_plan`]: crate::ShardedSimulator::install_fault_plan

use crate::time::SimTime;
use redep_model::HostId;
use serde::{Deserialize, Serialize};

/// One timed fault episode: a fault class active over `[start, start + duration)`.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct FaultEpisode {
    /// Episode start, in absolute simulated seconds.
    pub start_secs: f64,
    /// Episode length in seconds; the fault is reverted at `start + duration`.
    pub duration_secs: f64,
    /// What goes wrong during the episode.
    pub fault: FaultKind,
}

/// The fault classes a plan can schedule — the disconnection and
/// fluctuation phenomena of the paper's §2 scenario, made reproducible.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub enum FaultKind {
    /// The host goes down at episode start and restarts at episode end.
    /// While down it receives neither messages nor timer callbacks; its
    /// periodic timers resume on restart.
    HostCrash {
        /// The crashing host.
        host: HostId,
    },
    /// Links crossing group boundaries go down at episode start; exactly
    /// those cross-group links come back up at episode end (links the
    /// partition never touched keep whatever state they had).
    Partition {
        /// The connectivity islands.
        groups: Vec<Vec<HostId>>,
    },
    /// The link's reliability and bandwidth are scaled down for the episode
    /// and restored to their pre-episode spec afterwards.
    LinkDegrade {
        /// One endpoint.
        a: HostId,
        /// The other endpoint.
        b: HostId,
        /// Multiplier on reliability, clamped into `[0, 1]` after scaling.
        reliability_factor: f64,
        /// Multiplier on bandwidth (must leave bandwidth positive).
        bandwidth_factor: f64,
    },
    /// The link toggles down/up every `period_secs`, starting down at
    /// episode start and forced up at episode end.
    LinkFlap {
        /// One endpoint.
        a: HostId,
        /// The other endpoint.
        b: HostId,
        /// Length of each down (and each up) interval in seconds.
        period_secs: f64,
    },
}

/// A deterministic schedule of fault episodes.
#[derive(Clone, PartialEq, Debug, Default, Serialize, Deserialize)]
pub struct FaultPlan {
    /// The episodes; order is irrelevant, expansion sorts by time.
    pub episodes: Vec<FaultEpisode>,
}

/// One primitive topology mutation a plan expands into.
#[derive(Clone, PartialEq, Debug)]
pub enum FaultAction {
    /// Take a host down.
    HostDown(HostId),
    /// Bring a host back up (replaying timers deferred while it was down).
    HostUp(HostId),
    /// Cut cross-group links.
    PartitionStart(Vec<Vec<HostId>>),
    /// Re-raise exactly the cross-group links of the given grouping.
    PartitionHeal(Vec<Vec<HostId>>),
    /// Scale a link's reliability/bandwidth, remembering the original spec.
    Degrade {
        /// One endpoint.
        a: HostId,
        /// The other endpoint.
        b: HostId,
        /// Reliability multiplier.
        reliability_factor: f64,
        /// Bandwidth multiplier.
        bandwidth_factor: f64,
    },
    /// Restore a degraded link to its remembered spec.
    Restore(HostId, HostId),
    /// Take a link down (flap).
    LinkDown(HostId, HostId),
    /// Bring a link up (flap / episode end).
    LinkUp(HostId, HostId),
}

impl FaultAction {
    /// Short class label used in `net.fault` telemetry events.
    pub fn label(&self) -> &'static str {
        match self {
            FaultAction::HostDown(_) => "host_down",
            FaultAction::HostUp(_) => "host_up",
            FaultAction::PartitionStart(_) => "partition",
            FaultAction::PartitionHeal(_) => "partition_heal",
            FaultAction::Degrade { .. } => "degrade",
            FaultAction::Restore(_, _) => "restore",
            FaultAction::LinkDown(_, _) => "link_down",
            FaultAction::LinkUp(_, _) => "link_up",
        }
    }
}

impl FaultEpisode {
    fn validate(&self, index: usize) {
        assert!(
            self.start_secs >= 0.0 && self.start_secs.is_finite(),
            "episode {index}: start_secs must be finite and non-negative"
        );
        assert!(
            self.duration_secs > 0.0 && self.duration_secs.is_finite(),
            "episode {index}: duration_secs must be finite and positive"
        );
        match &self.fault {
            FaultKind::HostCrash { .. } => {}
            FaultKind::Partition { groups } => {
                assert!(
                    groups.len() >= 2,
                    "episode {index}: a partition needs at least two groups"
                );
            }
            FaultKind::LinkDegrade {
                reliability_factor,
                bandwidth_factor,
                ..
            } => {
                assert!(
                    (0.0..=1.0).contains(reliability_factor),
                    "episode {index}: reliability_factor must be in [0, 1]"
                );
                assert!(
                    *bandwidth_factor > 0.0,
                    "episode {index}: bandwidth_factor must be positive"
                );
            }
            FaultKind::LinkFlap { period_secs, .. } => {
                assert!(
                    *period_secs > 0.0 && period_secs.is_finite(),
                    "episode {index}: period_secs must be finite and positive"
                );
            }
        }
    }

    /// Expands the episode into its primitive timed actions.
    fn actions(&self, out: &mut Vec<(SimTime, FaultAction)>) {
        let start = SimTime::from_secs_f64(self.start_secs);
        let end = SimTime::from_secs_f64(self.start_secs + self.duration_secs);
        match &self.fault {
            FaultKind::HostCrash { host } => {
                out.push((start, FaultAction::HostDown(*host)));
                out.push((end, FaultAction::HostUp(*host)));
            }
            FaultKind::Partition { groups } => {
                out.push((start, FaultAction::PartitionStart(groups.clone())));
                out.push((end, FaultAction::PartitionHeal(groups.clone())));
            }
            FaultKind::LinkDegrade {
                a,
                b,
                reliability_factor,
                bandwidth_factor,
            } => {
                out.push((
                    start,
                    FaultAction::Degrade {
                        a: *a,
                        b: *b,
                        reliability_factor: *reliability_factor,
                        bandwidth_factor: *bandwidth_factor,
                    },
                ));
                out.push((end, FaultAction::Restore(*a, *b)));
            }
            FaultKind::LinkFlap { a, b, period_secs } => {
                let mut t = self.start_secs;
                let mut down = true;
                while t < self.start_secs + self.duration_secs {
                    let action = if down {
                        FaultAction::LinkDown(*a, *b)
                    } else {
                        FaultAction::LinkUp(*a, *b)
                    };
                    out.push((SimTime::from_secs_f64(t), action));
                    down = !down;
                    t += *period_secs;
                }
                out.push((end, FaultAction::LinkUp(*a, *b)));
            }
        }
    }
}

impl FaultPlan {
    /// Creates an empty plan.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Builder-style: appends an episode.
    pub fn episode(mut self, start_secs: f64, duration_secs: f64, fault: FaultKind) -> Self {
        self.episodes.push(FaultEpisode {
            start_secs,
            duration_secs,
            fault,
        });
        self
    }

    /// Expands all episodes into a time-sorted action schedule.
    ///
    /// The sort is stable over the episode order, so two identical plans
    /// always expand identically — this is what makes a plan deterministic.
    ///
    /// # Panics
    ///
    /// Panics if any episode is malformed (non-positive duration, partition
    /// with fewer than two groups, out-of-range factors).
    pub fn expand(&self) -> Vec<(SimTime, FaultAction)> {
        let mut out = Vec::new();
        for (i, ep) in self.episodes.iter().enumerate() {
            ep.validate(i);
            ep.actions(&mut out);
        }
        out.sort_by_key(|(t, _)| *t);
        out
    }

    /// Serializes the plan to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("a fault plan always serializes")
    }

    /// Parses a plan from JSON.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h(n: u32) -> HostId {
        HostId::new(n)
    }

    #[test]
    fn expansion_is_sorted_and_bracketed() {
        let plan = FaultPlan::new()
            .episode(5.0, 2.0, FaultKind::HostCrash { host: h(1) })
            .episode(
                1.0,
                3.0,
                FaultKind::Partition {
                    groups: vec![vec![h(0)], vec![h(1)]],
                },
            );
        let actions = plan.expand();
        let times: Vec<f64> = actions.iter().map(|(t, _)| t.as_secs_f64()).collect();
        let mut sorted = times.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(times, sorted);
        assert!(matches!(actions[0].1, FaultAction::PartitionStart(_)));
        assert!(matches!(
            actions.last().unwrap().1,
            FaultAction::HostUp(host) if host == h(1)
        ));
    }

    #[test]
    fn flap_expands_to_alternating_toggles_ending_up() {
        let plan = FaultPlan::new().episode(
            0.0,
            3.0,
            FaultKind::LinkFlap {
                a: h(0),
                b: h(1),
                period_secs: 1.0,
            },
        );
        let actions = plan.expand();
        let labels: Vec<&str> = actions.iter().map(|(_, a)| a.label()).collect();
        assert_eq!(labels, vec!["link_down", "link_up", "link_down", "link_up"]);
        assert_eq!(actions.last().unwrap().0, SimTime::from_secs_f64(3.0));
    }

    #[test]
    fn plans_round_trip_through_json() {
        let plan = FaultPlan::new()
            .episode(2.5, 4.0, FaultKind::HostCrash { host: h(3) })
            .episode(
                10.0,
                5.0,
                FaultKind::LinkDegrade {
                    a: h(0),
                    b: h(2),
                    reliability_factor: 0.3,
                    bandwidth_factor: 0.5,
                },
            )
            .episode(
                20.0,
                6.0,
                FaultKind::LinkFlap {
                    a: h(1),
                    b: h(2),
                    period_secs: 0.5,
                },
            )
            .episode(
                30.0,
                8.0,
                FaultKind::Partition {
                    groups: vec![vec![h(0), h(1)], vec![h(2), h(3)]],
                },
            );
        let json = plan.to_json();
        let back = FaultPlan::from_json(&json).unwrap();
        assert_eq!(plan, back);
    }

    #[test]
    #[should_panic(expected = "duration_secs must be finite and positive")]
    fn zero_duration_panics_on_expand() {
        FaultPlan::new()
            .episode(1.0, 0.0, FaultKind::HostCrash { host: h(0) })
            .expand();
    }

    // ---- episode-boundary ordering ---------------------------------------
    //
    // A `HostCrash` episode `[start, start + duration)` is closed at its
    // start and open at its end: an event landing exactly at the crash
    // instant is lost, one landing exactly at the restart instant is
    // processed. The tests below pin that contract — a fault action's packed
    // key has the broadcast kind, which sorts before every timer and
    // delivery, so the `(time, key)` calendar order makes it win the tie.

    use crate::node::{Node, NodeCtx};
    use crate::sim::Simulator;
    use crate::time::{Duration, SimTime};
    use crate::topology::LinkSpec;
    use crate::Message;

    /// Sends a 0-byte message to `to` over a zero-delay link at each armed
    /// instant, so arrival time equals send time exactly.
    struct BoundarySender {
        to: HostId,
    }
    impl Node for BoundarySender {
        fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
            ctx.set_timer(Duration::from_secs_f64(1.0), 0);
            ctx.set_timer(Duration::from_secs_f64(2.0), 0);
        }
        fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _token: u64) {
            let stamp = format!("msg@{}", ctx.now().as_micros());
            ctx.send(self.to, stamp.into_bytes(), 0);
        }
    }

    /// Records every callback with its instant, in execution order.
    #[derive(Default)]
    struct BoundaryVictim {
        log: Vec<(u64, String)>,
    }
    impl Node for BoundaryVictim {
        fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
            // Token 1 lands exactly at the crash instant, token 2 exactly at
            // the restart instant.
            ctx.set_timer(Duration::from_secs_f64(1.0), 1);
            ctx.set_timer(Duration::from_secs_f64(2.0), 2);
        }
        fn on_message(&mut self, ctx: &mut NodeCtx<'_>, msg: Message) {
            let text = String::from_utf8_lossy(&msg.payload).into_owned();
            self.log.push((ctx.now().as_micros(), text));
        }
        fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, token: u64) {
            self.log
                .push((ctx.now().as_micros(), format!("timer:{token}")));
        }
        fn on_restart(&mut self, ctx: &mut NodeCtx<'_>) {
            self.log.push((ctx.now().as_micros(), "restart".into()));
        }
    }

    /// Runs a 2-host sim with host 1 crashed over `[1s, 2s)` and returns
    /// host 1's callback log.
    fn boundary_run() -> Vec<(u64, String)> {
        let mut sim = Simulator::new(7);
        sim.add_host(h(0), BoundarySender { to: h(1) });
        sim.add_host(h(1), BoundaryVictim::default());
        sim.set_link(
            h(0),
            h(1),
            LinkSpec {
                reliability: 1.0,
                bandwidth: 1e12,
                delay: 0.0,
            },
        );
        sim.install_fault_plan(&FaultPlan::new().episode(
            1.0,
            1.0,
            FaultKind::HostCrash { host: h(1) },
        ));
        sim.run_until(SimTime::from_secs_f64(3.0));
        sim.node_ref::<BoundaryVictim>(h(1)).unwrap().log.clone()
    }

    #[test]
    fn message_at_crash_instant_is_dropped_at_restart_instant_delivered() {
        let log = boundary_run();
        let texts: Vec<&str> = log.iter().map(|(_, s)| s.as_str()).collect();
        // t == crash start: the HostDown action (broadcast kind, lower key)
        // beats the same-instant delivery, which is dropped.
        assert!(
            !texts.contains(&"msg@1000000"),
            "message at the crash instant must be lost: {texts:?}"
        );
        // t == restart: the HostUp action wins the tie the same way, so the
        // same-instant delivery goes through.
        assert!(
            texts.contains(&"msg@2000000"),
            "message at the restart instant must be delivered: {texts:?}"
        );
    }

    #[test]
    fn timer_at_crash_instant_is_deferred_to_the_restart_instant() {
        let log = boundary_run();
        // Token 1 was due exactly at the crash instant: not dropped, but
        // deferred and replayed at restart time.
        let fired: Vec<u64> = log
            .iter()
            .filter(|(_, s)| s == "timer:1")
            .map(|&(t, _)| t)
            .collect();
        assert_eq!(
            fired,
            vec![2_000_000],
            "deferred token replays once: {log:?}"
        );
    }

    #[test]
    fn restart_instant_order_is_hook_then_due_timer_then_deferred_replay() {
        let log = boundary_run();
        let at_restart: Vec<&str> = log
            .iter()
            .filter(|&&(t, _)| t == 2_000_000)
            .map(|(_, s)| s.as_str())
            .collect();
        // The restart hook runs inside the HostUp action; a timer due
        // exactly at the restart instant (armed pre-crash, so an older
        // per-host sequence number) beats the freshly-scheduled deferred
        // replay; the same-instant message (delivery kind) comes last.
        assert_eq!(
            at_restart,
            vec!["restart", "timer:2", "timer:1", "msg@2000000"],
            "restart-instant ordering changed: {log:?}"
        );
    }

    #[test]
    #[should_panic(expected = "at least two groups")]
    fn degenerate_partition_panics() {
        FaultPlan::new()
            .episode(
                1.0,
                1.0,
                FaultKind::Partition {
                    groups: vec![vec![h(0)]],
                },
            )
            .expand();
    }
}
