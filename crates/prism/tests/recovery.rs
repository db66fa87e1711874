//! Crash-recovery tests for the durable host store: a host that crashes and
//! restarts must rebuild its pre-crash state from checkpoint + journal tail
//! (not start empty), self-check the rebuild against the pre-crash state,
//! and hand out an explicit completed/not-completed verdict for every
//! operation that was in flight at the crash instant.

use redep_model::HostId;
use redep_netsim::{LinkSpec, SimTime, Simulator};
use redep_prism::admin::EV_REPORT;
use redep_prism::codec::encode_raw_frame;
use redep_prism::host::DEPLOYER_ADDRESS;
use redep_prism::workload::{InteractionSpec, EV_APP, WORKLOAD_TYPE};
use redep_prism::{
    host::HostConfig, ComponentFactory, Event, JournalRecord, MonitoringSnapshot, OpKind,
    PrismHost, WorkloadComponent,
};
use std::collections::{BTreeMap, BTreeSet};

fn h(n: u32) -> HostId {
    HostId::new(n)
}

fn factory() -> ComponentFactory {
    let mut f = ComponentFactory::new();
    f.register(WORKLOAD_TYPE, WorkloadComponent::build);
    f
}

fn config(deployer: HostId, neighbors: &[HostId], checkpoint_interval: u32) -> HostConfig {
    HostConfig {
        deployer_host: deployer,
        neighbors: neighbors.iter().copied().collect::<BTreeSet<_>>(),
        checkpoint_interval_windows: checkpoint_interval,
        ..HostConfig::default()
    }
}

/// Three fully meshed hosts; "a" on h0 talks to "b" on h1 at 5 events/s.
fn three_host_system(seed: u64, checkpoint_interval: u32) -> Simulator {
    let hosts = [h(0), h(1), h(2)];
    let mut sim = Simulator::new(seed);
    let directory: BTreeMap<String, HostId> =
        [("a".to_owned(), h(0)), ("b".to_owned(), h(1))].into();

    for &me in &hosts {
        let neighbors: Vec<HostId> = hosts.iter().copied().filter(|x| *x != me).collect();
        let mut host = PrismHost::new(me, factory(), config(h(0), &neighbors, checkpoint_interval));
        if me == h(0) {
            host.enable_deployer();
            host.add_app_component(
                "a",
                WorkloadComponent::new(vec![InteractionSpec {
                    peer: "b".into(),
                    frequency: 5.0,
                    event_size: 100,
                }]),
            )
            .unwrap();
        }
        if me == h(1) {
            host.add_app_component("b", WorkloadComponent::new(vec![]))
                .unwrap();
        }
        host.set_initial_directory(directory.clone());
        sim.add_host(me, host);
    }
    for i in 0..hosts.len() {
        for j in (i + 1)..hosts.len() {
            sim.set_link(hosts[i], hosts[j], LinkSpec::default());
        }
    }
    sim
}

#[test]
fn crash_recovery_replays_journal_and_preserves_state() {
    let mut sim = three_host_system(11, 4);
    sim.run_until(SimTime::from_secs_f64(5.0));
    sim.set_host_up(h(1), false);
    let at_crash = sim
        .node_ref::<PrismHost>(h(1))
        .unwrap()
        .architecture()
        .component_ref::<WorkloadComponent>("b")
        .unwrap()
        .received();
    assert!(at_crash > 0, "no traffic before the crash");

    sim.run_until(SimTime::from_secs_f64(8.0));
    sim.set_host_up(h(1), true);
    sim.run_until(SimTime::from_secs_f64(8.5));

    let host1 = sim.node_ref::<PrismHost>(h(1)).unwrap();
    let reports = host1.recovery_reports();
    assert_eq!(reports.len(), 1, "exactly one restart, one report");
    let report = &reports[0];
    assert!(
        report.state_equiv,
        "recovered state diverged from the pre-crash state: {report:?}"
    );
    assert!(report.replayed > 0, "journal tail was empty: {report:?}");
    assert!(
        !report.verdicts.is_empty(),
        "no verdicts for in-flight operations"
    );
    // The component survived the crash with its counters intact.
    let after_restart = host1
        .architecture()
        .component_ref::<WorkloadComponent>("b")
        .unwrap()
        .received();
    assert!(
        after_restart >= at_crash,
        "recovery lost state: {at_crash} -> {after_restart}"
    );

    // Traffic resumes into the recovered component.
    sim.run_until(SimTime::from_secs_f64(20.0));
    let later = sim
        .node_ref::<PrismHost>(h(1))
        .unwrap()
        .architecture()
        .component_ref::<WorkloadComponent>("b")
        .unwrap()
        .received();
    assert!(
        later >= after_restart + 20,
        "traffic did not resume after recovery: {after_restart} -> {later}"
    );
}

#[test]
fn checkpoint_lists_timers_in_id_order_and_recovery_rearms_them() {
    // "a" on h0 emits to "b" at 5 Hz and to "c" at 0.4 Hz: the slow timer
    // keeps an old id alive while the fast one burns through new ones, so
    // the live set is never contiguous and fires out of id order.
    let hosts = [h(0), h(1)];
    let mut sim = Simulator::new(3);
    let directory: BTreeMap<String, HostId> = [("a", h(0)), ("b", h(1)), ("c", h(1))]
        .map(|(c, at)| (c.to_owned(), at))
        .into();
    for &me in &hosts {
        let mut host = PrismHost::new(me, factory(), config(h(0), &[h(1 - me.raw())], 1));
        if me == h(0) {
            host.enable_deployer();
            let to = |peer: &str, frequency| InteractionSpec {
                peer: peer.into(),
                frequency,
                event_size: 100,
            };
            host.add_app_component(
                "a",
                WorkloadComponent::new(vec![to("b", 5.0), to("c", 0.4)]),
            )
            .unwrap();
        } else {
            for name in ["b", "c"] {
                host.add_app_component(name, WorkloadComponent::new(vec![]))
                    .unwrap();
            }
        }
        host.set_initial_directory(directory.clone());
        sim.add_host(me, host);
    }
    sim.set_link(h(0), h(1), LinkSpec::default());
    let received = |sim: &Simulator, name: &str| {
        let host = sim.node_ref::<PrismHost>(h(1)).unwrap();
        let component = host.architecture().component_ref::<WorkloadComponent>(name);
        component.unwrap().received()
    };

    // Checkpoints at 0, 2 and 4 s (every window); stop between two.
    sim.run_until(SimTime::from_secs_f64(4.5));
    let checkpoint = master(&sim).services().durable().recover().checkpoint;
    let (_, records) = checkpoint.expect("a checkpoint was written");
    let timers: Vec<(u64, u64)> = records
        .iter()
        .filter_map(|record| match record {
            JournalRecord::TimerArmed { id, token, .. } => Some((*id, *token)),
            _ => None,
        })
        .collect();
    assert_eq!(
        timers.len(),
        2,
        "one live timer per interaction: {timers:?}"
    );
    assert!(
        timers[0].0 + 1 < timers[1].0,
        "ascending, with fired ids between"
    );
    assert_eq!((timers[0].1, timers[1].1), (1, 0), "slow token first");

    let (b_before, c_before) = (received(&sim, "b"), received(&sim, "c"));
    bounce(&mut sim, h(0));
    assert_recovered_exactly(master(&sim), 0);
    sim.run_until(SimTime::from_secs_f64(12.0));
    assert!(received(&sim, "b") >= b_before + 30, "fast timer re-armed");
    assert!(received(&sim, "c") >= c_before + 2, "slow timer re-armed");
}

#[test]
fn periodic_checkpoints_shorten_the_replayed_tail() {
    // A host checkpointing every monitor window recovers from a recent
    // checkpoint; one that never checkpoints after start replays everything
    // since checkpoint 0. Both must pass the state-equivalence self-check.
    let mut eager = three_host_system(11, 1);
    eager.run_until(SimTime::from_secs_f64(11.0));
    eager.set_host_up(h(1), false);
    eager.run_until(SimTime::from_secs_f64(12.0));
    eager.set_host_up(h(1), true);
    eager.run_until(SimTime::from_secs_f64(12.5));
    let eager_report = eager
        .node_ref::<PrismHost>(h(1))
        .unwrap()
        .recovery_reports()[0]
        .clone();

    let mut lazy = three_host_system(11, u32::MAX);
    lazy.run_until(SimTime::from_secs_f64(11.0));
    lazy.set_host_up(h(1), false);
    lazy.run_until(SimTime::from_secs_f64(12.0));
    lazy.set_host_up(h(1), true);
    lazy.run_until(SimTime::from_secs_f64(12.5));
    let lazy_report = lazy.node_ref::<PrismHost>(h(1)).unwrap().recovery_reports()[0].clone();

    assert!(eager_report.state_equiv, "{eager_report:?}");
    assert!(lazy_report.state_equiv, "{lazy_report:?}");
    assert!(
        eager_report.checkpoint_seq > 0,
        "eager host never took a periodic checkpoint: {eager_report:?}"
    );
    assert_eq!(
        lazy_report.checkpoint_seq, 0,
        "lazy host should recover from checkpoint 0: {lazy_report:?}"
    );
    assert!(
        eager_report.replayed < lazy_report.replayed,
        "checkpointing did not shorten the tail: eager {} vs lazy {}",
        eager_report.replayed,
        lazy_report.replayed
    );
}

#[test]
fn recovery_verdicts_flag_unfinished_operations() {
    // The master crashes right after ordering a move; on restart the
    // recovered deployer still holds the move as pending, so recovery must
    // report it with an explicit not-completed verdict (plus the monitor
    // window that was open at the crash).
    let mut sim = three_host_system(11, 4);
    sim.run_until(SimTime::from_secs_f64(5.0));
    sim.node_mut::<PrismHost>(h(0))
        .unwrap()
        .effect_redeployment([("b".to_owned(), h(2))].into(), None)
        .unwrap();
    sim.set_host_up(h(0), false);
    sim.run_until(SimTime::from_secs_f64(8.0));
    sim.set_host_up(h(0), true);
    sim.run_until(SimTime::from_secs_f64(8.5));

    let master = sim.node_ref::<PrismHost>(h(0)).unwrap();
    let report = &master.recovery_reports()[0];
    assert!(report.state_equiv, "{report:?}");
    let pending_move = report
        .verdicts
        .iter()
        .find(|v| v.kind == OpKind::MigrationMove && v.subject == "b")
        .expect("no verdict for the in-flight move");
    assert!(
        !pending_move.completed,
        "a move interrupted by the crash was reported completed"
    );
    assert!(
        report
            .verdicts
            .iter()
            .any(|v| v.kind == OpKind::MonitorWindow && !v.completed),
        "the open monitor window must get a not-completed verdict"
    );
}

#[test]
fn buffered_events_survive_the_crash_and_replay_after_migration() {
    // An event parked for a not-yet-arrived component is journaled; if the
    // host crashes while it waits, recovery restores the parking buffer
    // (with a not-completed verdict) and the event still replays when the
    // component finally lands.
    let mut sim = three_host_system(11, 4);
    sim.run_until(SimTime::from_secs_f64(5.0));
    let stray = Event::notification(EV_APP)
        .with_param("prism.forwarded", true)
        .encode()
        .unwrap();
    sim.inject(h(0), h(2), encode_raw_frame("b".into(), stray), 64);
    sim.run_until(SimTime::from_secs_f64(6.0));
    assert!(
        sim.node_ref::<PrismHost>(h(2))
            .unwrap()
            .services()
            .stats()
            .events_buffered
            >= 1,
        "stray event was not buffered"
    );

    sim.set_host_up(h(2), false);
    sim.run_until(SimTime::from_secs_f64(8.0));
    sim.set_host_up(h(2), true);
    sim.run_until(SimTime::from_secs_f64(8.5));

    let report = &sim.node_ref::<PrismHost>(h(2)).unwrap().recovery_reports()[0];
    assert!(
        report
            .verdicts
            .iter()
            .any(|v| v.kind == OpKind::BufferedEvent && v.subject == "b" && !v.completed),
        "no not-completed verdict for the parked event: {report:?}"
    );

    // The parked event survives recovery: migrate "b" in and it replays.
    sim.node_mut::<PrismHost>(h(0))
        .unwrap()
        .effect_redeployment([("b".to_owned(), h(2))].into(), None)
        .unwrap();
    sim.run_until(SimTime::from_secs_f64(16.0));
    let stats = sim.node_ref::<PrismHost>(h(2)).unwrap().services().stats();
    assert!(
        stats.events_replayed >= 1,
        "the recovered buffer was not replayed: {stats:?}"
    );
}

#[test]
fn journals_are_byte_identical_across_identical_runs() {
    // Two runs of the same seeded scenario (including a crash + restart)
    // must leave byte-identical durable stores on every host — the
    // determinism contract the bench campaign gates on.
    let run = |()| {
        let mut sim = three_host_system(17, 4);
        sim.run_until(SimTime::from_secs_f64(5.0));
        sim.set_host_up(h(1), false);
        sim.run_until(SimTime::from_secs_f64(8.0));
        sim.set_host_up(h(1), true);
        sim.run_until(SimTime::from_secs_f64(20.0));
        [h(0), h(1), h(2)]
            .iter()
            .map(|&x| sim.node_ref::<PrismHost>(x).unwrap().durable_digest())
            .collect::<Vec<_>>()
    };
    let first = run(());
    let second = run(());
    assert_eq!(first, second, "durable stores diverged between runs");
}

// ---- control-plane deltas ----------------------------------------------------

/// `n` fully meshed hosts. The master `h0` runs the deployer and holds no
/// application component (so its journal carries control-plane records
/// only); component `c<i>` on host `i` sends to the next one at 5 events/s.
fn mesh_system(n: u32, seed: u64, checkpoint_interval: u32) -> Simulator {
    let hosts: Vec<HostId> = (0..n).map(h).collect();
    let name = |i: u32| format!("c{i}");
    let directory: BTreeMap<String, HostId> = (1..n).map(|i| (name(i), h(i))).collect();
    let mut sim = Simulator::new(seed);
    for &me in &hosts {
        let neighbors: Vec<HostId> = hosts.iter().copied().filter(|x| *x != me).collect();
        let mut host = PrismHost::new(me, factory(), config(h(0), &neighbors, checkpoint_interval));
        if me == h(0) {
            host.enable_deployer();
        } else {
            let next = me.raw() % (n - 1) + 1;
            host.add_app_component(
                name(me.raw()),
                WorkloadComponent::new(vec![InteractionSpec {
                    peer: name(next),
                    frequency: 5.0,
                    event_size: 100,
                }]),
            )
            .unwrap();
        }
        host.set_initial_directory(directory.clone());
        sim.add_host(me, host);
    }
    for (i, &a) in hosts.iter().enumerate() {
        for &b in &hosts[i + 1..] {
            sim.set_link(a, b, LinkSpec::default());
        }
    }
    sim
}

fn master(sim: &Simulator) -> &PrismHost {
    sim.node_ref::<PrismHost>(h(0)).unwrap()
}

/// Crashes and restarts `host` at the current instant: the restart hook
/// replays the store before anything else happens.
fn bounce(sim: &mut Simulator, host: HostId) {
    sim.set_host_up(host, false);
    sim.set_host_up(host, true);
}

/// `(records, framed bytes)` the host's store appended of `kind`.
fn kind_stats(host: &PrismHost, kind: &str) -> (u64, u64) {
    let mut table = host.services().durable().stats_by_kind();
    let (_, records, bytes) = table.find(|k| k.0 == kind).unwrap();
    (records, bytes)
}

fn assert_recovered_exactly(host: &PrismHost, nth: usize) {
    let report = &host.recovery_reports()[nth];
    assert!(
        report.state_equiv && report.diverged.is_empty(),
        "recovery {nth} diverged from the pre-crash state: {report:?}"
    );
}

#[test]
fn master_crash_between_checkpoints_replays_report_deltas() {
    // Checkpoints at t = 8 s and 16 s (every 4 windows of 2 s); the reports
    // of the windows closing at 10 s and 12 s exist only as `ReportReceived`
    // records in the journal tail when the master crashes at 13.3 s.
    let crash_at = SimTime::from_secs_f64(13.3);
    let mut never = mesh_system(4, 23, 4);
    never.run_until(crash_at);
    let tail = master(&never).services().durable().recover().tail;
    let reported: BTreeSet<HostId> = tail
        .iter()
        .filter_map(|r| match r {
            JournalRecord::ReportReceived { payload } => {
                Some(MonitoringSnapshot::decode(payload).unwrap().host)
            }
            _ => None,
        })
        .collect();
    assert!(
        reported.len() >= 2,
        "want reports of >= 2 hosts in the tail, got {reported:?}"
    );

    let mut crashed = mesh_system(4, 23, 4);
    crashed.run_until(crash_at);
    bounce(&mut crashed, h(0));
    let report = &master(&crashed).recovery_reports()[0];
    assert_recovered_exactly(master(&crashed), 0);
    assert!(report.checkpoint_seq >= 1, "{report:?}");
    assert!(report.replayed >= reported.len() as u64, "{report:?}");
    // The recovered deployer is the never-crashed run's deployer.
    let (a, b) = (
        master(&never).deployer().unwrap(),
        master(&crashed).deployer().unwrap(),
    );
    assert_eq!(a.snapshots(), b.snapshots());
    assert_eq!(a.status(), b.status());
    assert!(b.snapshots().len() >= 2);

    // …and it keeps collecting: later windows land in the recovered map.
    crashed.run_until(SimTime::from_secs_f64(30.0));
    let snapshots = master(&crashed).deployer().unwrap().snapshots();
    for host in (1..4).map(h) {
        assert!(
            snapshots[&host].taken_at_secs >= 24.0,
            "{host} stopped reporting after the master's recovery"
        );
    }
}

#[test]
fn a_report_overtaken_by_a_newer_one_is_dropped_live_and_on_replay() {
    // No periodic checkpoint: every accepted report is in the journal tail.
    let mut sim = mesh_system(4, 29, u32::MAX);
    sim.run_until(SimTime::from_secs_f64(13.3));
    let held = master(&sim).deployer().unwrap().snapshots().clone();
    let journaled = kind_stats(master(&sim), "report_received");
    // h1's report of two windows ago, retransmitted until now: the reliable
    // channel hands it over although h1's later reports already arrived.
    let mut stale = held[&h(1)].clone();
    stale.taken_at_secs -= 4.0;
    stale
        .components
        .insert("ghost".into(), WORKLOAD_TYPE.into());
    let report = Event::notification(EV_REPORT).with_payload(stale.encode());
    let frame = encode_raw_frame(DEPLOYER_ADDRESS.into(), report.encode().unwrap());
    sim.inject(h(1), h(0), frame, 64);
    sim.run_until(SimTime::from_secs_f64(13.4));
    assert_eq!(master(&sim).deployer().unwrap().snapshots(), &held);
    assert_eq!(
        kind_stats(master(&sim), "report_received"),
        journaled,
        "a dropped report must append no record"
    );

    bounce(&mut sim, h(0));
    assert_recovered_exactly(master(&sim), 0);
    assert!(master(&sim).recovery_reports()[0].replayed >= journaled.0);
    assert_eq!(master(&sim).deployer().unwrap().snapshots(), &held);
}

#[test]
fn master_crash_mid_redeployment_keeps_the_epoch_and_finishes_it() {
    let run = |crash: bool| {
        let mut sim = mesh_system(4, 29, 4);
        sim.run_until(SimTime::from_secs_f64(13.3));
        sim.node_mut::<PrismHost>(h(0))
            .unwrap()
            .effect_redeployment([("c1".to_owned(), h(3))].into(), None)
            .unwrap();
        // The configure is on the wire, the ack is not back yet.
        sim.run_until(SimTime::from_secs_f64(13.3015));
        if crash {
            bounce(&mut sim, h(0));
        }
        sim
    };
    let (never, mut crashed) = (run(false), run(true));
    assert_recovered_exactly(master(&crashed), 0);
    let status = master(&crashed).deployer().unwrap().status();
    assert_eq!(status.in_flight, vec!["c1".to_owned()], "{status:?}");
    assert_eq!(status, master(&never).deployer().unwrap().status());
    assert_eq!(
        master(&crashed).deployer().unwrap().snapshots(),
        master(&never).deployer().unwrap().snapshots()
    );
    let report = &master(&crashed).recovery_reports()[0];
    assert!(
        report
            .verdicts
            .iter()
            .any(|v| v.kind == OpKind::MigrationMove && v.subject == "c1" && !v.completed),
        "{report:?}"
    );

    // The recovered deployer still steers the epoch to completion.
    crashed.run_until(SimTime::from_secs_f64(40.0));
    let status = master(&crashed).deployer().unwrap().status();
    assert!(status.is_complete() && status.confirmed == 1, "{status:?}");
    assert!(crashed
        .node_ref::<PrismHost>(h(3))
        .unwrap()
        .architecture()
        .contains_component("c1"));
}

#[test]
fn retried_and_abandoned_moves_survive_a_master_crash() {
    // The holder is down, so the move stalls, its deadline (8 s) expires and
    // a deploy tick re-issues it: a deployer transition with no message in.
    let mut sim = mesh_system(4, 31, 4);
    sim.run_until(SimTime::from_secs_f64(13.3));
    sim.set_host_up(h(1), false);
    sim.node_mut::<PrismHost>(h(0))
        .unwrap()
        .effect_redeployment([("c1".to_owned(), h(2))].into(), None)
        .unwrap();
    sim.run_until(SimTime::from_secs_f64(23.5));
    assert!(
        kind_stats(master(&sim), "deployer_state").0 >= 2,
        "the retry was not journaled"
    );
    bounce(&mut sim, h(0));
    assert_recovered_exactly(master(&sim), 0);

    // A framework giving the epoch up settles the move spans; that flag is
    // durable state too.
    sim.node_mut::<PrismHost>(h(0))
        .unwrap()
        .abandon_pending_moves();
    bounce(&mut sim, h(0));
    assert_recovered_exactly(master(&sim), 1);
    let status = master(&sim).deployer().unwrap().status();
    assert_eq!(status.in_flight, vec!["c1".to_owned()], "{status:?}");
}

#[test]
fn master_crashes_leave_byte_identical_stores_across_runs() {
    let run = |()| {
        let mut sim = mesh_system(4, 37, 4);
        sim.run_until(SimTime::from_secs_f64(13.3));
        bounce(&mut sim, h(0));
        sim.node_mut::<PrismHost>(h(0))
            .unwrap()
            .effect_redeployment([("c2".to_owned(), h(1))].into(), None)
            .unwrap();
        sim.run_until(SimTime::from_secs_f64(13.3015));
        bounce(&mut sim, h(0));
        sim.run_until(SimTime::from_secs_f64(30.0));
        assert_recovered_exactly(master(&sim), 0);
        assert_recovered_exactly(master(&sim), 1);
        (0..4)
            .map(|x| sim.node_ref::<PrismHost>(h(x)).unwrap().durable_digest())
            .collect::<Vec<_>>()
    };
    assert_eq!(run(()), run(()), "durable stores diverged between runs");
}

/// Journal bytes the master appended per received report, beyond the
/// report's own payload, on an `n`-host mesh in steady state.
fn report_overhead_bytes(n: u32) -> f64 {
    // No periodic checkpoint: the journal tail holds every report.
    let mut sim = mesh_system(n, 41, u32::MAX);
    sim.run_until(SimTime::from_secs_f64(20.5));
    // Between two window closes only pings and deploy ticks happen; with no
    // move overdue, a deploy tick (at 21 s) must append nothing at all.
    let quiet = master(&sim).services().durable().bytes_appended();
    sim.run_until(SimTime::from_secs_f64(21.5));
    assert_eq!(
        master(&sim).services().durable().bytes_appended(),
        quiet,
        "an idle deploy tick appended journal bytes ({n} hosts)"
    );

    let payloads: Vec<usize> = master(&sim)
        .services()
        .durable()
        .recover()
        .tail
        .iter()
        .filter_map(|r| match r {
            JournalRecord::ReportReceived { payload } => Some(payload.len()),
            _ => None,
        })
        .collect();
    let (reports, report_bytes) = kind_stats(master(&sim), "report_received");
    assert_eq!(reports, payloads.len() as u64);
    assert!(
        payloads.len() >= 3 * (n as usize - 1),
        "steady state not reached: {} reports from {n} hosts",
        payloads.len()
    );
    // No epoch was opened, so no deployer state was ever journaled: every
    // byte the reports caused is in their own records.
    assert_eq!(kind_stats(master(&sim), "deployer_state").0, 0);
    let payload_bytes: usize = payloads.iter().sum();
    (report_bytes as f64 - payload_bytes as f64) / payloads.len() as f64
}

#[test]
fn journal_bytes_per_report_do_not_grow_with_host_count() {
    for n in [8, 16] {
        let overhead = report_overhead_bytes(n);
        assert!(
            (0.0..=16.0).contains(&overhead),
            "{overhead} journal bytes per report beyond its payload at {n} hosts"
        );
    }
}
