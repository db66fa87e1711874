//! Crash-recovery tests for the durable host store: a host that crashes and
//! restarts must rebuild its pre-crash state from checkpoint + journal tail
//! (not start empty), self-check the rebuild against the pre-crash state,
//! and hand out an explicit completed/not-completed verdict for every
//! operation that was in flight at the crash instant.

use redep_model::HostId;
use redep_netsim::{Duration, LinkSpec, SimTime, Simulator};
use redep_prism::codec::encode_raw_frame;
use redep_prism::workload::{InteractionSpec, EV_APP, WORKLOAD_TYPE};
use redep_prism::{
    host::HostConfig, ComponentFactory, Event, OpKind, PrismHost, WorkloadComponent,
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
        monitor_window: Duration::from_secs_f64(2.0),
        epsilon: 0.5,
        stable_windows: 2,
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
        .effect_redeployment([("b".to_owned(), h(2))].into())
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
        .effect_redeployment([("b".to_owned(), h(2))].into())
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
