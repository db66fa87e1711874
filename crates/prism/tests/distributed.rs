//! End-to-end tests of the distributed middleware: Prism hosts running on
//! the network simulator, monitoring flowing to the deployer, and live
//! component migration (the paper's Figure 8 setup).

use redep_model::HostId;
use redep_netsim::{LinkSpec, SimTime, Simulator};
use redep_prism::codec::encode_raw_frame;
use redep_prism::workload::{InteractionSpec, EV_APP, WORKLOAD_TYPE};
use redep_prism::{host::HostConfig, ComponentFactory, Event, PrismHost, WorkloadComponent};
use std::collections::{BTreeMap, BTreeSet};

fn h(n: u32) -> HostId {
    HostId::new(n)
}

fn factory() -> ComponentFactory {
    let mut f = ComponentFactory::new();
    f.register(WORKLOAD_TYPE, WorkloadComponent::build);
    f
}

fn config(deployer: HostId, neighbors: &[HostId]) -> HostConfig {
    HostConfig {
        deployer_host: deployer,
        neighbors: neighbors.iter().copied().collect::<BTreeSet<_>>(),
        ..HostConfig::default()
    }
}

/// Three fully meshed hosts; "a" on h0 talks to "b" on h1 at 5 events/s.
fn three_host_system(reliability: f64) -> Simulator {
    let hosts = [h(0), h(1), h(2)];
    let mut sim = Simulator::new(11);
    let directory: BTreeMap<String, HostId> =
        [("a".to_owned(), h(0)), ("b".to_owned(), h(1))].into();

    for &me in &hosts {
        let neighbors: Vec<HostId> = hosts.iter().copied().filter(|x| *x != me).collect();
        let mut host = PrismHost::new(me, factory(), config(h(0), &neighbors));
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
            sim.set_link(
                hosts[i],
                hosts[j],
                LinkSpec {
                    reliability,
                    bandwidth: 1e6,
                    delay: 0.002,
                },
            );
        }
    }
    sim
}

#[test]
fn workload_flows_between_hosts() {
    let mut sim = three_host_system(1.0);
    sim.run_until(SimTime::from_secs_f64(10.0));
    let sender = sim.node_ref::<PrismHost>(h(0)).unwrap();
    let receiver = sim.node_ref::<PrismHost>(h(1)).unwrap();
    let a = sender
        .architecture()
        .component_ref::<WorkloadComponent>("a")
        .unwrap();
    let b = receiver
        .architecture()
        .component_ref::<WorkloadComponent>("b")
        .unwrap();
    // ~50 events in 10 s at 5/s over a perfect link; the last event may
    // still be in flight (2 ms propagation) when the clock stops.
    assert!(a.sent() >= 45, "sent only {}", a.sent());
    assert!(
        b.received() >= a.sent() - 1 && b.received() <= a.sent(),
        "sent {} received {}",
        a.sent(),
        b.received()
    );
}

#[test]
fn monitoring_reports_reach_the_deployer() {
    let mut sim = three_host_system(1.0);
    sim.run_until(SimTime::from_secs_f64(30.0));
    let master = sim.node_ref::<PrismHost>(h(0)).unwrap();
    let deployer = master.deployer().unwrap();
    // Every host reported at least once (stability achieved).
    assert_eq!(
        deployer.snapshots().len(),
        3,
        "{:?}",
        deployer.snapshots().keys()
    );
    // The sender's snapshot carries a frequency estimate near 5 events/s.
    let snap0 = &deployer.snapshots()[&h(0)];
    let freq: f64 = snap0
        .frequencies
        .get(&("a".to_owned(), "b".to_owned()))
        .copied()
        .unwrap_or(0.0);
    assert!((freq - 5.0).abs() < 1.0, "estimated frequency {freq}");
    // Components inventoried correctly.
    assert!(snap0.components.contains_key("a"));
    assert_eq!(deployer.snapshots()[&h(1)].components.len(), 1);
}

#[test]
fn reliability_probes_recover_link_quality() {
    let mut sim = three_host_system(0.6);
    sim.run_until(SimTime::from_secs_f64(40.0));
    let master = sim.node_ref::<PrismHost>(h(0)).unwrap();
    let estimates = master.admin().reliability_estimates();
    let est = estimates.get(&h(1)).copied().unwrap_or(0.0);
    assert!(
        (est - 0.6).abs() < 0.12,
        "estimated reliability {est}, ground truth 0.6"
    );
}

#[test]
fn redeployment_migrates_component_and_traffic_follows() {
    let mut sim = three_host_system(1.0);
    sim.run_until(SimTime::from_secs_f64(10.0));

    // Move "b" from h1 to h2.
    let master = sim.node_mut::<PrismHost>(h(0)).unwrap();
    master
        .effect_redeployment([("b".to_owned(), h(2))].into(), None)
        .unwrap();
    sim.run_until(SimTime::from_secs_f64(15.0));

    let master = sim.node_ref::<PrismHost>(h(0)).unwrap();
    let status = master.deployer().unwrap().status();
    assert!(
        status.is_complete(),
        "still in flight: {:?}",
        status.in_flight
    );
    assert_eq!(status.requested, 1);
    assert_eq!(status.confirmed, 1);

    assert!(!sim
        .node_ref::<PrismHost>(h(1))
        .unwrap()
        .architecture()
        .contains_component("b"));
    let host2 = sim.node_ref::<PrismHost>(h(2)).unwrap();
    assert!(host2.architecture().contains_component("b"));

    // Traffic keeps flowing to the new location.
    let before = host2
        .architecture()
        .component_ref::<WorkloadComponent>("b")
        .unwrap()
        .received();
    sim.run_until(SimTime::from_secs_f64(25.0));
    let after = sim
        .node_ref::<PrismHost>(h(2))
        .unwrap()
        .architecture()
        .component_ref::<WorkloadComponent>("b")
        .unwrap()
        .received();
    assert!(
        after >= before + 40,
        "traffic did not follow the migration: {before} -> {after}"
    );
}

#[test]
fn migration_preserves_component_state() {
    let mut sim = three_host_system(1.0);
    sim.run_until(SimTime::from_secs_f64(10.0));
    let received_before = sim
        .node_ref::<PrismHost>(h(1))
        .unwrap()
        .architecture()
        .component_ref::<WorkloadComponent>("b")
        .unwrap()
        .received();
    assert!(received_before > 0);

    let master = sim.node_mut::<PrismHost>(h(0)).unwrap();
    master
        .effect_redeployment([("b".to_owned(), h(2))].into(), None)
        .unwrap();
    sim.run_until(SimTime::from_secs_f64(15.0));

    // The migrant kept its counters (serialized state travelled with it).
    let received_after = sim
        .node_ref::<PrismHost>(h(2))
        .unwrap()
        .architecture()
        .component_ref::<WorkloadComponent>("b")
        .unwrap()
        .received();
    assert!(received_after >= received_before);
}

#[test]
fn migration_survives_lossy_links() {
    // 40% loss on every link: control traffic must still complete the move
    // thanks to the reliable channels.
    let mut sim = three_host_system(0.6);
    sim.run_until(SimTime::from_secs_f64(10.0));
    let master = sim.node_mut::<PrismHost>(h(0)).unwrap();
    master
        .effect_redeployment([("b".to_owned(), h(2))].into(), None)
        .unwrap();
    sim.run_until(SimTime::from_secs_f64(40.0));
    let master = sim.node_ref::<PrismHost>(h(0)).unwrap();
    assert!(master.deployer().unwrap().status().is_complete());
    assert!(sim
        .node_ref::<PrismHost>(h(2))
        .unwrap()
        .architecture()
        .contains_component("b"));
    // Retransmissions actually happened (the channel earned its keep).
    let retrans: u64 = [h(0), h(1), h(2)]
        .iter()
        .map(|&x| {
            sim.node_ref::<PrismHost>(x)
                .unwrap()
                .services()
                .stats()
                .retransmissions
        })
        .sum();
    assert!(retrans > 0);
}

#[test]
fn migration_survives_a_destination_crash() {
    // The destination host crashes right after the move is ordered; the
    // reliable channels retransmit until it comes back, and the migration
    // then completes.
    let mut sim = three_host_system(1.0);
    sim.run_until(SimTime::from_secs_f64(5.0));
    sim.set_host_up(h(2), false);
    sim.node_mut::<PrismHost>(h(0))
        .unwrap()
        .effect_redeployment([("b".to_owned(), h(2))].into(), None)
        .unwrap();
    sim.run_until(SimTime::from_secs_f64(15.0));
    assert!(
        !sim.node_ref::<PrismHost>(h(0))
            .unwrap()
            .deployer()
            .unwrap()
            .status()
            .is_complete(),
        "migration completed into a crashed host?!"
    );
    // "b" must not have been destroyed in the meantime: either it still
    // sits at h1 or its transfer is parked in a reliable channel.
    sim.set_host_up(h(2), true);
    sim.run_until(SimTime::from_secs_f64(40.0));
    assert!(sim
        .node_ref::<PrismHost>(h(0))
        .unwrap()
        .deployer()
        .unwrap()
        .status()
        .is_complete());
    let host2 = sim.node_ref::<PrismHost>(h(2)).unwrap();
    assert!(host2.architecture().contains_component("b"));
    // The migrant still works: traffic resumes into it.
    let before = host2
        .architecture()
        .component_ref::<WorkloadComponent>("b")
        .unwrap()
        .received();
    sim.run_until(SimTime::from_secs_f64(50.0));
    let after = sim
        .node_ref::<PrismHost>(h(2))
        .unwrap()
        .architecture()
        .component_ref::<WorkloadComponent>("b")
        .unwrap()
        .received();
    assert!(after > before);
}

#[test]
fn mediated_transfer_without_direct_link() {
    // h1 and h2 are not connected to each other, only to the master h0.
    // Moving "b" from h1 to h2 must be mediated through the deployer.
    let hosts = [h(0), h(1), h(2)];
    let mut sim = Simulator::new(23);
    let directory: BTreeMap<String, HostId> =
        [("a".to_owned(), h(0)), ("b".to_owned(), h(1))].into();
    for &me in &hosts {
        let neighbors: Vec<HostId> = match me.raw() {
            0 => vec![h(1), h(2)],
            _ => vec![h(0)],
        };
        let mut host = PrismHost::new(me, factory(), config(h(0), &neighbors));
        if me == h(0) {
            host.enable_deployer();
            host.add_app_component(
                "a",
                WorkloadComponent::new(vec![InteractionSpec {
                    peer: "b".into(),
                    frequency: 2.0,
                    event_size: 50,
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
    sim.set_link(h(0), h(1), LinkSpec::default());
    sim.set_link(h(0), h(2), LinkSpec::default());
    // Note: no h1–h2 link.

    sim.run_until(SimTime::from_secs_f64(5.0));
    sim.node_mut::<PrismHost>(h(0))
        .unwrap()
        .effect_redeployment([("b".to_owned(), h(2))].into(), None)
        .unwrap();
    sim.run_until(SimTime::from_secs_f64(15.0));
    assert!(sim
        .node_ref::<PrismHost>(h(2))
        .unwrap()
        .architecture()
        .contains_component("b"));
    assert!(sim
        .node_ref::<PrismHost>(h(0))
        .unwrap()
        .deployer()
        .unwrap()
        .status()
        .is_complete());
}

#[test]
fn stale_senders_chase_migrated_components_one_hop() {
    // After "b" moves from h1 to h2, a sender with a stale directory still
    // reaches it: h1 forwards the event once toward the new location.
    let mut sim = three_host_system(1.0);
    sim.run_until(SimTime::from_secs_f64(5.0));
    sim.node_mut::<PrismHost>(h(0))
        .unwrap()
        .effect_redeployment([("b".to_owned(), h(2))].into(), None)
        .unwrap();
    sim.run_until(SimTime::from_secs_f64(10.0));
    assert!(sim
        .node_ref::<PrismHost>(h(2))
        .unwrap()
        .architecture()
        .contains_component("b"));

    // Simulate a stale sender: a raw app frame addressed to "b" at its OLD
    // host h1. The old host must forward it (h1 itself runs no senders, so
    // its raw-send counter isolates the chase).
    let forwards_before = sim
        .node_ref::<PrismHost>(h(1))
        .unwrap()
        .services()
        .stats()
        .app_events_sent;
    let stray = Event::notification(EV_APP).encode().unwrap();
    sim.inject(h(0), h(1), encode_raw_frame("b".into(), stray), 64);
    sim.run_until(SimTime::from_secs_f64(11.0));
    let stats = sim.node_ref::<PrismHost>(h(1)).unwrap().services().stats();
    assert_eq!(
        stats.app_events_sent,
        forwards_before + 1,
        "the stale host did not chase the migrated component"
    );
    assert_eq!(stats.events_buffered, 0, "chase should forward, not buffer");
}

#[test]
fn events_buffered_during_migration_are_replayed() {
    let mut sim = three_host_system(1.0);
    sim.run_until(SimTime::from_secs_f64(5.0));

    // Inject an app event addressed to "b" at h2 *before* b lives there;
    // the host must buffer it and replay on arrival. The forwarded marker
    // simulates an event that already chased a stale directory entry once,
    // so the host parks it instead of bouncing it again.
    let stray = Event::notification(EV_APP)
        .with_param("prism.forwarded", true)
        .encode()
        .unwrap();
    sim.inject(h(0), h(2), encode_raw_frame("b".into(), stray), 64);
    sim.run_until(SimTime::from_secs_f64(6.0));
    let buffered = sim
        .node_ref::<PrismHost>(h(2))
        .unwrap()
        .services()
        .stats()
        .events_buffered;
    assert!(buffered >= 1, "stray event was not buffered");

    sim.node_mut::<PrismHost>(h(0))
        .unwrap()
        .effect_redeployment([("b".to_owned(), h(2))].into(), None)
        .unwrap();
    sim.run_until(SimTime::from_secs_f64(12.0));
    let stats = sim.node_ref::<PrismHost>(h(2)).unwrap().services().stats();
    assert!(
        stats.events_replayed >= 1,
        "buffered events were not replayed: {stats:?}"
    );
}
