//! Multi-hop relay routing: hosts without direct links exchange application
//! and control traffic through source-routed `Forward` frames.

use redep_model::HostId;
use redep_netsim::{LinkSpec, SimTime, Simulator};
use redep_prism::workload::{InteractionSpec, WORKLOAD_TYPE};
use redep_prism::{host::HostConfig, ComponentFactory, PrismHost, WorkloadComponent};
use std::collections::{BTreeMap, BTreeSet};

fn h(n: u32) -> HostId {
    HostId::new(n)
}

/// A line topology h0 — h1 — h2 — h3 with static next-hop routes.
fn line_system(reliability: f64) -> Simulator {
    let hosts = [h(0), h(1), h(2), h(3)];
    let neighbors = |me: u32| -> BTreeSet<HostId> {
        hosts
            .iter()
            .copied()
            .filter(|x| x.raw() + 1 == me || x.raw() == me + 1)
            .collect()
    };
    // Next hop along the line.
    let routes = |me: u32| -> BTreeMap<HostId, HostId> {
        let mut r = BTreeMap::new();
        for dst in 0..4u32 {
            if dst == me || dst.abs_diff(me) == 1 {
                continue;
            }
            let hop = if dst > me { me + 1 } else { me - 1 };
            r.insert(h(dst), h(hop));
        }
        r
    };

    let directory: BTreeMap<String, HostId> =
        [("src".to_owned(), h(0)), ("dst".to_owned(), h(3))].into();
    let mut sim = Simulator::new(77);
    for &me in &hosts {
        let mut factory = ComponentFactory::new();
        factory.register(WORKLOAD_TYPE, WorkloadComponent::build);
        let config = HostConfig {
            deployer_host: h(0),
            neighbors: neighbors(me.raw()),
            routes: routes(me.raw()),
            ..HostConfig::default()
        };
        let mut host = PrismHost::new(me, factory, config);
        if me == h(0) {
            host.enable_deployer();
            host.add_app_component(
                "src",
                WorkloadComponent::new(vec![InteractionSpec {
                    peer: "dst".into(),
                    frequency: 5.0,
                    event_size: 64,
                }]),
            )
            .unwrap();
        }
        if me == h(3) {
            host.add_app_component("dst", WorkloadComponent::new(vec![]))
                .unwrap();
        }
        host.set_initial_directory(directory.clone());
        sim.add_host(me, host);
    }
    for w in hosts.windows(2) {
        sim.set_link(
            w[0],
            w[1],
            LinkSpec {
                reliability,
                bandwidth: 1e6,
                delay: 0.002,
            },
        );
    }
    sim
}

#[test]
fn app_events_cross_three_hops() {
    let mut sim = line_system(1.0);
    sim.run_until(SimTime::from_secs_f64(10.0));
    let dst = sim.node_ref::<PrismHost>(h(3)).unwrap();
    let received = dst
        .architecture()
        .component_ref::<WorkloadComponent>("dst")
        .unwrap()
        .received();
    assert!(received >= 45, "only {received} events crossed the line");
    // The middle hosts actually relayed.
    let forwarded: u64 = [h(1), h(2)]
        .iter()
        .map(|&x| {
            sim.node_ref::<PrismHost>(x)
                .unwrap()
                .services()
                .stats()
                .frames_forwarded
        })
        .sum();
    assert!(forwarded > 0, "no frames were relayed");
}

#[test]
fn per_hop_loss_compounds_end_to_end() {
    // Three hops at 0.8 each ≈ 0.51 end-to-end delivery for raw app frames.
    let mut sim = line_system(0.8);
    sim.run_until(SimTime::from_secs_f64(60.0));
    let src = sim.node_ref::<PrismHost>(h(0)).unwrap();
    let sent = src.services().stats().app_events_sent;
    let dst = sim.node_ref::<PrismHost>(h(3)).unwrap();
    let received = dst
        .architecture()
        .component_ref::<WorkloadComponent>("dst")
        .unwrap()
        .received();
    let ratio = received as f64 / sent as f64;
    let expected = 0.8f64.powi(3);
    assert!(
        (ratio - expected).abs() < 0.08,
        "end-to-end delivery {ratio:.3}, expected ≈{expected:.3}"
    );
}

#[test]
fn monitoring_reports_traverse_the_line_to_the_deployer() {
    let mut sim = line_system(0.9);
    sim.run_until(SimTime::from_secs_f64(40.0));
    let master = sim.node_ref::<PrismHost>(h(0)).unwrap();
    let snapshots = master.deployer().unwrap().snapshots();
    // All four hosts report, including h3 which is three lossy hops away.
    assert_eq!(snapshots.len(), 4, "reported: {:?}", snapshots.keys());
}

#[test]
fn migration_works_across_multiple_hops() {
    let mut sim = line_system(0.9);
    sim.run_until(SimTime::from_secs_f64(10.0));
    sim.node_mut::<PrismHost>(h(0))
        .unwrap()
        .effect_redeployment([("dst".to_owned(), h(1))].into(), None)
        .unwrap();
    sim.run_until(SimTime::from_secs_f64(60.0));
    let master = sim.node_ref::<PrismHost>(h(0)).unwrap();
    assert!(master.deployer().unwrap().status().is_complete());
    assert!(sim
        .node_ref::<PrismHost>(h(1))
        .unwrap()
        .architecture()
        .contains_component("dst"));
    assert!(!sim
        .node_ref::<PrismHost>(h(3))
        .unwrap()
        .architecture()
        .contains_component("dst"));
}

#[test]
fn unroutable_destinations_are_counted_not_hung() {
    // A request toward a fictitious h9 is mediated to the deployer (h0),
    // which has no route either — it must drop and count, not loop.
    let mut sim = line_system(1.0);
    sim.run_until(SimTime::from_secs_f64(2.0));
    sim.node_mut::<PrismHost>(h(3))
        .unwrap()
        .request_component("ghost-component", h(9), None);
    sim.run_until(SimTime::from_secs_f64(6.0));
    let deployer_stats = sim.node_ref::<PrismHost>(h(0)).unwrap().services().stats();
    assert!(
        deployer_stats.frames_unroutable > 0,
        "the mediator did not drop the unroutable frame"
    );
    // And crucially: the mediator holds no ever-retransmitting self frames.
    let pending = sim
        .node_ref::<PrismHost>(h(0))
        .unwrap()
        .services()
        .pending_control();
    assert!(
        pending.iter().all(|(peer, _)| *peer != h(0)),
        "self-addressed reliable frames leaked: {pending:?}"
    );
}
