//! Integration: the middleware under faults — partitions, host crashes, and
//! link churn during operation and during redeployment.

use redep::framework::{RuntimeConfig, SystemRuntime};
use redep::model::{Generator, GeneratorConfig, HostId};
use redep::netsim::{Duration, FaultKind, FaultPlan};
use redep::prism::PrismHost;
use std::collections::BTreeMap;

fn runtime(
    seed: u64,
) -> (
    redep::model::DeploymentModel,
    redep::model::Deployment,
    SystemRuntime,
) {
    let s = Generator::generate(&GeneratorConfig::sized(4, 12).with_seed(seed)).unwrap();
    let rt = SystemRuntime::build(&s.model, &s.initial, &RuntimeConfig::default()).unwrap();
    (s.model, s.initial, rt)
}

#[test]
fn redeployment_completes_after_a_partition_heals() {
    let (_, initial, mut rt) = runtime(31);
    rt.run_for(Duration::from_secs_f64(5.0));

    // Partition the destination host away, then order a move into it.
    let names = rt.component_names().clone();
    let (component, from) = initial.iter().next().unwrap();
    let dest = rt.hosts().iter().copied().find(|h| *h != from).unwrap();
    let master = rt.master().unwrap();

    let others: Vec<HostId> = rt.hosts().iter().copied().filter(|h| *h != dest).collect();
    rt.sim_mut().partition(&[others, vec![dest]]);

    let target: BTreeMap<String, HostId> = [(names[&component].clone(), dest)].into();
    rt.host_mut(master)
        .unwrap()
        .effect_redeployment(target, None)
        .unwrap();
    rt.run_for(Duration::from_secs_f64(10.0));
    // Still cut off (unless the move was already local): not complete.
    if from != dest {
        assert!(!rt
            .host(master)
            .unwrap()
            .deployer()
            .unwrap()
            .status()
            .is_complete());
    }

    // Heal and let the reliable channels finish the job.
    rt.sim_mut().heal();
    rt.run_for(Duration::from_secs_f64(30.0));
    assert!(rt
        .host(master)
        .unwrap()
        .deployer()
        .unwrap()
        .status()
        .is_complete());
    assert!(rt
        .host(dest)
        .unwrap()
        .architecture()
        .contains_component(&names[&component]));
}

#[test]
fn workload_survives_link_churn() {
    let (model, _, mut rt) = runtime(32);
    // Churn for the whole minute: every link flaps or degrades, each with
    // its own phase and period.
    let mut plan = FaultPlan::new();
    for (i, link) in model.physical_links().enumerate() {
        let (a, b) = (link.ends().lo(), link.ends().hi());
        let churn = if i % 2 == 0 {
            let period_secs = 1.0 + (i % 3) as f64;
            FaultKind::LinkFlap { a, b, period_secs }
        } else {
            FaultKind::LinkDegrade {
                a,
                b,
                reliability_factor: 0.5,
                bandwidth_factor: 0.5,
            }
        };
        plan = plan.episode(1.0 + (i % 5) as f64 * 0.4, 58.0, churn);
    }
    rt.sim_mut().install_fault_plan(&plan);
    rt.run_for(Duration::from_secs_f64(60.0));
    // The system keeps making progress: events flow, nothing deadlocks.
    let availability = rt.measured_availability();
    assert!(
        availability > 0.1,
        "system starved under churn: {availability}"
    );
    assert!(rt.sim().stats().delivered > 100);
}

#[test]
fn crashed_host_comes_back_and_keeps_serving() {
    let (_, initial, mut rt) = runtime(33);
    rt.run_for(Duration::from_secs_f64(5.0));
    let victim = rt
        .hosts()
        .iter()
        .copied()
        .find(|h| Some(*h) != rt.master())
        .unwrap();
    rt.sim_mut().set_host_up(victim, false);
    rt.run_for(Duration::from_secs_f64(10.0));
    rt.sim_mut().set_host_up(victim, true);
    rt.run_for(Duration::from_secs_f64(10.0));

    // The victim's components are still attached and the system still runs.
    let host: &PrismHost = rt.host(victim).unwrap();
    assert_eq!(
        host.architecture().component_count(),
        initial.components_on(victim).len()
    );
    let delivered_before = rt.sim().stats().delivered;
    rt.run_for(Duration::from_secs_f64(5.0));
    assert!(rt.sim().stats().delivered > delivered_before);
}

/// How many copies of `component` exist across the whole system. Migrations
/// must move components, never fork or lose them.
fn copies_of(rt: &SystemRuntime, component: &str) -> usize {
    rt.hosts()
        .iter()
        .filter_map(|&h| rt.host(h))
        .filter(|host| host.architecture().contains_component(component))
        .count()
}

#[test]
fn holder_crash_during_transfer_recovers() {
    let (_, initial, mut rt) = runtime(34);
    rt.run_for(Duration::from_secs_f64(5.0));

    let names = rt.component_names().clone();
    let master = rt.master().unwrap();
    // Move a component off a non-master host, then crash that holder the
    // instant the move is requested: the deploy request and any transfer in
    // flight are lost with it.
    let (component, holder) = initial
        .iter()
        .find(|(_, h)| Some(*h) != rt.master())
        .unwrap();
    let dest = rt
        .hosts()
        .iter()
        .copied()
        .find(|h| *h != holder && Some(*h) != rt.master())
        .unwrap_or(master);
    let target: BTreeMap<String, HostId> = [(names[&component].clone(), dest)].into();
    rt.host_mut(master)
        .unwrap()
        .effect_redeployment(target, None)
        .unwrap();
    rt.sim_mut().set_host_up(holder, false);
    rt.run_for(Duration::from_secs_f64(10.0));

    // Bring the holder back: retransmitted deploy requests reach it, the
    // transfer goes through, and the redeployment completes.
    rt.sim_mut().set_host_up(holder, true);
    rt.run_for(Duration::from_secs_f64(40.0));

    let status = rt.host(master).unwrap().deployer().unwrap().status();
    assert!(
        status.is_settled(),
        "deployer still waiting after holder restart: {status:?}"
    );
    assert_eq!(
        copies_of(&rt, &names[&component]),
        1,
        "component lost or duplicated by the crash"
    );
    assert!(
        rt.host(dest)
            .unwrap()
            .architecture()
            .contains_component(&names[&component]),
        "move did not land after holder restart: {status:?}"
    );
}

#[test]
fn overlapping_effect_calls_supersede_cleanly() {
    let (_, initial, mut rt) = runtime(35);
    rt.run_for(Duration::from_secs_f64(5.0));

    let names = rt.component_names().clone();
    let master = rt.master().unwrap();
    let (component, from) = initial.iter().next().unwrap();
    let hosts: Vec<HostId> = rt.hosts().iter().copied().filter(|h| *h != from).collect();
    let (first_dest, second_dest) = (hosts[0], hosts[1 % hosts.len()]);

    // First effect: move the component to `first_dest`. Before it can land,
    // a second effect supersedes it with a different destination — the
    // deployer must open a new epoch and ignore the first epoch's ACKs.
    let first: BTreeMap<String, HostId> = [(names[&component].clone(), first_dest)].into();
    rt.host_mut(master)
        .unwrap()
        .effect_redeployment(first, None)
        .unwrap();
    let first_epoch = rt.host(master).unwrap().deployer().unwrap().status().epoch;
    rt.run_for(Duration::from_millis(300));
    let second: BTreeMap<String, HostId> = [(names[&component].clone(), second_dest)].into();
    rt.host_mut(master)
        .unwrap()
        .effect_redeployment(second, None)
        .unwrap();
    let status = rt.host(master).unwrap().deployer().unwrap().status();
    assert!(
        status.epoch > first_epoch,
        "second effect must open a new epoch"
    );

    rt.run_for(Duration::from_secs_f64(60.0));
    let status = rt.host(master).unwrap().deployer().unwrap().status();
    assert!(
        status.is_settled(),
        "superseding epoch never settled: {status:?}"
    );
    assert_eq!(
        copies_of(&rt, &names[&component]),
        1,
        "overlapping effects forked or lost the component"
    );
    if status.is_complete() {
        // A complete second epoch means the component is at the *second*
        // destination — a stale first-epoch ACK must not have counted.
        assert!(
            rt.host(second_dest)
                .unwrap()
                .architecture()
                .contains_component(&names[&component]),
            "epoch {} reported complete but the component is not at its target",
            status.epoch
        );
    }
}

#[test]
fn partition_during_decentralized_cycle_reconciles() {
    use redep::framework::DecentralizedFramework;
    use redep::model::Availability;

    let s = Generator::generate(&GeneratorConfig::sized(4, 12).with_seed(36)).unwrap();
    let mut fw = DecentralizedFramework::new(
        s.model.clone(),
        s.initial.clone(),
        &RuntimeConfig::default(),
    )
    .unwrap();
    fw.advance(Duration::from_secs_f64(10.0));

    // Split the network down the middle, then run a full cycle across the
    // partition: adopted moves into the far side cannot land.
    let hosts = fw.runtime().hosts().to_vec();
    let half = hosts.len() / 2;
    fw.runtime_mut()
        .sim_mut()
        .partition(&[hosts[..half].to_vec(), hosts[half..].to_vec()]);
    let report = fw
        .cycle(
            &Availability,
            Duration::from_secs_f64(5.0),
            Duration::from_secs_f64(15.0),
        )
        .expect("a partitioned cycle must degrade, not error");
    assert_eq!(
        fw.system().deployment(),
        &fw.runtime().actual_deployment_by_id(),
        "cycle ended with the model diverging from the partitioned system \
         (completed={}, reconciled={})",
        report.completed,
        report.reconciled
    );

    // Heal; the next cycle runs on consistent state and stays consistent.
    fw.runtime_mut().sim_mut().heal();
    fw.advance(Duration::from_secs_f64(5.0));
    fw.cycle(
        &Availability,
        Duration::from_secs_f64(5.0),
        Duration::from_secs_f64(20.0),
    )
    .expect("post-heal cycle");
    assert_eq!(
        fw.system().deployment(),
        &fw.runtime().actual_deployment_by_id(),
        "post-heal cycle left the model diverging"
    );
}

mod migration_protocol_proptests {
    use super::*;
    use proptest::prelude::*;
    use redep::netsim::LinkSpec;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]

        /// The migration protocol on top of lossy links: drops come from the
        /// link reliability, duplicates from retransmissions whose ACKs were
        /// dropped, reordering from per-link delay spread. Whatever the
        /// weather, every requested move settles, no component is lost or
        /// forked, and a completed redeployment has every component at its
        /// target.
        #[test]
        fn migrations_survive_drop_duplicate_reorder(
            seed in 0u64..1000,
            reliability in 0.4f64..0.95,
            delay_spread in 1u32..40,
            moves in 1usize..4,
        ) {
            let s = Generator::generate(&GeneratorConfig::sized(4, 12).with_seed(seed)).unwrap();
            let cfg = RuntimeConfig { seed, ..RuntimeConfig::default() };
            let mut rt = SystemRuntime::build(&s.model, &s.initial, &cfg).unwrap();

            // Degrade every link: unreliable, and with a different delay per
            // link so multi-hop paths reorder against single-hop ones.
            let pairs: Vec<_> = rt
                .sim()
                .topology()
                .links()
                .map(|(pair, _)| pair)
                .collect();
            for (i, pair) in pairs.iter().enumerate() {
                let spec = LinkSpec {
                    reliability,
                    delay: 0.001 * f64::from(delay_spread) * (i + 1) as f64,
                    ..LinkSpec::default()
                };
                rt.sim_mut().set_link(pair.lo(), pair.hi(), spec);
            }
            rt.run_for(Duration::from_secs_f64(2.0));

            let names = rt.component_names().clone();
            let hosts = rt.hosts().to_vec();
            let master = rt.master().unwrap();
            let mut target: BTreeMap<String, HostId> = BTreeMap::new();
            for (c, h) in s.initial.iter().take(moves) {
                let dest = hosts[(h.raw() as usize + 1) % hosts.len()];
                target.insert(names[&c].clone(), dest);
            }
            rt.host_mut(master)
                .unwrap()
                .effect_redeployment(target.clone(), None)
                .unwrap();

            // Drive until the deployer settles (bounded).
            let mut settled = false;
            for _ in 0..30 {
                rt.run_for(Duration::from_secs_f64(5.0));
                if rt.host(master).unwrap().deployer().unwrap().status().is_settled() {
                    settled = true;
                    break;
                }
            }
            let status = rt.host(master).unwrap().deployer().unwrap().status();
            prop_assert!(settled, "deployer never settled: {:?}", status);
            for name in names.values() {
                prop_assert_eq!(
                    copies_of(&rt, name), 1,
                    "component {} lost or duplicated (status {:?})", name, status
                );
            }
            if status.is_complete() {
                for (name, dest) in &target {
                    prop_assert!(
                        rt.host(*dest).unwrap().architecture().contains_component(name),
                        "complete, but {} is not at {}", name, dest
                    );
                }
            }
        }
    }
}

#[test]
fn simulation_is_deterministic_end_to_end() {
    let run = |seed| {
        let s = Generator::generate(&GeneratorConfig::sized(4, 12).with_seed(1)).unwrap();
        let cfg = RuntimeConfig {
            seed,
            ..RuntimeConfig::default()
        };
        let mut rt = SystemRuntime::build(&s.model, &s.initial, &cfg).unwrap();
        rt.run_for(Duration::from_secs_f64(20.0));
        (
            rt.sim().stats().sent,
            rt.sim().stats().delivered,
            rt.measured_availability(),
        )
    };
    assert_eq!(run(9), run(9));
    assert_ne!(run(9), run(10));
}
