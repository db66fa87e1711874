//! Ablation A1: event buffering during migration (DESIGN.md §ablations).
//!
//! The paper's effectors "may also need to perform tasks such as buffering,
//! hoarding, or relaying of the exchanged events during component
//! redeployment." This ablation disables the buffer and shows application
//! events being dropped during a migration that the buffered configuration
//! survives without loss.

use redep_bench::print_table;
use redep_core::{RuntimeConfig, SystemRuntime};
use redep_model::{Deployment, DeploymentModel, HostId};
use redep_netsim::Duration;

/// A 3-host chain with one very chatty pair whose receiver we migrate.
fn system() -> (DeploymentModel, Deployment) {
    let mut m = DeploymentModel::new();
    let a = m.add_host("a").unwrap();
    let b = m.add_host("b").unwrap();
    let c = m.add_host("c").unwrap();
    for (x, y) in [(a, b), (b, c), (a, c)] {
        m.set_physical_link(x, y, |l| {
            l.set_reliability(1.0);
            l.set_bandwidth(1e6);
            l.set_delay(0.005);
        })
        .unwrap();
    }
    let talker = m.add_component("talker").unwrap();
    let listener = m.add_component("listener").unwrap();
    m.set_logical_link(talker, listener, |l| {
        l.set_frequency(200.0); // very chatty: events in flight at any instant
        l.set_event_size(64.0);
    })
    .unwrap();
    let d: Deployment = [(talker, a), (listener, b)].into_iter().collect();
    (m, d)
}

/// Runs the migration scenario; returns (buffered, replayed, undeliverable).
fn run(buffering: bool) -> (u64, u64, u64) {
    let (model, initial) = system();
    let config = RuntimeConfig {
        buffer_during_migration: buffering,
        ..RuntimeConfig::default()
    };
    let mut rt = SystemRuntime::build(&model, &initial, &config).unwrap();
    rt.run_for(Duration::from_secs_f64(5.0));

    // Move the listener b → c while 200 ev/s are in flight toward it.
    let master = rt.master().unwrap();
    rt.host_mut(master)
        .unwrap()
        .effect_redeployment([("listener".to_owned(), HostId::new(2))].into(), None)
        .unwrap();
    rt.run_for(Duration::from_secs_f64(20.0));
    assert!(rt
        .host(master)
        .unwrap()
        .deployer()
        .unwrap()
        .status()
        .is_complete());

    let (mut buffered, mut replayed, mut undeliverable) = (0, 0, 0);
    for &h in rt.hosts() {
        let s = rt.host(h).unwrap().services().stats();
        buffered += s.events_buffered;
        replayed += s.events_replayed;
        undeliverable += s.events_undeliverable;
    }
    (buffered, replayed, undeliverable)
}

fn main() {
    let (b_buf, b_rep, b_lost) = run(true);
    let (a_buf, a_rep, a_lost) = run(false);
    print_table(
        "A1: event buffering ablation (migrate the listener of a 200 ev/s stream)",
        &["configuration", "buffered", "replayed", "dropped"],
        &[
            vec![
                "buffering on (paper)".into(),
                b_buf.to_string(),
                b_rep.to_string(),
                b_lost.to_string(),
            ],
            vec![
                "buffering off (ablated)".into(),
                a_buf.to_string(),
                a_rep.to_string(),
                a_lost.to_string(),
            ],
        ],
    );
    assert_eq!(
        b_buf, b_rep,
        "A1 FAILED: buffered events were not all replayed"
    );
    assert_eq!(b_lost, 0, "A1 FAILED: events lost despite buffering");
    assert!(
        a_lost > 0,
        "A1 FAILED: ablation lost nothing — migration too fast?"
    );
    println!(
        "\nA1 PASS: with buffering every in-flight event survives the migration \
         ({b_buf} parked and replayed); without it {a_lost} events are dropped."
    );
}
