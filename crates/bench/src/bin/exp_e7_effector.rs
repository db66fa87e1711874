//! E7 (§4.3): the effector's redeployment protocol.
//!
//! Measures the time and control traffic to effect redeployments of
//! increasing size (1…N component moves) on a running system, and verifies
//! the paper's buffering claim: application events addressed to in-flight
//! components are parked and replayed, not lost.

use redep_bench::{fmt_f, print_table};
use redep_core::{RuntimeConfig, SystemRuntime};
use redep_model::{Generator, GeneratorConfig, HostId};
use redep_netsim::Duration;
use redep_prism::PrismHost;
use std::collections::BTreeMap;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rows = Vec::new();
    for moves in [1usize, 2, 4, 8, 12] {
        let system = Generator::generate(&GeneratorConfig::sized(6, 24).with_seed(4))?;
        let mut runtime =
            SystemRuntime::build(&system.model, &system.initial, &RuntimeConfig::default())?;
        runtime.run_for(Duration::from_secs_f64(5.0));

        // Build a target moving `moves` components to different hosts.
        let names = runtime.component_names().clone();
        let hosts = runtime.hosts().to_vec();
        let mut target: BTreeMap<String, HostId> = BTreeMap::new();
        for (c, h) in system.initial.iter().take(moves) {
            let dest = hosts[(h.raw() as usize + 1) % hosts.len()];
            target.insert(names[&c].clone(), dest);
        }

        let master = runtime.master().unwrap();
        let control_before: u64 = hosts
            .iter()
            .map(|&h| runtime.host(h).unwrap().services().stats().control_sent)
            .sum();
        let t0 = runtime.sim().now();
        runtime
            .host_mut(master)
            .unwrap()
            .effect_redeployment(target, None)?;

        // Drive until completion.
        let mut elapsed = None;
        for _ in 0..240 {
            runtime.run_for(Duration::from_millis(250));
            let done = runtime
                .host(master)
                .unwrap()
                .deployer()
                .unwrap()
                .status()
                .is_complete();
            if done {
                elapsed = Some(runtime.sim().now() - t0);
                break;
            }
        }
        let control_after: u64 = hosts
            .iter()
            .map(|&h| runtime.host(h).unwrap().services().stats().control_sent)
            .sum();

        rows.push(vec![
            moves.to_string(),
            match elapsed {
                Some(d) => format!("{:.2}", d.as_secs_f64()),
                None => "timeout".into(),
            },
            (control_after - control_before).to_string(),
            fmt_f((control_after - control_before) as f64 / moves as f64),
        ]);
        assert!(
            elapsed.is_some(),
            "E7 FAILED: redeployment of {moves} moves timed out"
        );
    }
    print_table(
        "E7a: redeployment effecting cost vs moves (6 hosts × 24 components)",
        &["moves", "effect time (s)", "control frames", "frames/move"],
        &rows,
    );

    // ---- buffering: no events lost during migration -------------------
    let system = Generator::generate(&GeneratorConfig::sized(4, 12).with_seed(9))?;
    let mut runtime =
        SystemRuntime::build(&system.model, &system.initial, &RuntimeConfig::default())?;
    runtime.run_for(Duration::from_secs_f64(5.0));
    let names = runtime.component_names().clone();
    // Move the busiest component.
    let busiest = system
        .model
        .component_ids()
        .into_iter()
        .max_by(|a, b| {
            let fa: f64 = system
                .model
                .logical_neighbors(*a)
                .iter()
                .map(|d| system.model.frequency(*a, *d))
                .sum();
            let fb: f64 = system
                .model
                .logical_neighbors(*b)
                .iter()
                .map(|d| system.model.frequency(*b, *d))
                .sum();
            fa.partial_cmp(&fb).unwrap()
        })
        .unwrap();
    let from = system.initial.host_of(busiest).unwrap();
    let dest = runtime
        .hosts()
        .iter()
        .copied()
        .find(|h| *h != from)
        .unwrap();
    let master = runtime.master().unwrap();
    runtime
        .host_mut(master)
        .unwrap()
        .effect_redeployment([(names[&busiest].clone(), dest)].into(), None)?;
    runtime.run_for(Duration::from_secs_f64(30.0));

    let (mut buffered, mut replayed) = (0, 0);
    for &h in runtime.hosts() {
        let stats = runtime.host(h).unwrap().services().stats();
        buffered += stats.events_buffered;
        replayed += stats.events_replayed;
    }
    let landed = runtime
        .host(dest)
        .map(|host: &PrismHost| host.architecture().contains_component(&names[&busiest]))
        .unwrap_or(false);
    print_table(
        "E7b: event buffering during migration of the busiest component",
        &["metric", "value"],
        &[
            vec!["migration completed".into(), landed.to_string()],
            vec!["events buffered".into(), buffered.to_string()],
            vec!["events replayed".into(), replayed.to_string()],
        ],
    );
    assert!(landed, "E7 FAILED: migration did not complete");
    assert_eq!(buffered, replayed, "E7 FAILED: buffered events were lost");
    println!("\nE7 PASS: effecting scales with move count; buffered = replayed (no loss).");
    Ok(())
}
