//! Criterion benches: end-to-end redeployment effecting and simulator
//! throughput (experiment E7's wall-clock counterpart).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use redep_core::{RuntimeConfig, SystemRuntime};
use redep_model::{Generator, GeneratorConfig, HostId};
use redep_netsim::Duration;
use std::collections::BTreeMap;

/// Builds a runtime, warms it up, effects `moves` migrations, and drives the
/// simulation to completion. The measured quantity is host wall time for the
/// whole simulated redeployment.
fn effect_moves(moves: usize) {
    let system = Generator::generate(&GeneratorConfig::sized(6, 24).with_seed(4)).unwrap();
    let mut runtime =
        SystemRuntime::build(&system.model, &system.initial, &RuntimeConfig::default()).unwrap();
    runtime.run_for(Duration::from_secs_f64(2.0));

    let names = runtime.component_names().clone();
    let hosts = runtime.hosts().to_vec();
    let mut target: BTreeMap<String, HostId> = BTreeMap::new();
    for (c, h) in system.initial.iter().take(moves) {
        target.insert(
            names[&c].clone(),
            hosts[(h.raw() as usize + 1) % hosts.len()],
        );
    }
    let master = runtime.master().unwrap();
    runtime
        .host_mut(master)
        .unwrap()
        .effect_redeployment(target, None)
        .unwrap();
    for _ in 0..120 {
        runtime.run_for(Duration::from_millis(250));
        if runtime
            .host(master)
            .unwrap()
            .deployer()
            .unwrap()
            .status()
            .is_complete()
        {
            return;
        }
    }
    panic!("redeployment did not complete");
}

fn bench_redeploy(c: &mut Criterion) {
    let mut group = c.benchmark_group("effect_redeployment");
    group.sample_size(10);
    for moves in [1usize, 4, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(moves), &moves, |b, &moves| {
            b.iter(|| effect_moves(moves))
        });
    }
    group.finish();
}

fn bench_sim_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulated_second");
    group.sample_size(10);
    group.bench_function("10_hosts_workload", |b| {
        let system = Generator::generate(&GeneratorConfig::sized(10, 40).with_seed(5)).unwrap();
        b.iter(|| {
            let mut runtime =
                SystemRuntime::build(&system.model, &system.initial, &RuntimeConfig::default())
                    .unwrap();
            runtime.run_for(Duration::from_secs_f64(1.0));
        })
    });
    group.finish();
}

criterion_group!(benches, bench_redeploy, bench_sim_throughput);
criterion_main!(benches);
