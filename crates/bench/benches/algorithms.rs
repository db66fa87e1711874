//! Criterion benches: redeployment-algorithm running time vs system size
//! (the wall-clock counterpart of experiment E3).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use redep_algorithms::annealing::AnnealingConfig;
use redep_algorithms::genetic::GeneticConfig;
use redep_algorithms::hierarchy::HierarchicalConfig;
use redep_algorithms::{
    AnnealingAlgorithm, AvalaAlgorithm, DecApAlgorithm, ExactAlgorithm, GeneticAlgorithm,
    MonitoringExchange, RedeploymentAlgorithm, StochasticAlgorithm,
};
use redep_model::{
    Availability, CompiledModel, CompiledObjective, Deployment, DeploymentModel, GeneratedSystem,
    Generator, GeneratorConfig, Hierarchy, HierarchyConfig, IncrementalScore, PartKind, Uncompiled,
};

fn instance(hosts: usize, comps: usize) -> (DeploymentModel, Deployment) {
    let s = Generator::generate(&GeneratorConfig::sized(hosts, comps).with_seed(3)).unwrap();
    (s.model, s.initial)
}

fn bench_exact(c: &mut Criterion) {
    let mut group = c.benchmark_group("exact");
    group.sample_size(10);
    for (hosts, comps) in [(2, 8), (3, 8), (4, 9)] {
        let (model, initial) = instance(hosts, comps);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{hosts}x{comps}")),
            &(model, initial),
            |b, (model, initial)| {
                b.iter(|| {
                    ExactAlgorithm::new()
                        .run(model, &Availability, model.constraints(), Some(initial))
                        .unwrap()
                })
            },
        );
    }
    group.finish();
}

fn bench_approximative(c: &mut Criterion) {
    for (name, algo) in [
        (
            "stochastic",
            Box::new(StochasticAlgorithm::with_config(20, 0)) as Box<dyn RedeploymentAlgorithm>,
        ),
        ("avala", Box::new(AvalaAlgorithm::new())),
        ("genetic", Box::new(GeneticAlgorithm::new())),
        ("decap", Box::new(DecApAlgorithm::new())),
    ] {
        let mut group = c.benchmark_group(name);
        group.sample_size(10);
        for (hosts, comps) in [(4, 16), (8, 40), (12, 80)] {
            let (model, initial) = instance(hosts, comps);
            group.bench_with_input(
                BenchmarkId::from_parameter(format!("{hosts}x{comps}")),
                &(model, initial),
                |b, (model, initial)| {
                    b.iter(|| {
                        algo.run(model, &Availability, model.constraints(), Some(initial))
                            .unwrap()
                    })
                },
            );
        }
        group.finish();
    }
}

/// Dense vs opaque scoring on the same body, for the two mutation-driven
/// searches the compiled core was built for. `Uncompiled` hides
/// `Objective::compiled`, so the body scores every candidate with a
/// from-scratch `evaluate` instead of a dense delta.
fn bench_dense_vs_opaque(c: &mut Criterion) {
    let (model, initial) = instance(8, 32);

    let mut group = c.benchmark_group("annealing_8x32");
    group.sample_size(10);
    let annealing = AnnealingAlgorithm::with_config(AnnealingConfig {
        iterations: 2_000,
        ..AnnealingConfig::default()
    });
    group.bench_function("dense", |b| {
        b.iter(|| {
            annealing
                .run(&model, &Availability, model.constraints(), Some(&initial))
                .unwrap()
        })
    });
    group.bench_function("opaque", |b| {
        b.iter(|| {
            annealing
                .run(
                    &model,
                    &Uncompiled(&Availability),
                    model.constraints(),
                    Some(&initial),
                )
                .unwrap()
        })
    });
    group.finish();

    let mut group = c.benchmark_group("genetic_8x32");
    group.sample_size(10);
    let genetic = GeneticAlgorithm::with_config(GeneticConfig {
        generations: 20,
        ..GeneticConfig::default()
    });
    group.bench_function("dense", |b| {
        b.iter(|| {
            genetic
                .run(&model, &Availability, model.constraints(), Some(&initial))
                .unwrap()
        })
    });
    group.bench_function("opaque", |b| {
        b.iter(|| {
            genetic
                .run(
                    &model,
                    &Uncompiled(&Availability),
                    model.constraints(),
                    Some(&initial),
                )
                .unwrap()
        })
    });
    group.finish();
}

/// Regression guard for the avala hot loop: the greedy placement used to
/// rescan the whole assignment matrix for admissibility on every candidate
/// (accidentally cubic); this pins the fixed incremental-load path, flat vs
/// hierarchical, at the E3d gate size so the rescan cannot creep back in.
fn bench_avala_hot_loop(c: &mut Criterion) {
    let (model, initial) = instance(20, 160);
    let mut group = c.benchmark_group("avala_20x160");
    group.sample_size(10);
    let flat = AvalaAlgorithm::new();
    group.bench_function("flat", |b| {
        b.iter(|| {
            flat.run(&model, &Availability, model.constraints(), Some(&initial))
                .unwrap()
        })
    });
    let hier = AvalaAlgorithm::new().with_hierarchy(HierarchicalConfig::default());
    group.bench_function("hierarchical", |b| {
        b.iter(|| {
            hier.run(&model, &Availability, model.constraints(), Some(&initial))
                .unwrap()
        })
    });
    group.finish();
}

/// The E3d 200×2000 system.
fn sparse_200x2000() -> GeneratedSystem {
    Generator::generate(&GeneratorConfig::sparse(200, 2000).with_seed(5)).unwrap()
}

/// Generating the E3d 200×2000 system: the keystream, the density pass,
/// the bulk link build and the first-fit start with its compile (E3d
/// records the same call at both scales as `e3d.<size>.generate_secs`).
fn bench_generate(c: &mut Criterion) {
    let mut group = c.benchmark_group("generate");
    group.sample_size(10);
    group.bench_function("sparse_200x2000", |b| b.iter(sparse_200x2000));
    group.finish();
}

/// Regression guard for the monitoring exchange around the auctions: with
/// per-cell visibility and a gossip pass every round this solve took
/// ~110 ms, three quarters of it outside the auctions; with bitset views
/// that stop exchanging at their fixed point it took ~30 ms. It is E3d's
/// 200×2000 decap-h cell, whose wall time `BENCH_algorithms.json` records
/// as `e3d.decap.200x2000.wall_ms`.
fn bench_decap_h(c: &mut Criterion) {
    let system = sparse_200x2000();
    let model = &system.model;
    let decap = DecApAlgorithm::new()
        .with_hierarchy(HierarchicalConfig::default())
        .with_exchange(MonitoringExchange::Gossip { hops: 1 });
    let mut group = c.benchmark_group("decap_h_200x2000");
    group.sample_size(10);
    group.bench_function("gossip_1_hop", |b| {
        b.iter(|| {
            decap
                .run(
                    model,
                    &Availability,
                    model.constraints(),
                    Some(&system.initial),
                )
                .unwrap()
        })
    });
    group.finish();
}

/// One component's whole frontier priced in a batch vs host by host — the
/// same kernel, the same results; the batch gathers the incident links and
/// their current contributions once instead of once per candidate.
fn bench_peek_many_vs_peek(c: &mut Criterion) {
    let system = sparse_200x2000();
    let cm = CompiledModel::compile(&system.model);
    let objective = CompiledObjective::single(PartKind::Availability);
    let mut score = IncrementalScore::new(&cm, &objective);
    score.assign_from(&cm.compile_assignment(&system.initial));
    // Each component's polish frontier: the hosts of its neighbours.
    let frontiers: Vec<Vec<u32>> = (0..cm.n_comps() as u32)
        .map(|ci| {
            let mut hosts: Vec<u32> = cm
                .incident(ci)
                .iter()
                .map(|&li| score.assignment()[cm.links()[li as usize].other(ci) as usize])
                .collect();
            hosts.sort_unstable();
            hosts.dedup();
            hosts
        })
        .collect();
    let mut group = c.benchmark_group("peek_many_vs_peek");
    group.sample_size(10);
    group.bench_function(BenchmarkId::new("peek", "200x2000"), |b| {
        b.iter(|| {
            let mut sum = 0.0;
            for (ci, hosts) in frontiers.iter().enumerate() {
                for &h in hosts {
                    sum += score.peek(ci as u32, h);
                }
            }
            sum
        })
    });
    let mut priced = Vec::new();
    group.bench_function(BenchmarkId::new("peek_many", "200x2000"), |b| {
        b.iter(|| {
            let mut sum = 0.0;
            for (ci, hosts) in frontiers.iter().enumerate() {
                score.peek_many(ci as u32, hosts, &mut priced);
                sum += priced.iter().sum::<f64>();
            }
            sum
        })
    });
    group.finish();
}

/// The kernel's two shapes at the E3d 1000×10000 scale, each component
/// priced once per iteration. `polish` prices each component's fine
/// frontier (the hosts its neighbours sit on, as the global polish does)
/// over the 8 MB host matrices; `coarse` prices every one of the 32
/// clusters for each component on the coarse model, as the coarse
/// descent does. Divide by the links priced per iteration (Σ over
/// components of incident links × candidates) for ns per priced link.
fn bench_peek_many_shapes(c: &mut Criterion) {
    let system = Generator::generate(&GeneratorConfig::sparse(1000, 10_000).with_seed(6)).unwrap();
    let cm = CompiledModel::compile(&system.model);
    let objective = CompiledObjective::single(PartKind::Availability);
    let assign = cm.compile_assignment(&system.initial);
    let hier = Hierarchy::build(&cm, &HierarchyConfig::default());
    let coarse = hier.coarse_model(&cm);
    let clusters: Vec<u32> = assign.iter().map(|&h| hier.cluster_of(h)).collect();
    let every_cluster: Vec<u32> = (0..hier.n_clusters() as u32).collect();

    let mut fine = IncrementalScore::new(&cm, &objective);
    fine.assign_from(&assign);
    let frontiers: Vec<Vec<u32>> = (0..cm.n_comps() as u32)
        .map(|ci| {
            let mut hosts: Vec<u32> = cm
                .incident(ci)
                .iter()
                .map(|&li| assign[cm.links()[li as usize].other(ci) as usize])
                .filter(|&h| h != assign[ci as usize])
                .collect();
            hosts.sort_unstable();
            hosts.dedup();
            hosts
        })
        .collect();
    let mut coarse_score = IncrementalScore::new(&coarse, &objective);
    coarse_score.assign_from(&clusters);

    let mut group = c.benchmark_group("peek_many");
    group.sample_size(10);
    let mut priced = Vec::new();
    group.bench_function("polish_1000x10000", |b| {
        b.iter(|| {
            let mut sum = 0.0;
            for (ci, hosts) in frontiers.iter().enumerate() {
                fine.peek_many(ci as u32, hosts, &mut priced);
                sum += priced.iter().sum::<f64>();
            }
            sum
        })
    });
    group.bench_function("coarse_1000x10000", |b| {
        b.iter(|| {
            let mut sum = 0.0;
            for ci in 0..coarse.n_comps() as u32 {
                coarse_score.peek_many(ci, &every_cluster, &mut priced);
                sum += priced.iter().sum::<f64>();
            }
            sum
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_exact,
    bench_approximative,
    bench_dense_vs_opaque,
    bench_avala_hot_loop,
    bench_generate,
    bench_decap_h,
    bench_peek_many_vs_peek,
    bench_peek_many_shapes
);
criterion_main!(benches);
