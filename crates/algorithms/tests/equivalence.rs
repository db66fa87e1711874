//! Dense-vs-opaque equivalence across all six algorithm bodies.
//!
//! Each algorithm has one body. It scores and checks through dense forms
//! when the objective and the constraint checker provide them
//! ([`Objective::compiled`], [`ConstraintChecker::compile`]) and through
//! the trait objects on the decoded assignment when they do not. Every
//! combination must produce the same deployment, the same value (within
//! 1e-12) and the same evaluation count as the all-dense run; the naive
//! `evaluate` / `check` / `admits` implementations are the reference the
//! dense forms are held to, exercised here through the single body.
//!
//! The objective half is hidden with [`redep_model::Uncompiled`] or replaced
//! by a custom objective defined here; the checker half is hidden with
//! `Uncompiled` too.

use redep_algorithms::annealing::AnnealingConfig;
use redep_algorithms::genetic::GeneticConfig;
use redep_algorithms::{
    AlgoResult, AnnealingAlgorithm, AvalaAlgorithm, DecApAlgorithm, ExactAlgorithm,
    GeneticAlgorithm, HierarchicalConfig, MonitoringExchange, RedeploymentAlgorithm,
    StochasticAlgorithm,
};
use redep_model::{
    Availability, AwarenessGraph, CommunicationVolume, Composite, ConstraintChecker, Deployment,
    DeploymentModel, Direction, Generator, GeneratorConfig, Latency, LinkSecurity, Objective,
    PathAwareAvailability, Uncompiled,
};

/// A custom objective with no dense form: total traffic between components
/// on different hosts (an unplaced endpoint counts as remote). Written
/// against the public model API only; numerically it is
/// [`CommunicationVolume`], which serves as its all-dense reference.
#[derive(Debug)]
struct RemoteTraffic;

impl Objective for RemoteTraffic {
    fn name(&self) -> &str {
        "remote traffic"
    }

    fn direction(&self) -> Direction {
        Direction::Minimize
    }

    fn evaluate(&self, model: &DeploymentModel, deployment: &Deployment) -> f64 {
        model
            .logical_links()
            .filter(|l| !deployment.collocated(l.ends().lo(), l.ends().hi()))
            .map(|l| l.frequency() * l.event_size())
            .sum()
    }
}

fn generated(hosts: usize, comps: usize, seed: u64) -> (DeploymentModel, Deployment) {
    let s = Generator::generate(&GeneratorConfig::sized(hosts, comps).with_seed(seed)).unwrap();
    (s.model, s.initial)
}

type Algo = (&'static str, Box<dyn RedeploymentAlgorithm>);

fn stochastic() -> StochasticAlgorithm {
    StochasticAlgorithm::with_config(40, 9)
}

fn annealing() -> AnnealingAlgorithm {
    AnnealingAlgorithm::with_config(AnnealingConfig {
        iterations: 600,
        seed: 5,
    })
}

/// DecAp over a sparse awareness graph that gossip widens between rounds.
fn gossiping_decap(model: &DeploymentModel) -> DecApAlgorithm {
    DecApAlgorithm::new()
        .with_awareness(AwarenessGraph::random(&model.host_ids(), 0.4, 1))
        .with_exchange(MonitoringExchange::Gossip { hops: 1 })
}

fn algorithms(model: &DeploymentModel, small: bool) -> Vec<Algo> {
    let mut algos: Vec<Algo> = vec![
        ("stochastic", Box::new(stochastic())),
        ("avala", Box::new(AvalaAlgorithm::new())),
        ("decap", Box::new(DecApAlgorithm::new())),
        ("decap+gossip", Box::new(gossiping_decap(model))),
        ("annealing", Box::new(annealing())),
        (
            "genetic",
            Box::new(GeneticAlgorithm::with_config(GeneticConfig {
                generations: 8,
                seed: 5,
            })),
        ),
    ];
    if small {
        algos.push(("exact", Box::new(ExactAlgorithm::new())));
    }
    algos
}

/// Each flat algorithm that has an `-h` variant, paired with that variant.
fn hierarchical_pairs(model: &DeploymentModel) -> Vec<(Algo, Algo)> {
    let h = HierarchicalConfig::default();
    vec![
        (
            ("stochastic", Box::new(stochastic())),
            ("stochastic-h", Box::new(stochastic().with_hierarchy(h))),
        ),
        (
            ("avala", Box::new(AvalaAlgorithm::new())),
            ("avala-h", Box::new(AvalaAlgorithm::new().with_hierarchy(h))),
        ),
        (
            ("decap", Box::new(gossiping_decap(model))),
            (
                "decap-h",
                Box::new(gossiping_decap(model).with_hierarchy(h)),
            ),
        ),
        (
            ("annealing", Box::new(annealing())),
            ("annealing-h", Box::new(annealing().with_hierarchy(h))),
        ),
    ]
}

fn assert_same(label: &str, reference: &AlgoResult, other: &AlgoResult) {
    assert_eq!(
        reference.deployment, other.deployment,
        "{label}: deployments diverge"
    );
    assert!(
        (reference.value - other.value).abs() <= 1e-12 * reference.value.abs().max(1.0),
        "{label}: {} vs {}",
        reference.value,
        other.value
    );
    assert_eq!(
        reference.evaluations, other.evaluations,
        "{label}: evaluation counts diverge"
    );
}

/// Runs `algo` all-dense on `dense`, then with each half (and both) of the
/// inputs opaque — `opaque` standing in for the objective — and requires
/// identical outcomes.
fn check_algo(
    name: &str,
    algo: &dyn RedeploymentAlgorithm,
    model: &DeploymentModel,
    initial: &Deployment,
    dense: &dyn Objective,
    opaque: &dyn Objective,
) {
    assert!(dense.compiled().is_some() && opaque.compiled().is_none());
    let checker = model.constraints();
    let hidden = Uncompiled(checker);
    let reference = algo.run(model, dense, checker, Some(initial)).unwrap();

    let modes: [(&str, &dyn Objective, &dyn ConstraintChecker); 3] = [
        ("opaque objective", opaque, checker),
        ("opaque checker", dense, &hidden),
        ("both opaque", opaque, &hidden),
    ];
    for (mode, objective, constraints) in modes {
        let r = algo
            .run(model, objective, constraints, Some(initial))
            .unwrap();
        assert_same(&format!("{name}/{}/{mode}", dense.name()), &reference, &r);
        if objective.compiled().is_none() {
            // An opaque objective is never delta-scored.
            assert_eq!(r.delta_evaluations, 0, "{name}/{mode}");
            assert!(r.full_evaluations >= r.evaluations, "{name}/{mode}");
        }
    }
}

fn check_equivalence(
    model: &DeploymentModel,
    initial: &Deployment,
    objective: &dyn Objective,
    small: bool,
) {
    for (name, algo) in algorithms(model, small) {
        check_algo(
            name,
            algo.as_ref(),
            model,
            initial,
            objective,
            &Uncompiled(objective),
        );
    }
}

#[test]
fn all_six_bodies_agree_on_availability_small_instance() {
    for seed in [11, 17] {
        let (m, init) = generated(3, 6, seed);
        check_equivalence(&m, &init, &Availability, true);
    }
}

#[test]
fn approximative_bodies_agree_on_availability_medium_instance() {
    let (m, init) = generated(6, 18, 12);
    check_equivalence(&m, &init, &Availability, false);
    for seed in 1..=5 {
        let (m, init) = generated(4, 12, seed);
        check_equivalence(&m, &init, &Availability, false);
        let (m, init) = generated(5, 15, seed);
        check_equivalence(&m, &init, &Availability, false);
    }
}

#[test]
fn all_six_bodies_agree_on_every_single_objective() {
    let (m, init) = generated(3, 5, 13);
    check_equivalence(&m, &init, &Availability, true);
    check_equivalence(&m, &init, &PathAwareAvailability, true);
    check_equivalence(&m, &init, &Latency::new(), true);
    check_equivalence(&m, &init, &CommunicationVolume, true);
    check_equivalence(&m, &init, &LinkSecurity, true);
}

#[test]
fn all_six_bodies_agree_on_a_weighted_composite() {
    let (m, init) = generated(3, 5, 14);
    let composite = Composite::new()
        .with("availability", Availability, 2.0)
        .with("latency", Latency::new(), 1.0)
        .with("security", LinkSecurity, 0.5);
    check_equivalence(&m, &init, &composite, true);
}

#[test]
fn all_six_bodies_agree_on_a_custom_objective() {
    for (hosts, comps, seed, small) in [(3, 6, 21, true), (5, 15, 22, false)] {
        let (m, init) = generated(hosts, comps, seed);
        for (name, algo) in algorithms(&m, small) {
            check_algo(
                name,
                algo.as_ref(),
                &m,
                &init,
                &CommunicationVolume,
                &RemoteTraffic,
            );
        }
    }
}

#[test]
fn all_six_bodies_agree_on_a_nested_composite() {
    // A composite inside a composite has no dense form. Power-of-two
    // weights make the flattened twin bit-identical:
    // ½·(½·a + ½·l) + ½·s = ¼·a + ¼·l + ½·s.
    let nested = Composite::new()
        .with(
            "service",
            Composite::new()
                .with("availability", Availability, 0.5)
                .with("latency", Latency::new(), 0.5),
            0.5,
        )
        .with("security", LinkSecurity, 0.5);
    let flat = Composite::new()
        .with("availability", Availability, 0.25)
        .with("latency", Latency::new(), 0.25)
        .with("security", LinkSecurity, 0.5);
    let (m, init) = generated(3, 6, 23);
    for (name, algo) in algorithms(&m, true) {
        check_algo(name, algo.as_ref(), &m, &init, &flat, &nested);
    }
}

#[test]
fn hierarchical_variants_run_and_report_the_flat_body_on_opaque_inputs() {
    let (m, init) = generated(12, 40, 24);
    let checker = m.constraints();
    let hidden = Uncompiled(checker);
    let opaque = Uncompiled(&Availability);
    for ((flat_name, flat), (hier_name, hier)) in hierarchical_pairs(&m) {
        let dense = hier.run(&m, &Availability, checker, Some(&init)).unwrap();
        assert_eq!(dense.algorithm, hier_name);
        assert!(dense.hierarchy_clusters > 0, "{hier_name}");

        let reference = flat.run(&m, &Availability, checker, Some(&init)).unwrap();
        assert_eq!(reference.algorithm, flat_name);
        let modes: [(&str, &dyn Objective, &dyn ConstraintChecker); 3] = [
            ("opaque objective", &opaque, checker),
            ("opaque checker", &Availability, &hidden),
            ("both opaque", &opaque, &hidden),
        ];
        for (mode, objective, constraints) in modes {
            let r = hier.run(&m, objective, constraints, Some(&init)).unwrap();
            assert_eq!(r.algorithm, flat_name, "{hier_name}/{mode}");
            assert_eq!(r.hierarchy_clusters, 0, "{hier_name}/{mode}");
            assert_same(&format!("{hier_name}/{mode}"), &reference, &r);
        }
    }
}

#[test]
fn compiled_paths_actually_use_delta_scoring() {
    // Guard against silently scoring through the opaque adapter: the three
    // move-based searches must report delta evaluations on dense inputs.
    let (m, init) = generated(4, 10, 15);
    let exact = ExactAlgorithm::new()
        .run(&m, &Availability, m.constraints(), Some(&init))
        .unwrap();
    assert!(exact.delta_evaluations > 0, "exact scored opaquely");
    let annealing = AnnealingAlgorithm::with_config(AnnealingConfig {
        iterations: 300,
        ..AnnealingConfig::default()
    })
    .run(&m, &Availability, m.constraints(), Some(&init))
    .unwrap();
    assert!(annealing.delta_evaluations > 0, "annealing scored opaquely");
    let avala = AvalaAlgorithm::new()
        .run(&m, &Availability, m.constraints(), Some(&init))
        .unwrap();
    assert!(avala.delta_evaluations > 0, "avala scored opaquely");
}
