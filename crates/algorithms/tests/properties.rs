//! Property-based tests: every algorithm body upholds the
//! `RedeploymentAlgorithm` contract on arbitrary generated systems.

use proptest::prelude::*;
use redep_algorithms::hierarchy::HierarchicalConfig;
use redep_algorithms::{
    AnnealingAlgorithm, AvalaAlgorithm, DecApAlgorithm, ExactAlgorithm, GeneticAlgorithm,
    RedeploymentAlgorithm, StochasticAlgorithm,
};
use redep_model::{
    Availability, ConstraintChecker, Generator, GeneratorConfig, Latency, Objective, Range,
};

fn small_config() -> impl Strategy<Value = GeneratorConfig> {
    (2usize..=4, 2usize..=8, any::<u64>()).prop_map(|(hosts, components, seed)| GeneratorConfig {
        hosts,
        components,
        seed,
        host_memory: Range::new(500.0, 1_000.0),
        component_memory: Range::new(1.0, 20.0),
        ..GeneratorConfig::default()
    })
}

fn suite() -> Vec<Box<dyn RedeploymentAlgorithm>> {
    vec![
        Box::new(ExactAlgorithm::new()),
        Box::new(AvalaAlgorithm::new()),
        Box::new(StochasticAlgorithm::with_config(30, 0)),
        Box::new(GeneticAlgorithm::new()),
        Box::new(AnnealingAlgorithm::new()),
        Box::new(DecApAlgorithm::new()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_algorithm_returns_valid_never_worse_deployments(config in small_config()) {
        let system = Generator::generate(&config).unwrap();
        let before = Availability.evaluate(&system.model, &system.initial);
        for algo in suite() {
            let r = algo
                .run(&system.model, &Availability, system.model.constraints(), Some(&system.initial))
                .unwrap();
            // Contract 1: complete and constraint-satisfying.
            r.deployment.validate(&system.model).unwrap();
            system.model.constraints().check(&system.model, &r.deployment).unwrap();
            // Contract 2: the reported value IS the objective of the result.
            let actual = Availability.evaluate(&system.model, &r.deployment);
            prop_assert!((actual - r.value).abs() < 1e-9, "{}: reported {} actual {}", algo.name(), r.value, actual);
            // Contract 3: never worse than the running deployment.
            prop_assert!(r.value >= before - 1e-9, "{} regressed: {} < {}", algo.name(), r.value, before);
        }
    }

    #[test]
    fn exact_dominates_all_approximative_bodies(config in small_config()) {
        let system = Generator::generate(&config).unwrap();
        let optimal = ExactAlgorithm::new()
            .run(&system.model, &Availability, system.model.constraints(), Some(&system.initial))
            .unwrap()
            .value;
        for algo in suite() {
            let r = algo
                .run(&system.model, &Availability, system.model.constraints(), Some(&system.initial))
                .unwrap();
            prop_assert!(
                r.value <= optimal + 1e-9,
                "{} beat the exact optimum: {} > {}",
                algo.name(),
                r.value,
                optimal
            );
        }
    }

    #[test]
    fn objective_swap_is_respected(config in small_config()) {
        // Variation point 1: the same bodies minimize latency when asked.
        let system = Generator::generate(&config).unwrap();
        let before = Latency::new().evaluate(&system.model, &system.initial);
        for algo in suite() {
            let r = algo
                .run(&system.model, &Latency::new(), system.model.constraints(), Some(&system.initial))
                .unwrap();
            prop_assert!(
                r.value <= before + 1e-9,
                "{} raised latency: {} -> {}",
                algo.name(),
                before,
                r.value
            );
        }
    }

    #[test]
    fn hierarchical_bodies_are_thread_invariant(config in small_config()) {
        // The hierarchical engine's contract: per-cluster refinement shards
        // merge in shard order, so the AlgoResult is byte-identical at any
        // thread count — same deployment, same value, same counters, same
        // convergence trace. Only wall time may differ.
        let system = Generator::generate(&config).unwrap();
        let hier = |threads: usize| {
            let hcfg = HierarchicalConfig { threads };
            let algos: Vec<Box<dyn RedeploymentAlgorithm>> = vec![
                Box::new(AvalaAlgorithm::new().with_hierarchy(hcfg)),
                Box::new(StochasticAlgorithm::with_config(10, 0).with_hierarchy(hcfg)),
                Box::new(AnnealingAlgorithm::new().with_hierarchy(hcfg)),
                Box::new(DecApAlgorithm::new().with_hierarchy(hcfg)),
            ];
            algos
        };
        for (one, many) in hier(1).into_iter().zip(hier(8)) {
            let a = one
                .run(&system.model, &Availability, system.model.constraints(), Some(&system.initial))
                .unwrap();
            let b = many
                .run(&system.model, &Availability, system.model.constraints(), Some(&system.initial))
                .unwrap();
            prop_assert_eq!(&a.deployment, &b.deployment, "{}: deployment differs by threads", one.name());
            prop_assert_eq!(a.value, b.value, "{}: value differs by threads", one.name());
            prop_assert_eq!(a.evaluations, b.evaluations, "{}: evaluations differ by threads", one.name());
            prop_assert_eq!(a.pruned_evaluations, b.pruned_evaluations, "{}: pruned differ by threads", one.name());
            prop_assert_eq!(a.hierarchy_clusters, b.hierarchy_clusters, "{}: clusters differ by threads", one.name());
            prop_assert_eq!(a.refine_rounds, b.refine_rounds, "{}: rounds differ by threads", one.name());
            prop_assert_eq!(&a.convergence, &b.convergence, "{}: convergence differs by threads", one.name());
        }
    }

    #[test]
    fn deterministic_bodies_reproduce(config in small_config()) {
        let system = Generator::generate(&config).unwrap();
        for algo in suite() {
            let a = algo
                .run(&system.model, &Availability, system.model.constraints(), Some(&system.initial))
                .unwrap();
            let b = algo
                .run(&system.model, &Availability, system.model.constraints(), Some(&system.initial))
                .unwrap();
            prop_assert_eq!(a.deployment, b.deployment, "{} is nondeterministic", algo.name());
        }
    }
}
