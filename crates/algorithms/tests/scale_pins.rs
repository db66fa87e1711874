//! Golden pins for the four hierarchical algorithms at 200×2000.
//!
//! Recorded on the commit *before* DecAp's awareness became a bitset and
//! the refinement loops moved to `IncrementalScore::peek_many`: those are
//! pure speed changes, so value, evaluation counters and round count must
//! stay exactly what they were. The system and the configurations are the
//! `place-scale` benchmark's (`GeneratorConfig::sparse(200, 2000)`, seed 11 → generator seed
//! 176, two threads).

use redep_algorithms::annealing::AnnealingConfig;
use redep_algorithms::{
    AnnealingAlgorithm, AvalaAlgorithm, DecApAlgorithm, HierarchicalConfig, MonitoringExchange,
    RedeploymentAlgorithm, StochasticAlgorithm,
};
use redep_model::{Availability, ConstraintChecker, Generator, GeneratorConfig};

#[test]
fn hierarchical_results_at_200x2000_are_pinned() {
    let system = Generator::generate(&GeneratorConfig::sparse(200, 2000).with_seed(176)).unwrap();
    let pin = |algo: &dyn RedeploymentAlgorithm, value: f64, full, delta, rounds| {
        let r = algo
            .run(
                &system.model,
                &Availability,
                system.model.constraints(),
                Some(&system.initial),
            )
            .unwrap();
        let name = &r.algorithm;
        system
            .model
            .constraints()
            .check(&system.model, &r.deployment)
            .unwrap();
        assert_eq!(r.value.to_bits(), value.to_bits(), "{name}: {}", r.value);
        assert_eq!(r.full_evaluations, full, "{name} full evaluations");
        assert_eq!(r.delta_evaluations, delta, "{name} delta evaluations");
        if let Some(rounds) = rounds {
            assert_eq!(r.refine_rounds, rounds, "{name} rounds");
        }
    };
    let hierarchy = HierarchicalConfig {
        threads: 2,
        ..HierarchicalConfig::default()
    };
    pin(
        &AvalaAlgorithm::new().with_hierarchy(hierarchy),
        0.22531666823114013,
        2,
        43745,
        None,
    );
    pin(
        &StochasticAlgorithm::with_config(20, 0).with_hierarchy(hierarchy),
        0.2199010562747146,
        18,
        45308,
        None,
    );
    pin(
        &AnnealingAlgorithm::with_config(AnnealingConfig {
            iterations: 2_000,
            ..AnnealingConfig::default()
        })
        .with_hierarchy(hierarchy),
        0.2400868038099862,
        4,
        96025,
        None,
    );
    pin(
        &DecApAlgorithm::new()
            .with_hierarchy(hierarchy)
            .with_exchange(MonitoringExchange::Gossip { hops: 1 }),
        0.27504157768906595,
        11,
        5320,
        Some(10),
    );
}
