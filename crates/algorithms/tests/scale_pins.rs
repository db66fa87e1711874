//! Golden pins for the three flat search bodies at 8×32 and the four
//! hierarchical algorithms at 200×2000.
//!
//! The hierarchical pins were recorded on the commit *before* DecAp's
//! awareness became a bitset and the refinement loops moved to
//! `IncrementalScore::peek_many`: those are pure speed changes, so value,
//! evaluation counters and round count must stay exactly what they were.
//! The system and the configurations are the `place-scale` benchmark's
//! (`GeneratorConfig::sparse(200, 2000)`, seed 11 → generator seed 176, two
//! threads). The flat pins use E3c's system and configurations
//! (`GeneratorConfig::sized(8, 32)`, seed 3).

use redep_algorithms::annealing::AnnealingConfig;
use redep_algorithms::genetic::GeneticConfig;
use redep_algorithms::{
    AnnealingAlgorithm, AvalaAlgorithm, DecApAlgorithm, GeneticAlgorithm, HierarchicalConfig,
    MonitoringExchange, RedeploymentAlgorithm, StochasticAlgorithm,
};
use redep_model::{Availability, ConstraintChecker, Generator, GeneratorConfig};

/// `(length, FNV-1a 64)` of a convergence trace, hashing each point's
/// evaluation count and then its value bits, little-endian.
fn trace_digest(trace: &[(u64, f64)]) -> (usize, u64) {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &(evals, value) in trace {
        for b in evals
            .to_le_bytes()
            .into_iter()
            .chain(value.to_bits().to_le_bytes())
        {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    (trace.len(), h)
}

#[test]
fn flat_results_at_8x32_are_pinned() {
    let system = Generator::generate(&GeneratorConfig::sized(8, 32).with_seed(3)).unwrap();
    let pin = |algo: &dyn RedeploymentAlgorithm,
               value: f64,
               evaluations,
               full,
               delta,
               trace: (usize, u64)| {
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
        assert_eq!(r.evaluations, evaluations, "{name} evaluations");
        assert_eq!(r.full_evaluations, full, "{name} full evaluations");
        assert_eq!(r.delta_evaluations, delta, "{name} delta evaluations");
        let got = trace_digest(&r.convergence);
        assert_eq!(got, trace, "{name} trace: ({}, {:#x})", got.0, got.1);
    };
    pin(
        &StochasticAlgorithm::with_config(20, 0),
        0.7730916446724375,
        20,
        20,
        0,
        (5, 0x632995daeb46d45d),
    );
    pin(
        &AnnealingAlgorithm::with_config(AnnealingConfig {
            iterations: 2_000,
            ..AnnealingConfig::default()
        }),
        0.7057999648285657,
        1710,
        29,
        3222,
        (29, 0xa1282a9571552afd),
    );
    pin(
        &GeneticAlgorithm::with_config(GeneticConfig {
            generations: 20,
            ..GeneticConfig::default()
        }),
        0.8059581341337064,
        731,
        731,
        0,
        (21, 0xa55302ba643d40cf),
    );
}

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
