//! Golden pins for the three flat search bodies and flat DecAp at 8×32, and
//! the four hierarchical algorithms at 200×2000.
//!
//! The hierarchical pins were recorded on the commit *before* DecAp's
//! awareness became a bitset and the refinement loops moved to
//! `IncrementalScore::peek_many`: those are pure speed changes, so value,
//! evaluation counters and round count must stay exactly what they were.
//! The system and the configurations are the `place-scale` benchmark's
//! (`GeneratorConfig::sparse(200, 2000)`, seed 11 → generator seed 176, two
//! threads). The flat pins use E3c's system and configurations
//! (`GeneratorConfig::sized(8, 32)`, seed 3).
//!
//! The DecAp pins hold the whole outcome of a solve — placement, trace and
//! every counter — under default, gossiped and hand-thinned awareness, so a
//! change to how bids are gathered cannot move a single auction unseen.

use redep_algorithms::annealing::AnnealingConfig;
use redep_algorithms::genetic::GeneticConfig;
use redep_algorithms::AlgoResult;
use redep_algorithms::{
    AnnealingAlgorithm, AvalaAlgorithm, DecApAlgorithm, GeneticAlgorithm, HierarchicalConfig,
    MonitoringExchange, RedeploymentAlgorithm, StochasticAlgorithm,
};
use redep_model::{
    Availability, AwarenessGraph, ConstraintChecker, Deployment, GeneratedSystem, Generator,
    GeneratorConfig,
};

/// FNV-1a 64 of a byte stream.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// `(length, FNV-1a 64)` of a convergence trace, hashing each point's
/// evaluation count and then its value bits, little-endian.
fn trace_digest(trace: &[(u64, f64)]) -> (usize, u64) {
    let bytes = trace.iter().flat_map(|&(evals, value)| {
        evals
            .to_le_bytes()
            .into_iter()
            .chain(value.to_bits().to_le_bytes())
    });
    (trace.len(), fnv1a(bytes))
}

/// `(length, FNV-1a 64)` of a placement, hashing each `(component, host)`
/// pair's raw ids in component order, little-endian.
fn placement_digest(deployment: &Deployment) -> (usize, u64) {
    let bytes = deployment.iter().flat_map(|(c, h)| {
        c.raw()
            .to_le_bytes()
            .into_iter()
            .chain(h.raw().to_le_bytes())
    });
    (deployment.len(), fnv1a(bytes))
}

/// What a DecAp pin holds of one solve: the value's bits, every counter,
/// and digests of the placement and the convergence trace.
#[derive(PartialEq, Debug)]
struct Outcome {
    value_bits: u64,
    evaluations: u64,
    full: u64,
    delta: u64,
    pruned: u64,
    rounds: u64,
    placement: (usize, u64),
    trace: (usize, u64),
}

/// Solves `system` from its initial deployment, checks the result is
/// constraint-valid, and returns what a pin holds of it.
fn outcome(algo: &dyn RedeploymentAlgorithm, system: &GeneratedSystem) -> Outcome {
    let r = algo
        .run(
            &system.model,
            &Availability,
            system.model.constraints(),
            Some(&system.initial),
        )
        .unwrap();
    system
        .model
        .constraints()
        .check(&system.model, &r.deployment)
        .unwrap();
    Outcome {
        value_bits: r.value.to_bits(),
        evaluations: r.evaluations,
        full: r.full_evaluations,
        delta: r.delta_evaluations,
        pruned: r.pruned_evaluations,
        rounds: r.refine_rounds,
        placement: placement_digest(&r.deployment),
        trace: trace_digest(&r.convergence),
    }
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
    let pin = |algo: &dyn RedeploymentAlgorithm, value: f64, full, delta, rounds| -> AlgoResult {
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
        r
    };
    let hierarchy = HierarchicalConfig { threads: 2 };
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
    let decap = pin(
        &DecApAlgorithm::new()
            .with_hierarchy(hierarchy)
            .with_exchange(MonitoringExchange::Gossip { hops: 1 }),
        0.27504157768906595,
        11,
        5320,
        Some(10),
    );
    assert_eq!(
        (
            decap.pruned_evaluations,
            placement_digest(&decap.deployment),
            trace_digest(&decap.convergence),
        ),
        (
            269_998,
            (2000, 0xd69fdef064e1a975),
            (11, 0xb0c0315cbcb1b362)
        ),
        "decap-h pruned evaluations, placement and trace"
    );
}

#[test]
fn flat_decap_at_8x32_is_pinned() {
    let system = Generator::generate(&GeneratorConfig::sized(8, 32).with_seed(3)).unwrap();
    assert_eq!(
        outcome(&DecApAlgorithm::new(), &system),
        Outcome {
            value_bits: 0.6671150681615864f64.to_bits(),
            evaluations: 2,
            full: 2,
            delta: 0,
            pruned: 0,
            rounds: 0,
            placement: (32, 0xe0b4dfa63da39201),
            trace: (2, 0xb273e81eae008a0e),
        },
        "decap, awareness from connectivity"
    );
    assert_eq!(
        outcome(
            &DecApAlgorithm::new().with_exchange(MonitoringExchange::Gossip { hops: 1 }),
            &system
        ),
        Outcome {
            value_bits: 0.6671150681615864f64.to_bits(),
            evaluations: 2,
            full: 2,
            delta: 0,
            pruned: 0,
            rounds: 0,
            placement: (32, 0xe0b4dfa63da39201),
            trace: (2, 0xb273e81eae008a0e),
        },
        "decap, gossip one hop per round"
    );
}

#[test]
fn hierarchical_decap_under_thinned_awareness_is_pinned() {
    // Every host sees itself, but only the physical links whose endpoints'
    // ids sum to a number not divisible by three join two views, and no
    // exchange widens them: a bidder next to a partner's host often cannot
    // see that host, so the visibility masks decide which terms a bid sums.
    let system = Generator::generate(&GeneratorConfig::sparse(200, 2000).with_seed(176)).unwrap();
    let mut awareness = AwarenessGraph::isolated(system.model.host_ids());
    for link in system.model.physical_links() {
        let (a, b) = (link.ends().lo(), link.ends().hi());
        if (a.raw() + b.raw()) % 3 != 0 {
            awareness.connect(a, b);
        }
    }
    let algo = DecApAlgorithm::new()
        .with_awareness(awareness)
        .with_hierarchy(HierarchicalConfig { threads: 2 });
    assert_eq!(
        outcome(&algo, &system),
        Outcome {
            value_bits: 0.27595527548435883f64.to_bits(),
            evaluations: 11349,
            full: 11,
            delta: 11338,
            pruned: 2_412_019,
            rounds: 10,
            placement: (2000, 0xbe77ccf74cafa2dc),
            trace: (11, 0x591971c3b3bbc207),
        }
    );
}
