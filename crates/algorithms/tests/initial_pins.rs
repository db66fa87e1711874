//! Golden pins for how flat DecAp, decap-h and flat annealing treat the
//! initial deployment they are handed.
//!
//! Each body first decides whether `initial` is a valid starting point (and
//! the baseline guard decides again whether it is a valid answer). Five
//! initial deployments of one generated 4×12 system probe that decision:
//! a feasible one, one over a host's memory, one missing a component, one
//! naming a component the model does not have, and one placing a component
//! on a host outside the model. Each pin is the FNV-1a hash of the run's
//! `Debug` output with `wall_time` zeroed: placement, value, trace and every
//! counter, or the error.

use redep_algorithms::{
    AnnealingAlgorithm, DecApAlgorithm, HierarchicalConfig, RedeploymentAlgorithm,
};
use redep_model::{
    Availability, ComponentId, ConstraintChecker, ConstraintViolation, Deployment, GeneratedSystem,
    Generator, GeneratorConfig, HostId,
};
use std::time::Duration;

/// FNV-1a 64 of a byte stream.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The five initial deployments, by name.
fn initials(system: &GeneratedSystem) -> Vec<(&'static str, Deployment)> {
    let model = &system.model;
    let feasible = system.initial.clone();
    let first = model.component_ids()[0];
    let host = model.host_ids()[0];

    let mut over_memory = Deployment::new();
    for c in model.component_ids() {
        over_memory.assign(c, host);
    }
    let mut missing = feasible.clone();
    missing.unassign(first);
    let mut unknown_component = feasible.clone();
    unknown_component.assign(ComponentId::new(9_999), host);
    let mut outside_host = feasible.clone();
    outside_host.assign(first, HostId::new(9_999));

    let check = |d: &Deployment| model.constraints().check(model, d);
    assert!(check(&feasible).is_ok());
    assert!(matches!(
        check(&over_memory),
        Err(ConstraintViolation::Memory { .. })
    ));
    assert!(matches!(
        check(&missing),
        Err(ConstraintViolation::Unassigned { .. })
    ));
    assert!(check(&unknown_component).is_ok());
    assert!(check(&outside_host).is_err());
    vec![
        ("feasible", feasible),
        ("over_memory", over_memory),
        ("missing", missing),
        ("unknown_component", unknown_component),
        ("outside_host", outside_host),
    ]
}

/// FNV-1a of the `Debug` of one run, `wall_time` zeroed.
fn pin(algo: &dyn RedeploymentAlgorithm, system: &GeneratedSystem, initial: &Deployment) -> u64 {
    let mut r = algo.run(
        &system.model,
        &Availability,
        system.model.constraints(),
        Some(initial),
    );
    if let Ok(r) = &mut r {
        r.wall_time = Duration::ZERO;
    }
    fnv1a(format!("{r:?}").as_bytes())
}

#[test]
fn initial_deployments_are_pinned() {
    let system = Generator::generate(&GeneratorConfig::sized(4, 12).with_seed(7)).unwrap();
    let decap = DecApAlgorithm::new();
    let decap_h = DecApAlgorithm::new().with_hierarchy(HierarchicalConfig { threads: 2 });
    let annealing = AnnealingAlgorithm::new();
    let algos: [(&str, &dyn RedeploymentAlgorithm); 3] = [
        ("decap", &decap),
        ("decap-h", &decap_h),
        ("annealing", &annealing),
    ];
    let mut got = Vec::new();
    for (name, initial) in initials(&system) {
        for (algo, run) in algos {
            got.push((name, algo, pin(run, &system, &initial)));
        }
    }
    let want = vec![
        ("feasible", "decap", 5_620_423_363_258_474_464),
        ("feasible", "decap-h", 13_528_432_189_823_241_026),
        ("feasible", "annealing", 10_381_859_735_999_594_093),
        ("over_memory", "decap", 11_496_401_339_889_779_443),
        ("over_memory", "decap-h", 14_383_090_713_044_316_385),
        ("over_memory", "annealing", 16_846_238_610_017_485_845),
        ("missing", "decap", 11_496_401_339_889_779_443),
        ("missing", "decap-h", 14_383_090_713_044_316_385),
        ("missing", "annealing", 16_846_238_610_017_485_845),
        ("unknown_component", "decap", 7_406_647_403_736_869_103),
        ("unknown_component", "decap-h", 13_528_432_189_823_241_026),
        ("unknown_component", "annealing", 10_381_859_735_999_594_093),
        ("outside_host", "decap", 11_496_401_339_889_779_443),
        ("outside_host", "decap-h", 14_383_090_713_044_316_385),
        ("outside_host", "annealing", 16_846_238_610_017_485_845),
    ];
    assert_eq!(got, want);
}
