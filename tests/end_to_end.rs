//! Cross-crate integration tests: the full framework pipeline on the
//! paper's scenario, exercised through the public facade.

use redep::framework::{
    AnalyzerConfig, CentralizedFramework, DecentralizedFramework, RuntimeConfig, Scenario,
    ScenarioConfig,
};
use redep::model::{Availability, Latency, Objective};
use redep::netsim::Duration;

fn scenario(seed: u64) -> Scenario {
    Scenario::build(&ScenarioConfig {
        commanders: 3,
        troops: 6,
        seed,
    })
    .unwrap()
}

#[test]
fn centralized_framework_improves_the_scenario() {
    let s = scenario(7);
    let before = Availability.evaluate(&s.model, &s.initial);
    let mut fw = CentralizedFramework::new(
        s.model.clone(),
        s.initial.clone(),
        &RuntimeConfig::default(),
        AnalyzerConfig::default(),
    )
    .unwrap();
    let mut accepted = 0;
    for _ in 0..10 {
        let report = fw
            .cycle(
                &Availability,
                Duration::from_secs_f64(5.0),
                Duration::from_secs_f64(120.0),
            )
            .unwrap();
        if report.decision.as_ref().is_some_and(|d| d.accepted) {
            assert!(report.redeployment_completed);
            accepted += 1;
        }
    }
    assert!(accepted >= 1, "the framework never redeployed");
    // The *actual running system* (not just the model) matches the adopted
    // deployment, and availability on the true model improved.
    let actual = fw.runtime().actual_deployment_by_id();
    assert_eq!(&actual, fw.desi().system().deployment());
    let after = Availability.evaluate(&s.model, &actual);
    assert!(
        after > before,
        "availability did not improve: {before:.4} -> {after:.4}"
    );
    // Constraints still hold on the effected deployment.
    use redep::model::ConstraintChecker;
    s.model.constraints().check(&s.model, &actual).unwrap();
}

#[test]
fn decentralized_framework_improves_without_a_master() {
    let s = scenario(13);
    let before = Availability.evaluate(&s.model, &s.initial);
    let mut fw = DecentralizedFramework::new(
        s.model.clone(),
        s.initial.clone(),
        &RuntimeConfig::default(),
    )
    .unwrap();
    for _ in 0..5 {
        fw.cycle(
            &Availability,
            Duration::from_secs_f64(5.0),
            Duration::from_secs_f64(120.0),
        )
        .unwrap();
    }
    let actual = fw.runtime().actual_deployment_by_id();
    let after = Availability.evaluate(&s.model, &actual);
    assert!(
        after >= before,
        "decentralized run regressed: {before:.4} -> {after:.4}"
    );
    // No host ever ran a deployer.
    for &h in fw.runtime().hosts() {
        assert!(!fw.runtime().host(h).unwrap().is_deployer());
    }
    use redep::model::ConstraintChecker;
    s.model.constraints().check(&s.model, &actual).unwrap();
}

#[test]
fn framework_survives_link_degradation_mid_run() {
    let s = scenario(3);
    let mut fw = CentralizedFramework::new(
        s.model,
        s.initial,
        &RuntimeConfig::default(),
        AnalyzerConfig::default(),
    )
    .unwrap();
    fw.cycle(
        &Availability,
        Duration::from_secs_f64(5.0),
        Duration::from_secs_f64(60.0),
    )
    .unwrap();
    // Degrade every troop link sharply mid-run.
    {
        let sim = fw.runtime_mut().sim_mut();
        let links: Vec<_> = sim.topology().links().map(|(p, l)| (p, l.spec)).collect();
        for (p, mut spec) in links {
            spec.reliability = (spec.reliability * 0.5).max(0.05);
            sim.set_link(p.lo(), p.hi(), spec);
        }
    }
    // The framework keeps cycling (monitors pick up the new reality).
    for _ in 0..6 {
        fw.cycle(
            &Availability,
            Duration::from_secs_f64(5.0),
            Duration::from_secs_f64(120.0),
        )
        .unwrap();
    }
    // Monitoring tracked the degradation: the model's mean link reliability
    // dropped below the scenario's optimistic initial values.
    let model = fw.desi().system().model();
    let mean_rel: f64 = model.physical_links().map(|l| l.reliability()).sum::<f64>()
        / model.physical_link_count() as f64;
    assert!(
        mean_rel < 0.75,
        "monitoring missed the degradation: mean reliability {mean_rel:.3}"
    );
}

#[test]
fn latency_objective_runs_through_the_whole_stack() {
    let s = scenario(5);
    let mut fw = CentralizedFramework::new(
        s.model,
        s.initial,
        &RuntimeConfig::default(),
        AnalyzerConfig {
            min_gain: -10.0, // availability gain not required when optimizing latency
            latency_guard: 1e9,
            latency_slack: 1e9,
            ..AnalyzerConfig::default()
        },
    )
    .unwrap();
    let before =
        Latency::new().evaluate(fw.desi().system().model(), fw.desi().system().deployment());
    for _ in 0..8 {
        fw.cycle(
            &Latency::new(),
            Duration::from_secs_f64(5.0),
            Duration::from_secs_f64(120.0),
        )
        .unwrap();
    }
    let after =
        Latency::new().evaluate(fw.desi().system().model(), fw.desi().system().deployment());
    assert!(
        after <= before * 1.05 + 1e-6,
        "latency got significantly worse: {before:.3} -> {after:.3}"
    );
}
