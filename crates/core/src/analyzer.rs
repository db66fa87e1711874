//! The centralized Analyzer: the meta-level component that decides *which*
//! algorithm to run, *whether* to accept its result, and *when* the system
//! is worth redeploying.
//!
//! The decision policy is the paper's §5.1:
//!
//! * **Size of the architecture** — "the Exact algorithm … due to its
//!   complexity … can only be used for architectures with very small
//!   numbers of hosts … and components. Therefore, for large architectures
//!   either of the other two algorithms is used."
//! * **Availability profile** — "the analyzer selects a more expensive
//!   algorithm to run if the system is stable … if the system is unstable,
//!   the analyzer runs a less expensive algorithm that could produce faster
//!   results."
//! * **Latency guard** — "in rare situations where [latency improvement] is
//!   not the case, the analyzer … disallows the results of the algorithms
//!   to take effect."

use crate::error::CoreError;
use redep_algorithms::ExactAlgorithm;
use redep_desi::{DeSi, RecordedResult};
use redep_model::{Availability, DeploymentModel, Latency, Objective};
use redep_prism::StabilityGauge;

/// Largest kⁿ search space the Exact algorithm may be given.
const EXACT_SPACE_LIMIT: u128 = 2_000_000;
/// ε of the availability-profile stability gauge.
const PROFILE_EPSILON: f64 = 0.05;
/// Consecutive stable differences required to call the system stable.
const PROFILE_STABLE_WINDOWS: usize = 2;

/// Tuning knobs of the centralized analyzer.
#[derive(Clone, PartialEq, Debug)]
pub struct AnalyzerConfig {
    /// Maximum tolerated *relative* latency increase of an accepted
    /// deployment (e.g. `0.25` = +25 %).
    pub latency_guard: f64,
    /// Absolute latency increase always tolerated regardless of the
    /// relative guard (keeps the guard meaningful when the current latency
    /// is near zero).
    pub latency_slack: f64,
    /// Minimum availability gain worth a redeployment.
    pub min_gain: f64,
    /// Pins analysis to one registered algorithm, bypassing both the §5.1
    /// selection policy and the whole-suite resolution (used by experiment
    /// campaigns that compare algorithms under identical conditions).
    pub algorithm_override: Option<String>,
}

impl Default for AnalyzerConfig {
    fn default() -> Self {
        AnalyzerConfig {
            latency_guard: 0.25,
            latency_slack: 0.1,
            min_gain: 0.01,
            algorithm_override: None,
        }
    }
}

/// What the analyzer decided in one cycle.
#[derive(Clone, PartialEq, Debug)]
pub struct AnalyzerDecision {
    /// The algorithm the policy selected.
    pub algorithm: String,
    /// The recorded algorithm outcome.
    pub record: RecordedResult,
    /// Whether the result should be effected.
    pub accepted: bool,
    /// Availability of the current deployment (model estimate).
    pub current_availability: f64,
    /// Latency of the current deployment (model estimate).
    pub current_latency: f64,
    /// Human-readable explanation of the decision.
    pub reason: String,
}

/// A log entry of the analyzer's history ("Analyzers may also hold the
/// history of the system's execution").
#[derive(Clone, PartialEq, Debug)]
pub struct HistoryEntry {
    /// Simulated time of the observation (seconds).
    pub time_secs: f64,
    /// Observed availability.
    pub availability: f64,
    /// Whether a redeployment was effected at this point.
    pub redeployed: bool,
}

/// The centralized analyzer (Figure 2's "Centralized Analyzer").
#[derive(Clone, PartialEq, Debug)]
pub struct CentralizedAnalyzer {
    config: AnalyzerConfig,
    gauge: StabilityGauge,
    history: Vec<HistoryEntry>,
}

impl CentralizedAnalyzer {
    /// Creates an analyzer with the given policy configuration.
    pub fn new(config: AnalyzerConfig) -> Self {
        CentralizedAnalyzer {
            gauge: StabilityGauge::new(PROFILE_EPSILON, PROFILE_STABLE_WINDOWS),
            config,
            history: Vec::new(),
        }
    }

    /// Records one availability observation into the system's profile.
    pub fn observe(&mut self, time_secs: f64, availability: f64) {
        self.gauge.push(availability);
        self.history.push(HistoryEntry {
            time_secs,
            availability,
            redeployed: false,
        });
    }

    /// Whether the availability profile is currently stable.
    pub fn is_stable(&self) -> bool {
        self.gauge.is_stable()
    }

    /// The execution-profile log.
    pub fn history(&self) -> &[HistoryEntry] {
        &self.history
    }

    /// The §5.1 selection policy: Exact for small *stable* systems, the
    /// better approximative algorithm (Avala) for large stable systems, the
    /// cheap fast one (Stochastic) while the system is unstable.
    pub fn select_algorithm(&self, model: &DeploymentModel) -> &'static str {
        let space = ExactAlgorithm::search_space(model);
        if !self.is_stable() {
            return "stochastic";
        }
        if space <= EXACT_SPACE_LIMIT {
            "exact"
        } else {
            "avala"
        }
    }

    /// Runs one analysis: select an algorithm, run it through DeSi, and
    /// apply the acceptance policy (minimum gain + latency guard).
    ///
    /// # Errors
    ///
    /// Propagates DeSi/algorithm failures. A budget-refused Exact run falls
    /// back to Avala rather than failing the cycle.
    pub fn analyze(
        &mut self,
        desi: &mut DeSi,
        objective: &dyn Objective,
    ) -> Result<AnalyzerDecision, CoreError> {
        let current_availability =
            Availability.evaluate(desi.system().model(), desi.system().deployment());
        let current_latency =
            Latency::new().evaluate(desi.system().model(), desi.system().deployment());

        let pinned = self.config.algorithm_override.clone();
        let mut algorithm = pinned
            .clone()
            .unwrap_or_else(|| self.select_algorithm(desi.system().model()).to_owned());
        let mut record = match desi.run_algorithm(&algorithm, objective) {
            Ok(r) => r,
            Err(redep_desi::DesiError::Algorithm(
                redep_algorithms::AlgoError::BudgetExceeded { .. },
            )) if algorithm == "exact" => {
                algorithm = "avala".to_owned();
                desi.run_algorithm(&algorithm, objective)?
            }
            Err(e) => return Err(e.into()),
        };

        // "Comparing the results, … determining the best result": when the
        // preferred algorithm finds no worthwhile gain and the system is
        // stable (time is cheap), resolve across the whole registered suite
        // and keep the best outcome.
        if pinned.is_none()
            && self.is_stable()
            && record.availability - current_availability < self.config.min_gain
        {
            let names: Vec<String> = desi
                .container()
                .names()
                .into_iter()
                .map(str::to_owned)
                .filter(|n| *n != algorithm)
                .collect();
            for name in names {
                let Ok(candidate) = desi.run_algorithm(&name, objective) else {
                    continue; // e.g. Exact refusing a large instance
                };
                if objective.is_improvement(record.result.value, candidate.result.value) {
                    algorithm = name;
                    record = candidate;
                }
            }
        }

        let gain = record.availability - current_availability;
        let latency_ok = record.latency
            <= current_latency * (1.0 + self.config.latency_guard)
                + self.config.latency_slack
                + f64::EPSILON;
        let (accepted, reason) = if gain < self.config.min_gain {
            (
                false,
                format!("gain {gain:.4} below threshold {:.4}", self.config.min_gain),
            )
        } else if !latency_ok {
            (
                false,
                format!(
                    "latency guard: {:.3} → {:.3} exceeds +{:.0}%",
                    current_latency,
                    record.latency,
                    self.config.latency_guard * 100.0
                ),
            )
        } else {
            (
                true,
                format!(
                    "availability {current_availability:.4} → {:.4}, latency within guard",
                    record.availability
                ),
            )
        };
        if accepted {
            if let Some(last) = self.history.last_mut() {
                last.redeployed = true;
            }
        }
        Ok(AnalyzerDecision {
            algorithm,
            record,
            accepted,
            current_availability,
            current_latency,
            reason,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redep_algorithms::{AvalaAlgorithm, StochasticAlgorithm};
    use redep_model::GeneratorConfig;

    fn desi(hosts: usize, comps: usize) -> DeSi {
        let mut d = DeSi::generate(&GeneratorConfig::sized(hosts, comps).with_seed(3)).unwrap();
        d.container_mut().register(ExactAlgorithm::new());
        d.container_mut().register(AvalaAlgorithm::new());
        d.container_mut().register(StochasticAlgorithm::new());
        d
    }

    fn stable_analyzer() -> CentralizedAnalyzer {
        let mut a = CentralizedAnalyzer::new(AnalyzerConfig::default());
        for i in 0..4 {
            a.observe(i as f64, 0.7);
        }
        assert!(a.is_stable());
        a
    }

    #[test]
    fn unstable_systems_get_the_cheap_algorithm() {
        let d = desi(3, 6);
        let mut a = CentralizedAnalyzer::new(AnalyzerConfig::default());
        a.observe(0.0, 0.9);
        a.observe(1.0, 0.3); // big swing: unstable
        assert_eq!(a.select_algorithm(d.system().model()), "stochastic");
    }

    #[test]
    fn small_stable_systems_get_exact() {
        let d = desi(3, 6); // 3^6 = 729 << limit
        let a = stable_analyzer();
        assert_eq!(a.select_algorithm(d.system().model()), "exact");
    }

    #[test]
    fn large_stable_systems_get_avala() {
        let d = desi(6, 30); // 6^30 >> limit
        let a = stable_analyzer();
        assert_eq!(a.select_algorithm(d.system().model()), "avala");
    }

    #[test]
    fn exact_and_avala_meet_at_the_space_limit() {
        // 2 hosts: 2^20 = 1 048 576 deployments is within the limit,
        // 2^21 = 2 097 152 past it.
        let a = stable_analyzer();
        for (comps, expected) in [(20, "exact"), (21, "avala")] {
            let config = GeneratorConfig::sparse(2, comps).with_seed(3);
            let model = redep_model::Generator::generate(&config).unwrap().model;
            assert_eq!(ExactAlgorithm::search_space(&model), 1 << comps);
            assert_eq!(a.select_algorithm(&model), expected, "2 x {comps}");
        }
    }

    #[test]
    fn analyze_accepts_clear_improvements() {
        let mut d = desi(3, 6);
        let mut a = stable_analyzer();
        let decision = a.analyze(&mut d, &Availability).unwrap();
        // Exact finds the optimum; whether accepted depends on the gain, but
        // the decision must be internally consistent.
        assert_eq!(decision.algorithm, "exact");
        if decision.accepted {
            assert!(
                decision.record.availability - decision.current_availability
                    >= a.config.min_gain - 1e-12
            );
        }
    }

    #[test]
    fn tiny_gains_are_rejected() {
        let mut d = desi(3, 6);
        let mut a = CentralizedAnalyzer::new(AnalyzerConfig {
            min_gain: 2.0, // impossible gain: everything rejected
            ..AnalyzerConfig::default()
        });
        for i in 0..4 {
            a.observe(i as f64, 0.5);
        }
        let decision = a.analyze(&mut d, &Availability).unwrap();
        assert!(!decision.accepted);
        assert!(decision.reason.contains("below threshold"));
    }

    #[test]
    fn latency_guard_rejects_latency_regressions() {
        let mut d = desi(3, 6);
        let mut a = CentralizedAnalyzer::new(AnalyzerConfig {
            latency_guard: -1.0, // any latency > slack fails the guard
            latency_slack: 0.0,
            min_gain: -1.0, // gains always pass
            ..AnalyzerConfig::default()
        });
        for i in 0..4 {
            a.observe(i as f64, 0.5);
        }
        let decision = a.analyze(&mut d, &Availability).unwrap();
        if decision.record.latency > 0.0 {
            assert!(!decision.accepted);
            assert!(decision.reason.contains("latency guard"));
        }
    }

    #[test]
    fn history_marks_redeployments() {
        let mut d = desi(3, 6);
        let mut a = CentralizedAnalyzer::new(AnalyzerConfig {
            min_gain: -1.0,
            latency_guard: 1e9,
            ..AnalyzerConfig::default()
        });
        for i in 0..4 {
            a.observe(i as f64, 0.5);
        }
        let decision = a.analyze(&mut d, &Availability).unwrap();
        assert!(decision.accepted);
        assert!(a.history().last().unwrap().redeployed);
    }

    #[test]
    fn stable_analysis_resolves_across_the_whole_suite() {
        // On hub-and-spoke topologies Avala (the size-policy pick) can tie
        // the incumbent; the analyzer must then compare the registered suite
        // and return something at least as good as Avala's result.
        use redep_algorithms::RedeploymentAlgorithm;
        let scenario = crate::Scenario::build(&crate::ScenarioConfig {
            commanders: 2,
            troops: 4,
            seed: 13,
        })
        .unwrap();
        let mut d = DeSi::new(scenario.model.clone(), scenario.initial.clone());
        d.container_mut().register(AvalaAlgorithm::new());
        d.container_mut().register(StochasticAlgorithm::new());
        d.container_mut()
            .register(redep_algorithms::AnnealingAlgorithm::new());

        let avala_alone = AvalaAlgorithm::new()
            .run(
                &scenario.model,
                &Availability,
                scenario.model.constraints(),
                Some(&scenario.initial),
            )
            .unwrap();

        let mut a = stable_analyzer();
        let decision = a.analyze(&mut d, &Availability).unwrap();
        assert!(
            decision.record.result.value >= avala_alone.value - 1e-12,
            "resolution returned something worse than Avala alone: {} < {}",
            decision.record.result.value,
            avala_alone.value
        );
    }

    #[test]
    fn algorithm_override_pins_the_choice() {
        let mut d = desi(3, 6);
        let mut a = CentralizedAnalyzer::new(AnalyzerConfig {
            algorithm_override: Some("stochastic".into()),
            ..AnalyzerConfig::default()
        });
        for i in 0..4 {
            a.observe(i as f64, 0.5);
        }
        // Stable + small would select "exact"; the override wins and the
        // whole-suite resolution must not displace it either.
        let decision = a.analyze(&mut d, &Availability).unwrap();
        assert_eq!(decision.algorithm, "stochastic");
    }

    #[test]
    fn exact_budget_refusal_falls_back_to_avala() {
        // 3^10 = 59 049: under the analyzer's limit, over the registered
        // Exact algorithm's (shrunken) evaluation budget — so selection says
        // "exact" but the run refuses and the analyzer falls back.
        let mut d = desi(3, 10);
        d.container_mut()
            .register(ExactAlgorithm::with_budget(1_000));
        let mut a = CentralizedAnalyzer::new(AnalyzerConfig::default());
        for i in 0..4 {
            a.observe(i as f64, 0.5);
        }
        assert_eq!(a.select_algorithm(d.system().model()), "exact");
        let decision = a.analyze(&mut d, &Availability).unwrap();
        assert_eq!(decision.algorithm, "avala");
    }
}
