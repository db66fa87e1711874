//! The `AlgorithmContainer`: DeSi's pluggable algorithm registry.
//!
//! "The AlgorithmContainer component invokes the selected redeployment
//! algorithms … and updates the Model's AlgoResultData." Algorithms can be
//! added or replaced at run time — the API the paper's meta-level analyzers
//! use to reconfigure the framework ("it may choose to add a new low-level
//! algorithm component that computes better results for the new operational
//! scenario").

use crate::error::DesiError;
use crate::results::{AlgoResultData, RecordedResult};
use crate::system_data::SystemData;
use redep_algorithms::RedeploymentAlgorithm;
use redep_model::Objective;
use std::fmt;

/// A runtime registry of redeployment algorithms.
#[derive(Default)]
pub struct AlgorithmContainer {
    algorithms: Vec<Box<dyn RedeploymentAlgorithm>>,
}

impl fmt::Debug for AlgorithmContainer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AlgorithmContainer")
            .field("algorithms", &self.names())
            .finish()
    }
}

impl AlgorithmContainer {
    /// Creates an empty container.
    pub fn new() -> Self {
        AlgorithmContainer::default()
    }

    /// Registers an algorithm (replacing any existing one with the same
    /// name, so analyzers can swap configurations in place).
    pub fn register(&mut self, algorithm: impl RedeploymentAlgorithm + 'static) {
        self.algorithms.retain(|a| a.name() != algorithm.name());
        self.algorithms.push(Box::new(algorithm));
    }

    /// Registered algorithm names, in registration order.
    pub fn names(&self) -> Vec<&str> {
        self.algorithms.iter().map(|a| a.name()).collect()
    }

    /// Looks up an algorithm by name.
    pub fn get(&self, name: &str) -> Option<&dyn RedeploymentAlgorithm> {
        self.algorithms
            .iter()
            .find(|a| a.name() == name)
            .map(AsRef::as_ref)
    }

    /// Runs one algorithm against the system and records the outcome.
    ///
    /// # Errors
    ///
    /// Returns [`DesiError::UnknownAlgorithm`] for unregistered names and
    /// propagates algorithm failures.
    pub fn run(
        &self,
        name: &str,
        system: &SystemData,
        objective: &dyn Objective,
        results: &mut AlgoResultData,
    ) -> Result<RecordedResult, DesiError> {
        let algorithm = self
            .get(name)
            .ok_or_else(|| DesiError::UnknownAlgorithm(name.to_owned()))?;
        let raw = algorithm.run(
            system.model(),
            objective,
            system.model().constraints(),
            Some(system.deployment()),
        )?;
        let record = RecordedResult::new(system.model(), system.deployment(), objective, raw);
        results.push(record.clone());
        Ok(record)
    }

    /// Runs every registered algorithm, recording all outcomes; algorithms
    /// that fail (e.g. budget-guarded Exact on a big instance) are skipped
    /// and reported in the returned list.
    pub fn run_all(
        &self,
        system: &SystemData,
        objective: &dyn Objective,
        results: &mut AlgoResultData,
    ) -> Vec<(String, Result<RecordedResult, DesiError>)> {
        self.algorithms
            .iter()
            .map(|a| {
                (
                    a.name().to_owned(),
                    self.run(a.name(), system, objective, results),
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redep_algorithms::{AvalaAlgorithm, ExactAlgorithm, StochasticAlgorithm};
    use redep_model::{Availability, Generator, GeneratorConfig};

    fn system() -> SystemData {
        let s = Generator::generate(&GeneratorConfig::sized(3, 8)).unwrap();
        SystemData::new(s.model, s.initial)
    }

    #[test]
    fn registration_keeps_order() {
        let mut c = AlgorithmContainer::new();
        c.register(AvalaAlgorithm::new());
        c.register(StochasticAlgorithm::new());
        assert_eq!(c.names(), ["avala", "stochastic"]);
    }

    #[test]
    fn reregistration_replaces() {
        let mut c = AlgorithmContainer::new();
        c.register(StochasticAlgorithm::with_config(10, 0));
        c.register(StochasticAlgorithm::with_config(20, 1));
        assert_eq!(c.names().len(), 1);
    }

    #[test]
    fn run_records_results() {
        let mut c = AlgorithmContainer::new();
        c.register(AvalaAlgorithm::new());
        let sys = system();
        let mut results = AlgoResultData::new();
        let r = c.run("avala", &sys, &Availability, &mut results).unwrap();
        assert_eq!(r.result.algorithm, "avala");
        assert_eq!(results.len(), 1);
    }

    #[test]
    fn unknown_algorithm_errors() {
        let c = AlgorithmContainer::new();
        let sys = system();
        let mut results = AlgoResultData::new();
        assert!(matches!(
            c.run("ghost", &sys, &Availability, &mut results),
            Err(DesiError::UnknownAlgorithm(_))
        ));
    }

    #[test]
    fn run_all_reports_per_algorithm_outcomes() {
        let mut c = AlgorithmContainer::new();
        c.register(AvalaAlgorithm::new());
        // A budget-strangled Exact fails without aborting the sweep.
        c.register(ExactAlgorithm::with_budget(1));
        let sys = system();
        let mut results = AlgoResultData::new();
        let outcomes = c.run_all(&sys, &Availability, &mut results);
        assert_eq!(outcomes.len(), 2);
        assert!(outcomes[0].1.is_ok());
        assert!(outcomes[1].1.is_err());
        assert_eq!(results.len(), 1);
    }
}
