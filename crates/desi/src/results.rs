//! `AlgoResultData`: "facilities for capturing the outcomes of the
//! different deployment estimation algorithms: estimated deployment
//! architectures …, achieved availability, algorithm's running time,
//! estimated time to effect a redeployment, and so on."

use redep_algorithms::AlgoResult;
use redep_model::{Availability, Deployment, DeploymentModel, Latency, Objective};
use std::time::Duration;

/// One recorded algorithm outcome, enriched with the standard quality
/// measures regardless of which objective the algorithm optimized.
#[derive(Clone, PartialEq, Debug)]
pub struct RecordedResult {
    /// The raw algorithm result.
    pub result: AlgoResult,
    /// Name of the objective the algorithm optimized.
    pub objective: String,
    /// Availability of the proposed deployment.
    pub availability: f64,
    /// Latency of the proposed deployment.
    pub latency: f64,
    /// Number of component moves relative to the deployment the algorithm
    /// started from.
    pub moves: usize,
    /// Estimated time to effect the redeployment (moves × per-move cost).
    pub estimated_effect_time: Duration,
}

impl RecordedResult {
    /// Nominal cost of migrating one component, used for the effect-time
    /// estimate shown in the results panel.
    const PER_MOVE_COST: Duration = Duration::from_millis(500);

    /// Enriches a raw result against the model and the running deployment.
    pub fn new(
        model: &DeploymentModel,
        current: &Deployment,
        objective: &dyn Objective,
        result: AlgoResult,
    ) -> Self {
        let availability = Availability.evaluate(model, &result.deployment);
        let latency = Latency::new().evaluate(model, &result.deployment);
        let moves = current.diff(&result.deployment).len();
        RecordedResult {
            objective: objective.name().to_owned(),
            availability,
            latency,
            moves,
            estimated_effect_time: Self::PER_MOVE_COST * moves as u32,
            result,
        }
    }
}

/// The ordered log of recorded algorithm outcomes.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct AlgoResultData {
    records: Vec<RecordedResult>,
}

impl AlgoResultData {
    /// Creates an empty log.
    pub fn new() -> Self {
        AlgoResultData::default()
    }

    /// Appends a record.
    pub fn push(&mut self, record: RecordedResult) {
        self.records.push(record);
    }

    /// All records, oldest first.
    pub fn records(&self) -> &[RecordedResult] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redep_algorithms::{AvalaAlgorithm, RedeploymentAlgorithm, StochasticAlgorithm};
    use redep_model::{Generator, GeneratorConfig};

    fn recorded() -> (DeploymentModel, Deployment, AlgoResultData) {
        let s = Generator::generate(&GeneratorConfig::sized(3, 8)).unwrap();
        let mut data = AlgoResultData::new();
        for algo in [
            Box::new(AvalaAlgorithm::new()) as Box<dyn RedeploymentAlgorithm>,
            Box::new(StochasticAlgorithm::new()),
        ] {
            let r = algo
                .run(
                    &s.model,
                    &Availability,
                    s.model.constraints(),
                    Some(&s.initial),
                )
                .unwrap();
            data.push(RecordedResult::new(&s.model, &s.initial, &Availability, r));
        }
        (s.model, s.initial, data)
    }

    #[test]
    fn records_are_enriched_with_both_quality_measures() {
        let (_, _, data) = recorded();
        assert_eq!(data.len(), 2);
        for r in data.records() {
            assert!((0.0..=1.0).contains(&r.availability));
            assert!(r.latency >= 0.0);
            assert_eq!(
                r.estimated_effect_time,
                RecordedResult::PER_MOVE_COST * r.moves as u32
            );
        }
    }
}
