//! The pluggable-algorithm interface and its result/error types.

use redep_model::{ConstraintChecker, Deployment, DeploymentModel, Objective};
use std::error::Error;
use std::fmt;
use std::time::Duration;

/// What a redeployment algorithm produced.
#[derive(Clone, PartialEq, Debug)]
pub struct AlgoResult {
    /// The name of the body that ran: an `-h` variant given an objective or
    /// checker without a dense form runs — and reports — its flat body.
    pub algorithm: String,
    /// The best deployment found.
    pub deployment: Deployment,
    /// The objective value of that deployment.
    pub value: f64,
    /// How many complete deployments the algorithm scored (a
    /// machine-independent cost measure alongside `wall_time`).
    pub evaluations: u64,
    /// Wall-clock running time.
    pub wall_time: Duration,
    /// Convergence trace: `(progress, objective value)` sampled as the
    /// search advances. `progress` is the algorithm's natural step counter —
    /// evaluations for Exact/Stochastic/Genetic/Annealing, component
    /// assignments for Avala, auction rounds for DecAp — so plotting value
    /// against progress shows how quickly each algorithm closes in on its
    /// final answer. The trace reflects the search body only; the baseline
    /// guard in `keep_best` may still raise the final `value` above the
    /// last trace entry.
    pub convergence: Vec<(u64, f64)>,
    /// How many of the scores were full (from-scratch) evaluations. With a
    /// dense objective most scores are deltas and only re-anchoring points
    /// are full; an objective without a dense form is scored through
    /// [`Objective::evaluate`] and every scoring counts here.
    pub full_evaluations: u64,
    /// How many of the scores were incremental (delta) evaluations touching
    /// only a moved component's incident links. `0` when the objective has
    /// no dense form.
    pub delta_evaluations: u64,
    /// How many candidate moves frontier pruning skipped without scoring
    /// them. `0` for flat (unpruned) runs; for hierarchical runs this is
    /// the proof of the cut — each refinement step charges the hosts it
    /// did *not* have to consider.
    pub pruned_evaluations: u64,
    /// Number of super-node clusters the hierarchy pass produced. `0` for
    /// flat runs.
    pub hierarchy_clusters: u64,
    /// Number of within-cluster refinement rounds executed. `0` for flat
    /// runs.
    pub refine_rounds: u64,
}

impl fmt::Display for AlgoResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: value {:.4} ({} evaluations, {:?})",
            self.algorithm, self.value, self.evaluations, self.wall_time
        )
    }
}

/// Why an algorithm failed.
#[derive(Clone, PartialEq, Eq, Debug)]
#[non_exhaustive]
pub enum AlgoError {
    /// No deployment satisfying the constraints was found.
    NoFeasibleDeployment,
    /// The instance exceeds the algorithm's configured budget (e.g. the
    /// Exact algorithm refuses kⁿ beyond its evaluation cap).
    BudgetExceeded {
        /// Deployments the instance would require scoring.
        needed: u128,
        /// The configured cap.
        budget: u64,
    },
    /// The model is degenerate (no hosts while components exist, …).
    DegenerateModel(String),
}

impl fmt::Display for AlgoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AlgoError::NoFeasibleDeployment => {
                f.write_str("no deployment satisfies the constraints")
            }
            AlgoError::BudgetExceeded { needed, budget } => write!(
                f,
                "instance needs {needed} evaluations, exceeding the budget of {budget}"
            ),
            AlgoError::DegenerateModel(msg) => write!(f, "degenerate model: {msg}"),
        }
    }
}

impl Error for AlgoError {}

/// A pluggable redeployment algorithm.
///
/// Implementations are pure with respect to their inputs (all randomness is
/// seeded at construction), so a run is reproducible and side-effect free;
/// *effecting* the returned deployment is the Effector's job, not the
/// algorithm's.
pub trait RedeploymentAlgorithm: fmt::Debug {
    /// The algorithm's name (e.g. `"avala"`).
    fn name(&self) -> &str;

    /// Searches for a deployment of `model`'s components improving
    /// `objective` subject to `constraints`.
    ///
    /// `initial` is the currently running deployment, when one exists;
    /// algorithms use it as a baseline (they never return something worse)
    /// and local-search bodies use it as the starting point.
    ///
    /// # Errors
    ///
    /// * [`AlgoError::NoFeasibleDeployment`] when the constraints admit no
    ///   complete deployment the algorithm could find;
    /// * [`AlgoError::BudgetExceeded`] when the instance is too large for
    ///   the algorithm's configured budget;
    /// * [`AlgoError::DegenerateModel`] for models with components but no
    ///   hosts.
    fn run(
        &self,
        model: &DeploymentModel,
        objective: &dyn Objective,
        constraints: &dyn ConstraintChecker,
        initial: Option<&Deployment>,
    ) -> Result<AlgoResult, AlgoError>;
}

/// Shared pre-flight validation for algorithm bodies.
pub(crate) fn preflight(model: &DeploymentModel) -> Result<(), AlgoError> {
    if model.component_count() > 0 && model.host_count() == 0 {
        return Err(AlgoError::DegenerateModel(
            "components exist but there are no hosts".into(),
        ));
    }
    Ok(())
}

/// Picks the better of a candidate and the (validated) initial deployment,
/// so algorithms never regress below the running system: [`choose`] on
/// the [`baseline`] of `initial`.
///
/// The baseline is checked and scored through the run's own [`Compiled`]
/// inputs with a throwaway scorer: one O(L) dense pass for a dense
/// objective (the naive O(L log L) map walk dominated small runs — ~300µs
/// of a 2–6ms run at 20×160), one `evaluate` for an opaque one.
///
/// [`Compiled`]: crate::compiled::Compiled
pub(crate) fn keep_best(
    c: &crate::compiled::Compiled<'_>,
    initial: Option<&Deployment>,
    candidate: Option<(Deployment, f64)>,
) -> Option<(Deployment, f64)> {
    choose(c, initial, baseline(c, initial), candidate)
}

/// `initial` compiled, when it is feasible: where a search that improves
/// the running deployment starts, and what [`baseline`] prices.
pub(crate) fn feasible_initial(
    c: &crate::compiled::Compiled<'_>,
    initial: Option<&Deployment>,
) -> Option<Vec<u32>> {
    let assign = c.model.compile_assignment(initial?);
    c.constraints.check(&assign).then_some(assign)
}

/// The guard's baseline: the value of `initial` when it is feasible. It
/// depends on nothing a search does, so a hierarchical body prices it
/// beside the search.
pub(crate) fn baseline(
    c: &crate::compiled::Compiled<'_>,
    initial: Option<&Deployment>,
) -> Option<f64> {
    feasible_initial(c, initial).map(|assign| c.scorer().assign_from(&assign))
}

/// The guard's decision between the search's `candidate` and `initial`
/// valued at `baseline` ([`baseline`]): the candidate only when it is
/// strictly better, so a tie keeps the running deployment. `initial` is
/// cloned only when it wins.
pub(crate) fn choose(
    c: &crate::compiled::Compiled<'_>,
    initial: Option<&Deployment>,
    baseline: Option<f64>,
    candidate: Option<(Deployment, f64)>,
) -> Option<(Deployment, f64)> {
    let baseline = initial.zip(baseline);
    match (candidate, baseline) {
        (Some((cd, cv)), Some((bd, bv))) => {
            if c.objective.is_improvement(bv, cv) {
                Some((cd, cv))
            } else {
                Some((bd.clone(), bv))
            }
        }
        (Some(cand), None) => Some(cand),
        (None, Some((bd, bv))) => Some((bd.clone(), bv)),
        (None, None) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redep_model::{Availability, DeploymentModel};

    #[test]
    fn error_messages_are_informative() {
        assert!(AlgoError::NoFeasibleDeployment
            .to_string()
            .contains("constraints"));
        let e = AlgoError::BudgetExceeded {
            needed: 1_000_000,
            budget: 10,
        };
        assert!(e.to_string().contains("1000000"));
    }

    #[test]
    fn preflight_rejects_components_without_hosts() {
        let mut m = DeploymentModel::new();
        m.add_component("c").unwrap();
        assert!(matches!(preflight(&m), Err(AlgoError::DegenerateModel(_))));
    }

    #[test]
    fn preflight_accepts_empty_model() {
        let m = DeploymentModel::new();
        assert!(preflight(&m).is_ok());
    }

    #[test]
    fn convergence_traces_are_monotone_for_best_so_far_algorithms() {
        use crate::{
            AvalaAlgorithm, DecApAlgorithm, ExactAlgorithm, RedeploymentAlgorithm,
            StochasticAlgorithm,
        };
        use redep_model::{Generator, GeneratorConfig};

        let s = Generator::generate(&GeneratorConfig::sized(4, 8).with_seed(21)).unwrap();
        let (m, init) = (s.model, s.initial);

        let algos: Vec<Box<dyn RedeploymentAlgorithm>> = vec![
            Box::new(ExactAlgorithm::new()),
            Box::new(StochasticAlgorithm::new()),
            Box::new(AvalaAlgorithm::new()),
            Box::new(DecApAlgorithm::new()),
        ];
        for algo in algos {
            let r = algo
                .run(&m, &Availability, m.constraints(), Some(&init))
                .unwrap();
            assert!(
                !r.convergence.is_empty(),
                "{} produced no convergence trace",
                r.algorithm
            );
            assert!(
                r.convergence.windows(2).all(|w| w[0].0 <= w[1].0),
                "{} trace progress must be non-decreasing",
                r.algorithm
            );
            // Best-so-far recorders (exact, stochastic) are monotone in value.
            if matches!(r.algorithm.as_str(), "exact" | "stochastic") {
                assert!(
                    r.convergence.windows(2).all(|w| w[1].1 >= w[0].1),
                    "{} best-so-far trace regressed",
                    r.algorithm
                );
            }
            let last = r.convergence.last().unwrap().1;
            assert!(
                r.value >= last - 1e-12,
                "{}: final value {} below last trace point {last}",
                r.algorithm,
                r.value
            );
        }
    }

    #[test]
    fn keep_best_prefers_the_better_side() {
        let mut m = DeploymentModel::new();
        let h0 = m.add_host("h0").unwrap();
        let h1 = m.add_host("h1").unwrap();
        m.set_physical_link(h0, h1, |l| l.set_reliability(0.5))
            .unwrap();
        let a = m.add_component("a").unwrap();
        let b = m.add_component("b").unwrap();
        m.set_logical_link(a, b, |l| l.set_frequency(1.0)).unwrap();

        let local: Deployment = [(a, h0), (b, h0)].into_iter().collect();
        let remote: Deployment = [(a, h0), (b, h1)].into_iter().collect();
        let lv = Availability.evaluate(&m, &local);

        let c = crate::compiled::compile(&m, &Availability, m.constraints());
        let picked = keep_best(&c, Some(&remote), Some((local.clone(), lv))).unwrap();
        assert_eq!(picked.0, local);

        // With a better baseline, the baseline wins.
        let rv = Availability.evaluate(&m, &remote);
        let picked = keep_best(&c, Some(&local), Some((remote, rv))).unwrap();
        assert_eq!(picked.0, local);
    }

    /// Two symmetric hosts and two chatty components: both colocated
    /// placements score 1.0, and splitting them scores 0.5.
    fn twin_hosts() -> (DeploymentModel, Deployment, Deployment, Deployment) {
        let mut m = DeploymentModel::new();
        let h0 = m.add_host("h0").unwrap();
        let h1 = m.add_host("h1").unwrap();
        m.set_physical_link(h0, h1, |l| l.set_reliability(0.5))
            .unwrap();
        let a = m.add_component("a").unwrap();
        let b = m.add_component("b").unwrap();
        m.set_logical_link(a, b, |l| l.set_frequency(1.0)).unwrap();
        let on0: Deployment = [(a, h0), (b, h0)].into_iter().collect();
        let on1: Deployment = [(a, h1), (b, h1)].into_iter().collect();
        let split: Deployment = [(a, h0), (b, h1)].into_iter().collect();
        (m, on0, on1, split)
    }

    /// The guard's three decisions: a baseline that ties the candidate
    /// wins, an infeasible initial deployment is no baseline, and neither
    /// is a missing one.
    #[test]
    fn keep_best_decides_ties_infeasible_and_missing_baselines() {
        let (mut m, on0, on1, split) = twin_hosts();
        let c = crate::compiled::compile(&m, &Availability, m.constraints());
        let v = Availability.evaluate(&m, &on1);
        assert_eq!(v, Availability.evaluate(&m, &on0));
        let picked = keep_best(&c, Some(&on0), Some((on1.clone(), v))).unwrap();
        assert_eq!(picked, (on0.clone(), v), "a tie goes to the baseline");
        let picked = keep_best(&c, None, Some((split.clone(), 0.5))).unwrap();
        assert_eq!(picked, (split.clone(), 0.5));
        assert_eq!(keep_best(&c, None, None), None);
        assert_eq!(keep_best(&c, Some(&on0), None), Some((on0.clone(), v)));

        let ids: Vec<_> = on0.iter().map(|(comp, _)| comp).collect();
        m.constraints_mut().add(redep_model::Constraint::Separated {
            components: ids.into_iter().collect(),
        });
        let c = crate::compiled::compile(&m, &Availability, m.constraints());
        let picked = keep_best(&c, Some(&on0), Some((split.clone(), 0.5))).unwrap();
        assert_eq!(picked, (split, 0.5), "an infeasible baseline never wins");
        assert_eq!(keep_best(&c, Some(&on0), None), None);
    }

    fn hierarchical_bodies() -> Vec<Box<dyn RedeploymentAlgorithm>> {
        use crate::{
            AnnealingAlgorithm, AvalaAlgorithm, DecApAlgorithm, HierarchicalConfig,
            StochasticAlgorithm,
        };
        let h = HierarchicalConfig { threads: 2 };
        vec![
            Box::new(AvalaAlgorithm::new().with_hierarchy(h)),
            Box::new(StochasticAlgorithm::with_config(20, 3).with_hierarchy(h)),
            Box::new(AnnealingAlgorithm::new().with_hierarchy(h)),
            Box::new(DecApAlgorithm::new().with_hierarchy(h)),
        ]
    }

    /// The same three decisions through each `-h` body's guard.
    #[test]
    fn hierarchical_guards_decide_like_keep_best() {
        use redep_model::{Constraint, Generator, GeneratorConfig};

        let (m, on0, on1, _) = twin_hosts();
        for algo in hierarchical_bodies() {
            for initial in [&on0, &on1] {
                let r = algo
                    .run(&m, &Availability, m.constraints(), Some(initial))
                    .unwrap();
                assert_eq!(
                    &r.deployment, initial,
                    "{}: a tie goes to the baseline",
                    r.algorithm
                );
                assert_eq!(r.value, 1.0, "{}", r.algorithm);
            }
        }

        let s = Generator::generate(&GeneratorConfig::sized(6, 24).with_seed(4)).unwrap();
        let mut m = s.model;
        let (comp, host) = s.initial.iter().next().unwrap();
        m.constraints_mut().add(Constraint::NotOn {
            component: comp,
            hosts: [host].into_iter().collect(),
        });
        assert!(m.constraints().check(&m, &s.initial).is_err());
        for algo in hierarchical_bodies() {
            let none = algo.run(&m, &Availability, m.constraints(), None).unwrap();
            let last = none.convergence.last().unwrap().1;
            assert_eq!(
                none.value.to_bits(),
                last.to_bits(),
                "{}: no baseline",
                none.algorithm
            );
            let infeasible = algo
                .run(&m, &Availability, m.constraints(), Some(&s.initial))
                .unwrap();
            assert_eq!(infeasible.deployment, none.deployment, "{}", none.algorithm);
            assert_eq!(
                infeasible.value.to_bits(),
                none.value.to_bits(),
                "{}",
                none.algorithm
            );
            assert_eq!(
                infeasible.evaluations, none.evaluations,
                "{}",
                none.algorithm
            );
            assert_eq!(
                infeasible.convergence, none.convergence,
                "{}",
                none.algorithm
            );
        }
    }
}
