//! The Exact algorithm: exhaustive search over all deployments.
//!
//! "The Exact algorithm tries every possible deployment, and selects the one
//! that results in maximum availability and satisfies the constraints […]
//! The complexity of this algorithm in the general case is O(kⁿ)" (§5.1).

use crate::compiled::{compile, Compiled, Score};
use crate::traits::{keep_best, preflight, AlgoError, AlgoResult, RedeploymentAlgorithm};
use redep_model::{
    ConstraintChecker, Deployment, DeploymentModel, Direction, Objective, UNASSIGNED,
};
use std::time::Instant;

/// Exhaustive deployment search with constraint-based pruning.
///
/// The evaluation budget guards against accidentally launching a kⁿ search
/// on an instance that would run for days — the analyzer is supposed to pick
/// a different algorithm there (and experiment E8 shows it doing so).
///
/// The search enumerates dense assignments and scores each leaf with the
/// delta of its last assignment (O(deg(c)) instead of O(L)); only leaves
/// within `1e-9` of the incumbent are re-scored from scratch, so recorded
/// best values are exactly what [`Objective::evaluate`] returns.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ExactAlgorithm {
    budget: u64,
}

impl Default for ExactAlgorithm {
    fn default() -> Self {
        ExactAlgorithm::new()
    }
}

impl ExactAlgorithm {
    /// Default budget: enough for the paper's "5 hosts, 15 components" limit
    /// is *not* granted by default; the default allows ~10⁷ evaluations
    /// (≈ 4 hosts × 12 components).
    const DEFAULT_BUDGET: u64 = 20_000_000;

    /// Margin within which a delta-scored leaf is re-scored from scratch
    /// before it may displace the incumbent. Delta drift is a few ULPs, many
    /// orders of magnitude below this.
    const NEAR_EPS: f64 = 1e-9;

    /// Creates the algorithm with the default evaluation budget.
    pub fn new() -> Self {
        ExactAlgorithm {
            budget: Self::DEFAULT_BUDGET,
        }
    }

    /// Creates the algorithm with a custom evaluation budget.
    pub fn with_budget(budget: u64) -> Self {
        ExactAlgorithm { budget }
    }

    /// The number of complete deployments a model requires scoring (kⁿ,
    /// before pruning), used for the budget check and by the analyzer.
    pub fn search_space(model: &DeploymentModel) -> u128 {
        let k = model.host_count() as u128;
        let n = model.component_count() as u32;
        k.checked_pow(n).unwrap_or(u128::MAX)
    }

    #[allow(clippy::too_many_arguments)] // recursive search state, not an API
    fn dfs(
        c: &Compiled<'_>,
        index: usize,
        assign: &mut Vec<u32>,
        inc: &mut Score<'_>,
        best: &mut Option<(Vec<u32>, f64)>,
        evaluations: &mut u64,
        convergence: &mut Vec<(u64, f64)>,
    ) {
        if index == assign.len() {
            if c.constraints.check(assign) {
                *evaluations += 1;
                let value = inc.value();
                // Pre-filter with a margin, then decide on a pure
                // (from-scratch) score so recorded bests carry no delta
                // drift.
                let near = match best {
                    Some((_, bv)) => match c.objective.direction() {
                        Direction::Maximize => value > *bv - Self::NEAR_EPS,
                        Direction::Minimize => value < *bv + Self::NEAR_EPS,
                    },
                    None => true,
                };
                if near {
                    let pure = inc.score_full();
                    let improved = match best {
                        Some((_, bv)) => c.objective.is_improvement(*bv, pure),
                        None => true,
                    };
                    if improved {
                        *best = Some((assign.clone(), pure));
                        convergence.push((*evaluations, pure));
                    }
                }
            }
            return;
        }
        let comp = index as u32;
        for h in 0..c.model.n_hosts() as u32 {
            if !c.constraints.admits(assign, comp, h) {
                continue;
            }
            assign[index] = h;
            inc.set(comp, h);
            Self::dfs(c, index + 1, assign, inc, best, evaluations, convergence);
            assign[index] = UNASSIGNED;
            inc.set(comp, UNASSIGNED);
        }
    }
}

impl RedeploymentAlgorithm for ExactAlgorithm {
    fn name(&self) -> &str {
        "exact"
    }

    fn run(
        &self,
        model: &DeploymentModel,
        objective: &dyn Objective,
        constraints: &dyn ConstraintChecker,
        initial: Option<&Deployment>,
    ) -> Result<AlgoResult, AlgoError> {
        let started = Instant::now();
        preflight(model)?;
        let needed = Self::search_space(model);
        if needed > self.budget as u128 {
            return Err(AlgoError::BudgetExceeded {
                needed,
                budget: self.budget,
            });
        }
        let c = compile(model, objective, constraints);
        let mut inc = c.scorer();
        let mut assign = vec![UNASSIGNED; c.model.n_comps()];
        let mut best: Option<(Vec<u32>, f64)> = None;
        let mut evaluations = 0;
        let mut convergence = Vec::new();
        Self::dfs(
            &c,
            0,
            &mut assign,
            &mut inc,
            &mut best,
            &mut evaluations,
            &mut convergence,
        );
        let candidate = best.map(|(a, v)| (c.model.decode_assignment(&a), v));
        let (deployment, value) =
            keep_best(&c, initial, candidate).ok_or(AlgoError::NoFeasibleDeployment)?;
        Ok(AlgoResult {
            algorithm: self.name().to_owned(),
            deployment,
            value,
            evaluations,
            wall_time: started.elapsed(),
            convergence,
            full_evaluations: inc.full_evaluations(),
            delta_evaluations: inc.delta_evaluations(),
            pruned_evaluations: 0,
            hierarchy_clusters: 0,
            refine_rounds: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redep_model::{Availability, Constraint, Latency};
    use std::collections::BTreeSet;

    /// Two hosts (0.5-reliable link), two chatty components: the optimum is
    /// to collocate them (availability 1.0).
    fn chatty_pair() -> DeploymentModel {
        let mut m = DeploymentModel::new();
        let h0 = m.add_host("h0").unwrap();
        let h1 = m.add_host("h1").unwrap();
        m.set_physical_link(h0, h1, |l| l.set_reliability(0.5))
            .unwrap();
        let a = m.add_component("a").unwrap();
        let b = m.add_component("b").unwrap();
        m.set_logical_link(a, b, |l| l.set_frequency(10.0)).unwrap();
        m
    }

    #[test]
    fn finds_the_collocated_optimum() {
        let m = chatty_pair();
        let r = ExactAlgorithm::new()
            .run(&m, &Availability, m.constraints(), None)
            .unwrap();
        assert_eq!(r.value, 1.0);
        let (a, b) = (m.component_ids()[0], m.component_ids()[1]);
        assert!(r.deployment.collocated(a, b));
    }

    #[test]
    fn respects_separation_constraints() {
        let mut m = chatty_pair();
        let comps: BTreeSet<_> = m.component_ids().into_iter().collect();
        m.constraints_mut()
            .add(Constraint::Separated { components: comps });
        let r = ExactAlgorithm::new()
            .run(&m, &Availability, m.constraints(), None)
            .unwrap();
        // Forced remote: the best achievable is the link reliability.
        assert!((r.value - 0.5).abs() < 1e-12);
    }

    #[test]
    fn memory_pressure_forces_spreading() {
        let mut m = chatty_pair();
        for h in m.host_ids() {
            m.host_mut(h).unwrap().set_memory(10.0);
        }
        for c in m.component_ids() {
            m.component_mut(c).unwrap().set_required_memory(8.0);
        }
        let r = ExactAlgorithm::new()
            .run(&m, &Availability, m.constraints(), None)
            .unwrap();
        assert!((r.value - 0.5).abs() < 1e-12);
    }

    #[test]
    fn infeasible_constraints_error() {
        let mut m = chatty_pair();
        // Pin both components to host 0 but separate them: impossible.
        let comps = m.component_ids();
        let h0 = m.host_ids()[0];
        for c in &comps {
            m.constraints_mut().add(Constraint::PinnedTo {
                component: *c,
                hosts: BTreeSet::from([h0]),
            });
        }
        m.constraints_mut().add(Constraint::Separated {
            components: comps.into_iter().collect(),
        });
        assert_eq!(
            ExactAlgorithm::new()
                .run(&m, &Availability, m.constraints(), None)
                .unwrap_err(),
            AlgoError::NoFeasibleDeployment
        );
    }

    #[test]
    fn budget_guard_refuses_large_instances() {
        let mut m = DeploymentModel::new();
        for i in 0..10 {
            m.add_host(format!("h{i}")).unwrap();
        }
        for i in 0..12 {
            m.add_component(format!("c{i}")).unwrap();
        }
        assert!(matches!(
            ExactAlgorithm::with_budget(1_000).run(&m, &Availability, m.constraints(), None),
            Err(AlgoError::BudgetExceeded { .. })
        ));
    }

    #[test]
    fn search_space_is_k_to_the_n() {
        let m = chatty_pair();
        assert_eq!(ExactAlgorithm::search_space(&m), 4); // 2^2
    }

    #[test]
    fn optimizes_latency_too() {
        // The exact body is objective-agnostic (variation point 1).
        let m = chatty_pair();
        let r = ExactAlgorithm::new()
            .run(&m, &Latency::new(), m.constraints(), None)
            .unwrap();
        assert_eq!(r.value, 0.0); // collocated => no remote latency
    }

    #[test]
    fn empty_model_yields_empty_deployment() {
        let m = DeploymentModel::new();
        let r = ExactAlgorithm::new()
            .run(&m, &Availability, m.constraints(), None)
            .unwrap();
        assert!(r.deployment.is_empty());
        assert_eq!(r.value, 1.0);
    }
}
