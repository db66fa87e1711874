//! The Stochastic algorithm: repeated randomized first-fit.
//!
//! "The Stochastic algorithm randomly orders all the hosts and all the
//! components. Then, going in order, it assigns as many components to a
//! given host as can fit on that host, ensuring that all of the constraints
//! are satisfied. […] This process is repeated a desired number of times,
//! and the best obtained deployment is selected." (§5.1)

use crate::compiled::{compile, Compiled};
use crate::hierarchy::{coarse_random, finish_hierarchical, run_hierarchical, HierarchicalConfig};
use crate::traits::{keep_best, preflight, AlgoError, AlgoResult, RedeploymentAlgorithm};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use redep_model::{ConstraintChecker, Deployment, DeploymentModel, Objective, UNASSIGNED};
use std::time::Instant;

/// Randomized first-fit, repeated `iterations` times on one seeded stream;
/// O(n²) per iteration.
///
/// Placements run on dense indices and are scored through
/// [`redep_model::IncrementalScore`] (or [`Objective::evaluate`] when the
/// objective has no dense form).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct StochasticAlgorithm {
    iterations: u32,
    seed: u64,
    hierarchy: Option<HierarchicalConfig>,
}

impl Default for StochasticAlgorithm {
    fn default() -> Self {
        StochasticAlgorithm::new()
    }
}

impl StochasticAlgorithm {
    /// Default number of randomized placements tried.
    pub const DEFAULT_ITERATIONS: u32 = 100;

    /// Creates the algorithm with the default iteration count and seed 0.
    pub fn new() -> Self {
        StochasticAlgorithm::with_config(Self::DEFAULT_ITERATIONS, 0)
    }

    /// Creates the algorithm with explicit iterations and seed.
    ///
    /// # Panics
    ///
    /// Panics if `iterations` is zero.
    pub fn with_config(iterations: u32, seed: u64) -> Self {
        assert!(iterations > 0, "at least one iteration is required");
        StochasticAlgorithm {
            iterations,
            seed,
            hierarchy: None,
        }
    }

    /// Runs the hierarchical variant (`stochastic-h`): seeded random
    /// first-fit over super-node clusters (a handful of shuffles of the
    /// coarse problem), then frontier-pruned refinement within each cluster
    /// in parallel. Needs dense forms of both objective and checker; without
    /// them the flat body runs and the result is reported as `stochastic`.
    pub fn with_hierarchy(mut self, config: HierarchicalConfig) -> Self {
        self.hierarchy = Some(config);
        self
    }
}

/// What the restart loop found.
pub(crate) struct Restarts {
    /// The best complete, feasible placement and its score, if any restart
    /// produced one.
    pub best: Option<(Vec<u32>, f64)>,
    /// Feasible placements scored.
    pub evaluations: u64,
    pub full: u64,
    pub delta: u64,
    /// `(evaluations, value)` at every improvement of the best.
    pub trace: Vec<(u64, f64)>,
}

/// The Stochastic restart loop: `iterations` times, shuffle host and
/// component order on the stream seeded with `seed`, give each host in turn
/// as many of the remaining components as it admits, and score the
/// placement if it is complete and feasible; the best is kept by strict
/// improvement, so the earliest restart wins ties. `stochastic` runs it on
/// the model and `stochastic-h` on the coarse cluster model.
pub(crate) fn restarts(c: &Compiled<'_>, seed: u64, iterations: u32) -> Restarts {
    let cm = &c.model;
    let n_comps = cm.n_comps() as u32;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut inc = c.scorer();
    let mut assign = vec![UNASSIGNED; n_comps as usize];
    let mut load = c.constraints.load_of(&assign);
    let mut host_order: Vec<u32> = (0..cm.n_hosts() as u32).collect();
    let mut comp_order: Vec<u32> = (0..n_comps).collect();
    let mut remaining: Vec<u32> = Vec::with_capacity(n_comps as usize);
    let mut best: Option<(Vec<u32>, f64)> = None;
    let mut evaluations = 0u64;
    let mut trace = Vec::new();
    for _ in 0..iterations {
        host_order.shuffle(&mut rng);
        comp_order.shuffle(&mut rng);
        assign.fill(UNASSIGNED);
        load.fill(0.0);
        remaining.clear();
        remaining.extend_from_slice(&comp_order);
        for &h in &host_order {
            // Fill this host with as many of the remaining components as
            // fit, in their random order.
            remaining.retain(|&comp| {
                if c.constraints.admits_with_load(&assign, &load, comp, h) {
                    assign[comp as usize] = h;
                    load[h as usize] += cm.comp_memory()[comp as usize];
                    false
                } else {
                    true
                }
            });
        }
        if !remaining.is_empty() || !c.constraints.check(&assign) {
            continue;
        }
        evaluations += 1;
        let value = inc.assign_from(&assign);
        if best
            .as_ref()
            .is_none_or(|(_, bv)| c.objective.is_improvement(*bv, value))
        {
            best = Some((assign.clone(), value));
            trace.push((evaluations, value));
        }
    }
    Restarts {
        best,
        evaluations,
        full: inc.full_evaluations(),
        delta: inc.delta_evaluations(),
        trace,
    }
}

/// The name the flat body reports, whichever variant was configured.
const FLAT_NAME: &str = "stochastic";

impl RedeploymentAlgorithm for StochasticAlgorithm {
    fn name(&self) -> &str {
        if self.hierarchy.is_some() {
            "stochastic-h"
        } else {
            FLAT_NAME
        }
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
        let c = compile(model, objective, constraints);
        if let (Some(hcfg), Some(dense)) = (&self.hierarchy, c.dense_constraints()) {
            let (seed, iters) = (self.seed, self.iterations.min(16));
            let out = run_hierarchical(&c, dense, hcfg, |cc| coarse_random(cc, seed, iters))?;
            return finish_hierarchical(&c, initial, started, self.name(), out);
        }
        let r = restarts(&c, self.seed, self.iterations);
        let candidate = r.best.map(|(a, v)| (c.model.decode_assignment(&a), v));
        let (deployment, value) =
            keep_best(&c, initial, candidate).ok_or(AlgoError::NoFeasibleDeployment)?;
        Ok(AlgoResult {
            algorithm: FLAT_NAME.to_owned(),
            deployment,
            value,
            evaluations: r.evaluations,
            wall_time: started.elapsed(),
            convergence: r.trace,
            full_evaluations: r.full,
            delta_evaluations: r.delta,
            pruned_evaluations: 0,
            hierarchy_clusters: 0,
            refine_rounds: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redep_model::{Availability, Generator, GeneratorConfig};

    fn generated() -> (DeploymentModel, Deployment) {
        let s = Generator::generate(&GeneratorConfig::sized(4, 12).with_seed(5)).unwrap();
        (s.model, s.initial)
    }

    #[test]
    fn produces_valid_deployments() {
        let (m, init) = generated();
        let r = StochasticAlgorithm::new()
            .run(&m, &Availability, m.constraints(), Some(&init))
            .unwrap();
        r.deployment.validate(&m).unwrap();
        m.constraints().check(&m, &r.deployment).unwrap();
    }

    #[test]
    fn never_regresses_below_the_initial_deployment() {
        let (m, init) = generated();
        let before = Availability.evaluate(&m, &init);
        let r = StochasticAlgorithm::with_config(1, 9)
            .run(&m, &Availability, m.constraints(), Some(&init))
            .unwrap();
        assert!(r.value >= before - 1e-12);
    }

    #[test]
    fn more_iterations_do_not_hurt() {
        let (m, _) = generated();
        let few = StochasticAlgorithm::with_config(2, 3)
            .run(&m, &Availability, m.constraints(), None)
            .unwrap();
        let many = StochasticAlgorithm::with_config(200, 3)
            .run(&m, &Availability, m.constraints(), None)
            .unwrap();
        assert!(many.value >= few.value - 1e-12);
    }

    #[test]
    fn same_seed_is_deterministic() {
        let (m, _) = generated();
        let a = StochasticAlgorithm::with_config(50, 7)
            .run(&m, &Availability, m.constraints(), None)
            .unwrap();
        let b = StochasticAlgorithm::with_config(50, 7)
            .run(&m, &Availability, m.constraints(), None)
            .unwrap();
        assert_eq!(a.deployment, b.deployment);
        assert_eq!(a.value, b.value);
    }

    #[test]
    fn evaluations_count_feasible_placements_only() {
        let (m, _) = generated();
        let r = StochasticAlgorithm::with_config(50, 1)
            .run(&m, &Availability, m.constraints(), None)
            .unwrap();
        assert!(r.evaluations <= 50);
        assert!(r.evaluations > 0);
        assert_eq!(r.full_evaluations, r.evaluations);
        assert_eq!(r.delta_evaluations, 0);
    }

    #[test]
    #[should_panic(expected = "at least one iteration")]
    fn zero_iterations_panics() {
        let _ = StochasticAlgorithm::with_config(0, 0);
    }
}
