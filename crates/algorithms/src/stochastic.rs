//! The Stochastic algorithm: repeated randomized first-fit.
//!
//! "The Stochastic algorithm randomly orders all the hosts and all the
//! components. Then, going in order, it assigns as many components to a
//! given host as can fit on that host, ensuring that all of the constraints
//! are satisfied. […] This process is repeated a desired number of times,
//! and the best obtained deployment is selected." (§5.1)

use crate::compiled::{compile, Compiled};
use crate::hierarchy::{coarse_random, finish_hierarchical, run_hierarchical, HierarchicalConfig};
use crate::parallel::{run_shards, shard_seed};
use crate::traits::{keep_best, preflight, AlgoError, AlgoResult, RedeploymentAlgorithm};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use redep_model::{ConstraintChecker, Deployment, DeploymentModel, Objective, UNASSIGNED};
use std::time::Instant;

/// Randomized first-fit, repeated `iterations` times; O(n²) per iteration.
///
/// Placements run on dense indices and are scored through
/// [`redep_model::IncrementalScore`] (or [`Objective::evaluate`] when the
/// objective has no dense form); the iterations can additionally be split
/// into parallel shards with [`with_parallelism`](Self::with_parallelism).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct StochasticAlgorithm {
    iterations: u32,
    seed: u64,
    shards: u32,
    threads: u32,
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
        StochasticAlgorithm {
            iterations: Self::DEFAULT_ITERATIONS,
            seed: 0,
            shards: 1,
            threads: 1,
            hierarchy: None,
        }
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
            shards: 1,
            threads: 1,
            hierarchy: None,
        }
    }

    /// Splits the iterations into `shards` independent restarts (each with a
    /// fixed seed stream derived from the configured seed) executed on up to
    /// `threads` worker threads. The result is a pure function of
    /// `(iterations, seed, shards)` — any thread count produces the same
    /// deployment and value. Zero values are clamped to 1.
    pub fn with_parallelism(mut self, shards: u32, threads: u32) -> Self {
        self.shards = shards.max(1);
        self.threads = threads.max(1);
        self
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

/// Per-shard search outcome.
struct ShardOutcome {
    best: Option<(Vec<u32>, f64)>,
    evaluations: u64,
    full: u64,
    delta: u64,
    trace: Vec<(u64, f64)>,
}

impl StochasticAlgorithm {
    fn search(
        &self,
        c: &Compiled<'_>,
        initial: Option<&Deployment>,
        started: Instant,
    ) -> Result<AlgoResult, AlgoError> {
        let cm = &c.model;
        let n_hosts = cm.n_hosts() as u32;
        let n_comps = cm.n_comps() as u32;
        let shards = self.shards;
        // Iterations split round-robin so shard 0 with `shards == 1` replays
        // the sequential run exactly.
        let per_shard: Vec<u32> = (0..shards)
            .map(|s| self.iterations / shards + u32::from(s < self.iterations % shards))
            .collect();

        let outcomes = run_shards(shards, self.threads, |shard| {
            let mut rng = ChaCha8Rng::seed_from_u64(shard_seed(self.seed, shard));
            let mut inc = c.scorer();
            let mut assign = vec![UNASSIGNED; n_comps as usize];
            let mut host_order: Vec<u32> = (0..n_hosts).collect();
            let mut comp_order: Vec<u32> = (0..n_comps).collect();
            let mut remaining: Vec<u32> = Vec::with_capacity(n_comps as usize);
            let mut best: Option<(Vec<u32>, f64)> = None;
            let mut evaluations = 0u64;
            let mut trace = Vec::new();
            for _ in 0..per_shard[shard as usize] {
                host_order.shuffle(&mut rng);
                comp_order.shuffle(&mut rng);
                assign.fill(UNASSIGNED);
                remaining.clear();
                remaining.extend_from_slice(&comp_order);
                for &h in &host_order {
                    // Fill this host with as many of the remaining
                    // components as fit, in their random order.
                    remaining.retain(|&comp| {
                        if c.constraints.admits(&assign, comp, h) {
                            assign[comp as usize] = h;
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
                let improved = match &best {
                    Some((_, bv)) => c.objective.is_improvement(*bv, value),
                    None => true,
                };
                if improved {
                    best = Some((assign.clone(), value));
                    trace.push((evaluations, value));
                }
            }
            ShardOutcome {
                best,
                evaluations,
                full: inc.full_evaluations(),
                delta: inc.delta_evaluations(),
                trace,
            }
        });

        // Merge in shard order with a strict-improvement rule, so the lowest
        // shard wins ties and the outcome is independent of thread count.
        let mut best: Option<(Vec<u32>, f64)> = None;
        let mut evaluations = 0u64;
        let mut full = 0u64;
        let mut delta = 0u64;
        let mut convergence = Vec::new();
        for o in outcomes {
            evaluations += o.evaluations;
            full += o.full;
            delta += o.delta;
            if let Some((a, v)) = o.best {
                let take = match &best {
                    Some((_, bv)) => c.objective.is_improvement(*bv, v),
                    None => true,
                };
                if take {
                    best = Some((a, v));
                    convergence = o.trace;
                }
            }
        }

        let candidate = best.map(|(a, v)| (cm.decode_assignment(&a), v));
        let (deployment, value) =
            keep_best(c, initial, candidate).ok_or(AlgoError::NoFeasibleDeployment)?;
        Ok(AlgoResult {
            algorithm: FLAT_NAME.to_owned(),
            deployment,
            value,
            evaluations,
            wall_time: started.elapsed(),
            convergence,
            full_evaluations: full,
            delta_evaluations: delta,
            pruned_evaluations: 0,
            hierarchy_clusters: 0,
            refine_rounds: 0,
        })
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
        self.search(&c, initial, started)
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
    fn sharded_runs_are_thread_count_invariant() {
        let (m, init) = generated();
        let base = StochasticAlgorithm::with_config(60, 11).with_parallelism(8, 1);
        let reference = base
            .run(&m, &Availability, m.constraints(), Some(&init))
            .unwrap();
        for threads in [2u32, 8] {
            let r = StochasticAlgorithm::with_config(60, 11)
                .with_parallelism(8, threads)
                .run(&m, &Availability, m.constraints(), Some(&init))
                .unwrap();
            assert_eq!(r.deployment, reference.deployment, "threads = {threads}");
            assert_eq!(r.value, reference.value, "threads = {threads}");
            assert_eq!(r.evaluations, reference.evaluations, "threads = {threads}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one iteration")]
    fn zero_iterations_panics() {
        let _ = StochasticAlgorithm::with_config(0, 0);
    }
}
