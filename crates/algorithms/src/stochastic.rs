//! The Stochastic algorithm: repeated randomized first-fit.
//!
//! "The Stochastic algorithm randomly orders all the hosts and all the
//! components. Then, going in order, it assigns as many components to a
//! given host as can fit on that host, ensuring that all of the constraints
//! are satisfied. […] This process is repeated a desired number of times,
//! and the best obtained deployment is selected." (§5.1)

use crate::compiled::{compile, Compiled};
use crate::hierarchy::{coarse_random, finish_hierarchical, run_hierarchical, HierarchicalConfig};
use crate::parallel::run_shards;
use crate::traits::{keep_best, preflight, AlgoError, AlgoResult, RedeploymentAlgorithm};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use redep_model::{ConstraintChecker, Deployment, DeploymentModel, Objective, UNASSIGNED};
use std::time::Instant;

/// Randomized first-fit, repeated `iterations` times on one seeded stream;
/// O(n²) per iteration.
///
/// Every restart's host and component shuffles come from that one stream,
/// in restart order, whatever the thread count: `stochastic-h` only places
/// and scores its coarse restarts on several threads once they are drawn.
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
    const DEFAULT_ITERATIONS: u32 = 100;

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
///
/// Only the shuffles depend on one another: every restart reshuffles the
/// orders the one before it left, all on the one seeded stream. They are
/// drawn first, in restart order; the placements and their scorings are
/// then independent, spread over up to `threads` workers ([`run_shards`]),
/// and folded in restart order. Each scoring sums from zero, so the
/// outcome is the same at any thread count.
pub(crate) fn restarts(c: &Compiled<'_>, seed: u64, iterations: u32, threads: u32) -> Restarts {
    let cm = &c.model;
    let (n_hosts, n_comps) = (cm.n_hosts(), cm.n_comps());
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut host_order: Vec<u32> = (0..n_hosts as u32).collect();
    let mut comp_order: Vec<u32> = (0..n_comps as u32).collect();
    // Restart `r`'s host order, then its component order, at `r · stride`.
    let stride = n_hosts + n_comps;
    let mut orders = Vec::with_capacity(iterations as usize * stride);
    for _ in 0..iterations {
        host_order.shuffle(&mut rng);
        comp_order.shuffle(&mut rng);
        orders.extend_from_slice(&host_order);
        orders.extend_from_slice(&comp_order);
    }
    // No component needs less memory than this (none is NaN), so a host
    // that refuses it refuses every remaining component.
    let least = cm.comp_memory().iter().copied().reduce(f64::min);
    let least = least.filter(|_| !cm.comp_memory().iter().any(|m| m.is_nan()));
    // Worker `w` places restarts w, w + workers, … with one set of scratch
    // and returns each one's value. It keeps every placement for the fold
    // when there are several workers; a lone worker's restarts are the
    // fold's own order, so it keeps only those the fold will take.
    let workers = threads.clamp(1, iterations.max(1));
    let shards = run_shards(workers, workers, |w| {
        let mut assign = vec![UNASSIGNED; n_comps];
        let mut load = c.constraints.load_of(&assign);
        let mut remaining = Vec::with_capacity(n_comps);
        let mut inc = c.scorer();
        let mut best: Option<f64> = None;
        let placed: Vec<Option<(f64, Option<Vec<u32>>)>> = (w..iterations)
            .step_by(workers as usize)
            .map(|r| {
                let orders = &orders[r as usize * stride..][..stride];
                let (host_order, comp_order) = orders.split_at(n_hosts);
                assign.fill(UNASSIGNED);
                load.fill(0.0);
                remaining.clear();
                remaining.extend_from_slice(comp_order);
                for &h in host_order {
                    // Fill this host with as many of the remaining
                    // components as fit, in their random order, until
                    // memory refuses them all; the ones it refused close
                    // up in order.
                    let (mut kept, mut next) = (0, 0);
                    let mut open = true;
                    while open && next < remaining.len() {
                        let comp = remaining[next];
                        next += 1;
                        if c.constraints.admits_with_load(&assign, &load, comp, h) {
                            assign[comp as usize] = h;
                            load[h as usize] += cm.comp_memory()[comp as usize];
                            open =
                                !least.is_some_and(|m| c.constraints.refuses_at_least(&load, h, m));
                        } else {
                            remaining[kept] = comp;
                            kept += 1;
                        }
                    }
                    remaining.drain(kept..next);
                }
                if !remaining.is_empty() || !c.constraints.check(&assign) {
                    return None;
                }
                let value = inc.assign_from(&assign);
                let taken = best.is_none_or(|bv| c.objective.is_improvement(bv, value));
                if taken {
                    best = Some(value);
                }
                Some((value, (taken || workers > 1).then(|| assign.clone())))
            })
            .collect();
        (placed, inc.full_evaluations(), inc.delta_evaluations())
    });
    let mut out = Restarts {
        best: None,
        evaluations: 0,
        full: shards.iter().map(|s| s.1).sum(),
        delta: shards.iter().map(|s| s.2).sum(),
        trace: Vec::new(),
    };
    let mut placed: Vec<_> = shards.into_iter().map(|s| s.0.into_iter()).collect();
    for r in 0..iterations as usize {
        let restart = placed[r % workers as usize].next();
        let Some((value, assign)) = restart.expect("every restart was placed once") else {
            continue;
        };
        out.evaluations += 1;
        if out
            .best
            .as_ref()
            .is_none_or(|(_, bv)| c.objective.is_improvement(*bv, value))
        {
            let assign = assign.expect("a placement the fold takes is kept");
            out.best = Some((assign, value));
            out.trace.push((out.evaluations, value));
        }
    }
    out
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
            let threads = hcfg.threads.max(1) as u32;
            let out = run_hierarchical(&c, dense, hcfg, initial, |cc| {
                coarse_random(cc, seed, iters, threads)
            })?;
            return finish_hierarchical(&c, initial, started, self.name(), out);
        }
        let r = restarts(&c, self.seed, self.iterations, 1);
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

    /// FNV-1a over everything a restart loop reports: the best placement
    /// and value bits, the counters and the trace.
    fn restarts_digest(r: &Restarts) -> u64 {
        let mut words: Vec<u64> = vec![r.evaluations, r.full, r.delta];
        if let Some((a, v)) = &r.best {
            words.push(v.to_bits());
            words.extend(a.iter().map(|&h| h as u64));
        }
        for &(e, v) in &r.trace {
            words.extend([e, v.to_bits()]);
        }
        words.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, w| {
            (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// The restart loop reports the same best placement, value, counters
    /// and trace at 1, 2 and 8 threads — and what it reported before the
    /// restarts were spread over threads — on a flat model where memory
    /// leaves some restarts incomplete and on `place-scale`'s small coarse
    /// model.
    #[test]
    fn restarts_are_thread_count_invariant_and_pinned() {
        let mut config = GeneratorConfig::sized(8, 40).with_seed(11);
        config.component_memory = redep_model::Range::new(5.0, 25.0);
        let mut tight = Generator::generate(&config).unwrap().model;
        for h in tight.host_ids() {
            tight.host_mut(h).unwrap().set_memory(78.0);
        }
        tight.constraints_mut().set_enforce_memory(true);
        let wide = Generator::generate(&GeneratorConfig::sparse(200, 2000).with_seed(1))
            .unwrap()
            .model;
        let flat = compile(&tight, &Availability, tight.constraints());
        let c = compile(&wide, &Availability, wide.constraints());
        let hier = c.model.hierarchy();
        let coarse = Compiled {
            model: std::sync::Arc::new(hier.coarse_model(&c.model)),
            objective: c.objective.clone(),
            constraints: crate::compiled::Constraints::Dense(
                c.dense_constraints().unwrap().project_to_clusters(
                    hier.cluster_map(),
                    hier.n_clusters(),
                    hier.capacities(),
                ),
            ),
        };
        for (cc, seed, iterations, pinned) in [
            (&flat, 5, 40, 0x5f28_ed02_63e8_70a3u64),
            (&coarse, 0, 16, 0xd3d1_d427_0e89_f2c9),
        ] {
            let base = restarts(cc, seed, iterations, 1);
            assert!(base.best.is_some());
            let digest = restarts_digest(&base);
            for threads in [2, 8] {
                let other = restarts(cc, seed, iterations, threads);
                assert_eq!(restarts_digest(&other), digest, "threads {threads}");
                assert_eq!(other.best, base.best, "threads {threads}");
                assert_eq!(other.trace, base.trace, "threads {threads}");
            }
            assert_eq!(digest, pinned);
        }
    }

    #[test]
    #[should_panic(expected = "at least one iteration")]
    fn zero_iterations_panics() {
        let _ = StochasticAlgorithm::with_config(0, 0);
    }
}
