//! A simulated-annealing body (extension; ablation partner for Avala).
//!
//! Local search from the current deployment: each step moves one random
//! component to another admissible host and accepts worsening moves with a
//! Boltzmann probability under a geometric cooling schedule. Included as an
//! ablation point: it shows what a *local* improver achieves compared to
//! Avala's constructive strategy at equal evaluation budgets.

use crate::compiled::{compile, Compiled};
use crate::hierarchy::{
    coarse_descent, finish_hierarchical, run_hierarchical, HierOutcome, HierarchicalConfig,
    EXPLORATION_RING,
};
use crate::parallel::shard_seed;
use crate::traits::{
    choose, feasible_initial, preflight, AlgoError, AlgoResult, RedeploymentAlgorithm,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use redep_model::{
    ConstraintChecker, Deployment, DeploymentModel, Direction, Objective, UNASSIGNED,
};
use std::time::Instant;

/// Configuration of the annealing schedule.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct AnnealingConfig {
    /// Number of proposed moves.
    pub iterations: u32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for AnnealingConfig {
    fn default() -> Self {
        AnnealingConfig {
            iterations: 5_000,
            seed: 0,
        }
    }
}

/// Initial temperature of the schedule (in objective units).
const INITIAL_TEMPERATURE: f64 = 0.1;
/// Geometric cooling factor per iteration, in `(0, 1)`.
const COOLING: f64 = 0.999;

/// Simulated annealing over single-component moves.
///
/// Every proposed move is priced with an O(deg(c)) delta
/// ([`redep_model::IncrementalScore::peek`]); best-so-far candidates are
/// re-scored from scratch before being recorded, so reported values are
/// exactly what [`Objective::evaluate`] returns.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct AnnealingAlgorithm {
    config: AnnealingConfig,
    hierarchy: Option<HierarchicalConfig>,
}

/// Margin within which a delta-scored move is re-scored from scratch before
/// it may displace the incumbent best.
const NEAR_EPS: f64 = 1e-9;

/// What one Metropolis chain found.
struct Chain {
    best: Vec<u32>,
    best_value: f64,
    /// The start's scoring plus one per priced proposal.
    evaluations: u64,
    full: u64,
    delta: u64,
    /// `(evaluations, value)` at the start and at every improvement.
    trace: Vec<(u64, f64)>,
}

/// The Metropolis loop both variants run: `cfg.iterations` proposals from
/// `start` under geometric cooling. Each step draws a component and asks
/// `propose(rng, assign, load, comp)` for an admissible target host other
/// than its current one (`None` rejects the step; `assign` must come back
/// unchanged, `load` is `assign`'s per-host memory load). The move is priced
/// by delta and accepted with the Boltzmann rule; an accepted move within
/// [`NEAR_EPS`] of the best is re-scored from scratch, so recorded bests are
/// pure values and delta drift can never hide a genuine improvement.
fn metropolis(
    c: &Compiled<'_>,
    cfg: &AnnealingConfig,
    start: Vec<u32>,
    rng: &mut ChaCha8Rng,
    mut propose: impl FnMut(&mut ChaCha8Rng, &mut [u32], &[f64], u32) -> Option<u32>,
) -> Chain {
    let cm = &c.model;
    let mut assign = start;
    let mut load = c.constraints.load_of(&assign);
    let mut inc = c.scorer();
    let mut current_value = inc.assign_from(&assign);
    let mut evaluations = 1u64;
    let mut best = assign.clone();
    let mut best_value = current_value;
    let mut trace = vec![(evaluations, best_value)];
    let mut temperature = INITIAL_TEMPERATURE;

    for _ in 0..cfg.iterations {
        let comp = rng.random_range(0..cm.n_comps()) as u32;
        if let Some(h) = propose(rng, &mut assign, &load, comp) {
            let value = inc.peek(comp, h);
            evaluations += 1;
            // Signed gain: positive when the move improves the objective.
            let gain = if c.objective.is_improvement(current_value, value) {
                (value - current_value).abs()
            } else {
                -(value - current_value).abs()
            };
            if gain >= 0.0 || rng.random_bool((gain / temperature).exp().clamp(0.0, 1.0)) {
                let (old, mem) = (assign[comp as usize], cm.comp_memory()[comp as usize]);
                if old != UNASSIGNED {
                    load[old as usize] -= mem;
                }
                load[h as usize] += mem;
                assign[comp as usize] = h;
                inc.commit(comp, 0);
                current_value = value;
                let near = match c.objective.direction() {
                    Direction::Maximize => value > best_value - NEAR_EPS,
                    Direction::Minimize => value < best_value + NEAR_EPS,
                };
                if near {
                    let pure = inc.score_full();
                    current_value = pure;
                    if c.objective.is_improvement(best_value, pure) {
                        best.clone_from(&assign);
                        best_value = pure;
                        trace.push((evaluations, pure));
                    }
                }
            }
        }
        temperature *= COOLING;
    }

    Chain {
        best,
        best_value,
        evaluations,
        full: inc.full_evaluations(),
        delta: inc.delta_evaluations(),
        trace,
    }
}

impl AnnealingAlgorithm {
    /// Creates the algorithm with default parameters.
    pub fn new() -> Self {
        AnnealingAlgorithm::default()
    }

    /// Creates the algorithm with an explicit configuration.
    pub fn with_config(config: AnnealingConfig) -> Self {
        AnnealingAlgorithm {
            config,
            hierarchy: None,
        }
    }

    /// Runs the hierarchical variant (`annealing-h`): greedy coarse
    /// placement over super-node clusters followed by deterministic
    /// best-improvement descent on the coarse model, frontier-pruned
    /// refinement within each cluster in parallel, and finally a
    /// frontier-pruned annealing chain on the merged assignment (the flat
    /// Metropolis schedule at the same iteration budget, with targets drawn
    /// from the incident-link frontier instead of all hosts). Needs dense
    /// forms of both objective and checker; without them the flat body runs
    /// and the result is reported as `annealing`.
    pub fn with_hierarchy(mut self, config: HierarchicalConfig) -> Self {
        self.hierarchy = Some(config);
        self
    }

    /// Frontier-pruned annealing chain run on the merged hierarchical
    /// assignment: the flat chain's [`metropolis`] loop, but each move's
    /// target host is sampled from the component's incident-link frontier
    /// plus a deterministic exploration-ring window rather than uniformly
    /// over all hosts; the hosts the cut never scored are charged to
    /// `pruned`. The chain runs sequentially on the master state after the
    /// refinement merge, so the engine stays thread-count invariant.
    fn pruned_polish(&self, c: &Compiled<'_>, out: &mut HierOutcome) {
        let cfg = self.config;
        let cm = &c.model;
        let n_hosts = cm.n_hosts();
        if cm.n_comps() == 0 || n_hosts < 2 {
            return;
        }
        // A seed stream the flat chain does not use, so annealing and
        // annealing-h stay statistically independent under the same seed.
        let mut rng = ChaCha8Rng::seed_from_u64(shard_seed(cfg.seed, u32::MAX));
        let ring = EXPLORATION_RING.min(n_hosts);
        let mut pruned = 0u64;
        let mut cand: Vec<u32> = Vec::new();
        let frontier = |rng: &mut ChaCha8Rng, assign: &mut [u32], load: &[f64], comp: u32| {
            // Frontier: hosts where the component's logical neighbors sit,
            // across all clusters.
            cand.clear();
            for &li in cm.incident(comp) {
                let h = assign[cm.links()[li as usize].other(comp) as usize];
                if h != UNASSIGNED {
                    cand.push(h);
                }
            }
            // Deterministic exploration ring, as in cluster refinement, so
            // pruning cannot trap a component next to its neighbors forever.
            let start = comp as usize % n_hosts;
            cand.extend((0..ring).map(|r| ((start + r) % n_hosts) as u32));
            cand.sort_unstable();
            cand.dedup();
            pruned += (n_hosts as u64).saturating_sub(cand.len() as u64);
            let h = cand[rng.random_range(0..cand.len())];
            (h != assign[comp as usize] && c.constraints.admits_with_load(assign, load, comp, h))
                .then_some(h)
        };
        let chain = metropolis(c, &cfg, out.assign.clone(), &mut rng, frontier);

        if c.objective.is_improvement(out.value, chain.best_value) {
            debug_assert!(c.constraints.check(&chain.best));
            out.assign = chain.best;
            out.value = chain.best_value;
        }
        out.full += chain.full;
        out.delta += chain.delta;
        out.pruned += pruned;
        out.convergence.push((3, out.value));
    }

    fn search(
        &self,
        c: &Compiled<'_>,
        initial: Option<&Deployment>,
        started: Instant,
    ) -> Result<AlgoResult, AlgoError> {
        let cfg = self.config;
        let cm = &c.model;
        let n_hosts = cm.n_hosts();
        let n_comps = cm.n_comps();

        // Starting point: the initial deployment, when valid.
        let valid_initial = feasible_initial(c, initial);

        if n_comps == 0 {
            let assign = valid_initial.unwrap_or_default();
            let mut inc = c.scorer();
            let value = inc.assign_from(&assign);
            return Ok(AlgoResult {
                algorithm: FLAT_NAME.to_owned(),
                deployment: cm.decode_assignment(&assign),
                value,
                evaluations: 1,
                wall_time: started.elapsed(),
                convergence: vec![(1, value)],
                full_evaluations: inc.full_evaluations(),
                delta_evaluations: inc.delta_evaluations(),
                pruned_evaluations: 0,
                hierarchy_clusters: 0,
                refine_rounds: 0,
            });
        }

        // The guard's baseline, priced once from the checked start.
        let base = valid_initial.as_ref().map(|a| c.scorer().assign_from(a));
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
        // Without a valid initial deployment, first-fit from a random host
        // per component.
        let start = match valid_initial {
            Some(a) => a,
            None => {
                let mut a = vec![UNASSIGNED; n_comps];
                'comp: for ci in 0..n_comps {
                    let start = rng.random_range(0..n_hosts.max(1));
                    for i in 0..n_hosts {
                        let h = ((start + i) % n_hosts) as u32;
                        if c.constraints.admits(&a, ci as u32, h) {
                            a[ci] = h;
                            continue 'comp;
                        }
                    }
                    return Err(AlgoError::NoFeasibleDeployment);
                }
                if !c.constraints.check(&a) {
                    return Err(AlgoError::NoFeasibleDeployment);
                }
                a
            }
        };

        // A uniform target host, admitted by lifting the component out
        // (so its own collocation entry cannot block the move), probing
        // `admits`, and checking the whole moved assignment.
        let uniform = |rng: &mut ChaCha8Rng, assign: &mut [u32], _: &[f64], comp: u32| {
            let old = assign[comp as usize];
            let h = rng.random_range(0..n_hosts) as u32;
            if h == old {
                return None;
            }
            assign[comp as usize] = UNASSIGNED;
            let ok = c.constraints.admits(assign, comp, h) && {
                assign[comp as usize] = h;
                c.constraints.check(assign)
            };
            assign[comp as usize] = old;
            ok.then_some(h)
        };
        let chain = metropolis(c, &cfg, start, &mut rng, uniform);

        let candidate = Some((cm.decode_assignment(&chain.best), chain.best_value));
        let (deployment, value) =
            choose(c, initial, base, candidate).ok_or(AlgoError::NoFeasibleDeployment)?;
        Ok(AlgoResult {
            algorithm: FLAT_NAME.to_owned(),
            deployment,
            value,
            evaluations: chain.evaluations,
            wall_time: started.elapsed(),
            convergence: chain.trace,
            full_evaluations: chain.full,
            delta_evaluations: chain.delta,
            pruned_evaluations: 0,
            hierarchy_clusters: 0,
            refine_rounds: 0,
        })
    }
}

/// The name the flat body reports, whichever variant was configured.
const FLAT_NAME: &str = "annealing";

impl RedeploymentAlgorithm for AnnealingAlgorithm {
    fn name(&self) -> &str {
        if self.hierarchy.is_some() {
            "annealing-h"
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
            let mut out = run_hierarchical(&c, dense, hcfg, initial, |cc| coarse_descent(cc, 2))?;
            self.pruned_polish(&c, &mut out);
            return finish_hierarchical(&c, initial, started, self.name(), out);
        }
        self.search(&c, initial, started)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redep_model::{Availability, Generator, GeneratorConfig};

    fn generated(seed: u64) -> (DeploymentModel, Deployment) {
        let s = Generator::generate(&GeneratorConfig::sized(4, 10).with_seed(seed)).unwrap();
        (s.model, s.initial)
    }

    #[test]
    fn produces_valid_deployments() {
        let (m, init) = generated(1);
        let r = AnnealingAlgorithm::new()
            .run(&m, &Availability, m.constraints(), Some(&init))
            .unwrap();
        r.deployment.validate(&m).unwrap();
        m.constraints().check(&m, &r.deployment).unwrap();
    }

    #[test]
    fn never_regresses() {
        let (m, init) = generated(2);
        let before = Availability.evaluate(&m, &init);
        let r = AnnealingAlgorithm::new()
            .run(&m, &Availability, m.constraints(), Some(&init))
            .unwrap();
        assert!(r.value >= before - 1e-12);
    }

    #[test]
    fn works_without_an_initial_deployment() {
        let (m, _) = generated(3);
        let r = AnnealingAlgorithm::new()
            .run(&m, &Availability, m.constraints(), None)
            .unwrap();
        r.deployment.validate(&m).unwrap();
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let (m, init) = generated(4);
        let a = AnnealingAlgorithm::new()
            .run(&m, &Availability, m.constraints(), Some(&init))
            .unwrap();
        let b = AnnealingAlgorithm::new()
            .run(&m, &Availability, m.constraints(), Some(&init))
            .unwrap();
        assert_eq!(a.deployment, b.deployment);
    }
}
