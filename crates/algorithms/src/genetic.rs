//! A genetic algorithm body.
//!
//! DeSi's algorithm-development methodology (Figure 7) names "genetic
//! algorithm" alongside "greedy algorithm" as a possible main body; this is
//! that body, composed with the same objective and constraint variation
//! points as every other algorithm in the crate.

use crate::compiled::{compile, Compiled};
use crate::traits::{keep_best, preflight, AlgoError, AlgoResult, RedeploymentAlgorithm};
use rand::seq::IndexedRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use redep_model::{ConstraintChecker, Deployment, DeploymentModel, Objective, UNASSIGNED};
use std::time::Instant;

/// Configuration of the genetic search.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct GeneticConfig {
    /// Number of generations.
    pub generations: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for GeneticConfig {
    fn default() -> Self {
        GeneticConfig {
            generations: 60,
            seed: 0,
        }
    }
}

/// Individuals per generation.
const POPULATION: usize = 40;
/// Per-gene mutation probability.
const MUTATION_RATE: f64 = 0.05;
/// Tournament size for parent selection.
const TOURNAMENT: usize = 3;

/// Genetic search over deployment chromosomes (one host gene per component).
///
/// Infeasible individuals are repaired where possible and otherwise scored
/// as the objective's worst value, so the population drifts into the
/// feasible region.
///
/// Chromosomes are dense `Vec<u32>` assignments scored through
/// [`redep_model::IncrementalScore::assign_from`]. Fitness stays a pure
/// function of the chromosome (no delta chains across individuals), so
/// duplicated chromosomes always tie exactly.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct GeneticAlgorithm {
    config: GeneticConfig,
}

impl GeneticAlgorithm {
    /// Creates the algorithm with default parameters.
    pub fn new() -> Self {
        GeneticAlgorithm::default()
    }

    /// Creates the algorithm with an explicit configuration.
    pub fn with_config(config: GeneticConfig) -> Self {
        GeneticAlgorithm { config }
    }

    fn search(
        &self,
        c: &Compiled<'_>,
        model: &DeploymentModel,
        initial: Option<&Deployment>,
        started: Instant,
    ) -> Result<AlgoResult, AlgoError> {
        let cfg = self.config;
        let cm = &c.model;
        let n_hosts = cm.n_hosts();
        let n_comps = cm.n_comps();

        let init_genes: Option<Vec<u32>> = initial
            .filter(|d| d.validate(model).is_ok())
            .map(|d| cm.compile_assignment(d));

        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
        let mut inc = c.scorer();
        let mut evaluations = 0u64;

        // Fitness is a pure function of the chromosome: a from-scratch
        // score, never a delta chain, so equal chromosomes tie exactly.
        let mut score_of = |genes: &[u32], evaluations: &mut u64| -> f64 {
            if !c.constraints.check(genes) {
                return c.objective.worst();
            }
            *evaluations += 1;
            inc.assign_from(genes)
        };

        // Seed the population: the initial deployment (if valid) plus
        // greedy-feasible random individuals.
        let mut population: Vec<Vec<u32>> = Vec::with_capacity(POPULATION);
        if let Some(genes) = &init_genes {
            population.push(genes.clone());
        }
        while population.len() < POPULATION {
            let mut d = vec![UNASSIGNED; n_comps];
            let genes: Vec<u32> = (0..n_comps)
                .map(|ci| {
                    // Prefer admissible hosts; fall back to
                    // uniform-random. The fallback is drawn
                    // unconditionally so the RNG stream does not depend
                    // on admissibility.
                    let admissible: Vec<u32> = (0..n_hosts as u32)
                        .filter(|&h| c.constraints.admits(&d, ci as u32, h))
                        .collect();
                    let pick = admissible.choose(&mut rng).copied();
                    let fallback = rng.random_range(0..n_hosts) as u32;
                    let h = pick.unwrap_or(fallback);
                    d[ci] = h;
                    h
                })
                .collect();
            population.push(genes);
        }

        let mut scores: Vec<f64> = population
            .iter()
            .map(|g| score_of(g, &mut evaluations))
            .collect();

        let better = |a: f64, b: f64| c.objective.is_improvement(b, a); // a better than b

        let mut trace = Vec::with_capacity(cfg.generations + 1);
        let trace_best = |scores: &[f64], evaluations: u64, trace: &mut Vec<(u64, f64)>| {
            let best = scores
                .iter()
                .copied()
                .reduce(|x, y| {
                    if c.objective.is_improvement(x, y) {
                        y
                    } else {
                        x
                    }
                })
                .expect("population non-empty");
            trace.push((evaluations, best));
        };
        trace_best(&scores, evaluations, &mut trace);

        for _ in 0..cfg.generations {
            let mut next: Vec<Vec<u32>> = Vec::with_capacity(POPULATION);
            // Elitism: carry the best individual over.
            let best_idx = (0..population.len())
                .reduce(|x, y| if better(scores[y], scores[x]) { y } else { x })
                .expect("population non-empty");
            next.push(population[best_idx].clone());

            while next.len() < POPULATION {
                let pick = |rng: &mut ChaCha8Rng| {
                    let mut best = rng.random_range(0..population.len());
                    for _ in 1..TOURNAMENT {
                        let other = rng.random_range(0..population.len());
                        if better(scores[other], scores[best]) {
                            best = other;
                        }
                    }
                    best
                };
                let pa = pick(&mut rng);
                let pb = pick(&mut rng);
                let mut child: Vec<u32> = (0..n_comps)
                    .map(|i| {
                        if rng.random_bool(0.5) {
                            population[pa][i]
                        } else {
                            population[pb][i]
                        }
                    })
                    .collect();
                for gene in child.iter_mut() {
                    if rng.random_bool(MUTATION_RATE) {
                        *gene = rng.random_range(0..n_hosts) as u32;
                    }
                }
                next.push(child);
            }
            population = next;
            scores = population
                .iter()
                .map(|g| score_of(g, &mut evaluations))
                .collect();
            trace_best(&scores, evaluations, &mut trace);
        }

        let best_idx = (0..population.len())
            .reduce(|x, y| if better(scores[y], scores[x]) { y } else { x })
            .expect("population non-empty");
        let candidate = if scores[best_idx] == c.objective.worst() {
            None
        } else {
            Some((population.swap_remove(best_idx), scores[best_idx]))
        };
        let candidate = candidate.map(|(genes, v)| (cm.decode_assignment(&genes), v));
        let (deployment, value) =
            keep_best(c, initial, candidate).ok_or(AlgoError::NoFeasibleDeployment)?;
        Ok(AlgoResult {
            algorithm: self.name().to_owned(),
            deployment,
            value,
            evaluations,
            wall_time: started.elapsed(),
            convergence: trace,
            full_evaluations: inc.full_evaluations(),
            delta_evaluations: inc.delta_evaluations(),
            pruned_evaluations: 0,
            hierarchy_clusters: 0,
            refine_rounds: 0,
        })
    }
}

impl RedeploymentAlgorithm for GeneticAlgorithm {
    fn name(&self) -> &str {
        "genetic"
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
        if model.component_count() == 0 {
            let d = Deployment::new();
            let value = objective.evaluate(model, &d);
            return Ok(AlgoResult {
                algorithm: self.name().to_owned(),
                deployment: d,
                value,
                evaluations: 1,
                wall_time: started.elapsed(),
                convergence: vec![(1, value)],
                full_evaluations: 1,
                delta_evaluations: 0,
                pruned_evaluations: 0,
                hierarchy_clusters: 0,
                refine_rounds: 0,
            });
        }
        let c = compile(model, objective, constraints);
        self.search(&c, model, initial, started)
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
        let r = GeneticAlgorithm::new()
            .run(&m, &Availability, m.constraints(), Some(&init))
            .unwrap();
        r.deployment.validate(&m).unwrap();
        m.constraints().check(&m, &r.deployment).unwrap();
    }

    #[test]
    fn improves_on_the_initial_deployment() {
        let (m, init) = generated(2);
        let before = Availability.evaluate(&m, &init);
        let r = GeneticAlgorithm::new()
            .run(&m, &Availability, m.constraints(), Some(&init))
            .unwrap();
        assert!(r.value >= before - 1e-12);
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let (m, _) = generated(3);
        let cfg = GeneticConfig {
            generations: 10,
            ..GeneticConfig::default()
        };
        let a = GeneticAlgorithm::with_config(cfg)
            .run(&m, &Availability, m.constraints(), None)
            .unwrap();
        let b = GeneticAlgorithm::with_config(cfg)
            .run(&m, &Availability, m.constraints(), None)
            .unwrap();
        assert_eq!(a.deployment, b.deployment);
    }

    #[test]
    fn handles_empty_models() {
        let m = DeploymentModel::new();
        let r = GeneticAlgorithm::new()
            .run(&m, &Availability, m.constraints(), None)
            .unwrap();
        assert!(r.deployment.is_empty());
    }
}
