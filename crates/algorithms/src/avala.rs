//! Avala: the greedy best-host / best-component algorithm.
//!
//! "Avala is a greedy algorithm that incrementally assigns software
//! components to the hardware hosts. At each step of the algorithm, the goal
//! is to select the assignment that will maximally contribute to the
//! objective function, by selecting the 'best' host and 'best' software
//! component. Selecting the best hardware host is performed by choosing a
//! host with the highest sum of network reliabilities and bandwidths with
//! other hosts in the system, and the highest memory capacity. Similarly,
//! selecting the best software component is performed by choosing the
//! component with the highest frequency of interaction with other components
//! in the system, and the lowest required memory. […] The complexity of this
//! algorithm is O(n³)." (§5.1)

use crate::compiled::{compile, Compiled};
use crate::hierarchy::{coarse_greedy, finish_hierarchical, run_hierarchical, HierarchicalConfig};
use crate::traits::{keep_best, preflight, AlgoError, AlgoResult, RedeploymentAlgorithm};
use redep_model::{ConstraintChecker, Deployment, DeploymentModel, HostId, Objective, UNASSIGNED};
use std::time::Instant;

/// The paper's greedy algorithm. Deterministic (no randomness).
///
/// Component seed ranks and host affinities are incident-link sums over
/// the [`redep_model::CompiledModel`] CSR index (O(deg(c)) per candidate
/// instead of a map walk), and the convergence trace is maintained through
/// [`redep_model::IncrementalScore`] delta moves instead of re-evaluating
/// the partial deployment from scratch after every greedy assignment.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct AvalaAlgorithm {
    hierarchy: Option<HierarchicalConfig>,
}

impl AvalaAlgorithm {
    /// Creates the algorithm.
    pub fn new() -> Self {
        AvalaAlgorithm::default()
    }

    /// Runs the hierarchical variant (`avala-h`): the avala-flavored coarse
    /// greedy places components onto super-node clusters, then frontier-
    /// pruned refinement picks hosts within each cluster in parallel.
    /// Needs dense forms of both objective and checker; without them the
    /// flat body runs and the result is reported as `avala`.
    pub fn with_hierarchy(mut self, config: HierarchicalConfig) -> Self {
        self.hierarchy = Some(config);
        self
    }

    /// Host desirability: Σ (reliability + normalized bandwidth) to other
    /// hosts, plus normalized memory capacity.
    fn host_rank(model: &DeploymentModel, h: HostId, max_bandwidth: f64, max_memory: f64) -> f64 {
        let mut rank = 0.0;
        for other in model.host_ids() {
            if other == h {
                continue;
            }
            rank += model.reliability(h, other);
            let bw = model.bandwidth(h, other);
            if bw.is_finite() && max_bandwidth > 0.0 {
                rank += bw / max_bandwidth;
            } else if bw.is_infinite() {
                rank += 1.0;
            }
        }
        let mem = model.host(h).map(|x| x.memory()).unwrap_or(0.0);
        if mem.is_finite() && max_memory > 0.0 {
            rank += mem / max_memory;
        } else if mem.is_infinite() {
            rank += 1.0;
        }
        rank
    }

    fn search(
        c: &Compiled<'_>,
        model: &DeploymentModel,
        initial: Option<&Deployment>,
        started: Instant,
    ) -> Result<AlgoResult, AlgoError> {
        let cm = &c.model;
        let n_hosts = cm.n_hosts();
        let n_comps = cm.n_comps();
        let max_bandwidth = model
            .physical_links()
            .map(|l| l.bandwidth())
            .filter(|b| b.is_finite())
            .fold(0.0f64, f64::max);
        let max_comp_memory = cm.comp_memory().iter().copied().fold(0.0f64, f64::max);
        let max_host_memory = cm
            .host_memory()
            .iter()
            .copied()
            .filter(|m| m.is_finite())
            .fold(0.0f64, f64::max);

        // Rank hosts once and sort dense indices (ties to the lower id).
        let ranks: Vec<f64> = cm
            .host_ids()
            .iter()
            .map(|&h| Self::host_rank(model, h, max_bandwidth, max_host_memory))
            .collect();
        let mut host_order: Vec<u32> = (0..n_hosts as u32).collect();
        host_order.sort_by(|&a, &b| {
            ranks[b as usize]
                .partial_cmp(&ranks[a as usize])
                .expect("ranks are finite")
                .then(a.cmp(&b))
        });

        // First component on a host: highest total interaction frequency
        // (an incident-link sum over the CSR index), lowest memory.
        let seed_ranks: Vec<f64> = (0..n_comps as u32)
            .map(|ci| {
                let freq: f64 = cm
                    .incident(ci)
                    .iter()
                    .map(|&li| cm.links()[li as usize].frequency)
                    .sum();
                let mem = cm.comp_memory()[ci as usize];
                let mem_norm = if max_comp_memory > 0.0 {
                    mem / max_comp_memory
                } else {
                    0.0
                };
                freq - mem_norm
            })
            .collect();

        let mut assign: Vec<u32> = vec![UNASSIGNED; n_comps];
        let mut unassigned: Vec<bool> = vec![true; n_comps];
        // Per-host memory load, maintained incrementally so admissibility is
        // O(groups) per candidate instead of an O(n_comps) matrix rescan —
        // the rescan made the greedy loop accidentally cubic (~4M memory
        // probes at 20×160) and was the bulk of avala's 120 evals/s anomaly.
        let mut load: Vec<f64> = c.constraints.load_of(&assign);
        let mut left = n_comps;
        let mut inc = c.scorer();
        let mut evaluations = 0u64;
        let mut convergence = Vec::new();

        for &h in &host_order {
            if left == 0 {
                break;
            }
            let mut host_empty = true;
            loop {
                // Pick the best admissible component for this host. After the
                // seed, that is the one with the highest interaction
                // frequency with the components already placed here.
                let mut best: Option<(u32, f64)> = None;
                for ci in 0..n_comps as u32 {
                    if !unassigned[ci as usize]
                        || !c.constraints.admits_with_load(&assign, &load, ci, h)
                    {
                        continue;
                    }
                    let score = if host_empty {
                        seed_ranks[ci as usize]
                    } else {
                        cm.incident(ci)
                            .iter()
                            .map(|&li| {
                                let l = &cm.links()[li as usize];
                                if assign[l.other(ci) as usize] == h {
                                    l.frequency
                                } else {
                                    0.0
                                }
                            })
                            .sum()
                    };
                    let better = match best {
                        Some((bc, bs)) => score > bs || (score == bs && ci < bc),
                        None => true,
                    };
                    if better {
                        best = Some((ci, score));
                    }
                }
                let Some((ci, _)) = best else {
                    break; // host full (or nothing admissible): next host
                };
                assign[ci as usize] = h;
                load[h as usize] += cm.comp_memory()[ci as usize];
                unassigned[ci as usize] = false;
                host_empty = false;
                left -= 1;
                // Trace the partial deployment's value after every greedy
                // assignment via a delta move (objectives score unplaced
                // interactions as absent, so partial scoring is well-defined).
                inc.set(ci, h);
                convergence.push(((n_comps - left) as u64, inc.value()));
            }
        }

        let candidate = if left == 0 && c.constraints.check(&assign) {
            evaluations += 1;
            let value = inc.score_full();
            Some((cm.decode_assignment(&assign), value))
        } else {
            None
        };
        let full = inc.full_evaluations();
        let delta = inc.delta_evaluations();
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
const FLAT_NAME: &str = "avala";

impl RedeploymentAlgorithm for AvalaAlgorithm {
    fn name(&self) -> &str {
        if self.hierarchy.is_some() {
            "avala-h"
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
            let out = run_hierarchical(&c, dense, hcfg, initial, coarse_greedy)?;
            return finish_hierarchical(&c, initial, started, self.name(), out);
        }
        Self::search(&c, model, initial, started)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redep_model::{Availability, Constraint, Generator, GeneratorConfig};

    fn generated(seed: u64) -> (DeploymentModel, Deployment) {
        let s = Generator::generate(&GeneratorConfig::sized(4, 12).with_seed(seed)).unwrap();
        (s.model, s.initial)
    }

    #[test]
    fn produces_valid_deployments() {
        let (m, init) = generated(1);
        let r = AvalaAlgorithm::new()
            .run(&m, &Availability, m.constraints(), Some(&init))
            .unwrap();
        r.deployment.validate(&m).unwrap();
        m.constraints().check(&m, &r.deployment).unwrap();
    }

    #[test]
    fn collocates_the_chatty_pair() {
        let mut m = DeploymentModel::new();
        let h0 = m.add_host("h0").unwrap();
        let h1 = m.add_host("h1").unwrap();
        m.set_physical_link(h0, h1, |l| l.set_reliability(0.3))
            .unwrap();
        let a = m.add_component("a").unwrap();
        let b = m.add_component("b").unwrap();
        let c = m.add_component("c").unwrap();
        m.set_logical_link(a, b, |l| l.set_frequency(10.0)).unwrap();
        m.set_logical_link(a, c, |l| l.set_frequency(0.1)).unwrap();
        let r = AvalaAlgorithm::new()
            .run(&m, &Availability, m.constraints(), None)
            .unwrap();
        assert!(r.deployment.collocated(a, b));
    }

    #[test]
    fn is_deterministic() {
        let (m, _) = generated(2);
        let a = AvalaAlgorithm::new()
            .run(&m, &Availability, m.constraints(), None)
            .unwrap();
        let b = AvalaAlgorithm::new()
            .run(&m, &Availability, m.constraints(), None)
            .unwrap();
        assert_eq!(a.deployment, b.deployment);
    }

    #[test]
    fn respects_pinning() {
        let (mut m, _) = generated(3);
        let c0 = m.component_ids()[0];
        let h3 = m.host_ids()[3];
        m.constraints_mut().add(Constraint::PinnedTo {
            component: c0,
            hosts: std::collections::BTreeSet::from([h3]),
        });
        let r = AvalaAlgorithm::new()
            .run(&m, &Availability, m.constraints(), None)
            .unwrap();
        assert_eq!(r.deployment.host_of(c0), Some(h3));
    }

    #[test]
    fn greedy_beats_or_matches_a_single_random_placement() {
        let (m, init) = generated(4);
        let random = Availability.evaluate(&m, &init);
        let r = AvalaAlgorithm::new()
            .run(&m, &Availability, m.constraints(), None)
            .unwrap();
        assert!(
            r.value >= random - 1e-9,
            "avala {} vs random {random}",
            r.value
        );
    }
}
