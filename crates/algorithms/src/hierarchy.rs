//! Hierarchical placement: coarse-solve over super-nodes, refine per cluster.
//!
//! Flat search bodies score candidate moves against every host, so their
//! cost grows with the full host count even though most hosts are
//! indistinguishable from a single component's point of view. The
//! hierarchical engine decomposes the problem along the
//! [`Hierarchy`](redep_model::Hierarchy) super-node partition instead:
//!
//! 1. **Coarse solve** — placement over the aggregated cluster model
//!    ([`Hierarchy::coarse_model`](redep_model::Hierarchy::coarse_model))
//!    under the cluster-projected constraints
//!    ([`redep_model::CompiledConstraints::project_to_clusters`]), assigning
//!    every component to a *cluster*.
//! 2. **Expand** — a deterministic first-fit picks a concrete host inside
//!    each component's cluster (with a global-first-fit repair for
//!    components whose cluster cannot fit them).
//! 3. **Refine** — each cluster is an independent shard: a local search
//!    improves host choices *within* the cluster, with candidate moves
//!    restricted to the component's incident-link frontier (hosts where its
//!    logical neighbors sit) plus a small deterministic exploration ring.
//!    Hosts not scored are charged to the `pruned_evaluations` counter, so
//!    the cut is visible in telemetry.
//!
//! Refinement shards never read another shard's mutable state: every shard
//! starts from the same expanded assignment and only moves its own cluster's
//! components between its own cluster's hosts, so the merged result — taken
//! in cluster order, the order `parallel.rs` returns shard results in — is
//! a pure function of the inputs, byte-identical at any thread count.
//!
//! Cross-cluster constraint safety: collocated groups are preserved by the
//! coarse projection (members land in one cluster, hence one shard), and a
//! separated member in another cluster sits on a host outside this shard's
//! cluster by construction, so stale cross-shard assignments can never make
//! an admitted move invalid. A final full check backs this with a fallback
//! to the unrefined assignment.

use crate::compiled::{Compiled, Constraints};
use crate::parallel::run_shards_beside;
use crate::stochastic::restarts;
use crate::traits::{baseline, choose, AlgoError, AlgoResult};
use redep_model::{CompiledConstraints, Deployment, Direction, UNASSIGNED};
use std::sync::Arc;
use std::time::Instant;

/// Configuration of a hierarchical run, shared by all `*-h` algorithm
/// variants (see e.g. `AvalaAlgorithm::with_hierarchy`). The clusters are
/// the snapshot's [`CompiledModel::hierarchy`](redep_model::CompiledModel::hierarchy):
/// [`Hierarchy::build`](redep_model::Hierarchy::build)'s under
/// [`HierarchyConfig::default`](redep_model::HierarchyConfig::default),
/// built once per snapshot.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct HierarchicalConfig {
    /// Worker threads for the per-cluster refinement shards. Any value
    /// produces byte-identical results; more threads only reduce wall time.
    pub threads: usize,
}

impl Default for HierarchicalConfig {
    fn default() -> Self {
        HierarchicalConfig { threads: 1 }
    }
}

/// Upper bound on within-cluster refinement passes; refinement stops early
/// once a pass makes no move.
const REFINE_ROUNDS: usize = 2;

/// Extra candidate hosts examined per component beyond its incident-link
/// frontier: a deterministic window of the cluster's host list, rotated by
/// component index so different components explore different hosts.
pub(crate) const EXPLORATION_RING: usize = 2;

/// What a coarse solver produced: a component→cluster assignment (entries
/// may be [`UNASSIGNED`]; the expand step repairs those globally) plus its
/// scoring counters.
pub(crate) struct CoarseOutcome {
    pub cluster_assign: Vec<u32>,
    pub full: u64,
    pub delta: u64,
}

/// The hierarchical engine's raw result and the baseline guard's input.
pub(crate) struct HierOutcome {
    pub assign: Vec<u32>,
    pub value: f64,
    /// The initial deployment's value when it is feasible
    /// ([`baseline`]), priced beside the refinement shards.
    pub baseline: Option<f64>,
    pub full: u64,
    pub delta: u64,
    pub pruned: u64,
    pub clusters: u64,
    pub refine_rounds: u64,
    pub convergence: Vec<(u64, f64)>,
}

/// Avala-flavored coarse greedy, component-major: walk components in
/// descending seed-rank order (interaction frequency minus relative memory
/// footprint, like the flat avala pick rule) and put each one on the
/// admissible cluster where its already-placed neighbors accumulate the
/// highest interaction affinity, ties to the larger-capacity cluster. The
/// per-component affinity row is maintained incrementally on placement, so
/// the whole stage is O(n·k + L) with no rescans. (Flat avala sums each
/// affinity in neighbor order instead; incremental accumulation changes
/// the float summation order, so the two are not interchangeable without
/// changing flat avala's results.)
pub(crate) fn coarse_greedy(cc: &Compiled<'_>) -> CoarseOutcome {
    let cm = &cc.model;
    let k = cm.n_hosts();
    let n = cm.n_comps();
    let mut assign = vec![UNASSIGNED; n];
    if n == 0 || k == 0 {
        return CoarseOutcome {
            cluster_assign: assign,
            full: 0,
            delta: 0,
        };
    }

    // Cluster preference for affinity ties: descending capacity, then index.
    let mut order: Vec<u32> = (0..k as u32).collect();
    order.sort_by(|&a, &b| {
        cm.host_memory()[b as usize]
            .total_cmp(&cm.host_memory()[a as usize])
            .then(a.cmp(&b))
    });

    let max_mem = cm.comp_memory().iter().cloned().fold(0.0, f64::max);
    let seed: Vec<f64> = (0..n as u32)
        .map(|ci| {
            let freq: f64 = cm
                .incident(ci)
                .iter()
                .map(|&li| cm.links()[li as usize].frequency)
                .sum();
            let mem = cm.comp_memory()[ci as usize];
            freq - if max_mem > 0.0 { mem / max_mem } else { 0.0 }
        })
        .collect();
    let mut comp_order: Vec<u32> = (0..n as u32).collect();
    comp_order.sort_by(|&a, &b| {
        seed[b as usize]
            .total_cmp(&seed[a as usize])
            .then(a.cmp(&b))
    });

    let mut load = cc.constraints.load_of(&assign);
    // affinity[ci·k + h]: interaction volume ci would keep close on cluster h.
    let mut affinity = vec![0.0f64; n * k];
    for &ci in &comp_order {
        let row = &affinity[ci as usize * k..(ci as usize + 1) * k];
        let mut best: Option<(u32, f64)> = None;
        for &h in &order {
            if !cc.constraints.admits_with_load(&assign, &load, ci, h) {
                continue;
            }
            let a = row[h as usize];
            // `order` already encodes the tie preference, so strictly-better
            // affinity is the only way to displace an earlier candidate.
            if best.is_none_or(|(_, ba)| a > ba) {
                best = Some((h, a));
            }
        }
        let Some((h, _)) = best else {
            continue; // no admissible cluster: the expand step repairs globally
        };
        assign[ci as usize] = h;
        load[h as usize] += cm.comp_memory()[ci as usize];
        for &li in cm.incident(ci) {
            let l = &cm.links()[li as usize];
            let other = l.other(ci);
            if assign[other as usize] == UNASSIGNED {
                affinity[other as usize * k + h as usize] += l.frequency;
            }
        }
    }
    CoarseOutcome {
        cluster_assign: assign,
        full: 0,
        delta: 0,
    }
}

/// Stochastic-flavored coarse solver: the flat Stochastic restart loop
/// ([`restarts`]) run on the coarse model, clusters standing in for hosts,
/// on up to `threads` workers.
pub(crate) fn coarse_random(
    cc: &Compiled<'_>,
    seed: u64,
    iterations: u32,
    threads: u32,
) -> CoarseOutcome {
    let r = restarts(cc, seed, iterations, threads);
    let cluster_assign = r
        .best
        .map(|(a, _)| a)
        // No complete shuffle placement: fall back to the greedy coarse
        // assignment (the expand step repairs any remaining holes).
        .unwrap_or_else(|| coarse_greedy(cc).cluster_assign);
    CoarseOutcome {
        cluster_assign,
        full: r.full,
        delta: r.delta,
    }
}

/// Annealing-flavored coarse solver: greedy start, then `passes`
/// deterministic best-improvement sweeps moving single components between
/// clusters on the coarse scorer.
pub(crate) fn coarse_descent(cc: &Compiled<'_>, passes: usize) -> CoarseOutcome {
    let cm = &cc.model;
    let k = cm.n_hosts() as u32;
    let n = cm.n_comps() as u32;
    let mut out = coarse_greedy(cc);
    if n == 0 || k == 0 || out.cluster_assign.contains(&UNASSIGNED) {
        return out;
    }
    let mut inc = cc.scorer();
    inc.assign_from(&out.cluster_assign);
    let mut load = cc.constraints.load_of(&out.cluster_assign);
    let (mut cand, mut priced) = (Vec::new(), Vec::new());
    for _ in 0..passes {
        let mut moved = false;
        for ci in 0..n {
            let cur = out.cluster_assign[ci as usize];
            let cur_value = inc.value();
            cand.clear();
            let others = (0..k).filter(|&h| h != cur);
            cc.constraints
                .admitted(&out.cluster_assign, &load, ci, others, &mut cand);
            inc.peek_many(ci, &cand, &mut priced);
            if let Some(i) = best_admissible(cc, cur_value, &priced, |_| true) {
                let (h, mem) = (cand[i], cm.comp_memory()[ci as usize]);
                load[cur as usize] -= mem;
                load[h as usize] += mem;
                inc.commit(ci, i);
                out.cluster_assign[ci as usize] = h;
                moved = true;
            }
        }
        if !moved {
            break;
        }
    }
    out.full += inc.full_evaluations();
    out.delta += inc.delta_evaluations();
    out
}

/// Best-improvement selection over a priced candidate list: the index of
/// the candidate that improves on `cur_value` the most, first one winning
/// ties, the admissibility probe `admits(i)` run only for candidates that
/// would take the lead. The engine's objectives are dense, so "improves"
/// is a strict compare in the objective's direction, resolved once.
fn best_admissible(
    c: &Compiled<'_>,
    cur_value: f64,
    priced: &[f64],
    admits: impl Fn(usize) -> bool,
) -> Option<usize> {
    let maximize = c.objective.direction() == Direction::Maximize;
    let mut best = None;
    let mut lead = cur_value;
    for (i, &v) in priced.iter().enumerate() {
        let better = if maximize { v > lead } else { v < lead };
        if better && admits(i) {
            best = Some(i);
            lead = v;
        }
    }
    best
}

/// One refinement shard's result.
struct RefineOut {
    /// Final host per component of this shard's cluster.
    positions: Vec<(u32, u32)>,
    pruned: u64,
    delta: u64,
    rounds: u64,
}

/// Runs the full hierarchical engine: cluster, coarse-solve (via the
/// algorithm-flavored `coarse` callback), expand, refine in parallel — and,
/// beside the refinement, price `initial` for the baseline guard.
/// `dense` is [`Compiled::dense_constraints`] of `c`: the engine only runs
/// on all-dense inputs.
pub(crate) fn run_hierarchical<F>(
    c: &Compiled<'_>,
    dense: &CompiledConstraints,
    cfg: &HierarchicalConfig,
    initial: Option<&Deployment>,
    coarse: F,
) -> Result<HierOutcome, AlgoError>
where
    F: FnOnce(&Compiled<'_>) -> CoarseOutcome,
{
    let cm = &c.model;
    let n_comps = cm.n_comps();
    let n_hosts = cm.n_hosts();

    let hier = cm.hierarchy();
    let k = hier.n_clusters();

    if n_comps == 0 {
        let mut inc = c.scorer();
        let value = inc.score_full();
        return Ok(HierOutcome {
            assign: Vec::new(),
            value,
            baseline: baseline(c, initial),
            full: inc.full_evaluations(),
            delta: 0,
            pruned: 0,
            clusters: k as u64,
            refine_rounds: 0,
            convergence: vec![(0, value)],
        });
    }

    // 1. Coarse solve on the super-node model under projected constraints.
    let coarse_compiled = Compiled {
        model: Arc::new(hier.coarse_model(cm)),
        objective: c.objective.clone(),
        constraints: Constraints::Dense(dense.project_to_clusters(
            hier.cluster_map(),
            k,
            hier.capacities(),
        )),
    };
    let coarse_out = coarse(&coarse_compiled);

    // 2. Expand: concrete host within each component's cluster, repairing
    //    globally when the cluster cannot fit the component.
    let mut assign = vec![UNASSIGNED; n_comps];
    let mut load = c.constraints.load_of(&assign);
    'comp: for ci in 0..n_comps as u32 {
        let cluster = coarse_out.cluster_assign[ci as usize];
        if cluster != UNASSIGNED {
            for &h in hier.hosts(cluster) {
                if c.constraints.admits_with_load(&assign, &load, ci, h) {
                    assign[ci as usize] = h;
                    load[h as usize] += cm.comp_memory()[ci as usize];
                    continue 'comp;
                }
            }
        }
        for h in 0..n_hosts as u32 {
            if c.constraints.admits_with_load(&assign, &load, ci, h) {
                assign[ci as usize] = h;
                load[h as usize] += cm.comp_memory()[ci as usize];
                continue 'comp;
            }
        }
        return Err(AlgoError::NoFeasibleDeployment);
    }

    let mut inc = c.scorer();
    let base_value = inc.assign_from(&assign);
    let mut convergence = vec![(0u64, base_value)];

    // 3. Refine each cluster independently. Every shard clones the same
    //    post-expand scorer and moves only its own cluster's components
    //    between its own cluster's hosts, so shards are pure functions of
    //    the expanded assignment and merge deterministically in cluster
    //    order at any thread count. The baseline guard's pricing of the
    //    initial deployment depends on none of it and runs beside them.
    let mut comps_by_cluster: Vec<Vec<u32>> = vec![Vec::new(); k];
    for ci in 0..n_comps as u32 {
        let h = assign[ci as usize];
        comps_by_cluster[hier.cluster_of(h) as usize].push(ci);
    }
    let base_delta = inc.delta_evaluations();
    let threads = cfg.threads.max(1) as u32;
    let baseline_job = || baseline(c, initial);
    let (baseline, outs) = run_shards_beside(k as u32, threads, baseline_job, |shard| {
        let mut local = inc.clone();
        let mut local_load = load.clone();
        let hosts = hier.hosts(shard);
        let comps = &comps_by_cluster[shard as usize];
        let mut pruned = 0u64;
        let mut rounds = 0u64;
        let (mut cand, mut priced) = (Vec::<u32>::new(), Vec::new());
        for _ in 0..REFINE_ROUNDS {
            if comps.is_empty() {
                break;
            }
            rounds += 1;
            let mut moved = false;
            for &ci in comps {
                let cur_host = local.assignment()[ci as usize];
                // Frontier: hosts (in this cluster) where the component's
                // logical neighbors currently sit.
                cand.clear();
                for &li in cm.incident(ci) {
                    let l = &cm.links()[li as usize];
                    let h = local.assignment()[l.other(ci) as usize];
                    if h != UNASSIGNED && hier.cluster_of(h) == shard {
                        cand.push(h);
                    }
                }
                // Deterministic exploration ring: a rotated window of the
                // cluster's host list, so pruning can't trap a component
                // next to its neighbors forever.
                let start = ci as usize % hosts.len();
                for r in 0..EXPLORATION_RING.min(hosts.len()) {
                    cand.push(hosts[(start + r) % hosts.len()]);
                }
                cand.sort_unstable();
                cand.dedup();
                // The flat path would score a move to every host; charge
                // the ones the frontier cut skipped.
                pruned += (n_hosts as u64).saturating_sub(cand.len() as u64);
                cand.retain(|&h| h != cur_host);
                // Price first, gate on admissibility only for improving
                // candidates: every frontier candidate gets a real delta
                // scoring while the O(groups) constraint probe runs only
                // for the few that could win. Selection is unchanged —
                // an inadmissible improver was skipped before too.
                let cur_value = local.value();
                local.peek_many(ci, &cand, &mut priced);
                let best = best_admissible(c, cur_value, &priced, |i| {
                    c.constraints
                        .admits_with_load(local.assignment(), &local_load, ci, cand[i])
                });
                if let Some(i) = best {
                    let (h, mem) = (cand[i], cm.comp_memory()[ci as usize]);
                    local_load[cur_host as usize] -= mem;
                    local_load[h as usize] += mem;
                    local.commit(ci, i);
                    moved = true;
                }
            }
            if !moved {
                break;
            }
        }
        RefineOut {
            positions: comps
                .iter()
                .map(|&ci| (ci, local.assignment()[ci as usize]))
                .collect(),
            pruned,
            delta: local.delta_evaluations() - base_delta,
            rounds,
        }
    });

    // 4. Merge in cluster order (shards own disjoint components).
    let mut pruned = 0u64;
    let mut shard_delta = 0u64;
    let mut rounds_max = 0u64;
    let mut refined = assign.clone();
    for o in outs {
        pruned += o.pruned;
        shard_delta += o.delta;
        rounds_max = rounds_max.max(o.rounds);
        for (ci, h) in o.positions {
            refined[ci as usize] = h;
        }
    }
    let mut value = if c.constraints.check(&refined) {
        let v = inc.assign_from(&refined);
        assign = refined;
        v
    } else {
        // Shard-local admissibility should compose (see module docs); if it
        // ever does not, the unrefined assignment is still valid.
        debug_assert!(false, "merged refinement broke a constraint");
        base_value
    };
    convergence.push((1, value));

    // 5. Global frontier polish: one sequential best-improvement pass over
    //    the merged assignment with candidates drawn from each component's
    //    incident-link frontier across *all* clusters. This recovers the
    //    couplings the decomposition cut (a component whose chattiest
    //    neighbor landed in another cluster can now follow it) and, being a
    //    deterministic pass on the master state, preserves byte-identical
    //    results at any thread count.
    let mut load = c.constraints.load_of(&assign);
    let (mut cand, mut priced) = (Vec::<u32>::new(), Vec::new());
    for ci in 0..n_comps as u32 {
        let cur_host = assign[ci as usize];
        cand.clear();
        for &li in cm.incident(ci) {
            let l = &cm.links()[li as usize];
            let h = assign[l.other(ci) as usize];
            if h != UNASSIGNED {
                cand.push(h);
            }
        }
        cand.sort_unstable();
        cand.dedup();
        pruned += (n_hosts as u64).saturating_sub(cand.len() as u64);
        cand.retain(|&h| h != cur_host);
        let cur_value = inc.value();
        inc.peek_many(ci, &cand, &mut priced);
        let best = best_admissible(c, cur_value, &priced, |i| {
            c.constraints.admits_with_load(&assign, &load, ci, cand[i])
        });
        if let Some(i) = best {
            let (h, mem) = (cand[i], cm.comp_memory()[ci as usize]);
            load[cur_host as usize] -= mem;
            load[h as usize] += mem;
            inc.commit(ci, i);
            assign[ci as usize] = h;
            value = priced[i];
        }
    }
    debug_assert!(c.constraints.check(&assign));
    convergence.push((2, value));

    Ok(HierOutcome {
        assign,
        value,
        baseline,
        full: inc.full_evaluations() + coarse_out.full,
        delta: inc.delta_evaluations() + shard_delta + coarse_out.delta,
        pruned,
        clusters: k as u64,
        refine_rounds: rounds_max,
        convergence,
    })
}

/// Wraps a [`HierOutcome`] into an [`AlgoResult`] behind the baseline guard.
///
/// `evaluations` counts every deployment scoring the engine performed (full
/// and delta alike): the hierarchical variants price complete deployments
/// through incremental moves, so the full/delta split — not a separate
/// counter — is the honest cost measure.
pub(crate) fn finish_hierarchical(
    c: &Compiled<'_>,
    initial: Option<&Deployment>,
    started: Instant,
    name: &str,
    out: HierOutcome,
) -> Result<AlgoResult, AlgoError> {
    let candidate = Some((c.model.decode_assignment(&out.assign), out.value));
    let (deployment, value) =
        choose(c, initial, out.baseline, candidate).ok_or(AlgoError::NoFeasibleDeployment)?;
    Ok(AlgoResult {
        algorithm: name.to_owned(),
        deployment,
        value,
        evaluations: out.full + out.delta,
        wall_time: started.elapsed(),
        convergence: out.convergence,
        full_evaluations: out.full,
        delta_evaluations: out.delta,
        pruned_evaluations: out.pruned,
        hierarchy_clusters: out.clusters,
        refine_rounds: out.refine_rounds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiled::compile;
    use redep_model::{Availability, GeneratedSystem, Generator, GeneratorConfig};

    fn generated(hosts: usize, comps: usize, seed: u64) -> GeneratedSystem {
        Generator::generate(&GeneratorConfig::sized(hosts, comps).with_seed(seed)).unwrap()
    }

    fn compiled(s: &GeneratedSystem) -> Compiled<'_> {
        compile(&s.model, &Availability, s.model.constraints())
    }

    fn engine(c: &Compiled<'_>, cfg: &HierarchicalConfig) -> HierOutcome {
        let dense = c.dense_constraints().expect("built-in inputs are dense");
        run_hierarchical(c, dense, cfg, None, coarse_greedy).unwrap()
    }

    #[test]
    fn coarse_greedy_places_every_component() {
        let s = generated(12, 40, 1);
        let c = compiled(&s);
        let hier = c.model.hierarchy();
        let cc = Compiled {
            model: Arc::new(hier.coarse_model(&c.model)),
            objective: c.objective.clone(),
            constraints: Constraints::Dense(c.dense_constraints().unwrap().project_to_clusters(
                hier.cluster_map(),
                hier.n_clusters(),
                hier.capacities(),
            )),
        };
        let out = coarse_greedy(&cc);
        assert!(out.cluster_assign.iter().all(|&a| a != UNASSIGNED));
        assert!(cc.constraints.check(&out.cluster_assign));
    }

    #[test]
    fn engine_produces_a_valid_deployment() {
        let s = generated(12, 40, 2);
        let c = compiled(&s);
        let out = engine(&c, &HierarchicalConfig::default());
        assert!(c.constraints.check(&out.assign));
        assert!(out.clusters > 0);
        assert!(out.pruned > 0, "frontier pruning skipped nothing");
    }

    #[test]
    fn refinement_never_regresses_the_expanded_assignment() {
        for seed in [1u64, 2, 3] {
            let s = generated(10, 30, seed);
            let c = compiled(&s);
            let out = engine(&c, &HierarchicalConfig::default());
            let (p0, v0) = out.convergence[0];
            let (_, v1) = *out.convergence.last().unwrap();
            assert_eq!(p0, 0);
            assert!(
                c.objective.is_improvement(v0, v1) || v1 == v0,
                "seed {seed}: refinement regressed {v0} -> {v1}"
            );
        }
    }

    #[test]
    fn engine_is_thread_invariant() {
        let s = generated(16, 48, 3);
        let c = compiled(&s);
        let run = |threads| engine(&c, &HierarchicalConfig { threads });
        let base = run(1);
        for threads in [2usize, 8] {
            let other = run(threads);
            assert_eq!(base.assign, other.assign, "threads {threads}");
            assert_eq!(base.value, other.value, "threads {threads}");
            assert_eq!(base.pruned, other.pruned, "threads {threads}");
        }
    }
}
