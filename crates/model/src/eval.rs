//! Compiled evaluation core: dense-index model snapshots and incremental
//! (delta) objective scoring.
//!
//! The paper's premise is that redeployment algorithms must score very large
//! numbers of candidate deployments at runtime (§5: the Exact algorithm's kⁿ
//! blow-up is the reason Avala, Stochastic and DecAp exist). The naive
//! [`Objective::evaluate`] walks a `BTreeMap` of logical links with per-pair
//! `BTreeMap` reliability lookups on *every* candidate — even when only one
//! component moved. This module removes that cost without changing any
//! observable result:
//!
//! * [`CompiledModel`] — an immutable snapshot of a [`DeploymentModel`]
//!   (built once per model version by [`DeploymentModel::compiled`]) with
//!   hosts/components flattened to dense `u32` indices, logical links in a
//!   flat `Vec<CompiledLink>` plus a per-component incident-link CSR index,
//!   and host-pair reliability/security/delay/bandwidth as dense n×n
//!   matrices. On first use it computes (and caches) the all-pairs best-path
//!   reliability matrix, turning [`PathAwareAvailability`] from a Dijkstra
//!   per pair into an O(1) lookup per link while objectives that never need
//!   paths skip the O(n²) build entirely.
//! * [`CompiledObjective`] — the flattened form of the six built-in
//!   objectives (obtained via [`Objective::compiled`]).
//! * [`IncrementalScore`] — `score_full` / `set` / `peek` delta scoring:
//!   moving one component re-touches only its incident links, O(deg(c))
//!   instead of O(L).
//! * [`CompiledConstraints`] — the dense form of [`ConstraintSet`] /
//!   [`MemoryConstraint`] checks (obtained via
//!   [`ConstraintChecker::compile`]).
//! * [`Uncompiled`] — a wrapper hiding an objective's or a checker's dense
//!   form, so algorithms score it through [`Objective::evaluate`] and check
//!   it through [`ConstraintChecker::check`] / `admits` like any custom
//!   one (used by benchmarks and equivalence tests).
//!
//! # Exactness
//!
//! The compiled evaluators are written to be *bit-identical* to the naive
//! ones for full evaluations: links are stored in the same
//! ([`ComponentPair`]) order the `BTreeMap` iterates in, sums run
//! left-to-right in that order, and the path-reliability matrix replays
//! [`DeploymentModel::best_path`]'s exact search per pair. Delta updates
//! (`set`/`peek`) are subject to ordinary floating-point drift of the order
//! of a few ULPs; callers that need exact agreement with `evaluate`
//! (e.g. for recording a best-so-far value) re-anchor with
//! [`IncrementalScore::score_full`].
//!
//! [`Objective::evaluate`]: crate::Objective::evaluate
//! [`Objective::compiled`]: crate::Objective::compiled
//! [`ConstraintChecker::compile`]: crate::ConstraintChecker::compile
//! [`ConstraintChecker::check`]: crate::ConstraintChecker::check
//! [`ConstraintSet`]: crate::ConstraintSet
//! [`MemoryConstraint`]: crate::MemoryConstraint
//! [`PathAwareAvailability`]: crate::PathAwareAvailability
//! [`ComponentPair`]: crate::ComponentPair

use crate::deployment::Deployment;
use crate::hierarchy::{Hierarchy, HierarchyConfig};
use crate::ids::{ComponentId, HostId};
use crate::model::DeploymentModel;
use crate::objectives::{Direction, Latency};
use std::cmp::Ordering;
use std::sync::{Arc, OnceLock};

/// Sentinel host index marking an unassigned component in a dense
/// assignment vector.
pub const UNASSIGNED: u32 = u32::MAX;

/// One logical link in dense-index form.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct CompiledLink {
    /// Dense index of the lower-id endpoint component.
    pub a: u32,
    /// Dense index of the higher-id endpoint component.
    pub b: u32,
    /// Interaction frequency (events per time unit).
    pub frequency: f64,
    /// Average event size.
    pub event_size: f64,
    /// Precomputed `frequency * event_size`.
    pub volume: f64,
}

impl CompiledLink {
    /// The dense index of the endpoint opposite `comp`.
    #[inline]
    pub fn other(&self, comp: u32) -> u32 {
        if self.a == comp {
            self.b
        } else {
            self.a
        }
    }
}

/// The component side of a snapshot: ids, logical links and their incident
/// index, memory demands. It does not depend on the hosts, so the coarse
/// super-node model shares the fine model's copy instead of rebuilding it.
#[derive(PartialEq, Debug)]
struct LogicalLayer {
    comp_ids: Vec<ComponentId>,
    links: Vec<CompiledLink>,
    /// CSR offsets into `incident_links`, length `n_comps + 1`.
    incident_offsets: Vec<u32>,
    /// Link indices incident to each component, grouped per component and
    /// ordered ascending by the opposite endpoint's dense index.
    incident_links: Vec<u32>,
    /// Σ frequency over links with positive frequency, in link order — the
    /// denominator shared by the frequency-weighted objectives.
    total_weight: f64,
    comp_memory: Vec<f64>,
}

/// An immutable dense-index snapshot of a [`DeploymentModel`].
///
/// Built once per model version by [`DeploymentModel::compiled`], which
/// keeps it until the model's next edit, so every solve against an
/// unchanged model evaluates its millions of candidate assignments against
/// one shared snapshot. A snapshot does not observe later model edits;
/// [`CompiledModel::compile`] builds a fresh one.
#[derive(Clone, Debug)]
pub struct CompiledModel {
    host_ids: Vec<HostId>,
    logical: Arc<LogicalLayer>,
    reliability: Vec<f64>,
    security: Vec<f64>,
    delay: Vec<f64>,
    bandwidth: Vec<f64>,
    connected: Vec<bool>,
    /// CSR offsets into `neighbors`, length `n_hosts + 1`.
    neighbor_offsets: Vec<u32>,
    /// Each host's physically connected hosts, grouped per host and
    /// ascending: the set cells of `connected`, scanned once per snapshot
    /// so a sparse network can be walked without a scan per use. It only
    /// enumerates; every link value is still read from the matrices.
    neighbors: Vec<u32>,
    /// All-pairs best-path reliability, computed lazily on first use: the
    /// O(n²) best-path replay is prohibitive at fleet scale and only
    /// [`PathAwareAvailability`](crate::PathAwareAvailability) needs it.
    path_reliability: OnceLock<Vec<f64>>,
    /// The hosts clustered under [`HierarchyConfig::default`], built on
    /// first use: every hierarchical solve of one snapshot clusters the
    /// same hosts the same way, so it is built once per snapshot.
    hierarchy: OnceLock<Hierarchy>,
    host_memory: Vec<f64>,
}

impl PartialEq for CompiledModel {
    /// Structural equality; the lazily-built path-reliability matrix and
    /// hierarchy are derived data and deliberately excluded so an evaluated
    /// snapshot still equals a fresh compile of the same model. The neighbor
    /// index is a function of `connected`, so comparing that covers it.
    fn eq(&self, other: &Self) -> bool {
        self.host_ids == other.host_ids
            && self.logical == other.logical
            && self.reliability == other.reliability
            && self.security == other.security
            && self.delay == other.delay
            && self.bandwidth == other.bandwidth
            && self.connected == other.connected
            && self.host_memory == other.host_memory
    }
}

/// Builds the per-component incident-link CSR index. Because `links` are
/// sorted by (lo, hi) pairs, each component's incident list — taking the
/// `hi` role first, then the `lo` role — comes out ordered ascending by the
/// opposite endpoint, matching `logical_neighbors` order.
fn build_incident_index(links: &[CompiledLink], n_comps: usize) -> (Vec<u32>, Vec<u32>) {
    let mut degree = vec![0u32; n_comps];
    for l in links {
        degree[l.a as usize] += 1;
        degree[l.b as usize] += 1;
    }
    let mut incident_offsets = vec![0u32; n_comps + 1];
    for c in 0..n_comps {
        incident_offsets[c + 1] = incident_offsets[c] + degree[c];
    }
    let mut incident_links = vec![0u32; incident_offsets[n_comps] as usize];
    let mut cursor: Vec<u32> = incident_offsets[..n_comps].to_vec();
    // Pass 1: links where the component is the higher endpoint (the
    // opposite endpoint is *smaller*), in link order — ascending other.
    for (li, l) in links.iter().enumerate() {
        let c = l.b as usize;
        incident_links[cursor[c] as usize] = li as u32;
        cursor[c] += 1;
    }
    // Pass 2: links where the component is the lower endpoint (the
    // opposite endpoint is *larger*), in link order — ascending other.
    for (li, l) in links.iter().enumerate() {
        let c = l.a as usize;
        incident_links[cursor[c] as usize] = li as u32;
        cursor[c] += 1;
    }
    (incident_offsets, incident_links)
}

/// Builds the per-host neighbor CSR index of an `n`×`n` row-major
/// `connected` matrix: each host's slice lists the hosts its row marks,
/// ascending.
fn build_neighbor_index(connected: &[bool], n: usize) -> (Vec<u32>, Vec<u32>) {
    let mut offsets = Vec::with_capacity(n + 1);
    offsets.push(0u32);
    let mut neighbors = Vec::new();
    for a in 0..n {
        let row = &connected[a * n..][..n];
        neighbors.extend((0..n as u32).filter(|&b| row[b as usize]));
        offsets.push(neighbors.len() as u32);
    }
    (offsets, neighbors)
}

impl CompiledModel {
    /// Builds the snapshot.
    pub fn compile(model: &DeploymentModel) -> CompiledModel {
        let host_ids = model.host_ids(); // ascending
        let comp_ids = model.component_ids(); // ascending
        let n = host_ids.len();

        let host_index = |h: HostId| host_ids.binary_search(&h).ok();
        let comp_index = |c: ComponentId| comp_ids.binary_search(&c).ok();

        // Host-pair matrices, mirroring the DeploymentModel accessors:
        // reliability/security are 1.0 on the diagonal and 0.0 for missing
        // links; delay is 0.0 / ∞; bandwidth is ∞ / 0.0.
        let mut reliability = vec![0.0; n * n];
        let mut security = vec![0.0; n * n];
        let mut delay = vec![f64::INFINITY; n * n];
        let mut bandwidth = vec![0.0; n * n];
        let mut connected = vec![false; n * n];
        for i in 0..n {
            reliability[i * n + i] = 1.0;
            security[i * n + i] = 1.0;
            delay[i * n + i] = 0.0;
            bandwidth[i * n + i] = f64::INFINITY;
        }
        for l in model.physical_links() {
            let (Some(a), Some(b)) = (host_index(l.ends().lo()), host_index(l.ends().hi())) else {
                continue;
            };
            for (x, y) in [(a, b), (b, a)] {
                reliability[x * n + y] = l.reliability();
                security[x * n + y] = l.security();
                delay[x * n + y] = l.delay();
                bandwidth[x * n + y] = l.bandwidth();
                connected[x * n + y] = true;
            }
        }
        let (neighbor_offsets, neighbors) = build_neighbor_index(&connected, n);

        // Logical links in BTreeMap (ComponentPair) order — the exact order
        // the naive objective loops iterate in.
        let mut links = Vec::with_capacity(model.logical_link_count());
        let mut total_weight = 0.0;
        for l in model.logical_links() {
            let (Some(a), Some(b)) = (comp_index(l.ends().lo()), comp_index(l.ends().hi())) else {
                continue;
            };
            let frequency = l.frequency();
            if frequency > 0.0 || frequency.is_nan() {
                // Mirrors the naive `freq <= 0.0 → skip` gate (NaN is *not*
                // skipped there, so it is not skipped here either).
                total_weight += frequency;
            }
            links.push(CompiledLink {
                a: a as u32,
                b: b as u32,
                frequency,
                event_size: l.event_size(),
                volume: frequency * l.event_size(),
            });
        }

        let (incident_offsets, incident_links) = build_incident_index(&links, comp_ids.len());

        let comp_memory = comp_ids
            .iter()
            .map(|&c| {
                model
                    .component(c)
                    .map(|x| x.required_memory())
                    .unwrap_or(0.0)
            })
            .collect();
        let host_memory = host_ids
            .iter()
            .map(|&h| model.host(h).map(|x| x.memory()).unwrap_or(0.0))
            .collect();

        CompiledModel {
            host_ids,
            logical: Arc::new(LogicalLayer {
                comp_ids,
                links,
                incident_offsets,
                incident_links,
                total_weight,
                comp_memory,
            }),
            reliability,
            security,
            delay,
            bandwidth,
            connected,
            neighbor_offsets,
            neighbors,
            path_reliability: OnceLock::new(),
            hierarchy: OnceLock::new(),
            host_memory,
        }
    }

    /// The same components and logical links over a different set of hosts
    /// — the hierarchy pass uses this to build the super-node coarse model
    /// without materializing a naive [`DeploymentModel`] or re-deriving the
    /// component side. `host_ids` must be ascending; matrices are row-major
    /// `n×n` over `host_ids`.
    #[allow(clippy::too_many_arguments)] // dense assembly mirrors the struct
    pub(crate) fn with_hosts(
        &self,
        host_ids: Vec<HostId>,
        reliability: Vec<f64>,
        security: Vec<f64>,
        delay: Vec<f64>,
        bandwidth: Vec<f64>,
        connected: Vec<bool>,
        host_memory: Vec<f64>,
    ) -> CompiledModel {
        debug_assert!(host_ids.windows(2).all(|w| w[0] < w[1]));
        let (neighbor_offsets, neighbors) = build_neighbor_index(&connected, host_ids.len());
        CompiledModel {
            host_ids,
            logical: Arc::clone(&self.logical),
            reliability,
            security,
            delay,
            bandwidth,
            connected,
            neighbor_offsets,
            neighbors,
            path_reliability: OnceLock::new(),
            hierarchy: OnceLock::new(),
            host_memory,
        }
    }

    /// All-pairs best-path reliabilities, replaying
    /// [`DeploymentModel::best_path`]'s search per pair so the results are
    /// bit-identical (including its tie-breaking through stable frontier
    /// sorting). Unreachable pairs score 0.0, matching the naive
    /// `best_path(..).map(|p| p.reliability).unwrap_or(0.0)`.
    fn all_pairs_path_reliability(&self) -> Vec<f64> {
        let n = self.host_ids.len();
        let mut out = vec![0.0; n * n];
        let mut best = vec![0.0f64; n];
        let mut frontier: Vec<usize> = Vec::new();
        for a in 0..n {
            for b in 0..n {
                if a == b {
                    out[a * n + b] = 1.0;
                    continue;
                }
                best.iter_mut().for_each(|x| *x = 0.0);
                best[a] = 1.0;
                frontier.clear();
                frontier.push(a);
                loop {
                    // Extract the frontier host with the highest reliability
                    // so far (stable sort + pop, exactly as best_path does).
                    frontier.sort_by(|&x, &y| {
                        best[x]
                            .partial_cmp(&best[y])
                            .expect("reliabilities are finite")
                    });
                    let Some(u) = frontier.pop() else { break };
                    if u == b {
                        break;
                    }
                    let through = best[u];
                    for v in (0..n).filter(|&v| self.connected[u * n + v]) {
                        let r = through * self.reliability[u * n + v];
                        if r > 0.0 && r > best[v] {
                            best[v] = r;
                            frontier.push(v);
                        }
                    }
                }
                out[a * n + b] = best[b];
            }
        }
        out
    }

    /// Number of hosts.
    #[inline]
    pub fn n_hosts(&self) -> usize {
        self.host_ids.len()
    }

    /// Number of components.
    #[inline]
    pub fn n_comps(&self) -> usize {
        self.logical.comp_ids.len()
    }

    /// Host ids in dense-index order (ascending).
    #[inline]
    pub fn host_ids(&self) -> &[HostId] {
        &self.host_ids
    }

    /// Component ids in dense-index order (ascending).
    #[inline]
    pub fn comp_ids(&self) -> &[ComponentId] {
        &self.logical.comp_ids
    }

    /// The logical links in [`ComponentPair`](crate::ComponentPair) order.
    #[inline]
    pub fn links(&self) -> &[CompiledLink] {
        &self.logical.links
    }

    /// Indices (into [`links`](Self::links)) of the links incident to
    /// `comp`, ordered ascending by the opposite endpoint's dense index.
    #[inline]
    pub fn incident(&self, comp: u32) -> &[u32] {
        let lo = self.logical.incident_offsets[comp as usize] as usize;
        let hi = self.logical.incident_offsets[comp as usize + 1] as usize;
        &self.logical.incident_links[lo..hi]
    }

    /// Direct-link reliability between two dense host indices.
    #[inline]
    pub fn reliability(&self, a: u32, b: u32) -> f64 {
        self.reliability[a as usize * self.host_ids.len() + b as usize]
    }

    /// Link security between two dense host indices.
    #[inline]
    pub fn security(&self, a: u32, b: u32) -> f64 {
        self.security[a as usize * self.host_ids.len() + b as usize]
    }

    /// Transmission delay between two dense host indices.
    #[inline]
    pub fn delay(&self, a: u32, b: u32) -> f64 {
        self.delay[a as usize * self.host_ids.len() + b as usize]
    }

    /// Bandwidth between two dense host indices.
    #[inline]
    pub fn bandwidth(&self, a: u32, b: u32) -> f64 {
        self.bandwidth[a as usize * self.host_ids.len() + b as usize]
    }

    /// Whether a physical link connects two dense host indices.
    #[inline]
    pub fn connected(&self, a: u32, b: u32) -> bool {
        self.connected[a as usize * self.host_ids.len() + b as usize]
    }

    /// The dense indices of the hosts physically connected to host `a`,
    /// ascending: exactly `{b : connected(a, b)}`. Link values still come
    /// from the matrices; this only spares a sparse walk the n² scan.
    #[inline]
    pub fn neighbors(&self, a: u32) -> &[u32] {
        let lo = self.neighbor_offsets[a as usize] as usize;
        let hi = self.neighbor_offsets[a as usize + 1] as usize;
        &self.neighbors[lo..hi]
    }

    /// Best-path reliability between two dense host indices (1.0 on the
    /// diagonal, 0.0 when unreachable).
    ///
    /// The underlying all-pairs matrix is built on first call (O(n²)
    /// best-path replays) and cached; snapshots that never score a
    /// path-aware objective never pay for it. The pricing kernel reads the
    /// matrix directly; this is the test-only reference's cell lookup.
    #[cfg(test)]
    fn path_reliability(&self, a: u32, b: u32) -> f64 {
        let matrix = self
            .path_reliability
            .get_or_init(|| self.all_pairs_path_reliability());
        matrix[a as usize * self.host_ids.len() + b as usize]
    }

    /// The hosts clustered under [`HierarchyConfig::default`]: what
    /// [`Hierarchy::build`] returns for this snapshot, built on first call
    /// and kept, so the hierarchical solves of one snapshot share one
    /// clustering.
    pub fn hierarchy(&self) -> &Hierarchy {
        self.hierarchy
            .get_or_init(|| Hierarchy::build(self, &HierarchyConfig::default()))
    }

    /// Σ frequency over positive-frequency links, the shared denominator of
    /// the frequency-weighted objectives.
    #[inline]
    pub fn total_weight(&self) -> f64 {
        self.logical.total_weight
    }

    /// Required memory per dense component index.
    #[inline]
    pub fn comp_memory(&self) -> &[f64] {
        &self.logical.comp_memory
    }

    /// Available memory per dense host index.
    #[inline]
    pub fn host_memory(&self) -> &[f64] {
        &self.host_memory
    }

    /// Dense index of a host id, if the host is in the snapshot.
    #[inline]
    pub fn host_index(&self, h: HostId) -> Option<u32> {
        self.host_ids.binary_search(&h).ok().map(|i| i as u32)
    }

    /// Dense index of a component id, if the component is in the snapshot.
    #[inline]
    pub fn comp_index(&self, c: ComponentId) -> Option<u32> {
        self.comp_ids().binary_search(&c).ok().map(|i| i as u32)
    }

    /// Flattens a [`Deployment`] over this model into a dense assignment
    /// vector. Components of the model missing from the deployment (and
    /// components assigned to hosts outside the model) map to
    /// [`UNASSIGNED`]; components unknown to the model are ignored.
    pub fn compile_assignment(&self, deployment: &Deployment) -> Vec<u32> {
        // Both sides are in ascending component order: one merge.
        let mut placed = deployment.iter().peekable();
        self.comp_ids()
            .iter()
            .map(|&c| {
                while placed.next_if(|&(d, _)| d < c).is_some() {}
                placed
                    .next_if(|&(d, _)| d == c)
                    .and_then(|(_, h)| self.host_index(h))
                    .unwrap_or(UNASSIGNED)
            })
            .collect()
    }

    /// Expands a dense assignment back into a [`Deployment`].
    pub fn decode_assignment(&self, assign: &[u32]) -> Deployment {
        // In component order, so the map is built in bulk.
        assign
            .iter()
            .zip(self.comp_ids())
            .filter(|&(&h, _)| h != UNASSIGNED)
            .map(|(&h, &c)| (c, self.host_ids[h as usize]))
            .collect()
    }
}

// ---- compiled objectives --------------------------------------------------

/// One flattened objective term.
///
/// Each kind mirrors the per-link arithmetic of the corresponding naive
/// [`Objective`](crate::Objective) implementation exactly.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum PartKind {
    /// [`crate::Availability`]: frequency-weighted direct-link reliability.
    Availability,
    /// [`crate::PathAwareAvailability`]: frequency-weighted best-path
    /// reliability.
    PathAwareAvailability,
    /// [`crate::Latency`]: frequency-weighted mean remote-interaction cost;
    /// disconnected or unassigned interactions cost
    /// [`Latency::DISCONNECTED_PENALTY`](crate::Latency::DISCONNECTED_PENALTY).
    Latency,
    /// [`crate::CommunicationVolume`]: total remote traffic.
    CommunicationVolume,
    /// [`crate::LinkSecurity`]: frequency-weighted link security.
    LinkSecurity,
}

impl PartKind {
    /// Whether this term is maximized or minimized.
    fn direction(&self) -> Direction {
        match self {
            PartKind::Availability | PartKind::PathAwareAvailability | PartKind::LinkSecurity => {
                Direction::Maximize
            }
            PartKind::Latency | PartKind::CommunicationVolume => Direction::Minimize,
        }
    }

    /// This link's contribution to the part's raw sum under the given
    /// endpoint assignments ([`UNASSIGNED`] allowed), spelled out with
    /// branches: the reference that [`with`](Self::with) reproduces to the
    /// bit, for the kernel and the full sum alike, which the tests hold it
    /// to.
    #[cfg(test)]
    fn contribution(&self, m: &CompiledModel, link: &CompiledLink, ha: u32, hb: u32) -> f64 {
        match *self {
            PartKind::Availability => {
                if link.frequency <= 0.0 {
                    return 0.0;
                }
                if ha != UNASSIGNED && hb != UNASSIGNED {
                    link.frequency * m.reliability(ha, hb)
                } else {
                    0.0
                }
            }
            PartKind::PathAwareAvailability => {
                if link.frequency <= 0.0 {
                    return 0.0;
                }
                if ha != UNASSIGNED && hb != UNASSIGNED {
                    link.frequency * m.path_reliability(ha, hb)
                } else {
                    0.0
                }
            }
            PartKind::Latency => {
                if link.frequency <= 0.0 {
                    return 0.0;
                }
                let cost = if ha != UNASSIGNED && hb != UNASSIGNED {
                    if ha == hb {
                        0.0
                    } else if m.connected(ha, hb) {
                        m.delay(ha, hb) + link.event_size / m.bandwidth(ha, hb)
                    } else {
                        Latency::DISCONNECTED_PENALTY
                    }
                } else {
                    Latency::DISCONNECTED_PENALTY
                };
                link.frequency * cost
            }
            PartKind::CommunicationVolume => {
                if ha != UNASSIGNED && hb != UNASSIGNED && ha == hb {
                    0.0
                } else {
                    link.volume
                }
            }
            PartKind::LinkSecurity => {
                if link.frequency <= 0.0 {
                    return 0.0;
                }
                if ha != UNASSIGNED && hb != UNASSIGNED {
                    link.frequency * m.security(ha, hb)
                } else {
                    0.0
                }
            }
        }
    }

    /// Maps the accumulated raw sum into the objective's natural units,
    /// mirroring the naive finalization (`Σ weighted / Σ freq` with the
    /// empty-interaction defaults).
    #[inline]
    fn finalize(&self, m: &CompiledModel, sum: f64) -> f64 {
        match self {
            PartKind::Availability | PartKind::PathAwareAvailability | PartKind::LinkSecurity => {
                if m.total_weight() == 0.0 {
                    1.0
                } else {
                    sum / m.total_weight()
                }
            }
            PartKind::Latency => {
                if m.total_weight() == 0.0 {
                    0.0
                } else {
                    sum / m.total_weight()
                }
            }
            PartKind::CommunicationVolume => sum,
        }
    }

    /// The larger-is-better utility of a finalized value, mirroring
    /// [`Objective::utility_of`](crate::Objective::utility_of).
    #[inline]
    fn utility_of(&self, value: f64) -> f64 {
        match self.direction() {
            Direction::Maximize => value,
            Direction::Minimize => 1.0 / (1.0 + value.max(0.0)),
        }
    }

    /// Runs `pricing` with this kind's rule, matched once: `mark`, which
    /// gives a [`Link`] the part's state — `live`, whether its contribution
    /// depends on where the priced end sits, and `dead`, what it contributes
    /// when not; `lane`, the kind's view of a host (its matrix rows, say);
    /// and `new(link, lane, assigned)`, the link's contribution with the
    /// priced end on that host — `dead` where the [`mask`] `assigned` is
    /// zero, for an [`UNASSIGNED`] host, whose lane reads host 0. Each value
    /// is chosen with [`select`] on its bits rather than with a branch.
    ///
    /// Every kind but the path-aware one reads its matrices by the priced
    /// end's row: [`CompiledModel::compile`] and [`Hierarchy::build`] write
    /// those four symmetrically, so `(host, opposite)` holds the same bits
    /// as `(opposite, host)`. The best-path matrix is not symmetric and is
    /// read in the link's own `(a, b)` orientation.
    fn with<P: Pricing>(self, m: &CompiledModel, pricing: P) -> P::Out {
        let n = m.n_hosts();
        // Host `h`'s row of an n×n matrix.
        fn row<T>(matrix: &[T], h: usize, n: usize) -> &[T] {
            &matrix[h * n..][..n]
        }
        // The frequency gate (NaN passes it, as in `contribution`) and an
        // assigned opposite end.
        let gated = |k: &Link| mask(k.assigned && (k.frequency > 0.0 || k.frequency.is_nan()));
        match self {
            PartKind::Availability | PartKind::LinkSecurity => {
                let matrix = match self {
                    PartKind::Availability => &m.reliability[..],
                    _ => &m.security[..],
                };
                pricing.run(
                    |k| (k.live, k.dead) = (gated(k), 0.0),
                    |h| row(matrix, h, n),
                    |k, row, assigned| select(k.live & assigned, k.frequency * row[k.at], 0.0),
                )
            }
            PartKind::PathAwareAvailability => {
                let matrix = &m
                    .path_reliability
                    .get_or_init(|| m.all_pairs_path_reliability())[..];
                pricing.run(
                    |k| (k.live, k.dead) = (gated(k), 0.0),
                    |h| h,
                    |k, &h, assigned| {
                        let cell = if k.is_a { h * n + k.at } else { k.at * n + h };
                        select(k.live & assigned, k.frequency * matrix[cell], 0.0)
                    },
                )
            }
            PartKind::Latency => pricing.run(
                |k| {
                    k.live = gated(k);
                    k.dead = if k.frequency <= 0.0 {
                        0.0
                    } else {
                        k.frequency * Latency::DISCONNECTED_PENALTY
                    };
                },
                |h| {
                    let (delay, bandwidth) = (row(&m.delay, h, n), row(&m.bandwidth, h, n));
                    (h, delay, bandwidth, row(&m.connected, h, n))
                },
                |k, lane, assigned| {
                    let &(h, delay, bandwidth, connected) = lane;
                    let linked = delay[k.at] + k.event_size / bandwidth[k.at];
                    let remote =
                        select(mask(connected[k.at]), linked, Latency::DISCONNECTED_PENALTY);
                    let cost = select(mask(h == k.at), 0.0, remote);
                    select(k.live & assigned, k.frequency * cost, k.dead)
                },
            ),
            // No frequency gate: an interaction between two ends on one
            // host costs nothing, any other its whole volume.
            PartKind::CommunicationVolume => pricing.run(
                |k| (k.live, k.dead) = (mask(k.assigned), k.volume),
                |h| h,
                |k, &h, assigned| select(k.live & assigned & mask(h == k.at), 0.0, k.volume),
            ),
        }
    }
}

/// What runs with a [`PartKind`]'s rule ([`PartKind::with`]): the pricing
/// kernel over one component's candidates ([`Batch`]), or the full sum
/// over every link ([`Full`]). Both add the same contributions.
trait Pricing {
    type Out;
    fn run<L>(
        self,
        mark: impl Fn(&mut Link),
        lane: impl Fn(usize) -> L,
        new: impl Fn(&Link, &L, u64) -> f64,
    ) -> Self::Out;
}

/// A part's raw sum under an assignment: every link's contribution, added
/// in link order, each link seen from its `a` end.
struct Full<'a> {
    m: &'a CompiledModel,
    assign: &'a [u32],
}

impl Pricing for Full<'_> {
    type Out = f64;

    #[inline(always)]
    fn run<L>(
        self,
        mark: impl Fn(&mut Link),
        lane: impl Fn(usize) -> L,
        new: impl Fn(&Link, &L, u64) -> f64,
    ) -> f64 {
        let mut sum = 0.0;
        for link in self.m.links() {
            let (a, b) = (self.assign[link.a as usize], self.assign[link.b as usize]);
            let mut k = Link::gather(link, true, b);
            mark(&mut k);
            sum += new(&k, &lane(clamp(a)), mask(a != UNASSIGNED));
        }
        sum
    }
}

/// One component's candidates priced by [`kernel`]: its gathered incident
/// `links`, the scratch `old`, its current host `cur`, the part's running
/// sum `start`, the candidate `hosts`, and where the sums go: every
/// `stride`-th cell of `out`.
struct Batch<'a> {
    links: &'a mut [Link],
    old: &'a mut Vec<f64>,
    cur: u32,
    start: f64,
    hosts: &'a [u32],
    out: &'a mut [f64],
    stride: usize,
}

impl Pricing for Batch<'_> {
    type Out = ();

    #[inline(always)]
    fn run<L>(
        self,
        mark: impl Fn(&mut Link),
        lane: impl Fn(usize) -> L,
        new: impl Fn(&Link, &L, u64) -> f64,
    ) {
        self.links.iter_mut().for_each(mark);
        let Batch {
            links,
            old,
            cur,
            start,
            hosts,
            out,
            stride,
        } = self;
        kernel(links, old, cur, start, hosts, out, stride, lane, new);
    }
}

/// All ones when `b`, else all zeros: a [`select`] mask.
#[inline(always)]
fn mask(b: bool) -> u64 {
    (b as u64).wrapping_neg()
}

/// `value` where `mask` is all ones and `other` where it is all zeros,
/// chosen on the bits, so the result is one of the two to the bit — NaN
/// and signed zeros included — with no branch.
#[inline(always)]
fn select(mask: u64, value: f64, other: f64) -> f64 {
    f64::from_bits(value.to_bits() & mask | other.to_bits() & !mask)
}

/// A host index with [`UNASSIGNED`] read as host 0, so that a matrix read
/// stays in bounds; a mask says whether the read counts.
#[inline(always)]
fn clamp(host: u32) -> usize {
    if host == UNASSIGNED {
        0
    } else {
        host as usize
    }
}

/// Candidates one kernel pass prices together: independent sums the CPU
/// overlaps. A batch is priced in blocks of this many; the last block
/// repeats its last candidate to fill up and drops the repeats' sums.
const LANES: usize = 4;

/// One incident link of the component a batch prices: gathered once per
/// batch, then given each part's own state before that part is priced.
#[derive(Clone, Copy, Debug)]
struct Link {
    frequency: f64,
    event_size: f64,
    volume: f64,
    /// Host of the opposite endpoint, read as host 0 when [`UNASSIGNED`].
    at: usize,
    /// Whether the opposite endpoint is assigned.
    assigned: bool,
    /// Whether the priced component is the link's `a` endpoint.
    is_a: bool,
    /// Per part: [`mask`] of whether the contribution depends on where the
    /// component sits.
    live: u64,
    /// Per part: the contribution of a link that is not live, and of every
    /// link when the component is unassigned.
    dead: f64,
}

impl Link {
    /// `link` seen from its `a` end (`is_a`) or its `b` end, with the
    /// opposite end on host `opposite` ([`UNASSIGNED`] allowed); the part's
    /// state is left for [`PartKind::with`]'s `mark`.
    #[inline(always)]
    fn gather(link: &CompiledLink, is_a: bool, opposite: u32) -> Link {
        Link {
            frequency: link.frequency,
            event_size: link.event_size,
            volume: link.volume,
            at: clamp(opposite),
            assigned: opposite != UNASSIGNED,
            is_a,
            live: 0,
            dead: 0.0,
        }
    }
}

/// The one pricing loop, run by a [`Batch`] with a kind's `lane` and `new`
/// ([`PartKind::with`]) over links its `mark` has given the part's state.
/// Fills `old` with each
/// link's contribution on the current host `cur`, then writes, for each of
/// `hosts`, `start` plus `new − old` summed link by link in incident order
/// to every `stride`-th cell of `out`: [`LANES`] candidates at a time, each
/// with its own sum, every candidate through the same loop. A candidate
/// equal to `cur` moves nothing and gets `start` itself.
#[allow(clippy::too_many_arguments)] // one flat call per (part, batch)
#[inline(always)]
fn kernel<L>(
    links: &[Link],
    old: &mut Vec<f64>,
    cur: u32,
    start: f64,
    hosts: &[u32],
    out: &mut [f64],
    stride: usize,
    lane: impl Fn(usize) -> L,
    new: impl Fn(&Link, &L, u64) -> f64,
) {
    let here = lane(clamp(cur));
    old.clear();
    old.extend(links.iter().map(|k| new(k, &here, mask(cur != UNASSIGNED))));
    let old = &old[..links.len()];
    for (b, block) in hosts.chunks(LANES).enumerate() {
        let host = |j: usize| block.get(j).copied().unwrap_or(block[block.len() - 1]);
        let lanes: [L; LANES] = std::array::from_fn(|j| lane(clamp(host(j))));
        let assigned: [u64; LANES] = std::array::from_fn(|j| mask(host(j) != UNASSIGNED));
        let mut sums = [start; LANES];
        for (k, &o) in links.iter().zip(old) {
            for ((sum, lane), &assigned) in sums.iter_mut().zip(&lanes).zip(&assigned) {
                *sum += new(k, lane, assigned) - o;
            }
        }
        for (j, &host) in block.iter().enumerate() {
            out[(b * LANES + j) * stride] = if host == cur { start } else { sums[j] };
        }
    }
}

/// The flattened form of an [`Objective`](crate::Objective): either a single
/// [`PartKind`] or a weighted composite of them.
#[derive(Clone, PartialEq, Debug)]
pub struct CompiledObjective {
    parts: Vec<(PartKind, f64)>,
    composite: bool,
}

impl CompiledObjective {
    /// A single-term objective.
    pub fn single(kind: PartKind) -> CompiledObjective {
        CompiledObjective {
            parts: vec![(kind, 1.0)],
            composite: false,
        }
    }

    /// A weighted composite of terms (maximized, like
    /// [`Composite`](crate::Composite)).
    pub fn composite(parts: Vec<(PartKind, f64)>) -> CompiledObjective {
        CompiledObjective {
            parts,
            composite: true,
        }
    }

    /// The terms with their weights.
    fn parts(&self) -> &[(PartKind, f64)] {
        &self.parts
    }

    /// The single term, when this is not a composite.
    pub fn as_single(&self) -> Option<PartKind> {
        if self.composite {
            None
        } else {
            self.parts.first().map(|(k, _)| *k)
        }
    }

    /// Whether the score is maximized or minimized.
    pub fn direction(&self) -> Direction {
        if self.composite {
            Direction::Maximize
        } else {
            self.parts[0].0.direction()
        }
    }

    /// Returns `true` if `candidate` is strictly better than `incumbent`.
    #[inline]
    pub fn is_improvement(&self, incumbent: f64, candidate: f64) -> bool {
        match self.direction() {
            Direction::Maximize => candidate > incumbent,
            Direction::Minimize => candidate < incumbent,
        }
    }

    /// The worst possible score, used to seed search loops.
    pub fn worst(&self) -> f64 {
        match self.direction() {
            Direction::Maximize => f64::NEG_INFINITY,
            Direction::Minimize => f64::INFINITY,
        }
    }

    /// Final score from per-part raw sums.
    #[inline]
    fn score(&self, sums: &[f64], m: &CompiledModel) -> f64 {
        if !self.composite {
            let (kind, _) = self.parts[0];
            kind.finalize(m, sums[0])
        } else {
            self.parts
                .iter()
                .zip(sums)
                .map(|(&(kind, w), &s)| w * kind.utility_of(kind.finalize(m, s)))
                .sum()
        }
    }
}

// ---- incremental scoring --------------------------------------------------

/// Incremental (delta) scorer over a [`CompiledModel`].
///
/// Holds a dense assignment plus per-part raw sums. [`score_full`] rebuilds
/// the sums by walking every link (bit-identical to the naive evaluator);
/// [`set`] commits a single-component move touching only its incident links
/// (O(deg(c))); [`peek`] prices a move without committing it and
/// [`peek_many`] prices a whole candidate list for one component. The three
/// share one pricing kernel, so a batch returns exactly — to the bit — what
/// the same moves priced one by one return, and counts them the same.
/// [`commit`] adopts one of the candidates just priced without pricing it
/// again: the sums it keeps are the ones `set` would compute.
///
/// [`score_full`]: IncrementalScore::score_full
/// [`set`]: IncrementalScore::set
/// [`peek`]: IncrementalScore::peek
/// [`peek_many`]: IncrementalScore::peek_many
/// [`commit`]: IncrementalScore::commit
#[derive(Clone, Debug)]
pub struct IncrementalScore<'m> {
    model: &'m CompiledModel,
    objective: CompiledObjective,
    assign: Vec<u32>,
    sums: Vec<f64>,
    /// Kernel scratch: the priced component's incident links, their
    /// contributions on its current host to one part, and the per-part
    /// sums of every candidate (candidate-major).
    links: Vec<Link>,
    old: Vec<f64>,
    priced: Vec<f64>,
    /// The component and candidate hosts `priced` holds sums for, until
    /// the next change to the sums: what [`commit`](Self::commit) reads.
    priced_comp: u32,
    priced_hosts: Vec<u32>,
    full_evals: u64,
    delta_evals: u64,
}

impl<'m> IncrementalScore<'m> {
    /// Creates a scorer with every component unassigned.
    pub fn new(model: &'m CompiledModel, objective: &CompiledObjective) -> IncrementalScore<'m> {
        IncrementalScore {
            model,
            objective: objective.clone(),
            assign: vec![UNASSIGNED; model.n_comps()],
            sums: vec![0.0; objective.parts().len()],
            links: Vec::new(),
            old: Vec::new(),
            priced: Vec::new(),
            priced_comp: UNASSIGNED,
            priced_hosts: Vec::new(),
            full_evals: 0,
            delta_evals: 0,
        }
    }

    /// The current dense assignment.
    pub fn assignment(&self) -> &[u32] {
        &self.assign
    }

    /// Adopts `assign` and returns its full (pure) score.
    pub fn assign_from(&mut self, assign: &[u32]) -> f64 {
        debug_assert_eq!(assign.len(), self.model.n_comps());
        self.assign.clear();
        self.assign.extend_from_slice(assign);
        self.score_full()
    }

    /// Recomputes every per-part sum by walking all links in link order —
    /// bit-identical to the naive `Objective::evaluate` — and returns the
    /// score. Also re-anchors any drift accumulated by deltas.
    pub fn score_full(&mut self) -> f64 {
        for (p, &(kind, _)) in self.objective.parts().iter().enumerate() {
            let (m, assign) = (self.model, &self.assign[..]);
            self.sums[p] = kind.with(m, Full { m, assign });
        }
        self.priced_comp = UNASSIGNED;
        self.full_evals += 1;
        self.value()
    }

    /// The score implied by the current sums (no recomputation).
    #[inline]
    pub fn value(&self) -> f64 {
        self.objective.score(&self.sums, self.model)
    }

    /// Fills `priced` with the per-part sums the assignment would have with
    /// `comp` on each of `hosts` (candidate-major): gathers the incident
    /// links once, then runs the kernel per part ([`PartKind::with`] over a
    /// [`Batch`]).
    fn price(&mut self, comp: u32, hosts: &[u32]) {
        let m = self.model;
        let n_parts = self.sums.len();
        self.priced.clear();
        self.priced.resize(hosts.len() * n_parts, 0.0);
        if hosts.is_empty() {
            return;
        }
        let cur = self.assign[comp as usize];
        self.links.clear();
        self.links.extend(m.incident(comp).iter().map(|&li| {
            let link = &m.links()[li as usize];
            let is_a = link.a == comp;
            Link::gather(
                link,
                is_a,
                self.assign[if is_a { link.b } else { link.a } as usize],
            )
        }));
        for (p, &(kind, _)) in self.objective.parts().iter().enumerate() {
            let batch = Batch {
                links: &mut self.links,
                old: &mut self.old,
                cur,
                start: self.sums[p],
                hosts,
                out: &mut self.priced[p..],
                stride: n_parts,
            };
            kind.with(m, batch);
        }
    }

    /// Commits moving `comp` to `host` ([`UNASSIGNED`] to unassign),
    /// updating only the incident links' contributions.
    pub fn set(&mut self, comp: u32, host: u32) {
        self.delta_evals += 1;
        self.price(comp, &[host]);
        self.sums.copy_from_slice(&self.priced);
        self.assign[comp as usize] = host;
        self.priced_comp = UNASSIGNED;
    }

    /// Commits candidate `i` of the last [`peek`](Self::peek) (`i = 0`) or
    /// [`peek_many`](Self::peek_many) of `comp`: the same sums, value,
    /// assignment and delta count as [`set`](Self::set) to that candidate's
    /// host, to the bit.
    ///
    /// # Panics
    ///
    /// Panics unless the last pricing was of `comp` and nothing has changed
    /// the sums since, or if `i` is out of its range.
    pub fn commit(&mut self, comp: u32, i: usize) {
        assert_eq!(self.priced_comp, comp, "commit of a move not priced last");
        // The kernel prices every lane with the same operations, so the
        // sums it wrote for candidate `i` are the ones `set` would write.
        let n_parts = self.sums.len();
        self.delta_evals += 1;
        self.sums
            .copy_from_slice(&self.priced[i * n_parts..(i + 1) * n_parts]);
        self.assign[comp as usize] = self.priced_hosts[i];
        self.priced_comp = UNASSIGNED;
    }

    /// The score the assignment would have after moving `comp` to `host`,
    /// without committing the move.
    pub fn peek(&mut self, comp: u32, host: u32) -> f64 {
        self.delta_evals += 1;
        self.price(comp, &[host]);
        self.priced_for(comp, &[host]);
        self.objective.score(&self.priced, self.model)
    }

    /// Records what `priced` now holds, for [`commit`](Self::commit).
    fn priced_for(&mut self, comp: u32, hosts: &[u32]) {
        self.priced_comp = comp;
        self.priced_hosts.clear();
        self.priced_hosts.extend_from_slice(hosts);
    }

    /// [`peek`](Self::peek) for a list of candidate hosts of one component:
    /// replaces `out` with one score per entry of `hosts`, in order, each
    /// bit-identical to what `peek(comp, host)` returns, and counts
    /// `hosts.len()` delta evaluations. Entries may repeat, be the current
    /// host, or be [`UNASSIGNED`].
    pub fn peek_many(&mut self, comp: u32, hosts: &[u32], out: &mut Vec<f64>) {
        self.delta_evals += hosts.len() as u64;
        self.price(comp, hosts);
        self.priced_for(comp, hosts);
        let n_parts = self.sums.len();
        out.clear();
        out.extend((0..hosts.len()).map(|i| {
            let sums = &self.priced[i * n_parts..(i + 1) * n_parts];
            self.objective.score(sums, self.model)
        }));
    }

    /// How many full-sum recomputations this scorer performed.
    pub fn full_evaluations(&self) -> u64 {
        self.full_evals
    }

    /// How many delta evaluations (`set` + `peek`) this scorer performed.
    pub fn delta_evaluations(&self) -> u64 {
        self.delta_evals
    }
}

// ---- compiled constraints -------------------------------------------------

/// Kind of a compiled component group constraint.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum GroupKind {
    /// All members must share a host.
    Collocated,
    /// No two members may share a host.
    Separated,
}

/// Location row of a component no location constraint names.
const FREE: u32 = u32::MAX;

/// The dense form of a constraint checker: allowed-host masks for the
/// components location constraints name, component groups, and the
/// built-in memory-capacity check.
///
/// Produced by [`ConstraintChecker::compile`](crate::ConstraintChecker::compile);
/// `check`/`admits` return the same booleans the naive checker's
/// `check(..).is_ok()` / `admits(..)` return for deployments over the
/// compiled model's components and hosts.
///
/// The masks are sparse: a component gets a row of `n_hosts` flags only
/// when [`pin_to`](Self::pin_to) or [`forbid_on`](Self::forbid_on) first
/// names it, so building, projecting and dropping a checker costs
/// O(comps + restricted × hosts) rather than O(comps × hosts).
#[derive(Clone, PartialEq, Debug)]
pub struct CompiledConstraints {
    n_hosts: usize,
    n_comps: usize,
    require_complete: bool,
    /// Per component: its row in `masks`, or [`FREE`].
    location_row: Vec<u32>,
    /// Per component: whether a location constraint names it or it belongs
    /// to a group. A component that is not is admitted on memory alone.
    restricted: Vec<bool>,
    /// `n_hosts` allowed-host flags per restricted component, row-major.
    masks: Vec<bool>,
    groups: Vec<(GroupKind, Vec<u32>)>,
    member_groups: Vec<Vec<u32>>,
    enforce_memory: bool,
    comp_memory: Vec<f64>,
    host_memory: Vec<f64>,
}

impl CompiledConstraints {
    /// Creates a checker admitting everything (subject to `enforce_memory`),
    /// to be narrowed with [`pin_to`](Self::pin_to) /
    /// [`forbid_on`](Self::forbid_on) / [`add_group`](Self::add_group).
    ///
    /// `require_complete` makes [`check`](Self::check) reject assignments
    /// with unassigned components (the [`ConstraintSet`](crate::ConstraintSet)
    /// semantics).
    pub fn new(model: &CompiledModel, require_complete: bool, enforce_memory: bool) -> Self {
        CompiledConstraints {
            n_hosts: model.n_hosts(),
            n_comps: model.n_comps(),
            require_complete,
            location_row: vec![FREE; model.n_comps()],
            restricted: vec![false; model.n_comps()],
            masks: Vec::new(),
            groups: Vec::new(),
            member_groups: vec![Vec::new(); model.n_comps()],
            enforce_memory,
            comp_memory: model.comp_memory().to_vec(),
            host_memory: model.host_memory().to_vec(),
        }
    }

    /// `comp`'s allowed-host flags, allocated (all allowed) on first use.
    fn mask_mut(&mut self, comp: u32) -> &mut [bool] {
        let row = match self.location_row[comp as usize] {
            FREE => {
                let row = (self.masks.len() / self.n_hosts.max(1)) as u32;
                self.masks.resize(self.masks.len() + self.n_hosts, true);
                self.location_row[comp as usize] = row;
                self.restricted[comp as usize] = true;
                row
            }
            row => row,
        };
        let start = row as usize * self.n_hosts;
        &mut self.masks[start..start + self.n_hosts]
    }

    /// Whether the location constraints let `comp` sit on `host`.
    #[inline]
    fn location_allows(&self, comp: usize, host: usize) -> bool {
        match self.location_row[comp] {
            FREE => true,
            row => self.masks[row as usize * self.n_hosts + host],
        }
    }

    /// Restricts `comp` to the listed hosts (intersection semantics, like
    /// [`Constraint::PinnedTo`](crate::Constraint::PinnedTo)).
    pub fn pin_to(&mut self, comp: u32, hosts: &[u32]) {
        for (h, allowed) in self.mask_mut(comp).iter_mut().enumerate() {
            if !hosts.contains(&(h as u32)) {
                *allowed = false;
            }
        }
    }

    /// Forbids `comp` from the listed hosts (like
    /// [`Constraint::NotOn`](crate::Constraint::NotOn)).
    pub fn forbid_on(&mut self, comp: u32, hosts: &[u32]) {
        let mask = self.mask_mut(comp);
        for &h in hosts {
            if let Some(allowed) = mask.get_mut(h as usize) {
                *allowed = false;
            }
        }
    }

    /// Adds a collocation/separation group. Groups with fewer than two
    /// members are dropped (they can never be violated).
    pub fn add_group(&mut self, kind: GroupKind, members: Vec<u32>) {
        if members.len() < 2 {
            return;
        }
        let gi = self.groups.len() as u32;
        for &m in &members {
            self.member_groups[m as usize].push(gi);
            self.restricted[m as usize] = true;
        }
        self.groups.push((kind, members));
    }

    /// Checks a complete (dense) assignment, mirroring the naive checker's
    /// `check(..).is_ok()`.
    pub fn check(&self, assign: &[u32]) -> bool {
        if self.require_complete && assign.contains(&UNASSIGNED) {
            return false;
        }
        for (c, &h) in assign.iter().enumerate() {
            if h != UNASSIGNED && !self.location_allows(c, h as usize) {
                return false;
            }
        }
        for (kind, members) in &self.groups {
            match kind {
                GroupKind::Collocated => {
                    let mut first = UNASSIGNED;
                    for &m in members {
                        let h = assign[m as usize];
                        if h == UNASSIGNED {
                            continue;
                        }
                        if first == UNASSIGNED {
                            first = h;
                        } else if h != first {
                            return false;
                        }
                    }
                }
                GroupKind::Separated => {
                    for (i, &m) in members.iter().enumerate() {
                        let h = assign[m as usize];
                        if h == UNASSIGNED {
                            continue;
                        }
                        for &o in &members[i + 1..] {
                            if assign[o as usize] == h {
                                return false;
                            }
                        }
                    }
                }
            }
        }
        if self.enforce_memory {
            // One pass in component order, as the per-host sums always
            // were; a host with no components passes whatever its capacity.
            let load = self.load_of(assign);
            let over = |h: usize| load[h] > self.host_memory[h] && assign.contains(&(h as u32));
            if (0..self.n_hosts).any(over) {
                return false;
            }
        }
        true
    }

    /// The location masks and the group rules of a placement probe:
    /// everything [`admits`](Self::admits) and
    /// [`admits_with_load`](Self::admits_with_load) test except memory.
    /// Both skip it for a component that is not `restricted`, which it
    /// would admit anywhere; kept out of line so that their memory check,
    /// all an unrestricted component needs, inlines into the caller.
    #[inline(never)]
    fn admits_placement(&self, assign: &[u32], comp: u32, host: u32) -> bool {
        if !self.location_allows(comp as usize, host as usize) {
            return false;
        }
        self.member_groups[comp as usize].iter().all(|&g| {
            let (kind, members) = &self.groups[g as usize];
            match kind {
                GroupKind::Collocated => members.iter().all(|&p| {
                    let hp = assign[p as usize];
                    hp == UNASSIGNED || hp == host
                }),
                GroupKind::Separated => members
                    .iter()
                    .all(|&p| p == comp || assign[p as usize] != host),
            }
        })
    }

    /// May `comp` be placed on `host` given the (possibly partial)
    /// assignment built so far? Mirrors the naive checker's `admits`,
    /// including its collocation semantics (a member already assigned
    /// elsewhere — `comp` itself included — blocks the move; callers
    /// unassign `comp` first when pricing a relocation).
    pub fn admits(&self, assign: &[u32], comp: u32, host: u32) -> bool {
        let c = comp as usize;
        let h = host as usize;
        if self.restricted[c] && !self.admits_placement(assign, comp, host) {
            return false;
        }
        if self.enforce_memory {
            let mut used = 0.0;
            for (o, &ho) in assign.iter().enumerate() {
                if ho == host && o != c {
                    used += self.comp_memory[o];
                }
            }
            if used + self.comp_memory[c] > self.host_memory[h] {
                return false;
            }
        }
        true
    }

    /// The per-host memory load of an assignment: Σ required memory of the
    /// components currently assigned to each host. Callers that place many
    /// components in sequence maintain this vector incrementally and use
    /// [`admits_with_load`](Self::admits_with_load) to turn the O(n_comps)
    /// memory rescan inside [`admits`](Self::admits) into an O(1) lookup.
    pub fn load_of(&self, assign: &[u32]) -> Vec<f64> {
        let mut load = vec![0.0; self.n_hosts];
        for (c, &h) in assign.iter().enumerate() {
            if h != UNASSIGNED {
                load[h as usize] += self.comp_memory[c];
            }
        }
        load
    }

    /// [`admits`](Self::admits) with the memory scan replaced by a
    /// caller-maintained per-host load vector. `load` must account for every
    /// assigned component — including `comp` at its current host, which is
    /// subtracted out here, mirroring the naive checker's exclusion of the
    /// component being placed. Returns exactly what `admits` returns, in
    /// O(groups(comp)) instead of O(n_comps). Always inlined into the
    /// placement loops that probe it hundreds of thousands of times per
    /// solve.
    #[inline(always)]
    pub fn admits_with_load(&self, assign: &[u32], load: &[f64], comp: u32, host: u32) -> bool {
        let c = comp as usize;
        let h = host as usize;
        if self.restricted[c] && !self.admits_placement(assign, comp, host) {
            return false;
        }
        if self.enforce_memory {
            let mut used = load[h];
            if assign[c] == host {
                used -= self.comp_memory[c];
            }
            if used + self.comp_memory[c] > self.host_memory[h] {
                return false;
            }
        }
        true
    }

    /// Whether memory alone refuses `host`, at `load`, every component not
    /// on it that needs at least `memory`: a placement loop may stop
    /// probing the host. `false` when memory is not enforced.
    #[inline]
    pub fn refuses_at_least(&self, load: &[f64], host: u32, memory: f64) -> bool {
        let h = host as usize;
        self.enforce_memory && load[h] + memory > self.host_memory[h]
    }

    /// Appends to `out`, in order, each of `hosts` that
    /// [`admits_with_load`](Self::admits_with_load) admits `comp` on. For a
    /// component no constraint names that is the memory compare alone, with
    /// everything that does not depend on the host read once.
    #[inline]
    pub fn admitted(
        &self,
        assign: &[u32],
        load: &[f64],
        comp: u32,
        hosts: impl Iterator<Item = u32>,
        out: &mut Vec<u32>,
    ) {
        let c = comp as usize;
        if self.restricted[c] {
            out.extend(hosts.filter(|&h| self.admits_with_load(assign, load, comp, h)));
        } else if self.enforce_memory {
            let (cur, mem) = (assign[c], self.comp_memory[c]);
            out.extend(hosts.filter(|&h| {
                let mut used = load[h as usize];
                if cur == h {
                    used -= mem;
                }
                // What `admits_with_load` rejects, `used + mem > capacity`.
                (used + mem).partial_cmp(&self.host_memory[h as usize]) != Some(Ordering::Greater)
            }));
        } else {
            out.extend(hosts);
        }
    }

    /// Projects the checker onto super-node clusters for the coarse phase of
    /// hierarchical placement: "host" `k` of the projection is cluster `k`.
    ///
    /// * a component may go to a cluster iff at least one of the cluster's
    ///   hosts allows it;
    /// * collocated groups survive (same host ⇒ same cluster);
    /// * separated groups are dropped — distinct hosts may share a cluster,
    ///   so the projection cannot express them (refinement re-checks against
    ///   the exact constraints);
    /// * the memory check compares against aggregate cluster capacity.
    ///
    /// The result is a *relaxation*: every assignment the exact checker
    /// admits maps to an admitted cluster assignment, never the other way
    /// around, so coarse solutions always need the within-cluster
    /// refinement + repair pass to become exact.
    ///
    /// `cluster_of` must map the hosts onto all `n_clusters` clusters (none
    /// empty, as [`Hierarchy`] builds them): a component
    /// no location constraint names may go to every cluster.
    pub fn project_to_clusters(
        &self,
        cluster_of: &[u32],
        n_clusters: usize,
        cluster_capacity: &[f64],
    ) -> CompiledConstraints {
        debug_assert_eq!(cluster_of.len(), self.n_hosts);
        debug_assert_eq!(cluster_capacity.len(), n_clusters);
        debug_assert!((0..n_clusters as u32).all(|k| cluster_of.contains(&k)));
        // Row r of the projection is row r of the source, so the per-
        // component index carries over unchanged.
        let rows = self.masks.chunks_exact(self.n_hosts.max(1));
        let mut masks = vec![false; rows.len() * n_clusters];
        for (row, mask) in rows.enumerate() {
            for h in (0..self.n_hosts).filter(|&h| mask[h]) {
                masks[row * n_clusters + cluster_of[h] as usize] = true;
            }
        }
        let mut projected = CompiledConstraints {
            n_hosts: n_clusters,
            n_comps: self.n_comps,
            require_complete: self.require_complete,
            location_row: self.location_row.clone(),
            restricted: self.location_row.iter().map(|&row| row != FREE).collect(),
            masks,
            groups: Vec::new(),
            member_groups: vec![Vec::new(); self.n_comps],
            enforce_memory: self.enforce_memory,
            comp_memory: self.comp_memory.clone(),
            host_memory: cluster_capacity.to_vec(),
        };
        for (kind, members) in &self.groups {
            if *kind == GroupKind::Collocated {
                projected.add_group(GroupKind::Collocated, members.clone());
            }
        }
        projected
    }
}

// ---- opt-out wrapper ------------------------------------------------------

/// Wraps an objective or a constraint checker and hides its compiled form,
/// so every algorithm scores it through
/// [`Objective::evaluate`](crate::Objective::evaluate) or checks it through
/// [`ConstraintChecker::check`](crate::ConstraintChecker::check) /
/// [`admits`](crate::ConstraintChecker::admits) —
/// the same body, opaque scoring or probing. Used by benchmarks and the
/// dense-vs-opaque equivalence tests, which hold the dense forms to the
/// naive evaluators.
#[derive(Debug)]
pub struct Uncompiled<'a, T: ?Sized>(pub &'a T);

impl<T: crate::Objective + ?Sized> crate::Objective for Uncompiled<'_, T> {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn direction(&self) -> Direction {
        self.0.direction()
    }

    fn evaluate(&self, model: &DeploymentModel, deployment: &Deployment) -> f64 {
        self.0.evaluate(model, deployment)
    }

    fn is_improvement(&self, incumbent: f64, candidate: f64) -> bool {
        self.0.is_improvement(incumbent, candidate)
    }

    fn worst(&self) -> f64 {
        self.0.worst()
    }

    fn utility_of(&self, value: f64) -> f64 {
        self.0.utility_of(value)
    }

    fn utility(&self, model: &DeploymentModel, deployment: &Deployment) -> f64 {
        self.0.utility(model, deployment)
    }

    fn compiled(&self) -> Option<CompiledObjective> {
        None
    }
}

impl<T: crate::ConstraintChecker + ?Sized> crate::ConstraintChecker for Uncompiled<'_, T> {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn check(
        &self,
        model: &DeploymentModel,
        deployment: &Deployment,
    ) -> Result<(), crate::ConstraintViolation> {
        self.0.check(model, deployment)
    }

    fn admits(
        &self,
        model: &DeploymentModel,
        partial: &Deployment,
        component: ComponentId,
        host: HostId,
    ) -> bool {
        self.0.admits(model, partial, component, host)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraints::{Constraint, ConstraintChecker, MemoryConstraint};
    use crate::objectives::{
        Availability, CommunicationVolume, Composite, Latency, LinkSecurity, Objective,
        PathAwareAvailability,
    };

    fn h(n: u32) -> HostId {
        HostId::new(n)
    }
    fn c(n: u32) -> ComponentId {
        ComponentId::new(n)
    }

    /// Three hosts in a line (a—b—c), three components in a triangle.
    fn fixture() -> DeploymentModel {
        let mut m = DeploymentModel::new();
        let ha = m.add_host("a").unwrap();
        let hb = m.add_host("b").unwrap();
        let hc = m.add_host("c").unwrap();
        m.set_physical_link(ha, hb, |l| {
            l.set_reliability(0.9);
            l.set_bandwidth(10.0);
            l.set_delay(2.0);
            l.set_security(0.5);
        })
        .unwrap();
        m.set_physical_link(hb, hc, |l| {
            l.set_reliability(0.8);
            l.set_bandwidth(5.0);
            l.set_delay(1.0);
            l.set_security(0.75);
        })
        .unwrap();
        let x = m.add_component("x").unwrap();
        let y = m.add_component("y").unwrap();
        let z = m.add_component("z").unwrap();
        m.set_logical_link(x, y, |l| {
            l.set_frequency(4.0);
            l.set_event_size(20.0);
        })
        .unwrap();
        m.set_logical_link(y, z, |l| {
            l.set_frequency(2.0);
            l.set_event_size(8.0);
        })
        .unwrap();
        m.set_logical_link(x, z, |l| {
            l.set_frequency(1.0);
            l.set_event_size(16.0);
        })
        .unwrap();
        m
    }

    fn all_deployments(n_hosts: u32, n_comps: u32) -> Vec<Deployment> {
        let mut out = Vec::new();
        let total = (n_hosts as usize).pow(n_comps);
        for code in 0..total {
            let mut d = Deployment::new();
            let mut rem = code;
            for comp in 0..n_comps {
                d.assign(c(comp), h((rem % n_hosts as usize) as u32));
                rem /= n_hosts as usize;
            }
            out.push(d);
        }
        out
    }

    fn objectives() -> Vec<Box<dyn Objective>> {
        vec![
            Box::new(Availability),
            Box::new(PathAwareAvailability),
            Box::new(Latency::new()),
            Box::new(CommunicationVolume),
            Box::new(LinkSecurity),
            Box::new(
                Composite::new()
                    .with("availability", PathAwareAvailability, 0.6)
                    .with("latency", Latency::new(), 0.3)
                    .with("security", LinkSecurity, 0.1),
            ),
        ]
    }

    #[test]
    fn compiled_links_follow_btreemap_order() {
        let m = fixture();
        let cm = CompiledModel::compile(&m);
        assert_eq!(cm.n_hosts(), 3);
        assert_eq!(cm.n_comps(), 3);
        let pairs: Vec<(u32, u32)> = cm.links().iter().map(|l| (l.a, l.b)).collect();
        assert_eq!(pairs, vec![(0, 1), (0, 2), (1, 2)]);
        // CSR incident lists are ascending by the opposite endpoint.
        for comp in 0..3 {
            let others: Vec<u32> = cm
                .incident(comp)
                .iter()
                .map(|&li| cm.links()[li as usize].other(comp))
                .collect();
            let mut sorted = others.clone();
            sorted.sort_unstable();
            assert_eq!(others, sorted, "incident list of {comp} not ascending");
        }
    }

    #[test]
    fn path_reliability_matrix_matches_best_path() {
        let m = fixture();
        let cm = CompiledModel::compile(&m);
        for (ai, &a) in cm.host_ids().iter().enumerate() {
            for (bi, &b) in cm.host_ids().iter().enumerate() {
                let naive = if a == b {
                    1.0
                } else {
                    m.best_path(a, b).map(|p| p.reliability).unwrap_or(0.0)
                };
                assert_eq!(
                    cm.path_reliability(ai as u32, bi as u32),
                    naive,
                    "path reliability mismatch for ({a}, {b})"
                );
            }
        }
    }

    #[test]
    fn score_full_matches_naive_for_every_objective_and_deployment() {
        let m = fixture();
        let cm = CompiledModel::compile(&m);
        for obj in objectives() {
            let co = obj.compiled().expect("built-in objectives compile");
            let mut inc = IncrementalScore::new(&cm, &co);
            for d in all_deployments(3, 3) {
                let naive = obj.evaluate(&m, &d);
                let compiled = inc.assign_from(&cm.compile_assignment(&d));
                assert!(
                    (naive - compiled).abs() <= 1e-12,
                    "{}: naive {naive} vs compiled {compiled}",
                    obj.name()
                );
            }
        }
    }

    #[test]
    fn partial_deployments_score_identically() {
        let m = fixture();
        let cm = CompiledModel::compile(&m);
        let mut d = Deployment::new();
        d.assign(c(0), h(1));
        for obj in objectives() {
            let co = obj.compiled().unwrap();
            let mut inc = IncrementalScore::new(&cm, &co);
            let compiled = inc.assign_from(&cm.compile_assignment(&d));
            assert!(
                (obj.evaluate(&m, &d) - compiled).abs() <= 1e-12,
                "{}",
                obj.name()
            );
        }
    }

    #[test]
    fn delta_moves_track_full_rescoring() {
        let m = fixture();
        let cm = CompiledModel::compile(&m);
        for obj in objectives() {
            let co = obj.compiled().unwrap();
            let mut inc = IncrementalScore::new(&cm, &co);
            inc.assign_from(&[0, 0, 0]);
            let moves = [
                (0u32, 1u32),
                (2, 2),
                (1, 1),
                (0, 0),
                (2, UNASSIGNED),
                (2, 1),
            ];
            for &(comp, host) in &moves {
                let peeked = inc.peek(comp, host);
                inc.set(comp, host);
                assert_eq!(inc.value(), peeked, "peek must equal committed value");
                let mut fresh = IncrementalScore::new(&cm, &co);
                let full = fresh.assign_from(inc.assignment());
                assert!(
                    (inc.value() - full).abs() <= 1e-9,
                    "{}: delta {} vs full {full}",
                    obj.name(),
                    inc.value()
                );
            }
            assert_eq!(inc.full_evaluations(), 1);
            // each move is scored twice: one peek + one committed set
            assert_eq!(inc.delta_evaluations(), 2 * moves.len() as u64);
        }
    }

    #[test]
    fn assignment_roundtrips_through_dense_form() {
        let m = fixture();
        let cm = CompiledModel::compile(&m);
        let mut d = Deployment::new();
        d.assign(c(0), h(2));
        d.assign(c(2), h(0));
        let dense = cm.compile_assignment(&d);
        assert_eq!(dense, vec![2, UNASSIGNED, 0]);
        assert_eq!(cm.decode_assignment(&dense), d);
    }

    #[test]
    fn compiled_constraints_match_naive_check_and_admits() {
        let mut m = fixture();
        m.constraints_mut().add(Constraint::Separated {
            components: [c(0), c(1)].into_iter().collect(),
        });
        m.constraints_mut().add(Constraint::NotOn {
            component: c(2),
            hosts: [h(0)].into_iter().collect(),
        });
        m.component_mut(c(0)).unwrap().set_required_memory(6.0);
        m.component_mut(c(1)).unwrap().set_required_memory(6.0);
        m.host_mut(h(0)).unwrap().set_memory(10.0);
        m.constraints_mut().set_enforce_memory(true);
        let cm = CompiledModel::compile(&m);
        let naive = m.constraints().clone();
        let cc = naive.compile(&m, &cm).expect("constraint set compiles");

        for d in all_deployments(3, 3) {
            let dense = cm.compile_assignment(&d);
            assert_eq!(
                naive.check(&m, &d).is_ok(),
                cc.check(&dense),
                "check mismatch for {dense:?}"
            );
            for comp in 0..3u32 {
                let mut without = d.clone();
                without.unassign(c(comp));
                let mut dense_w = cm.compile_assignment(&without);
                dense_w[comp as usize] = UNASSIGNED;
                for host in 0..3u32 {
                    assert_eq!(
                        naive.admits(&m, &without, c(comp), h(host)),
                        cc.admits(&dense_w, comp, host),
                        "admits mismatch for {dense_w:?} comp {comp} host {host}"
                    );
                }
            }
        }
    }

    #[test]
    fn memory_constraint_compiles_standalone() {
        let mut m = fixture();
        m.component_mut(c(0)).unwrap().set_required_memory(8.0);
        m.host_mut(h(1)).unwrap().set_memory(4.0);
        let cm = CompiledModel::compile(&m);
        let cc = MemoryConstraint.compile(&m, &cm).expect("memory compiles");
        let mut dense = vec![UNASSIGNED; 3];
        assert!(cc.admits(&dense, 0, 0));
        assert!(!cc.admits(&dense, 0, 1));
        dense[0] = 1;
        assert!(!cc.check(&dense));
        dense[0] = 0;
        assert!(cc.check(&dense));
    }

    #[test]
    fn memory_check_passes_an_empty_host_whatever_its_capacity() {
        let cm = CompiledModel::compile(&fixture());
        let mut cc = CompiledConstraints::new(&cm, false, true);
        cc.comp_memory = vec![4.0; 3];
        cc.host_memory = vec![8.0, 4.0, -1.0];
        assert!(cc.check(&[0, 0, 1]));
        assert!(cc.check(&[0, 1, UNASSIGNED]));
        assert!(!cc.check(&[0, 0, 0]), "host 0 over capacity");
        assert!(!cc.check(&[0, 1, 2]), "host 2 holds a component");
    }

    /// Requires `cm.neighbors(a)` to be exactly `{b : cm.connected(a, b)}`,
    /// ascending, for every host `a`.
    fn assert_neighbors_match_matrix(cm: &CompiledModel) -> Result<(), proptest::TestCaseError> {
        for a in 0..cm.n_hosts() as u32 {
            let expected: Vec<u32> = (0..cm.n_hosts() as u32)
                .filter(|&b| cm.connected(a, b))
                .collect();
            proptest::prop_assert_eq!(cm.neighbors(a), &expected[..], "host {}", a);
        }
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        #[test]
        fn neighbor_index_lists_each_hosts_connected_hosts_ascending(
            seed in proptest::prelude::any::<u64>(),
            hosts in 1usize..12,
            density in 0.0f64..=1.0,
            cuts in proptest::prelude::any::<u64>(),
            k in 0usize..9,
            cells in proptest::prelude::any::<u64>(),
        ) {
            let mut config = crate::GeneratorConfig::sized(hosts, 4).with_seed(seed);
            config.physical_density = density;
            let mut m = crate::Generator::generate(&config).unwrap().model;
            // Drop links and hosts by the bits of `cuts`, so ids have gaps
            // and some hosts are left with no link at all.
            let mut bits = (0..64).map(|i| cuts >> i & 1 == 1).cycle();
            let links: Vec<_> = m.physical_links().map(|l| l.ends()).collect();
            for ends in links {
                if bits.next().unwrap() {
                    m.remove_physical_link(ends.lo(), ends.hi()).unwrap();
                }
            }
            for h in m.host_ids() {
                if bits.next().unwrap() && bits.next().unwrap() {
                    m.remove_host(h).unwrap();
                }
            }
            let cm = CompiledModel::compile(&m);
            assert_neighbors_match_matrix(&cm)?;
            // `with_hosts` over an arbitrary matrix, asymmetric and with
            // set diagonal cells included.
            let connected: Vec<bool> = (0..k * k).map(|i| cells >> (i % 64) & 1 == 1).collect();
            let coarse = cm.with_hosts(
                (0..k as u32).map(HostId::new).collect(),
                vec![0.0; k * k],
                vec![0.0; k * k],
                vec![0.0; k * k],
                vec![0.0; k * k],
                connected,
                vec![0.0; k],
            );
            assert_neighbors_match_matrix(&coarse)?;
        }
    }

    /// The pricing loop the kernel replaced, one candidate at a time and
    /// built from [`PartKind::contribution`] alone: each part's sum with
    /// `comp` on `host` starts from the committed sum and adds `new − old`
    /// per incident link, in incident order; a move to the current host
    /// adds nothing.
    fn reference_sums(inc: &IncrementalScore<'_>, comp: u32, host: u32) -> Vec<f64> {
        let m = inc.model;
        let cur = inc.assign[comp as usize];
        let parts = inc.objective.parts().iter().zip(&inc.sums);
        parts
            .map(|(&(kind, _), &start)| {
                let mut sum = start;
                if host != cur {
                    for &li in m.incident(comp) {
                        let link = &m.links()[li as usize];
                        let ends = |h: u32| {
                            if link.a == comp {
                                (h, inc.assign[link.b as usize])
                            } else {
                                (inc.assign[link.a as usize], h)
                            }
                        };
                        let ((na, nb), (oa, ob)) = (ends(host), ends(cur));
                        sum +=
                            kind.contribution(m, link, na, nb) - kind.contribution(m, link, oa, ob);
                    }
                }
                sum
            })
            .collect()
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// Frequencies the pricing pin writes past the setter's guard: the
    /// gate's edge cases (zero, negative, NaN, ±∞) among ordinary ones.
    const PIN_FREQUENCIES: [f64; 8] = [
        0.0,
        -3.0,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        1.5,
        0.25,
        7.0,
    ];

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// `peek`, `peek_many` and the sums `set` commits equal
        /// [`reference_sums`] bit for bit, for all five kinds and a
        /// composite of them.
        #[test]
        fn pricing_matches_the_reference_loop_bit_for_bit(
            hosts in 1usize..9,
            comps in 2usize..9,
            density in 0.0f64..=1.0,
            seed in proptest::prelude::any::<u64>(),
            hub in proptest::prelude::any::<bool>(),
            dull in proptest::collection::vec(proptest::prelude::any::<u32>(), 0..24),
            raw in proptest::collection::vec(proptest::prelude::any::<u32>(), 1..16),
            batches in proptest::collection::vec(
                (
                    proptest::prelude::any::<u32>(),
                    proptest::collection::vec(proptest::prelude::any::<u32>(), 0..10),
                ),
                1..6,
            ),
        ) {
            let mut config = crate::GeneratorConfig::sized(hosts, comps).with_seed(seed);
            // Sparse networks route over several hops, where the best-path
            // matrix stops being symmetric.
            config.physical_density = density * density;
            config.logical_density = 0.6;
            config.host_memory = crate::Range::new(1_000.0, 2_000.0);
            config.component_memory = crate::Range::new(1.0, 10.0);
            let mut m = crate::Generator::generate(&config).unwrap().model;
            // A hub with more than 64 incident links.
            if hub {
                let first = m.component_ids()[0];
                for i in 0..70 {
                    let spoke = m.add_component(format!("spoke{i}")).unwrap();
                    m.set_logical_link(first, spoke, |l| {
                        l.set_frequency(1.0 + i as f64);
                    })
                    .unwrap();
                }
            }
            let ends: Vec<_> = m.logical_links().map(|l| l.ends()).collect();
            for (i, &pick) in dull.iter().enumerate() {
                let Some(pair) = ends.get(pick as usize % ends.len().max(1)) else { break };
                let frequency = PIN_FREQUENCIES[(pick as usize / 7 + i) % PIN_FREQUENCIES.len()];
                m.set_logical_link(pair.lo(), pair.hi(), |l| {
                    l.params_mut().set(crate::keys::INTERACTION_FREQUENCY, frequency);
                })
                .unwrap();
            }
            let cm = CompiledModel::compile(&m);
            let (n_hosts, n_comps) = (cm.n_hosts() as u32, cm.n_comps() as u32);
            // Some components, neighbours included, start unassigned.
            let assign: Vec<u32> = (0..n_comps as usize)
                .map(|i| match raw[i % raw.len()] % (n_hosts + 1) {
                    h if h == n_hosts => UNASSIGNED,
                    h => h,
                })
                .collect();
            use PartKind::*;
            let kinds = [Availability, PathAwareAvailability, Latency, CommunicationVolume, LinkSecurity];
            let objectives = kinds
                .iter()
                .map(|&k| CompiledObjective::single(k))
                .chain([CompiledObjective::composite(
                    kinds.iter().zip([0.4, 0.3, 0.1, 0.15, 0.05]).map(|(&k, w)| (k, w)).collect(),
                )]);
            let mut out = vec![f64::NAN; 3];
            for co in objectives {
                let mut inc = IncrementalScore::new(&cm, &co);
                inc.assign_from(&assign);
                for (b, (rc, picks)) in batches.iter().enumerate() {
                    let comp = if hub && b % 2 == 0 { 0 } else { rc % n_comps };
                    // Any host, the unassign slot, the current host first
                    // and the last pick repeated.
                    let mut cands: Vec<u32> = picks
                        .iter()
                        .map(|p| match p % (n_hosts + 1) {
                            h if h == n_hosts => UNASSIGNED,
                            h => h,
                        })
                        .collect();
                    if let Some(first) = cands.first_mut() {
                        *first = inc.assignment()[comp as usize];
                    }
                    if let Some(&last) = cands.last() {
                        cands.push(last);
                    }
                    let expected: Vec<Vec<f64>> =
                        cands.iter().map(|&h| reference_sums(&inc, comp, h)).collect();
                    let scores: Vec<f64> =
                        expected.iter().map(|s| co.score(s, &cm)).collect();
                    inc.peek_many(comp, &cands, &mut out);
                    proptest::prop_assert_eq!(bits(&out), bits(&scores), "{:?} comp {} {:?}", co, comp, cands);
                    inc.peek_many(comp, &[], &mut out);
                    proptest::prop_assert!(out.is_empty());
                    for (&h, &score) in cands.iter().zip(&scores) {
                        proptest::prop_assert_eq!(inc.peek(comp, h).to_bits(), score.to_bits());
                    }
                    if let (Some(&h), Some(sums)) = (cands.last(), expected.last()) {
                        inc.set(comp, h);
                        proptest::prop_assert_eq!(bits(&inc.sums), bits(sums), "{:?} set {} -> {}", co, comp, h);
                    }
                    // Every component to every host and to the unassign slot.
                    let every: Vec<u32> = (0..n_hosts).chain([UNASSIGNED]).collect();
                    for comp in 0..n_comps {
                        let scores: Vec<f64> = every
                            .iter()
                            .map(|&h| co.score(&reference_sums(&inc, comp, h), &cm))
                            .collect();
                        inc.peek_many(comp, &every, &mut out);
                        proptest::prop_assert_eq!(bits(&out), bits(&scores), "{:?} comp {}", co, comp);
                    }
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// `score_full`'s sums equal every link's reference contribution
        /// added in link order, bit for bit (any NaN for any NaN):
        /// edge-case frequencies, some ends unassigned, all five kinds.
        #[test]
        fn full_sums_match_the_reference_bit_for_bit(
            hosts in 1usize..9,
            density in 0.0f64..=1.0,
            seed in proptest::prelude::any::<u64>(),
            dull in proptest::collection::vec(proptest::prelude::any::<u32>(), 0..24),
            raw in proptest::collection::vec(proptest::prelude::any::<u32>(), 1..16),
        ) {
            let mut config = crate::GeneratorConfig::sized(hosts, 8).with_seed(seed);
            config.physical_density = density * density;
            config.host_memory = crate::Range::new(1_000.0, 2_000.0);
            config.component_memory = crate::Range::new(1.0, 10.0);
            let mut m = crate::Generator::generate(&config).unwrap().model;
            let ends: Vec<_> = m.logical_links().map(|l| l.ends()).collect();
            for (i, &pick) in dull.iter().enumerate() {
                let Some(pair) = ends.get(pick as usize % ends.len().max(1)) else { break };
                let frequency = PIN_FREQUENCIES[(pick as usize / 7 + i) % PIN_FREQUENCIES.len()];
                m.set_logical_link(pair.lo(), pair.hi(), |l| {
                    l.params_mut().set(crate::keys::INTERACTION_FREQUENCY, frequency);
                })
                .unwrap();
            }
            let cm = CompiledModel::compile(&m);
            let n_hosts = cm.n_hosts() as u32;
            let assign: Vec<u32> = (0..cm.n_comps())
                .map(|i| match raw[i % raw.len()] % (n_hosts + 1) {
                    h if h == n_hosts => UNASSIGNED,
                    h => h,
                })
                .collect();
            use PartKind::*;
            for kind in [Availability, PathAwareAvailability, Latency, CommunicationVolume, LinkSecurity] {
                let mut inc = IncrementalScore::new(&cm, &CompiledObjective::single(kind));
                inc.assign_from(&assign);
                let reference = cm.links().iter().fold(0.0, |sum, link| {
                    sum + kind.contribution(&cm, link, assign[link.a as usize], assign[link.b as usize])
                });
                // Rust leaves a NaN's sign and payload unspecified, so any
                // NaN matches any other.
                let (got, want) = (inc.sums[0], reference);
                proptest::prop_assert!(
                    got.to_bits() == want.to_bits() || got.is_nan() && want.is_nan(),
                    "{:?}: {} vs {}", kind, got, want
                );
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// Committing candidate `i` of a `peek_many` (or of a `peek`) leaves
        /// the scorer exactly as `set(comp, hosts[i])` does: sums, value,
        /// assignment and delta count, bit for bit, for all five kinds and
        /// a composite, over edge-case frequencies, unassigned ends,
        /// repeated and unassigning candidates, empty lists and a hub.
        #[test]
        fn committing_a_priced_candidate_equals_setting_it(
            hosts in 1usize..9,
            comps in 2usize..9,
            density in 0.0f64..=1.0,
            seed in proptest::prelude::any::<u64>(),
            hub in proptest::prelude::any::<bool>(),
            dull in proptest::collection::vec(proptest::prelude::any::<u32>(), 0..24),
            raw in proptest::collection::vec(proptest::prelude::any::<u32>(), 1..16),
            batches in proptest::collection::vec(
                (
                    proptest::prelude::any::<u32>(),
                    proptest::collection::vec(proptest::prelude::any::<u32>(), 0..10),
                ),
                1..6,
            ),
        ) {
            let mut config = crate::GeneratorConfig::sized(hosts, comps).with_seed(seed);
            config.physical_density = density * density;
            config.logical_density = 0.6;
            config.host_memory = crate::Range::new(1_000.0, 2_000.0);
            config.component_memory = crate::Range::new(1.0, 10.0);
            let mut m = crate::Generator::generate(&config).unwrap().model;
            if hub {
                let first = m.component_ids()[0];
                for i in 0..70 {
                    let spoke = m.add_component(format!("spoke{i}")).unwrap();
                    m.set_logical_link(first, spoke, |l| {
                        l.set_frequency(1.0 + i as f64);
                    })
                    .unwrap();
                }
            }
            let ends: Vec<_> = m.logical_links().map(|l| l.ends()).collect();
            for (i, &pick) in dull.iter().enumerate() {
                let Some(pair) = ends.get(pick as usize % ends.len().max(1)) else { break };
                let frequency = PIN_FREQUENCIES[(pick as usize / 7 + i) % PIN_FREQUENCIES.len()];
                m.set_logical_link(pair.lo(), pair.hi(), |l| {
                    l.params_mut().set(crate::keys::INTERACTION_FREQUENCY, frequency);
                })
                .unwrap();
            }
            let cm = CompiledModel::compile(&m);
            let (n_hosts, n_comps) = (cm.n_hosts() as u32, cm.n_comps() as u32);
            let slot = |p: u32| match p % (n_hosts + 1) {
                h if h == n_hosts => UNASSIGNED,
                h => h,
            };
            let assign: Vec<u32> = (0..n_comps as usize).map(|i| slot(raw[i % raw.len()])).collect();
            use PartKind::*;
            let kinds = [Availability, PathAwareAvailability, Latency, CommunicationVolume, LinkSecurity];
            let objectives = kinds
                .iter()
                .map(|&k| CompiledObjective::single(k))
                .chain([CompiledObjective::composite(
                    kinds.iter().zip([0.4, 0.3, 0.1, 0.15, 0.05]).map(|(&k, w)| (k, w)).collect(),
                )]);
            let mut out = Vec::new();
            for co in objectives {
                let mut inc = IncrementalScore::new(&cm, &co);
                inc.assign_from(&assign);
                for (b, (rc, picks)) in batches.iter().enumerate() {
                    let comp = if hub && b % 2 == 0 { 0 } else { rc % n_comps };
                    let mut cands: Vec<u32> = picks.iter().map(|&p| slot(p)).collect();
                    if let Some(first) = cands.first_mut() {
                        *first = inc.assignment()[comp as usize];
                    }
                    if let Some(&last) = cands.last() {
                        cands.push(last);
                    }
                    inc.peek_many(comp, &cands, &mut out);
                    if cands.is_empty() {
                        inc.peek_many(comp, &[], &mut out);
                        proptest::prop_assert!(out.is_empty());
                        continue;
                    }
                    for (i, &h) in cands.iter().enumerate() {
                        let (mut committed, mut set) = (inc.clone(), inc.clone());
                        committed.commit(comp, i);
                        set.set(comp, h);
                        proptest::prop_assert_eq!(bits(&committed.sums), bits(&set.sums), "{:?} comp {} candidate {}", co, comp, i);
                        proptest::prop_assert_eq!(committed.value().to_bits(), set.value().to_bits());
                        proptest::prop_assert_eq!(committed.assignment(), set.assignment());
                        proptest::prop_assert_eq!(committed.delta_evaluations(), set.delta_evaluations());
                    }
                    // A single peek, then commit what it priced; the walk
                    // goes on from there.
                    let h = cands[b % cands.len()];
                    let peeked = inc.peek(comp, h);
                    let mut set = inc.clone();
                    set.set(comp, h);
                    inc.commit(comp, 0);
                    proptest::prop_assert_eq!(bits(&inc.sums), bits(&set.sums));
                    proptest::prop_assert_eq!(inc.value().to_bits(), peeked.to_bits());
                    proptest::prop_assert_eq!(inc.delta_evaluations(), set.delta_evaluations());
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "not priced last")]
    fn commit_after_the_sums_changed_panics() {
        let cm = CompiledModel::compile(&fixture());
        let mut inc =
            IncrementalScore::new(&cm, &CompiledObjective::single(PartKind::Availability));
        inc.assign_from(&[0, 0, 0]);
        inc.peek(0, 1);
        inc.set(1, 2);
        inc.commit(0, 0);
    }

    /// `compile_assignment` and `decode_assignment` keep their documented
    /// contract: a component missing from the deployment, or on a host
    /// outside the model, is unassigned; a component outside the model is
    /// ignored; a deployment over the model's own ids round-trips.
    #[test]
    fn dense_assignments_keep_their_contract() {
        let m = fixture();
        let cm = CompiledModel::compile(&m);
        let d: Deployment = [(c(7), h(0)), (c(0), h(9)), (c(2), h(1)), (c(9), h(2))]
            .into_iter()
            .collect();
        assert_eq!(cm.compile_assignment(&d), vec![UNASSIGNED, UNASSIGNED, 1]);
        assert_eq!(
            cm.compile_assignment(&Deployment::new()),
            vec![UNASSIGNED; 3]
        );
        for d in all_deployments(3, 3) {
            let dense = cm.compile_assignment(&d);
            assert_eq!(cm.decode_assignment(&dense), d);
            assert_eq!(cm.compile_assignment(&cm.decode_assignment(&dense)), dense);
        }
        // Ids with gaps: the dense order is the id order, not the index.
        let mut gappy = fixture();
        gappy.remove_host(h(0)).unwrap();
        gappy.remove_component(c(1)).unwrap();
        let cm = CompiledModel::compile(&gappy);
        let d: Deployment = [(c(0), h(2)), (c(1), h(1)), (c(2), h(0))]
            .into_iter()
            .collect();
        assert_eq!(cm.compile_assignment(&d), vec![1, UNASSIGNED]);
        let dense = vec![0, 1];
        let back = cm.decode_assignment(&dense);
        assert_eq!(back, [(c(0), h(1)), (c(2), h(2))].into_iter().collect());
        assert_eq!(cm.compile_assignment(&back), dense);
        assert_eq!(
            cm.decode_assignment(&[UNASSIGNED, UNASSIGNED]),
            Deployment::new()
        );
    }

    /// Path-aware pricing reads the best-path matrix in each link's own
    /// orientation: on sparse networks that matrix is not symmetric, and
    /// an ulp of difference in one cell can survive into the sum.
    #[test]
    fn path_aware_pricing_matches_the_reference_on_asymmetric_paths() {
        let (mut asymmetric, mut every) = (0, Vec::new());
        for seed in 0..50 {
            let mut config = crate::GeneratorConfig::sized(8, 6).with_seed(seed);
            config.physical_density = 0.0;
            config.logical_density = 1.0;
            let cm = CompiledModel::compile(&crate::Generator::generate(&config).unwrap().model);
            let n = cm.n_hosts() as u32;
            for (a, b) in (0..n).flat_map(|a| (0..n).map(move |b| (a, b))) {
                asymmetric += usize::from(
                    cm.path_reliability(a, b).to_bits() != cm.path_reliability(b, a).to_bits(),
                );
            }
            let co = CompiledObjective::single(PartKind::PathAwareAvailability);
            let mut inc = IncrementalScore::new(&cm, &co);
            inc.assign_from(&[0, 1, 2, 3, 4, 5]);
            let hosts: Vec<u32> = (0..n).collect();
            for comp in 0..cm.n_comps() as u32 {
                let scores: Vec<f64> = hosts
                    .iter()
                    .map(|&h| co.score(&reference_sums(&inc, comp, h), &cm))
                    .collect();
                inc.peek_many(comp, &hosts, &mut every);
                assert_eq!(bits(&every), bits(&scores), "seed {seed} comp {comp}");
            }
        }
        assert!(asymmetric > 0, "no asymmetric best-path cell to test");
    }

    #[test]
    fn uncompiled_wrapper_hides_the_compiled_form() {
        let obj = Availability;
        assert!(obj.compiled().is_some());
        let wrapped = Uncompiled(&obj);
        assert!(wrapped.compiled().is_none());
        let m = fixture();
        let d: Deployment = [(c(0), h(0)), (c(1), h(1)), (c(2), h(1))]
            .into_iter()
            .collect();
        assert_eq!(wrapped.evaluate(&m, &d), obj.evaluate(&m, &d));
        assert_eq!(wrapped.name(), obj.name());

        let mut m = m;
        m.constraints_mut().add(Constraint::Separated {
            components: [c(1), c(2)].into_iter().collect(),
        });
        let cm = CompiledModel::compile(&m);
        let checker = m.constraints();
        assert!(checker.compile(&m, &cm).is_some());
        let wrapped = Uncompiled(checker);
        assert!(wrapped.compile(&m, &cm).is_none());
        assert_eq!(wrapped.check(&m, &d), checker.check(&m, &d));
        assert!(wrapped.check(&m, &d).is_err());
        let mut partial = d.clone();
        partial.unassign(c(2));
        for host in 0..3 {
            assert_eq!(
                wrapped.admits(&m, &partial, c(2), h(host)),
                checker.admits(&m, &partial, c(2), h(host))
            );
        }
        assert!(!wrapped.admits(&m, &partial, c(2), h(1)));
        assert_eq!(wrapped.name(), checker.name());
    }
}
