//! DecAp: the decentralized auction-based redeployment algorithm (§5.2).
//!
//! "In DecAp, each Decentralized Algorithm component acts as an agent and
//! may conduct or participate in auctions. Each host's agent initiates an
//! auction for the redeployment of its local components, assuming none of
//! its neighboring (i.e., connected) hosts is already conducting an auction.
//! […] The bidding agent on a given host calculates an initial bid for the
//! auctioned component, by considering the frequency and volume of
//! interaction between components on its host and the auctioned component.
//! […] The host with the highest bid is selected as the winner and the
//! component is redeployed to it. The complexity of this algorithm is
//! O(k·n³)."
//!
//! The implementation emulates the auction protocol deterministically over
//! [`AwarenessGraph`] partial views: every bid is computed from what the
//! bidder can actually see, never from global knowledge, so results degrade
//! gracefully with lower awareness (experiment E9 sweeps this).
//!
//! The partial views are never materialized: a bid is an incident-link sum
//! over the [`redep_model::CompiledModel`] CSR index, masked by a host
//! visibility bitset — the submodel
//! [`AwarenessGraph::partial_view`] would build, without the per-bid clone.
//!
//! Nor is every visible host priced: only a host that holds one of the
//! auctioned component's partners, or is physically linked to one, can bid
//! above zero, so an auction walks the partners' hosts' neighbor lists
//! ([`redep_model::CompiledModel::neighbors`]) and checks admissibility
//! only for the bids that beat retention (see `Bidding`). Flat and
//! hierarchical DecAp share that kernel; their wall times at E3d's scales
//! are `e3d.decap.200x2000.wall_ms` and `e3d.decap.1000x10000.wall_secs`
//! in `BENCH_algorithms.json`.

use crate::compiled::{compile, Compiled};
use crate::hierarchy::HierarchicalConfig;
use crate::parallel::{run_shards, run_shards_beside};
use crate::traits::{
    choose, feasible_initial, preflight, AlgoError, AlgoResult, RedeploymentAlgorithm,
};
use redep_model::{
    AwarenessGraph, CompiledModel, ConstraintChecker, Deployment, DeploymentModel, Objective,
    UNASSIGNED,
};
use std::sync::Mutex;
use std::time::Instant;

/// How monitoring information spreads between auction rounds.
///
/// The paper's base protocol auctions against a *static* partial view, so a
/// poorly connected host can starve: no bidder that could profitably take
/// its components ever becomes visible, capping the final availability well
/// below what centralized algorithms reach. Gossip exchange models the
/// monitoring layer forwarding its host inventories to every aware peer
/// between rounds, transitively widening each agent's view until the
/// auctions can see across the whole connected system.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum MonitoringExchange {
    /// No exchange: the awareness graph stays as configured.
    #[default]
    None,
    /// After each auction round every host merges the awareness sets of the
    /// hosts it can already see, `hops` times per round. An isolated host
    /// can see only itself and learns nothing — gossip never invents
    /// connectivity, it only forwards what some peer already observed.
    Gossip {
        /// Merge steps per round (1 doubles the view radius each round).
        hops: usize,
    },
}

/// What every host can see during one run: bit `b` of row `a` is set iff
/// host `a` is aware of host `b` (dense indices; hosts outside the model
/// cannot bid or conduct, so they drop out).
struct Views {
    /// `u64` words per row.
    width: usize,
    /// Row-major visibility bitset, `n_hosts` rows.
    bits: Vec<u64>,
    /// Row `a` as an ascending host list: the peers an auctioneer invites.
    aware: Vec<Vec<u32>>,
    /// Set once a gossip exchange finds nothing to add. The views are then
    /// closed under "what my peers see", which no later exchange can undo,
    /// so later exchanges are skipped.
    saturated: bool,
    /// Whether every host sees every host, when every `sees` probe is
    /// `true` and a bid kernel may skip them.
    full: bool,
}

impl Views {
    /// The views `awareness` gives, or without one the paper's default —
    /// each host aware of itself and its physical neighbors, read off the
    /// snapshot's neighbor index: the views
    /// [`AwarenessGraph::from_connectivity`] would give.
    fn new(cm: &CompiledModel, awareness: Option<&AwarenessGraph>) -> Views {
        let aware = (0..cm.n_hosts() as u32).map(|a| match awareness {
            Some(g) => {
                let peers = g.aware_of(cm.host_ids()[a as usize]);
                peers.iter().filter_map(|&h| cm.host_index(h)).collect()
            }
            None => {
                let neighbors = cm.neighbors(a);
                let split = neighbors.partition_point(|&b| b < a);
                let mut row = Vec::with_capacity(neighbors.len() + 1);
                row.extend_from_slice(&neighbors[..split]);
                row.push(a);
                row.extend_from_slice(&neighbors[split..]);
                row
            }
        });
        Views::from_lists(aware.collect())
    }

    /// Views from each host's ascending list of the hosts it is aware of.
    fn from_lists(aware: Vec<Vec<u32>>) -> Views {
        let width = aware.len().div_ceil(64);
        let mut bits = vec![0u64; aware.len() * width];
        for (a, peers) in aware.iter().enumerate() {
            for &b in peers {
                bits[a * width + b as usize / 64] |= 1 << (b % 64);
            }
        }
        let mut views = Views {
            width,
            bits,
            // No hosts, no rows to exchange: closed from the start.
            saturated: aware.is_empty(),
            aware,
            full: false,
        };
        views.full = views.every_row_full();
        views
    }

    /// Whether every row holds every host.
    fn every_row_full(&self) -> bool {
        let n = self.aware.len() as u32;
        self.bits
            .chunks_exact(self.width.max(1))
            .all(|row| row.iter().map(|w| w.count_ones()).sum::<u32>() == n)
    }

    /// Whether host `a` is aware of host `b`.
    #[inline]
    fn sees(&self, a: u32, b: u32) -> bool {
        self.bits[a as usize * self.width + b as usize / 64] >> (b % 64) & 1 == 1
    }

    /// One monitoring exchange of `hops` merge steps; returns whether any
    /// view widened. A step is `new(a) = row(a) ∪ ⋃_{p ∈ aware(a)} row(p)`
    /// over the rows the previous step left, with `aware(a)` the peer list
    /// `a` entered the exchange with — symmetric whenever the input
    /// relation is, and a fixed point for isolated hosts.
    fn gossip(&mut self, hops: usize) -> bool {
        if self.saturated {
            return false;
        }
        let w = self.width;
        let mut widened = false;
        for _ in 0..hops {
            let mut next = self.bits.clone();
            for (row, peers) in next.chunks_exact_mut(w).zip(&self.aware) {
                for &p in peers {
                    let seen = &self.bits[p as usize * w..][..w];
                    row.iter_mut().zip(seen).for_each(|(r, s)| *r |= s);
                }
            }
            if next == self.bits {
                break;
            }
            widened = true;
            self.bits = next;
        }
        if widened {
            for (list, row) in self.aware.iter_mut().zip(self.bits.chunks_exact(w)) {
                list.clear();
                for (i, &word) in row.iter().enumerate() {
                    let mut rest = word;
                    while rest != 0 {
                        list.push(i as u32 * 64 + rest.trailing_zeros());
                        rest &= rest - 1;
                    }
                }
            }
            self.full = self.every_row_full();
        } else {
            // Nothing changed on the first step, where `aware` still equals
            // the rows: the views are closed.
            self.saturated = true;
        }
        widened
    }
}

/// One auction's bid gathering, with scratch kept across auctions.
///
/// A bidder's bid sums one term per visible placed partner of the auctioned
/// component: the partner's volume when it sits on the bidder, else the
/// volume times the bidder's link reliability to the partner's host. That
/// reliability is `0.0` wherever no physical link exists, so only a
/// partner's host and its physical neighbors can bid above zero; every
/// other visible bidder bids exactly `+0.0`, which cannot beat a
/// non-negative retention value. The kernel therefore walks the partners'
/// hosts' neighbor lists, adding each invited bidder's terms in incident
/// order just as [`DecApAlgorithm::bid`] does, and keeps only the bids
/// above retention. Auctions it cannot price exactly — a non-finite partner
/// volume (`∞ × 0.0` is NaN), a retention value below zero (a `+0.0` bid
/// would beat it) or a NaN bid (whose place in the selection depends on
/// list order) — fall back to pricing every visible bidder.
struct Bidding {
    /// The auctioned component's placed partners as `(volume, host)`, in
    /// incident order.
    partners: Vec<(f64, u32)>,
    /// Each host's bid so far; `+0.0` for every host not in `touched`.
    acc: Vec<f64>,
    /// Whether a host is in `touched`.
    is_touched: Vec<bool>,
    /// How many entries of `touched` are live.
    n_touched: usize,
    /// The hosts some term was added to, in first-touch order: the first
    /// `n_touched` entries, with one slot more than there are hosts for
    /// `add`'s unconditional write.
    touched: Vec<u32>,
    /// The last auction's admissible bids that may win: above retention,
    /// in no particular order — or, after a fallback, every admissible
    /// visible bid in ascending bidder order.
    bids: Vec<(u32, f64)>,
    /// Test-only: hold every auction with the per-bidder oracle instead.
    #[cfg(test)]
    per_bidder: bool,
}

impl Bidding {
    fn new(n_hosts: usize) -> Bidding {
        Bidding {
            partners: Vec::new(),
            acc: vec![0.0; n_hosts],
            is_touched: vec![false; n_hosts],
            n_touched: 0,
            touched: vec![0; n_hosts + 1],
            bids: Vec::new(),
            #[cfg(test)]
            per_bidder: false,
        }
    }

    /// Holds `auctioneer`'s auction of its component `comp`: fills
    /// [`bids`](Self::bids) and returns the retention value (the
    /// auctioneer's own bid, `0.0` if it cannot see itself). A bidder is
    /// any host the auctioneer is aware of, other than itself, that sees
    /// the component's host and that `admits` — called with `comp` lifted
    /// out of `assign` — lets take the component. Every bid a caller
    /// selects a winner from is the one [`DecApAlgorithm::bid`] prices.
    fn auction(
        &mut self,
        c: &Compiled<'_>,
        views: &Views,
        assign: &mut [u32],
        auctioneer: u32,
        comp: u32,
        admits: impl Fn(&[u32], u32) -> bool,
    ) -> f64 {
        debug_assert_eq!(assign[comp as usize], auctioneer);
        #[cfg(test)]
        if self.per_bidder {
            return tests::per_bidder_auction(
                c,
                views,
                assign,
                auctioneer,
                comp,
                admits,
                &mut self.bids,
            );
        }
        let cm = &c.model;
        let retention = DecApAlgorithm::bid(c, views, assign, auctioneer, comp).unwrap_or(0.0);
        self.partners.clear();
        for &li in cm.incident(comp) {
            let l = &cm.links()[li as usize];
            let hd = assign[l.other(comp) as usize];
            if hd != UNASSIGNED {
                self.partners.push((l.volume, hd));
            }
        }
        self.bids.clear();
        let exact = retention >= 0.0
            && self.partners.iter().all(|p| p.0.is_finite())
            && self.above_retention(c, views, auctioneer, retention);
        if !exact {
            self.bids.clear();
            for &bidder in views.aware[auctioneer as usize].iter() {
                if bidder == auctioneer {
                    continue;
                }
                if let Some(b) = DecApAlgorithm::bid(c, views, assign, bidder, comp) {
                    self.bids.push((bidder, b));
                }
            }
        }
        assign[comp as usize] = UNASSIGNED;
        self.bids.retain(|&(bidder, _)| admits(assign, bidder));
        assign[comp as usize] = auctioneer;
        retention
    }

    /// Accumulates the partners' terms over their hosts and those hosts'
    /// neighbors and pushes the visible bids above `retention`; returns
    /// `false`, with `bids` part-filled, if a visible bid is NaN.
    fn above_retention(
        &mut self,
        c: &Compiled<'_>,
        views: &Views,
        auctioneer: u32,
        retention: f64,
    ) -> bool {
        let cm = &c.model;
        // The reliability matrix is symmetric, so a partner's terms read
        // its own host's row.
        for i in 0..self.partners.len() {
            let (volume, hd) = self.partners[i];
            self.add(views, auctioneer, hd, hd, volume);
            for &b in cm.neighbors(hd) {
                self.add(views, auctioneer, b, hd, volume * cm.reliability(hd, b));
            }
        }
        // `bids` is empty here. Every touched bid is written, and kept —
        // again without a branch — when its bidder sees the auctioned
        // component and it beats retention.
        let mut exact = true;
        let mut kept = 0;
        self.bids.resize(self.n_touched, (0, 0.0));
        for &bidder in &self.touched[..self.n_touched] {
            let bid = std::mem::replace(&mut self.acc[bidder as usize], 0.0);
            self.is_touched[bidder as usize] = false;
            let visible = views.full || views.sees(bidder, auctioneer);
            exact &= !(visible && bid.is_nan());
            self.bids[kept] = (bidder, bid);
            kept += (visible && bid > retention) as usize;
        }
        self.bids.truncate(kept);
        self.n_touched = 0;
        exact
    }

    /// Adds `term`, for a partner on host `hd`, to `bidder`'s bid if the
    /// auctioneer invites the bidder and the bidder sees `hd`.
    /// With every view full, every probe passes and none is made.
    #[inline]
    fn add(&mut self, views: &Views, auctioneer: u32, bidder: u32, hd: u32, term: f64) {
        let invited = bidder != auctioneer
            && (views.full || views.sees(auctioneer, bidder) && views.sees(bidder, hd));
        if !invited {
            return; // not invited, or the partner is outside its view
        }
        // Without a branch: the slot past the live entries is written
        // either way and kept only on a first touch.
        let first = !std::mem::replace(&mut self.is_touched[bidder as usize], true);
        self.touched[self.n_touched] = bidder;
        self.n_touched += first as usize;
        self.acc[bidder as usize] += term;
    }
}

/// Refills `by_host` with the components on each host under `assign`,
/// ascending per host, keeping its lists' allocations.
fn comps_by_host(assign: &[u32], by_host: &mut [Vec<u32>]) {
    by_host.iter_mut().for_each(Vec::clear);
    for (ci, &h) in assign.iter().enumerate() {
        if h != UNASSIGNED {
            by_host[h as usize].push(ci as u32);
        }
    }
}

/// What `host` puts up for auction: the components it held when the round
/// began plus those this round's `moves` — `(component, from, to)` — have
/// brought it since, ascending. Nothing has left yet: a host's components
/// only leave through its own auction, and it conducts one per round.
fn comps_on(by_host: &[Vec<u32>], moves: &[(u32, u32, u32)], host: u32) -> Vec<u32> {
    let mut on = by_host[host as usize].clone();
    let held = on.len();
    on.extend(moves.iter().filter(|m| m.2 == host).map(|m| m.0));
    if on.len() > held {
        on.sort_unstable();
    }
    on
}

/// The decentralized auction algorithm.
#[derive(Clone, PartialEq, Debug)]
pub struct DecApAlgorithm {
    awareness: Option<AwarenessGraph>,
    exchange: MonitoringExchange,
    hierarchy: Option<HierarchicalConfig>,
    /// Test-only: price every auction with the per-bidder oracle.
    #[cfg(test)]
    per_bidder: bool,
}

impl Default for DecApAlgorithm {
    fn default() -> Self {
        DecApAlgorithm::new()
    }
}

/// Bound on auction rounds.
const MAX_ROUNDS: usize = 10;

impl DecApAlgorithm {
    /// Creates the algorithm; awareness defaults to the model's physical
    /// connectivity (each host knows its direct neighbors), per the paper.
    pub fn new() -> Self {
        DecApAlgorithm {
            awareness: None,
            exchange: MonitoringExchange::None,
            hierarchy: None,
            #[cfg(test)]
            per_bidder: false,
        }
    }

    /// Uses an explicit awareness graph instead of physical connectivity.
    pub fn with_awareness(mut self, awareness: AwarenessGraph) -> Self {
        self.awareness = Some(awareness);
        self
    }

    /// Sets how monitoring information spreads between rounds.
    pub fn with_exchange(mut self, exchange: MonitoringExchange) -> Self {
        self.exchange = exchange;
        self
    }

    /// Runs the hierarchical variant (`decap-h`): one auction per super-node
    /// cluster per round, conducted in parallel over the refinement shards
    /// and applied deterministically in cluster order, with the configured
    /// [`MonitoringExchange`] widening views between rounds. Needs dense
    /// forms of both objective and checker; without them the flat body runs
    /// and the result is reported as `decap`.
    pub fn with_hierarchy(mut self, config: HierarchicalConfig) -> Self {
        self.hierarchy = Some(config);
        self
    }

    /// A host's valuation of holding component `comp`, computed strictly
    /// from its own partial view: interactions with `comp` that would become
    /// local count fully; interactions with visible components elsewhere
    /// count at the connecting link's reliability. The submodel a bidder
    /// sees is implied by the visibility mask, so the bid reduces to a
    /// masked incident-link sum. [`Bidding::auction`] prices retention
    /// with it, and every bidder when it cannot walk the neighbor lists.
    fn bid(c: &Compiled<'_>, views: &Views, assign: &[u32], bidder: u32, comp: u32) -> Option<f64> {
        let hc = assign[comp as usize];
        if hc == UNASSIGNED || !views.sees(bidder, hc) {
            return None; // cannot even see the auctioned component
        }
        let cm = &c.model;
        let mut value = 0.0;
        for &li in cm.incident(comp) {
            let l = &cm.links()[li as usize];
            let d = l.other(comp);
            let hd = assign[d as usize];
            if hd == UNASSIGNED || !views.sees(bidder, hd) {
                continue; // neighbor outside the bidder's view
            }
            if hd == bidder {
                value += l.volume; // would be local
            } else {
                value += l.volume * cm.reliability(bidder, hd);
            }
        }
        Some(value)
    }

    /// Bid-gathering scratch for one search body or shard.
    fn bidding(&self, n_hosts: usize) -> Bidding {
        Bidding {
            #[cfg(test)]
            per_bidder: self.per_bidder,
            ..Bidding::new(n_hosts)
        }
    }

    /// Runs the configured monitoring exchange between two rounds; returns
    /// whether any view widened.
    fn exchange_views(&self, views: &mut Views) -> bool {
        match self.exchange {
            MonitoringExchange::None => false,
            MonitoringExchange::Gossip { hops } => views.gossip(hops),
        }
    }

    /// DecAp improves a *running* deployment, the [`feasible_initial`] one;
    /// without one, start from a deterministic first-fit.
    fn starting_assignment(
        c: &Compiled<'_>,
        valid: Option<Vec<u32>>,
    ) -> Result<Vec<u32>, AlgoError> {
        if let Some(a) = valid {
            return Ok(a);
        }
        let mut a = vec![UNASSIGNED; c.model.n_comps()];
        for ci in 0..a.len() as u32 {
            let host = (0..c.model.n_hosts() as u32).find(|&h| c.constraints.admits(&a, ci, h));
            a[ci as usize] = host.ok_or(AlgoError::NoFeasibleDeployment)?;
        }
        Ok(a)
    }

    fn search(
        &self,
        c: &Compiled<'_>,
        initial: Option<&Deployment>,
        started: Instant,
    ) -> Result<AlgoResult, AlgoError> {
        let cm = &c.model;
        let n_hosts = cm.n_hosts();
        let mut views = Views::new(cm, self.awareness.as_ref());
        let valid = feasible_initial(c, initial);
        let base = valid.as_ref().map(|a| c.scorer().assign_from(a));
        let mut assign = Self::starting_assignment(c, valid)?;
        let mut bidding = self.bidding(n_hosts);

        let mut inc = c.scorer();
        let mut evaluations = 0u64;
        let mut convergence = Vec::new();
        let mut last_value = f64::NAN;
        let mut by_host = vec![Vec::new(); n_hosts];
        for round in 0..MAX_ROUNDS {
            let mut moved = false;
            // Auction scheduling: a host may conduct an auction only if no
            // host it is aware of already conducted one this round.
            let mut conducted = vec![false; n_hosts];
            comps_by_host(&assign, &mut by_host);
            let mut moves = Vec::new();
            for auctioneer in 0..n_hosts as u32 {
                let aware = &views.aware[auctioneer as usize];
                if aware.iter().any(|&a| conducted[a as usize]) {
                    continue;
                }
                conducted[auctioneer as usize] = true;

                for comp in comps_on(&by_host, &moves, auctioneer) {
                    // Bids from aware peers that could legally host the
                    // component, against the auctioneer's own retention bid.
                    let retention =
                        bidding.auction(c, &views, &mut assign, auctioneer, comp, |a, bidder| {
                            c.constraints.admits(a, comp, bidder)
                        });
                    // Highest bid wins; lowest host index breaks ties.
                    let winner = bidding.bids.iter().copied().reduce(|best, cand| {
                        if cand.1 > best.1 || (cand.1 == best.1 && cand.0 < best.0) {
                            cand
                        } else {
                            best
                        }
                    });
                    if let Some((winner, bid)) = winner {
                        if bid > retention {
                            assign[comp as usize] = winner;
                            if c.constraints.check(&assign) {
                                moves.push((comp, auctioneer, winner));
                                moved = true;
                            } else {
                                assign[comp as usize] = auctioneer;
                            }
                        }
                    }
                }
            }
            evaluations += 1;
            last_value = inc.assign_from(&assign);
            convergence.push((round as u64 + 1, last_value));
            let widened = self.exchange_views(&mut views);
            // A widened view can unlock auctions that had no visible bidder,
            // so only stop once both the deployment and the views are stable.
            if !moved && !widened {
                break;
            }
        }

        let full = inc.full_evaluations();
        let delta = inc.delta_evaluations();
        let candidate = Some((cm.decode_assignment(&assign), last_value));
        let (deployment, value) =
            choose(c, initial, base, candidate).ok_or(AlgoError::NoFeasibleDeployment)?;
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

    /// The hierarchical auction (`decap-h`): hosts are decomposed into
    /// super-node clusters and every round runs *one auction per cluster in
    /// parallel* over the shard pool. Each shard proposes winning moves
    /// against a private scorer clone of the round-start state
    /// (bids may cross cluster borders — that, plus the configured
    /// [`MonitoringExchange`], is what un-starves poorly connected hosts),
    /// and proposals are applied sequentially in cluster order with a full
    /// admissibility re-check, so the outcome is byte-identical at any
    /// thread count.
    fn search_hierarchical(
        &self,
        c: &Compiled<'_>,
        hcfg: &HierarchicalConfig,
        initial: Option<&Deployment>,
        started: Instant,
    ) -> Result<AlgoResult, AlgoError> {
        let cm = &c.model;
        let n_hosts = cm.n_hosts();
        let hier = cm.hierarchy();
        let k = hier.n_clusters();
        let mut views = Views::new(cm, self.awareness.as_ref());
        let valid = feasible_initial(c, initial);
        let mut assign = Self::starting_assignment(c, valid.clone())?;

        struct AuctionOut {
            /// `(component, from-host, to-host)` winning moves, in the order
            /// the shard's auctioneers produced them.
            proposals: Vec<(u32, u32, u32)>,
            delta: u64,
            pruned: u64,
        }

        let mut inc = c.scorer();
        let mut last_value = inc.assign_from(&assign);
        let mut convergence = vec![(0u64, last_value)];
        let mut shard_delta = 0u64;
        let mut pruned = 0u64;
        let mut rounds_done = 0u64;
        // With rotation, a single no-move round only proves the *current*
        // rotation's auctioneers are done; convergence needs a full rotation
        // (the largest cluster's worth of rounds) without movement.
        let rotation = (0..k)
            .map(|s| hier.hosts(s as u32).len())
            .max()
            .unwrap_or(1);
        let mut idle_rounds = 0usize;
        let threads = hcfg.threads.max(1) as u32;
        // The baseline guard's pricing of the checked start, with a
        // throwaway scorer beside the first round's auctions: it depends on
        // nothing they do.
        let mut baseline_job = Some(|| valid.as_ref().map(|a| c.scorer().assign_from(a)));
        let mut base = None;
        let mut by_host = vec![Vec::new(); n_hosts];
        // Each shard's auction scratch, kept from round to round: an
        // auction leaves it as it found it, so reuse changes nothing.
        let shard_scratch: Vec<Mutex<(Bidding, Vec<bool>)>> = (0..k)
            .map(|_| Mutex::new((self.bidding(n_hosts), vec![false; n_hosts])))
            .collect();
        for round in 0..MAX_ROUNDS {
            rounds_done = round as u64 + 1;
            let round_load = c.constraints.load_of(&assign);
            comps_by_host(&assign, &mut by_host);
            let by_host = &by_host;
            let inc_ref = &inc;
            let views_ref = &views;
            let load_ref = &round_load;
            let base_delta = inc.delta_evaluations();
            let auctions = |shard| {
                // Private round-start view: scoring clone, assignment
                // scratch, and load mirror. All reads below are against
                // this shard-local state, never the master.
                let mut local = inc_ref.clone();
                let mut scratch: Vec<u32> = local.assignment().to_vec();
                let mut load = load_ref.clone();
                let mut proposals: Vec<(u32, u32, u32)> = Vec::new();
                let mut local_pruned = 0u64;
                let mut own = shard_scratch[shard as usize]
                    .lock()
                    .expect("a shard's scratch is locked by that shard alone");
                let (bidding, conducted) = &mut *own;
                conducted.fill(false);
                // Rotate the conduction order by round: under wide
                // awareness the "no aware host already conducting" rule
                // would otherwise hand the auction to the same host
                // every round, starving everyone else's components.
                let cluster_hosts = hier.hosts(shard);
                for idx in 0..cluster_hosts.len() {
                    let auctioneer = cluster_hosts[(idx + round) % cluster_hosts.len()];
                    let aware = &views_ref.aware[auctioneer as usize];
                    if aware.iter().any(|&a| conducted[a as usize]) {
                        continue;
                    }
                    conducted[auctioneer as usize] = true;

                    for comp in comps_on(by_host, &proposals, auctioneer) {
                        // Everything outside the awareness view is a
                        // pruned candidate: it never gets priced.
                        local_pruned += (n_hosts as u64).saturating_sub(aware.len() as u64);
                        let retention = bidding.auction(
                            c,
                            views_ref,
                            &mut scratch,
                            auctioneer,
                            comp,
                            |a, bidder| c.constraints.admits_with_load(a, &load, comp, bidder),
                        );
                        let bids = &mut bidding.bids;
                        // Award to the best bidder whose move the score
                        // guard accepts: bidders outbidding the
                        // retention value are tried in descending-bid
                        // order and the component goes to the first one
                        // that improves the shard's view of the global
                        // objective, so local auction pressure cannot
                        // degrade the system.
                        // Descending bid, ascending bidder: a selection
                        // sort, since the first accepted bid ends it.
                        let order = |a: &(u32, f64), b: &(u32, f64)| {
                            b.1.total_cmp(&a.1).then(a.0.cmp(&b.0))
                        };
                        for next in 0..bids.len() {
                            let rest = bids[next..].iter().enumerate();
                            let top = rest.min_by(|a, b| order(a.1, b.1)).map_or(0, |t| t.0);
                            bids.swap(next, next + top);
                            let (bidder, bid) = bids[next];
                            if bid <= retention {
                                break; // bids only get lower from here
                            }
                            let v1 = local.peek(comp, bidder);
                            if c.objective.is_improvement(local.value(), v1) {
                                let mem = cm.comp_memory()[comp as usize];
                                load[auctioneer as usize] -= mem;
                                load[bidder as usize] += mem;
                                scratch[comp as usize] = bidder;
                                local.commit(comp, 0);
                                proposals.push((comp, auctioneer, bidder));
                                break;
                            }
                        }
                    }
                }
                AuctionOut {
                    proposals,
                    delta: local.delta_evaluations() - base_delta,
                    pruned: local_pruned,
                }
            };
            let outs = match baseline_job.take() {
                Some(job) => {
                    let (value, outs) = run_shards_beside(k as u32, threads, job, auctions);
                    base = value;
                    outs
                }
                None => run_shards(k as u32, threads, auctions),
            };

            // Apply phase: fold the per-cluster proposals in cluster order
            // against the master state, re-checking admissibility because a
            // proposal from an earlier cluster may have consumed the slot.
            let mut moved = false;
            let mut load = round_load;
            for out in outs {
                shard_delta += out.delta;
                pruned += out.pruned;
                for (comp, from, to) in out.proposals {
                    if assign[comp as usize] != from {
                        continue; // superseded by an earlier cluster's move
                    }
                    assign[comp as usize] = UNASSIGNED;
                    let ok = c.constraints.admits_with_load(&assign, &load, comp, to);
                    if ok {
                        assign[comp as usize] = to;
                        let mem = cm.comp_memory()[comp as usize];
                        load[from as usize] -= mem;
                        load[to as usize] += mem;
                        moved = true;
                    } else {
                        assign[comp as usize] = from;
                    }
                }
            }
            debug_assert!(c.constraints.check(&assign));
            last_value = inc.assign_from(&assign);
            convergence.push((round as u64 + 1, last_value));
            let widened = self.exchange_views(&mut views);
            if moved || widened {
                idle_rounds = 0;
            } else {
                idle_rounds += 1;
                if idle_rounds >= rotation {
                    break;
                }
            }
        }

        let candidate = if c.constraints.check(&assign) {
            Some((cm.decode_assignment(&assign), last_value))
        } else {
            debug_assert!(false, "hierarchical auction left an invalid deployment");
            None
        };
        let full = inc.full_evaluations();
        let delta = inc.delta_evaluations() + shard_delta;
        let (deployment, value) =
            choose(c, initial, base, candidate).ok_or(AlgoError::NoFeasibleDeployment)?;
        Ok(AlgoResult {
            algorithm: self.name().to_owned(),
            deployment,
            value,
            // Like the refinement engine, every deployment scoring counts:
            // the full/delta split below is the honest cost measure.
            evaluations: full + delta,
            wall_time: started.elapsed(),
            convergence,
            full_evaluations: full,
            delta_evaluations: delta,
            pruned_evaluations: pruned,
            hierarchy_clusters: k as u64,
            refine_rounds: rounds_done,
        })
    }
}

/// The name the flat body reports, whichever variant was configured.
const FLAT_NAME: &str = "decap";

impl RedeploymentAlgorithm for DecApAlgorithm {
    fn name(&self) -> &str {
        if self.hierarchy.is_some() {
            "decap-h"
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
        if let (Some(hcfg), Some(_)) = (&self.hierarchy, c.dense_constraints()) {
            return self.search_hierarchical(&c, hcfg, initial, started);
        }
        self.search(&c, initial, started)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use redep_model::{keys, Availability, Generator, GeneratorConfig, HostId};
    use std::collections::BTreeSet;
    use std::time::Duration;

    /// The auction as it was before the neighbor walk, kept as the
    /// kernel's oracle: every bidder the auctioneer is aware of, other than
    /// itself, is judged admissible with the component lifted out and then
    /// priced by [`DecApAlgorithm::bid`], in ascending host order.
    pub(super) fn per_bidder_auction(
        c: &Compiled<'_>,
        views: &Views,
        assign: &mut [u32],
        auctioneer: u32,
        comp: u32,
        admits: impl Fn(&[u32], u32) -> bool,
        bids: &mut Vec<(u32, f64)>,
    ) -> f64 {
        let retention = DecApAlgorithm::bid(c, views, assign, auctioneer, comp).unwrap_or(0.0);
        bids.clear();
        let aware = &views.aware[auctioneer as usize];
        for &bidder in aware.iter().filter(|&&b| b != auctioneer) {
            assign[comp as usize] = UNASSIGNED;
            let admissible = admits(assign, bidder);
            assign[comp as usize] = auctioneer;
            if !admissible {
                continue;
            }
            if let Some(b) = DecApAlgorithm::bid(c, views, assign, bidder, comp) {
                bids.push((bidder, b));
            }
        }
        retention
    }

    /// Runs `algo` with the neighbor-walk kernel and with the per-bidder
    /// oracle and requires the same result, wall time aside. The results
    /// are compared through `Debug`, which tells every value apart bit for
    /// bit except NaN payloads, so a NaN objective still compares equal.
    fn assert_matches_oracle(algo: DecApAlgorithm, m: &DeploymentModel, init: &Deployment) {
        let run = |algo: &DecApAlgorithm| {
            let r = algo.run(m, &Availability, m.constraints(), Some(init));
            format!(
                "{:?}",
                r.map(|r| AlgoResult {
                    wall_time: Duration::ZERO,
                    ..r
                })
            )
        };
        let oracle = DecApAlgorithm {
            per_bidder: true,
            ..algo.clone()
        };
        assert_eq!(run(&algo), run(&oracle), "{algo:?}");
    }

    /// Every DecAp variant the equivalence test runs on one model: flat and
    /// hierarchical at one and two threads, each with and without gossip.
    fn variants(awareness: Option<AwarenessGraph>) -> Vec<DecApAlgorithm> {
        let base = DecApAlgorithm {
            awareness,
            ..DecApAlgorithm::new()
        };
        let mut out = Vec::new();
        for exchange in [
            MonitoringExchange::None,
            MonitoringExchange::Gossip { hops: 1 },
        ] {
            let flat = base.clone().with_exchange(exchange);
            for threads in [1, 2] {
                out.push(flat.clone().with_hierarchy(HierarchicalConfig { threads }));
            }
            out.push(flat);
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn neighbor_walk_auctions_match_the_per_bidder_oracle(
            seed in any::<u64>(),
            hosts in 2usize..9,
            comps in 2usize..16,
            density in 0u8..3,
            cuts in any::<u64>(),
            view in 0u8..4,
        ) {
            let mut config = GeneratorConfig::sized(hosts, comps).with_seed(seed);
            config.physical_density = [0.0, 0.3, 1.0][density as usize];
            let s = Generator::generate(&config).unwrap();
            let mut m = s.model;
            let ids = m.host_ids();
            // Bits of `cuts` pick what to edit: isolate host 0, then per
            // physical link drop it or zero its reliability, and per
            // logical link zero its frequency.
            let mut bits = (0..64).map(|i| cuts >> i & 1 == 1).cycle();
            if bits.next().unwrap() {
                for &h in &ids[1..] {
                    let _ = m.remove_physical_link(ids[0], h);
                }
            }
            let physical: Vec<_> = m.physical_links().map(|l| l.ends()).collect();
            for ends in physical {
                match (bits.next().unwrap(), bits.next().unwrap()) {
                    (true, true) => {
                        m.remove_physical_link(ends.lo(), ends.hi()).unwrap();
                    }
                    (true, false) => m
                        .set_physical_link(ends.lo(), ends.hi(), |l| {
                            l.set_reliability(0.0);
                        })
                        .unwrap(),
                    _ => {}
                }
            }
            let logical: Vec<_> = m.logical_links().map(|l| l.ends()).collect();
            for ends in logical {
                if bits.next().unwrap() {
                    m.set_logical_link(ends.lo(), ends.hi(), |l| {
                        l.set_frequency(0.0);
                    })
                    .unwrap();
                }
            }
            // Awareness from connectivity, random, isolated, or covering
            // only every other host (the rest see nobody, not even
            // themselves).
            let awareness = match view {
                0 => None,
                1 => Some(AwarenessGraph::random(&ids, 0.4, seed)),
                2 => Some(AwarenessGraph::isolated(ids.clone())),
                _ => {
                    let mut g = AwarenessGraph::isolated(ids.iter().copied().step_by(2));
                    for l in m.physical_links() {
                        if g.is_aware(l.ends().lo(), l.ends().lo())
                            && g.is_aware(l.ends().hi(), l.ends().hi())
                        {
                            g.connect(l.ends().lo(), l.ends().hi());
                        }
                    }
                    Some(g)
                }
            };
            for algo in variants(awareness) {
                assert_matches_oracle(algo, &m, &s.initial);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn every_auction_matches_the_oracle_under_asymmetric_views(
            seed in any::<u64>(),
            hosts in 2usize..9,
            comps in 2usize..16,
            density in 0u8..3,
            rows in any::<u64>(),
        ) {
            // Views no awareness graph can give: host `a` sees `b` iff bit
            // `a·n + b` of `rows` is set, so relations are one-way and some
            // hosts do not see themselves.
            let mut config = GeneratorConfig::sized(hosts, comps).with_seed(seed);
            config.physical_density = [0.0, 0.3, 1.0][density as usize];
            let s = Generator::generate(&config).unwrap();
            let c = compile(&s.model, &Availability, s.model.constraints());
            let n = c.model.n_hosts() as u32;
            let lists = (0..n)
                .map(|a| (0..n).filter(|&b| rows >> ((a * n + b) % 64) & 1 == 1).collect())
                .collect();
            let views = Views::from_lists(lists);
            let mut assign = c.model.compile_assignment(&s.initial);
            let mut bidding = Bidding::new(n as usize);
            let mut oracle = Vec::new();
            for comp in 0..c.model.n_comps() as u32 {
                let auctioneer = assign[comp as usize];
                let admits = |a: &[u32], bidder| c.constraints.admits(a, comp, bidder);
                let retention = bidding.auction(&c, &views, &mut assign, auctioneer, comp, admits);
                let expected = per_bidder_auction(
                    &c, &views, &mut assign, auctioneer, comp, admits, &mut oracle,
                );
                prop_assert_eq!(retention.to_bits(), expected.to_bits());
                // What either selection rule reads: the bids above
                // retention, best first.
                let winners = |bids: &[(u32, f64)]| {
                    let mut w: Vec<(u32, f64)> =
                        bids.iter().copied().filter(|b| b.1 > retention).collect();
                    w.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
                    w.into_iter().map(|(h, b)| (h, b.to_bits())).collect::<Vec<_>>()
                };
                prop_assert_eq!(winners(&bidding.bids), winners(&oracle), "component {}", comp);
            }
        }
    }

    #[test]
    fn default_views_are_the_connectivity_awareness_graph() {
        for (seed, density) in [(1, 0.0), (2, 0.3), (3, 1.0)] {
            let mut config = GeneratorConfig::sized(9, 4).with_seed(seed);
            config.physical_density = density;
            let mut m = Generator::generate(&config).unwrap().model;
            // Cut host 4 off the network.
            for h in m.host_ids().into_iter().filter(|&h| h != HostId::new(4)) {
                let _ = m.remove_physical_link(HostId::new(4), h);
            }
            let cm = CompiledModel::compile(&m);
            let graph = AwarenessGraph::from_connectivity(&m);
            let (default, explicit) = (Views::new(&cm, None), Views::new(&cm, Some(&graph)));
            assert_eq!(default.aware, explicit.aware, "seed {seed}");
            assert_eq!(default.bits, explicit.bits, "seed {seed}");
            assert_eq!(default.aware[4], [4]);
        }
    }

    #[test]
    fn unpriceable_auctions_fall_back_to_every_bidder() {
        // Each edit makes some auction one the neighbor walk cannot price:
        // - an infinite frequency makes `∞ × 0.0` a NaN bid for every host
        //   off the partner's host's neighbor list;
        // - a negative event size (reachable only through raw params) can
        //   make retention negative, which a `+0.0` bid from any visible
        //   host beats;
        // - a NaN reliability (raw params again) makes NaN bids, whose
        //   place in the winner selection depends on list order.
        let edits: [fn(&mut DeploymentModel); 3] = [
            |m| {
                let ends: Vec<_> = m.logical_links().map(|l| l.ends()).collect();
                for e in ends.into_iter().step_by(4) {
                    m.set_logical_link(e.lo(), e.hi(), |l| {
                        l.set_frequency(f64::INFINITY);
                    })
                    .unwrap();
                }
            },
            |m| {
                let ends: Vec<_> = m.logical_links().map(|l| l.ends()).collect();
                for e in ends.into_iter().step_by(2) {
                    m.set_logical_link(e.lo(), e.hi(), |l| {
                        l.params_mut().set(keys::EVENT_SIZE, -1.0);
                    })
                    .unwrap();
                }
            },
            |m| {
                let ends: Vec<_> = m.physical_links().map(|l| l.ends()).collect();
                for e in ends.into_iter().step_by(3) {
                    m.set_physical_link(e.lo(), e.hi(), |l| {
                        l.params_mut().set(keys::LINK_RELIABILITY, f64::NAN);
                    })
                    .unwrap();
                }
            },
        ];
        for edit in edits {
            for seed in [1, 2, 3] {
                // A spanning tree only, so most hosts are off any one
                // host's neighbor list.
                let mut config = GeneratorConfig::sized(6, 18).with_seed(seed);
                config.physical_density = 0.0;
                let s = Generator::generate(&config).unwrap();
                let mut m = s.model;
                edit(&mut m);
                let complete = AwarenessGraph::complete(m.host_ids());
                for awareness in [None, Some(complete)] {
                    for algo in variants(awareness) {
                        assert_matches_oracle(algo, &m, &s.initial);
                    }
                }
            }
        }
    }

    fn generated(seed: u64) -> (DeploymentModel, Deployment) {
        let s = Generator::generate(&GeneratorConfig::sized(5, 15).with_seed(seed)).unwrap();
        (s.model, s.initial)
    }

    #[test]
    fn produces_valid_deployments() {
        let (m, init) = generated(1);
        let r = DecApAlgorithm::new()
            .run(&m, &Availability, m.constraints(), Some(&init))
            .unwrap();
        r.deployment.validate(&m).unwrap();
        m.constraints().check(&m, &r.deployment).unwrap();
    }

    #[test]
    fn improves_availability_over_the_initial_deployment() {
        let (m, init) = generated(2);
        let before = Availability.evaluate(&m, &init);
        let r = DecApAlgorithm::new()
            .run(&m, &Availability, m.constraints(), Some(&init))
            .unwrap();
        assert!(
            r.value >= before - 1e-12,
            "decap {} vs initial {before}",
            r.value
        );
    }

    #[test]
    fn moves_chatty_components_together() {
        let mut m = DeploymentModel::new();
        let h0 = m.add_host("h0").unwrap();
        let h1 = m.add_host("h1").unwrap();
        m.set_physical_link(h0, h1, |l| l.set_reliability(0.4))
            .unwrap();
        let a = m.add_component("a").unwrap();
        let b = m.add_component("b").unwrap();
        m.set_logical_link(a, b, |l| l.set_frequency(10.0)).unwrap();
        let split: Deployment = [(a, h0), (b, h1)].into_iter().collect();
        let r = DecApAlgorithm::new()
            .run(&m, &Availability, m.constraints(), Some(&split))
            .unwrap();
        assert!(r.deployment.collocated(a, b), "{}", r.deployment);
        assert_eq!(r.value, 1.0);
    }

    #[test]
    fn zero_awareness_means_no_moves() {
        let (m, init) = generated(3);
        let isolated = AwarenessGraph::isolated(m.host_ids());
        let r = DecApAlgorithm::new()
            .with_awareness(isolated)
            .run(&m, &Availability, m.constraints(), Some(&init))
            .unwrap();
        // No host can see any peer: the deployment cannot change.
        assert_eq!(r.deployment, init);
    }

    #[test]
    fn full_awareness_is_at_least_as_good_as_low_awareness() {
        let (m, init) = generated(4);
        let hosts = m.host_ids();
        let low = DecApAlgorithm::new()
            .with_awareness(AwarenessGraph::random(&hosts, 0.3, 1))
            .run(&m, &Availability, m.constraints(), Some(&init))
            .unwrap();
        let full = DecApAlgorithm::new()
            .with_awareness(AwarenessGraph::complete(hosts))
            .run(&m, &Availability, m.constraints(), Some(&init))
            .unwrap();
        assert!(
            full.value >= low.value - 0.05,
            "full {} low {}",
            full.value,
            low.value
        );
    }

    #[test]
    fn is_deterministic() {
        let (m, init) = generated(5);
        let a = DecApAlgorithm::new()
            .run(&m, &Availability, m.constraints(), Some(&init))
            .unwrap();
        let b = DecApAlgorithm::new()
            .run(&m, &Availability, m.constraints(), Some(&init))
            .unwrap();
        assert_eq!(a.deployment, b.deployment);
    }

    #[test]
    fn gossip_never_helps_isolated_hosts() {
        // Gossip forwards what peers observed; an isolated host has no
        // peers, so even with exchange enabled the deployment cannot change.
        let (m, init) = generated(3);
        let isolated = AwarenessGraph::isolated(m.host_ids());
        let r = DecApAlgorithm::new()
            .with_awareness(isolated)
            .with_exchange(MonitoringExchange::Gossip { hops: 2 })
            .run(&m, &Availability, m.constraints(), Some(&init))
            .unwrap();
        assert_eq!(r.deployment, init);
    }

    #[test]
    fn gossip_recovers_low_awareness_quality() {
        // With gossip the partial views widen to the connected closure, so a
        // sparse awareness graph must converge to at least the static result.
        for seed in [4u64, 7, 11] {
            let (m, init) = generated(seed);
            let hosts = m.host_ids();
            let sparse = AwarenessGraph::random(&hosts, 0.3, 1);
            let stat = DecApAlgorithm::new()
                .with_awareness(sparse.clone())
                .run(&m, &Availability, m.constraints(), Some(&init))
                .unwrap();
            let gossiped = DecApAlgorithm::new()
                .with_awareness(sparse)
                .with_exchange(MonitoringExchange::Gossip { hops: 1 })
                .run(&m, &Availability, m.constraints(), Some(&init))
                .unwrap();
            assert!(
                gossiped.value >= stat.value - 1e-12,
                "seed {seed}: gossip {} < static {}",
                gossiped.value,
                stat.value
            );
        }
    }

    #[test]
    fn gossip_on_an_empty_model_is_a_no_op() {
        // Zero hosts means zero-width rows; the exchange must not chunk them.
        assert!(!Views::from_lists(Vec::new()).gossip(1));
        let m = DeploymentModel::new();
        let r = DecApAlgorithm::new()
            .with_exchange(MonitoringExchange::Gossip { hops: 2 })
            .run(&m, &Availability, m.constraints(), None)
            .unwrap();
        assert!(r.deployment.is_empty());
        assert_eq!(r.value, 1.0);
    }

    /// One exchange by the set definition: per step, every host adds the
    /// rows of the peers it entered the exchange with.
    fn naive_gossip(rows: &mut [BTreeSet<u32>], hops: usize) {
        let entered = rows.to_vec();
        for _ in 0..hops {
            let before = rows.to_vec();
            for (row, peers) in rows.iter_mut().zip(&entered) {
                for &p in peers {
                    row.extend(&before[p as usize]);
                }
            }
        }
    }

    #[test]
    fn gossip_is_the_union_of_peer_rows_across_word_boundaries() {
        for n in [63u32, 64, 65, 130] {
            for hops in [1usize, 2] {
                // Asymmetric on purpose: `a` lists `b` without `b` listing
                // `a`. Hosts divisible by 7 start isolated; the last host
                // is isolated and listed by nobody.
                let mut rows: Vec<BTreeSet<u32>> = (0..n)
                    .map(|a| {
                        let mut row = BTreeSet::from([a]);
                        if a % 7 != 0 && a != n - 1 {
                            row.extend([(a * 5 + 3) % (n - 1), (a + 1) % (n - 1)]);
                        }
                        row
                    })
                    .collect();
                let lists = |rows: &[BTreeSet<u32>]| -> Vec<Vec<u32>> {
                    rows.iter().map(|r| r.iter().copied().collect()).collect()
                };
                let mut views = Views::from_lists(lists(&rows));
                for exchange in 0.. {
                    let before = rows.clone();
                    naive_gossip(&mut rows, hops);
                    let widened = views.gossip(hops);
                    assert_eq!(widened, rows != before, "n {n} hops {hops} #{exchange}");
                    assert_eq!(views.aware, lists(&rows), "n {n} hops {hops} #{exchange}");
                    for a in 0..n {
                        for b in 0..n {
                            assert_eq!(views.sees(a, b), rows[a as usize].contains(&b));
                        }
                    }
                    if !widened {
                        break;
                    }
                }
                // Closed views stay closed: the skipped exchange is a no-op
                // by the set definition too.
                assert!(views.saturated);
                let closed = rows.clone();
                naive_gossip(&mut rows, hops);
                assert_eq!(rows, closed);
                assert!(!views.gossip(hops));
                assert_eq!(views.aware, lists(&closed));
                assert_eq!(views.aware[n as usize - 1], [n - 1], "isolated host");
                assert!(rows
                    .iter()
                    .take(n as usize - 1)
                    .all(|r| !r.contains(&(n - 1))));
            }
        }
    }

    #[test]
    fn hierarchical_produces_valid_deployments_and_counters() {
        let s = Generator::generate(&GeneratorConfig::sized(12, 40).with_seed(9)).unwrap();
        let r = DecApAlgorithm::new()
            .with_hierarchy(HierarchicalConfig::default())
            .with_exchange(MonitoringExchange::Gossip { hops: 1 })
            .run(
                &s.model,
                &Availability,
                s.model.constraints(),
                Some(&s.initial),
            )
            .unwrap();
        assert_eq!(r.algorithm, "decap-h");
        r.deployment.validate(&s.model).unwrap();
        s.model
            .constraints()
            .check(&s.model, &r.deployment)
            .unwrap();
        assert!(r.hierarchy_clusters > 0);
        assert!(r.refine_rounds > 0);
        let before = Availability.evaluate(&s.model, &s.initial);
        assert!(r.value >= before - 1e-12, "{} vs {before}", r.value);
    }

    #[test]
    fn hierarchical_is_thread_invariant() {
        let s = Generator::generate(&GeneratorConfig::sized(12, 40).with_seed(10)).unwrap();
        let run = |threads: usize| {
            DecApAlgorithm::new()
                .with_hierarchy(HierarchicalConfig { threads })
                .with_exchange(MonitoringExchange::Gossip { hops: 1 })
                .run(
                    &s.model,
                    &Availability,
                    s.model.constraints(),
                    Some(&s.initial),
                )
                .unwrap()
        };
        let one = run(1);
        for threads in [2, 8] {
            let many = run(threads);
            assert_eq!(one.deployment, many.deployment, "threads {threads}");
            assert_eq!(one.value, many.value, "threads {threads}");
            assert_eq!(one.evaluations, many.evaluations, "threads {threads}");
            assert_eq!(
                one.pruned_evaluations, many.pruned_evaluations,
                "threads {threads}"
            );
        }
    }
}
