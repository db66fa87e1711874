//! The simulated network's runtime state: link qualities and up/down status.

use redep_model::{DeploymentModel, HostId, HostPair};
use std::collections::{BTreeMap, BTreeSet};

/// Quality parameters of one simulated link.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct LinkSpec {
    /// Probability that a message survives the link, in `[0, 1]`.
    pub reliability: f64,
    /// Bandwidth in bytes per second.
    pub bandwidth: f64,
    /// Propagation delay in seconds.
    pub delay: f64,
}

impl Default for LinkSpec {
    fn default() -> Self {
        LinkSpec {
            reliability: 1.0,
            bandwidth: 1e6,
            delay: 0.001,
        }
    }
}

impl LinkSpec {
    /// Validates the specification.
    ///
    /// # Panics
    ///
    /// Panics if reliability is outside `[0, 1]`, bandwidth is not positive,
    /// or delay is negative.
    fn validate(&self) {
        assert!(
            (0.0..=1.0).contains(&self.reliability),
            "reliability must be in [0, 1], got {}",
            self.reliability
        );
        assert!(
            self.bandwidth > 0.0,
            "bandwidth must be positive, got {}",
            self.bandwidth
        );
        assert!(
            self.delay >= 0.0,
            "delay must be non-negative, got {}",
            self.delay
        );
    }
}

/// Runtime state of one link: its quality plus whether it is currently up.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct LinkState {
    /// Current quality.
    pub spec: LinkSpec,
    /// Whether the link is up (down links drop everything).
    pub up: bool,
}

/// Exclusive upper bound on raw host ids: the dense tables below are indexed
/// by raw id, and the sharded engine packs a host index into 26 key bits.
const MAX_RAW_HOST_ID: u32 = 1 << 26;

/// One link slot. A slot is bound to its endpoint pair for the topology's
/// lifetime: setting the pair's link again reuses the slot, so engine side
/// tables keyed by slot stay keyed by pair.
#[derive(Clone, Debug)]
struct LinkSlot {
    ends: HostPair,
    state: LinkState,
}

/// Per-host row of the dense table, indexed by raw host id.
#[derive(Clone, Debug, Default)]
struct HostRow {
    up: bool,
    /// `(peer raw id, link slot)` for every link ever configured at this
    /// host, sorted by peer.
    links: Vec<(u32, u32)>,
}

/// The simulated network: hosts, links and their live state.
///
/// Every shard of the engine holds a replica, which fault actions and link
/// edits between runs update identically.
///
/// Per-message lookups ([`NetworkTopology::host_is_up`],
/// [`NetworkTopology::link_slot`]) index dense tables by raw host id and
/// link slot; memory is O(largest raw host id + links ever configured).
#[derive(Clone, Debug, Default)]
pub struct NetworkTopology {
    /// Registered hosts in id order (cold: enumeration only).
    hosts: BTreeSet<HostId>,
    rows: Vec<HostRow>,
    slots: Vec<LinkSlot>,
}

/// Equality is by content — hosts, their status and the links — not by
/// slot numbering, which records the order links were configured in.
impl PartialEq for NetworkTopology {
    fn eq(&self, other: &Self) -> bool {
        self.hosts == other.hosts
            && self
                .hosts
                .iter()
                .all(|h| self.host_is_up(*h) == other.host_is_up(*h))
            && self.links().eq(other.links())
    }
}

impl NetworkTopology {
    /// Creates an empty topology.
    pub fn new() -> Self {
        NetworkTopology::default()
    }

    /// Builds a topology mirroring a deployment model's hosts and physical
    /// links (reliability, bandwidth, delay are copied; everything starts up).
    pub fn from_model(model: &DeploymentModel) -> Self {
        let mut t = NetworkTopology::new();
        for h in model.host_ids() {
            t.add_host(h);
        }
        for link in model.physical_links() {
            let ends = link.ends();
            t.set_link(
                ends.lo(),
                ends.hi(),
                LinkSpec {
                    reliability: link.reliability(),
                    bandwidth: if link.bandwidth().is_finite() {
                        link.bandwidth()
                    } else {
                        1e12
                    },
                    delay: link.delay(),
                },
            );
        }
        t
    }

    /// Registers a host (idempotent); hosts start up.
    ///
    /// # Panics
    ///
    /// Panics if the raw host id is not below 2²⁶.
    pub fn add_host(&mut self, h: HostId) {
        assert!(
            h.raw() < MAX_RAW_HOST_ID,
            "raw host ids must be below {MAX_RAW_HOST_ID}, got {h}"
        );
        if self.hosts.insert(h) {
            let raw = h.raw() as usize;
            if self.rows.len() <= raw {
                self.rows.resize_with(raw + 1, HostRow::default);
            }
            self.rows[raw].up = true;
        }
    }

    /// All registered hosts in id order.
    pub fn hosts(&self) -> Vec<HostId> {
        self.hosts.iter().copied().collect()
    }

    /// Creates or replaces a link.
    ///
    /// # Panics
    ///
    /// Panics if the spec is invalid or `a == b`.
    pub fn set_link(&mut self, a: HostId, b: HostId, spec: LinkSpec) {
        spec.validate();
        let ends = HostPair::new(a, b);
        self.add_host(a);
        self.add_host(b);
        let state = LinkState { spec, up: true };
        match self.link_slot(a, b) {
            Some(slot) => self.slots[slot].state = state,
            None => {
                let slot = u32::try_from(self.slots.len()).expect("link slots fit u32");
                self.slots.push(LinkSlot { ends, state });
                for (host, peer) in [(a, b), (b, a)] {
                    let row = &mut self.rows[host.raw() as usize].links;
                    let at = row.partition_point(|&(p, _)| p < peer.raw());
                    row.insert(at, (peer.raw(), slot));
                }
            }
        }
    }

    /// The slot of the link between `a` and `b`: a small index, stable for
    /// the topology's lifetime, that engines key their per-link side tables
    /// by. `None` when no link was ever configured between the two.
    pub fn link_slot(&self, a: HostId, b: HostId) -> Option<usize> {
        let row = &self.rows.get(a.raw() as usize)?.links;
        let at = row.binary_search_by_key(&b.raw(), |&(p, _)| p).ok()?;
        Some(row[at].1 as usize)
    }

    /// Number of link slots handed out so far (the exclusive upper bound of
    /// [`NetworkTopology::link_slot`]).
    pub fn link_slot_count(&self) -> usize {
        self.slots.len()
    }

    /// The live state of the link in `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` was never handed out.
    pub fn link_at(&self, slot: usize) -> &LinkState {
        &self.slots[slot].state
    }

    /// Returns the live state of a link.
    pub fn link(&self, a: HostId, b: HostId) -> Option<&LinkState> {
        Some(self.link_at(self.link_slot(a, b)?))
    }

    /// Mutable access to a link's state.
    pub fn link_mut(&mut self, a: HostId, b: HostId) -> Option<&mut LinkState> {
        let slot = self.link_slot(a, b)?;
        Some(&mut self.slots[slot].state)
    }

    /// Iterates over `(endpoints, state)` in endpoint order.
    pub fn links(&self) -> impl Iterator<Item = (HostPair, &LinkState)> {
        self.rows.iter().enumerate().flat_map(move |(lo, row)| {
            let above = row.links.partition_point(|&(p, _)| p as usize <= lo);
            row.links[above..].iter().map(move |&(_, slot)| {
                let slot = &self.slots[slot as usize];
                (slot.ends, &slot.state)
            })
        })
    }

    /// Marks a link up or down.
    pub fn set_link_up(&mut self, a: HostId, b: HostId, up: bool) {
        if let Some(state) = self.link_mut(a, b) {
            state.up = up;
        }
    }

    /// Marks a host up or down.
    pub fn set_host_up(&mut self, h: HostId, up: bool) {
        self.add_host(h);
        self.rows[h.raw() as usize].up = up;
    }

    /// Whether a host is currently up.
    pub fn host_is_up(&self, h: HostId) -> bool {
        self.rows.get(h.raw() as usize).is_some_and(|row| row.up)
    }

    /// Whether `a` can currently reach `b` in one hop: both hosts up, link
    /// present and up. (Self-communication is always possible on an up host.)
    pub fn reachable(&self, a: HostId, b: HostId) -> bool {
        if !self.host_is_up(a) || !self.host_is_up(b) {
            return false;
        }
        if a == b {
            return true;
        }
        self.link(a, b).is_some_and(|l| l.up)
    }

    /// Applies `f(group of lo, group of hi, state)` to every link whose
    /// endpoints are both named by the grouping.
    fn for_grouped_links(
        &mut self,
        groups: &[Vec<HostId>],
        mut f: impl FnMut(usize, usize, &mut LinkState),
    ) {
        let mut group_of: BTreeMap<HostId, usize> = BTreeMap::new();
        for (i, g) in groups.iter().enumerate() {
            for h in g {
                group_of.insert(*h, i);
            }
        }
        for slot in &mut self.slots {
            let (Some(x), Some(y)) = (group_of.get(&slot.ends.lo()), group_of.get(&slot.ends.hi()))
            else {
                continue;
            };
            f(*x, *y, &mut slot.state);
        }
    }

    /// Takes every link whose endpoints fall into different groups down
    /// (links within a group come back up). Hosts not named stay untouched.
    pub fn partition(&mut self, groups: &[Vec<HostId>]) {
        self.for_grouped_links(groups, |x, y, state| state.up = x == y);
    }

    /// Re-raises exactly the links that cross group boundaries of the given
    /// grouping — the inverse of [`NetworkTopology::partition`]. Links whose
    /// endpoints fall in the same group, or that the grouping never named,
    /// keep their current state (so a concurrent link-down fault survives a
    /// partition heal).
    pub fn heal_between(&mut self, groups: &[Vec<HostId>]) {
        self.for_grouped_links(groups, |x, y, state| {
            if x != y {
                state.up = true;
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h(n: u32) -> HostId {
        HostId::new(n)
    }

    #[test]
    fn set_link_registers_hosts() {
        let mut t = NetworkTopology::new();
        t.set_link(h(0), h(1), LinkSpec::default());
        assert_eq!(t.hosts(), [h(0), h(1)]);
        assert!(t.host_is_up(h(0)));
    }

    #[test]
    fn reachability_requires_hosts_and_link_up() {
        let mut t = NetworkTopology::new();
        t.set_link(h(0), h(1), LinkSpec::default());
        assert!(t.reachable(h(0), h(1)));
        t.set_link_up(h(0), h(1), false);
        assert!(!t.reachable(h(0), h(1)));
        t.set_link_up(h(0), h(1), true);
        t.set_host_up(h(1), false);
        assert!(!t.reachable(h(0), h(1)));
    }

    #[test]
    fn self_reachability_tracks_host_status() {
        let mut t = NetworkTopology::new();
        t.add_host(h(0));
        assert!(t.reachable(h(0), h(0)));
        t.set_host_up(h(0), false);
        assert!(!t.reachable(h(0), h(0)));
    }

    #[test]
    fn unknown_hosts_are_unreachable() {
        let t = NetworkTopology::new();
        assert!(!t.reachable(h(0), h(1)));
    }

    #[test]
    fn partition_cuts_cross_group_links_only() {
        let mut t = NetworkTopology::new();
        t.set_link(h(0), h(1), LinkSpec::default());
        t.set_link(h(1), h(2), LinkSpec::default());
        t.set_link(h(0), h(2), LinkSpec::default());
        t.partition(&[vec![h(0), h(1)], vec![h(2)]]);
        assert!(t.reachable(h(0), h(1)));
        assert!(!t.reachable(h(1), h(2)));
        assert!(!t.reachable(h(0), h(2)));
        t.heal_between(&[vec![h(0), h(1)], vec![h(2)]]);
        assert!(t.reachable(h(0), h(2)));
    }

    #[test]
    fn from_model_copies_link_parameters() {
        let mut m = DeploymentModel::new();
        let a = m.add_host("a").unwrap();
        let b = m.add_host("b").unwrap();
        m.set_physical_link(a, b, |l| {
            l.set_reliability(0.5);
            l.set_bandwidth(500.0);
            l.set_delay(0.25);
        })
        .unwrap();
        let t = NetworkTopology::from_model(&m);
        let link = t.link(a, b).unwrap();
        assert_eq!(link.spec.reliability, 0.5);
        assert_eq!(link.spec.bandwidth, 500.0);
        assert_eq!(link.spec.delay, 0.25);
        assert!(link.up);
    }

    #[test]
    fn from_model_caps_infinite_bandwidth() {
        let mut m = DeploymentModel::new();
        let a = m.add_host("a").unwrap();
        let b = m.add_host("b").unwrap();
        m.set_physical_link(a, b, |_| {}).unwrap();
        let t = NetworkTopology::from_model(&m);
        assert!(t.link(a, b).unwrap().spec.bandwidth.is_finite());
    }

    #[test]
    #[should_panic(expected = "reliability must be in [0, 1]")]
    fn invalid_spec_panics() {
        let mut t = NetworkTopology::new();
        t.set_link(
            h(0),
            h(1),
            LinkSpec {
                reliability: 2.0,
                ..LinkSpec::default()
            },
        );
    }

    #[test]
    fn a_link_keeps_its_slot_and_a_new_pair_gets_its_own() {
        let mut t = NetworkTopology::new();
        t.set_link(h(0), h(1), LinkSpec::default());
        let slot = t.link_slot(h(1), h(0)).unwrap();
        t.set_link(h(2), h(3), LinkSpec::default());
        assert_ne!(t.link_slot(h(2), h(3)), Some(slot));
        t.set_link(h(1), h(0), LinkSpec::default());
        assert_eq!(t.link_slot(h(0), h(1)), Some(slot));
        assert_eq!(t.link_slot_count(), 2);
        assert_eq!(t.link_slot(h(0), h(0)), None);
        assert_eq!(t.link_slot(h(0), h(9)), None);
    }

    #[test]
    #[should_panic(expected = "raw host ids must be below")]
    fn raw_host_ids_are_bounded() {
        NetworkTopology::new().add_host(h(MAX_RAW_HOST_ID));
    }

    /// The tree-backed topology this module had before its tables went
    /// dense: the reference model for the property test below.
    #[derive(Default)]
    struct TreeModel {
        host_up: BTreeMap<HostId, bool>,
        links: BTreeMap<HostPair, LinkState>,
    }

    impl TreeModel {
        fn add_host(&mut self, host: HostId) {
            self.host_up.entry(host).or_insert(true);
        }
        fn up(&self, host: HostId) -> bool {
            self.host_up.get(&host).copied().unwrap_or(false)
        }
        fn reachable(&self, a: HostId, b: HostId) -> bool {
            self.up(a)
                && self.up(b)
                && (a == b || self.links.get(&HostPair::new(a, b)).is_some_and(|l| l.up))
        }
        fn regroup(&mut self, groups: &[Vec<HostId>], f: impl Fn(bool, &mut LinkState)) {
            let group_of = |host: HostId| groups.iter().rposition(|g| g.contains(&host));
            for (pair, state) in self.links.iter_mut() {
                if let (Some(x), Some(y)) = (group_of(pair.lo()), group_of(pair.hi())) {
                    f(x == y, state);
                }
            }
        }
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Random edit sequences over dense (0..6) and sparse (multiples of
        /// 7919) raw ids: the dense tables agree with the tree model on
        /// hosts, every link, every reachability, the *order* of `links()`,
        /// and each link's slot: its own, the same from either end, and
        /// holding that link's state.
        #[test]
        fn dense_tables_agree_with_the_tree_model(
            sparse in any::<bool>(),
            ops in proptest::collection::vec((0u8..8, 0u32..6, 0u32..6, any::<bool>()), 1..60),
        ) {
            let id = |n: u32| h(if sparse { n * 7919 } else { n });
            let spec = |n: u32| LinkSpec { delay: f64::from(n), ..LinkSpec::default() };
            let mut topo = NetworkTopology::new();
            let mut model = TreeModel::default();
            for (step, (op, a, b, flag)) in ops.into_iter().enumerate() {
                let (ha, hb) = (id(a), id(b));
                let groups = vec![vec![id(0), id(1), ha], vec![id(2), hb], vec![id(4)]];
                match op {
                    0 => { topo.add_host(ha); model.add_host(ha); }
                    1 | 2 if a != b => {
                        topo.set_link(ha, hb, spec(step as u32));
                        model.add_host(ha);
                        model.add_host(hb);
                        model.links.insert(HostPair::new(ha, hb), LinkState { spec: spec(step as u32), up: true });
                    }
                    3 if a != b => {
                        topo.set_link_up(ha, hb, flag);
                        if let Some(l) = model.links.get_mut(&HostPair::new(ha, hb)) { l.up = flag; }
                    }
                    4 => { topo.set_host_up(ha, flag); model.host_up.insert(ha, flag); }
                    5 => { topo.partition(&groups); model.regroup(&groups, |same, l| l.up = same); }
                    6 => { topo.heal_between(&groups); model.regroup(&groups, |same, l| l.up |= !same); }
                    7 => {
                        let alone: Vec<Vec<HostId>> = topo.hosts().into_iter().map(|h| vec![h]).collect();
                        topo.heal_between(&alone);
                        model.links.values_mut().for_each(|l| l.up = true);
                    }
                    _ => {}
                }
                prop_assert_eq!(topo.hosts(), model.host_up.keys().copied().collect::<Vec<_>>());
                let expected: Vec<(HostPair, LinkState)> = model.links.iter().map(|(p, l)| (*p, *l)).collect();
                let listed: Vec<(HostPair, LinkState)> = topo.links().map(|(p, l)| (p, *l)).collect();
                prop_assert_eq!(&listed, &expected);
                let mut slots = BTreeSet::new();
                for (pair, state) in &expected {
                    let slot = topo.link_slot(pair.lo(), pair.hi());
                    prop_assert_eq!(slot, topo.link_slot(pair.hi(), pair.lo()));
                    let slot = slot.expect("a listed link has a slot");
                    prop_assert_eq!(topo.link_at(slot), state);
                    slots.insert(slot);
                }
                prop_assert_eq!(slots.len(), expected.len());
                prop_assert_eq!(topo.link_slot_count(), expected.len());
                for x in 0..6 {
                    for y in 0..6 {
                        let (hx, hy) = (id(x), id(y));
                        prop_assert_eq!(topo.reachable(hx, hy), model.reachable(hx, hy));
                        if x != y {
                            prop_assert_eq!(topo.link(hx, hy), model.links.get(&HostPair::new(hx, hy)));
                        }
                    }
                }
            }
        }
    }
}
