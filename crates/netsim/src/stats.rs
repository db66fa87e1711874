//! Ground-truth network statistics.
//!
//! The simulator records what *actually* happened on every link. Monitors in
//! the middleware layer estimate these quantities from what they observe;
//! experiment E11 compares the two.

use redep_model::{HostId, HostPair};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Counters for one link (or the loopback of one host).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
pub struct LinkStats {
    /// Messages handed to the link.
    pub sent: u64,
    /// Messages delivered to the destination node.
    pub delivered: u64,
    /// Messages lost to link unreliability.
    pub dropped_loss: u64,
    /// Messages dropped because the link or an endpoint was down or missing.
    pub dropped_disconnected: u64,
    /// Bytes delivered.
    pub bytes_delivered: u64,
}

impl LinkStats {
    /// Fraction of sent messages that were delivered (`1.0` when nothing was
    /// sent).
    pub fn delivery_ratio(&self) -> f64 {
        if self.sent == 0 {
            1.0
        } else {
            self.delivered as f64 / self.sent as f64
        }
    }
}

impl fmt::Display for LinkStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sent {} delivered {} (ratio {:.3})",
            self.sent,
            self.delivered,
            self.delivery_ratio()
        )
    }
}

/// The stat slot of a message that crosses no link (loopback traffic is not
/// accounted per-link).
pub(crate) const NO_LINK_STATS: u32 = u32::MAX;

/// Per-link counters in a slot table. The engines resolve a pair's slot once
/// per link ([`NetStats::slot`]) and bump counters by index after that; the
/// ordered pair index serves only first touch, [`NetStats::link`], ordered
/// iteration and [`NetStats::merge`].
#[derive(Clone, Debug, Default)]
struct PerLink {
    slots: Vec<LinkStats>,
    index: BTreeMap<HostPair, u32>,
}

impl PerLink {
    fn iter(&self) -> impl Iterator<Item = (HostPair, &LinkStats)> {
        self.index
            .iter()
            .map(|(pair, slot)| (*pair, &self.slots[*slot as usize]))
    }

    fn slot(&mut self, pair: HostPair) -> u32 {
        *self.index.entry(pair).or_insert_with(|| {
            self.slots.push(LinkStats::default());
            u32::try_from(self.slots.len() - 1).expect("stat slots fit u32")
        })
    }
}

/// Equality is by content in endpoint order, not by slot numbering (which
/// records first-touch order and differs between a merged and a single run).
impl PartialEq for PerLink {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}
impl Eq for PerLink {}

/// Renders `per_link` as an array of `[pair, stats]` entries in endpoint
/// order: [`HostPair`] serializes as an object, so it cannot be a JSON map
/// key directly.
mod per_link_map {
    use super::{HostPair, LinkStats, PerLink};
    use serde::{Deserialize, Error, Serialize, Value};

    /// Serializes the table as an array of `[pair, stats]` pairs.
    pub fn serialize(table: &PerLink) -> Value {
        Value::Array(
            table
                .iter()
                .map(|(pair, stats)| (pair, *stats).serialize())
                .collect(),
        )
    }

    /// Rebuilds the table from an array of `[pair, stats]` pairs.
    pub fn deserialize(value: &Value) -> Result<PerLink, Error> {
        let mut table = PerLink::default();
        for (pair, stats) in Vec::<(HostPair, LinkStats)>::deserialize(value)? {
            let slot = table.slot(pair);
            table.slots[slot as usize] = stats;
        }
        Ok(table)
    }
}

/// Aggregate and per-link statistics for a whole simulation.
#[derive(Clone, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
pub struct NetStats {
    /// Total messages handed to the network.
    pub sent: u64,
    /// Total messages delivered.
    pub delivered: u64,
    /// Messages lost to link unreliability.
    pub dropped_loss: u64,
    /// Messages dropped for lack of an up path (link/host down or absent).
    pub dropped_disconnected: u64,
    /// Total bytes delivered.
    pub bytes_delivered: u64,
    #[serde(with = "per_link_map")]
    per_link: PerLink,
}

impl NetStats {
    /// Creates zeroed statistics.
    pub fn new() -> Self {
        NetStats::default()
    }

    /// Statistics for the link between `a` and `b` (zeroes if untouched).
    ///
    /// # Panics
    ///
    /// Panics if `a == b`; loopback traffic is not accounted per-link.
    pub fn link(&self, a: HostId, b: HostId) -> LinkStats {
        self.per_link
            .index
            .get(&HostPair::new(a, b))
            .map(|slot| self.per_link.slots[*slot as usize])
            .unwrap_or_default()
    }

    /// Iterates over per-link statistics in endpoint order.
    pub fn links(&self) -> impl Iterator<Item = (HostPair, &LinkStats)> {
        self.per_link.iter()
    }

    /// Overall delivery ratio (`1.0` when nothing was sent).
    pub fn delivery_ratio(&self) -> f64 {
        if self.sent == 0 {
            1.0
        } else {
            self.delivered as f64 / self.sent as f64
        }
    }

    /// The stat slot of the pair `src`–`dst`, allocated on first touch
    /// ([`NO_LINK_STATS`] for loopback). A walk of the pair index: engines
    /// call this once per link and keep the answer.
    pub(crate) fn slot(&mut self, src: HostId, dst: HostId) -> u32 {
        if src == dst {
            NO_LINK_STATS
        } else {
            self.per_link.slot(HostPair::new(src, dst))
        }
    }

    fn at(&mut self, slot: u32) -> Option<&mut LinkStats> {
        self.per_link.slots.get_mut(slot as usize)
    }

    pub(crate) fn record_sent(&mut self, slot: u32) {
        self.sent += 1;
        if let Some(l) = self.at(slot) {
            l.sent += 1;
        }
    }

    pub(crate) fn record_delivered(&mut self, slot: u32, bytes: u64) {
        self.delivered += 1;
        self.bytes_delivered += bytes;
        if let Some(l) = self.at(slot) {
            l.delivered += 1;
            l.bytes_delivered += bytes;
        }
    }

    pub(crate) fn record_loss(&mut self, slot: u32) {
        self.dropped_loss += 1;
        if let Some(l) = self.at(slot) {
            l.dropped_loss += 1;
        }
    }

    pub(crate) fn record_disconnected(&mut self, slot: u32) {
        self.dropped_disconnected += 1;
        if let Some(l) = self.at(slot) {
            l.dropped_disconnected += 1;
        }
    }

    /// Folds another `NetStats` into this one, summing every global and
    /// per-link counter. The sharded simulator keeps one `NetStats` per
    /// shard (each message is accounted exactly once, in its sender's
    /// shard) and merges them into the whole-run view; summing is exact
    /// because the per-shard maps never share a directed sender.
    pub fn merge(&mut self, other: &NetStats) {
        self.sent += other.sent;
        self.delivered += other.delivered;
        self.dropped_loss += other.dropped_loss;
        self.dropped_disconnected += other.dropped_disconnected;
        self.bytes_delivered += other.bytes_delivered;
        for (pair, stats) in other.per_link.iter() {
            let slot = self.per_link.slot(pair);
            let l = &mut self.per_link.slots[slot as usize];
            l.sent += stats.sent;
            l.delivered += stats.delivered;
            l.dropped_loss += stats.dropped_loss;
            l.dropped_disconnected += stats.dropped_disconnected;
            l.bytes_delivered += stats.bytes_delivered;
        }
    }

    /// Folds the ground-truth totals into registry gauges under the
    /// `net.truth.*` prefix, plus a per-link delivery-ratio gauge for every
    /// link that carried traffic. Monitors publish their *estimates*
    /// elsewhere; exporting both makes estimation error visible in one
    /// metrics dump.
    pub fn publish_gauges(&self, metrics: &redep_telemetry::MetricsRegistry) {
        metrics.gauge("net.truth.sent").set(self.sent as f64);
        metrics
            .gauge("net.truth.delivered")
            .set(self.delivered as f64);
        metrics
            .gauge("net.truth.dropped_loss")
            .set(self.dropped_loss as f64);
        metrics
            .gauge("net.truth.dropped_disconnected")
            .set(self.dropped_disconnected as f64);
        metrics
            .gauge("net.truth.bytes_delivered")
            .set(self.bytes_delivered as f64);
        metrics
            .gauge("net.truth.delivery_ratio")
            .set(self.delivery_ratio());
        for (pair, link) in self.links() {
            metrics
                .gauge(&format!(
                    "net.truth.link.{}-{}.delivery_ratio",
                    pair.lo(),
                    pair.hi()
                ))
                .set(link.delivery_ratio());
        }
    }
}

impl fmt::Display for NetStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sent {} delivered {} lost {} disconnected {} (ratio {:.3})",
            self.sent,
            self.delivered,
            self.dropped_loss,
            self.dropped_disconnected,
            self.delivery_ratio()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h(n: u32) -> HostId {
        HostId::new(n)
    }

    #[test]
    fn counters_accumulate_globally_and_per_link() {
        let mut s = NetStats::new();
        let l01 = s.slot(h(0), h(1));
        assert_eq!(s.slot(h(1), h(0)), l01, "a pair has one slot");
        s.record_sent(l01);
        s.record_delivered(l01, 10);
        s.record_sent(l01);
        s.record_loss(l01);
        assert_eq!(s.sent, 2);
        assert_eq!(s.delivered, 1);
        assert_eq!(s.dropped_loss, 1);
        let l = s.link(h(0), h(1));
        assert_eq!(l.sent, 2);
        assert_eq!(l.delivered, 1);
        assert_eq!(l.bytes_delivered, 10);
        assert!((l.delivery_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn loopback_traffic_counts_globally_only() {
        let mut s = NetStats::new();
        let loopback = s.slot(h(0), h(0));
        s.record_sent(loopback);
        s.record_delivered(loopback, 4);
        assert_eq!(s.sent, 1);
        assert_eq!(s.delivered, 1);
        assert_eq!(s.links().count(), 0);
    }

    #[test]
    fn empty_ratio_is_one() {
        assert_eq!(NetStats::new().delivery_ratio(), 1.0);
        assert_eq!(LinkStats::default().delivery_ratio(), 1.0);
    }

    #[test]
    fn untouched_link_reads_zero() {
        let s = NetStats::new();
        assert_eq!(s.link(h(3), h(4)), LinkStats::default());
    }

    #[test]
    fn net_stats_round_trip_through_json() {
        let mut s = NetStats::new();
        let (l01, l23) = (s.slot(h(0), h(1)), s.slot(h(2), h(3)));
        s.record_sent(l01);
        s.record_delivered(l01, 64);
        s.record_sent(l23);
        s.record_loss(l23);
        let json = serde_json::to_string(&s.serialize()).unwrap();
        let back = NetStats::deserialize(&serde_json::from_str(&json).unwrap()).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.link(h(0), h(1)).bytes_delivered, 64);
    }

    #[test]
    fn publish_gauges_exports_truth() {
        let mut s = NetStats::new();
        let l01 = s.slot(h(0), h(1));
        s.record_sent(l01);
        s.record_delivered(l01, 8);
        let metrics = redep_telemetry::MetricsRegistry::new();
        s.publish_gauges(&metrics);
        assert_eq!(metrics.gauge("net.truth.sent").get(), 1.0);
        assert_eq!(metrics.gauge("net.truth.delivery_ratio").get(), 1.0);
        assert_eq!(
            metrics.gauge("net.truth.link.h0-h1.delivery_ratio").get(),
            1.0
        );
    }

    /// The counts of a small run — two links, a loopback send, a send with
    /// no link — serialize to the bytes the tree-keyed `NetStats` produced
    /// for the same run before the slot table (recorded on that commit).
    #[test]
    fn serialized_form_is_unchanged_by_the_slot_table() {
        use crate::{LinkSpec, Node, Simulator};
        const RECORDED: &str = concat!(
            r#"{"bytes_delivered":36,"delivered":4,"dropped_disconnected":1,"dropped_loss":0,"#,
            r#""per_link":[[{"hi":1,"lo":0},{"bytes_delivered":18,"delivered":2,"#,
            r#""dropped_disconnected":0,"dropped_loss":0,"sent":2}],[{"hi":3,"lo":0},"#,
            r#"{"bytes_delivered":0,"delivered":0,"dropped_disconnected":1,"dropped_loss":0,"#,
            r#""sent":1}],[{"hi":2,"lo":1},{"bytes_delivered":5,"delivered":1,"#,
            r#""dropped_disconnected":0,"dropped_loss":0,"sent":1}]],"sent":5}"#
        );
        struct Sink;
        impl Node for Sink {}
        let mut sim = Simulator::new(1);
        for n in 0..4 {
            sim.add_host(h(n), Sink);
        }
        // Links and first sends in an order that is not endpoint order.
        sim.set_link(h(2), h(1), LinkSpec::default());
        sim.set_link(h(0), h(1), LinkSpec::default());
        sim.inject(h(2), h(1), vec![1], 5);
        sim.inject(h(0), h(1), vec![1, 2], 7);
        sim.inject(h(1), h(0), vec![3], 11);
        sim.inject(h(0), h(0), vec![4], 13);
        sim.inject(h(3), h(0), vec![5], 17);
        sim.run_to_completion();
        let json = serde_json::to_string(&sim.stats().serialize()).unwrap();
        assert_eq!(json, RECORDED);
        let back = NetStats::deserialize(&serde_json::from_str(&json).unwrap()).unwrap();
        assert_eq!(&back, sim.stats());
        assert_eq!(serde_json::to_string(&back.serialize()).unwrap(), RECORDED);
    }
}
