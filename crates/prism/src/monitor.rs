//! Monitors: the platform-dependent halves of the framework's Monitor
//! component.
//!
//! Prism-MW "associates the `IMonitor` interface with every Brick",
//! allowing "autonomous, active monitoring of a Brick's run-time behavior".
//! Two concrete monitors from the paper are reproduced:
//!
//! * [`EventFrequencyMonitor`] (`EvtFrequencyMonitor`) — taps a connector and
//!   estimates per-component-pair interaction frequencies and event sizes;
//! * [`ReliabilityProbe`] (`NetworkReliabilityMonitor`) — measures per-peer
//!   link reliability with "a common 'pinging' technique" at the host level.
//!
//! Both produce windowed readings that feed the platform-independent
//! [`StabilityGauge`](crate::StabilityGauge); stable readings are packaged
//! into a [`MonitoringSnapshot`] and shipped to the deployer.

use crate::event::Event;
use redep_model::HostId;
use redep_netsim::{Duration, SimTime};
use serde::{Deserialize, Serialize};
use std::any::Any;
use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// A probe tapping the traffic of one connector.
pub trait ConnectorMonitor: Any + Send + fmt::Debug {
    /// Short name for diagnostics.
    fn name(&self) -> &str;

    /// Observes one delivery: `src` emitted `event`, `dst` received it.
    fn observe(&mut self, src: &str, dst: &str, event: &Event, now: SimTime);
}

/// Serializes `BTreeMap<(String, String), V>` as a sequence of
/// `(a, b, value)` triples (JSON objects cannot have tuple keys).
pub mod pair_map {
    use serde::de::DeserializeOwned;
    use serde::{Deserialize, Error, Serialize, Value};
    use std::collections::BTreeMap;

    /// Renders the map as an array of `[a, b, value]` triples.
    pub fn serialize<V: Serialize>(map: &BTreeMap<(String, String), V>) -> Value {
        Value::Array(
            map.iter()
                .map(|((a, b), v)| (a, b, v).serialize())
                .collect(),
        )
    }

    /// Rebuilds the tuple-keyed map from an array of `[a, b, value]` triples.
    pub fn deserialize<V: DeserializeOwned>(
        value: &Value,
    ) -> Result<BTreeMap<(String, String), V>, Error> {
        let triples = Vec::<(String, String, V)>::deserialize(value)?;
        Ok(triples.into_iter().map(|(a, b, v)| ((a, b), v)).collect())
    }
}

/// One measurement window of per-pair interaction statistics.
#[derive(Clone, PartialEq, Debug, Default, Serialize, Deserialize)]
pub struct FrequencyWindow {
    /// Events counted per (source, destination) component-name pair.
    #[serde(with = "pair_map")]
    pub counts: BTreeMap<(String, String), u64>,
    /// Bytes counted per pair.
    #[serde(with = "pair_map")]
    pub bytes: BTreeMap<(String, String), u64>,
    /// Window length in seconds.
    pub window_secs: f64,
}

impl FrequencyWindow {
    /// Events per second for a pair (order-insensitive).
    pub fn frequency(&self, a: &str, b: &str) -> f64 {
        if self.window_secs <= 0.0 {
            return 0.0;
        }
        let c = self.pair_sum(&self.counts, a, b);
        c as f64 / self.window_secs
    }

    /// Mean event size for a pair (order-insensitive); `0.0` when no traffic.
    pub fn mean_event_size(&self, a: &str, b: &str) -> f64 {
        let c = self.pair_sum(&self.counts, a, b);
        if c == 0 {
            return 0.0;
        }
        self.pair_sum(&self.bytes, a, b) as f64 / c as f64
    }

    fn pair_sum(&self, map: &BTreeMap<(String, String), u64>, a: &str, b: &str) -> u64 {
        let ab = map.get(&(a.to_owned(), b.to_owned())).copied().unwrap_or(0);
        let ba = map.get(&(b.to_owned(), a.to_owned())).copied().unwrap_or(0);
        ab + ba
    }

    /// All pairs seen this window, in order.
    pub fn pairs(&self) -> Vec<(String, String)> {
        self.counts.keys().cloned().collect()
    }
}

/// One per-pair counter slot of the frequency monitor's hot path.
#[derive(Debug, Clone)]
struct PairSlot {
    src: String,
    dst: String,
    count: u64,
    bytes: u64,
}

/// Counts events per component pair over fixed windows — the paper's
/// `EvtFrequencyMonitor`.
///
/// Call [`EventFrequencyMonitor::roll_window`] at each interval boundary to
/// close the current window and begin a new one.
///
/// The observation path is allocation-free for repeated pairs: consecutive
/// deliveries usually hit the last-pair memo, and everything else resolves
/// through a two-level hash index (`src → dst → slot`), so cost stays O(1)
/// even on hosts that originate hundreds of distinct interaction pairs.
/// This keeps the paper's "0.1%–10%" overhead claim honest (experiment E5
/// measures it). Window output is drained into sorted maps, so the slot
/// (insertion) order never reaches a journal.
#[derive(Debug)]
pub struct EventFrequencyMonitor {
    window: Duration,
    window_started: SimTime,
    slots: Vec<PairSlot>,
    /// `src → dst → index into slots`; lookups borrow `&str`, no allocation.
    index: HashMap<String, HashMap<String, usize>>,
    last_hit: usize,
}

impl EventFrequencyMonitor {
    /// Creates a monitor with the given window length.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: Duration) -> Self {
        assert!(window > Duration::ZERO, "window must be positive");
        EventFrequencyMonitor {
            window,
            window_started: SimTime::ZERO,
            slots: Vec::new(),
            index: HashMap::new(),
            last_hit: 0,
        }
    }

    /// The configured window length.
    pub fn window(&self) -> Duration {
        self.window
    }

    /// Closes the current window (stamping its true length from `now`) and
    /// starts the next one. Returns the closed window.
    pub fn roll_window(&mut self, now: SimTime) -> FrequencyWindow {
        let mut closed = FrequencyWindow {
            window_secs: now.since(self.window_started).as_secs_f64(),
            ..FrequencyWindow::default()
        };
        for slot in self.slots.drain(..) {
            closed
                .counts
                .insert((slot.src.clone(), slot.dst.clone()), slot.count);
            closed.bytes.insert((slot.src, slot.dst), slot.bytes);
        }
        self.index.clear();
        self.last_hit = 0;
        self.window_started = now;
        closed
    }
}

impl ConnectorMonitor for EventFrequencyMonitor {
    fn name(&self) -> &str {
        "event frequency"
    }

    fn observe(&mut self, src: &str, dst: &str, event: &Event, _now: SimTime) {
        let size = event.size();
        // Fast path: same pair as last time (the common case on a bus).
        if let Some(slot) = self.slots.get_mut(self.last_hit) {
            if slot.src == src && slot.dst == dst {
                slot.count += 1;
                slot.bytes += size;
                return;
            }
        }
        if let Some(&i) = self.index.get(src).and_then(|by_dst| by_dst.get(dst)) {
            self.last_hit = i;
            self.slots[i].count += 1;
            self.slots[i].bytes += size;
            return;
        }
        self.last_hit = self.slots.len();
        self.index
            .entry(src.to_owned())
            .or_default()
            .insert(dst.to_owned(), self.last_hit);
        self.slots.push(PairSlot {
            src: src.to_owned(),
            dst: dst.to_owned(),
            count: 1,
            bytes: size,
        });
    }
}

/// Per-peer reliability estimation by pinging — the paper's
/// `NetworkReliabilityMonitor`.
///
/// The host sends `pings_per_window` raw (unacknowledged) pings to each peer
/// per window; the observed pong ratio estimates the link's two-way delivery
/// probability, whose square root estimates one-way reliability.
#[derive(Clone, PartialEq, Debug)]
pub struct ReliabilityProbe {
    sent: BTreeMap<HostId, u64>,
    received: BTreeMap<HostId, u64>,
}

impl Default for ReliabilityProbe {
    fn default() -> Self {
        ReliabilityProbe::new()
    }
}

impl ReliabilityProbe {
    /// Creates an idle probe.
    pub fn new() -> Self {
        ReliabilityProbe {
            sent: BTreeMap::new(),
            received: BTreeMap::new(),
        }
    }

    /// Records that a ping was sent to `peer`.
    pub fn record_ping(&mut self, peer: HostId) {
        *self.sent.entry(peer).or_insert(0) += 1;
    }

    /// Records that a pong came back from `peer`.
    pub fn record_pong(&mut self, peer: HostId) {
        *self.received.entry(peer).or_insert(0) += 1;
    }

    /// Closes the window: returns per-peer one-way reliability estimates
    /// (√ of the round-trip ratio) and resets the counters.
    pub fn roll_window(&mut self) -> BTreeMap<HostId, f64> {
        let mut estimates = BTreeMap::new();
        for (peer, sent) in std::mem::take(&mut self.sent) {
            if sent == 0 {
                continue;
            }
            let received = self.received.get(&peer).copied().unwrap_or(0);
            let roundtrip = received as f64 / sent as f64;
            estimates.insert(peer, roundtrip.sqrt());
        }
        self.received.clear();
        estimates
    }
}

/// A host's stable monitoring results, shipped (serialized inside a Prism
/// event) from each `AdminComponent` to the `DeployerComponent`.
#[derive(Clone, PartialEq, Debug, Default, Serialize, Deserialize)]
pub struct MonitoringSnapshot {
    /// The reporting host.
    pub host: HostId,
    /// Components currently deployed on the host (instance → type name).
    pub components: BTreeMap<String, String>,
    /// Estimated interaction frequency per component pair (events/second).
    #[serde(with = "pair_map")]
    pub frequencies: BTreeMap<(String, String), f64>,
    /// Estimated mean event size per component pair (bytes).
    #[serde(with = "pair_map")]
    pub event_sizes: BTreeMap<(String, String), f64>,
    /// Estimated link reliability per peer host.
    pub reliabilities: BTreeMap<HostId, f64>,
    /// When the snapshot was taken (seconds of simulated time).
    pub taken_at_secs: f64,
}

impl MonitoringSnapshot {
    /// Serializes the snapshot for shipping inside an event payload.
    ///
    /// # Errors
    ///
    /// Returns [`crate::PrismError::Codec`] if serialization fails.
    pub fn encode(&self) -> Result<Vec<u8>, crate::PrismError> {
        serde_json::to_vec(self).map_err(|e| crate::PrismError::Codec(e.to_string()))
    }

    /// Parses a snapshot from an event payload.
    ///
    /// # Errors
    ///
    /// Returns [`crate::PrismError::Codec`] for malformed bytes.
    pub fn decode(bytes: &[u8]) -> Result<Self, crate::PrismError> {
        serde_json::from_slice(bytes).map_err(|e| crate::PrismError::Codec(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs_f64(secs)
    }

    #[test]
    fn frequency_monitor_counts_per_pair() {
        let mut m = EventFrequencyMonitor::new(Duration::from_secs_f64(10.0));
        let e = Event::notification("n").with_size(100);
        for _ in 0..20 {
            m.observe("a", "b", &e, t(0.0));
        }
        m.observe("b", "a", &e, t(0.0));
        let w = m.roll_window(t(10.0));
        // 21 events over 10 s, order-insensitive.
        assert!((w.frequency("a", "b") - 2.1).abs() < 1e-9);
        assert!((w.frequency("b", "a") - 2.1).abs() < 1e-9);
        assert_eq!(w.mean_event_size("a", "b"), 100.0);
    }

    #[test]
    fn rolling_resets_the_window() {
        let mut m = EventFrequencyMonitor::new(Duration::from_secs_f64(1.0));
        let e = Event::notification("n");
        m.observe("a", "b", &e, t(0.0));
        m.roll_window(t(1.0));
        let w2 = m.roll_window(t(2.0));
        assert_eq!(w2.frequency("a", "b"), 0.0);
        assert_eq!(w2.window_secs, 1.0);
        assert!(w2.counts.is_empty(), "a closed window leaked into the next");
    }

    #[test]
    fn unseen_pair_has_zero_frequency() {
        let mut m = EventFrequencyMonitor::new(Duration::from_secs_f64(1.0));
        let w = m.roll_window(t(1.0));
        assert_eq!(w.frequency("x", "y"), 0.0);
        assert_eq!(w.mean_event_size("x", "y"), 0.0);
    }

    #[test]
    fn reliability_probe_estimates_sqrt_of_roundtrip() {
        let mut p = ReliabilityProbe::new();
        let peer = HostId::new(1);
        for _ in 0..100 {
            p.record_ping(peer);
        }
        for _ in 0..81 {
            p.record_pong(peer);
        }
        let est = p.roll_window();
        assert!((est[&peer] - 0.9).abs() < 1e-9);
        // Counters reset after rolling.
        assert!(p.roll_window().is_empty());
    }

    #[test]
    fn snapshot_roundtrip() {
        let mut s = MonitoringSnapshot {
            host: HostId::new(2),
            taken_at_secs: 12.5,
            ..MonitoringSnapshot::default()
        };
        s.components.insert("gui".into(), "display".into());
        s.frequencies.insert(("gui".into(), "db".into()), 4.5);
        s.reliabilities.insert(HostId::new(1), 0.8);
        let bytes = s.encode().unwrap();
        assert_eq!(MonitoringSnapshot::decode(&bytes).unwrap(), s);
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_panics() {
        let _ = EventFrequencyMonitor::new(Duration::ZERO);
    }
}
