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

use crate::codec::{
    expect_magic, get_f64, get_str, get_u32, get_varint, put_f64, put_str, put_varint,
    SNAPSHOT_MAGIC,
};
use crate::event::Event;
use crate::symbol::Symbol;
use crate::PrismError;
use redep_model::HostId;
use redep_netsim::{Duration, SimTime};
use std::any::Any;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// A probe tapping the traffic of one connector.
pub trait ConnectorMonitor: Any + Send + fmt::Debug {
    /// Short name for diagnostics.
    fn name(&self) -> &str;

    /// Observes one delivery: `src` emitted `event`, `dst` received it.
    fn observe(&mut self, src: Symbol, dst: Symbol, event: &Event, now: SimTime);
}

/// Events and bytes one (source, destination) pair exchanged in a window.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PairCount {
    /// The emitting component.
    pub src: Symbol,
    /// The receiving component.
    pub dst: Symbol,
    /// Events counted.
    pub count: u64,
    /// Bytes counted.
    pub bytes: u64,
}

/// One estimate per component pair, keyed by the pair's names.
pub type PairEstimates = BTreeMap<(String, String), f64>;

/// One measurement window of per-pair interaction statistics.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct FrequencyWindow {
    /// The pairs seen this window, sorted by (source, destination) *name*.
    pub pairs: Vec<PairCount>,
    /// Window length in seconds.
    pub window_secs: f64,
}

impl FrequencyWindow {
    /// Events per second for a pair (order-insensitive).
    pub fn frequency(&self, a: &str, b: &str) -> f64 {
        if self.window_secs <= 0.0 {
            return 0.0;
        }
        self.pair_sum(a, b).0 as f64 / self.window_secs
    }

    /// Merges windows closed over one interval — an admin's named sends and
    /// its connector tap — into the (frequency, mean event size) estimates of
    /// every pair in canonical (name) order, in one pass: every tally goes
    /// into one vector under its canonical pair, a stable sort brings a
    /// pair's tallies together — window by window, (a, b) before (b, a), the
    /// order the sums have always been taken in — and each run becomes the
    /// pair's estimates, so each observed event contributes exactly once.
    /// Zero-length windows are skipped.
    pub fn estimates(windows: &[&FrequencyWindow]) -> (PairEstimates, PairEstimates) {
        let mut tallies = Vec::with_capacity(windows.iter().map(|w| w.pairs.len()).sum());
        for window in windows.iter().filter(|w| w.window_secs > 0.0) {
            tallies.extend(window.pairs.iter().map(|p| {
                let pair = (p.src.min(p.dst), p.src.max(p.dst));
                (pair, p.count, p.bytes, p.count as f64 / window.window_secs)
            }));
        }
        tallies.sort_by_key(|tally| tally.0);
        let (mut frequencies, mut event_sizes) = (BTreeMap::new(), BTreeMap::new());
        for run in tallies.chunk_by(|x, y| x.0 == y.0) {
            let (a, b) = run[0].0;
            let key = (a.as_str().to_owned(), b.as_str().to_owned());
            let (count, bytes, frequency) = run.iter().fold((0u64, 0u64, 0.0), |(c, s, f), t| {
                (c + t.1, s + t.2, f + t.3)
            });
            frequencies.insert(key.clone(), frequency);
            event_sizes.insert(key, bytes as f64 / count as f64);
        }
        (frequencies, event_sizes)
    }

    /// (events, bytes) of a pair, both directions together.
    fn pair_sum(&self, a: &str, b: &str) -> (u64, u64) {
        self.pairs
            .iter()
            .filter(|p| (p.src == a && p.dst == b) || (p.src == b && p.dst == a))
            .fold((0, 0), |(c, s), p| (c + p.count, s + p.bytes))
    }
}

/// Hashes the one `u64` a key is: a multiply and a fold, not SipHash. For
/// keys the program issues itself (interner ids, timer ids), never outside
/// input.
#[derive(Clone, Default, Debug)]
pub(crate) struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("id keys hash as one u64");
    }

    fn write_u64(&mut self, key: u64) {
        let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Counts events per component pair over fixed windows — the paper's
/// `EvtFrequencyMonitor`.
///
/// Call [`EventFrequencyMonitor::roll_window`] at each interval boundary to
/// close the current window and begin a new one.
///
/// The observation path is one integer-keyed hash lookup on the pair's
/// symbol ids and never allocates for a pair seen before — in this window or
/// an earlier one: closing a window zeroes the counters and keeps the slots.
/// This keeps the paper's "0.1%–10%" overhead claim honest (experiment E5
/// measures it). Ids only *find* a slot; window output is sorted by name, so
/// neither ids nor first-seen order ever reach a journal.
#[derive(Debug)]
pub struct EventFrequencyMonitor {
    window: Duration,
    window_started: SimTime,
    /// Every pair seen so far, in first-seen order.
    slots: Vec<PairCount>,
    /// `src id << 32 | dst id` → index into `slots`.
    index: HashMap<u64, usize, BuildHasherDefault<IdHasher>>,
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
            index: HashMap::default(),
        }
    }

    /// The configured window length.
    pub fn window(&self) -> Duration {
        self.window
    }

    /// Closes the current window (stamping its true length from `now`) and
    /// starts the next one. Returns the closed window.
    pub fn roll_window(&mut self, now: SimTime) -> FrequencyWindow {
        let mut pairs: Vec<PairCount> = self
            .slots
            .iter()
            .filter(|slot| slot.count > 0)
            .copied()
            .collect();
        // `Symbol`'s order is its name's.
        pairs.sort_unstable_by_key(|p| (p.src, p.dst));
        for slot in &mut self.slots {
            (slot.count, slot.bytes) = (0, 0);
        }
        let window_secs = now.since(self.window_started).as_secs_f64();
        self.window_started = now;
        FrequencyWindow { pairs, window_secs }
    }
}

impl ConnectorMonitor for EventFrequencyMonitor {
    fn name(&self) -> &str {
        "event frequency"
    }

    fn observe(&mut self, src: Symbol, dst: Symbol, event: &Event, _now: SimTime) {
        let key = u64::from(src.id()) << 32 | u64::from(dst.id());
        let slots = &mut self.slots;
        let i = *self.index.entry(key).or_insert_with(|| {
            slots.push(PairCount {
                src,
                dst,
                count: 0,
                bytes: 0,
            });
            slots.len() - 1
        });
        slots[i].count += 1;
        slots[i].bytes += event.size();
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

/// A host's stable monitoring results, shipped (encoded inside a Prism
/// event) from each `AdminComponent` to the `DeployerComponent`.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct MonitoringSnapshot {
    /// The reporting host.
    pub host: HostId,
    /// Components currently deployed on the host (instance → type name).
    pub components: BTreeMap<String, String>,
    /// Estimated interaction frequency per component pair (events/second).
    pub frequencies: PairEstimates,
    /// Estimated mean event size per component pair (bytes).
    pub event_sizes: PairEstimates,
    /// Estimated link reliability per peer host.
    pub reliabilities: BTreeMap<HostId, f64>,
    /// When the snapshot was taken (seconds of simulated time).
    pub taken_at_secs: f64,
}

/// Pair record flag: a frequency follows the names.
const HAS_FREQUENCY: u64 = 1;
/// Pair record flag: a mean event size follows (after the frequency).
const HAS_EVENT_SIZE: u64 = 2;

impl MonitoringSnapshot {
    /// Encodes the snapshot for shipping inside an event payload — the
    /// binary layout documented in [`crate::codec`].
    pub fn encode(&self) -> Vec<u8> {
        let mut out = vec![SNAPSHOT_MAGIC];
        put_varint(&mut out, u64::from(self.host.raw()));
        put_f64(&mut out, self.taken_at_secs);
        put_varint(&mut out, self.components.len() as u64);
        for (name, type_name) in &self.components {
            put_str(&mut out, name);
            put_str(&mut out, type_name);
        }
        let mut put_pair = |pair: &(String, String), freq: Option<&f64>, size: Option<&f64>| {
            let has = |v: Option<&f64>, flag| if v.is_some() { flag } else { 0 };
            put_varint(
                &mut out,
                has(freq, HAS_FREQUENCY) | has(size, HAS_EVENT_SIZE),
            );
            put_str(&mut out, &pair.0);
            put_str(&mut out, &pair.1);
            for value in freq.into_iter().chain(size) {
                put_f64(&mut out, *value);
            }
        };
        // Both maps are walked once, in key order, so a pair's names are
        // written once however many estimates it has.
        let mut sizes = self.event_sizes.iter().peekable();
        for (pair, freq) in &self.frequencies {
            while let Some((lone, size)) = sizes.next_if(|(p, _)| *p < pair) {
                put_pair(lone, None, Some(size));
            }
            let size = sizes.next_if(|(p, _)| *p == pair).map(|(_, size)| size);
            put_pair(pair, Some(freq), size);
        }
        for (lone, size) in sizes {
            put_pair(lone, None, Some(size));
        }
        put_varint(&mut out, 0);
        put_varint(&mut out, self.reliabilities.len() as u64);
        for (peer, reliability) in &self.reliabilities {
            put_varint(&mut out, u64::from(peer.raw()));
            put_f64(&mut out, *reliability);
        }
        out
    }

    /// Parses a snapshot from an event payload.
    ///
    /// # Errors
    ///
    /// Returns [`PrismError::Codec`] for bytes that are not exactly one
    /// encoding: a foreign leading byte, truncation, invalid UTF-8 in a
    /// name, unknown pair flags, or trailing bytes.
    pub fn decode(bytes: &[u8]) -> Result<Self, PrismError> {
        expect_magic(bytes, SNAPSHOT_MAGIC, "snapshot")?;
        let pos = &mut 1usize;
        let mut snapshot = MonitoringSnapshot {
            host: HostId::new(get_u32(bytes, pos)?),
            taken_at_secs: get_f64(bytes, pos)?,
            ..MonitoringSnapshot::default()
        };
        for _ in 0..get_varint(bytes, pos)? {
            snapshot
                .components
                .insert(get_str(bytes, pos)?, get_str(bytes, pos)?);
        }
        loop {
            let flags = get_varint(bytes, pos)?;
            if flags == 0 {
                break;
            }
            if flags > (HAS_FREQUENCY | HAS_EVENT_SIZE) {
                return Err(PrismError::Codec(format!("bad pair flags {flags}")));
            }
            let pair = (get_str(bytes, pos)?, get_str(bytes, pos)?);
            if flags & HAS_FREQUENCY != 0 {
                let frequency = get_f64(bytes, pos)?;
                snapshot.frequencies.insert(pair.clone(), frequency);
            }
            if flags & HAS_EVENT_SIZE != 0 {
                snapshot.event_sizes.insert(pair, get_f64(bytes, pos)?);
            }
        }
        for _ in 0..get_varint(bytes, pos)? {
            snapshot
                .reliabilities
                .insert(HostId::new(get_u32(bytes, pos)?), get_f64(bytes, pos)?);
        }
        if *pos != bytes.len() {
            return Err(PrismError::Codec("trailing bytes after snapshot".into()));
        }
        Ok(snapshot)
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
            m.observe("a".into(), "b".into(), &e, t(0.0));
        }
        m.observe("b".into(), "a".into(), &e, t(0.0));
        let w = m.roll_window(t(10.0));
        // 21 events over 10 s, order-insensitive.
        assert!((w.frequency("a", "b") - 2.1).abs() < 1e-9);
        assert!((w.frequency("b", "a") - 2.1).abs() < 1e-9);
    }

    #[test]
    fn rolling_resets_the_window() {
        let mut m = EventFrequencyMonitor::new(Duration::from_secs_f64(1.0));
        let e = Event::notification("n");
        m.observe("a".into(), "b".into(), &e, t(0.0));
        m.roll_window(t(1.0));
        let w2 = m.roll_window(t(2.0));
        assert_eq!(w2.frequency("a", "b"), 0.0);
        assert_eq!(w2.window_secs, 1.0);
        assert!(w2.pairs.is_empty(), "a closed window leaked into the next");
        // The pair's slot outlives its window; its counters do not.
        m.observe("a".into(), "b".into(), &e, t(2.0));
        let w3 = m.roll_window(t(3.0));
        assert_eq!(w3.pairs.len(), 1);
        assert_eq!(w3.pairs[0].count, 1);
    }

    #[test]
    fn windows_are_sorted_by_name_not_by_id_or_arrival() {
        // Interned — so numbered — and observed against the name order.
        let names = ["mon-order-c", "mon-order-b", "mon-order-a"].map(Symbol::intern);
        let mut m = EventFrequencyMonitor::new(Duration::from_secs_f64(1.0));
        let e = Event::notification("n");
        for src in names {
            for dst in names {
                m.observe(src, dst, &e, t(0.0));
            }
        }
        let seen: Vec<(&str, &str)> = m
            .roll_window(t(1.0))
            .pairs
            .iter()
            .map(|p| (p.src.as_str(), p.dst.as_str()))
            .collect();
        let mut sorted = seen.clone();
        sorted.sort();
        assert_eq!(seen.len(), 9);
        assert_eq!(seen, sorted);
    }

    #[test]
    fn unseen_pair_has_zero_frequency() {
        let mut m = EventFrequencyMonitor::new(Duration::from_secs_f64(1.0));
        let w = m.roll_window(t(1.0));
        assert_eq!(w.frequency("x", "y"), 0.0);
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

    /// Every shape a pair record takes: both estimates, either alone, with
    /// names outside ASCII.
    fn sample_snapshot() -> MonitoringSnapshot {
        let mut s = MonitoringSnapshot {
            host: HostId::new(2),
            taken_at_secs: 12.5,
            ..MonitoringSnapshot::default()
        };
        s.components.insert("gui".into(), "display".into());
        s.components.insert("データ".into(), "größe".into());
        s.frequencies.insert(("gui".into(), "db".into()), 4.5);
        s.frequencies.insert(("gui".into(), "データ".into()), 0.25);
        s.event_sizes.insert(("gui".into(), "データ".into()), 96.0);
        s.event_sizes.insert(("a".into(), "zz".into()), 7.0);
        s.event_sizes.insert(("zz".into(), "a".into()), 8.0);
        s.reliabilities.insert(HostId::new(1), 0.8);
        s
    }

    #[test]
    fn snapshot_roundtrip() {
        for s in [MonitoringSnapshot::default(), sample_snapshot()] {
            let bytes = s.encode();
            assert_eq!(MonitoringSnapshot::decode(&bytes).unwrap(), s);
        }
        // Each pair's names are on the wire once.
        let bytes = sample_snapshot().encode();
        let hits = bytes.windows(2).filter(|w| w == b"zz").count();
        assert_eq!(hits, 2, "two pairs name zz, once each");
    }

    #[test]
    fn damaged_snapshots_are_errors_not_panics() {
        let bytes = sample_snapshot().encode();
        for cut in 0..bytes.len() {
            assert!(
                MonitoringSnapshot::decode(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes"
            );
        }
        for extra in 0..=u8::MAX {
            let mut longer = bytes.clone();
            longer.push(extra);
            assert!(
                MonitoringSnapshot::decode(&longer).is_err(),
                "byte {extra:#04x} appended"
            );
        }
        // Invalid UTF-8 inside a name.
        let at = bytes.windows(3).position(|w| w == b"gui").unwrap();
        let mut bad = bytes.clone();
        bad[at] = 0xFF;
        assert!(MonitoringSnapshot::decode(&bad).is_err());
        // Pair flags beyond the two defined bits: the first pair record
        // follows the magic, host, time, and the two-entry inventory.
        let first_pair = bytes.windows(2).position(|w| w == [2, 1]).unwrap();
        assert_eq!(bytes[first_pair + 1..first_pair + 3], [1, b'a']);
        let mut bad = bytes.clone();
        bad[first_pair] = 4;
        assert!(MonitoringSnapshot::decode(&bad).is_err());
        // The JSON document a report used to be.
        let json = br#"{"host":2,"components":{"gui":"display"},"frequencies":[],"event_sizes":[],"reliabilities":{},"taken_at_secs":12.5}"#;
        let err = MonitoringSnapshot::decode(json).unwrap_err();
        assert!(err.to_string().contains("0x7b"), "{err}");
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_panics() {
        let _ = EventFrequencyMonitor::new(Duration::ZERO);
    }
}
