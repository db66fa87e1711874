//! The distribution transport: wire messages and reliable channels.
//!
//! Prism-MW's `DistributionConnector` carries events "across process or
//! machine boundaries". Over the simulated (lossy) network this crate speaks
//! a small wire protocol:
//!
//! * **Raw** frames — application events. They are exposed to link loss on
//!   purpose: lost application interactions are exactly what the
//!   availability objective measures.
//! * **Seq/Ack** frames — control and migration traffic (monitoring reports,
//!   redeployment commands, serialized component state). A
//!   [`ReliableChannel`] retransmits unacknowledged frames and deduplicates
//!   at the receiver, so redeployment never loses a component to a lossy
//!   link.
//! * **Ping/Pong** frames — the raw probes of the network-reliability
//!   monitor.

use crate::codec;
use crate::symbol::Symbol;
use redep_model::HostId;
use redep_netsim::{Duration, SimTime};
use std::collections::{BTreeMap, BTreeSet};

/// A frame on the simulated wire.
#[derive(Clone, PartialEq, Debug)]
pub(crate) enum WireMsg {
    /// A frame in transit to a non-neighbor, relayed hop by hop along each
    /// host's routing table. Every hop is an independent (lossy) link send,
    /// so end-to-end loss compounds naturally.
    Forward {
        /// The originating host (the logical sender the destination should
        /// respond to).
        src: HostId,
        /// The final destination.
        dst: HostId,
        /// The encoded inner frame.
        frame: Vec<u8>,
    },
    /// Unreliable application event addressed to a component.
    Raw {
        /// Destination component instance name.
        to_component: Symbol,
        /// Encoded [`Event`](crate::Event).
        event: Vec<u8>,
    },
    /// Reliable, sequenced control frame.
    Seq {
        /// Channel sequence number.
        seq: u64,
        /// Destination component instance name.
        to_component: Symbol,
        /// Encoded [`Event`](crate::Event).
        event: Vec<u8>,
    },
    /// Acknowledgment of a `Seq` frame.
    Ack {
        /// The acknowledged sequence number.
        seq: u64,
    },
    /// Reliability probe.
    Ping {
        /// Correlation nonce.
        nonce: u64,
    },
    /// Reliability probe answer.
    Pong {
        /// The nonce of the answered ping.
        nonce: u64,
    },
}

impl WireMsg {
    /// Encodes the frame (consumed: its body's buffer becomes the bytes).
    pub(crate) fn encode(self) -> Vec<u8> {
        codec::encode_wire(self)
    }

    /// Decodes a received buffer (consumed: it becomes the frame's body).
    pub(crate) fn decode(bytes: Vec<u8>) -> Result<Self, crate::PrismError> {
        codec::decode_wire(bytes)
    }

    /// The trace context of the embedded event, for frames that carry one
    /// (`Raw`/`Seq` directly; `Forward` by unwrapping the inner frame).
    /// Diagnostic accessor: the hot path never decodes just for this.
    #[cfg(test)]
    pub(crate) fn trace_ctx(&self) -> Option<redep_telemetry::TraceCtx> {
        match self {
            WireMsg::Raw { event, .. } | WireMsg::Seq { event, .. } => {
                crate::Event::decode(event).ok()?.trace()
            }
            WireMsg::Forward { frame, .. } => WireMsg::decode(frame.clone()).ok()?.trace_ctx(),
            WireMsg::Ack { .. } | WireMsg::Ping { .. } | WireMsg::Pong { .. } => None,
        }
    }

    /// Wire size charged for this frame.
    pub(crate) fn wire_size(&self) -> u64 {
        match self {
            WireMsg::Raw { event, .. } | WireMsg::Seq { event, .. } => event.len() as u64 + 24,
            WireMsg::Forward { frame, .. } => frame.len() as u64 + 24,
            WireMsg::Ack { .. } | WireMsg::Ping { .. } | WireMsg::Pong { .. } => 16,
        }
    }
}

/// One unacknowledged outbound frame with its retransmission schedule.
#[derive(Clone, PartialEq, Debug)]
struct PendingFrame {
    to_component: Symbol,
    event: Vec<u8>,
    /// Retransmissions so far; drives the exponential backoff.
    attempts: u32,
    /// Earliest instant the next retransmission may go out.
    next_due: SimTime,
}

/// Base retransmission interval of the reliable channels, and the period of
/// the host's retransmission sweep.
pub(crate) const RTO: Duration = Duration::from_millis(200);

/// Retransmission intervals double per attempt up to `RTO << MAX_BACKOFF_SHIFT`
/// (64× the base RTO), so a long outage costs a trickle, not a flood.
const MAX_BACKOFF_SHIFT: u32 = 6;

/// A frame this many attempts in (16× the base RTO between probes) is
/// considered stalled by an outage rather than ordinary link loss; peer
/// activity collapses its backoff (see
/// [`ReliableChannel::on_peer_activity`]).
const STALLED_ATTEMPTS: u32 = 4;

/// Sender/receiver state of one reliable channel to a single peer.
///
/// At-least-once retransmission plus receiver-side deduplication gives
/// exactly-once *delivery to the application* for control traffic, as long
/// as the link is eventually up. Each unacked frame backs off exponentially
/// (doubling per retransmission, capped at 64× the RTO), so an unreachable
/// peer degrades to a low-rate probe instead of a full-backlog resend every
/// RTO tick. Receiver-side dedup state is a contiguous delivered watermark
/// plus a small out-of-order set, bounded by the reorder window instead of
/// growing with channel lifetime.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct ReliableChannel {
    next_seq: u64,
    /// Unacknowledged outbound frames by sequence number.
    pending: BTreeMap<u64, PendingFrame>,
    /// Every seq below this has been delivered to the application.
    next_expected: u64,
    /// Delivered seqs at or above the watermark (arrival ran ahead).
    out_of_order: BTreeSet<u64>,
}

impl ReliableChannel {
    /// Creates an idle channel.
    pub fn new() -> Self {
        ReliableChannel::default()
    }

    /// Number of unacknowledged frames.
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// The channel's durable sequence state: `(next_seq, next_expected)`.
    ///
    /// Pending (unacked) frames and the out-of-order set are deliberately
    /// not part of it — after a crash, retransmission and the migration
    /// protocol's NACK/holder-re-resolution paths regenerate what mattered.
    /// What *must* survive exactly is the sender-side `next_seq`: reusing a
    /// sequence number the peer has already delivered would be silently
    /// swallowed by its dedup watermark, deadlocking the channel.
    pub(crate) fn durable_state(&self) -> (u64, u64) {
        (self.next_seq, self.next_expected)
    }

    /// Rebuilds a channel from durable sequence state (empty pending and
    /// out-of-order sets — see [`ReliableChannel::durable_state`]).
    pub(crate) fn restore(next_seq: u64, next_expected: u64) -> Self {
        ReliableChannel {
            next_seq,
            pending: BTreeMap::new(),
            next_expected,
            out_of_order: BTreeSet::new(),
        }
    }

    /// Journal-replay bump of the sender sequence: one `ChannelSend` record
    /// re-applied means one sequence number was consumed before the crash.
    pub(crate) fn bump_next_seq(&mut self) {
        self.next_seq += 1;
    }

    /// Size of the receiver's out-of-order set — the only dedup state that
    /// is not O(1). Bounded by the reorder window of the link, not by the
    /// number of frames ever delivered.
    #[cfg(test)]
    fn dedup_footprint(&self) -> usize {
        self.out_of_order.len()
    }

    /// Enqueues an event for reliable delivery; returns the frame to put on
    /// the wire now. The first retransmission becomes due one [`RTO`] after
    /// `now`; each later one doubles the wait (see
    /// [`ReliableChannel::due_retransmits`]).
    pub(crate) fn send(&mut self, to_component: Symbol, event: Vec<u8>, now: SimTime) -> WireMsg {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending.insert(
            seq,
            PendingFrame {
                to_component,
                event: event.clone(),
                attempts: 0,
                next_due: now + RTO,
            },
        );
        WireMsg::Seq {
            seq,
            to_component,
            event,
        }
    }

    /// Handles an incoming ack.
    pub(crate) fn on_ack(&mut self, seq: u64) {
        self.pending.remove(&seq);
    }

    /// Handles an incoming sequenced frame; returns `true` exactly once per
    /// sequence number (the first arrival), `false` for duplicates.
    pub(crate) fn on_seq(&mut self, seq: u64) -> bool {
        if seq < self.next_expected || self.out_of_order.contains(&seq) {
            return false;
        }
        if seq == self.next_expected {
            self.next_expected += 1;
            while self.out_of_order.remove(&self.next_expected) {
                self.next_expected += 1;
            }
        } else {
            self.out_of_order.insert(seq);
        }
        true
    }

    /// Frames whose backoff timer has expired, oldest first. Each returned
    /// frame's attempt count is bumped and its next due time doubled
    /// (capped), so calling this every RTO tick re-sends a frame after
    /// 1, 2, 4, … RTOs instead of on every tick.
    pub(crate) fn due_retransmits(&mut self, now: SimTime) -> Vec<WireMsg> {
        let mut due = Vec::new();
        for (seq, frame) in self.pending.iter_mut() {
            if frame.next_due <= now {
                frame.attempts += 1;
                let backoff = RTO.saturating_mul(1 << frame.attempts.min(MAX_BACKOFF_SHIFT));
                frame.next_due = now + backoff;
                due.push(WireMsg::Seq {
                    seq: *seq,
                    to_component: frame.to_component,
                    event: frame.event.clone(),
                });
            }
        }
        due
    }

    /// Fresh evidence that the path to this peer works again (a frame just
    /// arrived from it): collapse the exponential backoff of frames deep in
    /// backoff so they retry at the base RTO instead of the outage-rate
    /// trickle. A long partition otherwise leaves surviving frames probing
    /// at the backoff cap for the rest of the run, turning a healed link
    /// into minutes of stalled control traffic. Ordinary lossy-link retries
    /// (one or two attempts in) keep their schedule, and the restarts are
    /// staggered one RTO apart so the healed link is not hit by a
    /// thundering herd of simultaneous retransmissions.
    pub(crate) fn on_peer_activity(&mut self, now: SimTime) {
        let mut i = 0u32;
        for frame in self.pending.values_mut() {
            if frame.attempts >= STALLED_ATTEMPTS {
                frame.attempts = 0;
                i += 1;
                frame.next_due = frame.next_due.min(now + RTO.saturating_mul(i as u64));
            }
        }
    }

    /// Every unacknowledged frame, oldest first, regardless of backoff
    /// (test oracle; the wire path uses
    /// [`ReliableChannel::due_retransmits`]).
    #[cfg(test)]
    pub(crate) fn retransmits(&self) -> Vec<WireMsg> {
        self.pending
            .iter()
            .map(|(seq, frame)| WireMsg::Seq {
                seq: *seq,
                to_component: frame.to_component,
                event: frame.event.clone(),
            })
            .collect()
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn send(ch: &mut ReliableChannel, to: impl Into<Symbol>, event: Vec<u8>) -> WireMsg {
        ch.send(to.into(), event, SimTime::ZERO)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Whatever subset of frames gets acked, the retransmit set is
        /// exactly the complement — no frame is forgotten, none lingers.
        #[test]
        fn retransmits_are_exactly_the_unacked(sends in 1usize..24, ack_mask in any::<u32>()) {
            let mut ch = ReliableChannel::new();
            let mut seqs = Vec::new();
            for i in 0..sends {
                if let WireMsg::Seq { seq, .. } = send(&mut ch, format!("c{i}"), vec![i as u8]) {
                    seqs.push(seq);
                }
            }
            let mut unacked = Vec::new();
            for (i, seq) in seqs.iter().enumerate() {
                if ack_mask & (1 << (i % 32)) != 0 {
                    ch.on_ack(*seq);
                } else {
                    unacked.push(*seq);
                }
            }
            let retrans: Vec<u64> = ch
                .retransmits()
                .into_iter()
                .filter_map(|m| match m {
                    WireMsg::Seq { seq, .. } => Some(seq),
                    _ => None,
                })
                .collect();
            prop_assert_eq!(retrans, unacked);
        }

        /// The receiver delivers each sequence number exactly once, in any
        /// arrival order with any duplication.
        #[test]
        fn receiver_delivers_each_seq_once(arrivals in proptest::collection::vec(0u64..16, 1..64)) {
            let mut ch = ReliableChannel::new();
            let mut delivered = std::collections::BTreeSet::new();
            for seq in arrivals {
                if ch.on_seq(seq) {
                    prop_assert!(delivered.insert(seq), "seq {} delivered twice", seq);
                }
            }
        }

        /// The watermark + out-of-order compaction answers exactly like the
        /// unbounded seen-set it replaced, arrival order and duplication
        /// notwithstanding — and once the prefix is contiguous the
        /// out-of-order set is empty again.
        #[test]
        fn compacted_dedup_matches_the_unbounded_model(arrivals in proptest::collection::vec(0u64..24, 1..96)) {
            let mut ch = ReliableChannel::new();
            let mut model = std::collections::BTreeSet::new();
            for seq in arrivals {
                prop_assert_eq!(ch.on_seq(seq), model.insert(seq), "divergence at seq {}", seq);
                // Footprint stays within the highest gap, never the full history.
                let contiguous = (0..).take_while(|s| model.contains(s)).count() as u64;
                prop_assert_eq!(
                    ch.dedup_footprint(),
                    model.iter().filter(|&&s| s >= contiguous).count()
                );
            }
        }

        /// In-order delivery keeps the receiver state O(1): the out-of-order
        /// set never holds anything.
        #[test]
        fn in_order_delivery_needs_no_out_of_order_state(n in 1u64..512) {
            let mut ch = ReliableChannel::new();
            for seq in 0..n {
                prop_assert!(ch.on_seq(seq));
                prop_assert_eq!(ch.dedup_footprint(), 0);
            }
        }

        /// Wire frames round-trip through the codec.
        #[test]
        fn wire_roundtrip_any_payload(seq in any::<u64>(), payload in proptest::collection::vec(any::<u8>(), 0..128)) {
            let m = WireMsg::Seq { seq, to_component: "x".into(), event: payload };
            prop_assert_eq!(WireMsg::decode(m.clone().encode()).unwrap(), m);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn send(ch: &mut ReliableChannel, to: &str, event: Vec<u8>) -> WireMsg {
        ch.send(to.into(), event, SimTime::ZERO)
    }

    #[test]
    fn send_assigns_increasing_seqs() {
        let mut ch = ReliableChannel::new();
        let a = send(&mut ch, "x", vec![1]);
        let b = send(&mut ch, "x", vec![2]);
        match (a, b) {
            (WireMsg::Seq { seq: s1, .. }, WireMsg::Seq { seq: s2, .. }) => {
                assert!(s2 > s1);
            }
            _ => panic!("expected Seq frames"),
        }
        assert_eq!(ch.in_flight(), 2);
    }

    #[test]
    fn ack_clears_pending() {
        let mut ch = ReliableChannel::new();
        let WireMsg::Seq { seq, .. } = send(&mut ch, "x", vec![]) else {
            panic!()
        };
        ch.on_ack(seq);
        assert_eq!(ch.in_flight(), 0);
        assert!(ch.retransmits().is_empty());
    }

    #[test]
    fn retransmits_repeat_unacked_frames() {
        let mut ch = ReliableChannel::new();
        send(&mut ch, "x", vec![1]);
        send(&mut ch, "y", vec![2]);
        assert_eq!(ch.retransmits().len(), 2);
        // Retransmission does not consume.
        assert_eq!(ch.retransmits().len(), 2);
    }

    #[test]
    fn backoff_doubles_per_retransmission() {
        let mut ch = ReliableChannel::new();
        send(&mut ch, "x", vec![1]);
        // Not yet due before one RTO has passed.
        assert!(ch
            .due_retransmits(SimTime::from_micros(RTO.as_micros() - 1))
            .is_empty());
        // Due at exactly one RTO; the next wait doubles each time after.
        let mut t = SimTime::ZERO + RTO;
        for round in 0..4u32 {
            assert_eq!(ch.due_retransmits(t).len(), 1, "round {round}");
            let wait = RTO.saturating_mul(1 << (round + 1));
            // One microsecond before the next deadline: silent.
            assert!(ch
                .due_retransmits(t + Duration::from_micros(wait.as_micros() - 1))
                .is_empty());
            t += wait;
        }
    }

    #[test]
    fn backoff_caps_instead_of_overflowing() {
        let mut ch = ReliableChannel::new();
        send(&mut ch, "x", vec![1]);
        let mut t = SimTime::ZERO + RTO;
        for _ in 0..40 {
            assert_eq!(ch.due_retransmits(t).len(), 1);
            t += RTO.saturating_mul(1 << MAX_BACKOFF_SHIFT);
        }
        assert_eq!(ch.in_flight(), 1);
    }

    #[test]
    fn receiver_dedups_by_seq() {
        let mut ch = ReliableChannel::new();
        assert!(ch.on_seq(0));
        assert!(!ch.on_seq(0));
        assert!(ch.on_seq(1));
    }

    #[test]
    fn wire_roundtrip() {
        let m = WireMsg::Seq {
            seq: 3,
            to_component: "admin".into(),
            event: vec![1, 2],
        };
        assert_eq!(WireMsg::decode(m.clone().encode()).unwrap(), m);
        assert!(WireMsg::decode(b"junk".to_vec()).is_err());
    }

    #[test]
    fn trace_ctx_survives_the_wire_even_through_forwarding() {
        use redep_telemetry::TraceCtx;
        let ctx = TraceCtx {
            trace_id: 11,
            span_id: 12,
            parent_id: Some(11),
        };
        let event = crate::Event::notification("traced").with_trace(ctx);
        let raw = WireMsg::Raw {
            to_component: "admin".into(),
            event: event.encode().unwrap(),
        };
        assert_eq!(raw.trace_ctx(), Some(ctx));
        let forwarded = WireMsg::Forward {
            src: HostId::new(1),
            dst: HostId::new(2),
            frame: raw.encode(),
        };
        assert_eq!(forwarded.trace_ctx(), Some(ctx));
        assert_eq!(WireMsg::Ack { seq: 1 }.trace_ctx(), None);
        let untraced = WireMsg::Raw {
            to_component: "admin".into(),
            event: crate::Event::notification("plain").encode().unwrap(),
        };
        assert_eq!(untraced.trace_ctx(), None);
    }

    #[test]
    fn wire_size_scales_with_payload() {
        let small = WireMsg::Ack { seq: 1 };
        let big = WireMsg::Raw {
            to_component: "x".into(),
            event: vec![0; 1000],
        };
        assert!(big.wire_size() > small.wire_size());
    }
}
