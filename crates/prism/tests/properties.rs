//! Property-based tests on the middleware's codec, channel, and stability
//! invariants.

use proptest::prelude::*;
use redep_model::HostId;
use redep_prism::{Event, MonitoringSnapshot, StabilityGauge, TraceCtx};

fn event_strategy() -> impl Strategy<Value = Event> {
    (
        "[a-z.]{1,20}",
        proptest::collection::btree_map("[a-z]{1,8}", -1e9f64..1e9, 0..8),
        proptest::collection::vec(any::<u8>(), 0..64),
        proptest::option::of(0u64..1_000_000),
    )
        .prop_map(|(name, params, payload, size)| {
            let mut e = Event::notification(name).with_payload(payload);
            for (k, v) in params {
                e = e.with_param(k, v);
            }
            if let Some(s) = size {
                e = e.with_size(s);
            }
            e
        })
}

fn trace_strategy() -> impl Strategy<Value = TraceCtx> {
    (
        1u64..u64::MAX,
        1u64..u64::MAX,
        proptest::option::of(1u64..u64::MAX),
    )
        .prop_map(|(trace_id, span_id, parent_id)| TraceCtx {
            trace_id,
            span_id,
            parent_id,
        })
}

/// Component-like names, a few outside ASCII, the empty one included.
fn name_strategy() -> &'static str {
    "[a-z0-9._éßλ日本🦀-]{0,12}"
}

/// Any float but a NaN (which no estimate is, and `==` cannot compare):
/// zeros of both signs, subnormals, the extremes and the infinities.
fn estimate_strategy() -> impl Strategy<Value = f64> {
    any::<u64>().prop_map(|bits| {
        let value = f64::from_bits(bits);
        if value.is_nan() {
            f64::MAX
        } else {
            value
        }
    })
}

/// Advances `pos` past one LEB128 varint in the binary event layout.
fn skip_varint(bytes: &[u8], pos: &mut usize) {
    while bytes[*pos] & 0x80 != 0 {
        *pos += 1;
    }
    *pos += 1;
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn events_roundtrip_through_the_codec(
        event in event_strategy(),
        trace in proptest::option::of(trace_strategy()),
    ) {
        let event = match trace {
            Some(ctx) => event.with_trace(ctx),
            None => event,
        };
        let bytes = event.encode().unwrap();
        let back = Event::decode(&bytes).unwrap();
        prop_assert_eq!(back, event);
    }

    #[test]
    fn traceless_events_encode_byte_identical_to_pre_trace_wire_format(
        event in event_strategy(),
        trace in trace_strategy(),
    ) {
        // The trace context is a purely additive wire extension: an event
        // without one must produce the exact byte sequence the pre-trace
        // codec produced. Pin that by encoding the same event with and
        // without a context — stripping the trace varints and flag bits
        // from the traced frame must reproduce the trace-less frame, i.e.
        // the trace adds bytes in exactly one documented place and leaves
        // no other residue.
        const FLAG_SOURCE: u8 = 0b01;
        const FLAG_SIZE: u8 = 0b10;
        const FLAG_TRACE_BITS: u8 = 0b1100;

        let plain = event.encode().unwrap();
        prop_assert_eq!(plain[2] & FLAG_TRACE_BITS, 0, "trace-less event set a trace flag");

        let traced = event.clone().with_trace(trace).encode().unwrap();
        // Walk the header: magic, kind, flags, then the name varint and the
        // optional source/size varints — the trace fields sit right after.
        let mut pos = 3;
        skip_varint(&traced, &mut pos); // name
        if traced[2] & FLAG_SOURCE != 0 {
            skip_varint(&traced, &mut pos);
        }
        if traced[2] & FLAG_SIZE != 0 {
            skip_varint(&traced, &mut pos);
        }
        let trace_start = pos;
        skip_varint(&traced, &mut pos); // trace_id
        skip_varint(&traced, &mut pos); // span_id
        if trace.parent_id.is_some() {
            skip_varint(&traced, &mut pos);
        }
        let mut stripped = traced.clone();
        stripped.drain(trace_start..pos);
        stripped[2] &= !FLAG_TRACE_BITS;
        prop_assert_eq!(stripped, plain);
    }

    #[test]
    fn event_size_is_positive_and_respects_override(event in event_strategy()) {
        prop_assert!(event.size() > 0 || event.size() == 0 && event.name().is_empty());
    }

    #[test]
    fn stability_gauge_accepts_constant_streams(
        value in -1e6f64..1e6,
        required in 1usize..6,
        extra in 0usize..5,
    ) {
        let mut g = StabilityGauge::new(0.01, required);
        for _ in 0..(required + 1 + extra) {
            g.push(value);
        }
        prop_assert!(g.is_stable());
    }

    #[test]
    fn stability_gauge_rejects_jumps_beyond_epsilon(
        base in 0.0f64..1.0,
        jump in 0.5f64..10.0,
        required in 1usize..5,
    ) {
        let mut g = StabilityGauge::new(0.1, required);
        for i in 0..(required + 1) {
            // Alternate around base with a jump much larger than ε.
            g.push(base + if i % 2 == 0 { 0.0 } else { jump });
        }
        prop_assert!(!g.is_stable());
    }

    #[test]
    fn relative_gauge_scales_with_magnitude(scale in 1.0f64..1e6) {
        // ±1% wiggle at any magnitude is stable for a 5% relative gauge…
        let mut g = StabilityGauge::new_relative(0.05, 2);
        for i in 0..4 {
            g.push(scale * (1.0 + 0.01 * (i % 2) as f64));
        }
        prop_assert!(g.is_stable());
        // …and ±20% wiggle never is.
        let mut g = StabilityGauge::new_relative(0.05, 2);
        for i in 0..4 {
            g.push(scale * (1.0 + 0.2 * (i % 2) as f64));
        }
        prop_assert!(!g.is_stable());
    }
}

proptest! {
    // Every prefix of every case is decoded — quadratic in the encoding's
    // length — so fewer cases than above.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn snapshots_round_trip_and_reject_damage(
        host in any::<u32>(),
        taken_at_secs in estimate_strategy(),
        components in proptest::collection::btree_map(name_strategy(), name_strategy(), 0..6),
        frequencies in proptest::collection::btree_map(
            (name_strategy(), name_strategy()),
            estimate_strategy(),
            0..300,
        ),
        sized in 0usize..4,
        lone_sizes in proptest::collection::btree_map(
            (name_strategy(), name_strategy()),
            estimate_strategy(),
            0..4,
        ),
        reliabilities in proptest::collection::btree_map(any::<u32>(), estimate_strategy(), 0..8),
    ) {
        let mut snapshot = MonitoringSnapshot {
            host: HostId::new(host),
            components,
            taken_at_secs,
            // Most, all or none of the pairs have a size; a few have only one.
            event_sizes: lone_sizes,
            reliabilities: reliabilities.into_iter().map(|(h, r)| (HostId::new(h), r)).collect(),
            ..MonitoringSnapshot::default()
        };
        for (i, (pair, freq)) in frequencies.iter().enumerate() {
            if i % 4 < sized {
                snapshot.event_sizes.insert(pair.clone(), freq * 0.5);
            }
        }
        snapshot.frequencies = frequencies;
        let bytes = snapshot.encode();
        let back = MonitoringSnapshot::decode(&bytes).unwrap();
        prop_assert_eq!(&back, &snapshot);
        // Bit-exact, signed zeros and all.
        prop_assert_eq!(back.encode(), bytes.clone());
        for cut in 0..bytes.len() {
            prop_assert!(MonitoringSnapshot::decode(&bytes[..cut]).is_err(), "prefix {}", cut);
        }
        let mut longer = bytes;
        longer.push(0);
        for extra in 0..=u8::MAX {
            *longer.last_mut().unwrap() = extra;
            prop_assert!(MonitoringSnapshot::decode(&longer).is_err(), "suffix {}", extra);
        }
    }
}
