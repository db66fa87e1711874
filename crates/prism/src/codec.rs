//! The wire codec for events, transport frames and monitoring snapshots.
//!
//! A compact length-prefixed little-endian binary format: symbol names
//! travel as LEB128 varint interner ids, parameter values as one tag byte
//! plus a raw value, payloads as varint-length raw bytes. Every encoding
//! starts with a magic byte; bytes that do not are rejected with a
//! [`PrismError::Codec`] naming the offending byte.
//!
//! Shipping interner ids works because the "wire" never leaves the process:
//! netsim simulates all hosts in one address space sharing one interner (see
//! [`crate::symbol`]). Ids do reach past the wire, though. The durable
//! journal's `Delivery` and `EventBuffered` records hold id-encoded events,
//! so a file-backed store replays only in the process that wrote it; and a
//! frame is charged its *encoded* length (`WireMsg::wire_size`), so the
//! varint width of an id shows in `prism.durable_bytes`, `prism.codec_bytes`
//! and, through transmit time, in the simulated clock. Runs repeat exactly
//! because they intern the same names in the same order — **interning order
//! is part of the determinism contract** until journaled events carry names
//! (see [`Symbol::intern`]). A monitoring snapshot outlives the process — it
//! is a report payload, a `ReportReceived` record and part of every
//! checkpoint — so it spells its names out and holds no id.
//!
//! # Binary layout
//!
//! Event (`0xE5` magic):
//!
//! ```text
//! [0xE5][kind u8][flags u8][name varint]
//!   [source varint  — iff flags bit0]
//!   [size varint    — iff flags bit1]
//!   [trace_id varint][span_id varint] — iff flags bit2
//!   [parent_id varint — iff flags bit3, only valid with bit2]
//! [param_count varint]
//!   repeat: [key varint][tag u8][value]
//!     tag 0/1 = bool false/true (no value bytes)
//!     tag 2   = int, zigzag varint
//!     tag 3   = float, 8 bytes f64 LE
//!     tag 4   = text, varint length + UTF-8 bytes
//! [payload_len varint][payload bytes]
//! ```
//!
//! Transport frame (`0xEB` magic): `[0xEB][variant u8]` then the variant's
//! fields in order, ids/seqs/nonces as varints, embedded frames as varint
//! length + bytes.
//!
//! Monitoring snapshot (`0xE6` magic; [`crate::MonitoringSnapshot`], names as
//! varint length + UTF-8 bytes, every float 8 bytes f64 LE):
//!
//! ```text
//! [0xE6][host varint][taken_at_secs f64]
//! [component_count varint]
//!   repeat: [name][type name]
//! repeat, in pair order, each pair once: [flags varint, 1..=3][a][b]
//!   [frequency f64  — iff flags bit0]
//!   [event size f64 — iff flags bit1]
//! [0]
//! [reliability_count varint]
//!   repeat: [peer varint][reliability f64]
//! ```

use crate::event::{Event, EventKind, ParamVec};
use crate::symbol::Symbol;
use crate::PrismError;
use redep_model::ParamValue;
use redep_telemetry::TraceCtx;

/// Leading byte of an encoded [`Event`].
const EVENT_MAGIC: u8 = 0xE5;

/// Leading byte of an encoded transport frame.
pub(crate) const WIRE_MAGIC: u8 = 0xEB;

/// Leading byte of an encoded [`crate::MonitoringSnapshot`].
pub(crate) const SNAPSHOT_MAGIC: u8 = 0xE6;

// --- varint primitives ---------------------------------------------------

pub(crate) fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

pub(crate) fn get_varint(bytes: &[u8], pos: &mut usize) -> Result<u64, PrismError> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let byte = *bytes
            .get(*pos)
            .ok_or_else(|| codec_err("truncated varint"))?;
        *pos += 1;
        if shift >= 64 {
            return Err(codec_err("varint overflow"));
        }
        v |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn put_symbol(out: &mut Vec<u8>, s: Symbol) {
    put_varint(out, u64::from(s.id()));
}

fn get_symbol(bytes: &[u8], pos: &mut usize) -> Result<Symbol, PrismError> {
    let id = get_varint(bytes, pos)?;
    let id = u32::try_from(id).map_err(|_| codec_err("symbol id out of range"))?;
    Symbol::from_id(id).ok_or_else(|| codec_err("unknown symbol id"))
}

pub(crate) fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_varint(out, b.len() as u64);
    out.extend_from_slice(b);
}

pub(crate) fn get_bytes<'a>(bytes: &'a [u8], pos: &mut usize) -> Result<&'a [u8], PrismError> {
    let len = get_varint(bytes, pos)? as usize;
    let end = pos
        .checked_add(len)
        .filter(|&e| e <= bytes.len())
        .ok_or_else(|| codec_err("truncated bytes"))?;
    let slice = &bytes[*pos..end];
    *pos = end;
    Ok(slice)
}

fn codec_err(msg: &str) -> PrismError {
    PrismError::Codec(msg.to_owned())
}

/// Consumes the leading magic byte of a `what` ("event" / "frame" /
/// "snapshot") encoding, naming whatever is there instead when it is missing.
pub(crate) fn expect_magic(bytes: &[u8], magic: u8, what: &str) -> Result<(), PrismError> {
    match bytes.first() {
        Some(&b) if b == magic => Ok(()),
        Some(&b) => Err(PrismError::Codec(format!(
            "not a wire {what}: leading byte {b:#04x}, expected magic {magic:#04x}"
        ))),
        None => Err(PrismError::Codec(format!(
            "not a wire {what}: empty input, expected magic {magic:#04x}"
        ))),
    }
}

// --- strings, floats, u32s and trace contexts ------------------------------

pub(crate) fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

pub(crate) fn get_str(bytes: &[u8], pos: &mut usize) -> Result<String, PrismError> {
    let b = get_bytes(bytes, pos)?;
    String::from_utf8(b.to_vec()).map_err(|_| codec_err("invalid utf-8"))
}

pub(crate) fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn get_f64(bytes: &[u8], pos: &mut usize) -> Result<f64, PrismError> {
    let raw = pos
        .checked_add(8)
        .and_then(|end| bytes.get(*pos..end))
        .ok_or_else(|| codec_err("truncated f64"))?;
    *pos += 8;
    Ok(f64::from_le_bytes(raw.try_into().expect("8 bytes")))
}

pub(crate) fn get_u32(bytes: &[u8], pos: &mut usize) -> Result<u32, PrismError> {
    u32::try_from(get_varint(bytes, pos)?).map_err(|_| codec_err("value out of u32 range"))
}

/// Writes an optional [`TraceCtx`]: a presence byte (0 none, 1 root, 2 with
/// parent) and then the ids.
pub(crate) fn put_ctx(out: &mut Vec<u8>, ctx: Option<TraceCtx>) {
    let Some(ctx) = ctx else {
        return put_varint(out, 0);
    };
    put_varint(out, 1 + u64::from(ctx.parent_id.is_some()));
    put_varint(out, ctx.trace_id);
    put_varint(out, ctx.span_id);
    if let Some(parent) = ctx.parent_id {
        put_varint(out, parent);
    }
}

pub(crate) fn get_ctx(bytes: &[u8], pos: &mut usize) -> Result<Option<TraceCtx>, PrismError> {
    let presence = get_varint(bytes, pos)?;
    if presence == 0 {
        return Ok(None);
    }
    if presence > 2 {
        return Err(PrismError::Codec(format!("bad trace presence {presence}")));
    }
    Ok(Some(TraceCtx {
        trace_id: get_varint(bytes, pos)?,
        span_id: get_varint(bytes, pos)?,
        parent_id: (presence == 2)
            .then(|| get_varint(bytes, pos))
            .transpose()?,
    }))
}

// --- event codec ---------------------------------------------------------

const TAG_FALSE: u8 = 0;
const TAG_TRUE: u8 = 1;
const TAG_INT: u8 = 2;
const TAG_FLOAT: u8 = 3;
const TAG_TEXT: u8 = 4;

const FLAG_SOURCE: u8 = 0b01;
const FLAG_SIZE: u8 = 0b10;
/// Event carries a `TraceCtx` (`trace_id` + `span_id` varints follow the
/// optional size field). Events without one keep a pre-trace flags byte and
/// encode byte-identically to the pre-trace wire format.
const FLAG_TRACE: u8 = 0b100;
/// Only ever set together with [`FLAG_TRACE`]: a `parent_id` varint follows
/// the span id.
const FLAG_TRACE_PARENT: u8 = 0b1000;

/// Encodes an event (layout in the module docs). The buffer is sized for
/// the fixed fields (~10 bytes), 16 bytes per parameter, the payload — and
/// the frame header [`encode_wire`] writes into the same buffer, so a frame
/// that carries a 4 KB report does not double its buffer to fit 8 more bytes.
pub(crate) fn encode_event(e: &Event) -> Vec<u8> {
    let mut out = Vec::with_capacity(24 + 16 * e.params.len() + e.payload.len());
    encode_event_into(e, &mut out);
    out
}

/// Appends the encoding of an event to `out` (the journaling path reuses
/// one buffer across events).
pub(crate) fn encode_event_into(e: &Event, out: &mut Vec<u8>) {
    out.push(EVENT_MAGIC);
    out.push(match e.kind {
        EventKind::Request => 0,
        EventKind::Reply => 1,
        EventKind::Notification => 2,
    });
    let mut flags = 0u8;
    if e.source.is_some() {
        flags |= FLAG_SOURCE;
    }
    if e.size.is_some() {
        flags |= FLAG_SIZE;
    }
    if let Some(trace) = e.trace {
        flags |= FLAG_TRACE;
        if trace.parent_id.is_some() {
            flags |= FLAG_TRACE_PARENT;
        }
    }
    out.push(flags);
    put_symbol(out, e.name);
    if let Some(src) = e.source {
        put_symbol(out, src);
    }
    if let Some(size) = e.size {
        put_varint(out, size);
    }
    if let Some(trace) = e.trace {
        put_varint(out, trace.trace_id);
        put_varint(out, trace.span_id);
        if let Some(parent) = trace.parent_id {
            put_varint(out, parent);
        }
    }
    put_varint(out, e.params.len() as u64);
    for (k, v) in e.params.iter() {
        put_symbol(out, *k);
        match v {
            ParamValue::Bool(false) => out.push(TAG_FALSE),
            ParamValue::Bool(true) => out.push(TAG_TRUE),
            ParamValue::Int(i) => {
                out.push(TAG_INT);
                put_varint(out, zigzag(*i));
            }
            ParamValue::Float(f) => {
                out.push(TAG_FLOAT);
                put_f64(out, *f);
            }
            ParamValue::Text(s) => {
                out.push(TAG_TEXT);
                put_str(out, s);
            }
        }
    }
    put_bytes(out, &e.payload);
}

/// Decodes an event, rejecting foreign bytes and trailing garbage.
pub(crate) fn decode_event(bytes: &[u8]) -> Result<Event, PrismError> {
    expect_magic(bytes, EVENT_MAGIC, "event")?;
    let mut pos = 1usize;
    let kind = match bytes.get(pos) {
        Some(0) => EventKind::Request,
        Some(1) => EventKind::Reply,
        Some(2) => EventKind::Notification,
        _ => return Err(codec_err("bad event kind")),
    };
    pos += 1;
    let flags = *bytes.get(pos).ok_or_else(|| codec_err("truncated event"))?;
    pos += 1;
    let name = get_symbol(bytes, &mut pos)?;
    let source = if flags & FLAG_SOURCE != 0 {
        Some(get_symbol(bytes, &mut pos)?)
    } else {
        None
    };
    let size = if flags & FLAG_SIZE != 0 {
        Some(get_varint(bytes, &mut pos)?)
    } else {
        None
    };
    if flags & FLAG_TRACE_PARENT != 0 && flags & FLAG_TRACE == 0 {
        return Err(codec_err("trace parent flag without trace flag"));
    }
    let trace = if flags & FLAG_TRACE != 0 {
        let trace_id = get_varint(bytes, &mut pos)?;
        let span_id = get_varint(bytes, &mut pos)?;
        let parent_id = if flags & FLAG_TRACE_PARENT != 0 {
            Some(get_varint(bytes, &mut pos)?)
        } else {
            None
        };
        Some(TraceCtx {
            trace_id,
            span_id,
            parent_id,
        })
    } else {
        None
    };
    let count = get_varint(bytes, &mut pos)? as usize;
    let mut params = ParamVec::new();
    for _ in 0..count {
        let key = get_symbol(bytes, &mut pos)?;
        let tag = *bytes.get(pos).ok_or_else(|| codec_err("truncated param"))?;
        pos += 1;
        let value = match tag {
            TAG_FALSE => ParamValue::Bool(false),
            TAG_TRUE => ParamValue::Bool(true),
            TAG_INT => ParamValue::Int(unzigzag(get_varint(bytes, &mut pos)?)),
            TAG_FLOAT => {
                let end = pos + 8;
                let raw = bytes
                    .get(pos..end)
                    .ok_or_else(|| codec_err("truncated float"))?;
                pos = end;
                ParamValue::Float(f64::from_le_bytes(raw.try_into().expect("8-byte slice")))
            }
            TAG_TEXT => {
                let raw = get_bytes(bytes, &mut pos)?;
                ParamValue::Text(
                    std::str::from_utf8(raw)
                        .map_err(|_| codec_err("param text not utf-8"))?
                        .to_owned(),
                )
            }
            _ => return Err(codec_err("bad param tag")),
        };
        params.insert(key, value);
    }
    let payload = get_bytes(bytes, &mut pos)?.to_vec();
    if pos != bytes.len() {
        return Err(codec_err("trailing bytes after event"));
    }
    Ok(Event {
        name,
        kind,
        params,
        payload,
        source,
        size,
        trace,
    })
}

// --- transport frame codec -----------------------------------------------

use crate::transport::WireMsg;
use redep_model::HostId;

const WIRE_FORWARD: u8 = 0;
const WIRE_RAW: u8 = 1;
const WIRE_SEQ: u8 = 2;
const WIRE_ACK: u8 = 3;
const WIRE_PING: u8 = 4;
const WIRE_PONG: u8 = 5;

/// Encodes a transport frame (layout in the module docs). Consumes it: a
/// frame's body (embedded event or frame) is its last field, so the header
/// is written behind the body in the body's own buffer and rotated to the
/// front — the mirror of [`decode_wire`], and no second allocation while the
/// buffer has a header's worth of spare capacity ([`encode_event`] leaves it).
pub(crate) fn encode_wire(mut m: WireMsg) -> Vec<u8> {
    let (mut out, variant) = match &mut m {
        WireMsg::Forward { frame, .. } => (std::mem::take(frame), WIRE_FORWARD),
        WireMsg::Raw { event, .. } => (std::mem::take(event), WIRE_RAW),
        WireMsg::Seq { event, .. } => (std::mem::take(event), WIRE_SEQ),
        WireMsg::Ack { .. } => (Vec::with_capacity(12), WIRE_ACK),
        WireMsg::Ping { .. } => (Vec::with_capacity(12), WIRE_PING),
        WireMsg::Pong { .. } => (Vec::with_capacity(12), WIRE_PONG),
    };
    let body = out.len();
    out.push(WIRE_MAGIC);
    out.push(variant);
    match m {
        WireMsg::Forward { src, dst, .. } => {
            put_varint(&mut out, u64::from(src.raw()));
            put_varint(&mut out, u64::from(dst.raw()));
        }
        WireMsg::Raw { to_component, .. } => put_symbol(&mut out, to_component),
        WireMsg::Seq {
            seq, to_component, ..
        } => {
            put_varint(&mut out, seq);
            put_symbol(&mut out, to_component);
        }
        WireMsg::Ack { seq: n } | WireMsg::Ping { nonce: n } | WireMsg::Pong { nonce: n } => {
            put_varint(&mut out, n);
            return out;
        }
    }
    put_varint(&mut out, body as u64);
    out.rotate_left(body);
    out
}

/// The wire bytes of an unreliable application frame carrying `event` (an
/// [`Event::encode`] result) to `to_component`. Hosts build their frames
/// internally; this is for harnesses that put a *stray* frame on a link
/// (`Simulator::inject`) — one no host would emit, such as traffic for a
/// component that has moved away or not arrived yet.
pub fn encode_raw_frame(to_component: Symbol, event: Vec<u8>) -> Vec<u8> {
    encode_wire(WireMsg::Raw {
        to_component,
        event,
    })
}

/// A frame's body (embedded event or frame): its last field, length-prefixed
/// at `pos`. The received buffer itself, header dropped, becomes the body —
/// no second allocation per received frame.
fn into_body(mut bytes: Vec<u8>, mut pos: usize) -> Result<Vec<u8>, PrismError> {
    let len = get_bytes(&bytes, &mut pos)?.len();
    if pos != bytes.len() {
        return Err(codec_err("trailing bytes after frame"));
    }
    bytes.drain(..pos - len);
    Ok(bytes)
}

/// Decodes a transport frame, rejecting foreign bytes and trailing garbage.
pub(crate) fn decode_wire(bytes: Vec<u8>) -> Result<WireMsg, PrismError> {
    expect_magic(&bytes, WIRE_MAGIC, "frame")?;
    let mut pos = 1usize;
    let variant = *bytes.get(pos).ok_or_else(|| codec_err("truncated frame"))?;
    pos += 1;
    let msg = match variant {
        WIRE_FORWARD => {
            let src = get_host(&bytes, &mut pos)?;
            let dst = get_host(&bytes, &mut pos)?;
            let frame = into_body(bytes, pos)?;
            return Ok(WireMsg::Forward { src, dst, frame });
        }
        WIRE_RAW => {
            let to_component = get_symbol(&bytes, &mut pos)?;
            let event = into_body(bytes, pos)?;
            return Ok(WireMsg::Raw {
                to_component,
                event,
            });
        }
        WIRE_SEQ => {
            let seq = get_varint(&bytes, &mut pos)?;
            let to_component = get_symbol(&bytes, &mut pos)?;
            let event = into_body(bytes, pos)?;
            return Ok(WireMsg::Seq {
                seq,
                to_component,
                event,
            });
        }
        WIRE_ACK => WireMsg::Ack {
            seq: get_varint(&bytes, &mut pos)?,
        },
        WIRE_PING => WireMsg::Ping {
            nonce: get_varint(&bytes, &mut pos)?,
        },
        WIRE_PONG => WireMsg::Pong {
            nonce: get_varint(&bytes, &mut pos)?,
        },
        _ => return Err(codec_err("bad wire variant")),
    };
    if pos != bytes.len() {
        return Err(codec_err("trailing bytes after frame"));
    }
    Ok(msg)
}

fn get_host(bytes: &[u8], pos: &mut usize) -> Result<HostId, PrismError> {
    let raw = get_varint(bytes, pos)?;
    let raw = u32::try_from(raw).map_err(|_| codec_err("host id out of range"))?;
    Ok(HostId::new(raw))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrip_boundaries() {
        for v in [0u64, 1, 127, 128, 300, u64::from(u32::MAX), u64::MAX] {
            let mut out = Vec::new();
            put_varint(&mut out, v);
            let mut pos = 0;
            assert_eq!(get_varint(&out, &mut pos).unwrap(), v);
            assert_eq!(pos, out.len());
        }
    }

    #[test]
    fn zigzag_roundtrip_extremes() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn event_roundtrip_all_param_kinds() {
        let mut e = Event::request("codec.test")
            .with_param("b0", false)
            .with_param("b1", true)
            .with_param("i", -42i64)
            .with_param("f", 2.5)
            .with_param("t", "hello")
            .with_payload(vec![0, 255, 7])
            .with_size(1234);
        e.set_source("codec-src");
        let bytes = encode_event(&e);
        assert_eq!(bytes[0], EVENT_MAGIC);
        assert_eq!(decode_event(&bytes).unwrap(), e);
    }

    #[test]
    fn decode_rejects_truncation_and_trailing_garbage() {
        let e = Event::notification("codec.trunc").with_param("k", 7i64);
        let bytes = encode_event(&e);
        for cut in 0..bytes.len() {
            assert!(decode_event(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(decode_event(&padded).is_err());
    }

    #[test]
    fn event_roundtrip_with_trace_ctx() {
        use redep_telemetry::TraceCtx;
        let root =
            Event::notification("codec.trace").with_trace(TraceCtx::root(0x0300_0001_0000_0001));
        let bytes = encode_event(&root);
        assert_eq!(decode_event(&bytes).unwrap(), root);
        let child = Event::request("codec.trace.child").with_trace(TraceCtx {
            trace_id: 5,
            span_id: 9,
            parent_id: Some(5),
        });
        let bytes = encode_event(&child);
        assert_eq!(decode_event(&bytes).unwrap(), child);
        for cut in 0..bytes.len() {
            assert!(decode_event(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn trace_parent_flag_requires_trace_flag() {
        let e = Event::notification("codec.badflags");
        let mut bytes = encode_event(&e);
        bytes[2] = 0b1000; // parent without trace
        assert!(decode_event(&bytes).is_err());
    }

    #[test]
    fn traceless_event_flags_byte_stays_pre_trace() {
        let e = Event::notification("codec.noflags");
        let bytes = encode_event(&e);
        assert_eq!(bytes[2] & (FLAG_TRACE | FLAG_TRACE_PARENT), 0);
    }

    #[test]
    fn decode_rejects_unknown_symbol_id() {
        let mut out = vec![EVENT_MAGIC, 2, 0];
        put_varint(&mut out, u64::from(u32::MAX)); // never interned
        put_varint(&mut out, 0);
        put_varint(&mut out, 0);
        assert!(decode_event(&out).is_err());
    }

    #[test]
    fn wire_roundtrip_all_variants() {
        let frames = [
            WireMsg::Forward {
                src: HostId::new(1),
                dst: HostId::new(300),
                frame: vec![1, 2, 3],
            },
            WireMsg::Raw {
                to_component: Symbol::intern("wire-raw-dst"),
                event: vec![9; 40],
            },
            WireMsg::Seq {
                seq: 129,
                to_component: Symbol::intern("wire-seq-dst"),
                event: Vec::new(),
            },
            WireMsg::Ack { seq: u64::MAX },
            WireMsg::Ping { nonce: 7 },
            WireMsg::Pong { nonce: 8 },
        ];
        for m in frames {
            let bytes = encode_wire(m.clone());
            assert_eq!(bytes[0], WIRE_MAGIC);
            assert_eq!(decode_wire(bytes.clone()).unwrap(), m);
            let mut padded = bytes.clone();
            padded.push(1);
            assert!(decode_wire(padded).is_err());
        }
    }

    /// The `Codec` message a decoder produced for `bytes`.
    fn codec_message<T: std::fmt::Debug>(result: Result<T, PrismError>) -> String {
        match result {
            Err(PrismError::Codec(msg)) => msg,
            other => panic!("expected a codec error, got {other:?}"),
        }
    }

    #[test]
    fn foreign_bytes_are_rejected_naming_the_offending_byte() {
        // Empty input.
        assert!(codec_message(decode_event(&[])).contains("empty input"));
        assert!(codec_message(decode_wire(vec![])).contains("empty input"));
        // A JSON document (`{` = 0x7b): no magic, no sniffing.
        let json = br#"{"name":"n","kind":"Notification","params":{}}"#;
        assert!(codec_message(decode_event(json)).contains("0x7b"));
        assert!(codec_message(decode_wire(json.to_vec())).contains("0x7b"));
        // The other decoder's magic is foreign too.
        assert!(codec_message(decode_event(&[WIRE_MAGIC, 3, 0])).contains("0xeb"));
        assert!(codec_message(decode_wire(vec![EVENT_MAGIC, 2, 0])).contains("0xe5"));
    }

    #[test]
    fn input_truncated_right_after_the_magic_is_rejected() {
        assert!(codec_message(decode_event(&[EVENT_MAGIC])).contains("event kind"));
        assert!(codec_message(decode_wire(vec![WIRE_MAGIC])).contains("truncated"));
    }
}
