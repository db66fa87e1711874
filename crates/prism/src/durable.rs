//! Per-host durability: a write-ahead journal plus periodic checkpoints, so
//! a crashed host restarts by *replay* instead of from nothing — and can say
//! exactly which in-flight operations completed.
//!
//! # Store layout
//!
//! A [`DurableStore`] owns two byte streams behind a backend: in memory for
//! the simulator, or two files per host ([`DurableStore::file_backed`]).
//! Both hold [`JournalRecord`]s in one framing: a LEB128 length prefix
//! followed by the record body (the same varint primitives as the wire codec
//! in [`crate::codec`]).
//!
//! * The **journal** is append-only: one record per durable mutation.
//! * The **checkpoint** is a *compacted journal*: the records that rebuild
//!   the host's current state on a wiped host. [`DurableStore::checkpoint`]
//!   replaces it atomically and truncates the journal. The stream starts
//!   with a magic, a version and the checkpoint's sequence number, and ends
//!   with an FNV-1a checksum of everything before it.
//!
//! A journal record costs what changed, not what exists (monitoring
//! snapshots enter one [`JournalRecord::ReportReceived`] delta at a time);
//! [`DurableStore::stats_by_kind`] says where a journal's bytes went. Two
//! kinds, [`JournalRecord::ChannelState`] and [`JournalRecord::TimerCursor`],
//! occur only in checkpoints: the journal moves that state one
//! `ChannelSend` or `TimerArmed` at a time.
//!
//! Recovery ([`DurableStore::recover`]) takes the checkpoint whole or not at
//! all: a stream that is cut short or corrupt fails its checksum and is
//! ignored. It then decodes journal records until the bytes run out *or a
//! record is torn* — a partial final record (a crash mid-append) decodes as
//! a truncated varint or truncated byte slice, and recovery simply stops
//! there: everything before the torn record is replayed, the tail is ignored
//! and its length reported. The host applies both lists through one replay
//! loop, the checkpoint's records first.
//!
//! # Determinism rules
//!
//! The default backend is in-memory and the store is driven only by the
//! deterministic simulation, so **two identical runs produce byte-identical
//! checkpoint and journal streams** ([`DurableStore::digest`] is the
//! equality witness the fault campaign checks). Nothing in this module reads
//! clocks, RNGs, or iteration orders that are not already deterministic
//! (`BTreeMap` everywhere in the host state it serializes).
//!
//! # Detectable recovery
//!
//! In the memento style, recovery does not merely restore state — it reports
//! a verdict for every operation that was in flight at the crash:
//! [`OpVerdict`] says whether a migration move, a buffered event, or the
//! open monitoring window completed, and [`RecoveryReport`] carries the
//! verdict set plus a self-check (`state_equiv`) that the replayed state is
//! identical to the state the host actually held at the crash instant.

use crate::codec::{get_bytes, get_str, get_u32, get_varint, put_bytes, put_str, put_varint};
use crate::error::PrismError;
use redep_model::HostId;
use redep_netsim::SimTime;

/// One durable mutation of host state, appended to the write-ahead journal
/// *after* the in-memory effect is applied (the journal is a redo log; every
/// record is idempotent to re-apply on a freshly wiped host).
///
/// Generic over how names (`S`) and byte strings (`B`) are held: recovery
/// decodes owned records (the defaults); the append path builds
/// [`RecordRef`]s borrowing what the caller already holds.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum JournalRecord<S = String, B = Vec<u8>> {
    /// An application event was published into a local component. Replay
    /// re-publishes it and pumps the architecture; the internal emission
    /// cascade re-runs deterministically.
    Delivery {
        /// Target component instance name.
        component: S,
        /// The encoded [`Event`](crate::Event).
        event: B,
    },
    /// A component timer with this id fired (and was consumed).
    TimerFired {
        /// The host-level timer id (`TOKEN_COMPONENT_BASE + n`).
        id: u64,
    },
    /// A component armed a timer: id → (component, component-level token).
    TimerArmed {
        /// The host-level timer id.
        id: u64,
        /// Component instance name the timer belongs to.
        component: S,
        /// The component-level token to deliver when it fires.
        token: u64,
    },
    /// One directory entry was written (component → host).
    DirectorySet {
        /// Component instance name.
        component: S,
        /// Raw id of the host now holding it.
        host: u32,
    },
    /// The whole directory was replaced.
    DirectoryReplaced {
        /// The full new mapping (component name, raw host id).
        directory: Vec<(S, u32)>,
    },
    /// An event was parked for a component that is absent (mid-migration).
    EventBuffered {
        /// Component the event waits for.
        component: S,
        /// The encoded [`Event`](crate::Event).
        event: B,
    },
    /// A component's parked events were all drained (replayed on arrival).
    BufferDrained {
        /// Component whose buffer emptied.
        component: S,
    },
    /// A reliable-channel send to this peer consumed a sequence number.
    /// Replay restores the sender-side `next_seq` exactly, so a recovered
    /// host never reuses a sequence number its peer has already seen (which
    /// the receiver's dedup watermark would silently swallow — a deadlock).
    ChannelSend {
        /// Raw id of the peer host.
        peer: u32,
    },
    /// A migrant component landed here: the transfer was applied and acked.
    /// Its presence in the journal tail is the *completed* verdict for that
    /// migration move.
    ComponentAttached {
        /// Component instance name.
        name: S,
        /// Factory type name used to rebuild it.
        type_name: S,
        /// Serialized component state.
        state: B,
    },
    /// A component was detached and shipped away.
    ComponentDetached {
        /// Component instance name.
        name: S,
    },
    /// A monitoring window closed; carries the admin component's durable
    /// state as of the close. The window *in flight* at a crash has no such
    /// record — its counts are lost by design, which is exactly what the
    /// `MonitorWindow` not-completed verdict reports.
    MonitorWindow {
        /// Serialized admin durable state (see `AdminComponent`).
        admin: B,
    },
    /// The deployer's epoch state (epoch, progress counters, target
    /// directory, move sources, pending and failed moves) after a transition
    /// that changed it: an epoch opened, a move confirmed, retried, failed
    /// or abandoned. Monitoring snapshots are *not* in here — each arrives
    /// as its own [`JournalRecord::ReportReceived`] delta.
    DeployerState {
        /// Serialized deployer epoch state (see `DeployerComponent`).
        blob: B,
    },
    /// The deployer accepted one monitoring report. Replay decodes the
    /// payload and inserts that one snapshot, exactly as the live handler
    /// did.
    ReportReceived {
        /// The report event's payload: one encoded `MonitoringSnapshot`,
        /// byte for byte as it arrived.
        payload: B,
    },
    /// A reliable channel's sequence state (checkpoints only).
    ///
    /// In-flight (unacked) frames are *not* persisted: the peer's
    /// retransmission sweep, the NACK path, and the deployer's holder
    /// re-resolution recover anything that mattered — that loss is exactly
    /// what the not-completed verdicts make visible.
    ChannelState {
        /// Raw id of the peer host.
        peer: u32,
        /// The sender side's next sequence number.
        next_seq: u64,
        /// The receiver side's next expected sequence number.
        next_expected: u64,
    },
    /// The next component-timer ordinal (checkpoints only), so a recovered
    /// host never reuses the id of a timer that already fired.
    TimerCursor {
        /// The ordinal the next armed timer takes.
        next: u64,
    },
}

/// A [`JournalRecord`] that borrows its names and bytes.
pub type RecordRef<'a> = JournalRecord<&'a str, &'a [u8]>;

const TAG_DELIVERY: u64 = 0;
const TAG_TIMER_FIRED: u64 = 1;
const TAG_TIMER_ARMED: u64 = 2;
const TAG_DIRECTORY_SET: u64 = 3;
const TAG_DIRECTORY_REPLACED: u64 = 4;
const TAG_EVENT_BUFFERED: u64 = 5;
const TAG_BUFFER_DRAINED: u64 = 6;
const TAG_CHANNEL_SEND: u64 = 7;
const TAG_COMPONENT_ATTACHED: u64 = 8;
const TAG_COMPONENT_DETACHED: u64 = 9;
const TAG_MONITOR_WINDOW: u64 = 10;
const TAG_DEPLOYER_STATE: u64 = 11;
const TAG_REPORT_RECEIVED: u64 = 12;
const TAG_CHANNEL_STATE: u64 = 13;
const TAG_TIMER_CURSOR: u64 = 14;

/// Stable lower-case label of every record kind, indexed by wire tag (the
/// `<kind>` of the `prism.h<id>.durable.{records,bytes}.<kind>` gauges).
pub const RECORD_KINDS: [&str; 15] = [
    "delivery",
    "timer_fired",
    "timer_armed",
    "directory_set",
    "directory_replaced",
    "event_buffered",
    "buffer_drained",
    "channel_send",
    "component_attached",
    "component_detached",
    "monitor_window",
    "deployer_state",
    "report_received",
    "channel_state",
    "timer_cursor",
];

impl<S: AsRef<str>, B: AsRef<[u8]>> JournalRecord<S, B> {
    /// The record's wire tag, which is also its index in [`RECORD_KINDS`].
    fn tag(&self) -> u64 {
        match self {
            JournalRecord::Delivery { .. } => TAG_DELIVERY,
            JournalRecord::TimerFired { .. } => TAG_TIMER_FIRED,
            JournalRecord::TimerArmed { .. } => TAG_TIMER_ARMED,
            JournalRecord::DirectorySet { .. } => TAG_DIRECTORY_SET,
            JournalRecord::DirectoryReplaced { .. } => TAG_DIRECTORY_REPLACED,
            JournalRecord::EventBuffered { .. } => TAG_EVENT_BUFFERED,
            JournalRecord::BufferDrained { .. } => TAG_BUFFER_DRAINED,
            JournalRecord::ChannelSend { .. } => TAG_CHANNEL_SEND,
            JournalRecord::ComponentAttached { .. } => TAG_COMPONENT_ATTACHED,
            JournalRecord::ComponentDetached { .. } => TAG_COMPONENT_DETACHED,
            JournalRecord::MonitorWindow { .. } => TAG_MONITOR_WINDOW,
            JournalRecord::DeployerState { .. } => TAG_DEPLOYER_STATE,
            JournalRecord::ReportReceived { .. } => TAG_REPORT_RECEIVED,
            JournalRecord::ChannelState { .. } => TAG_CHANNEL_STATE,
            JournalRecord::TimerCursor { .. } => TAG_TIMER_CURSOR,
        }
    }

    /// Encodes the record body (tag + fields) into `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        put_varint(out, self.tag());
        match self {
            JournalRecord::Delivery { component, event }
            | JournalRecord::EventBuffered { component, event } => {
                put_str(out, component.as_ref());
                put_bytes(out, event.as_ref());
            }
            JournalRecord::TimerFired { id } | JournalRecord::TimerCursor { next: id } => {
                put_varint(out, *id);
            }
            JournalRecord::TimerArmed {
                id,
                component,
                token,
            } => {
                put_varint(out, *id);
                put_str(out, component.as_ref());
                put_varint(out, *token);
            }
            JournalRecord::DirectorySet { component, host } => {
                put_str(out, component.as_ref());
                put_varint(out, u64::from(*host));
            }
            JournalRecord::DirectoryReplaced { directory } => {
                put_varint(out, directory.len() as u64);
                for (component, host) in directory {
                    put_str(out, component.as_ref());
                    put_varint(out, u64::from(*host));
                }
            }
            JournalRecord::BufferDrained { component } => put_str(out, component.as_ref()),
            JournalRecord::ChannelSend { peer } => put_varint(out, u64::from(*peer)),
            JournalRecord::ComponentAttached {
                name,
                type_name,
                state,
            } => {
                put_str(out, name.as_ref());
                put_str(out, type_name.as_ref());
                put_bytes(out, state.as_ref());
            }
            JournalRecord::ComponentDetached { name } => put_str(out, name.as_ref()),
            JournalRecord::MonitorWindow { admin: bytes }
            | JournalRecord::DeployerState { blob: bytes }
            | JournalRecord::ReportReceived { payload: bytes } => {
                put_bytes(out, bytes.as_ref());
            }
            JournalRecord::ChannelState {
                peer,
                next_seq,
                next_expected,
            } => {
                put_varint(out, u64::from(*peer));
                put_varint(out, *next_seq);
                put_varint(out, *next_expected);
            }
        }
    }
}

impl JournalRecord {
    /// Decodes one record body.
    ///
    /// # Errors
    ///
    /// Returns [`PrismError::Codec`] on a truncated or unknown record.
    pub fn decode(bytes: &[u8], pos: &mut usize) -> Result<Self, PrismError> {
        let tag = get_varint(bytes, pos)?;
        let rec = match tag {
            TAG_DELIVERY => JournalRecord::Delivery {
                component: get_str(bytes, pos)?,
                event: get_bytes(bytes, pos)?.to_vec(),
            },
            TAG_TIMER_FIRED => JournalRecord::TimerFired {
                id: get_varint(bytes, pos)?,
            },
            TAG_TIMER_ARMED => JournalRecord::TimerArmed {
                id: get_varint(bytes, pos)?,
                component: get_str(bytes, pos)?,
                token: get_varint(bytes, pos)?,
            },
            TAG_DIRECTORY_SET => JournalRecord::DirectorySet {
                component: get_str(bytes, pos)?,
                host: get_u32(bytes, pos)?,
            },
            TAG_DIRECTORY_REPLACED => {
                let n = get_varint(bytes, pos)? as usize;
                let mut directory = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    directory.push((get_str(bytes, pos)?, get_u32(bytes, pos)?));
                }
                JournalRecord::DirectoryReplaced { directory }
            }
            TAG_EVENT_BUFFERED => JournalRecord::EventBuffered {
                component: get_str(bytes, pos)?,
                event: get_bytes(bytes, pos)?.to_vec(),
            },
            TAG_BUFFER_DRAINED => JournalRecord::BufferDrained {
                component: get_str(bytes, pos)?,
            },
            TAG_CHANNEL_SEND => JournalRecord::ChannelSend {
                peer: get_u32(bytes, pos)?,
            },
            TAG_COMPONENT_ATTACHED => JournalRecord::ComponentAttached {
                name: get_str(bytes, pos)?,
                type_name: get_str(bytes, pos)?,
                state: get_bytes(bytes, pos)?.to_vec(),
            },
            TAG_COMPONENT_DETACHED => JournalRecord::ComponentDetached {
                name: get_str(bytes, pos)?,
            },
            TAG_MONITOR_WINDOW => JournalRecord::MonitorWindow {
                admin: get_bytes(bytes, pos)?.to_vec(),
            },
            TAG_DEPLOYER_STATE => JournalRecord::DeployerState {
                blob: get_bytes(bytes, pos)?.to_vec(),
            },
            TAG_REPORT_RECEIVED => JournalRecord::ReportReceived {
                payload: get_bytes(bytes, pos)?.to_vec(),
            },
            TAG_CHANNEL_STATE => JournalRecord::ChannelState {
                peer: get_u32(bytes, pos)?,
                next_seq: get_varint(bytes, pos)?,
                next_expected: get_varint(bytes, pos)?,
            },
            TAG_TIMER_CURSOR => JournalRecord::TimerCursor {
                next: get_varint(bytes, pos)?,
            },
            other => {
                return Err(PrismError::Codec(format!("unknown journal tag {other}")));
            }
        };
        Ok(rec)
    }
}

/// Magic prefix of a checkpoint stream.
const CKPT_MAGIC: &[u8; 4] = b"RDCP";
/// Checkpoint stream version (3: framed [`JournalRecord`]s under a
/// checksum).
const CKPT_VERSION: u64 = 3;

/// FNV-1a, 64 bit: the checkpoint stream's checksum.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Decodes framed records until the bytes run out or a frame does not
/// decode; returns the records and the number of bytes left undecoded.
fn decode_frames(bytes: &[u8]) -> (Vec<JournalRecord>, usize) {
    let mut records = Vec::new();
    let mut pos = 0usize;
    while pos < bytes.len() {
        let start = pos;
        match get_bytes(bytes, &mut pos).and_then(|body| JournalRecord::decode(body, &mut 0)) {
            Ok(record) => records.push(record),
            Err(_) => return (records, bytes.len() - start),
        }
    }
    (records, 0)
}

/// Decodes a checkpoint stream into its sequence number and records; `None`
/// unless the stream decodes whole under an intact checksum.
fn decode_checkpoint(bytes: &[u8]) -> Option<(u64, Vec<JournalRecord>)> {
    let (stream, sum) = bytes.split_at(bytes.len().checked_sub(8)?);
    let body = stream.strip_prefix(CKPT_MAGIC)?;
    if fnv1a(stream).to_le_bytes() != sum {
        return None;
    }
    let pos = &mut 0usize;
    if get_varint(body, pos).ok()? != CKPT_VERSION {
        return None;
    }
    let seq = get_varint(body, pos).ok()?;
    let (records, undecoded) = decode_frames(&body[*pos..]);
    (undecoded == 0).then_some((seq, records))
}

/// Some of a host's checkpoint parts as one value — what the `benchmark/`
/// harness builds to time [`DurableStore::checkpoint`] without a host. It
/// has no encoding of its own: the store writes the records it lists, as a
/// host checkpoint would hold them. `seq` and `at_us` are ignored (the store
/// numbers checkpoints itself).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Checkpoint {
    /// Ignored.
    pub seq: u64,
    /// Ignored.
    pub at_us: u64,
    /// Attached components: (instance name, type name, state).
    pub components: Vec<(String, String, Vec<u8>)>,
    /// The component directory: (component name, raw host id).
    pub directory: Vec<(String, u32)>,
    /// Reliable-channel state: (raw peer id, `next_seq`, `next_expected`).
    pub channels: Vec<(u32, u64, u64)>,
}

impl<'a> IntoIterator for &'a Checkpoint {
    type Item = RecordRef<'a>;
    type IntoIter = std::vec::IntoIter<RecordRef<'a>>;

    fn into_iter(self) -> Self::IntoIter {
        let mut records = Vec::new();
        for (name, type_name, state) in &self.components {
            records.push(JournalRecord::ComponentAttached {
                name: name.as_str(),
                type_name: type_name.as_str(),
                state: state.as_slice(),
            });
        }
        let directory = self.directory.iter().map(|(c, h)| (c.as_str(), *h));
        let directory = directory.collect();
        records.push(JournalRecord::DirectoryReplaced { directory });
        for &(peer, next_seq, next_expected) in &self.channels {
            records.push(JournalRecord::ChannelState {
                peer,
                next_seq,
                next_expected,
            });
        }
        records.into_iter()
    }
}

/// Where checkpoint and journal bytes physically live.
///
/// The simulator uses the deterministic in-memory backend; real deployments
/// can use the file-backed one.
trait DurableBackend: Send {
    /// Atomically replaces the checkpoint and truncates the journal.
    fn write_checkpoint(&mut self, bytes: &[u8]);
    /// Appends one framed record to the journal.
    fn append(&mut self, bytes: &[u8]);
    /// The current checkpoint bytes, if a checkpoint was ever written.
    fn read_checkpoint(&self) -> Option<Vec<u8>>;
    /// The journal bytes appended since the last checkpoint.
    fn read_journal(&self) -> Vec<u8>;
}

/// Deterministic in-memory backend: the simulator default.
#[derive(Default, Debug)]
struct MemBackend {
    checkpoint: Option<Vec<u8>>,
    journal: Vec<u8>,
}

impl DurableBackend for MemBackend {
    fn write_checkpoint(&mut self, bytes: &[u8]) {
        self.checkpoint = Some(bytes.to_vec());
        self.journal.clear();
    }

    fn append(&mut self, bytes: &[u8]) {
        self.journal.extend_from_slice(bytes);
    }

    fn read_checkpoint(&self) -> Option<Vec<u8>> {
        self.checkpoint.clone()
    }

    fn read_journal(&self) -> Vec<u8> {
        self.journal.clone()
    }
}

/// File-backed backend: `host-<id>.ckpt` (replaced via temp file + rename)
/// and `host-<id>.wal` (append + flush per record) under one directory.
struct FileBackend {
    ckpt_path: std::path::PathBuf,
    wal_path: std::path::PathBuf,
    wal: std::fs::File,
}

impl FileBackend {
    /// Opens (creating as needed) the per-host store under `dir`.
    ///
    /// # Errors
    ///
    /// Propagates the I/O error when the directory or WAL cannot be created.
    fn open(dir: &std::path::Path, host: HostId) -> std::io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        let ckpt_path = dir.join(format!("host-{}.ckpt", host.raw()));
        let wal_path = dir.join(format!("host-{}.wal", host.raw()));
        let wal = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&wal_path)?;
        Ok(FileBackend {
            ckpt_path,
            wal_path,
            wal,
        })
    }
}

impl DurableBackend for FileBackend {
    fn write_checkpoint(&mut self, bytes: &[u8]) {
        use std::io::Write as _;
        let tmp = self.ckpt_path.with_extension("ckpt.tmp");
        // Crash-safe replace: write the new snapshot fully, then rename over
        // the old one; the journal is only truncated after the snapshot is
        // durably in place.
        if std::fs::write(&tmp, bytes).is_ok() && std::fs::rename(&tmp, &self.ckpt_path).is_ok() {
            if let Ok(f) = std::fs::OpenOptions::new()
                .write(true)
                .truncate(true)
                .create(true)
                .open(&self.wal_path)
            {
                drop(std::mem::replace(&mut self.wal, f));
            }
            let _ = self.wal.flush();
        }
    }

    fn append(&mut self, bytes: &[u8]) {
        use std::io::Write as _;
        let _ = self.wal.write_all(bytes);
        let _ = self.wal.flush();
    }

    fn read_checkpoint(&self) -> Option<Vec<u8>> {
        std::fs::read(&self.ckpt_path).ok()
    }

    fn read_journal(&self) -> Vec<u8> {
        std::fs::read(&self.wal_path).unwrap_or_default()
    }
}

/// Everything a recovery found in the store.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct RecoveredState {
    /// The last checkpoint's sequence number and records, if one was written
    /// and decodes whole.
    pub checkpoint: Option<(u64, Vec<JournalRecord>)>,
    /// Journal records appended after that checkpoint, in append order,
    /// up to (excluding) the first torn record.
    pub tail: Vec<JournalRecord>,
    /// Bytes ignored at the end of the journal because the final record was
    /// torn (partially written at the crash). 0 on a clean journal.
    pub torn_bytes: usize,
}

/// Room reserved ahead of a record body for its LEB128 length prefix.
const MAX_PREFIX: usize = 10;

/// Frames one record — LEB128 length prefix, then body — in `scratch`
/// (`prefix` is the reused buffer for the length).
fn frame<'s, S: AsRef<str>, B: AsRef<[u8]>>(
    scratch: &'s mut Vec<u8>,
    prefix: &mut Vec<u8>,
    record: &JournalRecord<S, B>,
) -> &'s [u8] {
    // Body first, after room for the longest prefix; the prefix is then
    // written right-aligned against it.
    scratch.clear();
    scratch.resize(MAX_PREFIX, 0);
    record.encode_into(scratch);
    prefix.clear();
    put_varint(prefix, (scratch.len() - MAX_PREFIX) as u64);
    let start = MAX_PREFIX - prefix.len();
    scratch[start..MAX_PREFIX].copy_from_slice(prefix);
    &scratch[start..]
}

/// The per-host durable store: write-ahead journal + checkpoint snapshots.
pub struct DurableStore {
    backend: Box<dyn DurableBackend>,
    /// Reused frame buffer: [`MAX_PREFIX`] bytes of room, then the body.
    scratch: Vec<u8>,
    /// Reused buffer for the frame's length prefix.
    prefix: Vec<u8>,
    /// Reused buffer the checkpoint stream is assembled in.
    stream: Vec<u8>,
    checkpoints: u64,
    /// `(records, framed bytes)` appended per kind, indexed like
    /// [`RECORD_KINDS`].
    by_kind: [(u64, u64); RECORD_KINDS.len()],
}

impl std::fmt::Debug for DurableStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableStore")
            .field("records", &self.records_appended())
            .field("bytes", &self.bytes_appended())
            .field("checkpoints", &self.checkpoints)
            .finish()
    }
}

impl Default for DurableStore {
    fn default() -> Self {
        DurableStore::in_memory()
    }
}

impl DurableStore {
    /// Creates a store over the deterministic in-memory backend.
    pub fn in_memory() -> Self {
        DurableStore::with_backend(Box::new(MemBackend::default()))
    }

    /// Creates a store over an explicit backend.
    fn with_backend(backend: Box<dyn DurableBackend>) -> Self {
        DurableStore {
            backend,
            scratch: Vec::new(),
            prefix: Vec::with_capacity(MAX_PREFIX),
            stream: Vec::new(),
            checkpoints: 0,
            by_kind: [(0, 0); RECORD_KINDS.len()],
        }
    }

    /// Creates a file-backed store under `dir` for `host`.
    ///
    /// # Errors
    ///
    /// Propagates the I/O error when the backing files cannot be opened.
    pub fn file_backed(dir: &std::path::Path, host: HostId) -> std::io::Result<Self> {
        Ok(DurableStore::with_backend(Box::new(FileBackend::open(
            dir, host,
        )?)))
    }

    /// Appends one record to the journal. The frame is handed to the
    /// backend in one write, so a crash tears at most the final record.
    pub fn append<S: AsRef<str>, B: AsRef<[u8]>>(&mut self, record: &JournalRecord<S, B>) {
        let frame = frame(&mut self.scratch, &mut self.prefix, record);
        self.backend.append(frame);
        let kind = &mut self.by_kind[record.tag() as usize];
        kind.0 += 1;
        kind.1 += frame.len() as u64;
    }

    /// Writes a checkpoint — the records that rebuild the host's current
    /// state, framed as in the journal — and truncates the journal. Its
    /// records count toward no per-kind journal total.
    pub fn checkpoint<S, B>(&mut self, records: impl IntoIterator<Item = JournalRecord<S, B>>)
    where
        S: AsRef<str>,
        B: AsRef<[u8]>,
    {
        let stream = &mut self.stream;
        stream.clear();
        stream.extend_from_slice(CKPT_MAGIC);
        put_varint(stream, CKPT_VERSION);
        put_varint(stream, self.checkpoints);
        for record in records {
            stream.extend_from_slice(frame(&mut self.scratch, &mut self.prefix, &record));
        }
        stream.extend_from_slice(&fnv1a(stream).to_le_bytes());
        self.backend.write_checkpoint(stream);
        self.checkpoints += 1;
    }

    /// Reads back checkpoint + journal tail. A checkpoint that does not
    /// decode whole is ignored whole; a torn final journal record (a crash
    /// mid-append) is ignored and its size reported, everything before it
    /// being intact.
    pub fn recover(&self) -> RecoveredState {
        let checkpoint = self
            .backend
            .read_checkpoint()
            .and_then(|bytes| decode_checkpoint(&bytes));
        let (tail, torn_bytes) = decode_frames(&self.backend.read_journal());
        RecoveredState {
            checkpoint,
            tail,
            torn_bytes,
        }
    }

    /// Total records appended since the store was created.
    pub fn records_appended(&self) -> u64 {
        self.by_kind.iter().map(|k| k.0).sum()
    }

    /// Total journal bytes appended since the store was created.
    pub fn bytes_appended(&self) -> u64 {
        self.by_kind.iter().map(|k| k.1).sum()
    }

    /// `(kind, records, framed bytes)` appended per record kind, in
    /// [`RECORD_KINDS`] order, kinds never appended included. Counts only:
    /// the table never enters a journal.
    pub fn stats_by_kind(&self) -> impl Iterator<Item = (&'static str, u64, u64)> + '_ {
        let kinds = RECORD_KINDS.iter().zip(&self.by_kind);
        kinds.map(|(kind, (records, bytes))| (*kind, *records, *bytes))
    }

    /// Total checkpoints written since the store was created.
    pub fn checkpoints_written(&self) -> u64 {
        self.checkpoints
    }

    /// The checkpoint stream's bytes, if a checkpoint was ever written.
    pub fn checkpoint_bytes(&self) -> Option<Vec<u8>> {
        self.backend.read_checkpoint()
    }

    /// The journal stream's bytes: every frame appended since the last
    /// checkpoint.
    pub fn journal_bytes(&self) -> Vec<u8> {
        self.backend.read_journal()
    }

    /// The store's current contents — checkpoint bytes then journal bytes —
    /// the byte-identity witness for double-run determinism checks.
    pub fn digest(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self.checkpoint_bytes() {
            None => put_varint(&mut out, 0),
            Some(bytes) => {
                put_varint(&mut out, 1);
                put_bytes(&mut out, &bytes);
            }
        }
        put_bytes(&mut out, &self.journal_bytes());
        out
    }
}

/// The kind of in-flight operation a recovery verdict is about.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OpKind {
    /// A migration move of one component (either side of the transfer).
    MigrationMove,
    /// An event parked for an absent component.
    BufferedEvent,
    /// The monitoring window that was open at the crash.
    MonitorWindow,
}

impl OpKind {
    /// Stable lower-case label for telemetry fields.
    pub fn label(self) -> &'static str {
        match self {
            OpKind::MigrationMove => "migration_move",
            OpKind::BufferedEvent => "buffered_event",
            OpKind::MonitorWindow => "monitor_window",
        }
    }
}

/// One explicit completed/not-completed verdict for an operation that was in
/// flight when the host crashed — the detectable half of detectable
/// recovery.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct OpVerdict {
    /// What kind of operation this is about.
    pub kind: OpKind,
    /// The operation's subject (component name, or `"window"`).
    pub subject: String,
    /// Whether the operation verifiably completed before the crash.
    pub completed: bool,
}

/// What one crash recovery did and found, reported by the host to the
/// framework layer (which consults the verdicts instead of blindly
/// re-effecting).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RecoveryReport {
    /// The host that recovered.
    pub host: HostId,
    /// The restart instant.
    pub at: SimTime,
    /// Sequence number of the checkpoint replayed (0 when none existed).
    pub checkpoint_seq: u64,
    /// Journal records replayed on top of the checkpoint.
    pub replayed: u64,
    /// Bytes of torn journal tail ignored (0 on a clean journal).
    pub torn_bytes: usize,
    /// Self-check: replayed state is byte-identical to the state the host
    /// held at the crash instant — component snapshots, directory, and the
    /// admin's and deployer's durable state.
    pub state_equiv: bool,
    /// Which parts failed the self-check (`components`, `directory`,
    /// `admin`, `deployer`); empty exactly when `state_equiv` holds.
    pub diverged: Vec<&'static str>,
    /// One verdict per in-flight operation.
    pub verdicts: Vec<OpVerdict>,
}

impl RecoveryReport {
    /// Number of verdicts that report `completed == true`.
    pub fn completed(&self) -> usize {
        self.verdicts.iter().filter(|v| v.completed).count()
    }

    /// Component names whose migration move verifiably completed (landed
    /// here) before or despite the crash.
    pub fn completed_moves(&self) -> impl Iterator<Item = &str> {
        self.verdicts.iter().filter_map(|v| {
            (v.kind == OpKind::MigrationMove && v.completed).then_some(v.subject.as_str())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// One record of kind `kind` (a [`RECORD_KINDS`] index) built from the
    /// given parts, so generated inputs reach every kind.
    fn record_of(kind: usize, name: &str, bytes: &[u8], n: u64, host: u32) -> JournalRecord {
        let (s, b) = (name.to_owned(), bytes.to_vec());
        match kind {
            0 => JournalRecord::Delivery {
                component: s,
                event: b,
            },
            1 => JournalRecord::TimerFired { id: n },
            2 => JournalRecord::TimerArmed {
                id: n,
                component: s,
                token: n / 3,
            },
            3 => JournalRecord::DirectorySet { component: s, host },
            4 => JournalRecord::DirectoryReplaced {
                directory: vec![(s.clone(), host), (format!("{s}2"), host / 2)],
            },
            5 => JournalRecord::EventBuffered {
                component: s,
                event: b,
            },
            6 => JournalRecord::BufferDrained { component: s },
            7 => JournalRecord::ChannelSend { peer: host },
            8 => JournalRecord::ComponentAttached {
                name: s,
                type_name: "workload".into(),
                state: b,
            },
            9 => JournalRecord::ComponentDetached { name: s },
            10 => JournalRecord::MonitorWindow { admin: b },
            11 => JournalRecord::DeployerState { blob: b },
            12 => JournalRecord::ReportReceived { payload: b },
            13 => JournalRecord::ChannelState {
                peer: host,
                next_seq: n,
                next_expected: !n,
            },
            14 => JournalRecord::TimerCursor { next: n },
            _ => unreachable!("kind index out of RECORD_KINDS"),
        }
    }

    fn sample_records() -> Vec<JournalRecord> {
        (0..RECORD_KINDS.len())
            .map(|kind| record_of(kind, "a", &[1, 2, 3], 1007, 3))
            .collect()
    }

    /// Field-less kinds leave `S`/`B` open; tests pin the owned defaults.
    fn fired(id: u64) -> JournalRecord {
        JournalRecord::TimerFired { id }
    }

    fn framed(record: &JournalRecord) -> Vec<u8> {
        let mut body = Vec::new();
        record.encode_into(&mut body);
        let mut frame = Vec::new();
        put_bytes(&mut frame, &body);
        frame
    }

    #[test]
    fn records_round_trip() {
        for (kind, rec) in sample_records().into_iter().enumerate() {
            let mut bytes = Vec::new();
            rec.encode_into(&mut bytes);
            let back = JournalRecord::decode(&bytes, &mut 0).unwrap();
            assert_eq!(back, rec);
            assert_eq!(rec.tag() as usize, kind, "tags index RECORD_KINDS");
        }
    }

    #[test]
    fn borrowed_records_encode_like_owned_ones() {
        let owned = JournalRecord::Delivery {
            component: "comp".to_owned(),
            event: vec![7; 40],
        };
        let borrowed: RecordRef<'_> = JournalRecord::Delivery {
            component: "comp",
            event: &[7; 40],
        };
        let (mut a, mut b) = (Vec::new(), Vec::new());
        owned.encode_into(&mut a);
        borrowed.encode_into(&mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn frames_are_length_prefixed_at_every_prefix_width() {
        // Bodies around the 1→2 and 2→3 byte LEB128 prefix boundaries.
        for len in [0usize, 1, 120, 127, 128, 16_380, 16_384, 70_000] {
            let rec = JournalRecord::ReportReceived {
                payload: vec![0xAB; len],
            };
            let mut store = DurableStore::in_memory();
            store.append(&rec);
            store.append(&fired(9));
            let recovered = store.recover();
            assert_eq!(recovered.torn_bytes, 0, "payload of {len} bytes");
            assert_eq!(recovered.tail, vec![rec.clone(), fired(9)]);
            assert_eq!(
                store.bytes_appended(),
                (framed(&rec).len() + framed(&fired(9)).len()) as u64
            );
        }
    }

    #[test]
    fn stats_by_kind_attribute_every_append() {
        let mut store = DurableStore::in_memory();
        let report = JournalRecord::ReportReceived {
            payload: vec![1; 500],
        };
        store.append(&report);
        store.append(&report);
        store.append(&record_of(7, "", &[], 0, 4));
        let table: Vec<_> = store.stats_by_kind().collect();
        assert_eq!(table.len(), RECORD_KINDS.len());
        let of = |kind: &str| *table.iter().find(|k| k.0 == kind).unwrap();
        let report_bytes = 2 * framed(&report).len() as u64;
        assert_eq!(of("report_received"), ("report_received", 2, report_bytes));
        assert_eq!(of("channel_send").1, 1);
        assert_eq!(of("delivery"), ("delivery", 0, 0));
        let sum = |part: fn(&(&str, u64, u64)) -> u64| table.iter().map(part).sum::<u64>();
        assert_eq!(sum(|k| k.1), store.records_appended());
        assert_eq!(sum(|k| k.2), store.bytes_appended());
    }

    #[test]
    fn store_recovers_checkpoint_and_tail() {
        let mut store = DurableStore::in_memory();
        // Records before the checkpoint must vanish with it.
        store.append(&fired(1000));
        store.checkpoint(sample_records());
        for rec in sample_records() {
            store.append(&rec);
        }
        let rec = store.recover();
        assert_eq!(rec.checkpoint, Some((0, sample_records())));
        assert_eq!(rec.tail, sample_records());
        assert_eq!(rec.torn_bytes, 0);
        assert_eq!(store.checkpoints_written(), 1);
        // A checkpoint's records count toward no journal total.
        assert_eq!(store.records_appended(), 1 + sample_records().len() as u64);
        let framed_bytes = sample_records()
            .iter()
            .map(|r| framed(r).len())
            .sum::<usize>();
        assert_eq!(
            store.bytes_appended(),
            (framed(&fired(1000)).len() + framed_bytes) as u64
        );
        // Checkpoints are numbered in write order.
        store.checkpoint([fired(7)]);
        assert_eq!(store.recover().checkpoint, Some((1, vec![fired(7)])));
        assert!(store.recover().tail.is_empty());
    }

    #[test]
    fn checkpoint_parts_are_written_as_host_records() {
        let parts = Checkpoint {
            seq: 9,
            at_us: 1,
            components: vec![("a".into(), "workload".into(), vec![1, 2])],
            directory: vec![("a".into(), 0), ("b".into(), 1)],
            channels: vec![(1, 7, 5)],
        };
        let mut store = DurableStore::in_memory();
        store.checkpoint(&parts);
        let expected = vec![
            JournalRecord::ComponentAttached {
                name: "a".into(),
                type_name: "workload".into(),
                state: vec![1, 2],
            },
            JournalRecord::DirectoryReplaced {
                directory: vec![("a".into(), 0), ("b".into(), 1)],
            },
            JournalRecord::ChannelState {
                peer: 1,
                next_seq: 7,
                next_expected: 5,
            },
        ];
        assert_eq!(store.recover().checkpoint, Some((0, expected)));
    }

    #[test]
    fn checkpoint_round_trips() {
        let mut store = DurableStore::in_memory();
        store.checkpoint(sample_records());
        let stream = store.checkpoint_bytes().expect("a checkpoint was written");
        assert!(stream.starts_with(CKPT_MAGIC));
        assert_eq!(decode_checkpoint(&stream), Some((0, sample_records())));
        // A fresh store reading the same stream recovers the same list.
        let mut backend = MemBackend::default();
        backend.write_checkpoint(&stream);
        let rec = DurableStore::with_backend(Box::new(backend)).recover();
        assert_eq!(rec.checkpoint, Some((0, sample_records())));
        // An empty checkpoint is a checkpoint, not an absent one.
        store.checkpoint(Vec::<JournalRecord>::new());
        assert_eq!(store.recover().checkpoint, Some((1, Vec::new())));
    }

    #[test]
    fn checkpoint_rejects_garbage() {
        // Magic + body + a checksum that matches, so only the body's own
        // checks can reject it.
        let sealed = |body: &[u8]| {
            let mut stream = CKPT_MAGIC.to_vec();
            stream.extend_from_slice(body);
            let sum = fnv1a(&stream);
            stream.extend_from_slice(&sum.to_le_bytes());
            stream
        };
        let mut wrong_version = Vec::new();
        put_varint(&mut wrong_version, CKPT_VERSION - 1);
        put_varint(&mut wrong_version, 0);
        wrong_version.extend(framed(&fired(1)));
        let mut alien_frame = Vec::new();
        put_varint(&mut alien_frame, CKPT_VERSION);
        put_varint(&mut alien_frame, 0);
        let mut alien = Vec::new();
        put_varint(&mut alien, RECORD_KINDS.len() as u64);
        put_bytes(&mut alien_frame, &alien);
        let mut wrong_magic = sealed(&[]);
        wrong_magic[..4].copy_from_slice(b"RDCX");
        let garbage = [
            Vec::new(),
            vec![0; 7],
            b"RDCP".to_vec(),
            b"not a checkpoint at all".to_vec(),
            wrong_magic,
            sealed(&wrong_version),
            sealed(&alien_frame),
        ];
        for bytes in garbage {
            assert_eq!(decode_checkpoint(&bytes), None, "{bytes:?}");
            let mut backend = MemBackend::default();
            backend.write_checkpoint(&bytes);
            backend.append(&framed(&fired(3)));
            let rec = DurableStore::with_backend(Box::new(backend)).recover();
            assert_eq!(rec.checkpoint, None);
            assert_eq!(rec.tail, vec![fired(3)]);
        }
    }

    /// The file backend keeps both streams across a reopen (what a
    /// restarted process sees), and a frame torn by a crash mid-append is
    /// ignored.
    #[test]
    fn file_backed_store_recovers_after_reopen() {
        use std::io::Write as _;
        let dir = std::env::temp_dir().join(format!("redep-durable-file-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let host = HostId::new(3);
        let mut store = DurableStore::file_backed(&dir, host).unwrap();
        store.append(&fired(1000));
        store.checkpoint(sample_records());
        for rec in sample_records() {
            store.append(&rec);
        }
        drop(store);
        // A crash mid-append leaves part of one more frame in the journal.
        let torn = framed(&fired(1001));
        let torn = &torn[..torn.len() - 1];
        let wal = dir.join(format!("host-{}.wal", host.raw()));
        let mut file = std::fs::OpenOptions::new().append(true).open(wal).unwrap();
        file.write_all(torn).unwrap();
        drop(file);
        let rec = DurableStore::file_backed(&dir, host).unwrap().recover();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(rec.checkpoint, Some((0, sample_records())));
        assert_eq!(rec.tail, sample_records());
        assert_eq!(rec.torn_bytes, torn.len());
    }

    #[test]
    fn empty_store_recovers_empty() {
        let store = DurableStore::in_memory();
        assert_eq!(store.recover(), RecoveredState::default());
    }

    #[test]
    fn digest_is_deterministic_and_state_sensitive() {
        let build = |extra: bool| {
            let mut store = DurableStore::in_memory();
            store.checkpoint(sample_records());
            store.append(&record_of(7, "", &[], 0, 1));
            if extra {
                store.append(&fired(1001));
            }
            store.digest()
        };
        assert_eq!(build(false), build(false));
        assert_ne!(build(false), build(true));
    }

    proptest! {
        /// Every record kind round-trips for arbitrary field contents, and
        /// the store frames it exactly as length prefix + body.
        #[test]
        fn any_record_round_trips(
            kind in 0usize..RECORD_KINDS.len(),
            name in "[a-z]{1,12}",
            bytes in proptest::collection::vec(any::<u8>(), 0..400),
            n in any::<u64>(),
            host in any::<u32>(),
        ) {
            let rec = record_of(kind, &name, &bytes, n, host);
            let mut body = Vec::new();
            rec.encode_into(&mut body);
            let mut pos = 0;
            prop_assert_eq!(&JournalRecord::decode(&body, &mut pos).unwrap(), &rec);
            prop_assert_eq!(pos, body.len());
            let mut store = DurableStore::in_memory();
            store.append(&rec);
            prop_assert_eq!(store.recover().tail, vec![rec.clone()]);
            prop_assert_eq!(store.bytes_appended(), framed(&rec).len() as u64);
        }

        /// A record with a tag this build does not know (a newer writer, or
        /// corruption) is not guessed at: decoding fails, and recovery keeps
        /// the intact prefix and reports the rest as torn.
        #[test]
        fn unknown_tag_stops_recovery_at_the_intact_prefix(
            kind in 0usize..RECORD_KINDS.len(),
            tag in RECORD_KINDS.len() as u64..1_000_000,
            bytes in proptest::collection::vec(any::<u8>(), 0..64),
        ) {
            let mut body = Vec::new();
            put_varint(&mut body, tag);
            body.extend_from_slice(&bytes);
            prop_assert!(JournalRecord::decode(&body, &mut 0).is_err());

            let known = record_of(kind, "a", &bytes, 5, 1);
            let mut alien = Vec::new();
            put_bytes(&mut alien, &body);
            let mut backend = MemBackend::default();
            backend.append(&framed(&known));
            backend.append(&alien);
            backend.append(&framed(&known));
            let rec = DurableStore::with_backend(Box::new(backend)).recover();
            prop_assert_eq!(rec.tail, vec![known.clone()]);
            prop_assert_eq!(rec.torn_bytes, alien.len() + framed(&known).len());
        }

        /// Any record sequence survives framing, and truncating the framed
        /// journal anywhere inside the final record drops exactly that
        /// record: recovery returns the intact prefix and reports the torn
        /// fragment instead of erroring or inventing data.
        #[test]
        fn torn_tail_is_ignored(
            picks in proptest::collection::vec(0usize..RECORD_KINDS.len(), 1..20),
            bytes in proptest::collection::vec(any::<u8>(), 0..200),
            cut in 1usize..256,
        ) {
            let records: Vec<JournalRecord> = picks
                .iter()
                .map(|&kind| record_of(kind, "comp", &bytes, 77, 2))
                .collect();
            let frames: Vec<Vec<u8>> = records.iter().map(framed).collect();
            let journal = frames.concat();
            let last = frames.last().unwrap().len();
            // Cut strictly inside the final record's frame.
            let cut = cut.min(last - 1).max(1);
            let mut backend = MemBackend::default();
            backend.append(&journal[..journal.len() - cut]);
            let store = DurableStore::with_backend(Box::new(backend));
            let rec = store.recover();
            prop_assert_eq!(&rec.tail[..], &records[..records.len() - 1]);
            prop_assert_eq!(rec.torn_bytes, last - cut);
        }

        /// Checkpoints of arbitrary records round-trip, numbered in write
        /// order, and each one replaces the last.
        #[test]
        fn checkpoint_roundtrip_prop(
            lists in proptest::collection::vec(
                proptest::collection::vec(
                    (
                        0usize..RECORD_KINDS.len(),
                        "[a-z]{1,12}",
                        proptest::collection::vec(any::<u8>(), 0..100),
                        any::<u64>(),
                        any::<u32>(),
                    ),
                    0..12,
                ),
                1..4,
            ),
        ) {
            let mut store = DurableStore::in_memory();
            for (seq, list) in lists.iter().enumerate() {
                let records: Vec<JournalRecord> = list
                    .iter()
                    .map(|(kind, name, bytes, n, host)| record_of(*kind, name, bytes, *n, *host))
                    .collect();
                store.checkpoint(records.clone());
                prop_assert_eq!(store.recover().checkpoint, Some((seq as u64, records)));
            }
            prop_assert_eq!(store.checkpoints_written(), lists.len() as u64);
            prop_assert_eq!(store.records_appended(), 0);
        }

        /// A checkpoint stream cut at any byte, or with any byte corrupted,
        /// recovers as no checkpoint at all — never as a prefix of its
        /// records or as different ones — and the journal tail still
        /// replays; the intact stream recovers whole.
        #[test]
        fn a_torn_or_corrupt_checkpoint_recovers_whole_or_not_at_all(
            picks in proptest::collection::vec(0usize..RECORD_KINDS.len(), 0..16),
            tail_picks in proptest::collection::vec(0usize..RECORD_KINDS.len(), 0..6),
            bytes in proptest::collection::vec(any::<u8>(), 0..64),
            at in any::<usize>(),
            flip in 1u8..=255,
            corrupt in any::<bool>(),
        ) {
            let pick = |&kind: &usize| record_of(kind, "comp", &bytes, 1007, 3);
            let records: Vec<JournalRecord> = picks.iter().map(pick).collect();
            let tail: Vec<JournalRecord> = tail_picks.iter().map(pick).collect();
            let mut store = DurableStore::in_memory();
            store.checkpoint(records.clone());
            let stream = store.checkpoint_bytes().expect("a checkpoint was written");
            let at = at % stream.len();
            let mut damaged = stream.clone();
            if corrupt {
                damaged[at] ^= flip;
            } else {
                damaged.truncate(at);
            }
            for (written, expected) in [(stream, Some((0, records))), (damaged, None)] {
                let mut backend = MemBackend::default();
                backend.write_checkpoint(&written);
                for rec in &tail {
                    backend.append(&framed(rec));
                }
                let rec = DurableStore::with_backend(Box::new(backend)).recover();
                prop_assert_eq!(rec.checkpoint, expected);
                prop_assert_eq!(&rec.tail, &tail);
                prop_assert_eq!(rec.torn_bytes, 0);
            }
        }

        /// A store recovered from checkpoint-only equals one recovered from
        /// an earlier checkpoint + a tail, once the tail is folded in — at
        /// the store level, folding means the recovered pair (checkpoint,
        /// tail) is exactly what was written, in order, with nothing lost
        /// and nothing reordered.
        #[test]
        fn recover_returns_exactly_what_was_written(
            picks in proptest::collection::vec(0usize..RECORD_KINDS.len(), 0..24),
            with_ckpt in any::<bool>(),
        ) {
            let all = sample_records();
            let records: Vec<JournalRecord> =
                picks.iter().map(|&i| all[i].clone()).collect();
            let mut store = DurableStore::in_memory();
            if with_ckpt {
                store.checkpoint(sample_records());
            }
            for rec in &records {
                store.append(rec);
            }
            let rec = store.recover();
            prop_assert_eq!(
                rec.checkpoint,
                with_ckpt.then(|| (0, sample_records()))
            );
            prop_assert_eq!(rec.tail, records);
            prop_assert_eq!(rec.torn_bytes, 0);
        }
    }
}
