//! The simulation engine: the topology is partitioned into shards, each
//! running its own calendar queue and event loop, synchronized by
//! conservative lookahead windows. It is the only event loop in the crate —
//! [`Simulator`](crate::Simulator) runs it at up to two shards, one thread
//! each, behind a one-shard signature.
//!
//! # Why
//!
//! One event loop over every event of every host is the bottleneck at
//! thousands of hosts. Classic conservative parallel discrete-event
//! simulation (Chandy–Misra–Bryant style, here in its barrier-synchronized
//! BSP form) exploits the one physical fact a network simulation guarantees:
//! a message between two hosts takes at least the link's propagation delay.
//! If every cross-shard link has delay ≥ `L`, then nothing a shard does in
//! the time window `[W, W + L)` can affect another shard before `W + L` — so
//! all shards can process the window concurrently with no rollback. At one
//! shard no link crosses, the lookahead is unbounded, and a `run_until` call
//! is one window: a plain sequential event loop.
//!
//! # The protocol
//!
//! Each round has two barrier-separated phases:
//!
//! 1. **Drain + vote**: every shard moves the messages other shards mailed
//!    it into its local queue and contributes its earliest pending event
//!    time to a shared minimum `M`.
//! 2. **Window**: every shard processes its local events with
//!    `time < M + L` in `(time, key)` order. Messages to hosts on other
//!    shards are posted to the destination shard's mailbox; they carry
//!    delivery times `≥ now + L ≥ M + L`, so they can only land in later
//!    windows — which is exactly why phase 2 needs no communication.
//!
//! Windows jump to the global minimum event time instead of marching in
//! fixed `L` steps, so idle simulated time costs nothing.
//!
//! # Threading
//!
//! [`ShardedSimulator::run_until`] splits the shards into one contiguous
//! chunk per thread. The **calling thread runs the first chunk itself**; the
//! others are *lent* over a channel to **kept workers** — threads the
//! simulator starts the first time a thread count asks for them and keeps
//! until it drops — and come back over a second channel when the call ends,
//! so a driver that steps in small increments pays no spawn and no join per
//! step. Every party runs the same round function (one party at
//! `threads == 1`), meeting twice per round at a generation-counting
//! barrier on two atomics whose waiters **stay runnable**: a bounded
//! `spin_loop`, then `yield_now`. Nothing parks on a futex inside a round —
//! a futex wake-up tends to land the woken thread on the waker's CPU, which
//! stacked both shard threads on one core for whole calls. A panic in a node
//! callback raises the barrier's `aborted` flag, which releases every waiter,
//! and `run_until` re-raises it on the calling thread naming the shard.
//! [`ShardedSimulator::round_stats`] is the protocol's report on itself.
//!
//! # Determinism rules
//!
//! The engine produces **identical journals for any shard count and any
//! thread count**. Everything observable is keyed off structures that do not
//! depend on the shard layout:
//!
//! * **Packed event keys.** The queue tie-break within one timestamp is a
//!   single `u64`: `kind ≪ 62 | host ≪ 36 | seq`, where `host` is the dense
//!   index of the host the event is attributed to and `seq` is a *per-host*
//!   counter. A host's callbacks run in the same relative order under any
//!   sharding, so its counter advances identically — making every key, and
//!   therefore every `(time, key)` processing order, shard-layout-invariant.
//! * **Counter-hash draws, no RNG stream.** Message loss is decided by
//!   hashing `(seed, src, dst, per-directed-link counter)` — never by a
//!   shared RNG stream, whose interleaving would depend on the layout.
//! * **Replicated topology, sender-owned media.** Every shard holds a
//!   replica of the [`NetworkTopology`] — link specs, link and host up/down —
//!   which broadcast actions update identically everywhere. The per-direction
//!   state of link `a → b` (its own medium's busy-until, the loss counter,
//!   the stat slot) lives only in `a`'s shard and is touched only by `a`'s
//!   sends.
//! * **Broadcast actions.** A run changes its links only through a
//!   [`FaultPlan`]: every fault action is scheduled into *every* shard's
//!   queue under the same key, so all replicas update at the same point of
//!   the `(time, key)` order; exactly one designated shard journals it
//!   (fault span IDs come from a per-action [`SpanIdGen`], so trace IDs are
//!   layout-invariant too).
//! * **Order-stamped journals.** Each shard journals into its own
//!   [`Telemetry`] handle (or its own lane of one handle,
//!   [`Telemetry::lane`]); every record is stamped with the `(time, key)`
//!   of the event that produced it, and
//!   [`merge_export_jsonl`](redep_telemetry::merge_export_jsonl) or
//!   [`Telemetry::merge_lanes`] reconstructs the single global order
//!   byte-for-byte.
//! * **One count per event.** A broadcast action counts as processed only
//!   on the shard that journals it, so [`ShardedSimulator::run_until`]
//!   returns the same count at any shard count.
//!
//! Two zero-delay-connected hosts could violate the lookahead bound, so
//! the [`ShardPlan`] first merges hosts connected by zero-delay links
//! into one placement unit ([`redep_model::delay_units`]); cross-shard links
//! then always have delay ≥ 1 µs. Fault actions never touch a delay, and a
//! link edit between runs that crosses shards with a shorter delay lowers
//! the lookahead to it, so the bound holds for the simulator's lifetime —
//! down to a 1 µs floor. A message over a cross-shard link edited below
//! 1 µs that also transmits in under 1 µs reaches the other shard after it
//! ran that instant: it runs in the next window, possibly after
//! same-instant events that one shard runs after it.
//!
//! # Example
//!
//! ```
//! use redep_netsim::{NetworkTopology, LinkSpec, Node, NodeCtx, Message};
//! use redep_netsim::{ShardPlan, ShardedSimulator, SimTime};
//! use redep_model::HostId;
//!
//! struct Echo;
//! impl Node for Echo {
//!     fn on_message(&mut self, ctx: &mut NodeCtx<'_>, msg: Message) {
//!         ctx.send(msg.src, msg.payload, 8);
//!     }
//! }
//! struct Pinger { peer: HostId, got: u32 }
//! impl Node for Pinger {
//!     fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
//!         ctx.send(self.peer, b"ping".to_vec(), 8);
//!     }
//!     fn on_message(&mut self, _ctx: &mut NodeCtx<'_>, _msg: Message) {
//!         self.got += 1;
//!     }
//! }
//!
//! let (a, b) = (HostId::new(0), HostId::new(1));
//! let mut topo = NetworkTopology::new();
//! topo.set_link(a, b, LinkSpec::default());
//! let mut sim = ShardedSimulator::new(42, &topo, 2);
//! sim.add_host(a, Pinger { peer: b, got: 0 });
//! sim.add_host(b, Echo);
//! sim.run_until(SimTime::from_secs_f64(1.0), 2);
//! assert_eq!(sim.stats().delivered, 2); // ping + echo
//! ```

use crate::calendar::CalendarQueue;
use crate::faultplan::{FaultAction, FaultPlan};
use crate::message::Message;
use crate::node::{Node, NodeAction, NodeCtx};
use crate::stats::{NetStats, NO_LINK_STATS};
use crate::time::{Duration, SimTime};
use crate::topology::{LinkSpec, LinkState, NetworkTopology};
use redep_model::{delay_units, HostId, HostPair};
use redep_telemetry::{trace::DOMAIN_NET, SpanIdGen, Telemetry, TraceCtx};
use std::any::Any;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Packed-key event kinds, ordered: at one timestamp, start callbacks run
/// before broadcast actions (fault actions), broadcast actions before
/// timers, timers before deliveries.
const KIND_START: u64 = 0;
const KIND_BROADCAST: u64 = 1;
const KIND_TIMER: u64 = 2;
const KIND_DELIVER: u64 = 3;

/// Bit layout of a packed key: `kind ≪ 62 | host ≪ 36 | seq`.
const HOST_SHIFT: u32 = 36;
const KIND_SHIFT: u32 = 62;
/// Maximum dense host index: 26 bits.
const MAX_HOSTS: usize = 1 << (KIND_SHIFT - HOST_SHIFT);
const SEQ_MASK: u64 = (1 << HOST_SHIFT) - 1;

fn pack_key(kind: u64, host: u32, seq: u64) -> u64 {
    debug_assert!(seq <= SEQ_MASK, "per-host sequence exhausted");
    (kind << KIND_SHIFT) | ((host as u64) << HOST_SHIFT) | (seq & SEQ_MASK)
}

/// Deterministic draw in `[0, 1)`: a splitmix64-style hash of
/// `(seed, stream, counter)`. A loss draw's stream is its directed link
/// `src ≪ 32 | dst` (dense indices) and its counter advances per send over
/// that direction, so the decision sequence is a pure function of the
/// sender's behavior — independent of shard layout, unlike a shared RNG
/// stream.
fn unit_draw(seed: u64, stream: u64, counter: u64) -> f64 {
    let mut x = seed
        .wrapping_add(stream)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(counter);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    ((x >> 11) as f64) * (1.0 / (1u64 << 53) as f64)
}

/// A deterministic host-to-shard placement plus the conservative lookahead
/// it yields.
///
/// Built once from the initial topology; the placement is fixed for the
/// simulation's lifetime. A host the topology did not name is appended to
/// shard 0, and a link edit between runs that crosses shards with a shorter
/// delay lowers the lookahead (fault actions may drop or degrade links, but
/// never shorten a delay).
#[derive(Clone, Debug)]
pub struct ShardPlan {
    shards: usize,
    /// All hosts, ascending (then any appended); a host's position is its
    /// *dense index*.
    hosts: Vec<HostId>,
    /// Dense index by raw host id (`u32::MAX` = not a host).
    dense_by_raw: Vec<u32>,
    /// Shard of each host, by dense index.
    shard_of: Vec<u32>,
    /// Minimum delay of any cross-shard link, in microseconds (`u64::MAX`
    /// when no link crosses shards).
    lookahead_us: u64,
}

impl ShardPlan {
    /// Partitions the topology's hosts over `shards` shards.
    ///
    /// Hosts connected by links of under 1 µs delay are first merged into
    /// one placement unit ([`delay_units`]), guaranteeing every cross-shard
    /// link has delay ≥ 1 µs — the engine's lookahead floor. Units are then
    /// dealt round-robin over shards in order of their smallest host id, so
    /// the placement is a pure function of `(topology, shards)`.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0` or the topology has ≥ 2²⁶ hosts.
    fn partition(topology: &NetworkTopology, shards: usize) -> Self {
        assert!(shards > 0, "shard count must be positive");
        let hosts = topology.hosts();
        assert!(
            hosts.len() < MAX_HOSTS,
            "at most {MAX_HOSTS} hosts are supported"
        );
        let max_raw = hosts.iter().map(|h| h.raw()).max().unwrap_or(0) as usize;
        let mut dense_by_raw = vec![u32::MAX; max_raw + 1];
        for (i, h) in hosts.iter().enumerate() {
            dense_by_raw[h.raw() as usize] = i as u32;
        }
        let dense = |h: HostId| dense_by_raw[h.raw() as usize];
        let delay_us = |spec: &LinkSpec| (spec.delay * 1e6) as u64;

        let links = topology.links().map(|(pair, state)| {
            let delay = delay_us(&state.spec) as f64;
            (dense(pair.lo()), dense(pair.hi()), delay)
        });
        let mut shard_of = vec![0; hosts.len()];
        for (i, unit) in delay_units(hosts.len(), links, 0.0).iter().enumerate() {
            for &host in unit {
                shard_of[host as usize] = (i % shards) as u32;
            }
        }

        let mut lookahead_us = u64::MAX;
        for (pair, state) in topology.links() {
            if shard_of[dense(pair.lo()) as usize] != shard_of[dense(pair.hi()) as usize] {
                lookahead_us = lookahead_us.min(delay_us(&state.spec));
            }
        }
        debug_assert!(lookahead_us >= 1, "zero-delay link crossed shards");

        ShardPlan {
            shards,
            hosts,
            dense_by_raw,
            shard_of,
            lookahead_us,
        }
    }

    /// Number of shards.
    pub(crate) fn shards(&self) -> usize {
        self.shards
    }

    /// All hosts in dense-index order.
    pub fn hosts(&self) -> &[HostId] {
        &self.hosts
    }

    /// The conservative lookahead: minimum cross-shard link delay.
    fn lookahead(&self) -> Duration {
        Duration::from_micros(self.lookahead_us)
    }

    /// The shard a host is placed on.
    ///
    /// # Panics
    ///
    /// Panics if the host is not in the plan.
    pub fn shard_of(&self, host: HostId) -> usize {
        self.shard_of[self.dense(host) as usize] as usize
    }

    fn try_dense(&self, host: HostId) -> Option<u32> {
        let dense = self.dense_by_raw.get(host.raw() as usize).copied();
        dense.filter(|&d| d != u32::MAX)
    }

    fn dense(&self, host: HostId) -> u32 {
        let dense = self.try_dense(host);
        dense.unwrap_or_else(|| panic!("host {host} is not in the shard plan"))
    }

    fn shard_of_dense(&self, dense: u32) -> usize {
        self.shard_of[dense as usize] as usize
    }

    /// Appends `host` to shard 0 with the next dense index.
    fn push(&mut self, host: HostId) {
        assert!(
            self.hosts.len() + 1 < MAX_HOSTS,
            "at most {MAX_HOSTS} hosts are supported"
        );
        let raw = host.raw() as usize;
        if self.dense_by_raw.len() <= raw {
            self.dense_by_raw.resize(raw + 1, u32::MAX);
        }
        self.dense_by_raw[raw] = self.hosts.len() as u32;
        self.hosts.push(host);
        self.shard_of.push(0);
    }
}

/// The per-direction state of one link, used only by the source host's
/// shard; the link's spec and up/down state live in the topology replica.
#[derive(Clone, Copy)]
struct LinkDir {
    /// When this direction's medium frees up: each direction serializes its
    /// own transmissions, independently of the other.
    busy_until: SimTime,
    /// Per-directed-link send counter feeding the loss draw.
    loss_counter: u64,
    /// The pair's slot in the owning shard's [`NetStats`], resolved on this
    /// direction's first send or first delivery of the reverse direction.
    stats: u32,
}

const FRESH_DIR: LinkDir = LinkDir {
    busy_until: SimTime::ZERO,
    loss_counter: 0,
    stats: NO_LINK_STATS,
};

/// What happens at a scheduled instant inside one shard.
enum Event {
    Start {
        host: HostId,
    },
    Deliver {
        msg: Message,
    },
    Timer {
        host: HostId,
        token: u64,
    },
    /// A fault action, by index into the shared schedule.
    Fault {
        index: usize,
    },
}

/// The window protocol's report on itself ([`ShardedSimulator::round_stats`]).
/// Every figure is an exact count accumulated once per window — never per
/// event — and is the same at any thread count. (Not at any shard count or
/// `run_until` step size: a deadline ends a window early.)
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RoundStats {
    /// Windows run.
    pub rounds: u64,
    /// Events processed, all windows and shards together (a broadcast
    /// action once, on the shard that journals it).
    pub events: u64,
    /// Events processed, per shard.
    pub shard_events: Vec<u64>,
    /// Most events a shard processed in one window, per shard.
    pub max_window_events: Vec<u64>,
    /// Windows in which a shard had no local event to process, per shard.
    pub idle_rounds: Vec<u64>,
    /// Deliveries handed to another shard's mailbox.
    pub cross_shard: u64,
    /// Deliveries scheduled into the sender's own queue (loopback included).
    pub same_shard: u64,
    /// Most messages one shard found in its mailbox at a round's start.
    pub deepest_mailbox: u64,
    /// The lookahead every window was given, in microseconds.
    pub lookahead_us: u64,
}

/// One shard's share of [`RoundStats`].
#[derive(Default)]
struct WindowTally {
    rounds: u64,
    idle_rounds: u64,
    cross_shard: u64,
    deepest_mailbox: u64,
    max_window_events: u64,
    /// First shard of a thread's chunk only: wall time that thread has
    /// waited at the barrier. For reports, never for the journal.
    barrier_wait: std::time::Duration,
}

/// A cross-shard mail slot: `(deliver time, event key, message)` triples
/// pushed by sender shards at window end and drained by the owner at the
/// next round's barrier.
type Mailbox = Mutex<Vec<Mail>>;
type Mail = (SimTime, u64, Message);

/// Polls a waiter makes with `spin_loop` before it starts to `yield_now`:
/// short, so that with more threads than cores a waiter soon makes way.
const SPIN_POLLS: u32 = 1 << 7;
/// Polls an idle worker makes for its next job before it blocks on the
/// channel — a couple of milliseconds, longer than the gap between two
/// `run_until` steps of a driver loop, because the futex wake-up that ends
/// a blocked wait is what can land it on the caller's CPU.
const IDLE_POLLS: u32 = 1 << 12;

/// One poll of a wait whose waiter stays runnable.
fn snooze(polls: &mut u32) {
    if *polls < SPIN_POLLS {
        std::hint::spin_loop();
    } else {
        std::thread::yield_now();
    }
    *polls = polls.saturating_add(1);
}

/// Receives from a channel whose other end is usually about to send: polls
/// before it blocks. `None` once the sender is gone.
fn recv_polling<T>(from: &Receiver<T>) -> Option<T> {
    let mut polls = 0;
    while polls < IDLE_POLLS {
        match from.try_recv() {
            Ok(value) => return Some(value),
            Err(TryRecvError::Disconnected) => return None,
            Err(TryRecvError::Empty) => snooze(&mut polls),
        }
    }
    from.recv().ok()
}

/// A reusable generation-counting barrier on two atomics whose waiters
/// never park (module docs, *Threading*).
#[derive(Default)]
struct RoundBarrier {
    arrived: AtomicUsize,
    generation: AtomicUsize,
    /// Raised for a party that unwound out of its rounds and will never
    /// arrive again; releases every waiter. A bare flag (`Relaxed`): the
    /// failure itself travels with the returned chunk.
    aborted: AtomicBool,
}

impl RoundBarrier {
    /// Returns once `parties` threads have arrived — `false` if the call
    /// was aborted instead. What a party wrote before it arrived is visible
    /// to every party after the wait: the arrivals chain through the
    /// `AcqRel` counter to the last one, whose `Release` of the new
    /// generation pairs with each waiter's `Acquire` load of it.
    fn wait(&self, parties: usize) -> bool {
        let generation = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == parties {
            // Nobody re-arrives before seeing the new generation, which is
            // also what publishes this reset.
            self.arrived.store(0, Ordering::Relaxed);
            self.generation.store(generation + 1, Ordering::Release);
        }
        let mut polls = 0;
        while self.generation.load(Ordering::Acquire) == generation {
            if self.aborted.load(Ordering::Relaxed) {
                return false;
            }
            snooze(&mut polls);
        }
        !self.aborted.load(Ordering::Relaxed)
    }
}

/// What the calling thread and its kept workers share across calls.
struct Shared {
    mailboxes: Vec<Mailbox>,
    /// Ping-pong minimum slots: round `r` votes into slot `r % 2` and
    /// pre-resets slot `(r + 1) % 2`, which nobody reads until the next
    /// round — two barrier waits per round instead of three.
    min_slots: [AtomicU64; 2],
    barrier: RoundBarrier,
    /// Per party: how many windows of the current call it has finished.
    finished: Vec<AtomicUsize>,
    /// Per party: the `(time, key)` at which it waits in
    /// [`await_one_shard_order`], if it does.
    waiting: Mutex<Vec<Option<(u64, u64)>>>,
}

/// A chunk of shards lent for one call, with the call's deadline (µs), its
/// party count and the chunk's party.
type Job = (Vec<ShardCore>, u64, usize, usize);
/// The shard whose callback panicked, and the panic's message.
type Failure = (usize, String);

/// A kept shard thread: runs its party's rounds on each chunk it is lent
/// and sends the chunk back. It ends when `jobs` disconnects.
struct Worker {
    jobs: Sender<Job>,
    returned: Receiver<(Vec<ShardCore>, Option<Failure>)>,
    thread: std::thread::JoinHandle<()>,
}

/// The call a thread runs one party of, when the call has several.
struct PartyOf {
    shared: Arc<Shared>,
    party: usize,
    parties: usize,
}

thread_local! {
    static PARTY: RefCell<Option<PartyOf>> = const { RefCell::new(None) };
    /// The window this thread's party runs.
    static WINDOW: Cell<usize> = const { Cell::new(0) };
    /// The `(time, key)` of the event this thread processes.
    static STAMP: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// Waits until a step whose outcome depends on which thread takes it first
/// — interning a new name — comes in the order one shard would take it:
/// on a thread that runs one party of a call of several, until every other
/// party has finished the current window or waits here at a later event.
/// A party runs its events in `(time, key)` order, so such steps are taken
/// in the one-shard order across parties (not across the shards of one
/// party). Returns at once outside such a call, or once the call aborts.
pub fn await_one_shard_order() {
    PARTY.with_borrow(|party| {
        let Some(PartyOf {
            shared,
            party,
            parties,
        }) = party
        else {
            return;
        };
        let (window, at) = (WINDOW.get(), (STAMP.get(), *party));
        let waiting = || shared.waiting.lock().expect("waiting list poisoned");
        waiting()[*party] = Some(at.0);
        let mut polls = 0;
        while !shared.barrier.aborted.load(Ordering::Relaxed) {
            let waiting = waiting();
            let passed = |p: usize| {
                shared.finished[p].load(Ordering::Acquire) > window
                    || waiting[p].is_some_and(|stamp| (stamp, p) > at)
            };
            if (0..*parties).filter(|p| p != party).all(passed) {
                break;
            }
            drop(waiting);
            snooze(&mut polls);
        }
        waiting()[*party] = None;
    });
}

fn spawn_worker(shared: Arc<Shared>) -> Worker {
    let (jobs, inbox) = channel::<Job>();
    let (outbox, returned) = channel();
    let thread = std::thread::spawn(move || {
        while let Some((mut chunk, deadline_us, parties, party)) = recv_polling(&inbox) {
            let failure = run_party(&mut chunk, &shared, deadline_us, (party, parties));
            if outbox.send((chunk, failure)).is_err() {
                break;
            }
        }
    });
    Worker {
        jobs,
        returned,
        thread,
    }
}

/// Runs party `party` of `parties`' rounds. A panic out of a node callback
/// is caught and the barrier aborted, so that no other party waits for this
/// one again.
fn run_party(
    chunk: &mut [ShardCore],
    shared: &Arc<Shared>,
    deadline_us: u64,
    (party, parties): (usize, usize),
) -> Option<Failure> {
    if parties > 1 {
        let shared = shared.clone();
        PARTY.set(Some(PartyOf {
            shared,
            party,
            parties,
        }));
    }
    let mut at = chunk[0].idx;
    let rounds =
        AssertUnwindSafe(|| run_rounds(chunk, shared, deadline_us, party, parties, &mut at));
    let result = catch_unwind(rounds);
    PARTY.set(None);
    let payload = result.err()?;
    shared.barrier.aborted.store(true, Ordering::Relaxed);
    let message = match payload.downcast_ref::<String>() {
        Some(message) => message.as_str(),
        None => payload.downcast_ref().copied().unwrap_or("(no message)"),
    };
    Some((at, message.to_owned()))
}

/// One party's side of a `run_until` call, the same at every thread count
/// (a lone party passes each barrier at once). `at` names the shard whose
/// window is running, for [`run_party`]'s panic report.
fn run_rounds(
    chunk: &mut [ShardCore],
    shared: &Shared,
    deadline_us: u64,
    party: usize,
    parties: usize,
    at: &mut usize,
) {
    let lookahead_us = chunk[0].plan.lookahead_us;
    let wait = |leader: &mut ShardCore| {
        let arrived = Instant::now();
        let released = shared.barrier.wait(parties);
        leader.tally.barrier_wait += arrived.elapsed();
        released
    };
    let mut round = 0usize;
    // Phase 1: all sends of the previous window are in the mailboxes once
    // everyone arrives.
    while wait(&mut chunk[0]) {
        let mut local_min = u64::MAX;
        for core in chunk.iter_mut() {
            core.drain_mailbox(&shared.mailboxes[core.idx]);
            local_min = local_min.min(core.next_time_us());
        }
        shared.min_slots[(round + 1) % 2].store(u64::MAX, Ordering::Relaxed);
        shared.min_slots[round % 2].fetch_min(local_min, Ordering::AcqRel);
        // Phase 2: the global minimum is complete.
        if !wait(&mut chunk[0]) {
            break;
        }
        let min_us = shared.min_slots[round % 2].load(Ordering::Acquire);
        if min_us > deadline_us {
            break;
        }
        let window_end = window_end_us(min_us, lookahead_us, deadline_us);
        WINDOW.set(round);
        for core in chunk.iter_mut() {
            *at = core.idx;
            core.run_window(window_end, &shared.mailboxes);
        }
        round += 1;
        shared.finished[party].store(round, Ordering::Release);
    }
}

/// One shard: a self-contained event loop over the hosts it owns plus a
/// replica of the live topology.
struct ShardCore {
    idx: usize,
    seed: u64,
    plan: Arc<ShardPlan>,
    now: SimTime,
    queue: CalendarQueue<Event>,
    /// Node behaviors by dense index; `None` for hosts on other shards.
    nodes: Vec<Option<Box<dyn Node>>>,
    /// This shard's replica of the live topology — link specs, link and
    /// host up/down — kept identical on every shard by broadcast actions.
    topology: NetworkTopology,
    /// Per-direction link state by `2 × link slot + direction` (see
    /// [`ShardCore::dir_at`]); only the source host's shard uses an entry.
    dirs: Vec<LinkDir>,
    /// `(reliability, bandwidth)` of each link before its degrade episode.
    degraded: BTreeMap<HostPair, (f64, f64)>,
    /// Per-host event sequence counters (bumped only for owned hosts).
    host_seq: Vec<u64>,
    stats: NetStats,
    telemetry: Telemetry,
    /// Timers that fired while their (owned) host was down; replayed on
    /// restart.
    deferred_timers: BTreeMap<u32, Vec<u64>>,
    /// Every fault action installed so far, shared by all shards.
    faults: Arc<Vec<FaultAction>>,
    /// Cross-shard messages produced this window, one outbox per
    /// destination shard, each appended to its mailbox under one lock at
    /// window end.
    outbound: Vec<Vec<Mail>>,
    /// The mailbox's contents while they are queued; swapped with the
    /// mailbox's buffer so both keep their capacity.
    inbox: Vec<Mail>,
    tally: WindowTally,
    scratch: Vec<NodeAction>,
    /// Events processed, a broadcast action only on the shard that
    /// journals it.
    processed: u64,
    /// Deliveries this shard scheduled (into its own queue or `outbound`)
    /// and deliveries it popped; the difference, summed over shards, is
    /// [`ShardedSimulator::in_flight`].
    flights_started: u64,
    flights_landed: u64,
}

impl ShardCore {
    fn new(idx: usize, seed: u64, plan: Arc<ShardPlan>, topology: &NetworkTopology) -> Self {
        let (n, shards) = (plan.hosts().len(), plan.shards());
        ShardCore {
            idx,
            seed,
            plan,
            now: SimTime::ZERO,
            queue: CalendarQueue::new(),
            nodes: (0..n).map(|_| None).collect(),
            topology: topology.clone(),
            dirs: vec![FRESH_DIR; 2 * topology.link_slot_count()],
            degraded: BTreeMap::new(),
            host_seq: vec![0; n],
            stats: NetStats::new(),
            telemetry: Telemetry::disabled(),
            deferred_timers: BTreeMap::new(),
            faults: Arc::new(Vec::new()),
            outbound: (0..shards).map(|_| Vec::new()).collect(),
            inbox: Vec::new(),
            tally: WindowTally::default(),
            scratch: Vec::new(),
            processed: 0,
            flights_started: 0,
            flights_landed: 0,
        }
    }

    /// Index into `dirs` of the direction `src → dst`, if a link between
    /// the two was configured.
    fn dir_at(&self, src: HostId, dst: HostId) -> Option<usize> {
        Some(2 * self.topology.link_slot(src, dst)? + usize::from(src > dst))
    }

    /// The stat slot of the pair behind the direction `src → dst` at `at` —
    /// resolved through the ordered pair index only on first touch.
    fn dir_stats(&mut self, at: usize, src: HostId, dst: HostId) -> u32 {
        let dir = &mut self.dirs[at];
        if dir.stats == NO_LINK_STATS {
            dir.stats = self.stats.slot(src, dst);
        }
        dir.stats
    }

    fn next_key(&mut self, kind: u64, dense: u32) -> u64 {
        let seq = self.host_seq[dense as usize];
        self.host_seq[dense as usize] += 1;
        pack_key(kind, dense, seq)
    }

    /// Drains this shard's mailbox into the local queue. Insertion order is
    /// irrelevant: the calendar queue pops in `(time, key)` order.
    fn drain_mailbox(&mut self, mailbox: &Mailbox) {
        std::mem::swap(
            &mut *mailbox.lock().expect("mailbox poisoned"),
            &mut self.inbox,
        );
        self.tally.deepest_mailbox = self.tally.deepest_mailbox.max(self.inbox.len() as u64);
        for (time, key, msg) in self.inbox.drain(..) {
            self.queue.push(time, key, Event::Deliver { msg });
        }
    }

    /// Appends each outbox to its mailbox, under one lock per destination,
    /// and tallies how many messages crossed.
    fn flush(&mut self, mailboxes: &[Mailbox]) {
        for (outbox, mailbox) in self.outbound.iter_mut().zip(mailboxes) {
            if !outbox.is_empty() {
                self.tally.cross_shard += outbox.len() as u64;
                mailbox.lock().expect("mailbox poisoned").append(outbox);
            }
        }
    }

    /// Earliest pending local event time, in microseconds.
    fn next_time_us(&mut self) -> u64 {
        self.queue
            .peek_time()
            .map(|t| t.as_micros())
            .unwrap_or(u64::MAX)
    }

    /// Processes every local event with `time < window_end_us`, then flushes
    /// cross-shard messages to the mailboxes and tallies the window.
    fn run_window(&mut self, window_end_us: u64, mailboxes: &[Mailbox]) {
        let processed = self.processed;
        loop {
            match self.queue.peek_time() {
                Some(t) if t.as_micros() < window_end_us => {}
                _ => break,
            }
            let (time, key, event) = self.queue.pop().expect("peeked");
            debug_assert!(time >= self.now, "time went backwards in shard");
            self.now = time;
            STAMP.set((time.as_micros(), key));
            self.telemetry.set_order(time.as_micros(), key);
            self.processed += u64::from(match &event {
                Event::Fault { index } => self.journals(&self.faults[*index]),
                _ => true,
            });
            self.handle(event);
        }
        self.flush(mailboxes);
        let events = self.processed - processed;
        self.tally.rounds += 1;
        self.tally.max_window_events = self.tally.max_window_events.max(events);
        if events == 0 {
            self.tally.idle_rounds += 1;
        }
    }

    fn handle(&mut self, event: Event) {
        match event {
            Event::Start { host } => {
                self.run_callback(host, |node, ctx| node.on_start(ctx));
            }
            Event::Deliver { msg } => {
                self.flights_landed += 1;
                let (src, dst, bytes) = (msg.src, msg.dst, msg.size);
                // The receiver's shard accounts the delivery, so it reads
                // the pair's stat slot off the direction it owns: the
                // reverse one (absent only for loopback).
                let stats = match self.dir_at(dst, src) {
                    Some(at) => self.dir_stats(at, dst, src),
                    None => NO_LINK_STATS,
                };
                if self.topology.host_is_up(dst) {
                    self.stats.record_delivered(stats, bytes);
                    self.run_callback(dst, |node, ctx| node.on_message(ctx, msg));
                } else {
                    self.stats.record_disconnected(stats);
                    self.record_drop(src, dst, "host_down");
                }
            }
            Event::Timer { host, token } => {
                let dense = self.plan.dense(host);
                if self.topology.host_is_up(host) {
                    self.run_callback(host, |node, ctx| node.on_timer(ctx, token));
                } else if self.nodes[dense as usize].is_some() {
                    // Defer instead of dropping: replayed on restart so the
                    // host's periodic loops survive the crash.
                    self.deferred_timers.entry(dense).or_default().push(token);
                }
            }
            Event::Fault { index } => {
                // Span IDs come from a per-action generator, so they are
                // identical under any layout.
                let action = self.faults[index].clone();
                let tracer = SpanIdGen::new(DOMAIN_NET, index as u32 + 1);
                let root = tracer.root();
                if self.journals(&action) {
                    self.telemetry
                        .event("net.fault", self.now.as_micros())
                        .field("action", action.label())
                        .trace(root)
                        .emit();
                }
                self.apply(&action, Some((&tracer, root)));
            }
        }
    }

    fn run_callback(&mut self, host: HostId, f: impl FnOnce(&mut dyn Node, &mut NodeCtx<'_>)) {
        let dense = self.plan.dense(host);
        let Some(node) = self.nodes[dense as usize].as_mut() else {
            return;
        };
        self.scratch.clear();
        f(
            node.as_mut(),
            &mut NodeCtx::new(host, self.now, &mut self.scratch),
        );
        // The buffer is lent out while its actions run (they re-enter
        // `self`) and handed back with its capacity.
        let mut actions = std::mem::take(&mut self.scratch);
        for action in actions.drain(..) {
            match action {
                NodeAction::Send { dst, payload, size } => {
                    self.dispatch_send(host, dst, payload, size)
                }
                NodeAction::SetTimer { delay, token } => {
                    let key = self.next_key(KIND_TIMER, dense);
                    let at = self.now + delay;
                    self.queue.push(at, key, Event::Timer { host, token });
                }
            }
        }
        self.scratch = actions;
    }

    fn record_drop(&self, src: HostId, dst: HostId, reason: &'static str) {
        self.telemetry
            .event("net.link.drop", self.now.as_micros())
            .field("src", src.raw())
            .field("dst", dst.raw())
            .field("reason", reason)
            .emit();
    }

    /// Routes one message: the live spec and up/down state from the topology
    /// replica, counter-hash loss, one medium per direction. Cross-shard
    /// deliveries go to `outbound`.
    fn dispatch_send(&mut self, src: HostId, dst: HostId, payload: Vec<u8>, size: u64) {
        let src_dense = self.plan.dense(src);
        let now = self.now;
        let msg = Message {
            src,
            dst,
            payload,
            size,
            sent_at: now,
        };
        if src == dst {
            // Loopback: immediate delivery if the host is up.
            self.stats.record_sent(NO_LINK_STATS);
            if self.topology.host_is_up(src) {
                let key = self.next_key(KIND_DELIVER, src_dense);
                self.flights_started += 1;
                self.queue.push(now, key, Event::Deliver { msg });
            } else {
                self.stats.record_disconnected(NO_LINK_STATS);
                self.record_drop(src, dst, "host_down");
            }
            return;
        }
        let at = self.dir_at(src, dst);
        // No configured link: the pair is still accounted, by its index.
        let stats = match at {
            Some(at) => self.dir_stats(at, src, dst),
            None => self.stats.slot(src, dst),
        };
        self.stats.record_sent(stats);
        let ends_up = self.topology.host_is_up(src) && self.topology.host_is_up(dst);
        let link = at.map(|at| (at, *self.topology.link_at(at / 2)));
        let Some((at, LinkState { spec, .. })) = link.filter(|(_, link)| link.up && ends_up) else {
            self.stats.record_disconnected(stats);
            self.record_drop(src, dst, "disconnected");
            return;
        };
        let dst_dense = self.plan.dense(dst);
        let dir = &mut self.dirs[at];
        let counter = dir.loss_counter;
        dir.loss_counter += 1;
        let stream = (u64::from(src_dense) << 32) | u64::from(dst_dense);
        if unit_draw(self.seed, stream, counter) >= spec.reliability.clamp(0.0, 1.0) {
            self.stats.record_loss(stats);
            self.record_drop(src, dst, "loss");
            return;
        }
        // The transmission starts when this direction frees up and holds it
        // for the serialization time; propagation delay then overlaps the
        // next transmission.
        let done = dir.busy_until.max(now) + Duration::from_secs_f64(size as f64 / spec.bandwidth);
        dir.busy_until = done;
        let deliver_at = done + Duration::from_secs_f64(spec.delay);
        let key = self.next_key(KIND_DELIVER, src_dense);
        self.flights_started += 1;
        let dst_shard = self.plan.shard_of_dense(dst_dense);
        if dst_shard == self.idx {
            self.queue.push(deliver_at, key, Event::Deliver { msg });
        } else {
            self.outbound[dst_shard].push((deliver_at, key, msg));
        }
    }

    /// Whether this shard journals a broadcast action. Host actions belong
    /// to the host's shard, link actions to the lower endpoint's shard,
    /// partitions to shard 0 — any fixed deterministic rule works; one shard
    /// emitting keeps the merged journal identical to a single-shard run.
    fn journals(&self, action: &FaultAction) -> bool {
        let shard = match action {
            FaultAction::HostDown(h) | FaultAction::HostUp(h) => self.plan.shard_of(*h),
            FaultAction::PartitionStart(_) | FaultAction::PartitionHeal(_) => 0,
            FaultAction::Degrade { a, b, .. }
            | FaultAction::Restore(a, b)
            | FaultAction::LinkDown(a, b)
            | FaultAction::LinkUp(a, b) => self.plan.shard_of(HostPair::new(*a, *b).lo()),
        };
        shard == self.idx
    }

    /// Applies one topology action to this shard's replica. Every shard runs
    /// it (replicas must stay in sync); only the designated shard journals,
    /// with each record a child span of `trace`'s root when it comes from a
    /// fault plan.
    fn apply(&mut self, action: &FaultAction, trace: Option<(&SpanIdGen, TraceCtx)>) {
        let journal = self.journals(action);
        let t_us = self.now.as_micros();
        let child = || trace.map(|(tracer, root)| tracer.child(&root));
        match action {
            FaultAction::HostDown(h) => self.set_host_up(*h, false, journal, child),
            FaultAction::HostUp(h) => self.set_host_up(*h, true, journal, child),
            FaultAction::PartitionStart(groups) => {
                self.topology.partition(groups);
                if journal {
                    self.telemetry
                        .event("net.partition", t_us)
                        .field("groups", groups.len())
                        .field("hosts", groups.iter().map(Vec::len).sum::<usize>())
                        .trace_opt(child())
                        .emit();
                }
            }
            FaultAction::PartitionHeal(groups) => {
                self.topology.heal_between(groups);
                if journal {
                    let heal = self.telemetry.event("net.partition.heal", t_us);
                    heal.trace_opt(child()).emit();
                }
            }
            FaultAction::Degrade {
                a,
                b,
                reliability_factor,
                bandwidth_factor,
            } => {
                if let Some(link) = self.topology.link_mut(*a, *b) {
                    let spec = &mut link.spec;
                    let saved = (spec.reliability, spec.bandwidth);
                    self.degraded.entry(HostPair::new(*a, *b)).or_insert(saved);
                    spec.reliability = (spec.reliability * reliability_factor).clamp(0.0, 1.0);
                    spec.bandwidth = (spec.bandwidth * bandwidth_factor).max(1.0);
                }
            }
            FaultAction::Restore(a, b) => {
                let saved = self.degraded.remove(&HostPair::new(*a, *b));
                if let (Some((reliability, bandwidth)), Some(link)) =
                    (saved, self.topology.link_mut(*a, *b))
                {
                    link.spec.reliability = reliability;
                    link.spec.bandwidth = bandwidth;
                }
            }
            FaultAction::LinkDown(a, b) | FaultAction::LinkUp(a, b) => {
                let up = matches!(action, FaultAction::LinkUp(..));
                self.topology.set_link_up(*a, *b, up);
                if journal {
                    self.telemetry
                        .event("net.link.state", t_us)
                        .field("a", a.raw())
                        .field("b", b.raw())
                        .field("up", up)
                        .trace_opt(child())
                        .emit();
                }
            }
        }
    }

    fn set_host_up(
        &mut self,
        host: HostId,
        up: bool,
        journal: bool,
        child: impl Fn() -> Option<TraceCtx>,
    ) {
        let dense = self.plan.dense(host);
        let was_up = self.topology.host_is_up(host);
        self.topology.set_host_up(host, up);
        let t_us = self.now.as_micros();
        if journal {
            self.telemetry
                .event("net.host.state", t_us)
                .field("host", host.raw())
                .field("up", up)
                .trace_opt(child())
                .emit();
        }
        if up && self.plan.shard_of_dense(dense) == self.idx {
            // The restart hook runs first: the node rebuilds its state
            // (durable replay) before any deferred timer fires and before
            // any same-instant queued event is delivered. A redundant "up"
            // on a host that never went down is not a restart.
            if !was_up {
                self.run_callback(host, |node, ctx| node.on_restart(ctx));
            }
            if let Some(tokens) = self.deferred_timers.remove(&dense) {
                if journal {
                    self.telemetry
                        .event("net.host.timer.replay", t_us)
                        .field("host", host.raw())
                        .field("timers", tokens.len())
                        .trace_opt(child())
                        .emit();
                }
                for token in tokens {
                    let key = self.next_key(KIND_TIMER, dense);
                    self.queue.push(self.now, key, Event::Timer { host, token });
                }
            }
        }
    }
}

/// The sharded conservative-PDES simulator.
///
/// See the [module docs](self) for the synchronization protocol and the
/// determinism rules. Highlights of the contract:
///
/// * [`ShardedSimulator::run_until`] takes a thread count; **results are
///   byte-identical for every `(shard count, thread count)` combination.**
/// * Each shard journals into its own [`Telemetry`] handle (install with
///   [`ShardedSimulator::set_telemetry`]); export the merged global journal
///   with [`ShardedSimulator::export_merged_jsonl`].
/// * Fault plans and link edits between runs are broadcast to every
///   shard's topology replica.
pub struct ShardedSimulator {
    plan: Arc<ShardPlan>,
    cores: Vec<ShardCore>,
    now: SimTime,
    shared: Arc<Shared>,
    /// Kept shard threads, started when a call first asks for them; worker
    /// `i` runs chunk `i + 1` (the calling thread runs chunk 0).
    workers: Vec<Worker>,
}

impl Drop for ShardedSimulator {
    fn drop(&mut self) {
        for Worker { jobs, thread, .. } in self.workers.drain(..) {
            drop(jobs);
            // A worker only panics with its chunk lent, which `run_until`
            // has already reported.
            let _ = thread.join();
        }
    }
}

impl std::fmt::Debug for ShardedSimulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedSimulator")
            .field("now", &self.now)
            .field("shards", &self.cores.len())
            .field("hosts", &self.plan.hosts().len())
            .field("lookahead", &self.plan.lookahead())
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl ShardedSimulator {
    /// Builds a sharded simulator over `topology`, partitioned into
    /// `shards` shards (see [`ShardPlan`]). Every shard starts
    /// from a replica of the topology.
    pub fn new(seed: u64, topology: &NetworkTopology, shards: usize) -> Self {
        let plan = Arc::new(ShardPlan::partition(topology, shards));
        let cores = (0..plan.shards())
            .map(|idx| ShardCore::new(idx, seed, plan.clone(), topology))
            .collect();
        let shared = Arc::new(Shared {
            mailboxes: (0..plan.shards()).map(|_| Mutex::default()).collect(),
            min_slots: [AtomicU64::new(u64::MAX), AtomicU64::new(u64::MAX)],
            barrier: RoundBarrier::default(),
            finished: (0..plan.shards()).map(|_| AtomicUsize::new(0)).collect(),
            waiting: Mutex::new(vec![None; plan.shards()]),
        });
        ShardedSimulator {
            plan,
            cores,
            now: SimTime::ZERO,
            shared,
            workers: Vec::new(),
        }
    }

    /// The placement plan.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// The current simulated time (the deadline of the last
    /// [`run_until`](Self::run_until) call).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The live topology: link specs, link and host up/down as broadcast
    /// actions left them (every shard holds the same replica between runs).
    pub fn topology(&self) -> &NetworkTopology {
        &self.cores[0].topology
    }

    /// Registers a node on `host` and schedules its [`Node::on_start`]. A
    /// host the plan does not know yet joins shard 0 with the next dense
    /// index.
    ///
    /// # Panics
    ///
    /// Panics if the host already carries a node.
    pub fn add_host(&mut self, host: HostId, node: impl Node) {
        self.register(host);
        let dense = self.plan.dense(host);
        let now = self.now;
        let core = &mut self.cores[self.plan.shard_of_dense(dense)];
        let slot = &mut core.nodes[dense as usize];
        assert!(slot.is_none(), "host {host} already has a node");
        *slot = Some(Box::new(node));
        let key = pack_key(KIND_START, dense, 0);
        core.queue.push(now, key, Event::Start { host });
    }

    /// Adds `host` to shard 0 of a plan that lacks it (see [`ShardPlan`]).
    fn register(&mut self, host: HostId) {
        if self.plan.try_dense(host).is_some() {
            return;
        }
        let mut plan = ShardPlan::clone(&self.plan);
        plan.push(host);
        self.share(plan);
        for core in &mut self.cores {
            core.nodes.push(None);
            core.host_seq.push(0);
            core.topology.add_host(host);
        }
    }

    /// Makes `plan` the plan of the simulator and of every shard.
    fn share(&mut self, plan: ShardPlan) {
        self.plan = Arc::new(plan);
        for core in &mut self.cores {
            core.plan = self.plan.clone();
        }
    }

    /// Creates or replaces the link between `a` and `b` on every shard's
    /// replica, between runs, registering hosts it does not know yet. A
    /// link across shards with a shorter delay lowers the lookahead to it,
    /// but not below 1 µs (see the [module docs](self)).
    ///
    /// # Panics
    ///
    /// Panics if the spec is invalid or `a == b`.
    pub fn set_link(&mut self, a: HostId, b: HostId, spec: LinkSpec) {
        self.register(a);
        self.register(b);
        let delay_us = ((spec.delay * 1e6) as u64).max(1);
        if self.plan.shard_of(a) != self.plan.shard_of(b) && delay_us < self.plan.lookahead_us {
            let mut plan = ShardPlan::clone(&self.plan);
            plan.lookahead_us = delay_us;
            self.share(plan);
        }
        for core in &mut self.cores {
            core.topology.set_link(a, b, spec);
            let dirs = 2 * core.topology.link_slot_count();
            core.dirs.resize(dirs, FRESH_DIR);
        }
    }

    /// Applies a topology action to every shard now, between runs, and
    /// journals it untraced — the one-shard face's direct topology calls.
    pub(crate) fn apply(&mut self, action: &FaultAction) {
        for core in &mut self.cores {
            core.apply(action, None);
            core.flush(&self.shared.mailboxes);
        }
    }

    /// Sends a message from outside any node, now, between runs.
    pub(crate) fn inject(&mut self, src: HostId, dst: HostId, payload: Vec<u8>, size: u64) {
        let core = &mut self.cores[self.plan.shard_of(src)];
        core.dispatch_send(src, dst, payload, size);
        core.flush(&self.shared.mailboxes);
    }

    /// When the earliest queued or mailed event is due, if any (a send
    /// between runs may wait in a mailbox).
    pub(crate) fn next_event_time(&mut self) -> Option<SimTime> {
        let queued = self.cores.iter_mut().filter_map(|c| c.queue.peek_time());
        let mailed = self.shared.mailboxes.iter().filter_map(|mailbox| {
            let mail = mailbox.lock().expect("mailbox poisoned");
            mail.iter().map(|(time, ..)| *time).min()
        });
        queued.chain(mailed).min()
    }

    /// Installs per-shard telemetry handles (one per shard, index-aligned).
    /// Journals are order-stamped so [`Self::export_merged_jsonl`] can
    /// reconstruct the global record order.
    ///
    /// # Panics
    ///
    /// Panics unless exactly one handle per shard is given.
    pub fn set_telemetry(&mut self, handles: Vec<Telemetry>) {
        assert_eq!(
            handles.len(),
            self.cores.len(),
            "need exactly one telemetry handle per shard"
        );
        for (core, telemetry) in self.cores.iter_mut().zip(handles) {
            core.telemetry = telemetry;
        }
    }

    /// The merged journal of all shards in global `(time, key)` order —
    /// byte-identical for every shard/thread count (see
    /// [`redep_telemetry::merge_export_jsonl`]).
    pub fn export_merged_jsonl(&self) -> String {
        let handles: Vec<&Telemetry> = self.cores.iter().map(|c| &c.telemetry).collect();
        redep_telemetry::merge_export_jsonl(&handles)
    }

    /// Installs a fault plan: every episode is expanded into timed topology
    /// actions ([`FaultPlan::expand`]), each broadcast into every shard's
    /// queue under the same key (all replicas apply it; one shard journals
    /// it as `net.fault`, the root of a trace the effects link back to) —
    /// see the [module docs](self). Times are absolute simulated seconds;
    /// actions already in the past run at the current instant. Plans
    /// installed later add to the earlier ones.
    pub fn install_fault_plan(&mut self, plan: &FaultPlan) {
        let expanded = plan.expand();
        let first = self.cores[0].faults.len();
        let mut faults = Vec::clone(&self.cores[0].faults);
        faults.extend(expanded.iter().map(|(_, action)| action.clone()));
        let faults = Arc::new(faults);
        let start = self.now;
        for core in &mut self.cores {
            core.faults = faults.clone();
            for (index, (time, _)) in (first..).zip(&expanded) {
                let key = pack_key(KIND_BROADCAST, 0, index as u64);
                core.queue
                    .push((*time).max(start), key, Event::Fault { index });
            }
        }
    }

    /// Ground-truth statistics, merged across shards. Exact: every message
    /// is accounted in exactly one shard (its sender's).
    pub fn stats(&self) -> NetStats {
        let mut total = NetStats::new();
        for core in &self.cores {
            total.merge(&core.stats);
        }
        total
    }

    /// Messages accepted by the network but not yet delivered. With the
    /// merged statistics this makes conservation checkable whenever the
    /// simulator is stopped: `sent == delivered + dropped + in_flight`.
    pub fn in_flight(&self) -> usize {
        let started: u64 = self.cores.iter().map(|c| c.flights_started).sum();
        let landed: u64 = self.cores.iter().map(|c| c.flights_landed).sum();
        (started - landed) as usize
    }

    /// The first shard's telemetry handle — at one shard the only one, and
    /// where engine-wide gauges go ([`Self::publish_gauges`]).
    pub fn telemetry(&self) -> &Telemetry {
        &self.cores[0].telemetry
    }

    /// Folds the merged ground-truth [`NetStats`] into the first shard's
    /// `net.truth.*` gauges (see [`NetStats::publish_gauges`]).
    pub fn publish_gauges(&self) {
        self.stats().publish_gauges(self.telemetry().metrics());
    }

    /// Borrows the node on `host`, downcast to its concrete type (`None`
    /// also for a host the simulator does not know).
    pub fn node_ref<T: Node>(&self, host: HostId) -> Option<&T> {
        let dense = self.plan.try_dense(host)?;
        self.cores[self.plan.shard_of_dense(dense)].nodes[dense as usize]
            .as_deref()
            .and_then(|n| (n as &dyn Any).downcast_ref::<T>())
    }

    /// Mutably borrows the node on `host`, downcast to its concrete type
    /// (`None` also for a host the simulator does not know).
    pub fn node_mut<T: Node>(&mut self, host: HostId) -> Option<&mut T> {
        let dense = self.plan.try_dense(host)?;
        self.cores[self.plan.shard_of_dense(dense)].nodes[dense as usize]
            .as_deref_mut()
            .and_then(|n| (n as &mut dyn Any).downcast_mut::<T>())
    }

    /// The window protocol's report on itself.
    pub fn round_stats(&self) -> RoundStats {
        let each = |f: fn(&ShardCore) -> u64| self.cores.iter().map(f).collect::<Vec<_>>();
        let cross_shard = each(|c| c.tally.cross_shard).iter().sum();
        let shard_events = each(|c| c.processed);
        RoundStats {
            rounds: self.cores[0].tally.rounds,
            events: shard_events.iter().sum(),
            shard_events,
            max_window_events: each(|c| c.tally.max_window_events),
            idle_rounds: each(|c| c.tally.idle_rounds),
            cross_shard,
            same_shard: each(|c| c.flights_started).iter().sum::<u64>() - cross_shard,
            deepest_mailbox: each(|c| c.tally.deepest_mailbox)
                .into_iter()
                .max()
                .unwrap_or(0),
            lookahead_us: self.plan.lookahead_us,
        }
    }

    /// Wall-clock seconds each thread has waited at the round barrier, by
    /// the first shard of its chunk (zero for the others): what shard
    /// imbalance, or a missing core, costs. For reports only.
    pub fn barrier_wait_secs(&self) -> Vec<f64> {
        let waits = self.cores.iter().map(|c| c.tally.barrier_wait);
        waits.map(|wait| wait.as_secs_f64()).collect()
    }

    /// Runs the simulation up to and including `deadline`, using up to
    /// `threads` OS threads (clamped to the shard count): the calling
    /// thread plus kept workers, which the simulator starts on first need
    /// and ends when it drops (see the [module docs](self), *Threading*).
    /// Returns the number of events processed, a broadcast action once.
    ///
    /// The result — journals, statistics, node state — is byte-identical
    /// for every thread count, and for every shard count of the same
    /// topology and seed.
    ///
    /// # Panics
    ///
    /// Re-raises a panic out of a node callback, naming its shard.
    pub fn run_until(&mut self, deadline: SimTime, threads: usize) -> u64 {
        let shards = self.cores.len();
        let deadline_us = deadline.as_micros();
        let before: u64 = self.cores.iter().map(|c| c.processed).sum();
        let chunk_size = shards.div_ceil(threads.clamp(1, shards));
        let parties = shards.div_ceil(chunk_size);
        while self.workers.len() + 1 < parties {
            self.workers.push(spawn_worker(self.shared.clone()));
        }
        // No party is inside the protocol between calls: start it clean,
        // also after a call that was aborted.
        let shared = &*self.shared;
        shared.barrier.arrived.store(0, Ordering::Relaxed);
        shared.barrier.aborted.store(false, Ordering::Relaxed);
        for slot in &shared.min_slots {
            slot.store(u64::MAX, Ordering::Relaxed);
        }
        for finished in &shared.finished {
            finished.store(0, Ordering::Relaxed);
        }
        shared
            .waiting
            .lock()
            .expect("waiting list poisoned")
            .fill(None);
        // Lend every chunk but the first (the job channel publishes the
        // resets above to its worker), run the first here, take them back.
        let mut cores = std::mem::take(&mut self.cores);
        for party in (1..parties).rev() {
            let job = (
                cores.split_off(party * chunk_size),
                deadline_us,
                parties,
                party,
            );
            let lent = self.workers[party - 1].jobs.send(job);
            lent.expect("shard worker is gone");
        }
        let mut failure = run_party(&mut cores, &self.shared, deadline_us, (0, parties));
        for worker in &self.workers[..parties - 1] {
            let (mut chunk, failed) = recv_polling(&worker.returned).expect("shard worker is gone");
            cores.append(&mut chunk);
            failure = failure.or(failed);
        }
        self.cores = cores;
        if let Some((shard, message)) = failure {
            panic!("a node callback on shard {shard} panicked: {message}");
        }
        for core in &mut self.cores {
            core.now = core.now.max(deadline);
        }
        self.now = self.now.max(deadline);
        self.cores.iter().map(|c| c.processed).sum::<u64>() - before
    }
}

/// Exclusive end of the window starting at `min_us`: one lookahead ahead,
/// but never past the deadline (events *at* the deadline still run).
fn window_end_us(min_us: u64, lookahead_us: u64, deadline_us: u64) -> u64 {
    min_us
        .saturating_add(lookahead_us)
        .min(deadline_us.saturating_add(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::LinkSpec;
    use proptest::prelude::*;

    fn h(n: u32) -> HostId {
        HostId::new(n)
    }

    /// Counts everything it receives.
    struct Sink {
        received: Vec<Message>,
    }
    impl Node for Sink {
        fn on_message(&mut self, _ctx: &mut NodeCtx<'_>, msg: Message) {
            self.received.push(msg);
        }
    }
    fn sink() -> Sink {
        Sink {
            received: Vec::new(),
        }
    }

    /// Sends `count` messages of `size` bytes to `peer` on start.
    struct Burst {
        peer: HostId,
        count: u32,
        size: u64,
    }
    impl Node for Burst {
        fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
            for i in 0..self.count {
                ctx.send(self.peer, vec![i as u8], self.size);
            }
        }
    }

    /// Periodically pings every peer in turn.
    struct Gossip {
        peers: Vec<HostId>,
        at: usize,
        got: u32,
        /// The threads its message callbacks ran on.
        ran_on: Vec<std::thread::ThreadId>,
    }
    impl Node for Gossip {
        fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
            ctx.set_timer(Duration::from_millis(10), 0);
        }
        fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _token: u64) {
            if !self.peers.is_empty() {
                let peer = self.peers[self.at % self.peers.len()];
                self.at += 1;
                ctx.send(peer, vec![1, 2, 3], 64);
            }
            ctx.set_timer(Duration::from_millis(10), 0);
        }
        fn on_message(&mut self, _ctx: &mut NodeCtx<'_>, _msg: Message) {
            self.got += 1;
            let thread = std::thread::current().id();
            if !self.ran_on.contains(&thread) {
                self.ran_on.push(thread);
            }
        }
    }

    /// A ring topology of `n` hosts with the given delay.
    fn ring(n: u32, delay: f64) -> NetworkTopology {
        let mut topo = NetworkTopology::new();
        for i in 0..n {
            topo.set_link(
                h(i),
                h((i + 1) % n),
                LinkSpec {
                    reliability: 1.0,
                    bandwidth: 1e6,
                    delay,
                },
            );
        }
        topo
    }

    fn gossip_sim(topo: &NetworkTopology, shards: usize, seed: u64) -> ShardedSimulator {
        let mut sim = ShardedSimulator::new(seed, topo, shards);
        let hosts = sim.plan().hosts().to_vec();
        for host in &hosts {
            let peers: Vec<HostId> = hosts.iter().copied().filter(|p| p != host).collect();
            sim.add_host(
                *host,
                Gossip {
                    peers,
                    at: host.raw() as usize,
                    got: 0,
                    ran_on: Vec::new(),
                },
            );
        }
        sim.set_telemetry((0..shards).map(|_| Telemetry::default()).collect());
        sim
    }

    #[test]
    fn plan_partition_is_deterministic_and_balanced() {
        let topo = ring(8, 0.001);
        let plan = ShardPlan::partition(&topo, 4);
        assert_eq!(plan.shards(), 4);
        let mut per_shard = [0usize; 4];
        for host in plan.hosts() {
            per_shard[plan.shard_of(*host)] += 1;
        }
        assert_eq!(per_shard, [2, 2, 2, 2]);
        assert_eq!(plan.lookahead(), Duration::from_millis(1));
        let again = ShardPlan::partition(&topo, 4);
        for host in plan.hosts() {
            assert_eq!(plan.shard_of(*host), again.shard_of(*host));
        }
    }

    #[test]
    fn zero_delay_links_never_cross_shards() {
        let mut topo = NetworkTopology::new();
        // 0–1 with zero delay must co-locate; 1–2 has delay.
        topo.set_link(
            h(0),
            h(1),
            LinkSpec {
                delay: 0.0,
                ..LinkSpec::default()
            },
        );
        topo.set_link(
            h(1),
            h(2),
            LinkSpec {
                delay: 0.002,
                ..LinkSpec::default()
            },
        );
        let plan = ShardPlan::partition(&topo, 2);
        assert_eq!(plan.shard_of(h(0)), plan.shard_of(h(1)));
        assert_eq!(plan.lookahead(), Duration::from_millis(2));
    }

    #[test]
    fn perfect_link_delivers_across_shards() {
        let mut topo = NetworkTopology::new();
        topo.set_link(h(0), h(1), LinkSpec::default());
        let mut sim = ShardedSimulator::new(1, &topo, 2);
        assert_ne!(sim.plan().shard_of(h(0)), sim.plan().shard_of(h(1)));
        sim.add_host(
            h(0),
            Burst {
                peer: h(1),
                count: 10,
                size: 100,
            },
        );
        sim.add_host(h(1), sink());
        sim.run_until(SimTime::from_secs_f64(1.0), 2);
        assert_eq!(sim.stats().delivered, 10);
        assert_eq!(sim.node_ref::<Sink>(h(1)).unwrap().received.len(), 10);
    }

    #[test]
    fn unreliable_link_drops_roughly_proportionally() {
        let mut topo = NetworkTopology::new();
        topo.set_link(
            h(0),
            h(1),
            LinkSpec {
                reliability: 0.7,
                ..LinkSpec::default()
            },
        );
        let mut sim = ShardedSimulator::new(7, &topo, 2);
        sim.add_host(
            h(0),
            Burst {
                peer: h(1),
                count: 1000,
                size: 10,
            },
        );
        sim.add_host(h(1), sink());
        sim.run_until(SimTime::from_secs_f64(10.0), 2);
        let stats = sim.stats();
        let ratio = stats.link(h(0), h(1)).delivery_ratio();
        assert!((ratio - 0.7).abs() < 0.05, "observed ratio {ratio}");
        assert_eq!(stats.sent, 1000);
        assert_eq!(stats.delivered + stats.dropped_loss, 1000);
    }

    #[test]
    fn journals_identical_across_shard_counts() {
        let topo = ring(9, 0.001);
        let reference = {
            let mut sim = gossip_sim(&topo, 1, 11);
            sim.run_until(SimTime::from_secs_f64(2.0), 1);
            sim.export_merged_jsonl()
        };
        assert!(!reference.is_empty());
        for shards in [2, 3, 4, 8] {
            let mut sim = gossip_sim(&topo, shards, 11);
            sim.run_until(SimTime::from_secs_f64(2.0), shards);
            assert_eq!(
                sim.export_merged_jsonl(),
                reference,
                "journal diverged at {shards} shards"
            );
        }
    }

    #[test]
    fn journals_identical_across_thread_counts() {
        let topo = ring(8, 0.001);
        let mut exports = Vec::new();
        for threads in [1, 2, 4, 8] {
            let mut sim = gossip_sim(&topo, 4, 5);
            sim.run_until(SimTime::from_secs_f64(2.0), threads);
            exports.push((threads, sim.export_merged_jsonl(), sim.stats()));
        }
        for (threads, export, stats) in &exports[1..] {
            assert_eq!(
                export, &exports[0].1,
                "journal diverged at {threads} threads"
            );
            assert_eq!(stats, &exports[0].2, "stats diverged at {threads} threads");
        }
    }

    #[test]
    fn double_run_is_byte_identical() {
        let topo = ring(6, 0.0015);
        let run = || {
            let mut sim = gossip_sim(&topo, 3, 9);
            sim.run_until(SimTime::from_secs_f64(1.5), 3);
            sim.export_merged_jsonl()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn fault_plan_applies_identically_across_shard_counts() {
        let topo = ring(8, 0.001);
        let plan = FaultPlan::new()
            .episode(0.3, 0.4, FaultKind::HostCrash { host: h(2) })
            .episode(
                0.5,
                0.5,
                FaultKind::Partition {
                    groups: vec![vec![h(0), h(1), h(2), h(3)], vec![h(4), h(5), h(6), h(7)]],
                },
            )
            .episode(
                0.2,
                1.0,
                FaultKind::LinkDegrade {
                    a: h(4),
                    b: h(5),
                    reliability_factor: 0.5,
                    bandwidth_factor: 0.25,
                },
            )
            .episode(
                0.1,
                1.2,
                FaultKind::LinkFlap {
                    a: h(6),
                    b: h(7),
                    period_secs: 0.2,
                },
            );
        let run = |shards: usize| {
            let mut sim = gossip_sim(&topo, shards, 3);
            sim.install_fault_plan(&plan);
            let events = sim.run_until(SimTime::from_secs_f64(2.0), shards);
            (sim.export_merged_jsonl(), sim.stats(), events)
        };
        let (reference_journal, reference_stats, reference_events) = run(1);
        assert!(reference_journal.contains("net.fault"));
        assert!(reference_journal.contains("net.host.state"));
        assert!(reference_journal.contains("net.partition"));
        for shards in [2, 4, 8] {
            let (journal, stats, events) = run(shards);
            assert_eq!(journal, reference_journal, "diverged at {shards} shards");
            assert_eq!(stats, reference_stats, "stats diverged at {shards} shards");
            // Every shard applies a broadcast action; one counts it.
            assert_eq!(events, reference_events, "events at {shards} shards");
        }
    }

    #[test]
    fn crashed_host_resumes_periodic_timers_on_restart() {
        let topo = ring(2, 0.001);
        let mut sim = gossip_sim(&topo, 2, 1);
        sim.install_fault_plan(&FaultPlan::new().episode(
            0.5,
            0.5,
            FaultKind::HostCrash { host: h(0) },
        ));
        sim.run_until(SimTime::from_secs_f64(2.0), 2);
        // Host 0 pings every 10 ms while up (~150 sends over 1.5 up-seconds)
        // and its peer answers nothing — but host 1 pings host 0 too, so
        // both accumulate receipts. The check: host 0's periodic loop
        // survived the crash (it kept sending after restart).
        let stats = sim.stats();
        assert!(
            stats.link(h(0), h(1)).sent > 120,
            "periodic loop died after crash: {:?}",
            stats.link(h(0), h(1))
        );
        // And the down window really dropped deliveries toward host 0.
        assert!(stats.dropped_disconnected > 0);
    }

    #[test]
    fn sequential_and_threaded_match_with_faults() {
        let topo = ring(6, 0.001);
        let plan = FaultPlan::new().episode(
            0.2,
            0.6,
            FaultKind::Partition {
                groups: vec![vec![h(0), h(1), h(2)], vec![h(3), h(4), h(5)]],
            },
        );
        let run = |threads: usize| {
            let mut sim = gossip_sim(&topo, 3, 2);
            sim.install_fault_plan(&plan);
            sim.run_until(SimTime::from_secs_f64(1.5), threads);
            (sim.export_merged_jsonl(), sim.stats())
        };
        assert_eq!(run(1), run(3));
    }

    #[test]
    fn run_until_can_be_resumed() {
        let topo = ring(4, 0.001);
        let mut split = gossip_sim(&topo, 2, 4);
        split.run_until(SimTime::from_secs_f64(0.7), 2);
        split.run_until(SimTime::from_secs_f64(1.4), 2);
        let mut whole = gossip_sim(&topo, 2, 4);
        whole.run_until(SimTime::from_secs_f64(1.4), 2);
        assert_eq!(split.export_merged_jsonl(), whole.export_merged_jsonl());
        assert_eq!(split.stats(), whole.stats());
    }

    use crate::faultplan::FaultKind;

    #[test]
    fn unknown_hosts_have_no_node() {
        let mut sim = gossip_sim(&ring(4, 0.001), 2, 1);
        assert!(sim.node_ref::<Gossip>(h(2)).is_some());
        assert!(sim.node_ref::<Gossip>(h(9)).is_none());
        assert!(sim.node_mut::<Gossip>(h(4)).is_none());
        assert!(sim.node_mut::<Sink>(h(1)).is_none(), "wrong type");
    }

    /// A between-run edit that shortens a cross-shard delay lowers the
    /// lookahead to it, and the run stays the one-shard run; a link under
    /// 1 µs that also transmits in under 1 µs lowers it to 1 µs, and
    /// carries traffic without a panic.
    #[test]
    fn a_link_edit_that_shortens_a_cross_shard_delay_lowers_the_lookahead() {
        let run = |shards: usize, spec: LinkSpec| {
            let mut sim = gossip_sim(&ring(4, 0.002), shards, 1);
            let (a, b) = (h(0), h(1));
            assert_eq!(sim.plan().shard_of(a), 0);
            assert_eq!(sim.plan().shard_of(b), shards - 1);
            sim.run_until(SimTime::from_secs_f64(0.1), shards);
            sim.set_link(a, b, spec);
            sim.run_until(SimTime::from_secs_f64(0.3), shards);
            let delivered = sim.stats().link(a, b).delivered;
            (sim.round_stats().lookahead_us, outcome(&sim).0, delivered)
        };
        let short = LinkSpec {
            delay: 0.0005,
            ..LinkSpec::default()
        };
        let (lookahead, journal, _) = run(2, short);
        assert_eq!(lookahead, 500);
        assert_eq!(journal, run(1, short).1);
        let instant = LinkSpec {
            delay: 0.0,
            bandwidth: 1e9,
            ..LinkSpec::default()
        };
        let (lookahead, _, delivered) = run(2, instant);
        assert_eq!(lookahead, 1);
        assert!(delivered > 0);
    }

    #[test]
    fn barrier_lets_nobody_pass_early() {
        // More parties than cores: waiters must make way for the late ones.
        for parties in [3usize, 8] {
            const GENERATIONS: usize = 10_000;
            let barrier = RoundBarrier::default();
            let arrivals = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                for _ in 0..parties {
                    scope.spawn(|| {
                        for generation in 0..GENERATIONS {
                            arrivals.fetch_add(1, Ordering::Relaxed);
                            assert!(barrier.wait(parties));
                            // Everyone has arrived for this generation, and
                            // nobody can be two arrivals ahead of this thread.
                            let seen = arrivals.load(Ordering::Relaxed);
                            assert!(seen >= (generation + 1) * parties, "passed early");
                            assert!(seen < (generation + 2) * parties, "lapped");
                        }
                    });
                }
            });
            assert_eq!(arrivals.into_inner(), GENERATIONS * parties);
        }
    }

    /// Crash and partition episodes that cross shard boundaries on `ring(8, _)`.
    fn crossing_faults() -> FaultPlan {
        FaultPlan::new()
            .episode(0.3, 0.4, FaultKind::HostCrash { host: h(2) })
            .episode(
                0.5,
                0.5,
                FaultKind::Partition {
                    groups: vec![vec![h(0), h(1), h(2), h(3)], vec![h(4), h(5), h(6), h(7)]],
                },
            )
    }

    fn faulty_gossip_sim(shards: usize) -> ShardedSimulator {
        let mut sim = gossip_sim(&ring(8, 0.001), shards, 6);
        sim.install_fault_plan(&crossing_faults());
        sim
    }

    fn outcome(sim: &ShardedSimulator) -> (String, NetStats, usize, RoundStats) {
        let journal = sim.export_merged_jsonl();
        (journal, sim.stats(), sim.in_flight(), sim.round_stats())
    }

    #[test]
    fn small_steps_keep_one_worker_beside_the_caller_and_match_one_long_call() {
        let mut whole = faulty_gossip_sim(2);
        whole.run_until(SimTime::from_secs_f64(2.0), 2);
        let mut stepped = faulty_gossip_sim(2);
        for step in 1..=200u64 {
            stepped.run_until(SimTime::from_micros(step * 10_000), 2);
        }
        assert_eq!(stepped.workers.len(), 1, "a worker is started once");
        // (Round counts differ: every deadline ends a window early.)
        assert_eq!(outcome(&stepped).0, outcome(&whole).0);
        assert_eq!(outcome(&stepped).1, outcome(&whole).1);
        assert_eq!(stepped.in_flight(), whole.in_flight());
        // Each chunk stayed on its thread, and the caller ran the first.
        let ran_on = |host| stepped.node_ref::<Gossip>(host).unwrap().ran_on.clone();
        let shard_of = |host| stepped.plan().shard_of(host);
        let on_worker = (0..8).map(h).find(|host| shard_of(*host) == 1).unwrap();
        assert_eq!(shard_of(h(0)), 0);
        assert_eq!(ran_on(h(0)), [std::thread::current().id()]);
        assert_eq!(ran_on(on_worker).len(), 1, "one kept worker over 200 calls");
        assert_ne!(ran_on(on_worker), ran_on(h(0)));
    }

    #[test]
    fn thread_count_may_change_between_calls() {
        let mut sequential = faulty_gossip_sim(4);
        let mut varying = faulty_gossip_sim(4);
        for (step, threads) in [2, 4, 1, 2].into_iter().enumerate() {
            let deadline = SimTime::from_secs_f64(0.5 * (step + 1) as f64);
            sequential.run_until(deadline, 1);
            varying.run_until(deadline, threads);
        }
        assert!(sequential.workers.is_empty());
        assert_eq!(varying.workers.len(), 3);
        assert_eq!(outcome(&varying), outcome(&sequential));
    }

    #[test]
    fn more_threads_than_shards_and_cores_completes() {
        let mut sim = faulty_gossip_sim(2);
        sim.run_until(SimTime::from_secs_f64(2.0), 8);
        assert_eq!(sim.workers.len(), 1, "threads are clamped to the shards");
        let mut reference = faulty_gossip_sim(2);
        reference.run_until(SimTime::from_secs_f64(2.0), 1);
        assert_eq!(outcome(&sim), outcome(&reference));
    }

    #[test]
    fn dropping_the_simulator_ends_its_workers() {
        fn assert_send<T: Send>() {}
        assert_send::<ShardedSimulator>();
        let mut sim = faulty_gossip_sim(4);
        sim.run_until(SimTime::from_secs_f64(0.2), 4);
        // Every worker holds the shared state for as long as it lives.
        let shared = Arc::downgrade(&sim.shared);
        assert_eq!(shared.strong_count(), 4);
        drop(sim);
        assert_eq!(shared.strong_count(), 0, "a worker outlived its simulator");
    }

    #[test]
    fn round_stats_are_exact_and_thread_count_invariant() {
        let run = |threads: usize| {
            let mut sim = faulty_gossip_sim(4);
            let events = sim.run_until(SimTime::from_secs_f64(2.0), threads);
            (events, sim)
        };
        let (events, sim) = run(1);
        let stats = sim.round_stats();
        assert_eq!(stats, run(2).1.round_stats());
        assert_eq!(stats, run(4).1.round_stats());
        assert_eq!(stats.events, events);
        assert_eq!(stats.lookahead_us, 1_000);
        assert!(stats.rounds > 100 && stats.rounds <= 2_001, "{stats:?}");
        for (most, events) in stats.max_window_events.iter().zip(&stats.shard_events) {
            assert!(*most >= events.div_ceil(stats.rounds) && most <= events);
        }
        assert_eq!(stats.idle_rounds.len(), 4);
        assert!(stats.idle_rounds.iter().all(|idle| *idle < stats.rounds));
        // A scheduled delivery is in flight, delivered, or dropped at a host
        // that crashed meanwhile; a message lost or refused at the sender
        // never was one.
        let (net, scheduled) = (sim.stats(), stats.cross_shard + stats.same_shard);
        assert!(scheduled >= net.delivered + sim.in_flight() as u64);
        assert!(scheduled <= net.sent - net.dropped_loss);
        assert!(stats.cross_shard > stats.same_shard && stats.deepest_mailbox > 0);
    }

    /// Gossips like its peers until `t = 0.5 s`, then panics in a callback.
    struct Bomb;
    impl Node for Bomb {
        fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
            ctx.set_timer(Duration::from_millis(500), 0);
        }
        fn on_timer(&mut self, _ctx: &mut NodeCtx<'_>, _token: u64) {
            panic!("boom at 0.5 s");
        }
    }

    /// Runs 4 shards with a [`Bomb`] on shard 1 — never the caller's — and
    /// re-raises what `run_until` raised, after checking it came promptly
    /// and left a simulator that can be dropped.
    fn bomb_on_shard_1(threads: usize) {
        let mut sim = ShardedSimulator::new(1, &ring(8, 0.001), 4);
        let peers: Vec<HostId> = (0..8).map(h).collect();
        for host in (0..8).filter(|host| *host != 5) {
            let gossip = Gossip {
                peers: peers.clone(),
                at: host as usize,
                got: 0,
                ran_on: Vec::new(),
            };
            sim.add_host(h(host), gossip);
        }
        sim.add_host(h(5), Bomb);
        assert_eq!(sim.plan().shard_of(h(5)), 1);
        let started = std::time::Instant::now();
        let raised = catch_unwind(AssertUnwindSafe(|| {
            sim.run_until(SimTime::from_secs_f64(2.0), threads)
        }))
        .expect_err("the callback's panic must surface");
        assert!(
            started.elapsed().as_secs_f64() < 1.0,
            "took {:?}",
            started.elapsed()
        );
        assert_eq!(sim.cores.len(), 4, "every lent chunk came back");
        drop(sim);
        std::panic::resume_unwind(raised);
    }

    #[test]
    #[should_panic(expected = "shard 1 panicked: boom at 0.5 s")]
    fn a_panicking_callback_surfaces_at_2_threads() {
        bomb_on_shard_1(2);
    }

    #[test]
    #[should_panic(expected = "shard 1 panicked: boom at 0.5 s")]
    fn a_panicking_callback_surfaces_at_4_threads() {
        bomb_on_shard_1(4);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// The tentpole gate: an arbitrary topology partitioned into
        /// k ∈ 1..=8 shards produces journals byte-identical to the
        /// single-shard run — including under an active fault plan whose
        /// crash and partition cross shard boundaries and whose link
        /// episode (a flap or a degrade) changes a ring link on every shard.
        #[test]
        fn arbitrary_topologies_shard_transparently(
            hosts in 3u32..10,
            extra_links in proptest::collection::vec((0u32..10, 0u32..10, 1u32..5), 0..12),
            seed in 0u64..1000,
            shards in 2usize..=8,
            crash_host in 0u32..10,
            link_at in 0u32..10,
            flap in any::<bool>(),
        ) {
            // A connected ring plus arbitrary chords with 1–4 ms delays.
            let mut topo = ring(hosts, 0.001);
            for (a, b, delay_ms) in extra_links {
                let (a, b) = (a % hosts, b % hosts);
                if a != b {
                    topo.set_link(h(a), h(b), LinkSpec {
                        reliability: 0.85,
                        bandwidth: 5e5,
                        delay: delay_ms as f64 / 1000.0,
                    });
                }
            }
            let (a, b) = (h(link_at % hosts), h((link_at + 1) % hosts));
            let link = if flap {
                FaultKind::LinkFlap { a, b, period_secs: 0.07 }
            } else {
                FaultKind::LinkDegrade { a, b, reliability_factor: 0.4, bandwidth_factor: 0.2 }
            };
            let plan = FaultPlan::new()
                .episode(0.2, 0.4, FaultKind::HostCrash { host: h(crash_host % hosts) })
                .episode(0.3, 0.5, FaultKind::Partition {
                    groups: vec![
                        (0..hosts / 2).map(h).collect(),
                        (hosts / 2..hosts).map(h).collect(),
                    ],
                })
                .episode(0.05, 0.8, link);
            let run = |k: usize| {
                let mut sim = gossip_sim(&topo, k, seed);
                sim.install_fault_plan(&plan);
                sim.run_until(SimTime::from_secs_f64(1.0), k.min(2));
                (sim.export_merged_jsonl(), sim.stats())
            };
            let (reference_journal, reference_stats) = run(1);
            let (journal, stats) = run(shards);
            prop_assert_eq!(journal, reference_journal);
            prop_assert_eq!(stats, reference_stats);
        }
    }

    /// Lossy, thin ring with a mid-transfer host crash: every host bursts
    /// at its successor at t = 0, so for ~0.3 s many messages are in flight,
    /// some are lost, and host 2 drops what reaches it while it is down.
    fn lossy_crashing_sim(shards: usize) -> ShardedSimulator {
        let mut topo = NetworkTopology::new();
        for i in 0..6 {
            topo.set_link(
                h(i),
                h((i + 1) % 6),
                LinkSpec {
                    reliability: 0.8,
                    bandwidth: 10_000.0, // 64 bytes: 6.4 ms on the medium
                    delay: 0.05,
                },
            );
        }
        let mut sim = ShardedSimulator::new(5, &topo, shards);
        for i in 0..6 {
            let (peer, count, size) = (h((i + 1) % 6), 40, 64);
            sim.add_host(h(i), Burst { peer, count, size });
        }
        sim.install_fault_plan(&FaultPlan::new().episode(
            0.1,
            0.1,
            crate::faultplan::FaultKind::HostCrash { host: h(2) },
        ));
        sim
    }

    #[test]
    fn conservation_holds_mid_flight_and_at_quiescence_on_any_shard_count() {
        let mut seen = Vec::new();
        for shards in [1, 2] {
            let mut sim = lossy_crashing_sim(shards);
            let mut stops = Vec::new();
            // Stop mid-transfer — before, during and after the crash — then
            // let the queues drain.
            for stop in [0.05, 0.15, 0.25, 5.0] {
                sim.run_until(SimTime::from_secs_f64(stop), shards);
                let s = sim.stats();
                assert_eq!(sim.in_flight() > 0, stop < 1.0, "in flight at {stop} s");
                assert_eq!(
                    s.sent,
                    s.delivered + s.dropped_loss + s.dropped_disconnected + sim.in_flight() as u64,
                    "{shards} shards at {stop} s"
                );
                stops.push((s, sim.in_flight()));
            }
            let end = &stops[3].0;
            assert_eq!(end.sent, 240);
            assert!(end.dropped_loss > 0 && end.dropped_disconnected > 0);
            seen.push(stops);
        }
        assert_eq!(seen[0], seen[1], "in-flight counts are layout-invariant");
    }

    #[test]
    fn merged_shard_stats_equal_the_single_engine_stats() {
        // Lossless links and hosts that stay up: both engines deliver every
        // message (3 → 0 has no link: both drop it), so they must agree on
        // every counter of every pair.
        let topo = ring(5, 0.002);
        let sends = |i: u32| Burst {
            peer: h([1, 0, 3, 0, 0][i as usize]),
            count: 3 + i,
            size: 100 + u64::from(i),
        };
        let mut single = crate::Simulator::new(3);
        for (pair, state) in topo.links() {
            single.set_link(pair.lo(), pair.hi(), state.spec);
        }
        let mut sharded = ShardedSimulator::new(3, &topo, 2);
        for i in 0..5 {
            single.add_host(h(i), sends(i));
            sharded.add_host(h(i), sends(i));
        }
        single.run_to_completion();
        sharded.run_until(SimTime::from_secs_f64(10.0), 2);
        let merged = sharded.stats();
        assert_eq!(merged.links().count(), 4);
        assert_eq!(merged.dropped_disconnected, 6);
        assert_eq!(&merged, single.stats());
        let json = |s: &NetStats| {
            use serde::Serialize;
            serde_json::to_string(&s.serialize()).unwrap()
        };
        assert_eq!(json(&merged), json(single.stats()));
    }
}
