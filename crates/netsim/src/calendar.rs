//! A calendar-queue event scheduler: a bucketed time-wheel with a heap
//! overflow for far-future entries.
//!
//! The simulator's pending-event set was a single global `BinaryHeap`, making
//! every schedule/pop O(log n) in the *total* number of pending events —
//! dominated at scale by the swarm of near-future timers (RTO ticks, pings,
//! workload periods). A calendar queue exploits the fact that simulation
//! time only moves forward: the near future is divided into fixed-width
//! buckets held in a circular wheel, so scheduling is O(1) (push onto the
//! target bucket) and popping is O(1) amortized (drain the current bucket
//! through a small heap that only ever holds one bucket's worth of entries).
//! Entries beyond the wheel's horizon — fault-plan episodes, long monitor
//! windows — go to an overflow heap and migrate into the wheel as the cursor
//! reaches them.
//!
//! Ordering is **identical** to the `BinaryHeap` it replaces: entries pop in
//! `(time, seq)` order, so same-timestamp entries retain FIFO
//! (insertion-order) semantics and deterministic journals are preserved
//! byte-for-byte. The equivalence proptest at the bottom of this module
//! pins that down.
//!
//! Default geometry: `2^11 = 2048` slots of `2^12 µs ≈ 4.1 ms` each, a
//! horizon of ~8.4 simulated seconds — wide enough that RTO (200 ms), ping
//! (250 ms), monitor-window (5 s) and workload timers all land in the wheel,
//! while multi-minute fault episodes ride the overflow heap.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Default bucket width: `2^12` = 4096 simulated microseconds.
const DEFAULT_SHIFT: u32 = 12;
/// Default wheel size (must be a power of two): 2048 slots.
const DEFAULT_SLOTS: usize = 1 << 11;

/// One scheduled entry. Ordered by `(time, seq)` reversed for max-heaps.
struct Entry<T> {
    time: SimTime,
    seq: u64,
    item: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we pop earliest-first.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// A monotonic priority queue over `(SimTime, seq)` keys.
///
/// `push` accepts any time (including times at or before the last pop —
/// "now" events land in the current bucket), and `pop` returns entries in
/// exact `(time, seq)` order.
pub struct CalendarQueue<T> {
    /// Entries of buckets at or before the cursor, plus anything popped
    /// early out of the wheel. Always globally minimal (see `ensure_front`).
    current: BinaryHeap<Entry<T>>,
    /// The wheel: `slots[b & mask]` holds entries of absolute bucket `b`,
    /// for buckets in `(cursor, cursor + slots)`.
    wheel: Vec<Vec<Entry<T>>>,
    /// Entries in buckets at or beyond `cursor + slots`.
    overflow: BinaryHeap<Entry<T>>,
    /// Absolute bucket index the wheel has been drained through.
    cursor: u64,
    /// Entries currently stored in wheel slots.
    wheel_count: usize,
    /// Total entries across current/wheel/overflow.
    len: usize,
    /// log2 of the bucket width in microseconds.
    shift: u32,
    /// `slots.len() - 1`; the wheel size is a power of two.
    mask: u64,
}

impl<T> Default for CalendarQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> CalendarQueue<T> {
    /// Creates a queue with the default geometry (4096 µs × 2048 slots).
    pub fn new() -> Self {
        Self::with_geometry(DEFAULT_SHIFT, DEFAULT_SLOTS)
    }

    /// Creates a queue with `2^shift` µs buckets and `slots` wheel slots.
    ///
    /// # Panics
    ///
    /// Panics unless `slots` is a power of two.
    fn with_geometry(shift: u32, slots: usize) -> Self {
        assert!(slots.is_power_of_two(), "wheel size must be a power of two");
        CalendarQueue {
            current: BinaryHeap::new(),
            wheel: (0..slots).map(|_| Vec::new()).collect(),
            overflow: BinaryHeap::new(),
            cursor: 0,
            wheel_count: 0,
            len: 0,
            shift,
            mask: slots as u64 - 1,
        }
    }

    /// Total pending entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no entries are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn bucket(&self, time: SimTime) -> u64 {
        time.as_micros() >> self.shift
    }

    /// Schedules an item. `seq` must be unique per queue and increase with
    /// insertion order (the simulator's event sequence number), which is
    /// what gives same-timestamp entries FIFO pop order.
    pub fn push(&mut self, time: SimTime, seq: u64, item: T) {
        let entry = Entry { time, seq, item };
        let b = self.bucket(time);
        if b <= self.cursor {
            self.current.push(entry);
        } else if b < self.cursor + self.wheel.len() as u64 {
            self.wheel[(b & self.mask) as usize].push(entry);
            self.wheel_count += 1;
        } else {
            self.overflow.push(entry);
        }
        self.len += 1;
    }

    /// Moves entries into `current` until it holds the globally minimal
    /// entry. Invariant on return (when non-empty): every entry in the
    /// wheel or overflow lives in a bucket strictly beyond `cursor`, hence
    /// has a time strictly greater than everything in `current`.
    fn ensure_front(&mut self) {
        while self.current.is_empty() && self.len > 0 {
            if self.wheel_count == 0 {
                // Nothing in the wheel: jump the cursor straight to the
                // earliest overflow bucket instead of stepping slot by slot.
                let next = self
                    .overflow
                    .peek()
                    .map(|e| self.bucket(e.time))
                    .expect("len > 0 with empty wheel and current");
                self.cursor = next.max(self.cursor + 1);
            } else {
                self.cursor += 1;
            }
            // Drain the slot of the new cursor bucket. At most one pending
            // bucket maps to this slot: a colliding bucket `cursor + k*slots`
            // could only have been filled while the cursor was already past
            // `cursor` — impossible, the cursor only moves forward.
            let slot = &mut self.wheel[(self.cursor & self.mask) as usize];
            self.wheel_count -= slot.len();
            self.current.extend(slot.drain(..));
            // Pull overflow entries whose bucket has come into (or behind)
            // the cursor — after a jump the earliest overflow bucket is
            // exactly the cursor.
            while let Some(e) = self.overflow.peek() {
                if self.bucket(e.time) <= self.cursor {
                    let e = self.overflow.pop().expect("peeked");
                    self.current.push(e);
                } else {
                    break;
                }
            }
        }
    }

    /// Removes and returns the earliest entry in `(time, seq)` order.
    pub fn pop(&mut self) -> Option<(SimTime, u64, T)> {
        self.ensure_front();
        let entry = self.current.pop()?;
        self.len -= 1;
        Some((entry.time, entry.seq, entry.item))
    }

    /// The timestamp of the earliest entry without removing it. Takes
    /// `&mut self` because peeking may rotate wheel buckets into the
    /// current heap.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.ensure_front();
        self.current.peek().map(|e| e.time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Reference model: the plain BinaryHeap the wheel replaced.
    struct HeapModel {
        heap: BinaryHeap<Entry<u32>>,
    }

    impl HeapModel {
        fn new() -> Self {
            HeapModel {
                heap: BinaryHeap::new(),
            }
        }
        fn push(&mut self, time: SimTime, seq: u64, item: u32) {
            self.heap.push(Entry { time, seq, item });
        }
        fn pop(&mut self) -> Option<(SimTime, u64, u32)> {
            self.heap.pop().map(|e| (e.time, e.seq, e.item))
        }
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q = CalendarQueue::new();
        q.push(SimTime::from_micros(50), 1, "b");
        q.push(SimTime::from_micros(10), 2, "c");
        q.push(SimTime::from_micros(10), 0, "a");
        assert_eq!(q.pop(), Some((SimTime::from_micros(10), 0, "a")));
        assert_eq!(q.pop(), Some((SimTime::from_micros(10), 2, "c")));
        assert_eq!(q.pop(), Some((SimTime::from_micros(50), 1, "b")));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn same_timestamp_entries_pop_fifo() {
        // The satellite regression: equal times must preserve insertion
        // (seq) order exactly like the heap did — across bucket boundaries
        // and the overflow.
        for geometry in [(12, 2048usize), (2, 4)] {
            let mut q = CalendarQueue::with_geometry(geometry.0, geometry.1);
            let t = SimTime::from_micros(123_456);
            for seq in 0..100u64 {
                q.push(t, seq, seq as u32);
            }
            for seq in 0..100u64 {
                assert_eq!(q.pop(), Some((t, seq, seq as u32)));
            }
        }
    }

    #[test]
    fn same_timestamp_fifo_survives_the_wheel_overflow_boundary() {
        // Regression pin: entries with one timestamp can be *split* between
        // the overflow heap (pushed while the bucket was beyond the wheel
        // horizon) and a wheel slot (pushed after the cursor advanced far
        // enough to bring the bucket into range), and even the current heap
        // (pushed after the cursor passed the bucket). Pops must still come
        // out in pure seq (insertion) order across all three stores.
        let mut q = CalendarQueue::with_geometry(2, 4); // 4 µs × 4 slots
        let t = SimTime::from_micros(20); // bucket 5
        q.push(t, 0, 0); // cursor 0, horizon bucket 4 → overflow
        q.push(t, 1, 1); // overflow
        q.push(SimTime::from_micros(6), 2, 99); // bucket 1 → wheel
        q.push(SimTime::from_micros(10), 3, 98); // bucket 2 → wheel
        assert_eq!(q.pop(), Some((SimTime::from_micros(6), 2, 99)));
        assert_eq!(q.pop(), Some((SimTime::from_micros(10), 3, 98)));
        // Cursor is now at bucket 2; bucket 5 is inside the wheel window.
        q.push(t, 4, 2); // wheel slot — same timestamp as the overflow pair
        q.push(t, 5, 3); // wheel slot
        assert_eq!(q.pop(), Some((t, 0, 0)), "overflow entry must pop first");
        // Cursor has passed bucket 5: a fresh same-timestamp push lands in
        // the current heap, the third storage location.
        q.push(t, 6, 4);
        assert_eq!(q.pop(), Some((t, 1, 1)));
        assert_eq!(q.pop(), Some((t, 4, 2)));
        assert_eq!(q.pop(), Some((t, 5, 3)));
        assert_eq!(q.pop(), Some((t, 6, 4)));
        assert!(q.is_empty());
    }

    #[test]
    fn same_timestamp_fifo_survives_cursor_jumps() {
        // Regression pin: when the wheel is empty, ensure_front jumps the
        // cursor straight to the earliest overflow bucket and migrates the
        // whole bucket at once — a same-timestamp burst must come back in
        // insertion order after the jump.
        let mut q = CalendarQueue::with_geometry(2, 4);
        let t = SimTime::from_micros(1_000_000);
        for seq in 0..10u64 {
            q.push(t, seq, seq as u32);
        }
        for seq in 0..10u64 {
            assert_eq!(q.pop(), Some((t, seq, seq as u32)));
        }
    }

    #[test]
    fn far_future_entries_ride_the_overflow() {
        let mut q = CalendarQueue::with_geometry(2, 4); // 4 µs × 4 slots
        q.push(SimTime::from_micros(1_000_000), 0, 1); // deep overflow
        q.push(SimTime::from_micros(3), 1, 2); // wheel
        q.push(SimTime::from_micros(10_000), 2, 3); // overflow
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop(), Some((SimTime::from_micros(3), 1, 2)));
        assert_eq!(q.pop(), Some((SimTime::from_micros(10_000), 2, 3)));
        assert_eq!(q.pop(), Some((SimTime::from_micros(1_000_000), 0, 1)));
    }

    #[test]
    fn push_at_or_before_popped_time_still_delivers() {
        let mut q = CalendarQueue::new();
        q.push(SimTime::from_micros(100_000), 0, 1);
        assert_eq!(q.pop(), Some((SimTime::from_micros(100_000), 0, 1)));
        // "Now" events: scheduled at a time whose bucket the cursor passed.
        q.push(SimTime::from_micros(100_000), 1, 2);
        q.push(SimTime::from_micros(50), 2, 3);
        assert_eq!(q.pop(), Some((SimTime::from_micros(50), 2, 3)));
        assert_eq!(q.pop(), Some((SimTime::from_micros(100_000), 1, 2)));
    }

    #[test]
    fn peek_time_matches_next_pop() {
        let mut q = CalendarQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_micros(70_000), 0, 1);
        q.push(SimTime::from_micros(30_000), 1, 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(30_000)));
        q.pop();
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(70_000)));
    }

    /// Interleaved push/pop schedules against the heap, exercising both the
    /// production geometry and a tiny wheel that forces constant overflow
    /// traffic and cursor jumps.
    fn equivalence_case(ops: &[(bool, u64)], shift: u32, slots: usize) {
        let mut wheel = CalendarQueue::with_geometry(shift, slots);
        let mut heap = HeapModel::new();
        let mut seq = 0u64;
        let mut floor = 0u64; // monotonic clock: pushes never go below this
        for &(is_pop, raw_time) in ops {
            if is_pop {
                let got = wheel.pop();
                let want = heap.pop();
                assert_eq!(
                    got, want,
                    "wheel and heap diverged (shift={shift}, slots={slots})"
                );
                if let Some((t, _, _)) = got {
                    floor = t.as_micros();
                }
            } else {
                let time = SimTime::from_micros(floor + raw_time);
                wheel.push(time, seq, seq as u32);
                heap.push(time, seq, seq as u32);
                seq += 1;
            }
        }
        // Drain both completely.
        loop {
            let got = wheel.pop();
            let want = heap.pop();
            assert_eq!(got, want, "divergence in final drain");
            if got.is_none() {
                break;
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The wheel pops the exact `(time, seq, item)` sequence of the
        /// reference heap under arbitrary interleaved schedules, including
        /// same-timestamp bursts, bucket-boundary times, and far-future
        /// entries.
        #[test]
        fn ordering_matches_binary_heap(
            raw_ops in proptest::collection::vec((any::<bool>(), 0u64..3_000), 1..200)
        ) {
            // Spread raw offsets over three delay classes: same-bucket
            // churn, neighboring buckets, and far-future overflow entries.
            let ops: Vec<(bool, u64)> = raw_ops
                .iter()
                .map(|&(is_pop, raw)| {
                    let delay = match raw % 3 {
                        0 => raw / 3 % 16,
                        1 => 4_000 + (raw * 37) % 6_000,
                        _ => 1_000_000 + raw * 79_000,
                    };
                    (is_pop, delay)
                })
                .collect();
            equivalence_case(&ops, DEFAULT_SHIFT, DEFAULT_SLOTS);
            equivalence_case(&ops, 2, 4); // tiny wheel: overflow + jumps
        }
    }
}
