//! The component-timer table: an integer-hashed map of the live timers.
//!
//! A host arms and fires a component timer for every application event it
//! emits, so the table is on the per-event path; its keys are ids the host
//! hands out from one counter, never outside input, so they hash with one
//! multiply (`monitor::IdHasher`) instead of SipHash.
//! Memory follows the *live* timers (one per outgoing interaction, a few
//! hundred on a busy host) — which is what rules out the two structures
//! that are O(1) without hashing or cheap to iterate: a ring indexed by
//! `id − oldest live id` keeps a slot for every id issued since the slowest
//! live timer was armed (one 0.05 Hz interaction on a host arming 500 timers
//! a second pins 10 000 slots; `pipeline-steady`'s peak RSS grew by 10 MB),
//! and a deque sorted by id shifts a hundred entries per fire (5 % of the
//! run, what the `BTreeMap` it replaced cost).

use crate::monitor::IdHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;

/// A table of live timers keyed by host-issued `u64` ids.
///
/// # Example
///
/// ```
/// use redep_prism::timers::TimerTable;
/// let mut table = TimerTable::new();
/// table.insert(1001, "b");
/// table.insert(1000, "a");
/// assert_eq!(table.remove(1000), Some("a"));
/// assert_eq!(table.remove(1000), None);
/// assert_eq!(table.sorted(), [(1001, &"b")]);
/// ```
#[derive(Clone, Debug)]
pub struct TimerTable<T> {
    live: HashMap<u64, T, BuildHasherDefault<IdHasher>>,
}

impl<T> Default for TimerTable<T> {
    fn default() -> Self {
        TimerTable {
            live: HashMap::default(),
        }
    }
}

impl<T> TimerTable<T> {
    /// Creates an empty table.
    pub fn new() -> Self {
        TimerTable::default()
    }

    /// Stores `value` under `id`, replacing what was there.
    pub fn insert(&mut self, id: u64, value: T) {
        self.live.insert(id, value);
    }

    /// Takes the value stored under `id`, if any.
    pub fn remove(&mut self, id: u64) -> Option<T> {
        self.live.remove(&id)
    }

    /// Live entries in id order — the order checkpoints list timers in, so
    /// the map's own order never reaches a journal.
    pub fn sorted(&self) -> Vec<(u64, &T)> {
        let mut entries: Vec<(u64, &T)> = self.live.iter().map(|(id, v)| (*id, v)).collect();
        entries.sort_unstable_by_key(|&(id, _)| id);
        entries
    }

    /// Drops every entry.
    pub fn clear(&mut self) {
        self.live.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    #[test]
    fn fired_ids_leave_no_slot_behind() {
        let mut t = TimerTable::new();
        t.insert(0, 0u64); // one slow timer…
        for id in 1..10_000 {
            t.insert(id, id); // …while fast ones come and go
            assert_eq!(t.remove(id), Some(id));
        }
        assert!(t.live.capacity() < 64, "memory follows the live timers");
        assert_eq!(t.remove(5), None, "fired");
        assert_eq!(t.remove(10_000), None, "never armed");
        assert_eq!(t.sorted(), [(0, &0)]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Any interleaving of inserts and removes agrees with an ordered
        /// map, including the order of `sorted`.
        #[test]
        fn agrees_with_an_ordered_map(ops in proptest::collection::vec((any::<bool>(), 0u64..48), 0..120)) {
            let mut table = TimerTable::new();
            let mut model = BTreeMap::new();
            for (step, (insert, id)) in ops.into_iter().enumerate() {
                if insert {
                    table.insert(id, step);
                    model.insert(id, step);
                } else {
                    prop_assert_eq!(table.remove(id), model.remove(&id));
                }
                let expected: Vec<(u64, &usize)> = model.iter().map(|(id, v)| (*id, v)).collect();
                prop_assert_eq!(table.sorted(), expected);
            }
        }
    }
}
