//! Interned name symbols — the fast-path identity of events and components.
//!
//! Every event, component, and connector name in a running system is drawn
//! from a small, essentially static vocabulary (protocol event names,
//! generated component names). Carrying them as owned `String`s made every
//! event construction, clone, and comparison allocate and memcmp. A
//! [`Symbol`] is the interned form: a `u32` id plus a `&'static str` borrowed
//! from the process-wide interner, so
//!
//! * construction from an already-interned name is a hash lookup,
//! * copies are free (`Symbol` is `Copy`),
//! * equality is one integer compare,
//! * reading the name back never takes a lock.
//!
//! The interner is process-global rather than per-architecture so that the
//! wire codec can ship symbol ids between simulated hosts of one
//! process (see [`crate::codec`]). Interned strings are leaked deliberately:
//! the vocabulary of a simulation is bounded, and a leaked name is exactly
//! what makes `Symbol::as_str` lock-free.
//!
//! Determinism note: symbol *ids* depend on interning order. Orderings,
//! telemetry journals and reports use the interned *string* ([`Symbol`]'s
//! `Ord` compares names, not ids), but the wire codec ships ids as varints,
//! so id *widths* reach everything that measures an encoded event: the wire
//! size a frame is charged (and through transmit time the simulated clock),
//! `pipeline.codec.bytes`, and the `Delivery`/`EventBuffered` records of the
//! durable journal. **Interning order is therefore part of the determinism
//! contract**: a run is reproducible because it interns the same names in
//! the same order, and a code path that interns a name earlier than before
//! (say, while building an index) moves those byte counts. Resolve cold
//! `&str` keys with [`Symbol::lookup`], which never interns.
//!
//! A run on two threads keeps that order: a shard thread about to intern a
//! new name first waits ([`redep_netsim::await_one_shard_order`]) until the
//! other shard's thread has run every event a one-shard run would run
//! before this one, so names are interned in the one-shard order whatever
//! thread reaches them first.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Mutex, OnceLock};

/// An interned name: a `Copy` handle to a process-global string.
///
/// # Example
///
/// ```
/// use redep_prism::Symbol;
/// let a = Symbol::intern("app.interaction");
/// let b = Symbol::intern("app.interaction");
/// assert_eq!(a, b); // same id, one integer compare
/// assert_eq!(a.as_str(), "app.interaction");
/// ```
#[derive(Clone, Copy)]
pub struct Symbol {
    id: u32,
    name: &'static str,
}

struct Interner {
    by_name: HashMap<&'static str, u32>,
    names: Vec<&'static str>,
}

fn interner() -> &'static Mutex<Interner> {
    static INTERNER: OnceLock<Mutex<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| {
        Mutex::new(Interner {
            by_name: HashMap::new(),
            names: Vec::new(),
        })
    })
}

thread_local! {
    /// This thread's copy of the interner's append-only name table, so
    /// [`Symbol::from_id`] — called for every symbol of every decoded frame,
    /// from every shard thread — takes the global lock only for ids interned
    /// since the copy was last extended.
    static NAMES: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

impl Symbol {
    /// Interns a name, returning its symbol. Idempotent: the same string
    /// always maps to the same symbol within one process.
    ///
    /// A *new* name takes the next id, and ids travel as varints in encoded
    /// events — so adding a call site that may see a name first changes
    /// simulated byte counts (see the module docs). To look a name up in a
    /// symbol-keyed table, use [`Symbol::lookup`]. On a shard thread a new
    /// name may wait for the other shard's thread, so never intern while
    /// holding a lock that thread's callbacks can take.
    pub fn intern(name: &str) -> Symbol {
        if let Some(symbol) = Symbol::lookup(name) {
            return symbol;
        }
        // A new id: take it where a one-shard run would (module docs).
        redep_netsim::await_one_shard_order();
        let mut table = interner().lock().expect("interner poisoned");
        if let Some(&id) = table.by_name.get(name) {
            return Symbol {
                id,
                name: table.names[id as usize],
            };
        }
        let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
        let id = u32::try_from(table.names.len()).expect("symbol table overflow");
        table.names.push(leaked);
        table.by_name.insert(leaked, id);
        Symbol { id, name: leaked }
    }

    /// The symbol of an already-interned name; `None` — and no interning —
    /// when the name was never interned. For `&str` callers that meet a
    /// symbol-keyed table: a name that has no symbol is in no such table.
    pub fn lookup(name: &str) -> Option<Symbol> {
        let table = interner().lock().expect("interner poisoned");
        let id = *table.by_name.get(name)?;
        Some(Symbol {
            id,
            name: table.names[id as usize],
        })
    }

    /// Resolves a raw interner id (the wire representation of the binary
    /// codec). Returns `None` for ids this process never interned.
    pub fn from_id(id: u32) -> Option<Symbol> {
        NAMES.with_borrow_mut(|names| {
            if names.len() <= id as usize {
                let table = interner().lock().expect("interner poisoned");
                names.extend_from_slice(&table.names[names.len()..]);
            }
            let name = *names.get(id as usize)?;
            Some(Symbol { id, name })
        })
    }

    /// The interned string. Lock-free: the name is borrowed from the
    /// interner's leaked storage.
    pub fn as_str(self) -> &'static str {
        self.name
    }

    /// The raw interner id (process-local; see the module docs on
    /// determinism).
    pub fn id(self) -> u32 {
        self.id
    }
}

impl PartialEq for Symbol {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
    }
}
impl Eq for Symbol {}

impl std::hash::Hash for Symbol {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.id.hash(state);
    }
}

// Ordering compares the *names*, not the ids: containers keyed by `Symbol`
// iterate in the same deterministic name order the previous
// `BTreeMap<String, _>` representation had, independent of interning order.
impl PartialOrd for Symbol {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Symbol {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        if self.id == other.id {
            std::cmp::Ordering::Equal
        } else {
            self.name.cmp(other.name)
        }
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.name)
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name)
    }
}

impl AsRef<str> for Symbol {
    fn as_ref(&self) -> &str {
        self.name
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Symbol {
        Symbol::intern(s)
    }
}

impl From<&String> for Symbol {
    fn from(s: &String) -> Symbol {
        Symbol::intern(s)
    }
}

impl From<String> for Symbol {
    fn from(s: String) -> Symbol {
        Symbol::intern(&s)
    }
}

impl PartialEq<str> for Symbol {
    fn eq(&self, other: &str) -> bool {
        self.name == other
    }
}

impl PartialEq<&str> for Symbol {
    fn eq(&self, other: &&str) -> bool {
        self.name == *other
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let a = Symbol::intern("alpha-test-symbol");
        let b = Symbol::intern("alpha-test-symbol");
        assert_eq!(a, b);
        assert_eq!(a.id(), b.id());
        assert_eq!(a.as_str(), "alpha-test-symbol");
    }

    #[test]
    fn distinct_names_get_distinct_symbols() {
        let a = Symbol::intern("sym-one");
        let b = Symbol::intern("sym-two");
        assert_ne!(a, b);
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn from_id_resolves_interned_only() {
        let a = Symbol::intern("resolvable");
        assert_eq!(Symbol::from_id(a.id()), Some(a));
        assert_eq!(Symbol::from_id(u32::MAX), None);
    }

    #[test]
    fn lookup_never_interns() {
        let name = "lookup-only-test-symbol";
        assert_eq!(Symbol::lookup(name), None);
        assert_eq!(Symbol::lookup(name), None, "a miss must not intern");
        let s = Symbol::intern(name);
        assert_eq!(Symbol::lookup(name), Some(s));
    }

    #[test]
    fn from_id_on_another_thread_sees_later_interns() {
        use std::sync::mpsc::channel;
        let early = Symbol::intern("cross-thread-early");
        let (to_worker, from_main) = channel::<u32>();
        let (to_main, from_worker) = channel::<Option<Symbol>>();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                // The first lookup fills this thread's copy of the table;
                // the second id was interned after that.
                for id in from_main {
                    to_main.send(Symbol::from_id(id)).unwrap();
                }
            });
            to_worker.send(early.id()).unwrap();
            assert_eq!(from_worker.recv().unwrap(), Some(early));
            let late = Symbol::intern("cross-thread-late");
            to_worker.send(late.id()).unwrap();
            assert_eq!(from_worker.recv().unwrap(), Some(late));
            drop(to_worker);
        });
    }

    /// Interns `name` at a timer `at` into the run, after napping `nap` of
    /// wall time in a timer at `at / 2`.
    struct LateInterner {
        at: redep_netsim::Duration,
        nap: std::time::Duration,
        name: &'static str,
    }
    impl redep_netsim::Node for LateInterner {
        fn on_start(&mut self, ctx: &mut redep_netsim::NodeCtx<'_>) {
            let half = redep_netsim::Duration::from_micros(self.at.as_micros() / 2);
            ctx.set_timer(half, 0);
            ctx.set_timer(self.at, 1);
        }
        fn on_timer(&mut self, _ctx: &mut redep_netsim::NodeCtx<'_>, token: u64) {
            if token == 0 {
                std::thread::sleep(self.nap);
            } else {
                Symbol::intern(self.name);
            }
        }
    }

    /// Two shards on two threads, in one window: shard 1 interns its name
    /// earlier in simulated time but, after a nap, later in wall time. The
    /// ids follow simulated time, as on one shard.
    #[test]
    fn shard_threads_intern_in_one_shard_order() {
        use redep_netsim::{Duration, LinkSpec, NetworkTopology, ShardedSimulator, SimTime};
        let (a, b) = (redep_model::HostId::new(0), redep_model::HostId::new(1));
        let mut topo = NetworkTopology::new();
        let slow = LinkSpec {
            delay: 0.5,
            ..LinkSpec::default()
        };
        topo.set_link(a, b, slow);
        let mut sim = ShardedSimulator::new(1, &topo, 2);
        assert_ne!(sim.plan().shard_of(a), sim.plan().shard_of(b));
        let late = |at_ms, nap_ms, name| LateInterner {
            at: Duration::from_millis(at_ms),
            nap: std::time::Duration::from_millis(nap_ms),
            name,
        };
        sim.add_host(a, late(20, 0, "one-shard-order-second"));
        sim.add_host(b, late(10, 100, "one-shard-order-first"));
        sim.run_until(SimTime::from_secs_f64(0.1), 2);
        let id = |name| Symbol::lookup(name).unwrap().id();
        assert!(id("one-shard-order-first") < id("one-shard-order-second"));
    }

    #[test]
    fn ordering_follows_names_not_ids() {
        // Intern in reverse lexicographic order; Ord must still sort by name.
        let z = Symbol::intern("zz-order-test");
        let a = Symbol::intern("aa-order-test");
        assert!(a < z);
        let mut v = vec![z, a];
        v.sort();
        assert_eq!(v, [a, z]);
    }

    #[test]
    fn display_and_eq_str() {
        let s = Symbol::intern("shown");
        assert_eq!(s.to_string(), "shown");
        assert_eq!(s, "shown");
        assert_eq!(s, *"shown");
    }
}
