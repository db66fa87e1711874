//! # redep-netsim
//!
//! A deterministic discrete-event network simulator — the substrate under the
//! Prism-MW middleware reproduction.
//!
//! The DSN'04 paper ran Prism-MW on real PDAs and laptops over fluctuating
//! wireless links. This crate substitutes that testbed with a simulator that
//! reproduces exactly the network phenomena the framework reacts to:
//!
//! * per-link **reliability** (messages are lost with probability
//!   `1 − reliability`),
//! * per-link **bandwidth** and **delay** (delivery at
//!   `now + delay + size / bandwidth`),
//! * **fluctuation and disconnection** during a run through deterministic,
//!   serde-loadable **fault plans** — timed schedules of link degradations
//!   and flaps, partitions and host crashes ([`faultplan`],
//!   [`ShardedSimulator::install_fault_plan`]), the one way a run changes
//!   its links,
//! * the same changes between runs: hosts going down and coming back,
//!   partitions cut and healed ([`ShardedSimulator::set_host_up`],
//!   [`ShardedSimulator::partition`], [`ShardedSimulator::heal`]),
//! * ground-truth **statistics** per link ([`NetStats`]) against which
//!   monitoring accuracy can be judged.
//!
//! There is one event loop, [`ShardedSimulator`]: per-shard event queues in
//! `(time, packed key)` order, and every random decision a counter hash of
//! the seed — no RNG stream. A simulation is therefore a pure function of
//! (topology, node behavior, seed), byte-identical at any shard and thread
//! count. [`Simulator`] runs that engine at up to two shards, one thread
//! each: it dereferences to it and adds the one-shard signatures.
//!
//! # Example
//!
//! ```
//! use redep_netsim::{Simulator, Node, NodeCtx, Message, SimTime, LinkSpec};
//! use redep_model::HostId;
//!
//! struct Echo;
//! impl Node for Echo {
//!     fn on_message(&mut self, ctx: &mut NodeCtx<'_>, msg: Message) {
//!         ctx.send(msg.src, msg.payload, 8);
//!     }
//! }
//!
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
//! let a = HostId::new(0);
//! let b = HostId::new(1);
//! let mut sim = Simulator::new(42);
//! sim.add_host(a, Pinger { peer: b, got: 0 });
//! sim.add_host(b, Echo);
//! sim.set_link(a, b, LinkSpec { reliability: 1.0, ..LinkSpec::default() });
//! sim.run_until(SimTime::from_secs_f64(10.0));
//! assert_eq!(sim.stats().delivered, 2); // ping + echo
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod calendar;
pub mod faultplan;
pub mod message;
pub mod node;
pub mod shard;
pub mod sim;
pub mod stats;
pub mod time;
pub mod topology;

pub use calendar::CalendarQueue;
pub use faultplan::{FaultEpisode, FaultKind, FaultPlan};
pub use message::Message;
pub use node::{Node, NodeCtx};
pub use shard::{await_one_shard_order, RoundStats, ShardPlan, ShardedSimulator};
pub use sim::Simulator;
pub use stats::{LinkStats, NetStats};
pub use time::{Duration, SimTime};
pub use topology::{LinkSpec, NetworkTopology};
