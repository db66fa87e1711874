//! Node behavior: the code that runs "on" each simulated host.

use crate::message::Message;
use crate::time::{Duration, SimTime};
use redep_model::HostId;
use std::any::Any;

/// Behavior of one simulated host.
///
/// All callbacks receive a [`NodeCtx`] through which the node sends messages
/// and arms timers. Callbacks run to completion before the simulation
/// proceeds (the simulator is a classic sequential discrete-event loop), so a
/// node needs no internal synchronization.
///
/// The `Any` supertrait lets tests and harnesses inspect node state after a
/// run via [`ShardedSimulator::node_ref`](crate::ShardedSimulator::node_ref).
/// The `Send` supertrait lets the sharded simulator move nodes onto worker
/// threads — callbacks still never run concurrently for one host, so nodes
/// need no internal synchronization.
pub trait Node: Any + Send {
    /// Called once when the simulation starts (or when the node is added to
    /// a running simulation).
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        let _ = ctx;
    }

    /// Called when a message is delivered to this host.
    fn on_message(&mut self, ctx: &mut NodeCtx<'_>, msg: Message) {
        let _ = (ctx, msg);
    }

    /// Called when a timer armed with [`NodeCtx::set_timer`] fires.
    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, token: u64) {
        let _ = (ctx, token);
    }

    /// Called when this host comes back up after a crash
    /// ([`Simulator::set_host_up`](crate::Simulator::set_host_up) with
    /// `up = true` after a down period).
    ///
    /// Runs *before* any timer deferred during the outage is replayed and
    /// before any same-instant queued event is delivered, so a durable node
    /// can rebuild its state (e.g. replay a checkpoint + journal) and have
    /// everything that follows observe the recovered state. The default does
    /// nothing: a node without durable state simply resumes with whatever it
    /// held in memory, which is the pre-durability simulator behavior.
    fn on_restart(&mut self, ctx: &mut NodeCtx<'_>) {
        let _ = ctx;
    }
}

/// What a node asked the simulator to do during a callback.
#[derive(Clone, PartialEq, Eq, Debug)]
pub(crate) enum NodeAction {
    Send {
        dst: HostId,
        payload: Vec<u8>,
        size: u64,
    },
    SetTimer {
        delay: Duration,
        token: u64,
    },
}

/// The interface a node uses to act on the world during a callback.
///
/// Actions are buffered and applied by the simulator after the callback
/// returns, all stamped with the callback's instant.
#[derive(Debug)]
pub struct NodeCtx<'a> {
    host: HostId,
    now: SimTime,
    actions: &'a mut Vec<NodeAction>,
}

impl<'a> NodeCtx<'a> {
    pub(crate) fn new(host: HostId, now: SimTime, actions: &'a mut Vec<NodeAction>) -> Self {
        NodeCtx { host, now, actions }
    }

    /// The host this node runs on.
    pub fn host(&self) -> HostId {
        self.host
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Sends `payload` to `dst`, accounting `size` bytes on the wire.
    ///
    /// Delivery is not guaranteed: the message is subject to the link's
    /// reliability, and is dropped outright when no up link exists.
    pub fn send(&mut self, dst: HostId, payload: impl Into<Vec<u8>>, size: u64) {
        self.actions.push(NodeAction::Send {
            dst,
            payload: payload.into(),
            size,
        });
    }

    /// Arms a one-shot timer that fires `delay` from now with `token`.
    /// Re-arm inside [`Node::on_timer`] for periodic behavior.
    pub fn set_timer(&mut self, delay: Duration, token: u64) {
        self.actions.push(NodeAction::SetTimer { delay, token });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctx_buffers_actions_in_order() {
        let mut actions = Vec::new();
        let mut ctx = NodeCtx::new(HostId::new(3), SimTime::from_micros(5), &mut actions);
        assert_eq!(ctx.host(), HostId::new(3));
        assert_eq!(ctx.now(), SimTime::from_micros(5));
        ctx.send(HostId::new(1), vec![1], 10);
        ctx.set_timer(Duration::from_millis(1), 7);
        assert_eq!(actions.len(), 2);
        assert!(matches!(actions[0], NodeAction::Send { size: 10, .. }));
        assert!(matches!(actions[1], NodeAction::SetTimer { token: 7, .. }));
    }
}
