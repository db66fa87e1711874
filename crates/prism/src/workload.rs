//! A migratable workload component that realizes a model's logical links.
//!
//! The paper's example systems are sets of components with known interaction
//! frequencies and event sizes. [`WorkloadComponent`] reproduces that: it is
//! configured with a list of [`InteractionSpec`]s and emits one event per
//! period to each peer — wherever that peer currently lives — while counting
//! what it receives. Its configuration and counters are part of its
//! serialized state, so it keeps working after a migration.

use crate::brick::{ComponentBehavior, ComponentCtx};
use crate::event::Event;
use crate::symbol::Symbol;
use redep_netsim::Duration;
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// The interned form of [`EV_APP`], resolved once so the per-event hot path
/// never touches the interner lock. Interned outside the cell's
/// initialization: interning may wait for another shard's thread, which
/// may be waiting for the cell.
fn ev_app_symbol() -> Symbol {
    static SYM: OnceLock<Symbol> = OnceLock::new();
    if let Some(symbol) = SYM.get() {
        return *symbol;
    }
    let symbol = Symbol::intern(EV_APP);
    *SYM.get_or_init(|| symbol)
}

/// The factory type name of [`WorkloadComponent`].
pub const WORKLOAD_TYPE: &str = "redep.workload";

/// Event name emitted by workload components.
pub const EV_APP: &str = "app.interaction";

/// One outgoing interaction pattern.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct InteractionSpec {
    /// The peer component's instance name.
    pub peer: String,
    /// Events per second sent to the peer.
    pub frequency: f64,
    /// Bytes accounted per event.
    pub event_size: u64,
}

#[derive(Clone, PartialEq, Debug, Default, Serialize, Deserialize)]
struct WorkloadState {
    interactions: Vec<InteractionSpec>,
    sent: u64,
    received: u64,
}

/// A component that generates the configured interactions and counts
/// arrivals. Fully migratable: register [`WorkloadComponent::build`] with
/// the [`ComponentFactory`](crate::ComponentFactory) under
/// [`WORKLOAD_TYPE`].
///
/// # Example
///
/// ```
/// use redep_prism::{WorkloadComponent, ComponentBehavior, ComponentFactory};
/// use redep_prism::workload::{InteractionSpec, WORKLOAD_TYPE};
///
/// let w = WorkloadComponent::new(vec![InteractionSpec {
///     peer: "tracker".into(),
///     frequency: 4.0,
///     event_size: 128,
/// }]);
/// let mut factory = ComponentFactory::new();
/// factory.register(WORKLOAD_TYPE, WorkloadComponent::build);
/// // The snapshot/build pair is what lets the component migrate.
/// let clone = factory.build(WORKLOAD_TYPE, &w.snapshot())?;
/// assert_eq!(clone.snapshot(), w.snapshot());
/// # Ok::<(), redep_prism::PrismError>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct WorkloadComponent {
    state: WorkloadState,
    /// Interned peer names, index-aligned with `state.interactions` —
    /// derived (not serialized) so the per-timer send path is symbol-only.
    peer_syms: Vec<Symbol>,
}

// Equality is over the serialized state only; `peer_syms` is derived.
impl PartialEq for WorkloadComponent {
    fn eq(&self, other: &Self) -> bool {
        self.state == other.state
    }
}

impl WorkloadComponent {
    /// Creates a workload with the given interaction patterns.
    ///
    /// # Panics
    ///
    /// Panics if any frequency is negative or any event size is zero.
    pub fn new(interactions: Vec<InteractionSpec>) -> Self {
        for spec in &interactions {
            assert!(
                spec.frequency >= 0.0,
                "frequency must be non-negative for peer {}",
                spec.peer
            );
            assert!(spec.event_size > 0, "event size must be positive");
        }
        let peer_syms = interactions
            .iter()
            .map(|s| Symbol::intern(&s.peer))
            .collect();
        WorkloadComponent {
            state: WorkloadState {
                interactions,
                sent: 0,
                received: 0,
            },
            peer_syms,
        }
    }

    /// Factory constructor: rebuilds the component from its snapshot.
    /// Register under [`WORKLOAD_TYPE`].
    pub fn build(state: &[u8]) -> Box<dyn ComponentBehavior> {
        let state: WorkloadState = serde_json::from_slice(state).unwrap_or_default();
        let peer_syms = state
            .interactions
            .iter()
            .map(|s| Symbol::intern(&s.peer))
            .collect();
        Box::new(WorkloadComponent { state, peer_syms })
    }

    /// Events sent so far.
    pub fn sent(&self) -> u64 {
        self.state.sent
    }

    /// Events received so far.
    pub fn received(&self) -> u64 {
        self.state.received
    }

    fn arm_timers(&self, ctx: &mut ComponentCtx<'_>) {
        for (i, spec) in self.state.interactions.iter().enumerate() {
            if spec.frequency > 0.0 {
                let period = Duration::from_secs_f64(1.0 / spec.frequency);
                ctx.set_timer(period, i as u64);
            }
        }
    }
}

impl ComponentBehavior for WorkloadComponent {
    fn type_name(&self) -> &str {
        WORKLOAD_TYPE
    }

    fn on_attach(&mut self, ctx: &mut ComponentCtx<'_>) {
        self.arm_timers(ctx);
    }

    fn on_timer(&mut self, ctx: &mut ComponentCtx<'_>, token: u64) {
        let Some(spec) = self.state.interactions.get(token as usize) else {
            return;
        };
        let event = Event::notification(ev_app_symbol()).with_size(spec.event_size);
        ctx.send_to(self.peer_syms[token as usize], event);
        self.state.sent += 1;
        // Re-arm for periodic emission.
        let period = Duration::from_secs_f64(1.0 / spec.frequency);
        ctx.set_timer(period, token);
    }

    fn handle(&mut self, _ctx: &mut ComponentCtx<'_>, event: &Event) {
        if event.name_symbol() == ev_app_symbol() {
            self.state.received += 1;
        }
    }

    fn snapshot(&self) -> Vec<u8> {
        serde_json::to_vec(&self.state).expect("workload state serializes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(peer: &str, freq: f64) -> InteractionSpec {
        InteractionSpec {
            peer: peer.into(),
            frequency: freq,
            event_size: 64,
        }
    }

    #[test]
    fn snapshot_roundtrip_preserves_counters() {
        let mut w = WorkloadComponent::new(vec![spec("x", 2.0)]);
        w.state.sent = 5;
        w.state.received = 3;
        let rebuilt = WorkloadComponent::build(&w.snapshot());
        assert_eq!(rebuilt.snapshot(), w.snapshot());
    }

    #[test]
    fn attach_arms_one_timer_per_active_interaction() {
        let w = WorkloadComponent::new(vec![spec("x", 2.0), spec("y", 0.0), spec("z", 1.0)]);
        let mut actions = Vec::new();
        let mut ctx = crate::brick::ComponentCtx::new("w", &mut actions);
        let mut w2 = w;
        w2.on_attach(&mut ctx);
        // Only the two nonzero-frequency interactions arm timers.
        assert_eq!(actions.len(), 2);
    }

    #[test]
    fn timer_emits_to_peer_and_rearms() {
        let mut w = WorkloadComponent::new(vec![spec("peer", 4.0)]);
        let mut actions = Vec::new();
        let mut ctx = crate::brick::ComponentCtx::new("w", &mut actions);
        w.on_timer(&mut ctx, 0);
        assert_eq!(w.sent(), 1);
        assert_eq!(actions.len(), 2); // the send plus the re-arm
    }

    #[test]
    fn receiving_app_events_increments_counter() {
        let mut w = WorkloadComponent::new(vec![]);
        let mut actions = Vec::new();
        let mut ctx = crate::brick::ComponentCtx::new("w", &mut actions);
        w.handle(&mut ctx, &Event::notification(EV_APP));
        w.handle(&mut ctx, &Event::notification("other"));
        assert_eq!(w.received(), 1);
    }

    #[test]
    #[should_panic(expected = "event size must be positive")]
    fn zero_event_size_panics() {
        let _ = WorkloadComponent::new(vec![InteractionSpec {
            peer: "x".into(),
            frequency: 1.0,
            event_size: 0,
        }]);
    }
}
