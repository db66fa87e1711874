//! Bricks: the identities and behaviors of architectural elements.

use crate::event::Event;
use crate::symbol::Symbol;
use crate::PrismError;
use redep_model::HostId;
use redep_netsim::Duration;
use serde::{Deserialize, Serialize};
use std::any::Any;
use std::collections::BTreeMap;
use std::fmt;

/// Identity of a brick (component or connector) within one architecture.
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize, Default,
)]
#[serde(transparent)]
pub struct BrickId(u64);

impl BrickId {
    pub(crate) const fn new(raw: u64) -> Self {
        BrickId(raw)
    }

    /// The raw index.
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for BrickId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}", self.0)
    }
}

/// What a component asked the runtime to do during a callback.
#[derive(Clone, PartialEq, Debug)]
pub(crate) enum ComponentAction {
    /// Route an event through the local connectors welded to this component.
    Emit(Event),
    /// Ship an event to a named component on another host.
    SendRemote {
        host: HostId,
        to_component: Symbol,
        event: Event,
    },
    /// Ship an event to a named component wherever it currently lives
    /// (the host resolves the location through its deployment directory).
    SendNamed { to_component: Symbol, event: Event },
    /// Arm a one-shot timer for this component.
    SetTimer { delay: Duration, token: u64 },
}

/// The interface a component uses to act on the world during a callback.
///
/// As with the simulator's node contexts, actions are buffered and applied
/// after the callback returns, which keeps event processing single-pass and
/// deterministic.
#[derive(Debug)]
pub struct ComponentCtx<'a> {
    component: Symbol,
    actions: &'a mut Vec<ComponentAction>,
}

impl<'a> ComponentCtx<'a> {
    pub(crate) fn new(component: impl Into<Symbol>, actions: &'a mut Vec<ComponentAction>) -> Self {
        ComponentCtx {
            component: component.into(),
            actions,
        }
    }

    /// Emits an event through every connector welded to this component.
    pub fn emit(&mut self, mut event: Event) {
        event.set_source(self.component);
        self.actions.push(ComponentAction::Emit(event));
    }

    /// Sends an event to the component named `to_component` on `host`
    /// (through the host's distribution transport).
    pub fn send_remote(&mut self, host: HostId, to_component: impl Into<Symbol>, mut event: Event) {
        event.set_source(self.component);
        self.actions.push(ComponentAction::SendRemote {
            host,
            to_component: to_component.into(),
            event,
        });
    }

    /// Sends an event to the component named `to_component`, wherever it is
    /// currently deployed — locally or on a remote host. The host runtime
    /// resolves the location through its deployment directory, so senders
    /// keep working across migrations of their peers.
    pub fn send_to(&mut self, to_component: impl Into<Symbol>, mut event: Event) {
        event.set_source(self.component);
        self.actions.push(ComponentAction::SendNamed {
            to_component: to_component.into(),
            event,
        });
    }

    /// Arms a one-shot timer delivered to [`ComponentBehavior::on_timer`].
    pub fn set_timer(&mut self, delay: Duration, token: u64) {
        self.actions
            .push(ComponentAction::SetTimer { delay, token });
    }
}

/// Application behavior of a component.
///
/// Implementations are plain Rust types; the architecture owns them as
/// `Box<dyn ComponentBehavior>`. For a component to be **migratable** (the
/// paper's `Serializable` components shipped between address spaces), give it
/// a stable [`type_name`](ComponentBehavior::type_name), implement
/// [`snapshot`](ComponentBehavior::snapshot), and register a constructor with
/// the [`ComponentFactory`].
pub trait ComponentBehavior: Any + Send {
    /// Stable type name used to reconstitute the component after migration.
    fn type_name(&self) -> &str;

    /// Handles an event routed to this component.
    fn handle(&mut self, ctx: &mut ComponentCtx<'_>, event: &Event) {
        let _ = (ctx, event);
    }

    /// Called when the component is (re)attached to an architecture —
    /// at startup and after each migration.
    fn on_attach(&mut self, ctx: &mut ComponentCtx<'_>) {
        let _ = ctx;
    }

    /// Called when a timer armed via [`ComponentCtx::set_timer`] fires.
    fn on_timer(&mut self, ctx: &mut ComponentCtx<'_>, token: u64) {
        let _ = (ctx, token);
    }

    /// Serializes the component's migratable state.
    fn snapshot(&self) -> Vec<u8> {
        Vec::new()
    }
}

/// Reconstitutes components from their type name and snapshot — the
/// "installed software" every host needs in order to receive migrants.
///
/// # Example
///
/// ```
/// use redep_prism::{ComponentFactory, ComponentBehavior, ComponentCtx, Event};
///
/// #[derive(Default)]
/// struct Counter { count: u64 }
/// impl ComponentBehavior for Counter {
///     fn type_name(&self) -> &str { "counter" }
///     fn snapshot(&self) -> Vec<u8> { self.count.to_le_bytes().to_vec() }
/// }
///
/// let mut factory = ComponentFactory::new();
/// factory.register("counter", |state| {
///     let mut c = Counter::default();
///     if state.len() == 8 {
///         c.count = u64::from_le_bytes(state.try_into().unwrap());
///     }
///     Box::new(c)
/// });
/// let migrant = factory.build("counter", &42u64.to_le_bytes())?;
/// assert_eq!(migrant.snapshot(), 42u64.to_le_bytes());
/// # Ok::<(), redep_prism::PrismError>(())
/// ```
#[derive(Default)]
pub struct ComponentFactory {
    constructors: BTreeMap<String, Constructor>,
}

/// A constructor reconstituting a component from its state snapshot.
type Constructor = Box<dyn Fn(&[u8]) -> Box<dyn ComponentBehavior> + Send>;

impl fmt::Debug for ComponentFactory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ComponentFactory")
            .field("types", &self.constructors.keys().collect::<Vec<_>>())
            .finish()
    }
}

impl ComponentFactory {
    /// Creates an empty factory.
    pub fn new() -> Self {
        ComponentFactory::default()
    }

    /// Registers a constructor for `type_name`, replacing any previous one.
    pub fn register(
        &mut self,
        type_name: impl Into<String>,
        constructor: impl Fn(&[u8]) -> Box<dyn ComponentBehavior> + Send + 'static,
    ) {
        self.constructors
            .insert(type_name.into(), Box::new(constructor));
    }

    /// Reconstitutes a component from its snapshot.
    ///
    /// # Errors
    ///
    /// Returns [`PrismError::UnregisteredType`] for unknown types.
    pub fn build(
        &self,
        type_name: &str,
        state: &[u8],
    ) -> Result<Box<dyn ComponentBehavior>, PrismError> {
        let ctor = self
            .constructors
            .get(type_name)
            .ok_or_else(|| PrismError::UnregisteredType(type_name.to_owned()))?;
        Ok(ctor(state))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Probe;
    impl ComponentBehavior for Probe {
        fn type_name(&self) -> &str {
            "probe"
        }
    }

    #[test]
    fn ctx_buffers_and_stamps_source() {
        let mut actions = Vec::new();
        let mut ctx = ComponentCtx::new("gui", &mut actions);
        ctx.emit(Event::notification("n"));
        ctx.send_remote(HostId::new(1), "tracker", Event::request("r"));
        ctx.set_timer(Duration::from_millis(5), 1);
        assert_eq!(actions.len(), 3);
        match &actions[0] {
            ComponentAction::Emit(e) => assert_eq!(e.source(), Some("gui")),
            other => panic!("unexpected action {other:?}"),
        }
        match &actions[1] {
            ComponentAction::SendRemote {
                host,
                to_component,
                event,
            } => {
                assert_eq!(*host, HostId::new(1));
                assert_eq!(to_component, "tracker");
                assert_eq!(event.source(), Some("gui"));
            }
            other => panic!("unexpected action {other:?}"),
        }
    }

    #[test]
    fn factory_builds_registered_types() {
        let mut f = ComponentFactory::new();
        f.register("probe", |_| Box::new(Probe));
        assert!(f.build("probe", &[]).is_ok());
    }

    #[test]
    fn factory_rejects_unknown_types() {
        let f = ComponentFactory::new();
        assert_eq!(
            f.build("ghost", &[]).map(|_| ()),
            Err(PrismError::UnregisteredType("ghost".into()))
        );
    }

    #[test]
    fn default_behavior_methods_are_noops() {
        let mut p = Probe;
        assert!(p.snapshot().is_empty());
        let mut actions = Vec::new();
        let mut ctx = ComponentCtx::new("p", &mut actions);
        p.handle(&mut ctx, &Event::notification("n"));
        p.on_attach(&mut ctx);
        p.on_timer(&mut ctx, 0);
        assert!(actions.is_empty());
    }

    #[test]
    fn brick_id_display() {
        assert_eq!(BrickId::new(4).to_string(), "b4");
    }
}
