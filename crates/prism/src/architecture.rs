//! Architectures: runtime configurations of components and connectors.

use crate::brick::{BrickId, ComponentAction, ComponentBehavior, ComponentCtx};
use crate::connector::Connector;
use crate::event::Event;
use crate::monitor::ConnectorMonitor;
use crate::symbol::Symbol;
use crate::PrismError;
use redep_model::HostId;
use redep_netsim::{Duration, SimTime};
use std::any::Any;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::sync::Arc;

/// A queued local delivery.
///
/// Events are `Arc`-shared: routing an emission to N recipients bumps a
/// reference count N times instead of deep-cloning name, params, and payload
/// per hop. Handlers receive `&Event` and never mutate in place, so no
/// copy-on-write is required on the delivery path.
#[derive(Debug)]
enum Delivery {
    /// Run `on_attach` for the component.
    Attach(BrickId),
    /// Hand an event to the component.
    Handle(BrickId, Arc<Event>),
    /// Fire a timer on the component.
    Timer(BrickId, u64),
}

/// An effect that escapes the architecture and must be carried out by the
/// host runtime (remote sends, timer arming).
#[derive(Clone, PartialEq, Debug)]
pub(crate) enum HostAction {
    /// Ship an event to a named component on another host.
    SendRemote {
        /// Destination host.
        host: HostId,
        /// Destination component instance name.
        to_component: Symbol,
        /// The event.
        event: Event,
    },
    /// Ship an event to a named component wherever the directory says it
    /// currently lives.
    SendNamed {
        /// Destination component instance name.
        to_component: Symbol,
        /// The event.
        event: Event,
    },
    /// Arm a timer for a local component.
    SetTimer {
        /// The component to wake.
        component: Symbol,
        /// Delay from now.
        delay: Duration,
        /// Token passed back on expiry.
        token: u64,
    },
}

struct ComponentSlot {
    name: Symbol,
    behavior: Box<dyn ComponentBehavior>,
    welded: BTreeSet<BrickId>,
}

/// A Prism-MW `Architecture`: the record of a (sub)system's configuration —
/// its components and connectors — with "facilities for their addition,
/// removal, and reconnection, possibly at system run-time".
///
/// Event processing is an explicit, deterministic pump: deliveries queue in
/// FIFO order and [`Architecture::pump`] drains them, which stands in for
/// Prism-MW's thread-pool `Scaffold` without sacrificing reproducibility.
///
/// # Example
///
/// ```
/// use redep_prism::{Architecture, ComponentBehavior, ComponentCtx, Event};
/// use redep_netsim::SimTime;
/// use redep_model::HostId;
///
/// #[derive(Default)]
/// struct Logger { seen: Vec<String> }
/// impl ComponentBehavior for Logger {
///     fn type_name(&self) -> &str { "logger" }
///     fn handle(&mut self, _ctx: &mut ComponentCtx<'_>, event: &Event) {
///         self.seen.push(event.name().to_owned());
///     }
/// }
///
/// let mut arch = Architecture::new("demo", HostId::new(0));
/// let logger = arch.add_component("log", Logger::default())?;
/// let src = arch.add_component("src", Logger::default())?;
/// let bus = arch.add_connector("bus");
/// arch.weld(logger, bus)?;
/// arch.weld(src, bus)?;
///
/// arch.publish("src", Event::notification("hello"))?;
/// arch.pump(SimTime::ZERO);
/// // "src" received the published event; it did not re-emit it, so the
/// // logger saw nothing yet.
/// assert_eq!(arch.component_ref::<Logger>("src").unwrap().seen, ["hello"]);
/// # Ok::<(), redep_prism::PrismError>(())
/// ```
pub struct Architecture {
    name: String,
    host: HostId,
    next_brick: u64,
    /// Component slots indexed by `BrickId::raw()`. `None` marks ids that
    /// belong to connectors or to detached components; brick ids are drawn
    /// from one counter, so both tables are sparse by design. Indexing
    /// replaces the name-keyed `BTreeMap` lookups on the routing hot path.
    components: Vec<Option<ComponentSlot>>,
    /// Components in name order (cold: inventories, checkpoints, `&str`
    /// accessors).
    by_name: BTreeMap<String, BrickId>,
    /// The same components as `(symbol id, brick)` sorted by symbol id — the
    /// per-event lookup of [`Architecture::publish`] and
    /// [`Architecture::deliver_timer`], whose callers hold the `Symbol`.
    by_symbol: Vec<(u32, BrickId)>,
    /// Connector slots indexed by `BrickId::raw()` (see `components`).
    connectors: Vec<Option<Connector>>,
    queue: VecDeque<Delivery>,
    host_actions: Vec<HostAction>,
    scratch: Vec<ComponentAction>,
    /// Reusable recipient buffer for `route_emission`.
    route_scratch: Vec<(BrickId, Symbol)>,
    /// Reusable welded-connector buffer for `route_emission`.
    welded_scratch: Vec<BrickId>,
    now: SimTime,
}

impl fmt::Debug for Architecture {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Architecture")
            .field("name", &self.name)
            .field("host", &self.host)
            .field("components", &self.by_name.keys().collect::<Vec<_>>())
            .field("connectors", &self.connector_count())
            .field("queued", &self.queue.len())
            .finish()
    }
}

impl Architecture {
    /// Creates an empty architecture for the given host.
    pub fn new(name: impl Into<String>, host: HostId) -> Self {
        Architecture {
            name: name.into(),
            host,
            next_brick: 0,
            components: Vec::new(),
            by_name: BTreeMap::new(),
            by_symbol: Vec::new(),
            connectors: Vec::new(),
            queue: VecDeque::new(),
            host_actions: Vec::new(),
            scratch: Vec::new(),
            route_scratch: Vec::new(),
            welded_scratch: Vec::new(),
            now: SimTime::ZERO,
        }
    }

    fn component_slot(&self, id: BrickId) -> Option<&ComponentSlot> {
        self.components.get(id.raw() as usize)?.as_ref()
    }

    fn connector_slot(&self, id: BrickId) -> Option<&Connector> {
        self.connectors.get(id.raw() as usize)?.as_ref()
    }

    fn connector_slot_mut(&mut self, id: BrickId) -> Option<&mut Connector> {
        self.connectors.get_mut(id.raw() as usize)?.as_mut()
    }

    /// The host this architecture runs on.
    pub fn host(&self) -> HostId {
        self.host
    }

    fn fresh_id(&mut self) -> BrickId {
        let id = BrickId::new(self.next_brick);
        self.next_brick += 1;
        id
    }

    // ---- configuration management ------------------------------------------

    /// Adds a component under a unique instance name; its
    /// [`ComponentBehavior::on_attach`] runs at the next pump.
    ///
    /// # Errors
    ///
    /// Returns [`PrismError::DuplicateComponent`] if the name is taken.
    pub fn add_component(
        &mut self,
        name: impl Into<String>,
        behavior: impl ComponentBehavior,
    ) -> Result<BrickId, PrismError> {
        self.add_boxed_component(name, Box::new(behavior))
    }

    /// Adds an already-boxed component (used when reconstituting migrants).
    ///
    /// # Errors
    ///
    /// Returns [`PrismError::DuplicateComponent`] if the name is taken.
    pub fn add_boxed_component(
        &mut self,
        name: impl Into<String>,
        behavior: Box<dyn ComponentBehavior>,
    ) -> Result<BrickId, PrismError> {
        let name = name.into();
        if self.by_name.contains_key(&name) {
            return Err(PrismError::DuplicateComponent(name));
        }
        let id = self.fresh_id();
        let symbol = Symbol::intern(&name);
        self.by_name.insert(name, id);
        let at = self.by_symbol.partition_point(|&(s, _)| s < symbol.id());
        self.by_symbol.insert(at, (symbol.id(), id));
        let idx = id.raw() as usize;
        if self.components.len() <= idx {
            self.components.resize_with(idx + 1, || None);
        }
        self.components[idx] = Some(ComponentSlot {
            name: symbol,
            behavior,
            welded: BTreeSet::new(),
        });
        self.queue.push_back(Delivery::Attach(id));
        Ok(id)
    }

    /// Detaches a component: unwelds it everywhere and removes it, returning
    /// its type name and state snapshot (the payload of a migration).
    ///
    /// # Errors
    ///
    /// Returns [`PrismError::UnknownComponent`] if no such component exists.
    pub fn detach_component(&mut self, name: &str) -> Result<(String, Vec<u8>), PrismError> {
        let id = self
            .by_name
            .remove(name)
            .ok_or_else(|| PrismError::UnknownComponent(name.to_owned()))?;
        let slot = self.components[id.raw() as usize]
            .take()
            .expect("maps in sync");
        self.by_symbol.retain(|&(_, brick)| brick != id);
        for conn in slot.welded {
            if let Some(c) = self.connector_slot_mut(conn) {
                c.unweld(id);
            }
        }
        // Deliveries already queued for the departed component are dropped;
        // the host-level buffer is responsible for not losing remote events.
        self.queue.retain(|d| match d {
            Delivery::Attach(i) | Delivery::Handle(i, _) | Delivery::Timer(i, _) => *i != id,
        });
        Ok((
            slot.behavior.type_name().to_owned(),
            slot.behavior.snapshot(),
        ))
    }

    /// Adds a connector.
    pub fn add_connector(&mut self, name: impl Into<String>) -> BrickId {
        let id = self.fresh_id();
        let idx = id.raw() as usize;
        if self.connectors.len() <= idx {
            self.connectors.resize_with(idx + 1, || None);
        }
        self.connectors[idx] = Some(Connector::new(id, name));
        id
    }

    /// Welds a component to a connector.
    ///
    /// # Errors
    ///
    /// Returns [`PrismError::UnknownBrick`] if either id is unknown and
    /// [`PrismError::InvalidWeld`] if `component`/`connector` name bricks of
    /// the wrong kinds.
    pub fn weld(&mut self, component: BrickId, connector: BrickId) -> Result<(), PrismError> {
        if self.connector_slot(component).is_some() || self.component_slot(connector).is_some() {
            return Err(PrismError::InvalidWeld(component, connector));
        }
        let slot = self
            .components
            .get_mut(component.raw() as usize)
            .and_then(Option::as_mut)
            .ok_or(PrismError::UnknownBrick(component))?;
        let conn = self
            .connectors
            .get_mut(connector.raw() as usize)
            .and_then(Option::as_mut)
            .ok_or(PrismError::UnknownBrick(connector))?;
        slot.welded.insert(connector);
        conn.weld(component);
        Ok(())
    }

    /// Attaches a monitor to a connector.
    ///
    /// # Errors
    ///
    /// Returns [`PrismError::UnknownBrick`] if the connector is unknown.
    pub fn attach_monitor(
        &mut self,
        connector: BrickId,
        monitor: impl ConnectorMonitor,
    ) -> Result<(), PrismError> {
        self.connector_slot_mut(connector)
            .ok_or(PrismError::UnknownBrick(connector))?
            .add_monitor(Box::new(monitor));
        Ok(())
    }

    /// Mutably borrows a connector's monitor of concrete type `T`.
    pub fn monitor_mut<T: ConnectorMonitor>(&mut self, connector: BrickId) -> Option<&mut T> {
        self.connector_slot_mut(connector)?
            .monitors_mut()
            .iter_mut()
            .find_map(|m| {
                let any: &mut dyn Any = m.as_mut();
                any.downcast_mut::<T>()
            })
    }

    // ---- introspection -------------------------------------------------------

    /// Returns `true` if a component with this instance name exists.
    pub fn contains_component(&self, name: &str) -> bool {
        self.by_name.contains_key(name)
    }

    /// [`Architecture::contains_component`] for callers that hold the
    /// component's `Symbol`.
    pub(crate) fn contains_symbol(&self, name: Symbol) -> bool {
        self.brick_of(name).is_some()
    }

    /// The component interned as `name`, if it is attached here.
    fn brick_of(&self, name: Symbol) -> Option<BrickId> {
        let at = self
            .by_symbol
            .binary_search_by_key(&name.id(), |&(s, _)| s)
            .ok()?;
        Some(self.by_symbol[at].1)
    }

    /// `(instance name, type name)` of every component, in name order.
    pub fn component_inventory(&self) -> Vec<(String, String)> {
        self.by_name
            .iter()
            .map(|(name, id)| {
                let slot = self.component_slot(*id).expect("maps in sync");
                (name.clone(), slot.behavior.type_name().to_owned())
            })
            .collect()
    }

    /// `(instance name, type name, state snapshot)` of every component, in
    /// name order, *without* detaching anything — the checkpoint path of the
    /// durable store and the state-equivalence witness of crash recovery.
    pub fn component_snapshots(&self) -> Vec<(String, String, Vec<u8>)> {
        self.by_name
            .iter()
            .map(|(name, id)| {
                let slot = self.component_slot(*id).expect("maps in sync");
                (
                    name.clone(),
                    slot.behavior.type_name().to_owned(),
                    slot.behavior.snapshot(),
                )
            })
            .collect()
    }

    /// Number of components.
    pub fn component_count(&self) -> usize {
        self.by_name.len()
    }

    /// Number of connectors.
    fn connector_count(&self) -> usize {
        self.connectors.iter().flatten().count()
    }

    /// Borrows a component downcast to its concrete type.
    pub fn component_ref<T: ComponentBehavior>(&self, name: &str) -> Option<&T> {
        let id = *self.by_name.get(name)?;
        let any: &dyn Any = self.component_slot(id)?.behavior.as_ref();
        any.downcast_ref::<T>()
    }

    // ---- event flow -----------------------------------------------------------

    /// Queues an event for direct delivery to the named component (used for
    /// events arriving from other hosts and for external injection).
    ///
    /// # Errors
    ///
    /// Returns [`PrismError::UnknownComponent`] when no such component is
    /// currently attached — the caller (host runtime) buffers such events
    /// during migrations.
    pub fn publish(&mut self, to_component: &str, event: Event) -> Result<(), PrismError> {
        // A name that was never interned names no component: resolve
        // without interning (see `Symbol::intern`).
        match Symbol::lookup(to_component) {
            Some(symbol) => self.publish_to(symbol, event),
            None => Err(PrismError::UnknownComponent(to_component.to_owned())),
        }
    }

    /// [`Architecture::publish`] for callers that hold the component's
    /// `Symbol` (the per-event path of the host runtime).
    ///
    /// # Errors
    ///
    /// Returns [`PrismError::UnknownComponent`] when no such component is
    /// currently attached.
    pub fn publish_to(&mut self, to_component: Symbol, event: Event) -> Result<(), PrismError> {
        let id = self
            .brick_of(to_component)
            .ok_or_else(|| PrismError::UnknownComponent(to_component.as_str().to_owned()))?;
        self.queue.push_back(Delivery::Handle(id, Arc::new(event)));
        Ok(())
    }

    /// Queues a timer expiry for the named component.
    ///
    /// # Errors
    ///
    /// Returns [`PrismError::UnknownComponent`] when the component has left
    /// this architecture (e.g. it migrated away after arming the timer).
    pub fn deliver_timer(&mut self, component: Symbol, token: u64) -> Result<(), PrismError> {
        let id = self
            .brick_of(component)
            .ok_or_else(|| PrismError::UnknownComponent(component.as_str().to_owned()))?;
        self.queue.push_back(Delivery::Timer(id, token));
        Ok(())
    }

    /// Routes an emission from `src` through all its welded connectors,
    /// notifying monitors per delivery.
    ///
    /// Hot path: names are `Copy` symbols, recipient lists reuse persistent
    /// scratch buffers, and the event is `Arc`-shared across recipients
    /// instead of deep-cloned per hop (a single-recipient delivery moves the
    /// sole reference).
    fn route_emission(&mut self, src: BrickId, event: Event) {
        let src_name = match self.component_slot(src) {
            Some(s) => s.name,
            None => return, // emitter detached mid-pump
        };
        let now = self.now;
        let event = Arc::new(event);
        let mut welded = std::mem::take(&mut self.welded_scratch);
        welded.clear();
        welded.extend(
            self.component_slot(src)
                .expect("checked above")
                .welded
                .iter()
                .copied(),
        );
        let mut recipients = std::mem::take(&mut self.route_scratch);
        recipients.clear();
        for &conn_id in &welded {
            let start = recipients.len();
            {
                let Some(conn) = self.connector_slot(conn_id) else {
                    continue;
                };
                for dst in conn.attached() {
                    if dst == src {
                        continue;
                    }
                    if let Some(slot) = self.component_slot(dst) {
                        recipients.push((dst, slot.name));
                    }
                }
            }
            if let Some(conn) = self.connector_slot_mut(conn_id) {
                for &(_, dst_name) in &recipients[start..] {
                    for m in conn.monitors_mut() {
                        m.observe(src_name, dst_name, &event, now);
                    }
                }
            }
        }
        for &(dst, _) in &recipients {
            self.queue
                .push_back(Delivery::Handle(dst, Arc::clone(&event)));
        }
        recipients.clear();
        self.route_scratch = recipients;
        self.welded_scratch = welded;
    }

    /// Drains the delivery queue, running component callbacks. Returns the
    /// number of deliveries processed.
    ///
    /// `now` stamps what the monitors observe.
    pub fn pump(&mut self, now: SimTime) -> u64 {
        self.now = now;
        let mut processed = 0;
        while let Some(delivery) = self.queue.pop_front() {
            processed += 1;
            let (Delivery::Attach(id) | Delivery::Handle(id, _) | Delivery::Timer(id, _)) =
                delivery;
            let Some(mut slot) = self
                .components
                .get_mut(id.raw() as usize)
                .and_then(Option::take)
            else {
                continue; // component detached while the delivery was queued
            };
            let mut actions = std::mem::take(&mut self.scratch);
            actions.clear();
            {
                let mut ctx = ComponentCtx::new(slot.name, &mut actions);
                let behavior = slot.behavior.as_mut();
                match &delivery {
                    Delivery::Attach(_) => behavior.on_attach(&mut ctx),
                    Delivery::Handle(_, event) => behavior.handle(&mut ctx, event),
                    Delivery::Timer(_, token) => behavior.on_timer(&mut ctx, *token),
                }
            }
            let name = slot.name;
            self.components[id.raw() as usize] = Some(slot);
            for action in actions.drain(..) {
                match action {
                    ComponentAction::Emit(event) => self.route_emission(id, event),
                    ComponentAction::SendRemote {
                        host,
                        to_component,
                        event,
                    } => self.host_actions.push(HostAction::SendRemote {
                        host,
                        to_component,
                        event,
                    }),
                    ComponentAction::SendNamed {
                        to_component,
                        event,
                    } => self.host_actions.push(HostAction::SendNamed {
                        to_component,
                        event,
                    }),
                    ComponentAction::SetTimer { delay, token } => {
                        self.host_actions.push(HostAction::SetTimer {
                            component: name,
                            delay,
                            token,
                        })
                    }
                }
            }
            self.scratch = actions;
        }
        processed
    }

    /// Lends out the buffer of host-level effects accumulated by pumping.
    /// The host drains it and hands it back
    /// ([`Architecture::return_host_actions`]) before the next pump, so the
    /// one buffer keeps its capacity; nothing but `pump` writes to it.
    pub(crate) fn lend_host_actions(&mut self) -> Vec<HostAction> {
        std::mem::take(&mut self.host_actions)
    }

    /// Takes the lent buffer back, emptied — unless a burst (every component
    /// of a host attaching at once arms hundreds of timers) grew it past
    /// what a steady host needs: a `HostAction` is 360 bytes, so that
    /// buffer is released instead of pinned for the rest of the run.
    pub(crate) fn return_host_actions(&mut self, mut actions: Vec<HostAction>) {
        const KEPT: usize = 16;
        debug_assert!(self.host_actions.is_empty(), "pumped while lent out");
        if actions.capacity() <= KEPT {
            actions.clear();
            self.host_actions = actions;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::EventFrequencyMonitor;

    /// Records received event names; re-emits events named "relay me".
    #[derive(Default)]
    struct Recorder {
        seen: Vec<String>,
        attached: u32,
    }
    impl ComponentBehavior for Recorder {
        fn type_name(&self) -> &str {
            "recorder"
        }
        fn on_attach(&mut self, _ctx: &mut ComponentCtx<'_>) {
            self.attached += 1;
        }
        fn handle(&mut self, ctx: &mut ComponentCtx<'_>, event: &Event) {
            self.seen.push(event.name().to_owned());
            if event.name() == "relay me" {
                ctx.emit(Event::notification("relayed"));
            }
        }
        fn snapshot(&self) -> Vec<u8> {
            self.seen.join(",").into_bytes()
        }
    }

    fn arch() -> Architecture {
        Architecture::new("test", HostId::new(0))
    }

    #[test]
    fn on_attach_runs_at_first_pump() {
        let mut a = arch();
        a.add_component("r", Recorder::default()).unwrap();
        assert_eq!(a.component_ref::<Recorder>("r").unwrap().attached, 0);
        a.pump(SimTime::ZERO);
        assert_eq!(a.component_ref::<Recorder>("r").unwrap().attached, 1);
    }

    #[test]
    fn duplicate_names_are_rejected() {
        let mut a = arch();
        a.add_component("r", Recorder::default()).unwrap();
        assert!(matches!(
            a.add_component("r", Recorder::default()),
            Err(PrismError::DuplicateComponent(_))
        ));
    }

    #[test]
    fn connector_routes_to_all_other_attached() {
        let mut a = arch();
        let x = a.add_component("x", Recorder::default()).unwrap();
        let y = a.add_component("y", Recorder::default()).unwrap();
        let z = a.add_component("z", Recorder::default()).unwrap();
        let bus = a.add_connector("bus");
        a.weld(x, bus).unwrap();
        a.weld(y, bus).unwrap();
        a.weld(z, bus).unwrap();
        a.publish("x", Event::notification("relay me")).unwrap();
        a.pump(SimTime::ZERO);
        // x received "relay me" and emitted "relayed" to y and z only.
        assert_eq!(a.component_ref::<Recorder>("x").unwrap().seen, ["relay me"]);
        assert_eq!(a.component_ref::<Recorder>("y").unwrap().seen, ["relayed"]);
        assert_eq!(a.component_ref::<Recorder>("z").unwrap().seen, ["relayed"]);
    }

    #[test]
    fn unwelded_component_receives_nothing() {
        let mut a = arch();
        let x = a.add_component("x", Recorder::default()).unwrap();
        a.add_component("y", Recorder::default()).unwrap();
        let bus = a.add_connector("bus");
        a.weld(x, bus).unwrap();
        a.publish("x", Event::notification("relay me")).unwrap();
        a.pump(SimTime::ZERO);
        assert!(a.component_ref::<Recorder>("y").unwrap().seen.is_empty());
    }

    #[test]
    fn weld_requires_component_and_connector() {
        let mut a = arch();
        let x = a.add_component("x", Recorder::default()).unwrap();
        let y = a.add_component("y", Recorder::default()).unwrap();
        assert!(matches!(a.weld(x, y), Err(PrismError::InvalidWeld(_, _))));
        let bus = a.add_connector("bus");
        assert!(matches!(a.weld(bus, x), Err(PrismError::InvalidWeld(_, _))));
    }

    #[test]
    fn publish_to_unknown_component_errors() {
        let mut a = arch();
        assert!(matches!(
            a.publish("ghost", Event::notification("n")),
            Err(PrismError::UnknownComponent(_))
        ));
    }

    #[test]
    fn detach_returns_type_and_snapshot_and_stops_delivery() {
        let mut a = arch();
        let x = a.add_component("x", Recorder::default()).unwrap();
        let y = a.add_component("y", Recorder::default()).unwrap();
        let bus = a.add_connector("bus");
        a.weld(x, bus).unwrap();
        a.weld(y, bus).unwrap();
        a.publish("y", Event::notification("first")).unwrap();
        a.pump(SimTime::ZERO);

        let (ty, state) = a.detach_component("y").unwrap();
        assert_eq!(ty, "recorder");
        assert_eq!(state, b"first");
        assert!(!a.contains_component("y"));
        // Emissions no longer reach the detached component.
        a.publish("x", Event::notification("relay me")).unwrap();
        a.pump(SimTime::ZERO);
        assert_eq!(a.component_count(), 1);
    }

    #[test]
    fn queued_deliveries_for_detached_component_are_dropped() {
        let mut a = arch();
        a.add_component("x", Recorder::default()).unwrap();
        a.publish("x", Event::notification("n")).unwrap();
        a.detach_component("x").unwrap();
        assert_eq!(a.pump(SimTime::ZERO), 0);
    }

    #[test]
    fn timer_delivery_reaches_component() {
        #[derive(Default)]
        struct TimerSink {
            tokens: Vec<u64>,
        }
        impl ComponentBehavior for TimerSink {
            fn type_name(&self) -> &str {
                "timer-sink"
            }
            fn on_timer(&mut self, _ctx: &mut ComponentCtx<'_>, token: u64) {
                self.tokens.push(token);
            }
        }
        let mut a = arch();
        a.add_component("t", TimerSink::default()).unwrap();
        a.deliver_timer(Symbol::intern("t"), 9).unwrap();
        a.pump(SimTime::ZERO);
        assert_eq!(a.component_ref::<TimerSink>("t").unwrap().tokens, [9]);
    }

    #[test]
    fn remote_sends_surface_as_host_actions() {
        struct RemoteCaller;
        impl ComponentBehavior for RemoteCaller {
            fn type_name(&self) -> &str {
                "remote-caller"
            }
            fn on_attach(&mut self, ctx: &mut ComponentCtx<'_>) {
                ctx.send_remote(HostId::new(7), "peer", Event::request("hi"));
            }
        }
        let mut a = arch();
        a.add_component("rc", RemoteCaller).unwrap();
        a.pump(SimTime::ZERO);
        let actions = a.lend_host_actions();
        assert_eq!(actions.len(), 1);
        match &actions[0] {
            HostAction::SendRemote {
                host,
                to_component,
                event,
            } => {
                assert_eq!(*host, HostId::new(7));
                assert_eq!(to_component, "peer");
                assert_eq!(event.name(), "hi");
            }
            other => panic!("unexpected {other:?}"),
        }
        // Handed back, the buffer is empty and keeps its capacity.
        let capacity = actions.capacity();
        a.return_host_actions(actions);
        let actions = a.lend_host_actions();
        assert!(actions.is_empty());
        assert_eq!(actions.capacity(), capacity);
    }

    #[test]
    fn frequency_monitor_sees_connector_traffic() {
        let mut a = arch();
        let x = a.add_component("x", Recorder::default()).unwrap();
        let y = a.add_component("y", Recorder::default()).unwrap();
        let bus = a.add_connector("bus");
        a.weld(x, bus).unwrap();
        a.weld(y, bus).unwrap();
        a.attach_monitor(bus, EventFrequencyMonitor::new()).unwrap();
        a.publish("x", Event::notification("relay me")).unwrap();
        a.pump(SimTime::ZERO);
        let m = a.monitor_mut::<EventFrequencyMonitor>(bus).unwrap();
        let w = m.roll_window(SimTime::from_secs_f64(1.0));
        assert!(w.frequency("x", "y") > 0.0);
    }

    #[test]
    fn inventory_lists_components_in_name_order() {
        let mut a = arch();
        a.add_component("zeta", Recorder::default()).unwrap();
        a.add_component("alpha", Recorder::default()).unwrap();
        let inv = a.component_inventory();
        assert_eq!(
            inv,
            vec![
                ("alpha".to_owned(), "recorder".to_owned()),
                ("zeta".to_owned(), "recorder".to_owned())
            ]
        );
    }
}
