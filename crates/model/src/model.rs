//! The deployment-architecture model itself.

use crate::constraints::ConstraintSet;
use crate::eval::CompiledModel;
use crate::ids::{ComponentId, HostId};
use crate::links::{ComponentPair, HostPair, LogicalLink, PhysicalLink};
use crate::parts::{Component, Host};
use crate::ModelError;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// The model of a distributed system's deployment architecture.
///
/// Holds the four kinds of model parts from the paper — hosts, components,
/// physical links, logical links — together with the architect-supplied
/// [`ConstraintSet`]. The model deliberately does **not** embed a current
/// [`Deployment`](crate::Deployment); deployments are first-class values so
/// that algorithms can propose many candidates against one model.
///
/// All collections are ordered maps, so iteration (and everything derived
/// from it) is deterministic.
///
/// The model keeps its [`CompiledModel`] snapshot (see
/// [`DeploymentModel::compiled`]) until the next edit: every `&mut self`
/// method drops it first. The snapshot is derived data — ignored by `==`,
/// never serialized, opaque in `Debug`.
///
/// # Example
///
/// ```
/// use redep_model::DeploymentModel;
/// let mut model = DeploymentModel::new();
/// let a = model.add_host("alpha")?;
/// let b = model.add_host("beta")?;
/// model.set_physical_link(a, b, |l| l.set_reliability(0.9))?;
/// assert_eq!(model.reliability(a, b), 0.9);
/// assert_eq!(model.reliability(a, a), 1.0); // local interaction
/// # Ok::<(), redep_model::ModelError>(())
/// ```
#[derive(Clone, PartialEq, Debug, Default, Serialize, Deserialize)]
pub struct DeploymentModel {
    hosts: BTreeMap<HostId, Host>,
    components: BTreeMap<ComponentId, Component>,
    #[serde(with = "physical_link_map")]
    physical_links: BTreeMap<HostPair, PhysicalLink>,
    #[serde(with = "logical_link_map")]
    logical_links: BTreeMap<ComponentPair, LogicalLink>,
    constraints: ConstraintSet,
    next_host: u32,
    next_component: u32,
    #[serde(skip)]
    compiled: CompiledMemo,
}

/// The compiled snapshot of the model's current version, built on first
/// use. Clones share it (they are the same version); equality and `Debug`
/// ignore it.
#[derive(Clone, Default)]
struct CompiledMemo(OnceLock<Arc<CompiledModel>>);

impl PartialEq for CompiledMemo {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl fmt::Debug for CompiledMemo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("..")
    }
}

/// Quality of a multi-hop path returned by [`DeploymentModel::best_path`].
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct PathQuality {
    /// Product of the per-hop link reliabilities.
    pub reliability: f64,
    /// Sum of the per-hop transmission delays.
    pub delay: f64,
    /// Bottleneck bandwidth along the path.
    pub bandwidth: f64,
    /// Number of hops (`0` for a host with itself).
    pub hops: usize,
}

/// Serializes the physical-link map as a sequence of links (JSON maps need
/// string keys; the key is recoverable from each link's endpoints).
mod physical_link_map {
    use super::*;
    use serde::{Error, Value};

    pub fn serialize(map: &BTreeMap<HostPair, PhysicalLink>) -> Value {
        Value::Array(map.values().map(Serialize::serialize).collect())
    }

    pub fn deserialize(value: &Value) -> Result<BTreeMap<HostPair, PhysicalLink>, Error> {
        let links = Vec::<PhysicalLink>::deserialize(value)?;
        Ok(links.into_iter().map(|l| (l.ends(), l)).collect())
    }
}

/// Serializes the logical-link map as a sequence of links.
mod logical_link_map {
    use super::*;
    use serde::{Error, Value};

    pub fn serialize(map: &BTreeMap<ComponentPair, LogicalLink>) -> Value {
        Value::Array(map.values().map(Serialize::serialize).collect())
    }

    pub fn deserialize(value: &Value) -> Result<BTreeMap<ComponentPair, LogicalLink>, Error> {
        let links = Vec::<LogicalLink>::deserialize(value)?;
        Ok(links.into_iter().map(|l| (l.ends(), l)).collect())
    }
}

impl DeploymentModel {
    /// Creates an empty model.
    pub fn new() -> Self {
        DeploymentModel::default()
    }

    /// The dense snapshot of this model version, compiled on first use.
    ///
    /// Later calls return the same `Arc` until the next edit, so every
    /// solve against an unchanged model shares one compile (and one lazily
    /// built path-reliability matrix). The result always equals
    /// [`CompiledModel::compile`] of the model as it is now.
    pub fn compiled(&self) -> Arc<CompiledModel> {
        Arc::clone(
            self.compiled
                .0
                .get_or_init(|| Arc::new(CompiledModel::compile(self))),
        )
    }

    /// Drops the compiled snapshot; the first line of every `&mut self`
    /// method.
    fn edit(&mut self) {
        self.compiled.0.take();
    }

    // ---- hosts ----------------------------------------------------------

    /// Adds a host with a fresh id and the given name.
    ///
    /// # Errors
    ///
    /// Currently infallible; the `Result` return leaves room for id-space
    /// exhaustion and name-uniqueness policies without breaking callers.
    pub fn add_host(&mut self, name: impl Into<String>) -> Result<HostId, ModelError> {
        self.edit();
        let id = HostId::new(self.next_host);
        self.next_host += 1;
        self.hosts.insert(id, Host::new(id, name));
        Ok(id)
    }

    /// Removes a host and all physical links attached to it.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::UnknownHost`] if the host does not exist.
    /// The caller is responsible for ensuring no deployment still maps
    /// components to this host.
    pub fn remove_host(&mut self, id: HostId) -> Result<Host, ModelError> {
        self.edit();
        let host = self.hosts.remove(&id).ok_or(ModelError::UnknownHost(id))?;
        self.physical_links.retain(|pair, _| !pair.contains(id));
        Ok(host)
    }

    /// Returns a host by id.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::UnknownHost`] if the host does not exist.
    pub fn host(&self, id: HostId) -> Result<&Host, ModelError> {
        self.hosts.get(&id).ok_or(ModelError::UnknownHost(id))
    }

    /// Returns a host by id for modification.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::UnknownHost`] if the host does not exist.
    pub fn host_mut(&mut self, id: HostId) -> Result<&mut Host, ModelError> {
        self.edit();
        self.hosts.get_mut(&id).ok_or(ModelError::UnknownHost(id))
    }

    /// Returns `true` if the model contains the host.
    pub fn contains_host(&self, id: HostId) -> bool {
        self.hosts.contains_key(&id)
    }

    /// Iterates over hosts in id order.
    pub fn hosts(&self) -> impl Iterator<Item = &Host> {
        self.hosts.values()
    }

    /// Returns all host ids in order.
    pub fn host_ids(&self) -> Vec<HostId> {
        self.hosts.keys().copied().collect()
    }

    /// Number of hosts.
    pub fn host_count(&self) -> usize {
        self.hosts.len()
    }

    // ---- components -----------------------------------------------------

    /// Adds a component with a fresh id and the given name.
    ///
    /// # Errors
    ///
    /// Currently infallible; see [`DeploymentModel::add_host`].
    pub fn add_component(&mut self, name: impl Into<String>) -> Result<ComponentId, ModelError> {
        self.edit();
        let id = ComponentId::new(self.next_component);
        self.next_component += 1;
        self.components.insert(id, Component::new(id, name));
        Ok(id)
    }

    /// Removes a component and all logical links attached to it.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::UnknownComponent`] if the component does not
    /// exist.
    pub fn remove_component(&mut self, id: ComponentId) -> Result<Component, ModelError> {
        self.edit();
        let component = self
            .components
            .remove(&id)
            .ok_or(ModelError::UnknownComponent(id))?;
        self.logical_links.retain(|pair, _| !pair.contains(id));
        Ok(component)
    }

    /// Returns a component by id.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::UnknownComponent`] if the component does not
    /// exist.
    pub fn component(&self, id: ComponentId) -> Result<&Component, ModelError> {
        self.components
            .get(&id)
            .ok_or(ModelError::UnknownComponent(id))
    }

    /// Returns a component by id for modification.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::UnknownComponent`] if the component does not
    /// exist.
    pub fn component_mut(&mut self, id: ComponentId) -> Result<&mut Component, ModelError> {
        self.edit();
        self.components
            .get_mut(&id)
            .ok_or(ModelError::UnknownComponent(id))
    }

    /// Returns `true` if the model contains the component.
    pub fn contains_component(&self, id: ComponentId) -> bool {
        self.components.contains_key(&id)
    }

    /// Iterates over components in id order.
    pub fn components(&self) -> impl Iterator<Item = &Component> {
        self.components.values()
    }

    /// Returns all component ids in order.
    pub fn component_ids(&self) -> Vec<ComponentId> {
        self.components.keys().copied().collect()
    }

    /// Number of components.
    pub fn component_count(&self) -> usize {
        self.components.len()
    }

    // ---- physical links --------------------------------------------------

    /// Creates or updates the physical link between `a` and `b`.
    ///
    /// The closure receives the (existing or fresh) link for configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::UnknownHost`] if either endpoint does not exist.
    ///
    /// # Panics
    ///
    /// Panics if `a == b`.
    pub fn set_physical_link<R>(
        &mut self,
        a: HostId,
        b: HostId,
        configure: impl FnOnce(&mut PhysicalLink) -> R,
    ) -> Result<(), ModelError> {
        self.edit();
        if !self.contains_host(a) {
            return Err(ModelError::UnknownHost(a));
        }
        if !self.contains_host(b) {
            return Err(ModelError::UnknownHost(b));
        }
        let link = self
            .physical_links
            .entry(HostPair::new(a, b))
            .or_insert_with(|| PhysicalLink::new(a, b));
        configure(link);
        Ok(())
    }

    /// Adds `links` to the physical layer in one bulk build — a sort and a
    /// merge — instead of one map insert per link: the generator's path.
    /// A link replaces any link already on its pair, and a later link in
    /// `links` replaces an earlier one. Every endpoint must exist.
    pub(crate) fn lay_physical_links(&mut self, links: Vec<PhysicalLink>) {
        self.edit();
        debug_assert!(links
            .iter()
            .all(|l| self.contains_host(l.ends().lo()) && self.contains_host(l.ends().hi())));
        let mut laid = links.into_iter().map(|l| (l.ends(), l)).collect();
        self.physical_links.append(&mut laid);
    }

    /// Removes the physical link between `a` and `b`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::NoPhysicalLink`] if no such link exists.
    pub fn remove_physical_link(
        &mut self,
        a: HostId,
        b: HostId,
    ) -> Result<PhysicalLink, ModelError> {
        self.edit();
        self.physical_links
            .remove(&HostPair::new(a, b))
            .ok_or(ModelError::NoPhysicalLink(a, b))
    }

    /// Returns the physical link between `a` and `b`, if any.
    pub fn physical_link(&self, a: HostId, b: HostId) -> Option<&PhysicalLink> {
        self.physical_links.get(&HostPair::new(a, b))
    }

    /// Iterates over physical links in endpoint order.
    pub fn physical_links(&self) -> impl Iterator<Item = &PhysicalLink> {
        self.physical_links.values()
    }

    /// Number of physical links.
    pub fn physical_link_count(&self) -> usize {
        self.physical_links.len()
    }

    /// Hosts directly connected to `h`, in id order.
    pub fn neighbors(&self, h: HostId) -> Vec<HostId> {
        self.physical_links
            .keys()
            .filter_map(|pair| pair.other(h))
            .collect()
    }

    // ---- logical links ---------------------------------------------------

    /// Creates or updates the logical link between components `a` and `b`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::UnknownComponent`] if either endpoint does not
    /// exist.
    ///
    /// # Panics
    ///
    /// Panics if `a == b`.
    pub fn set_logical_link<R>(
        &mut self,
        a: ComponentId,
        b: ComponentId,
        configure: impl FnOnce(&mut LogicalLink) -> R,
    ) -> Result<(), ModelError> {
        self.edit();
        if !self.contains_component(a) {
            return Err(ModelError::UnknownComponent(a));
        }
        if !self.contains_component(b) {
            return Err(ModelError::UnknownComponent(b));
        }
        let link = self
            .logical_links
            .entry(ComponentPair::new(a, b))
            .or_insert_with(|| LogicalLink::new(a, b));
        configure(link);
        Ok(())
    }

    /// Adds `links` to the logical layer in one bulk build; see
    /// [`Self::lay_physical_links`].
    pub(crate) fn lay_logical_links(&mut self, links: Vec<LogicalLink>) {
        self.edit();
        debug_assert!(links.iter().all(|l| {
            self.contains_component(l.ends().lo()) && self.contains_component(l.ends().hi())
        }));
        let mut laid = links.into_iter().map(|l| (l.ends(), l)).collect();
        self.logical_links.append(&mut laid);
    }

    /// Removes the logical link between `a` and `b`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::NoLogicalLink`] if no such link exists.
    pub fn remove_logical_link(
        &mut self,
        a: ComponentId,
        b: ComponentId,
    ) -> Result<LogicalLink, ModelError> {
        self.edit();
        self.logical_links
            .remove(&ComponentPair::new(a, b))
            .ok_or(ModelError::NoLogicalLink(a, b))
    }

    /// Returns the logical link between `a` and `b`, if any.
    pub fn logical_link(&self, a: ComponentId, b: ComponentId) -> Option<&LogicalLink> {
        self.logical_links.get(&ComponentPair::new(a, b))
    }

    /// Iterates over logical links in endpoint order.
    pub fn logical_links(&self) -> impl Iterator<Item = &LogicalLink> {
        self.logical_links.values()
    }

    /// Number of logical links.
    pub fn logical_link_count(&self) -> usize {
        self.logical_links.len()
    }

    /// Components with a logical link to `c`, in id order.
    pub fn logical_neighbors(&self, c: ComponentId) -> Vec<ComponentId> {
        self.logical_links
            .keys()
            .filter_map(|pair| pair.other(c))
            .collect()
    }

    // ---- derived quantities -----------------------------------------------

    /// Reliability of communication between two hosts.
    ///
    /// `1.0` for a host with itself (local interaction), the link's
    /// reliability when a physical link exists, `0.0` otherwise.
    pub fn reliability(&self, a: HostId, b: HostId) -> f64 {
        if a == b {
            return 1.0;
        }
        self.physical_link(a, b)
            .map_or(0.0, PhysicalLink::reliability)
    }

    /// Bandwidth between two hosts (`∞` locally, `0.0` when disconnected).
    pub fn bandwidth(&self, a: HostId, b: HostId) -> f64 {
        if a == b {
            return f64::INFINITY;
        }
        self.physical_link(a, b)
            .map_or(0.0, PhysicalLink::bandwidth)
    }

    /// Transmission delay between two hosts (`0.0` locally, `∞` when
    /// disconnected).
    fn delay(&self, a: HostId, b: HostId) -> f64 {
        if a == b {
            return 0.0;
        }
        self.physical_link(a, b)
            .map_or(f64::INFINITY, PhysicalLink::delay)
    }

    /// Security level between two hosts (`1.0` locally, `0.0` when
    /// disconnected).
    pub fn security(&self, a: HostId, b: HostId) -> f64 {
        if a == b {
            return 1.0;
        }
        self.physical_link(a, b).map_or(0.0, PhysicalLink::security)
    }

    /// Interaction frequency between two components (`0.0` when no logical
    /// link exists).
    pub fn frequency(&self, a: ComponentId, b: ComponentId) -> f64 {
        self.logical_link(a, b).map_or(0.0, LogicalLink::frequency)
    }

    /// Average event size between two components (`1.0` default).
    pub fn event_size(&self, a: ComponentId, b: ComponentId) -> f64 {
        self.logical_link(a, b).map_or(1.0, LogicalLink::event_size)
    }

    /// Quality of the most reliable multi-hop path between two hosts, or
    /// `None` when no path exists.
    ///
    /// The built-in objectives deliberately use *direct-link* semantics (the
    /// paper's formulation, conservative about non-adjacent placements);
    /// this query exists for analyses of middleware that relays frames
    /// hop-by-hop, where end-to-end reliability is the per-hop product.
    ///
    /// # Example
    ///
    /// ```
    /// use redep_model::DeploymentModel;
    /// let mut m = DeploymentModel::new();
    /// let a = m.add_host("a")?;
    /// let b = m.add_host("b")?;
    /// let c = m.add_host("c")?;
    /// m.set_physical_link(a, b, |l| l.set_reliability(0.9))?;
    /// m.set_physical_link(b, c, |l| l.set_reliability(0.8))?;
    /// let path = m.best_path(a, c).expect("a reaches c through b");
    /// assert!((path.reliability - 0.72).abs() < 1e-12);
    /// assert_eq!(path.hops, 2);
    /// # Ok::<(), redep_model::ModelError>(())
    /// ```
    pub fn best_path(&self, a: HostId, b: HostId) -> Option<PathQuality> {
        if !self.contains_host(a) || !self.contains_host(b) {
            return None;
        }
        if a == b {
            return Some(PathQuality {
                reliability: 1.0,
                delay: 0.0,
                bandwidth: f64::INFINITY,
                hops: 0,
            });
        }
        // Dijkstra maximizing the product of reliabilities (equivalently,
        // minimizing Σ −ln r). Links with zero reliability never help.
        let mut best: BTreeMap<HostId, f64> = BTreeMap::new();
        let mut back: BTreeMap<HostId, HostId> = BTreeMap::new();
        best.insert(a, 1.0);
        let mut frontier = vec![a];
        while let Some(u) = {
            // Extract the frontier host with the highest reliability so far.
            frontier.sort_by(|x, y| {
                best[x]
                    .partial_cmp(&best[y])
                    .expect("reliabilities are finite")
            });
            frontier.pop()
        } {
            if u == b {
                break;
            }
            let through = best[&u];
            for v in self.neighbors(u) {
                let r = through * self.reliability(u, v);
                if r > 0.0 && r > best.get(&v).copied().unwrap_or(0.0) {
                    best.insert(v, r);
                    back.insert(v, u);
                    frontier.push(v);
                }
            }
        }
        let reliability = best.get(&b).copied()?;
        // Walk the path back to accumulate delay/bandwidth/hops.
        let (mut delay, mut bandwidth, mut hops) = (0.0, f64::INFINITY, 0);
        let mut v = b;
        while v != a {
            let u = back[&v];
            delay += self.delay(u, v);
            bandwidth = bandwidth.min(self.bandwidth(u, v));
            hops += 1;
            v = u;
        }
        Some(PathQuality {
            reliability,
            delay,
            bandwidth,
            hops,
        })
    }

    // ---- constraints ------------------------------------------------------

    /// Returns the architect-supplied constraint set.
    pub fn constraints(&self) -> &ConstraintSet {
        &self.constraints
    }

    /// Returns the constraint set for modification.
    pub fn constraints_mut(&mut self) -> &mut ConstraintSet {
        self.edit();
        &mut self.constraints
    }

    // ---- partial-view import ------------------------------------------------
    // Used by `AwarenessGraph::partial_view` to clone parts of a global model
    // into a submodel while *preserving global ids* — decentralized hosts must
    // agree on what `c3` means.

    pub(crate) fn import_host(&mut self, host: Host) {
        self.edit();
        self.next_host = self.next_host.max(host.id().raw() + 1);
        self.hosts.insert(host.id(), host);
    }

    pub(crate) fn import_component(&mut self, component: Component) {
        self.edit();
        self.next_component = self.next_component.max(component.id().raw() + 1);
        self.components.insert(component.id(), component);
    }

    pub(crate) fn import_physical_link(&mut self, link: PhysicalLink) {
        self.edit();
        self.physical_links.insert(link.ends(), link);
    }

    pub(crate) fn import_logical_link(&mut self, link: LogicalLink) {
        self.edit();
        self.logical_links.insert(link.ends(), link);
    }

    /// Whether every component the constraint refers to exists in this model
    /// (hosts named by location constraints may be invisible; they simply
    /// drop out of `allowed_hosts`).
    pub(crate) fn constraint_is_local(&self, constraint: &crate::Constraint) -> bool {
        use crate::Constraint;
        match constraint {
            Constraint::PinnedTo { component, .. } | Constraint::NotOn { component, .. } => {
                self.contains_component(*component)
            }
            Constraint::Collocated { components } | Constraint::Separated { components } => {
                components.iter().all(|c| self.contains_component(*c))
            }
        }
    }

    // ---- integrity ---------------------------------------------------------

    /// Verifies referential integrity: every link endpoint and every
    /// constraint subject exists in the model.
    ///
    /// # Errors
    ///
    /// Returns the first dangling reference found.
    pub fn validate(&self) -> Result<(), ModelError> {
        for pair in self.physical_links.keys() {
            for h in [pair.lo(), pair.hi()] {
                if !self.contains_host(h) {
                    return Err(ModelError::UnknownHost(h));
                }
            }
        }
        for pair in self.logical_links.keys() {
            for c in [pair.lo(), pair.hi()] {
                if !self.contains_component(c) {
                    return Err(ModelError::UnknownComponent(c));
                }
            }
        }
        for c in self.constraints.referenced_components() {
            if !self.contains_component(c) {
                return Err(ModelError::UnknownComponent(c));
            }
        }
        for h in self.constraints.referenced_hosts() {
            if !self.contains_host(h) {
                return Err(ModelError::UnknownHost(h));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modifier::Modifier;

    fn two_host_model() -> (DeploymentModel, HostId, HostId) {
        let mut m = DeploymentModel::new();
        let a = m.add_host("a").unwrap();
        let b = m.add_host("b").unwrap();
        (m, a, b)
    }

    #[test]
    fn add_host_allocates_fresh_ids() {
        let (m, a, b) = two_host_model();
        assert_ne!(a, b);
        assert_eq!(m.host_count(), 2);
        assert_eq!(m.host(a).unwrap().name(), "a");
    }

    #[test]
    fn ids_are_not_reused_after_removal() {
        let mut m = DeploymentModel::new();
        let a = m.add_host("a").unwrap();
        m.remove_host(a).unwrap();
        let b = m.add_host("b").unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn unknown_host_lookup_errors() {
        let m = DeploymentModel::new();
        assert_eq!(
            m.host(HostId::new(9)).unwrap_err(),
            ModelError::UnknownHost(HostId::new(9))
        );
    }

    #[test]
    fn physical_link_requires_existing_hosts() {
        let (mut m, a, _) = two_host_model();
        let ghost = HostId::new(99);
        assert_eq!(
            m.set_physical_link(a, ghost, |_| {}).unwrap_err(),
            ModelError::UnknownHost(ghost)
        );
    }

    #[test]
    fn physical_link_is_undirected() {
        let (mut m, a, b) = two_host_model();
        m.set_physical_link(a, b, |l| l.set_reliability(0.7))
            .unwrap();
        assert_eq!(m.reliability(a, b), 0.7);
        assert_eq!(m.reliability(b, a), 0.7);
        assert_eq!(m.physical_link_count(), 1);
    }

    #[test]
    fn set_physical_link_updates_in_place() {
        let (mut m, a, b) = two_host_model();
        m.set_physical_link(a, b, |l| l.set_reliability(0.7))
            .unwrap();
        m.set_physical_link(b, a, |l| l.set_bandwidth(10.0))
            .unwrap();
        // Both parameters survive: it is the same link.
        assert_eq!(m.reliability(a, b), 0.7);
        assert_eq!(m.bandwidth(a, b), 10.0);
        assert_eq!(m.physical_link_count(), 1);
    }

    #[test]
    fn laid_links_replace_by_pair_and_drop_the_compile() {
        let (mut m, a, b) = two_host_model();
        let c = m.add_host("c").unwrap();
        m.set_physical_link(a, b, |l| l.set_bandwidth(10.0))
            .unwrap();
        let before = m.compiled();
        let link = |x, y, reliability| {
            let mut l = PhysicalLink::new(x, y);
            l.set_reliability(reliability);
            l
        };
        m.lay_physical_links(vec![link(c, a, 0.5), link(b, a, 0.7), link(a, c, 0.6)]);
        assert_eq!(m.physical_link_count(), 2);
        // Replaced whole, not merged: the old bandwidth is gone.
        assert_eq!(m.reliability(a, b), 0.7);
        assert_eq!(m.bandwidth(a, b), f64::INFINITY);
        // The later of two links on one pair wins.
        assert_eq!(m.reliability(a, c), 0.6);
        assert!(!Arc::ptr_eq(&before, &m.compiled()));
        assert_eq!(*m.compiled(), CompiledModel::compile(&m));
    }

    #[test]
    fn disconnected_hosts_have_zero_reliability() {
        let (m, a, b) = two_host_model();
        assert_eq!(m.reliability(a, b), 0.0);
        assert_eq!(m.bandwidth(a, b), 0.0);
        assert_eq!(m.delay(a, b), f64::INFINITY);
        assert_eq!(m.security(a, b), 0.0);
    }

    #[test]
    fn local_interaction_is_perfect() {
        let (m, a, _) = two_host_model();
        assert_eq!(m.reliability(a, a), 1.0);
        assert_eq!(m.bandwidth(a, a), f64::INFINITY);
        assert_eq!(m.delay(a, a), 0.0);
        assert_eq!(m.security(a, a), 1.0);
    }

    #[test]
    fn remove_host_cascades_to_links() {
        let (mut m, a, b) = two_host_model();
        m.set_physical_link(a, b, |_| {}).unwrap();
        m.remove_host(a).unwrap();
        assert_eq!(m.physical_link_count(), 0);
        assert!(m.physical_link(a, b).is_none());
    }

    #[test]
    fn remove_component_cascades_to_logical_links() {
        let mut m = DeploymentModel::new();
        let x = m.add_component("x").unwrap();
        let y = m.add_component("y").unwrap();
        m.set_logical_link(x, y, |l| l.set_frequency(3.0)).unwrap();
        m.remove_component(x).unwrap();
        assert_eq!(m.logical_link_count(), 0);
        assert_eq!(m.frequency(x, y), 0.0);
    }

    #[test]
    fn neighbors_lists_directly_connected_hosts() {
        let mut m = DeploymentModel::new();
        let a = m.add_host("a").unwrap();
        let b = m.add_host("b").unwrap();
        let c = m.add_host("c").unwrap();
        m.set_physical_link(a, b, |_| {}).unwrap();
        m.set_physical_link(a, c, |_| {}).unwrap();
        assert_eq!(m.neighbors(a), vec![b, c]);
        assert_eq!(m.neighbors(b), vec![a]);
    }

    #[test]
    fn logical_neighbors_lists_interacting_components() {
        let mut m = DeploymentModel::new();
        let x = m.add_component("x").unwrap();
        let y = m.add_component("y").unwrap();
        let z = m.add_component("z").unwrap();
        m.set_logical_link(x, y, |_| {}).unwrap();
        m.set_logical_link(y, z, |_| {}).unwrap();
        assert_eq!(m.logical_neighbors(y), vec![x, z]);
    }

    #[test]
    fn validate_accepts_consistent_model() {
        let (mut m, a, b) = two_host_model();
        m.set_physical_link(a, b, |_| {}).unwrap();
        assert!(m.validate().is_ok());
    }

    #[test]
    fn best_path_prefers_reliability_over_hop_count() {
        let mut m = DeploymentModel::new();
        let a = m.add_host("a").unwrap();
        let b = m.add_host("b").unwrap();
        let c = m.add_host("c").unwrap();
        // Direct but terrible vs. two good hops.
        m.set_physical_link(a, c, |l| l.set_reliability(0.2))
            .unwrap();
        m.set_physical_link(a, b, |l| l.set_reliability(0.9))
            .unwrap();
        m.set_physical_link(b, c, |l| l.set_reliability(0.9))
            .unwrap();
        let p = m.best_path(a, c).unwrap();
        assert!((p.reliability - 0.81).abs() < 1e-12);
        assert_eq!(p.hops, 2);
    }

    #[test]
    fn best_path_returns_none_when_disconnected() {
        let mut m = DeploymentModel::new();
        let a = m.add_host("a").unwrap();
        let b = m.add_host("b").unwrap();
        assert!(m.best_path(a, b).is_none());
        assert!(m.best_path(a, HostId::new(99)).is_none());
        let same = m.best_path(a, a).unwrap();
        assert_eq!(same.reliability, 1.0);
        assert_eq!(same.hops, 0);
        let _ = b;
    }

    #[test]
    fn best_path_accumulates_delay_and_bottleneck_bandwidth() {
        let mut m = DeploymentModel::new();
        let a = m.add_host("a").unwrap();
        let b = m.add_host("b").unwrap();
        let c = m.add_host("c").unwrap();
        m.set_physical_link(a, b, |l| {
            l.set_reliability(0.9);
            l.set_delay(1.0);
            l.set_bandwidth(100.0);
        })
        .unwrap();
        m.set_physical_link(b, c, |l| {
            l.set_reliability(0.9);
            l.set_delay(2.0);
            l.set_bandwidth(50.0);
        })
        .unwrap();
        let p = m.best_path(a, c).unwrap();
        assert!((p.delay - 3.0).abs() < 1e-12);
        assert_eq!(p.bandwidth, 50.0);
    }

    /// One edit through a `&mut self` entry point (directly or through a
    /// [`Modifier`]), or a JSON round trip, picked by `op`; `a`/`b` pick
    /// parts, `v` is a value in [0, 1]. Edits that name nothing (an empty
    /// model, a self-link) are skipped, and failed lookups are ignored:
    /// either way the memo must stay right.
    fn apply_edit(
        m: &mut DeploymentModel,
        modifier: &mut Modifier,
        (op, a, b, v): (u8, u32, u32, f64),
    ) {
        use crate::constraints::Constraint;
        use crate::params::keys;
        let (hosts, comps) = (m.host_ids(), m.component_ids());
        let host = |i: u32| hosts.get(i as usize % hosts.len().max(1)).copied();
        let comp = |i: u32| comps.get(i as usize % comps.len().max(1)).copied();
        let host_pair = match (host(a), host(b)) {
            (Some(x), Some(y)) if x != y => Some((x, y)),
            _ => None,
        };
        let comp_pair = match (comp(a), comp(b)) {
            (Some(x), Some(y)) if x != y => Some((x, y)),
            _ => None,
        };
        match op % 19 {
            0 => {
                let _ = m.add_host("added");
            }
            1 => {
                let _ = host(a).map(|h| m.remove_host(h));
            }
            2 => {
                let _ = host(a).map(|h| m.host_mut(h).map(|h| h.set_memory(v * 100.0)));
            }
            3 => {
                let _ = m.add_component("added");
            }
            4 => {
                let _ = comp(a).map(|c| m.remove_component(c));
            }
            5 => {
                let _ =
                    comp(a).map(|c| m.component_mut(c).map(|c| c.set_required_memory(v * 10.0)));
            }
            6 => {
                let _ = host_pair.map(|(x, y)| m.set_physical_link(x, y, |l| l.set_reliability(v)));
            }
            7 => {
                let _ = host_pair.map(|(x, y)| m.remove_physical_link(x, y));
            }
            8 => {
                let _ = comp_pair.map(|(x, y)| m.set_logical_link(x, y, |l| l.set_frequency(v)));
            }
            9 => {
                let _ = comp_pair.map(|(x, y)| m.remove_logical_link(x, y));
            }
            10 => {
                if let Some((x, y)) = comp_pair {
                    m.constraints_mut().add(Constraint::Separated {
                        components: [x, y].into(),
                    });
                }
            }
            11 => {
                let mut h = Host::new(HostId::new(a % 8), "imported");
                h.set_memory(v * 100.0);
                m.import_host(h);
            }
            12 => {
                let mut c = Component::new(ComponentId::new(a % 16), "imported");
                c.set_required_memory(v * 10.0);
                m.import_component(c);
            }
            13 => {
                if let Some((x, y)) = host_pair {
                    let mut l = PhysicalLink::new(x, y);
                    l.set_reliability(v);
                    m.import_physical_link(l);
                }
            }
            14 => {
                if let Some((x, y)) = comp_pair {
                    let mut l = LogicalLink::new(x, y);
                    l.set_frequency(v);
                    m.import_logical_link(l);
                }
            }
            15 => {
                let _ = host_pair
                    .map(|(x, y)| modifier.set_physical_param(m, x, y, keys::LINK_RELIABILITY, v));
            }
            16 => {
                let _ = match b % 3 {
                    0 => host(a).map(|h| modifier.set_host_param(m, h, keys::HOST_MEMORY, v)),
                    1 => comp(a)
                        .map(|c| modifier.set_component_param(m, c, keys::COMPONENT_MEMORY, v)),
                    _ => comp_pair.map(|(x, y)| {
                        modifier.set_logical_param(m, x, y, keys::INTERACTION_FREQUENCY, v)
                    }),
                };
            }
            17 => {
                let _ = modifier.undo(m);
            }
            _ => *m = serde_json::from_str(&serde_json::to_string(m).unwrap()).unwrap(),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        #[test]
        fn compiled_snapshot_never_goes_stale(
            seed in proptest::prelude::any::<u64>(),
            edits in proptest::collection::vec(
                (
                    proptest::prelude::any::<u8>(),
                    proptest::prelude::any::<u32>(),
                    proptest::prelude::any::<u32>(),
                    0.0f64..=1.0,
                ),
                1..40,
            ),
        ) {
            let config = crate::GeneratorConfig::sized(4, 8).with_seed(seed);
            // The generator leaves its compile in the memo, so the first
            // edit already has a snapshot to drop.
            let mut m = crate::Generator::generate(&config).unwrap().model;
            let mut modifier = Modifier::new();
            let to_json = |m: &DeploymentModel| serde_json::to_string(m).unwrap();
            for edit in edits {
                apply_edit(&mut m, &mut modifier, edit);
                let cold: DeploymentModel = serde_json::from_str(&to_json(&m)).unwrap();
                let snapshot = m.compiled();
                proptest::prop_assert_eq!(&*snapshot, &CompiledModel::compile(&m));
                // Unedited, the model hands out the same snapshot, and so
                // does a clone of it.
                proptest::prop_assert!(Arc::ptr_eq(&snapshot, &m.compiled()));
                proptest::prop_assert!(Arc::ptr_eq(&snapshot, &m.clone().compiled()));
                // The memo is derived data: a populated one changes neither
                // equality, the JSON nor the Debug output.
                proptest::prop_assert_eq!(&m, &cold);
                proptest::prop_assert_eq!(to_json(&m), to_json(&cold));
                proptest::prop_assert_eq!(format!("{m:?}"), format!("{cold:?}"));
            }
        }
    }

    #[test]
    fn serde_roundtrip_preserves_everything() {
        let (mut m, a, b) = two_host_model();
        m.set_physical_link(a, b, |l| l.set_reliability(0.4))
            .unwrap();
        let x = m.add_component("x").unwrap();
        let y = m.add_component("y").unwrap();
        m.set_logical_link(x, y, |l| l.set_frequency(2.0)).unwrap();
        let json = serde_json::to_string(&m).unwrap();
        let back: DeploymentModel = serde_json::from_str(&json).unwrap();
        assert_eq!(m, back);
    }
}
