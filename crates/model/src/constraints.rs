//! Deployment constraints and pluggable constraint checkers.
//!
//! The paper distinguishes two kinds of architect input that restrict the
//! space of valid deployment architectures:
//!
//! * **Location constraints** — the subset of hosts a component may (or may
//!   not) legally be deployed on ([`Constraint::PinnedTo`],
//!   [`Constraint::NotOn`]);
//! * **Collocation constraints** — subsets of components that must share a
//!   host ([`Constraint::Collocated`]) or must not ([`Constraint::Separated`]).
//!
//! In addition, resource limits (host memory) are expressed as
//! reusable [`ConstraintChecker`]s — the second variation point of the
//! paper's algorithm-development methodology, so that the same checkers plug
//! into every [`RedeploymentAlgorithm`](crate::ConstraintChecker) body.

use crate::eval::{CompiledConstraints, CompiledModel, GroupKind};
use crate::ids::{ComponentId, HostId};
use crate::model::DeploymentModel;
use crate::Deployment;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A single architect-supplied deployment constraint.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
#[non_exhaustive]
pub enum Constraint {
    /// The component may only be deployed on one of the listed hosts.
    PinnedTo {
        /// The constrained component.
        component: ComponentId,
        /// The allowed hosts.
        hosts: BTreeSet<HostId>,
    },
    /// The component may not be deployed on any of the listed hosts.
    NotOn {
        /// The constrained component.
        component: ComponentId,
        /// The forbidden hosts.
        hosts: BTreeSet<HostId>,
    },
    /// All listed components must be deployed on the same host.
    Collocated {
        /// The components that must share a host.
        components: BTreeSet<ComponentId>,
    },
    /// No two of the listed components may share a host.
    Separated {
        /// The components that must be pairwise on different hosts.
        components: BTreeSet<ComponentId>,
    },
}

impl fmt::Display for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Constraint::PinnedTo { component, hosts } => {
                write!(f, "{component} pinned to {{")?;
                write_ids(f, hosts.iter())?;
                write!(f, "}}")
            }
            Constraint::NotOn { component, hosts } => {
                write!(f, "{component} not on {{")?;
                write_ids(f, hosts.iter())?;
                write!(f, "}}")
            }
            Constraint::Collocated { components } => {
                write!(f, "collocated {{")?;
                write_ids(f, components.iter())?;
                write!(f, "}}")
            }
            Constraint::Separated { components } => {
                write!(f, "separated {{")?;
                write_ids(f, components.iter())?;
                write!(f, "}}")
            }
        }
    }
}

fn write_ids<T: fmt::Display>(
    f: &mut fmt::Formatter<'_>,
    ids: impl Iterator<Item = T>,
) -> fmt::Result {
    for (i, id) in ids.enumerate() {
        if i > 0 {
            write!(f, ", ")?;
        }
        write!(f, "{id}")?;
    }
    Ok(())
}

/// Why a deployment violates the constraints.
#[derive(Clone, PartialEq, Debug)]
#[non_exhaustive]
pub enum ConstraintViolation {
    /// A component sits on a host its location constraints forbid.
    Location {
        /// The offending component.
        component: ComponentId,
        /// The host it was (illegally) placed on.
        host: HostId,
    },
    /// A collocation group is split across hosts.
    Collocation {
        /// The components that should share a host but do not.
        components: Vec<ComponentId>,
    },
    /// A separation group has two members on the same host.
    Separation {
        /// The two components illegally sharing a host.
        components: (ComponentId, ComponentId),
        /// The shared host.
        host: HostId,
    },
    /// The components deployed on a host require more memory than available.
    Memory {
        /// The overloaded host.
        host: HostId,
        /// Memory required by the components deployed there.
        required: f64,
        /// Memory the host offers.
        available: f64,
    },
    /// A component is assigned to no host at all.
    Unassigned {
        /// The unassigned component.
        component: ComponentId,
    },
}

impl fmt::Display for ConstraintViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConstraintViolation::Location { component, host } => {
                write!(f, "location constraint violated: {component} on {host}")
            }
            ConstraintViolation::Collocation { components } => {
                write!(f, "collocation constraint violated for {{")?;
                write_ids(f, components.iter())?;
                write!(f, "}}")
            }
            ConstraintViolation::Separation { components, host } => write!(
                f,
                "separation constraint violated: {} and {} both on {host}",
                components.0, components.1
            ),
            ConstraintViolation::Memory {
                host,
                required,
                available,
            } => write!(
                f,
                "memory exceeded on {host}: requires {required}, available {available}"
            ),
            ConstraintViolation::Unassigned { component } => {
                write!(f, "component {component} is not assigned to any host")
            }
        }
    }
}

impl std::error::Error for ConstraintViolation {}

/// A pluggable deployment-validity check.
///
/// This is the paper's second algorithm variation point: algorithm bodies
/// (greedy, stochastic, exact, …) are written once against this trait and
/// composed with whatever checks a concrete problem needs.
pub trait ConstraintChecker: fmt::Debug + Send + Sync {
    /// A short human-readable name for diagnostics.
    fn name(&self) -> &str;

    /// Checks a complete deployment.
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    fn check(
        &self,
        model: &DeploymentModel,
        deployment: &Deployment,
    ) -> Result<(), ConstraintViolation>;

    /// Fast incremental check: may `component` be placed on `host` given the
    /// (possibly partial) deployment built so far?
    ///
    /// Used by constructive algorithms (greedy, auctions) to prune candidates
    /// without re-validating the whole deployment. The default implementation
    /// conservatively accepts and relies on [`ConstraintChecker::check`].
    fn admits(
        &self,
        model: &DeploymentModel,
        partial: &Deployment,
        component: ComponentId,
        host: HostId,
    ) -> bool {
        let _ = (model, partial, component, host);
        true
    }

    /// Compiles this checker into a dense form over `compiled`'s index
    /// space, if it supports one.
    ///
    /// The compiled checker's `check`/`admits` must return the same booleans
    /// as the naive `check(..).is_ok()` / `admits(..)` for deployments over
    /// the compiled model's components and hosts. Checkers without a dense
    /// form return `None` (the default): algorithms then run the same body
    /// but probe `check`/`admits` on the decoded assignment, and the
    /// hierarchical `-h` variants run their flat body.
    fn compile(
        &self,
        model: &DeploymentModel,
        compiled: &CompiledModel,
    ) -> Option<CompiledConstraints> {
        let _ = (model, compiled);
        None
    }
}

/// The architect's constraint set: location and collocation constraints plus
/// an always-on memory-capacity check.
///
/// # Example
///
/// ```
/// use redep_model::{DeploymentModel, Deployment, Constraint, ConstraintChecker};
/// use std::collections::BTreeSet;
///
/// let mut model = DeploymentModel::new();
/// let h0 = model.add_host("h0")?;
/// let h1 = model.add_host("h1")?;
/// let c0 = model.add_component("c0")?;
/// model.constraints_mut().add(Constraint::PinnedTo {
///     component: c0,
///     hosts: BTreeSet::from([h0]),
/// });
///
/// let mut bad = Deployment::new();
/// bad.assign(c0, h1);
/// assert!(model.constraints().check(&model, &bad).is_err());
///
/// let mut good = Deployment::new();
/// good.assign(c0, h0);
/// assert!(model.constraints().check(&model, &good).is_ok());
/// # Ok::<(), redep_model::ModelError>(())
/// ```
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct ConstraintSet {
    constraints: Vec<Constraint>,
    #[serde(default = "default_true")]
    enforce_memory: bool,
}

fn default_true() -> bool {
    true
}

impl Default for ConstraintSet {
    fn default() -> Self {
        ConstraintSet::new()
    }
}

impl ConstraintSet {
    /// Creates an empty set (memory capacity still enforced).
    fn new() -> Self {
        ConstraintSet {
            constraints: Vec::new(),
            enforce_memory: true,
        }
    }

    /// Adds a constraint.
    pub fn add(&mut self, constraint: Constraint) {
        self.constraints.push(constraint);
    }

    /// Iterates over the constraints in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &Constraint> {
        self.constraints.iter()
    }

    /// Number of explicit constraints (the memory check not included).
    pub fn len(&self) -> usize {
        self.constraints.len()
    }

    /// Returns `true` if no explicit constraint has been added.
    pub fn is_empty(&self) -> bool {
        self.constraints.is_empty()
    }

    /// Enables or disables the built-in host-memory capacity check.
    pub fn set_enforce_memory(&mut self, enforce: bool) {
        self.enforce_memory = enforce;
    }

    /// Whether the built-in host-memory capacity check is enabled.
    pub fn enforces_memory(&self) -> bool {
        self.enforce_memory
    }

    /// Hosts `component` may legally be deployed on, intersecting all
    /// location constraints.
    pub fn allowed_hosts(
        &self,
        model: &DeploymentModel,
        component: ComponentId,
    ) -> BTreeSet<HostId> {
        let mut allowed: BTreeSet<HostId> = model.host_ids().into_iter().collect();
        for c in &self.constraints {
            match c {
                Constraint::PinnedTo {
                    component: cc,
                    hosts,
                } if *cc == component => {
                    allowed = allowed.intersection(hosts).copied().collect();
                }
                Constraint::NotOn {
                    component: cc,
                    hosts,
                } if *cc == component => {
                    allowed = allowed.difference(hosts).copied().collect();
                }
                _ => {}
            }
        }
        allowed
    }

    /// All components referenced by any constraint.
    pub fn referenced_components(&self) -> BTreeSet<ComponentId> {
        let mut out = BTreeSet::new();
        for c in &self.constraints {
            match c {
                Constraint::PinnedTo { component, .. } | Constraint::NotOn { component, .. } => {
                    out.insert(*component);
                }
                Constraint::Collocated { components } | Constraint::Separated { components } => {
                    out.extend(components.iter().copied());
                }
            }
        }
        out
    }

    /// All hosts referenced by any constraint.
    pub fn referenced_hosts(&self) -> BTreeSet<HostId> {
        let mut out = BTreeSet::new();
        for c in &self.constraints {
            match c {
                Constraint::PinnedTo { hosts, .. } | Constraint::NotOn { hosts, .. } => {
                    out.extend(hosts.iter().copied());
                }
                _ => {}
            }
        }
        out
    }
}

impl ConstraintChecker for ConstraintSet {
    fn name(&self) -> &str {
        "architect constraints"
    }

    fn check(
        &self,
        model: &DeploymentModel,
        deployment: &Deployment,
    ) -> Result<(), ConstraintViolation> {
        // Every component must be assigned.
        for c in model.component_ids() {
            if deployment.host_of(c).is_none() {
                return Err(ConstraintViolation::Unassigned { component: c });
            }
        }

        for constraint in &self.constraints {
            match constraint {
                Constraint::PinnedTo { component, hosts } => {
                    if let Some(h) = deployment.host_of(*component) {
                        if !hosts.contains(&h) {
                            return Err(ConstraintViolation::Location {
                                component: *component,
                                host: h,
                            });
                        }
                    }
                }
                Constraint::NotOn { component, hosts } => {
                    if let Some(h) = deployment.host_of(*component) {
                        if hosts.contains(&h) {
                            return Err(ConstraintViolation::Location {
                                component: *component,
                                host: h,
                            });
                        }
                    }
                }
                Constraint::Collocated { components } => {
                    let hosts: BTreeSet<_> = components
                        .iter()
                        .filter_map(|c| deployment.host_of(*c))
                        .collect();
                    if hosts.len() > 1 {
                        return Err(ConstraintViolation::Collocation {
                            components: components.iter().copied().collect(),
                        });
                    }
                }
                Constraint::Separated { components } => {
                    let mut seen: BTreeMap<HostId, ComponentId> = BTreeMap::new();
                    for c in components {
                        if let Some(h) = deployment.host_of(*c) {
                            if let Some(prev) = seen.insert(h, *c) {
                                return Err(ConstraintViolation::Separation {
                                    components: (prev, *c),
                                    host: h,
                                });
                            }
                        }
                    }
                }
            }
        }

        if self.enforce_memory {
            MemoryConstraint.check(model, deployment)?;
        }
        Ok(())
    }

    fn admits(
        &self,
        model: &DeploymentModel,
        partial: &Deployment,
        component: ComponentId,
        host: HostId,
    ) -> bool {
        for constraint in &self.constraints {
            match constraint {
                Constraint::PinnedTo {
                    component: cc,
                    hosts,
                } => {
                    if *cc == component && !hosts.contains(&host) {
                        return false;
                    }
                }
                Constraint::NotOn {
                    component: cc,
                    hosts,
                } => {
                    if *cc == component && hosts.contains(&host) {
                        return false;
                    }
                }
                Constraint::Collocated { components } => {
                    if components.contains(&component) {
                        for peer in components {
                            if let Some(h) = partial.host_of(*peer) {
                                if h != host {
                                    return false;
                                }
                            }
                        }
                    }
                }
                Constraint::Separated { components } => {
                    if components.contains(&component) {
                        for peer in components {
                            if *peer != component && partial.host_of(*peer) == Some(host) {
                                return false;
                            }
                        }
                    }
                }
            }
        }
        if self.enforce_memory && !MemoryConstraint.admits(model, partial, component, host) {
            return false;
        }
        true
    }

    fn compile(
        &self,
        _model: &DeploymentModel,
        compiled: &CompiledModel,
    ) -> Option<CompiledConstraints> {
        let mut cc = CompiledConstraints::new(compiled, true, self.enforce_memory);
        // Constraints naming components or hosts outside the model can never
        // affect a deployment over the model's components, so dropping the
        // unknown ids preserves check/admits semantics.
        for constraint in &self.constraints {
            match constraint {
                Constraint::PinnedTo { component, hosts } => {
                    if let Some(c) = compiled.comp_index(*component) {
                        let dense: Vec<u32> = hosts
                            .iter()
                            .filter_map(|&h| compiled.host_index(h))
                            .collect();
                        cc.pin_to(c, &dense);
                    }
                }
                Constraint::NotOn { component, hosts } => {
                    if let Some(c) = compiled.comp_index(*component) {
                        let dense: Vec<u32> = hosts
                            .iter()
                            .filter_map(|&h| compiled.host_index(h))
                            .collect();
                        cc.forbid_on(c, &dense);
                    }
                }
                Constraint::Collocated { components } => {
                    let members: Vec<u32> = components
                        .iter()
                        .filter_map(|&c| compiled.comp_index(c))
                        .collect();
                    cc.add_group(GroupKind::Collocated, members);
                }
                Constraint::Separated { components } => {
                    let members: Vec<u32> = components
                        .iter()
                        .filter_map(|&c| compiled.comp_index(c))
                        .collect();
                    cc.add_group(GroupKind::Separated, members);
                }
            }
        }
        Some(cc)
    }
}

/// Built-in checker: the memory required by the components deployed on a
/// host may not exceed the host's available memory.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct MemoryConstraint;

impl ConstraintChecker for MemoryConstraint {
    fn name(&self) -> &str {
        "host memory capacity"
    }

    fn check(
        &self,
        model: &DeploymentModel,
        deployment: &Deployment,
    ) -> Result<(), ConstraintViolation> {
        let mut used: BTreeMap<HostId, f64> = BTreeMap::new();
        for (c, h) in deployment.iter() {
            if let Ok(component) = model.component(c) {
                *used.entry(h).or_insert(0.0) += component.required_memory();
            }
        }
        for (h, required) in used {
            let available = model.host(h).map(|host| host.memory()).unwrap_or(0.0);
            if required > available {
                return Err(ConstraintViolation::Memory {
                    host: h,
                    required,
                    available,
                });
            }
        }
        Ok(())
    }

    fn admits(
        &self,
        model: &DeploymentModel,
        partial: &Deployment,
        component: ComponentId,
        host: HostId,
    ) -> bool {
        let available = match model.host(host) {
            Ok(h) => h.memory(),
            Err(_) => return false,
        };
        let new = match model.component(component) {
            Ok(c) => c.required_memory(),
            Err(_) => return false,
        };
        let used: f64 = partial
            .components_on(host)
            .into_iter()
            .filter(|c| *c != component)
            .filter_map(|c| model.component(c).ok())
            .map(|c| c.required_memory())
            .sum();
        used + new <= available
    }

    fn compile(
        &self,
        _model: &DeploymentModel,
        compiled: &CompiledModel,
    ) -> Option<CompiledConstraints> {
        Some(CompiledConstraints::new(compiled, false, true))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model_with(hosts: usize, components: usize) -> DeploymentModel {
        let mut m = DeploymentModel::new();
        for i in 0..hosts {
            m.add_host(format!("h{i}")).unwrap();
        }
        for i in 0..components {
            m.add_component(format!("c{i}")).unwrap();
        }
        m
    }

    fn h(n: u32) -> HostId {
        HostId::new(n)
    }
    fn c(n: u32) -> ComponentId {
        ComponentId::new(n)
    }

    #[test]
    fn empty_set_accepts_complete_deployment() {
        let m = model_with(2, 2);
        let d: Deployment = [(c(0), h(0)), (c(1), h(1))].into_iter().collect();
        assert!(m.constraints().check(&m, &d).is_ok());
    }

    #[test]
    fn incomplete_deployment_is_rejected() {
        let m = model_with(2, 2);
        let d: Deployment = [(c(0), h(0))].into_iter().collect();
        assert_eq!(
            m.constraints().check(&m, &d).unwrap_err(),
            ConstraintViolation::Unassigned { component: c(1) }
        );
    }

    #[test]
    fn pinned_to_enforced() {
        let mut m = model_with(2, 1);
        m.constraints_mut().add(Constraint::PinnedTo {
            component: c(0),
            hosts: BTreeSet::from([h(0)]),
        });
        let bad: Deployment = [(c(0), h(1))].into_iter().collect();
        assert!(matches!(
            m.constraints().check(&m, &bad),
            Err(ConstraintViolation::Location { .. })
        ));
        let good: Deployment = [(c(0), h(0))].into_iter().collect();
        assert!(m.constraints().check(&m, &good).is_ok());
    }

    #[test]
    fn not_on_enforced() {
        let mut m = model_with(2, 1);
        m.constraints_mut().add(Constraint::NotOn {
            component: c(0),
            hosts: BTreeSet::from([h(1)]),
        });
        let bad: Deployment = [(c(0), h(1))].into_iter().collect();
        assert!(m.constraints().check(&m, &bad).is_err());
    }

    #[test]
    fn collocation_enforced() {
        let mut m = model_with(2, 2);
        m.constraints_mut().add(Constraint::Collocated {
            components: BTreeSet::from([c(0), c(1)]),
        });
        let bad: Deployment = [(c(0), h(0)), (c(1), h(1))].into_iter().collect();
        assert!(matches!(
            m.constraints().check(&m, &bad),
            Err(ConstraintViolation::Collocation { .. })
        ));
        let good: Deployment = [(c(0), h(0)), (c(1), h(0))].into_iter().collect();
        assert!(m.constraints().check(&m, &good).is_ok());
    }

    #[test]
    fn separation_enforced() {
        let mut m = model_with(2, 2);
        m.constraints_mut().add(Constraint::Separated {
            components: BTreeSet::from([c(0), c(1)]),
        });
        let bad: Deployment = [(c(0), h(0)), (c(1), h(0))].into_iter().collect();
        assert!(matches!(
            m.constraints().check(&m, &bad),
            Err(ConstraintViolation::Separation { .. })
        ));
        let good: Deployment = [(c(0), h(0)), (c(1), h(1))].into_iter().collect();
        assert!(m.constraints().check(&m, &good).is_ok());
    }

    #[test]
    fn memory_capacity_enforced() {
        let mut m = model_with(1, 2);
        m.host_mut(h(0)).unwrap().set_memory(10.0);
        m.component_mut(c(0)).unwrap().set_required_memory(6.0);
        m.component_mut(c(1)).unwrap().set_required_memory(6.0);
        let d: Deployment = [(c(0), h(0)), (c(1), h(0))].into_iter().collect();
        assert!(matches!(
            m.constraints().check(&m, &d),
            Err(ConstraintViolation::Memory { .. })
        ));
    }

    #[test]
    fn memory_check_can_be_disabled() {
        let mut m = model_with(1, 2);
        m.host_mut(h(0)).unwrap().set_memory(10.0);
        m.component_mut(c(0)).unwrap().set_required_memory(6.0);
        m.component_mut(c(1)).unwrap().set_required_memory(6.0);
        m.constraints_mut().set_enforce_memory(false);
        let d: Deployment = [(c(0), h(0)), (c(1), h(0))].into_iter().collect();
        assert!(m.constraints().check(&m, &d).is_ok());
    }

    #[test]
    fn admits_checks_location_and_memory_incrementally() {
        let mut m = model_with(2, 2);
        m.host_mut(h(0)).unwrap().set_memory(10.0);
        m.component_mut(c(0)).unwrap().set_required_memory(6.0);
        m.component_mut(c(1)).unwrap().set_required_memory(6.0);
        m.constraints_mut().add(Constraint::NotOn {
            component: c(1),
            hosts: BTreeSet::from([h(1)]),
        });
        let mut partial = Deployment::new();
        assert!(m.constraints().admits(&m, &partial, c(0), h(0)));
        partial.assign(c(0), h(0));
        // Memory full on h0:
        assert!(!m.constraints().admits(&m, &partial, c(1), h(0)));
        // Location forbids h1:
        assert!(!m.constraints().admits(&m, &partial, c(1), h(1)));
    }

    #[test]
    fn admits_respects_collocation_groups() {
        let mut m = model_with(2, 3);
        m.constraints_mut().add(Constraint::Collocated {
            components: BTreeSet::from([c(0), c(1)]),
        });
        let mut partial = Deployment::new();
        partial.assign(c(0), h(0));
        assert!(m.constraints().admits(&m, &partial, c(1), h(0)));
        assert!(!m.constraints().admits(&m, &partial, c(1), h(1)));
        // An unrelated component is unaffected.
        assert!(m.constraints().admits(&m, &partial, c(2), h(1)));
    }

    #[test]
    fn allowed_hosts_intersects_constraints() {
        let mut m = model_with(3, 1);
        m.constraints_mut().add(Constraint::PinnedTo {
            component: c(0),
            hosts: BTreeSet::from([h(0), h(1)]),
        });
        m.constraints_mut().add(Constraint::NotOn {
            component: c(0),
            hosts: BTreeSet::from([h(1)]),
        });
        assert_eq!(
            m.constraints().allowed_hosts(&m, c(0)),
            BTreeSet::from([h(0)])
        );
    }

    #[test]
    fn referenced_ids_cover_all_constraint_kinds() {
        let mut s = ConstraintSet::new();
        s.add(Constraint::PinnedTo {
            component: c(0),
            hosts: BTreeSet::from([h(1)]),
        });
        s.add(Constraint::Separated {
            components: BTreeSet::from([c(1), c(2)]),
        });
        assert_eq!(
            s.referenced_components(),
            BTreeSet::from([c(0), c(1), c(2)])
        );
        assert_eq!(s.referenced_hosts(), BTreeSet::from([h(1)]));
    }

    #[test]
    fn constraint_display_is_readable() {
        let con = Constraint::Collocated {
            components: BTreeSet::from([c(0), c(1)]),
        };
        assert_eq!(con.to_string(), "collocated {c0, c1}");
    }
}
