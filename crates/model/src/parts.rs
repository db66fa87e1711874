//! Hosts and components — the node-level parts of a deployment architecture.

use crate::ids::{ComponentId, HostId};
use crate::params::{keys, ParamTable, ParamValue};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A hardware host: a device onto which software components can be deployed.
///
/// Beyond its identity and human-readable name, a host is described entirely
/// by its extensible [`ParamTable`] — available memory, CPU speed, battery
/// power, installed software, and whatever else a particular deployment
/// problem needs.
///
/// # Example
///
/// ```
/// use redep_model::{DeploymentModel, keys};
/// let mut model = DeploymentModel::new();
/// let id = model.add_host("commander-pda")?;
/// model.host_mut(id)?.params_mut().set(keys::HOST_MEMORY, 64.0);
/// assert_eq!(model.host(id)?.memory(), 64.0);
/// # Ok::<(), redep_model::ModelError>(())
/// ```
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct Host {
    id: HostId,
    name: String,
    params: ParamTable,
}

impl Host {
    /// Creates a host with the given id and name and an empty parameter table.
    pub fn new(id: HostId, name: impl Into<String>) -> Self {
        Host {
            id,
            name: name.into(),
            params: ParamTable::new(),
        }
    }

    /// Returns the host's id.
    pub fn id(&self) -> HostId {
        self.id
    }

    /// Returns the host's human-readable name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Returns the host's parameter table.
    pub fn params(&self) -> &ParamTable {
        &self.params
    }

    /// Returns the host's parameter table for modification.
    pub fn params_mut(&mut self) -> &mut ParamTable {
        &mut self.params
    }

    /// Available memory ([`keys::HOST_MEMORY`]); unlimited when unspecified.
    pub fn memory(&self) -> f64 {
        self.params.get_f64_or(keys::HOST_MEMORY, f64::INFINITY)
    }

    /// Sets the available memory.
    pub fn set_memory(&mut self, memory: f64) -> Option<ParamValue> {
        self.params.set(keys::HOST_MEMORY, memory)
    }
}

impl fmt::Display for Host {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.name, self.id)
    }
}

/// A software component: a unit of computation that is deployed onto exactly
/// one host at a time and can be migrated between hosts.
///
/// Like [`Host`], a component is described by its extensible [`ParamTable`]
/// (required memory, CPU demand, …).
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct Component {
    id: ComponentId,
    name: String,
    params: ParamTable,
}

impl Component {
    /// Creates a component with the given id and name and an empty table.
    pub fn new(id: ComponentId, name: impl Into<String>) -> Self {
        Component {
            id,
            name: name.into(),
            params: ParamTable::new(),
        }
    }

    /// Returns the component's id.
    pub fn id(&self) -> ComponentId {
        self.id
    }

    /// Returns the component's human-readable name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Returns the component's parameter table.
    pub fn params(&self) -> &ParamTable {
        &self.params
    }

    /// Returns the component's parameter table for modification.
    pub fn params_mut(&mut self) -> &mut ParamTable {
        &mut self.params
    }

    /// Memory required by the component ([`keys::COMPONENT_MEMORY`]);
    /// zero when unspecified.
    pub fn required_memory(&self) -> f64 {
        self.params.get_f64_or(keys::COMPONENT_MEMORY, 0.0)
    }

    /// Sets the required memory.
    pub fn set_required_memory(&mut self, memory: f64) -> Option<ParamValue> {
        self.params.set(keys::COMPONENT_MEMORY, memory)
    }
}

impl fmt::Display for Component {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.name, self.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_defaults_are_unconstrained() {
        let h = Host::new(HostId::new(0), "hq");
        assert_eq!(h.memory(), f64::INFINITY);
    }

    #[test]
    fn host_memory_setter() {
        let mut h = Host::new(HostId::new(0), "hq");
        h.set_memory(128.0);
        assert_eq!(h.memory(), 128.0);
    }

    #[test]
    fn component_defaults_require_nothing() {
        let c = Component::new(ComponentId::new(0), "gui");
        assert_eq!(c.required_memory(), 0.0);
    }

    #[test]
    fn component_memory_setter() {
        let mut c = Component::new(ComponentId::new(0), "gui");
        c.set_required_memory(12.5);
        assert_eq!(c.required_memory(), 12.5);
    }

    #[test]
    fn display_includes_name_and_id() {
        let h = Host::new(HostId::new(2), "hq");
        assert_eq!(h.to_string(), "hq (h2)");
        let c = Component::new(ComponentId::new(3), "gui");
        assert_eq!(c.to_string(), "gui (c3)");
    }
}
