//! Model modification with an undo log — the backend of DeSi's `Modifier`
//! controller component.
//!
//! DeSi's Modifier "allows fine-grain tuning of the generated deployment
//! architecture (e.g., by altering a single network link's reliability, a
//! single component's required memory, and so on)". [`Modifier`] provides
//! exactly that, and additionally records every edit so exploratory changes
//! can be rolled back — which is what makes DeSi-style sensitivity analysis
//! ("assess a system's sensitivity to changes in specific parameters")
//! practical.

use crate::ids::{ComponentId, HostId};
use crate::model::DeploymentModel;
use crate::params::{ParamKey, ParamValue};
use crate::ModelError;

/// One recorded, reversible model edit.
#[derive(Clone, PartialEq, Debug)]
enum ModelEdit {
    /// A host parameter changed (`previous` is `None` for a fresh key).
    Host {
        /// The edited host.
        host: HostId,
        /// The edited key.
        key: ParamKey,
        /// Value before the edit.
        previous: Option<ParamValue>,
    },
    /// A component parameter changed.
    Component {
        /// The edited component.
        component: ComponentId,
        /// The edited key.
        key: ParamKey,
        /// Value before the edit.
        previous: Option<ParamValue>,
    },
    /// A physical-link parameter changed.
    Physical {
        /// Link endpoints.
        hosts: (HostId, HostId),
        /// The edited key.
        key: ParamKey,
        /// Value before the edit (`None` also covers "link did not exist";
        /// see `created`).
        previous: Option<ParamValue>,
        /// Whether the edit created the link itself.
        created: bool,
    },
    /// A logical-link parameter changed.
    Logical {
        /// Link endpoints.
        components: (ComponentId, ComponentId),
        /// The edited key.
        key: ParamKey,
        /// Value before the edit.
        previous: Option<ParamValue>,
        /// Whether the edit created the link itself.
        created: bool,
    },
}

/// Fine-grained, undoable model editing.
///
/// The modifier borrows no model state; it is handed the model on every call
/// so a single modifier can serve interleaved edits from multiple sources
/// (user input, monitors) while keeping one linear undo history.
///
/// # Example
///
/// ```
/// use redep_model::{DeploymentModel, Modifier, keys};
///
/// let mut model = DeploymentModel::new();
/// let h = model.add_host("hq")?;
/// model.host_mut(h)?.set_memory(100.0);
///
/// let mut modifier = Modifier::new();
/// modifier.set_host_param(&mut model, h, keys::HOST_MEMORY, 50.0)?;
/// assert_eq!(model.host(h)?.memory(), 50.0);
///
/// modifier.undo(&mut model)?;
/// assert_eq!(model.host(h)?.memory(), 100.0);
/// # Ok::<(), redep_model::ModelError>(())
/// ```
#[derive(Debug, Default)]
pub struct Modifier {
    log: Vec<ModelEdit>,
}

impl Modifier {
    /// Creates a modifier with an empty undo log.
    pub fn new() -> Self {
        Modifier::default()
    }

    /// Number of undoable edits.
    pub fn history_len(&self) -> usize {
        self.log.len()
    }

    /// Sets a host parameter.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::UnknownHost`] if the host does not exist.
    pub fn set_host_param(
        &mut self,
        model: &mut DeploymentModel,
        host: HostId,
        key: impl Into<ParamKey>,
        value: impl Into<ParamValue>,
    ) -> Result<(), ModelError> {
        let key = key.into();
        let previous = model.host_mut(host)?.params_mut().set(key.clone(), value);
        self.log.push(ModelEdit::Host {
            host,
            key,
            previous,
        });
        Ok(())
    }

    /// Sets a component parameter.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::UnknownComponent`] if the component does not
    /// exist.
    pub fn set_component_param(
        &mut self,
        model: &mut DeploymentModel,
        component: ComponentId,
        key: impl Into<ParamKey>,
        value: impl Into<ParamValue>,
    ) -> Result<(), ModelError> {
        let key = key.into();
        let previous = model
            .component_mut(component)?
            .params_mut()
            .set(key.clone(), value);
        self.log.push(ModelEdit::Component {
            component,
            key,
            previous,
        });
        Ok(())
    }

    /// Sets a physical-link parameter, creating the link if needed.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::UnknownHost`] if either endpoint does not exist.
    pub fn set_physical_param(
        &mut self,
        model: &mut DeploymentModel,
        a: HostId,
        b: HostId,
        key: impl Into<ParamKey>,
        value: impl Into<ParamValue>,
    ) -> Result<(), ModelError> {
        let key = key.into();
        let created = model.physical_link(a, b).is_none();
        let mut previous = None;
        let (key2, value) = (key.clone(), value.into());
        model.set_physical_link(a, b, |l| {
            previous = l.params_mut().set(key2, value);
        })?;
        self.log.push(ModelEdit::Physical {
            hosts: (a, b),
            key,
            previous,
            created,
        });
        Ok(())
    }

    /// Sets a logical-link parameter, creating the link if needed.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::UnknownComponent`] if either endpoint does not
    /// exist.
    pub fn set_logical_param(
        &mut self,
        model: &mut DeploymentModel,
        a: ComponentId,
        b: ComponentId,
        key: impl Into<ParamKey>,
        value: impl Into<ParamValue>,
    ) -> Result<(), ModelError> {
        let key = key.into();
        let created = model.logical_link(a, b).is_none();
        let mut previous = None;
        let (key2, value) = (key.clone(), value.into());
        model.set_logical_link(a, b, |l| {
            previous = l.params_mut().set(key2, value);
        })?;
        self.log.push(ModelEdit::Logical {
            components: (a, b),
            key,
            previous,
            created,
        });
        Ok(())
    }

    /// Reverts the most recent edit.
    ///
    /// # Errors
    ///
    /// Propagates lookup errors if the edited entity has since been removed
    /// from the model. Returns `Ok(false)` when the history is empty.
    pub fn undo(&mut self, model: &mut DeploymentModel) -> Result<bool, ModelError> {
        let Some(edit) = self.log.pop() else {
            return Ok(false);
        };
        match edit {
            ModelEdit::Host {
                host,
                key,
                previous,
            } => {
                let params = model.host_mut(host)?.params_mut();
                match previous {
                    Some(v) => params.set(key, v),
                    None => params.remove(key),
                };
            }
            ModelEdit::Component {
                component,
                key,
                previous,
            } => {
                let params = model.component_mut(component)?.params_mut();
                match previous {
                    Some(v) => params.set(key, v),
                    None => params.remove(key),
                };
            }
            ModelEdit::Physical {
                hosts: (a, b),
                key,
                previous,
                created,
            } => {
                if created {
                    model.remove_physical_link(a, b)?;
                } else {
                    model.set_physical_link(a, b, |l| {
                        match previous {
                            Some(v) => l.params_mut().set(key, v),
                            None => l.params_mut().remove(key),
                        };
                    })?;
                }
            }
            ModelEdit::Logical {
                components: (a, b),
                key,
                previous,
                created,
            } => {
                if created {
                    model.remove_logical_link(a, b)?;
                } else {
                    model.set_logical_link(a, b, |l| {
                        match previous {
                            Some(v) => l.params_mut().set(key, v),
                            None => l.params_mut().remove(key),
                        };
                    })?;
                }
            }
        }
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::keys;

    fn fixture() -> (DeploymentModel, HostId, HostId, ComponentId, ComponentId) {
        let mut m = DeploymentModel::new();
        let a = m.add_host("a").unwrap();
        let b = m.add_host("b").unwrap();
        let x = m.add_component("x").unwrap();
        let y = m.add_component("y").unwrap();
        (m, a, b, x, y)
    }

    #[test]
    fn set_and_undo_host_param() {
        let (mut m, a, _, _, _) = fixture();
        let mut md = Modifier::new();
        md.set_host_param(&mut m, a, keys::HOST_MEMORY, 64.0)
            .unwrap();
        assert_eq!(m.host(a).unwrap().memory(), 64.0);
        assert!(md.undo(&mut m).unwrap());
        assert_eq!(m.host(a).unwrap().memory(), f64::INFINITY);
    }

    #[test]
    fn undo_restores_previous_value_not_default() {
        let (mut m, a, _, _, _) = fixture();
        m.host_mut(a).unwrap().set_memory(100.0);
        let mut md = Modifier::new();
        md.set_host_param(&mut m, a, keys::HOST_MEMORY, 64.0)
            .unwrap();
        md.undo(&mut m).unwrap();
        assert_eq!(m.host(a).unwrap().memory(), 100.0);
    }

    #[test]
    fn undo_on_empty_history_is_a_noop() {
        let (mut m, _, _, _, _) = fixture();
        let mut md = Modifier::new();
        assert!(!md.undo(&mut m).unwrap());
    }

    #[test]
    fn physical_param_edit_can_create_and_undo_link() {
        let (mut m, a, b, _, _) = fixture();
        let mut md = Modifier::new();
        md.set_physical_param(&mut m, a, b, keys::LINK_RELIABILITY, 0.6)
            .unwrap();
        assert_eq!(m.reliability(a, b), 0.6);
        md.undo(&mut m).unwrap();
        assert!(m.physical_link(a, b).is_none());
    }

    #[test]
    fn physical_param_edit_on_existing_link_preserves_link_on_undo() {
        let (mut m, a, b, _, _) = fixture();
        m.set_physical_link(a, b, |l| l.set_reliability(0.9))
            .unwrap();
        let mut md = Modifier::new();
        md.set_physical_param(&mut m, a, b, keys::LINK_RELIABILITY, 0.1)
            .unwrap();
        assert_eq!(m.reliability(a, b), 0.1);
        md.undo(&mut m).unwrap();
        assert_eq!(m.reliability(a, b), 0.9);
    }

    #[test]
    fn logical_param_edit_roundtrip() {
        let (mut m, _, _, x, y) = fixture();
        let mut md = Modifier::new();
        md.set_logical_param(&mut m, x, y, keys::INTERACTION_FREQUENCY, 5.0)
            .unwrap();
        assert_eq!(m.frequency(x, y), 5.0);
        md.undo(&mut m).unwrap();
        assert!(m.logical_link(x, y).is_none());
    }

    #[test]
    fn component_param_edit_roundtrip() {
        let (mut m, _, _, x, _) = fixture();
        let mut md = Modifier::new();
        md.set_component_param(&mut m, x, keys::COMPONENT_MEMORY, 7.0)
            .unwrap();
        assert_eq!(m.component(x).unwrap().required_memory(), 7.0);
        md.undo(&mut m).unwrap();
        assert_eq!(m.component(x).unwrap().required_memory(), 0.0);
    }

    #[test]
    fn unknown_entities_error_without_logging() {
        let (mut m, _, _, _, _) = fixture();
        let mut md = Modifier::new();
        let ghost = HostId::new(99);
        assert!(md.set_host_param(&mut m, ghost, "k", 1.0).is_err());
        assert_eq!(md.history_len(), 0);
    }
}
