//! `SystemData`: "the key part of the Model … the software system itself in
//! terms of the architectural constructs and parameters".

use redep_model::{ComponentId, Deployment, DeploymentModel};
use std::collections::BTreeMap;

/// The system model plus its current deployment, with a revision counter so
/// views and controllers can cheaply detect changes (DeSi's Model is
/// "reactive and accessible to the Controller via a simple API").
#[derive(Clone, PartialEq, Debug, Default)]
pub struct SystemData {
    model: DeploymentModel,
    deployment: Deployment,
    revision: u64,
}

impl SystemData {
    /// Creates system data from a model and its current deployment.
    pub fn new(model: DeploymentModel, deployment: Deployment) -> Self {
        SystemData {
            model,
            deployment,
            revision: 0,
        }
    }

    /// The deployment-architecture model.
    pub fn model(&self) -> &DeploymentModel {
        &self.model
    }

    /// Mutable model access; bumps the revision.
    pub fn model_mut(&mut self) -> &mut DeploymentModel {
        self.revision += 1;
        &mut self.model
    }

    /// The current deployment.
    pub fn deployment(&self) -> &Deployment {
        &self.deployment
    }

    /// Replaces the current deployment; bumps the revision.
    pub fn set_deployment(&mut self, deployment: Deployment) {
        self.deployment = deployment;
        self.revision += 1;
    }

    /// Monotonic revision counter (any mutation increments it).
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// Maps component instance names to ids (for exchanges with the
    /// middleware, which addresses components by name).
    pub fn component_ids_by_name(&self) -> BTreeMap<String, ComponentId> {
        self.model
            .components()
            .map(|c| (c.name().to_owned(), c.id()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redep_model::{Generator, GeneratorConfig};

    fn data() -> SystemData {
        let s = Generator::generate(&GeneratorConfig::sized(3, 6)).unwrap();
        SystemData::new(s.model, s.initial)
    }

    #[test]
    fn revision_tracks_mutations() {
        let mut d = data();
        assert_eq!(d.revision(), 0);
        d.model_mut();
        assert_eq!(d.revision(), 1);
        let dep = d.deployment().clone();
        d.set_deployment(dep);
        assert_eq!(d.revision(), 2);
    }
}
