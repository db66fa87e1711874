//! The DeSi facade: one object wiring the Model, View and Controller
//! subsystems together.

use crate::container::AlgorithmContainer;
use crate::error::DesiError;
use crate::graph_view_data::GraphViewData;
use crate::results::{AlgoResultData, RecordedResult};
use crate::system_data::SystemData;
use crate::views::{GraphView, TableView};
use redep_model::{
    AdlDocument, Deployment, DeploymentModel, Generator, GeneratorConfig, Modifier, Objective,
};

/// The deployment exploration environment.
///
/// See the [crate docs](crate) for the architecture; this type is the
/// convenient entry point used by examples, experiments, and the framework's
/// centralized instantiation.
#[derive(Debug, Default)]
pub struct DeSi {
    system: SystemData,
    results: AlgoResultData,
    container: AlgorithmContainer,
    modifier: Modifier,
}

impl DeSi {
    /// Creates an environment around an existing model and deployment.
    pub fn new(model: DeploymentModel, deployment: Deployment) -> Self {
        DeSi {
            system: SystemData::new(model, deployment),
            results: AlgoResultData::new(),
            container: AlgorithmContainer::new(),
            modifier: Modifier::new(),
        }
    }

    /// Creates an environment around a freshly generated hypothetical
    /// architecture (DeSi's Generator controller).
    ///
    /// # Errors
    ///
    /// Propagates generation failures.
    pub fn generate(config: &GeneratorConfig) -> Result<Self, DesiError> {
        let s = Generator::generate(config)?;
        Ok(DeSi::new(s.model, s.initial))
    }

    /// Loads an environment from an architecture-description document
    /// (the xADL integration point). Documents without a prescribed
    /// deployment start with an empty one.
    ///
    /// # Errors
    ///
    /// Propagates parse and validation failures.
    pub fn from_adl(json: &str) -> Result<Self, DesiError> {
        let doc = AdlDocument::from_json(json)?;
        Ok(DeSi::new(doc.model, doc.deployment.unwrap_or_default()))
    }

    /// Exports the current model and deployment as an ADL document.
    ///
    /// # Errors
    ///
    /// Propagates serialization failures.
    pub fn to_adl(&self) -> Result<String, DesiError> {
        AdlDocument::new(
            self.system.model().clone(),
            Some(self.system.deployment().clone()),
        )
        .to_json()
        .map_err(DesiError::Model)
    }

    /// The Model subsystem's system data.
    pub fn system(&self) -> &SystemData {
        &self.system
    }

    /// Mutable system data (the Modifier's target).
    pub fn system_mut(&mut self) -> &mut SystemData {
        &mut self.system
    }

    /// Applies an undoable model edit through the modifier.
    ///
    /// # Errors
    ///
    /// Propagates model lookup failures.
    pub fn modify(
        &mut self,
        edit: impl FnOnce(&mut Modifier, &mut DeploymentModel) -> Result<(), redep_model::ModelError>,
    ) -> Result<(), DesiError> {
        edit(&mut self.modifier, self.system.model_mut())?;
        Ok(())
    }

    /// Sensitivity analysis: how much does `objective` change if the model
    /// were edited as given? The edit is applied, the current deployment is
    /// re-scored, and the edit is rolled back — the model is left exactly as
    /// it was. Returns `(score before, score after)`.
    ///
    /// This is DeSi's exploratory "assess a system's sensitivity to changes
    /// in specific parameters (e.g., the reliability of a network link)".
    ///
    /// # Errors
    ///
    /// Propagates model lookup failures from the edit or the rollback.
    ///
    /// # Example
    ///
    /// ```
    /// use redep_desi::DeSi;
    /// use redep_model::{Availability, GeneratorConfig, keys};
    ///
    /// let mut desi = DeSi::generate(&GeneratorConfig::sized(3, 6))?;
    /// let hosts = desi.system().model().host_ids();
    /// let (before, after) = desi.sensitivity(&Availability, |m, model| {
    ///     m.set_physical_param(model, hosts[0], hosts[1], keys::LINK_RELIABILITY, 0.01)
    /// })?;
    /// assert!(after <= before); // degrading a link cannot raise availability
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn sensitivity(
        &mut self,
        objective: &dyn Objective,
        edit: impl FnOnce(&mut Modifier, &mut DeploymentModel) -> Result<(), redep_model::ModelError>,
    ) -> Result<(f64, f64), DesiError> {
        let before = objective.evaluate(self.system.model(), self.system.deployment());
        let depth = self.modifier.history_len();
        edit(&mut self.modifier, self.system.model_mut())?;
        let after = objective.evaluate(self.system.model(), self.system.deployment());
        while self.modifier.history_len() > depth {
            self.modifier.undo(self.system.model_mut())?;
        }
        Ok((before, after))
    }

    /// Recorded algorithm outcomes.
    pub fn results(&self) -> &AlgoResultData {
        &self.results
    }

    /// The algorithm registry.
    pub fn container(&self) -> &AlgorithmContainer {
        &self.container
    }

    /// The algorithm registry, mutable (register or replace algorithms).
    pub fn container_mut(&mut self) -> &mut AlgorithmContainer {
        &mut self.container
    }

    /// Runs a registered algorithm against the current system and records
    /// the outcome.
    ///
    /// # Errors
    ///
    /// Returns [`DesiError::UnknownAlgorithm`] or the algorithm's failure.
    pub fn run_algorithm(
        &mut self,
        name: &str,
        objective: &dyn Objective,
    ) -> Result<RecordedResult, DesiError> {
        self.container
            .run(name, &self.system, objective, &mut self.results)
    }

    /// Runs every registered algorithm; failures are reported per algorithm.
    pub fn run_all(
        &mut self,
        objective: &dyn Objective,
    ) -> Vec<(String, Result<RecordedResult, DesiError>)> {
        self.container
            .run_all(&self.system, objective, &mut self.results)
    }

    /// Adopts a deployment as the current one (e.g. after effecting it).
    pub fn adopt_deployment(&mut self, deployment: Deployment) {
        self.system.set_deployment(deployment);
    }

    /// Renders the tabular page (Figure 9).
    pub fn render_table(&self) -> String {
        TableView::new().render(&self.system, &self.results)
    }

    /// Renders the deployment graph as SVG (Figure 10) at the given zoom.
    pub fn render_svg(&self, zoom: f64) -> String {
        let layout =
            GraphViewData::layout_zoomed(self.system.model(), self.system.deployment(), zoom);
        GraphView::new().render_svg(&self.system, &layout)
    }

    /// Renders the ASCII overview of the deployment.
    pub fn render_ascii(&self) -> String {
        GraphView::new().render_ascii(&self.system)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redep_algorithms::{AvalaAlgorithm, StochasticAlgorithm};
    use redep_model::{keys, Availability};

    fn desi() -> DeSi {
        DeSi::generate(&GeneratorConfig::sized(3, 8)).unwrap()
    }

    #[test]
    fn generate_run_and_render() {
        let mut d = desi();
        d.container_mut().register(AvalaAlgorithm::new());
        d.container_mut().register(StochasticAlgorithm::new());
        let outcomes = d.run_all(&Availability);
        assert_eq!(outcomes.len(), 2);
        assert!(outcomes.iter().all(|(_, r)| r.is_ok()));
        let table = d.render_table();
        assert!(table.contains("avala") && table.contains("stochastic"));
        assert!(d.render_svg(1.0).contains("<svg"));
        assert!(d.render_ascii().contains("host-0"));
    }

    #[test]
    fn adl_roundtrip_through_the_facade() {
        let d = desi();
        let json = d.to_adl().unwrap();
        let d2 = DeSi::from_adl(&json).unwrap();
        assert_eq!(d2.system().model(), d.system().model());
        assert_eq!(d2.system().deployment(), d.system().deployment());
    }

    #[test]
    fn modify_and_undo_through_the_facade() {
        let mut d = desi();
        let h0 = d.system().model().host_ids()[0];
        let before = d.system().model().host(h0).unwrap().memory();
        d.modify(|m, model| m.set_host_param(model, h0, keys::HOST_MEMORY, 1.0))
            .unwrap();
        assert_eq!(d.system().model().host(h0).unwrap().memory(), 1.0);
        d.modify(|m, model| m.undo(model).map(|undone| assert!(undone)))
            .unwrap();
        assert_eq!(d.system().model().host(h0).unwrap().memory(), before);
    }

    #[test]
    fn adopt_deployment_bumps_revision() {
        let mut d = desi();
        let rev = d.system().revision();
        let dep = d.system().deployment().clone();
        d.adopt_deployment(dep);
        assert!(d.system().revision() > rev);
    }

    #[test]
    fn unknown_algorithm_is_an_error() {
        let mut d = desi();
        assert!(d.run_algorithm("ghost", &Availability).is_err());
    }

    #[test]
    fn sensitivity_probes_without_leaving_a_trace() {
        let mut d = desi();
        let model_before = d.system().model().clone();
        let hosts = d.system().model().host_ids();
        let (before, after) = d
            .sensitivity(&Availability, |m, model| {
                m.set_physical_param(model, hosts[0], hosts[1], keys::LINK_RELIABILITY, 0.01)
            })
            .unwrap();
        // The probe changed the score (or at least could have)…
        assert!(after <= before + 1e-12);
        // …but the model is exactly as before, and the history is clean.
        assert_eq!(d.system().model(), &model_before);
    }

    #[test]
    fn sensitivity_supports_multi_edit_probes() {
        let mut d = desi();
        let model_before = d.system().model().clone();
        let hosts = d.system().model().host_ids();
        let (_, _) = d
            .sensitivity(&Availability, |m, model| {
                m.set_physical_param(model, hosts[0], hosts[1], keys::LINK_RELIABILITY, 0.2)?;
                m.set_host_param(model, hosts[0], keys::HOST_MEMORY, 1.0)
            })
            .unwrap();
        assert_eq!(d.system().model(), &model_before);
    }
}
