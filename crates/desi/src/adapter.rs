//! The `MiddlewareAdapter`: DeSi's interface to a running system.
//!
//! "The MiddlewareAdapter component … provides DeSi with the same
//! information from a running, real system. MiddlewareAdapter's Monitor
//! subcomponent captures the run-time data from the external
//! MiddlewarePlatform and stores it inside the Model's SystemData component.
//! MiddlewareAdapter's Effector subcomponent … issues a set of commands to
//! the MiddlewarePlatform to modify the running system's deployment
//! architecture."
//!
//! Here the middleware platform is a [`redep_prism::PrismHost`] fleet inside
//! a [`redep_netsim::ShardedSimulator`] at any shard count; the adapter
//! exchanges data with the deployer host between simulation steps.

use crate::error::DesiError;
use crate::system_data::SystemData;
use redep_model::{keys, Deployment, HostId};
use redep_netsim::ShardedSimulator;
use redep_prism::{DeployerComponent, MonitoringSnapshot, PrismHost};
use std::collections::BTreeMap;

/// Connects DeSi to a simulated Prism-MW system.
#[derive(Clone, Copy, Debug)]
pub struct MiddlewareAdapter {
    deployer_host: HostId,
}

impl MiddlewareAdapter {
    /// Creates an adapter talking to the deployer on `deployer_host`.
    pub fn new(deployer_host: HostId) -> Self {
        MiddlewareAdapter { deployer_host }
    }

    /// The deployer running on the deployer host — the one lookup every
    /// Monitor and Effector call goes through.
    fn deployer<'a>(&self, sim: &'a ShardedSimulator) -> Result<&'a DeployerComponent, DesiError> {
        let host = sim
            .node_ref::<PrismHost>(self.deployer_host)
            .ok_or_else(|| {
                DesiError::Adapter(format!("no Prism host at {}", self.deployer_host))
            })?;
        host.deployer()
            .ok_or_else(|| DesiError::Adapter(format!("{} runs no deployer", self.deployer_host)))
    }

    /// The deployer host, mutable, once [`MiddlewareAdapter::deployer`]
    /// found a deployer on it.
    fn deployer_host_mut<'a>(
        &self,
        sim: &'a mut ShardedSimulator,
    ) -> Result<&'a mut PrismHost, DesiError> {
        self.deployer(sim)?;
        Ok(sim
            .node_mut::<PrismHost>(self.deployer_host)
            .expect("the deployer host was just found"))
    }

    /// The Monitor subcomponent: pulls the deployer's collected monitoring
    /// snapshots into the system model — logical-link frequencies and event
    /// sizes, physical-link reliabilities, and the actual deployment.
    ///
    /// Returns the number of snapshots applied.
    ///
    /// # Errors
    ///
    /// Returns [`DesiError::Adapter`] when the deployer host is absent or
    /// not running a deployer.
    pub fn pull_monitoring_data(
        &self,
        sim: &ShardedSimulator,
        system: &mut SystemData,
    ) -> Result<usize, DesiError> {
        let snapshots = self.deployer(sim)?.snapshots();
        Self::apply_snapshots(system, snapshots.values())?;
        Ok(snapshots.len())
    }

    /// Applies already-extracted snapshots (exposed separately so the
    /// decentralized configuration, which has no deployer, can feed
    /// per-host snapshots through the same code path).
    ///
    /// # Errors
    ///
    /// Returns [`DesiError::Adapter`] if a snapshot names a component the
    /// model does not know.
    pub fn apply_snapshots<'a>(
        system: &mut SystemData,
        snapshots: impl IntoIterator<Item = &'a MonitoringSnapshot>,
    ) -> Result<(), DesiError> {
        let ids = system.component_ids_by_name();
        let mut deployment = system.deployment().clone();
        for snap in snapshots {
            // Deployment: the snapshot's components live on the reporting host.
            for name in snap.components.keys() {
                let id = *ids
                    .get(name)
                    .ok_or_else(|| DesiError::Adapter(format!("unknown component '{name}'")))?;
                deployment.assign(id, snap.host);
            }
            // Interaction parameters.
            for (pair, freq) in &snap.frequencies {
                let (Some(&ca), Some(&cb)) = (ids.get(&pair.0), ids.get(&pair.1)) else {
                    continue;
                };
                let size = snap.event_sizes.get(pair).copied();
                system.model_mut().set_logical_link(ca, cb, |l| {
                    l.set_frequency(*freq);
                    if let Some(s) = size {
                        if s > 0.0 {
                            l.set_event_size(s);
                        }
                    }
                })?;
            }
            // Link reliabilities (the monitored halves; architect-provided
            // parameters like security are left untouched).
            for (peer, rel) in &snap.reliabilities {
                if system.model().contains_host(*peer) && *peer != snap.host {
                    system
                        .model_mut()
                        .set_physical_link(snap.host, *peer, |l| {
                            l.params_mut()
                                .set(keys::LINK_RELIABILITY, rel.clamp(0.0, 1.0));
                        })?;
                }
            }
        }
        system.set_deployment(deployment);
        Ok(())
    }

    /// The Effector subcomponent: pushes an improved deployment to the
    /// running system by handing the deployer a redeployment command
    /// (executed by the admins as the simulation continues). Every move span
    /// (and its configure/request/transfer/ack cascade) journals as a child
    /// of `parent` — typically the framework's redeployment span for the
    /// cycle that decided the move.
    ///
    /// # Errors
    ///
    /// Returns [`DesiError::Adapter`] when the deployer host is absent or
    /// not running a deployer.
    pub fn push_deployment_traced(
        &self,
        sim: &mut ShardedSimulator,
        system: &SystemData,
        target: &Deployment,
        parent: Option<redep_prism::TraceCtx>,
    ) -> Result<(), DesiError> {
        let mut by_name: BTreeMap<String, HostId> = BTreeMap::new();
        for (c, h) in target.iter() {
            let name = system
                .model()
                .component(c)
                .map_err(DesiError::Model)?
                .name()
                .to_owned();
            by_name.insert(name, h);
        }
        self.deployer_host_mut(sim)?
            .effect_redeployment(by_name, parent)
            .map_err(|e| DesiError::Adapter(e.to_string()))
    }

    /// Settles any still-open move spans of the deployer's current epoch as
    /// `abandoned` — called by a framework giving up on an incomplete
    /// redeployment, so no journal ends with dangling move spans.
    ///
    /// # Errors
    ///
    /// Returns [`DesiError::Adapter`] when the deployer host is absent or
    /// not running a deployer.
    pub fn abandon_pending_moves(&self, sim: &mut ShardedSimulator) -> Result<(), DesiError> {
        self.deployer_host_mut(sim)?.abandon_pending_moves();
        Ok(())
    }

    /// Whether the last pushed redeployment has completed in the running
    /// system.
    ///
    /// # Errors
    ///
    /// Returns [`DesiError::Adapter`] when the deployer host is absent or
    /// not running a deployer.
    pub fn redeployment_complete(&self, sim: &ShardedSimulator) -> Result<bool, DesiError> {
        Ok(self.deployer(sim)?.status().is_complete())
    }

    /// Whether the last pushed redeployment has *settled*: nothing is in
    /// flight anymore, though some moves may have failed for good (see
    /// [`MiddlewareAdapter::redeployment_failures`]). A settled-but-
    /// incomplete redeployment is the frameworks' cue to reconcile instead
    /// of waiting longer.
    ///
    /// # Errors
    ///
    /// Returns [`DesiError::Adapter`] when the deployer host is absent or
    /// not running a deployer.
    pub fn redeployment_settled(&self, sim: &ShardedSimulator) -> Result<bool, DesiError> {
        Ok(self.deployer(sim)?.status().is_settled())
    }

    /// Moves of the last pushed redeployment the deployer has given up on,
    /// with their failure reasons.
    ///
    /// # Errors
    ///
    /// Returns [`DesiError::Adapter`] when the deployer host is absent or
    /// not running a deployer.
    pub fn redeployment_failures(
        &self,
        sim: &ShardedSimulator,
    ) -> Result<Vec<(String, String)>, DesiError> {
        Ok(self.deployer(sim)?.status().failed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redep_model::DeploymentModel;

    fn simple_system() -> SystemData {
        let mut m = DeploymentModel::new();
        let h0 = m.add_host("h0").unwrap();
        let h1 = m.add_host("h1").unwrap();
        m.set_physical_link(h0, h1, |_| {}).unwrap();
        let a = m.add_component("a").unwrap();
        let b = m.add_component("b").unwrap();
        m.set_logical_link(a, b, |_| {}).unwrap();
        let d: Deployment = [(a, h0), (b, h1)].into_iter().collect();
        SystemData::new(m, d)
    }

    #[test]
    fn snapshots_update_frequencies_reliabilities_and_deployment() {
        let mut sys = simple_system();
        let h0 = HostId::new(0);
        let h1 = HostId::new(1);
        let mut snap = MonitoringSnapshot {
            host: h0,
            ..MonitoringSnapshot::default()
        };
        snap.components.insert("a".into(), "w".into());
        snap.components.insert("b".into(), "w".into()); // b moved to h0!
        snap.frequencies.insert(("a".into(), "b".into()), 7.5);
        snap.event_sizes.insert(("a".into(), "b".into()), 256.0);
        snap.reliabilities.insert(h1, 0.65);

        MiddlewareAdapter::apply_snapshots(&mut sys, &[snap]).unwrap();

        let (a, b) = (
            sys.model().component_ids()[0],
            sys.model().component_ids()[1],
        );
        assert_eq!(sys.model().frequency(a, b), 7.5);
        assert_eq!(sys.model().event_size(a, b), 256.0);
        assert_eq!(sys.model().reliability(h0, h1), 0.65);
        assert_eq!(sys.deployment().host_of(b), Some(h0));
    }

    #[test]
    fn unknown_component_names_are_rejected() {
        let mut sys = simple_system();
        let mut snap = MonitoringSnapshot {
            host: HostId::new(0),
            ..MonitoringSnapshot::default()
        };
        snap.components.insert("ghost".into(), "w".into());
        assert!(matches!(
            MiddlewareAdapter::apply_snapshots(&mut sys, &[snap]),
            Err(DesiError::Adapter(_))
        ));
    }

    #[test]
    fn adapter_errors_on_missing_deployer() {
        // Host 0 runs nothing; host 1 runs Prism but no deployer. Every
        // Monitor and Effector call names what is missing.
        let (h0, h1) = (HostId::new(0), HostId::new(1));
        let topology = redep_netsim::NetworkTopology::new();
        let mut sim = ShardedSimulator::new(0, &topology, 1);
        let config = redep_prism::host::HostConfig::default();
        sim.add_host(
            h1,
            PrismHost::new(h1, redep_prism::ComponentFactory::new(), config),
        );
        let sys = simple_system();
        for (host, missing) in [(h0, "no Prism host at h"), (h1, "runs no deployer")] {
            let adapter = MiddlewareAdapter::new(host);
            let outcomes = [
                adapter
                    .pull_monitoring_data(&sim, &mut sys.clone())
                    .map(drop),
                adapter.redeployment_complete(&sim).map(drop),
                adapter.redeployment_settled(&sim).map(drop),
                adapter.redeployment_failures(&sim).map(drop),
                adapter.push_deployment_traced(&mut sim, &sys, sys.deployment(), None),
                adapter.abandon_pending_moves(&mut sim),
            ];
            for outcome in outcomes {
                assert!(
                    matches!(&outcome, Err(DesiError::Adapter(m)) if m.contains(missing)),
                    "{host}: {outcome:?}"
                );
            }
        }
    }
}
