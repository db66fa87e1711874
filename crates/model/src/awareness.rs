//! Awareness graphs: per-host partial knowledge for decentralized systems.
//!
//! The paper's decentralized instantiation extends the centralized model
//! "to include the notion of *awareness*. Awareness denotes the extent of
//! each host's knowledge about the global system parameters. […] if there
//! are two hosts in the system that are not aware of (i.e., connected to)
//! each other, then the respective models maintained by the two hosts do not
//! contain each other's system parameters."
//!
//! An [`AwarenessGraph`] records which hosts each host knows about, and
//! [`AwarenessGraph::partial_view`] projects the global model down to the
//! submodel a given host can see.

use crate::deployment::Deployment;
use crate::ids::HostId;
use crate::model::DeploymentModel;
use crate::ModelError;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Which hosts each host is aware of.
///
/// Awareness always includes the host itself and is kept symmetric
/// (if `a` knows `b`, `b` knows `a`), matching the paper's reading of
/// awareness as direct connectivity.
///
/// # Example
///
/// ```
/// use redep_model::{DeploymentModel, AwarenessGraph};
/// let mut model = DeploymentModel::new();
/// let a = model.add_host("a")?;
/// let b = model.add_host("b")?;
/// let c = model.add_host("c")?;
/// model.set_physical_link(a, b, |_| {})?;
/// // Awareness from physical connectivity: a and b know each other; c is alone.
/// let g = AwarenessGraph::from_connectivity(&model);
/// assert!(g.aware_of(a).contains(&b));
/// assert!(!g.aware_of(a).contains(&c));
/// # Ok::<(), redep_model::ModelError>(())
/// ```
#[derive(Clone, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
pub struct AwarenessGraph {
    aware: BTreeMap<HostId, BTreeSet<HostId>>,
}

impl AwarenessGraph {
    /// Creates an empty graph covering the given hosts (each host aware only
    /// of itself).
    pub fn isolated(hosts: impl IntoIterator<Item = HostId>) -> Self {
        let aware = hosts
            .into_iter()
            .map(|h| (h, BTreeSet::from([h])))
            .collect();
        AwarenessGraph { aware }
    }

    /// Derives awareness from the model's physical connectivity: each host is
    /// aware of itself and its direct neighbors (the paper's default).
    pub fn from_connectivity(model: &DeploymentModel) -> Self {
        let mut g = AwarenessGraph::isolated(model.host_ids());
        for link in model.physical_links() {
            g.connect(link.ends().lo(), link.ends().hi());
        }
        g
    }

    /// Full awareness: every host knows every other (degenerates to the
    /// centralized case).
    pub fn complete(hosts: impl IntoIterator<Item = HostId>) -> Self {
        let all: BTreeSet<HostId> = hosts.into_iter().collect();
        let aware = all.iter().map(|h| (*h, all.clone())).collect();
        AwarenessGraph { aware }
    }

    /// Random symmetric awareness where each host knows roughly
    /// `fraction` of its peers; deterministic in `seed`. Self-awareness is
    /// always included.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is not within `[0, 1]`.
    pub fn random(hosts: &[HostId], fraction: f64, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "fraction must be in [0, 1], got {fraction}"
        );
        let mut g = AwarenessGraph::isolated(hosts.iter().copied());
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for (i, &a) in hosts.iter().enumerate() {
            let mut peers: Vec<HostId> = hosts[i + 1..].to_vec();
            peers.shuffle(&mut rng);
            let keep = ((peers.len() as f64) * fraction).round() as usize;
            for &b in peers.iter().take(keep) {
                g.connect(a, b);
            }
        }
        g
    }

    /// Makes `a` and `b` mutually aware.
    pub fn connect(&mut self, a: HostId, b: HostId) {
        self.aware.entry(a).or_default().insert(a);
        self.aware.entry(b).or_default().insert(b);
        self.aware.get_mut(&a).expect("just inserted").insert(b);
        self.aware.get_mut(&b).expect("just inserted").insert(a);
    }

    /// The set of hosts `h` is aware of (including itself). Empty for hosts
    /// the graph does not cover.
    pub fn aware_of(&self, h: HostId) -> BTreeSet<HostId> {
        self.aware.get(&h).cloned().unwrap_or_default()
    }

    /// Returns `true` if `a` is aware of `b`.
    pub fn is_aware(&self, a: HostId, b: HostId) -> bool {
        self.aware.get(&a).is_some_and(|s| s.contains(&b))
    }

    /// Mean fraction of peers each host is aware of (`1.0` = complete).
    pub fn mean_awareness(&self) -> f64 {
        let n = self.aware.len();
        if n <= 1 {
            return 1.0;
        }
        let total: usize = self.aware.values().map(|s| s.len() - 1).sum();
        total as f64 / (n * (n - 1)) as f64
    }

    /// Projects the global model and deployment down to what `observer` can
    /// see: the hosts it is aware of, physical links among them, the
    /// components deployed on them, logical links among those components, and
    /// the constraints restricted to visible entities.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::UnknownHost`] if `observer` is not part of the
    /// model.
    pub fn partial_view(
        &self,
        model: &DeploymentModel,
        deployment: &Deployment,
        observer: HostId,
    ) -> Result<PartialView, ModelError> {
        if !model.contains_host(observer) {
            return Err(ModelError::UnknownHost(observer));
        }
        let visible_hosts = self.aware_of(observer);

        let mut view = DeploymentModel::new();
        // Rebuild the submodel by cloning visible parts. Fresh ids would break
        // cross-host agreement, so the view preserves global ids by cloning
        // parts into a new model via the import API below.
        let mut local = Deployment::new();
        let mut visible_components = BTreeSet::new();
        for (c, h) in deployment.iter() {
            if visible_hosts.contains(&h) {
                visible_components.insert(c);
                local.assign(c, h);
            }
        }

        for &h in &visible_hosts {
            if let Ok(host) = model.host(h) {
                view.import_host(host.clone());
            }
        }
        for &c in &visible_components {
            if let Ok(component) = model.component(c) {
                view.import_component(component.clone());
            }
        }
        for link in model.physical_links() {
            let ends = link.ends();
            if visible_hosts.contains(&ends.lo()) && visible_hosts.contains(&ends.hi()) {
                view.import_physical_link(link.clone());
            }
        }
        for link in model.logical_links() {
            let ends = link.ends();
            if visible_components.contains(&ends.lo()) && visible_components.contains(&ends.hi()) {
                view.import_logical_link(link.clone());
            }
        }
        for constraint in model.constraints().iter() {
            if view.constraint_is_local(constraint) {
                view.constraints_mut().add(constraint.clone());
            }
        }

        Ok(PartialView {
            observer,
            model: view,
            deployment: local,
        })
    }
}

/// What one host can see of the global system.
#[derive(Clone, PartialEq, Debug)]
pub struct PartialView {
    /// The host this view belongs to.
    pub observer: HostId,
    /// The visible submodel (ids match the global model).
    pub model: DeploymentModel,
    /// The visible part of the deployment.
    pub deployment: Deployment,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ComponentId;

    fn line_model() -> (DeploymentModel, Vec<HostId>, Vec<ComponentId>) {
        // a — b — c (line topology), one component per host.
        let mut m = DeploymentModel::new();
        let hosts: Vec<HostId> = (0..3)
            .map(|i| m.add_host(format!("h{i}")).unwrap())
            .collect();
        m.set_physical_link(hosts[0], hosts[1], |l| l.set_reliability(0.9))
            .unwrap();
        m.set_physical_link(hosts[1], hosts[2], |l| l.set_reliability(0.8))
            .unwrap();
        let comps: Vec<ComponentId> = (0..3)
            .map(|i| m.add_component(format!("c{i}")).unwrap())
            .collect();
        m.set_logical_link(comps[0], comps[1], |l| l.set_frequency(1.0))
            .unwrap();
        m.set_logical_link(comps[1], comps[2], |l| l.set_frequency(2.0))
            .unwrap();
        m.set_logical_link(comps[0], comps[2], |l| l.set_frequency(3.0))
            .unwrap();
        (m, hosts, comps)
    }

    #[test]
    fn connectivity_awareness_is_symmetric() {
        let (m, hosts, _) = line_model();
        let g = AwarenessGraph::from_connectivity(&m);
        assert!(g.is_aware(hosts[0], hosts[1]));
        assert!(g.is_aware(hosts[1], hosts[0]));
        assert!(!g.is_aware(hosts[0], hosts[2]));
        assert!(g.is_aware(hosts[0], hosts[0]));
    }

    #[test]
    fn complete_awareness_sees_everything() {
        let (m, hosts, _) = line_model();
        let g = AwarenessGraph::complete(m.host_ids());
        assert!(g.is_aware(hosts[0], hosts[2]));
        assert_eq!(g.mean_awareness(), 1.0);
    }

    #[test]
    fn partial_view_restricts_hosts_components_and_links() {
        let (m, hosts, comps) = line_model();
        let d: Deployment = comps.iter().zip(&hosts).map(|(c, h)| (*c, *h)).collect();
        let g = AwarenessGraph::from_connectivity(&m);
        let view = g.partial_view(&m, &d, hosts[0]).unwrap();
        // h0 sees itself and h1 (direct neighbor), not h2.
        assert!(view.model.contains_host(hosts[0]));
        assert!(view.model.contains_host(hosts[1]));
        assert!(!view.model.contains_host(hosts[2]));
        // It sees components c0 and c1 but not c2.
        assert!(view.model.contains_component(comps[0]));
        assert!(view.model.contains_component(comps[1]));
        assert!(!view.model.contains_component(comps[2]));
        // The only visible logical link is c0–c1.
        assert_eq!(view.model.logical_link_count(), 1);
        // And the only visible physical link is h0–h1 with its parameters.
        assert_eq!(view.model.physical_link_count(), 1);
        assert_eq!(view.model.reliability(hosts[0], hosts[1]), 0.9);
        // Deployment restricted accordingly.
        assert_eq!(view.deployment.len(), 2);
    }

    #[test]
    fn partial_view_preserves_global_ids() {
        let (m, hosts, comps) = line_model();
        let d: Deployment = comps.iter().zip(&hosts).map(|(c, h)| (*c, *h)).collect();
        let g = AwarenessGraph::from_connectivity(&m);
        let view = g.partial_view(&m, &d, hosts[1]).unwrap();
        // The middle host sees everything here, with identical ids.
        assert_eq!(view.model.host_ids(), m.host_ids());
        assert_eq!(view.model.component_ids(), m.component_ids());
    }

    #[test]
    fn partial_view_projects_constraints_onto_visible_components() {
        use crate::Constraint;
        use std::collections::BTreeSet;
        let (mut m, hosts, comps) = {
            let (m, h, c) = line_model();
            (m, h, c)
        };
        // c0 pinned to h0 (both visible from h0's view); c2 separated from
        // c0 (c2 invisible from h0, so the constraint must be dropped).
        m.constraints_mut().add(Constraint::PinnedTo {
            component: comps[0],
            hosts: BTreeSet::from([hosts[0]]),
        });
        m.constraints_mut().add(Constraint::Separated {
            components: BTreeSet::from([comps[0], comps[2]]),
        });
        let d: Deployment = comps.iter().zip(&hosts).map(|(c, h)| (*c, *h)).collect();
        let g = AwarenessGraph::from_connectivity(&m);
        let view = g.partial_view(&m, &d, hosts[0]).unwrap();
        assert_eq!(view.model.constraints().len(), 1);
        assert!(matches!(
            view.model.constraints().iter().next().unwrap(),
            Constraint::PinnedTo { .. }
        ));
    }

    #[test]
    fn partial_view_for_unknown_observer_errors() {
        let (m, _, _) = line_model();
        let g = AwarenessGraph::from_connectivity(&m);
        assert!(g
            .partial_view(&m, &Deployment::new(), HostId::new(99))
            .is_err());
    }

    #[test]
    fn random_awareness_is_deterministic_and_bounded() {
        let hosts: Vec<HostId> = (0..10).map(HostId::new).collect();
        let a = AwarenessGraph::random(&hosts, 0.5, 42);
        let b = AwarenessGraph::random(&hosts, 0.5, 42);
        assert_eq!(a, b);
        let zero = AwarenessGraph::random(&hosts, 0.0, 42);
        assert_eq!(zero.mean_awareness(), 0.0);
        let one = AwarenessGraph::random(&hosts, 1.0, 42);
        assert_eq!(one.mean_awareness(), 1.0);
    }

    #[test]
    fn mean_awareness_of_single_host_is_one() {
        let g = AwarenessGraph::isolated([HostId::new(0)]);
        assert_eq!(g.mean_awareness(), 1.0);
    }
}
