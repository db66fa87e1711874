//! Objective functions scoring deployment architectures.
//!
//! An [`Objective`] formalizes one desired system characteristic, the paper's
//! first algorithm variation point. Built-ins:
//!
//! * [`Availability`] — the paper's §5 objective (maximize),
//! * [`PathAwareAvailability`] — the same formula with multi-hop path
//!   reliabilities (for relaying platforms),
//! * [`Latency`] — mean remote-interaction latency (minimize),
//! * [`CommunicationVolume`] — total remote traffic, the objective of the I5
//!   related work (minimize),
//! * [`LinkSecurity`] — interaction-weighted link security (maximize),
//! * [`Composite`] — a weighted combination for multi-objective analysis.

use crate::deployment::Deployment;
use crate::eval::{CompiledObjective, PartKind};
use crate::model::DeploymentModel;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::fmt;

/// Whether larger or smaller objective values are better.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum Direction {
    /// Larger values are better (e.g. availability).
    Maximize,
    /// Smaller values are better (e.g. latency).
    Minimize,
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Direction::Maximize => f.write_str("maximize"),
            Direction::Minimize => f.write_str("minimize"),
        }
    }
}

/// A formally specified desired system characteristic.
///
/// Objectives are pure functions of a model and a candidate deployment, so a
/// single evaluation never mutates anything and algorithms may call them
/// millions of times.
pub trait Objective: fmt::Debug + Send + Sync {
    /// Short name for reports (e.g. `"availability"`).
    fn name(&self) -> &str;

    /// Whether this objective is maximized or minimized.
    fn direction(&self) -> Direction;

    /// Scores `deployment` against `model` in the objective's natural units.
    fn evaluate(&self, model: &DeploymentModel, deployment: &Deployment) -> f64;

    /// Returns `true` if `candidate` is strictly better than `incumbent`.
    fn is_improvement(&self, incumbent: f64, candidate: f64) -> bool {
        match self.direction() {
            Direction::Maximize => candidate > incumbent,
            Direction::Minimize => candidate < incumbent,
        }
    }

    /// The worst possible score, used to seed search loops.
    fn worst(&self) -> f64 {
        match self.direction() {
            Direction::Maximize => f64::NEG_INFINITY,
            Direction::Minimize => f64::INFINITY,
        }
    }

    /// Maps an already-computed score into a `[0, 1]`-ish utility where
    /// larger is better, enabling composition across objectives with
    /// different units.
    ///
    /// The default maps maximizing objectives through the identity and
    /// minimizing objectives through `1 / (1 + value)`.
    fn utility_of(&self, value: f64) -> f64 {
        match self.direction() {
            Direction::Maximize => value,
            Direction::Minimize => 1.0 / (1.0 + value.max(0.0)),
        }
    }

    /// Evaluates and maps through [`utility_of`](Self::utility_of) in one
    /// call.
    fn utility(&self, model: &DeploymentModel, deployment: &Deployment) -> f64 {
        self.utility_of(self.evaluate(model, deployment))
    }

    /// The dense compiled form of this objective, if it has one.
    ///
    /// Returning `Some` lets algorithms score candidates through
    /// [`IncrementalScore`](crate::IncrementalScore) instead of
    /// [`evaluate`](Self::evaluate); the compiled form must produce the same
    /// value as `evaluate` for any deployment over the compiled model.
    /// Custom objectives default to `None`: algorithms then run the same
    /// body but score every candidate with a full `evaluate` (no deltas),
    /// and the hierarchical `-h` variants run their flat body.
    fn compiled(&self) -> Option<CompiledObjective> {
        None
    }
}

/// The paper's availability objective (maximize).
///
/// `availability(d) = Σ freq(cᵢ,cⱼ) · rel(d(cᵢ), d(cⱼ)) / Σ freq(cᵢ,cⱼ)`
///
/// — the frequency-weighted probability that an interaction succeeds, where
/// local interactions always succeed (`rel(h,h) = 1`) and interactions across
/// missing links always fail (`rel = 0`). A system whose most frequent and
/// voluminous interactions are local or run over reliable links scores high.
///
/// A model with no interactions at all is defined to be perfectly available
/// (score `1.0`).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Availability;

impl Objective for Availability {
    fn name(&self) -> &str {
        "availability"
    }

    fn direction(&self) -> Direction {
        Direction::Maximize
    }

    fn evaluate(&self, model: &DeploymentModel, deployment: &Deployment) -> f64 {
        let mut weighted = 0.0;
        let mut total = 0.0;
        for link in model.logical_links() {
            let freq = link.frequency();
            if freq <= 0.0 {
                continue;
            }
            total += freq;
            let (a, b) = (link.ends().lo(), link.ends().hi());
            if let (Some(ha), Some(hb)) = (deployment.host_of(a), deployment.host_of(b)) {
                weighted += freq * model.reliability(ha, hb);
            }
        }
        if total == 0.0 {
            1.0
        } else {
            weighted / total
        }
    }

    fn compiled(&self) -> Option<CompiledObjective> {
        Some(CompiledObjective::single(PartKind::Availability))
    }
}

/// Availability with multi-hop path semantics (maximize).
///
/// Identical to [`Availability`] except that interactions between
/// non-adjacent hosts are scored with the best path's compounded per-hop
/// reliability ([`DeploymentModel::best_path`]) instead of zero. Use it when
/// the running platform relays frames hop-by-hop (as `redep-prism` does);
/// experiment A3 shows it tracking measured availability within fractions of
/// a percent.
///
/// Evaluation runs a shortest-path search per interacting host pair, so it
/// is noticeably more expensive than [`Availability`] — fine for analyzers
/// and auction bids, slow inside the Exact algorithm's kⁿ loop.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct PathAwareAvailability;

thread_local! {
    /// Reusable per-thread path-reliability cache for the naive
    /// [`PathAwareAvailability::evaluate`] path, so repeated scalar
    /// evaluations don't allocate a fresh map per call. Entries are
    /// `(lo, hi, reliability)` with `lo < hi`; the list is tiny (bounded by
    /// the interacting host pairs of one deployment), so a linear scan beats
    /// a tree.
    static PATH_CACHE: RefCell<Vec<(crate::HostId, crate::HostId, f64)>> =
        const { RefCell::new(Vec::new()) };
}

impl Objective for PathAwareAvailability {
    fn name(&self) -> &str {
        "availability (path-aware)"
    }

    fn direction(&self) -> Direction {
        Direction::Maximize
    }

    fn evaluate(&self, model: &DeploymentModel, deployment: &Deployment) -> f64 {
        PATH_CACHE.with(|cache| {
            let mut cache = cache.borrow_mut();
            cache.clear();
            let mut weighted = 0.0;
            let mut total = 0.0;
            for link in model.logical_links() {
                let freq = link.frequency();
                if freq <= 0.0 {
                    continue;
                }
                total += freq;
                let (a, b) = (link.ends().lo(), link.ends().hi());
                if let (Some(ha), Some(hb)) = (deployment.host_of(a), deployment.host_of(b)) {
                    let (lo, hi) = if ha < hb { (ha, hb) } else { (hb, ha) };
                    let rel = match cache.iter().find(|&&(a, b, _)| a == lo && b == hi) {
                        Some(&(_, _, rel)) => rel,
                        None => {
                            let rel = model
                                .best_path(ha, hb)
                                .map(|p| p.reliability)
                                .unwrap_or(0.0);
                            cache.push((lo, hi, rel));
                            rel
                        }
                    };
                    weighted += freq * rel;
                }
            }
            if total == 0.0 {
                1.0
            } else {
                weighted / total
            }
        })
    }

    fn compiled(&self) -> Option<CompiledObjective> {
        Some(CompiledObjective::single(PartKind::PathAwareAvailability))
    }
}

/// Mean remote-interaction latency (minimize).
///
/// Each interaction between components on hosts `ha ≠ hb` costs
/// `delay(ha,hb) + event_size / bandwidth(ha,hb)`; local interactions are
/// free. The score is the frequency-weighted mean cost per interaction.
/// Interactions across missing links contribute a large finite penalty
/// ([`Latency::DISCONNECTED_PENALTY`]) rather than infinity so that partial
/// connectivity still yields comparable scores.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Latency;

impl Latency {
    /// Latency charged for an interaction between disconnected hosts.
    pub const DISCONNECTED_PENALTY: f64 = 1e6;

    /// Creates the objective.
    pub fn new() -> Self {
        Latency
    }
}

impl Objective for Latency {
    fn name(&self) -> &str {
        "latency"
    }

    fn direction(&self) -> Direction {
        Direction::Minimize
    }

    fn evaluate(&self, model: &DeploymentModel, deployment: &Deployment) -> f64 {
        let mut weighted = 0.0;
        let mut total = 0.0;
        for link in model.logical_links() {
            let freq = link.frequency();
            if freq <= 0.0 {
                continue;
            }
            total += freq;
            let (a, b) = (link.ends().lo(), link.ends().hi());
            let cost = match (deployment.host_of(a), deployment.host_of(b)) {
                (Some(ha), Some(hb)) if ha == hb => 0.0,
                (Some(ha), Some(hb)) => match model.physical_link(ha, hb) {
                    Some(l) => l.delay() + link.event_size() / l.bandwidth(),
                    None => Self::DISCONNECTED_PENALTY,
                },
                _ => Self::DISCONNECTED_PENALTY,
            };
            weighted += freq * cost;
        }
        if total == 0.0 {
            0.0
        } else {
            weighted / total
        }
    }

    fn compiled(&self) -> Option<CompiledObjective> {
        Some(CompiledObjective::single(PartKind::Latency))
    }
}

/// Total remote communication volume (minimize) — the objective minimized by
/// the I5 binary-integer-programming approach the paper compares against.
///
/// `volume(d) = Σ_{d(cᵢ) ≠ d(cⱼ)} freq(cᵢ,cⱼ) · size(cᵢ,cⱼ)`
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CommunicationVolume;

impl Objective for CommunicationVolume {
    fn name(&self) -> &str {
        "communication volume"
    }

    fn direction(&self) -> Direction {
        Direction::Minimize
    }

    fn evaluate(&self, model: &DeploymentModel, deployment: &Deployment) -> f64 {
        let mut volume = 0.0;
        for link in model.logical_links() {
            let (a, b) = (link.ends().lo(), link.ends().hi());
            match (deployment.host_of(a), deployment.host_of(b)) {
                (Some(ha), Some(hb)) if ha == hb => {}
                _ => volume += link.frequency() * link.event_size(),
            }
        }
        volume
    }

    fn compiled(&self) -> Option<CompiledObjective> {
        Some(CompiledObjective::single(PartKind::CommunicationVolume))
    }
}

/// Interaction-weighted link security (maximize).
///
/// `security(d) = Σ freq(cᵢ,cⱼ) · sec(d(cᵢ), d(cⱼ)) / Σ freq(cᵢ,cⱼ)`
///
/// where local interactions are perfectly secure. Link security is an
/// architect-supplied parameter ([`keys::LINK_SECURITY`]) — the paper's
/// example of a parameter that cannot be monitored.
///
/// [`keys::LINK_SECURITY`]: crate::keys::LINK_SECURITY
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct LinkSecurity;

impl Objective for LinkSecurity {
    fn name(&self) -> &str {
        "security"
    }

    fn direction(&self) -> Direction {
        Direction::Maximize
    }

    fn evaluate(&self, model: &DeploymentModel, deployment: &Deployment) -> f64 {
        let mut weighted = 0.0;
        let mut total = 0.0;
        for link in model.logical_links() {
            let freq = link.frequency();
            if freq <= 0.0 {
                continue;
            }
            total += freq;
            let (a, b) = (link.ends().lo(), link.ends().hi());
            if let (Some(ha), Some(hb)) = (deployment.host_of(a), deployment.host_of(b)) {
                weighted += freq * model.security(ha, hb);
            }
        }
        if total == 0.0 {
            1.0
        } else {
            weighted / total
        }
    }

    fn compiled(&self) -> Option<CompiledObjective> {
        Some(CompiledObjective::single(PartKind::LinkSecurity))
    }
}

/// A weighted combination of objectives, for multi-objective analysis
/// (the paper's §6 future-work direction: "mitigating techniques for
/// situations where different desired system characteristics may be
/// conflicting").
///
/// Each part contributes `weight · utility`, where [`Objective::utility`]
/// maps every objective onto a larger-is-better scale. The composite itself
/// is maximized.
///
/// # Example
///
/// ```
/// use redep_model::{Composite, Availability, Latency, Objective, Direction};
/// let combined = Composite::new()
///     .with("availability", Availability, 0.7)
///     .with("latency", Latency::new(), 0.3);
/// assert_eq!(combined.direction(), Direction::Maximize);
/// ```
#[derive(Debug, Default)]
pub struct Composite {
    parts: Vec<(String, Box<dyn Objective>, f64)>,
}

impl Composite {
    /// Creates an empty composite.
    pub fn new() -> Self {
        Composite { parts: Vec::new() }
    }

    /// Adds a weighted part (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `weight` is negative.
    pub fn with(
        mut self,
        label: impl Into<String>,
        objective: impl Objective + 'static,
        weight: f64,
    ) -> Self {
        self.push(label, objective, weight);
        self
    }

    /// Adds a weighted part.
    ///
    /// # Panics
    ///
    /// Panics if `weight` is negative.
    fn push(&mut self, label: impl Into<String>, objective: impl Objective + 'static, weight: f64) {
        assert!(weight >= 0.0, "weight must be non-negative, got {weight}");
        self.parts.push((label.into(), Box::new(objective), weight));
    }
}

impl Objective for Composite {
    fn name(&self) -> &str {
        "composite"
    }

    fn direction(&self) -> Direction {
        Direction::Maximize
    }

    fn evaluate(&self, model: &DeploymentModel, deployment: &Deployment) -> f64 {
        self.parts
            .iter()
            .map(|(_, obj, w)| w * obj.utility(model, deployment))
            .sum()
    }

    fn compiled(&self) -> Option<CompiledObjective> {
        let mut parts = Vec::with_capacity(self.parts.len());
        for (_, obj, w) in &self.parts {
            parts.push((obj.compiled()?.as_single()?, *w));
        }
        Some(CompiledObjective::composite(parts))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ComponentId, HostId};

    fn h(n: u32) -> HostId {
        HostId::new(n)
    }
    fn c(n: u32) -> ComponentId {
        ComponentId::new(n)
    }

    /// Two hosts joined by a 0.5-reliable, bandwidth-10, delay-2 link;
    /// two components interacting with frequency 4 and event size 20.
    fn fixture() -> DeploymentModel {
        let mut m = DeploymentModel::new();
        let a = m.add_host("a").unwrap();
        let b = m.add_host("b").unwrap();
        m.set_physical_link(a, b, |l| {
            l.set_reliability(0.5);
            l.set_bandwidth(10.0);
            l.set_delay(2.0);
            l.set_security(0.25);
        })
        .unwrap();
        let x = m.add_component("x").unwrap();
        let y = m.add_component("y").unwrap();
        m.set_logical_link(x, y, |l| {
            l.set_frequency(4.0);
            l.set_event_size(20.0);
        })
        .unwrap();
        m
    }

    fn remote() -> Deployment {
        [(c(0), h(0)), (c(1), h(1))].into_iter().collect()
    }

    fn local() -> Deployment {
        [(c(0), h(0)), (c(1), h(0))].into_iter().collect()
    }

    #[test]
    fn availability_of_local_deployment_is_one() {
        let m = fixture();
        assert_eq!(Availability.evaluate(&m, &local()), 1.0);
    }

    #[test]
    fn availability_of_remote_deployment_is_link_reliability() {
        let m = fixture();
        assert!((Availability.evaluate(&m, &remote()) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn availability_of_empty_interaction_set_is_one() {
        let m = DeploymentModel::new();
        assert_eq!(Availability.evaluate(&m, &Deployment::new()), 1.0);
    }

    #[test]
    fn availability_weights_by_frequency() {
        let mut m = fixture();
        let z = m.add_component("z").unwrap();
        // High-frequency local pair dominates.
        m.set_logical_link(c(0), z, |l| l.set_frequency(12.0))
            .unwrap();
        let mut d = remote();
        d.assign(z, h(0));
        // (4 * 0.5 + 12 * 1.0) / 16 = 0.875
        assert!((Availability.evaluate(&m, &d) - 0.875).abs() < 1e-12);
    }

    #[test]
    fn unassigned_components_count_as_unavailable() {
        let m = fixture();
        let d: Deployment = [(c(0), h(0))].into_iter().collect();
        assert_eq!(Availability.evaluate(&m, &d), 0.0);
    }

    #[test]
    fn latency_of_local_deployment_is_zero() {
        let m = fixture();
        assert_eq!(Latency::new().evaluate(&m, &local()), 0.0);
    }

    #[test]
    fn latency_of_remote_deployment_is_delay_plus_transfer() {
        let m = fixture();
        // delay 2 + size 20 / bandwidth 10 = 4.0 per interaction
        assert!((Latency::new().evaluate(&m, &remote()) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn latency_penalizes_disconnection_finitely() {
        let mut m = fixture();
        m.remove_physical_link(h(0), h(1)).unwrap();
        let v = Latency::new().evaluate(&m, &remote());
        assert_eq!(v, Latency::DISCONNECTED_PENALTY);
        assert!(v.is_finite());
    }

    #[test]
    fn communication_volume_counts_remote_traffic_only() {
        let m = fixture();
        assert_eq!(CommunicationVolume.evaluate(&m, &local()), 0.0);
        assert!((CommunicationVolume.evaluate(&m, &remote()) - 80.0).abs() < 1e-12);
    }

    #[test]
    fn security_weighted_by_frequency() {
        let m = fixture();
        assert!((LinkSecurity.evaluate(&m, &remote()) - 0.25).abs() < 1e-12);
        assert_eq!(LinkSecurity.evaluate(&m, &local()), 1.0);
    }

    #[test]
    fn path_aware_availability_scores_multi_hop_pairs() {
        // a — b — c; components on a and c, no direct a–c link.
        let mut m = DeploymentModel::new();
        let ha = m.add_host("a").unwrap();
        let hb = m.add_host("b").unwrap();
        let hc = m.add_host("c").unwrap();
        m.set_physical_link(ha, hb, |l| l.set_reliability(0.9))
            .unwrap();
        m.set_physical_link(hb, hc, |l| l.set_reliability(0.8))
            .unwrap();
        let x = m.add_component("x").unwrap();
        let y = m.add_component("y").unwrap();
        m.set_logical_link(x, y, |l| l.set_frequency(2.0)).unwrap();
        let d: Deployment = [(x, ha), (y, hc)].into_iter().collect();
        // Direct-link semantics: unavailable.
        assert_eq!(Availability.evaluate(&m, &d), 0.0);
        // Path semantics: 0.9 × 0.8.
        assert!((PathAwareAvailability.evaluate(&m, &d) - 0.72).abs() < 1e-12);
    }

    #[test]
    fn path_aware_agrees_with_direct_on_adjacent_pairs() {
        let m = fixture();
        assert!(
            (PathAwareAvailability.evaluate(&m, &remote()) - Availability.evaluate(&m, &remote()))
                .abs()
                < 1e-12
        );
        assert_eq!(PathAwareAvailability.evaluate(&m, &local()), 1.0);
    }

    #[test]
    fn is_improvement_respects_direction() {
        assert!(Availability.is_improvement(0.5, 0.6));
        assert!(!Availability.is_improvement(0.6, 0.5));
        assert!(Latency::new().is_improvement(5.0, 4.0));
        assert!(!Latency::new().is_improvement(4.0, 5.0));
    }

    #[test]
    fn worst_seeds_search_loops() {
        assert_eq!(Availability.worst(), f64::NEG_INFINITY);
        assert_eq!(Latency::new().worst(), f64::INFINITY);
        assert!(Availability.is_improvement(Availability.worst(), 0.0));
        assert!(Latency::new().is_improvement(Latency::new().worst(), 100.0));
    }

    #[test]
    fn composite_prefers_local_deployment_here() {
        let m = fixture();
        let obj = Composite::new()
            .with("availability", Availability, 0.5)
            .with("latency", Latency::new(), 0.5);
        let score_local = obj.evaluate(&m, &local());
        let score_remote = obj.evaluate(&m, &remote());
        assert!(obj.is_improvement(score_remote, score_local));
    }

    #[test]
    fn minimizing_utility_is_monotonically_decreasing() {
        let m = fixture();
        let lat = Latency::new();
        let u_local = lat.utility(&m, &local());
        let u_remote = lat.utility(&m, &remote());
        assert!(u_local > u_remote);
        assert!((0.0..=1.0).contains(&u_remote));
    }
}
