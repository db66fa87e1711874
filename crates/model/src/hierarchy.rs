//! Host hierarchy: super-node decomposition for hierarchical placement.
//!
//! Fleet-scale placement cannot afford to treat every host as a peer: the
//! paper's algorithms score candidates against all `k` hosts, so their cost
//! grows with the full host count even though most host pairs are
//! interchangeable from a single component's point of view. This module
//! computes a deterministic partition of the hosts into *clusters*
//! (super-nodes) plus aggregated cluster-pair link matrices, so a placement
//! engine can first solve the small comp→cluster problem on a coarse model
//! and then refine host choices within each cluster independently.
//!
//! Clustering shares [`delay_units`] with `netsim::shard`'s partitioner:
//! hosts joined by low-delay links (delay ≤ [`HierarchyConfig::delay_threshold`])
//! form connectivity units, and the units are folded round-robin — in
//! ascending order of their smallest host index — into the target number of
//! clusters. The whole construction is a pure function of the compiled
//! model and the config: no RNG, no iteration-order dependence, so
//! hierarchical results stay byte-identical at any thread count.

use crate::eval::CompiledModel;
use crate::ids::HostId;

/// Groups hosts `0..hosts` into connectivity units: the two ends of every
/// `(a, b, delay)` link with `delay ≤ threshold` share a unit. Units come
/// out in ascending order of their smallest member, members ascending — a
/// pure function of the input, whatever order the links arrive in.
///
/// # Panics
///
/// Panics if a link names a host index `≥ hosts`.
pub fn delay_units(
    hosts: usize,
    links: impl IntoIterator<Item = (u32, u32, f64)>,
    threshold: f64,
) -> Vec<Vec<u32>> {
    // Path-halving union-find whose smaller root always wins, so every
    // root is its unit's smallest member.
    let mut parent: Vec<u32> = (0..hosts as u32).collect();
    fn find(parent: &mut [u32], mut x: u32) -> u32 {
        while parent[x as usize] != x {
            parent[x as usize] = parent[parent[x as usize] as usize];
            x = parent[x as usize];
        }
        x
    }
    for (a, b, delay) in links {
        if delay <= threshold {
            let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
            parent[ra.max(rb) as usize] = ra.min(rb);
        }
    }
    let mut unit_of_root = vec![u32::MAX; hosts];
    let mut units: Vec<Vec<u32>> = Vec::new();
    for h in 0..hosts as u32 {
        let root = find(&mut parent, h) as usize;
        if unit_of_root[root] == u32::MAX {
            unit_of_root[root] = units.len() as u32;
            units.push(Vec::new());
        }
        units[unit_of_root[root] as usize].push(h);
    }
    units
}

/// Configuration of the host-clustering pass.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct HierarchyConfig {
    /// Hosts joined by a physical link with delay ≤ this threshold are
    /// placed in the same cluster (zero/low-delay connectivity communities).
    /// The default `0.0` unions only zero-delay links.
    pub delay_threshold: f64,
    /// Desired number of clusters. Communities beyond this count are folded
    /// round-robin; `0` picks `⌈√hosts⌉` automatically, which balances the
    /// coarse problem (k clusters) against the refinement problems
    /// (~k hosts each).
    pub target_clusters: usize,
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        HierarchyConfig {
            delay_threshold: 0.0,
            target_clusters: 0,
        }
    }
}

/// A deterministic partition of a [`CompiledModel`]'s hosts into super-node
/// clusters, with aggregated cluster-pair link matrices.
///
/// Aggregation is optimistic: cross-cluster reliability/security/bandwidth
/// take the best link between the two clusters, delay the smallest — the
/// coarse model answers "how well could these clusters talk", and the
/// within-cluster refinement settles which concrete hosts do.
#[derive(Clone, PartialEq, Debug)]
pub struct Hierarchy {
    /// Cluster index per dense host index.
    cluster_of: Vec<u32>,
    /// Dense host indices per cluster, ascending within each cluster.
    clusters: Vec<Vec<u32>>,
    /// Aggregate memory capacity per cluster (Σ host memory).
    capacity: Vec<f64>,
    /// k×k best cross-link reliability (1.0 on the diagonal).
    reliability: Vec<f64>,
    /// k×k best cross-link security (1.0 on the diagonal).
    security: Vec<f64>,
    /// k×k least cross-link delay (0.0 on the diagonal, ∞ when unlinked).
    delay: Vec<f64>,
    /// k×k best cross-link bandwidth (∞ on the diagonal, 0.0 when unlinked).
    bandwidth: Vec<f64>,
    /// k×k cross-link existence (false on the diagonal, like host matrices).
    connected: Vec<bool>,
}

impl Hierarchy {
    /// Clusters the snapshot's hosts. Pure in `(model, config)`.
    pub fn build(model: &CompiledModel, config: &HierarchyConfig) -> Hierarchy {
        let n = model.n_hosts();
        if n == 0 {
            return Hierarchy {
                cluster_of: Vec::new(),
                clusters: Vec::new(),
                capacity: Vec::new(),
                reliability: Vec::new(),
                security: Vec::new(),
                delay: Vec::new(),
                bandwidth: Vec::new(),
                connected: Vec::new(),
            };
        }

        // Both passes below walk the physical links over the neighbor
        // index in `(a, b)` order, `b` ascending per `a`.
        let links = (0..n as u32).flat_map(|a| {
            model
                .neighbors(a)
                .iter()
                .filter(move |&&b| b > a)
                .map(move |&b| (a, b, model.delay(a, b)))
        });
        let units = delay_units(n, links, config.delay_threshold);

        // Fold units round-robin into the target cluster count.
        let target = if config.target_clusters == 0 {
            (n as f64).sqrt().ceil() as usize
        } else {
            config.target_clusters
        }
        .clamp(1, n);
        let k = units.len().min(target);
        let mut clusters: Vec<Vec<u32>> = vec![Vec::new(); k];
        for (i, unit) in units.into_iter().enumerate() {
            clusters[i % k].extend(unit);
        }
        for c in &mut clusters {
            c.sort_unstable();
        }
        let mut cluster_of = vec![0u32; n];
        for (ci, hosts) in clusters.iter().enumerate() {
            for &h in hosts {
                cluster_of[h as usize] = ci as u32;
            }
        }

        // Aggregated cluster-pair matrices, mirroring the host-matrix
        // conventions (reliability/security 1.0 on the diagonal, delay 0.0,
        // bandwidth ∞, connected false).
        let capacity: Vec<f64> = clusters
            .iter()
            .map(|hosts| hosts.iter().map(|&h| model.host_memory()[h as usize]).sum())
            .collect();
        let mut reliability = vec![0.0f64; k * k];
        let mut security = vec![0.0f64; k * k];
        let mut delay = vec![f64::INFINITY; k * k];
        let mut bandwidth = vec![0.0; k * k];
        let mut connected = vec![false; k * k];
        for i in 0..k {
            reliability[i * k + i] = 1.0;
            security[i * k + i] = 1.0;
            delay[i * k + i] = 0.0;
            bandwidth[i * k + i] = f64::INFINITY;
        }
        for a in 0..n as u32 {
            let ca = cluster_of[a as usize] as usize;
            for &b in model.neighbors(a) {
                let cb = cluster_of[b as usize] as usize;
                if ca == cb {
                    continue;
                }
                let cell = ca * k + cb;
                connected[cell] = true;
                reliability[cell] = reliability[cell].max(model.reliability(a, b));
                security[cell] = security[cell].max(model.security(a, b));
                delay[cell] = delay[cell].min(model.delay(a, b));
                bandwidth[cell] = bandwidth[cell].max(model.bandwidth(a, b));
            }
        }

        Hierarchy {
            cluster_of,
            clusters,
            capacity,
            reliability,
            security,
            delay,
            bandwidth,
            connected,
        }
    }

    /// Number of clusters.
    #[inline]
    pub fn n_clusters(&self) -> usize {
        self.clusters.len()
    }

    /// The cluster a dense host index belongs to.
    #[inline]
    pub fn cluster_of(&self, host: u32) -> u32 {
        self.cluster_of[host as usize]
    }

    /// Cluster index per dense host index.
    #[inline]
    pub fn cluster_map(&self) -> &[u32] {
        &self.cluster_of
    }

    /// The dense host indices of one cluster, ascending.
    #[inline]
    pub fn hosts(&self, cluster: u32) -> &[u32] {
        &self.clusters[cluster as usize]
    }

    /// Aggregate memory capacity per cluster.
    #[inline]
    pub fn capacities(&self) -> &[f64] {
        &self.capacity
    }

    /// The coarse super-node model: one pseudo-host per cluster carrying the
    /// aggregated matrices and capacity, with the original components and
    /// logical links. Pseudo-host ids are the cluster indices — meaningful
    /// only inside the coarse problem, never decoded back into a
    /// [`crate::Deployment`].
    pub fn coarse_model(&self, model: &CompiledModel) -> CompiledModel {
        let host_ids: Vec<HostId> = (0..self.clusters.len())
            .map(|i| HostId::new(i as u32))
            .collect();
        model.with_hosts(
            host_ids,
            self.reliability.clone(),
            self.security.clone(),
            self.delay.clone(),
            self.bandwidth.clone(),
            self.connected.clone(),
            self.capacity.clone(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{Generator, GeneratorConfig};
    use crate::model::DeploymentModel;

    fn compiled(hosts: usize, comps: usize, seed: u64) -> CompiledModel {
        let s = Generator::generate(&GeneratorConfig::sized(hosts, comps).with_seed(seed)).unwrap();
        CompiledModel::compile(&s.model)
    }

    #[test]
    fn every_host_lands_in_exactly_one_cluster() {
        let cm = compiled(20, 40, 1);
        let h = Hierarchy::build(&cm, &HierarchyConfig::default());
        assert!(h.n_clusters() >= 1);
        let mut seen = vec![false; cm.n_hosts()];
        for k in 0..h.n_clusters() as u32 {
            for &host in h.hosts(k) {
                assert!(!seen[host as usize], "host {host} in two clusters");
                seen[host as usize] = true;
                assert_eq!(h.cluster_of(host), k);
            }
        }
        assert!(seen.iter().all(|&s| s), "a host was dropped");
    }

    #[test]
    fn default_target_is_sqrt_of_hosts() {
        let cm = compiled(20, 10, 2);
        let h = Hierarchy::build(&cm, &HierarchyConfig::default());
        assert_eq!(h.n_clusters(), 5); // ⌈√20⌉
        let h3 = Hierarchy::build(
            &cm,
            &HierarchyConfig {
                target_clusters: 3,
                ..HierarchyConfig::default()
            },
        );
        assert_eq!(h3.n_clusters(), 3);
    }

    #[test]
    fn zero_delay_communities_stay_together() {
        // Two zero-delay pairs joined by a slow bridge: with the default
        // threshold the pairs must not be split across clusters.
        let mut m = DeploymentModel::new();
        let hs: Vec<_> = (0..4)
            .map(|i| m.add_host(format!("h{i}")).unwrap())
            .collect();
        m.set_physical_link(hs[0], hs[1], |l| l.set_delay(0.0))
            .unwrap();
        m.set_physical_link(hs[2], hs[3], |l| l.set_delay(0.0))
            .unwrap();
        m.set_physical_link(hs[1], hs[2], |l| l.set_delay(9.0))
            .unwrap();
        let cm = CompiledModel::compile(&m);
        let h = Hierarchy::build(&cm, &HierarchyConfig::default());
        assert_eq!(h.n_clusters(), 2);
        assert_eq!(h.cluster_of(0), h.cluster_of(1));
        assert_eq!(h.cluster_of(2), h.cluster_of(3));
        assert_ne!(h.cluster_of(0), h.cluster_of(2));
    }

    #[test]
    fn aggregates_take_the_best_cross_link() {
        let mut m = DeploymentModel::new();
        let hs: Vec<_> = (0..3)
            .map(|i| m.add_host(format!("h{i}")).unwrap())
            .collect();
        // h0 | h1,h2 — two links from h0 into the other cluster.
        m.set_physical_link(hs[0], hs[1], |l| {
            l.set_reliability(0.5);
            l.set_delay(4.0);
            l.set_bandwidth(10.0);
        })
        .unwrap();
        m.set_physical_link(hs[0], hs[2], |l| {
            l.set_reliability(0.9);
            l.set_delay(2.0);
            l.set_bandwidth(5.0);
        })
        .unwrap();
        m.set_physical_link(hs[1], hs[2], |l| l.set_delay(0.0))
            .unwrap();
        let cm = CompiledModel::compile(&m);
        let h = Hierarchy::build(
            &cm,
            &HierarchyConfig {
                target_clusters: 2,
                ..HierarchyConfig::default()
            },
        );
        assert_eq!(h.n_clusters(), 2);
        let coarse = h.coarse_model(&cm);
        let (a, b) = (h.cluster_of(0), h.cluster_of(1));
        assert_eq!(coarse.reliability(a, b), 0.9);
        assert_eq!(coarse.delay(a, b), 2.0);
        assert_eq!(coarse.bandwidth(a, b), 10.0);
        assert!(coarse.connected(a, b));
        assert_eq!(coarse.reliability(a, a), 1.0);
        assert_eq!(coarse.delay(a, a), 0.0);
    }

    #[test]
    fn coarse_model_preserves_components_and_capacity() {
        let cm = compiled(12, 30, 3);
        let h = Hierarchy::build(&cm, &HierarchyConfig::default());
        let coarse = h.coarse_model(&cm);
        assert_eq!(coarse.n_hosts(), h.n_clusters());
        assert_eq!(coarse.n_comps(), cm.n_comps());
        assert_eq!(coarse.links().len(), cm.links().len());
        assert_eq!(coarse.total_weight(), cm.total_weight());
        for k in 0..h.n_clusters() {
            let sum: f64 = h
                .hosts(k as u32)
                .iter()
                .map(|&x| cm.host_memory()[x as usize])
                .sum();
            assert_eq!(coarse.host_memory()[k], sum);
            assert_eq!(h.capacities()[k], sum);
        }
    }

    #[test]
    fn delay_units_are_ordered_by_smallest_member_whatever_the_link_order() {
        let links = [(4, 1, 0.0), (3, 0, 0.5), (2, 4, 0.0), (5, 3, 0.2)];
        let expected = vec![vec![0], vec![1, 2, 4], vec![3, 5]];
        assert_eq!(delay_units(6, links, 0.2), expected);
        assert_eq!(delay_units(6, links.into_iter().rev(), 0.2), expected);
        assert_eq!(delay_units(3, [], 0.0), vec![vec![0], vec![1], vec![2]]);
    }

    /// [`Hierarchy::build`] as two n² scans over `connected`, the oracle
    /// for its neighbor walk.
    fn build_by_scan(model: &CompiledModel, config: &HierarchyConfig) -> Hierarchy {
        let n = model.n_hosts() as u32;
        let links = (0..n).flat_map(|a| {
            (a + 1..n)
                .filter(move |&b| model.connected(a, b))
                .map(move |b| (a, b, model.delay(a, b)))
        });
        let units = delay_units(n as usize, links, config.delay_threshold);
        let target = match config.target_clusters {
            0 => (n as f64).sqrt().ceil() as usize,
            t => t,
        };
        let k = units.len().min(target.clamp(1, n as usize));
        let mut clusters = vec![Vec::new(); k];
        for (i, unit) in units.into_iter().enumerate() {
            clusters[i % k].extend(unit);
        }
        clusters.iter_mut().for_each(|c| c.sort_unstable());
        let mut cluster_of = vec![0u32; n as usize];
        for (ci, hosts) in clusters.iter().enumerate() {
            hosts
                .iter()
                .for_each(|&h| cluster_of[h as usize] = ci as u32);
        }
        let capacity = clusters
            .iter()
            .map(|hosts| hosts.iter().map(|&h| model.host_memory()[h as usize]).sum())
            .collect();
        let diagonal = |on: f64, off: f64| -> Vec<f64> {
            (0..k * k)
                .map(|i| if i % (k + 1) == 0 { on } else { off })
                .collect()
        };
        let mut h = Hierarchy {
            cluster_of,
            clusters,
            capacity,
            reliability: diagonal(1.0, 0.0),
            security: diagonal(1.0, 0.0),
            delay: diagonal(0.0, f64::INFINITY),
            bandwidth: diagonal(f64::INFINITY, 0.0),
            connected: vec![false; k * k],
        };
        for a in 0..n {
            for b in 0..n {
                let (ca, cb) = (h.cluster_of(a) as usize, h.cluster_of(b) as usize);
                if ca == cb || !model.connected(a, b) {
                    continue;
                }
                let cell = ca * k + cb;
                h.connected[cell] = true;
                h.reliability[cell] = h.reliability[cell].max(model.reliability(a, b));
                h.security[cell] = h.security[cell].max(model.security(a, b));
                h.delay[cell] = h.delay[cell].min(model.delay(a, b));
                h.bandwidth[cell] = h.bandwidth[cell].max(model.bandwidth(a, b));
            }
        }
        h
    }

    /// The bits of a float matrix, so equality is bitwise.
    fn bits(matrix: &[f64]) -> Vec<u64> {
        matrix.iter().map(|x| x.to_bits()).collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        #[test]
        fn build_equals_the_n2_scan(
            seed in proptest::prelude::any::<u64>(),
            hosts in 1usize..24,
            density in 0.0f64..=1.0,
            zero_delay in proptest::prelude::any::<u64>(),
            threshold in 0u8..3,
            target in 0usize..7,
        ) {
            let mut config = GeneratorConfig::sized(hosts, 4).with_seed(seed);
            config.physical_density = density;
            let mut m = Generator::generate(&config).unwrap().model;
            // Zero the delay of the links the bits of `zero_delay` pick.
            let links: Vec<_> = m.physical_links().map(|l| l.ends()).collect();
            for (i, ends) in links.into_iter().enumerate() {
                if zero_delay >> (i % 64) & 1 == 1 {
                    m.set_physical_link(ends.lo(), ends.hi(), |l| l.set_delay(0.0))
                        .unwrap();
                }
            }
            let cm = CompiledModel::compile(&m);
            let config = HierarchyConfig {
                delay_threshold: [0.0, 0.5, 5.0][threshold as usize],
                target_clusters: target,
            };
            let (got, want) = (Hierarchy::build(&cm, &config), build_by_scan(&cm, &config));
            proptest::prop_assert_eq!(&got.cluster_of, &want.cluster_of);
            proptest::prop_assert_eq!(&got.clusters, &want.clusters);
            proptest::prop_assert_eq!(bits(&got.capacity), bits(&want.capacity));
            proptest::prop_assert_eq!(bits(&got.reliability), bits(&want.reliability));
            proptest::prop_assert_eq!(bits(&got.security), bits(&want.security));
            proptest::prop_assert_eq!(bits(&got.delay), bits(&want.delay));
            proptest::prop_assert_eq!(bits(&got.bandwidth), bits(&want.bandwidth));
            proptest::prop_assert_eq!(&got.connected, &want.connected);
        }
    }

    #[test]
    fn build_is_deterministic() {
        let cm = compiled(16, 8, 4);
        let a = Hierarchy::build(&cm, &HierarchyConfig::default());
        let b = Hierarchy::build(&cm, &HierarchyConfig::default());
        assert_eq!(a, b);
    }

    #[test]
    fn the_snapshots_memo_is_a_default_build() {
        for (hosts, seed) in [(1, 1), (12, 2), (40, 3)] {
            let cm = compiled(hosts, 8, seed);
            let fresh = Hierarchy::build(&cm, &HierarchyConfig::default());
            assert_eq!(cm.hierarchy(), &fresh);
            // Built once: the second call returns the same clustering.
            assert!(std::ptr::eq(cm.hierarchy(), cm.hierarchy()));
            // The memo is derived data, outside the snapshot's equality.
            assert_eq!(cm, compiled(hosts, 8, seed));
        }
    }

    /// The pricing kernel reads the coarse reliability, security, delay,
    /// bandwidth and link matrices by the candidate's row, which needs
    /// each to be bit-symmetric.
    #[test]
    fn coarse_link_matrices_are_bit_symmetric() {
        for seed in 0..8 {
            let cm = compiled(60, 8, seed);
            let h = Hierarchy::build(&cm, &HierarchyConfig::default());
            let k = h.n_clusters();
            for (a, b) in (0..k).flat_map(|a| (0..k).map(move |b| (a, b))) {
                let (ab, ba) = (a * k + b, b * k + a);
                for matrix in [&h.reliability, &h.security, &h.delay, &h.bandwidth] {
                    assert_eq!(matrix[ab].to_bits(), matrix[ba].to_bits(), "seed {seed}");
                }
                assert_eq!(h.connected[ab], h.connected[ba]);
            }
        }
    }
}
