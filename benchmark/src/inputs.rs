//! Workload inputs. Everything the program under test sees is generated
//! here from the `--seed` argument; the same seed gives the same inputs.

use redep_model::{DeploymentModel, GeneratorConfig, HostId, Range};
use redep_netsim::{FaultKind, FaultPlan};

/// Independent generated systems per run. Each repetition sets up afresh
/// (so `setup_s` is a median over several set-ups) on its *own* system (so a
/// run averages over systems, which is what keeps the metrics steady from
/// one seed to the next).
pub const REPS: usize = 3;

/// The generator seed of repetition `rep` under workload seed `seed`:
/// distinct for every (seed, rep) pair the benchmark uses.
pub fn rep_seed(seed: u64, rep: usize) -> u64 {
    seed.wrapping_mul(16).wrapping_add(rep as u64)
}

/// Threads the harness lets the program use: `min(2, nproc)`.
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// Default densities (physical 0.8, logical 0.4): the E6 pipeline systems.
pub fn dense(hosts: usize, comps: usize, seed: u64) -> GeneratorConfig {
    GeneratorConfig::sized(hosts, comps).with_seed(seed)
}

/// The E3d rule of `exp_e3_scaling`, restated so that later edits there
/// cannot change the benchmark: both densities capped at an expected degree
/// of 16, and host memory scaled with components per host so packing stays
/// feasible.
pub fn sparse(hosts: usize, comps: usize, seed: u64) -> GeneratorConfig {
    let mut cfg = GeneratorConfig::sized(hosts, comps).with_seed(seed);
    cfg.physical_density = cfg.physical_density.min(16.0 / hosts as f64);
    cfg.logical_density = cfg.logical_density.min(16.0 / comps as f64);
    let ratio = comps as f64 / hosts.max(1) as f64;
    if ratio > 3.0 {
        let f = ratio / 3.0;
        cfg.host_memory = Range::new(80.0 * f, 120.0 * f);
    }
    cfg
}

/// Simulated second at which the last scripted fault clears.
pub const FAULTS_CLEAR_AT: f64 = 60.0;

/// The `fault-recover` script: crash host[1] @20 s for 10 s, partition the
/// halves @35/10, degrade one non-master link @50/10 overlapped by a crash
/// of host[2] @52/8. Round-tripped through JSON, the path a checked-in
/// campaign file would take.
///
/// # Panics
///
/// Panics on a model with fewer than four hosts or no link.
pub fn fault_plan(model: &DeploymentModel) -> FaultPlan {
    let hosts = model.host_ids();
    assert!(hosts.len() >= 4, "the fault script needs four hosts");
    let links = || {
        hosts
            .iter()
            .flat_map(|&a| model.neighbors(a).into_iter().map(move |b| (a, b)))
            .filter(|&(a, b)| a.raw() < b.raw())
    };
    let master = hosts[0];
    let (a, b): (HostId, HostId) = links()
        .find(|&(a, b)| a != master && b != master)
        .or_else(|| links().next())
        .expect("generated models are connected");
    let half = hosts.len() / 2;
    let plan = FaultPlan::new()
        .episode(20.0, 10.0, FaultKind::HostCrash { host: hosts[1] })
        .episode(
            35.0,
            10.0,
            FaultKind::Partition {
                groups: vec![hosts[..half].to_vec(), hosts[half..].to_vec()],
            },
        )
        .episode(
            50.0,
            10.0,
            FaultKind::LinkDegrade {
                a,
                b,
                reliability_factor: 0.3,
                bandwidth_factor: 0.5,
            },
        )
        .episode(52.0, 8.0, FaultKind::HostCrash { host: hosts[2] });
    FaultPlan::from_json(&plan.to_json()).expect("fault plans round-trip through JSON")
}

#[cfg(test)]
mod tests {
    use super::*;
    use redep_model::Generator;

    #[test]
    fn rep_seeds_never_collide_across_neighbouring_seeds() {
        let mut seen = std::collections::BTreeSet::new();
        for seed in 0..16 {
            for rep in 0..REPS {
                assert!(seen.insert(rep_seed(seed, rep)));
            }
        }
    }

    #[test]
    fn sparse_caps_degree_and_scales_memory() {
        let cfg = sparse(200, 2000, 5);
        assert!((cfg.physical_density - 0.08).abs() < 1e-12);
        assert!((cfg.logical_density - 0.008).abs() < 1e-12);
        assert!(cfg.host_memory.lo > 80.0 * 3.0);
        // Small systems keep the generator defaults.
        let small = sparse(8, 24, 1);
        assert_eq!(small.physical_density, 0.8);
        assert_eq!(small.host_memory, GeneratorConfig::default().host_memory);
    }

    #[test]
    fn fault_plan_is_seed_stable_and_ends_on_schedule() {
        let system = Generator::generate(&sparse(8, 32, 3)).unwrap();
        let plan = fault_plan(&system.model);
        assert_eq!(plan, fault_plan(&system.model));
        let last = plan
            .expand()
            .iter()
            .map(|(t, _)| t.as_secs_f64())
            .fold(0.0, f64::max);
        assert_eq!(last, FAULTS_CLEAR_AT);
    }
}
