//! Pins both frameworks' journals across commits: a refactor of the cycle
//! (monitor, analyze, effect, settle, recover) must leave every byte of the
//! journal and of every host's durable store where it was. The double-run
//! tests compare a commit with itself; these compare it with the recorded
//! values.
//!
//! Each run crashes a non-master host and partitions the network across an
//! effect window, so the shared cycle tail journals all three of its
//! `core.recovery` modes between the two runs: `crash-replay` (the restarted
//! host's durable replay, drained at the next cycle), `reconcile` (moves
//! that do not land within their attempts) and `drift` (a move of a
//! reconciled epoch that lands during a later cycle).

use redep::framework::{
    AnalyzerConfig, CentralizedFramework, DecentralizedFramework, RecoveryPolicy, RuntimeConfig,
    SystemRuntime,
};
use redep::model::{Availability, Generator, GeneratorConfig};
use redep::netsim::{Duration, FaultKind, FaultPlan};
use redep::telemetry::Telemetry;

/// FNV-1a, 64 bit.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// What a run leaves behind: its journal and every host's durable store,
/// whose two streams are hashed apart — the checkpoints' encoding can
/// change while the write-ahead journals stay byte for byte.
struct Pinned {
    journal: String,
    journal_hash: u64,
    /// Every host's checkpoint stream, in host order.
    checkpoint_hash: u64,
    /// Every host's write-ahead journal stream, in host order.
    wal_hash: u64,
}

fn pin(rt: &SystemRuntime) -> Pinned {
    let telemetry = rt.telemetry();
    assert_eq!(telemetry.journal().dropped(), 0, "the journal overflowed");
    let journal = telemetry.export_jsonl();
    let stores = || {
        rt.hosts()
            .iter()
            .map(|&h| rt.host(h).unwrap().services().durable())
    };
    Pinned {
        journal_hash: fnv1a(journal.bytes()),
        checkpoint_hash: fnv1a(stores().flat_map(|d| d.checkpoint_bytes().unwrap_or_default())),
        wal_hash: fnv1a(stores().flat_map(|d| d.journal_bytes())),
        journal,
    }
}

/// The fault plan both runs share: host 1 (never the master) crashes, then
/// the network splits in half across the next cycles' effect windows.
fn plan(hosts: &[redep::model::HostId]) -> FaultPlan {
    let half = hosts.len() / 2;
    FaultPlan::new()
        .episode(7.0, 3.0, FaultKind::HostCrash { host: hosts[1] })
        .episode(
            16.0,
            24.0,
            FaultKind::Partition {
                groups: vec![hosts[..half].to_vec(), hosts[half..].to_vec()],
            },
        )
}

const CYCLES: usize = 6;

fn system() -> redep::model::GeneratedSystem {
    Generator::generate(&GeneratorConfig::sized(4, 12).with_seed(7)).unwrap()
}

fn config() -> RuntimeConfig {
    RuntimeConfig {
        seed: 1,
        ..RuntimeConfig::default()
    }
}

fn centralized_run() -> Pinned {
    let s = system();
    let plan = plan(&s.model.host_ids());
    let mut fw =
        CentralizedFramework::new(s.model, s.initial, &config(), AnalyzerConfig::default())
            .unwrap();
    fw.set_recovery_policy(RecoveryPolicy::reconcile(2));
    fw.set_telemetry(Telemetry::new(1 << 20));
    fw.runtime_mut().sim_mut().install_fault_plan(&plan);
    for _ in 0..CYCLES {
        fw.cycle(
            &Availability,
            Duration::from_secs_f64(5.0),
            Duration::from_secs_f64(4.0),
        )
        .unwrap();
    }
    pin(fw.runtime())
}

fn decentralized_run() -> Pinned {
    let s = system();
    let plan = plan(&s.model.host_ids());
    let mut fw = DecentralizedFramework::new(s.model, s.initial, &config()).unwrap();
    fw.set_recovery_policy(RecoveryPolicy::reconcile(2));
    fw.runtime_mut().set_telemetry(Telemetry::new(1 << 20));
    fw.runtime_mut().sim_mut().install_fault_plan(&plan);
    for _ in 0..CYCLES {
        fw.cycle(
            &Availability,
            Duration::from_secs_f64(5.0),
            Duration::from_secs_f64(4.0),
        )
        .unwrap();
    }
    pin(fw.runtime())
}

fn modes(journal: &str) -> Vec<&'static str> {
    ["crash-replay", "reconcile", "drift"]
        .into_iter()
        .filter(|mode| journal.contains(&format!("\"mode\":\"{mode}\"")))
        .collect()
}

#[test]
fn framework_journals_are_pinned() {
    let centralized = centralized_run();
    let decentralized = decentralized_run();
    // The centralized run reaches all three modes; the decentralized one
    // replays the crash and reconciles moves that did not land.
    assert_eq!(
        modes(&centralized.journal),
        ["crash-replay", "reconcile", "drift"]
    );
    assert_eq!(modes(&decentralized.journal), ["crash-replay", "reconcile"]);
    let hashes = |p: &Pinned| (p.journal_hash, p.wal_hash, p.checkpoint_hash);
    assert_eq!(
        hashes(&centralized),
        (
            0x008c_9bce_7fd6_9a40,
            0xcdb1_a716_7223_b591,
            0xa4bf_ce81_f19f_82d5
        ),
        "centralized journal, write-ahead journals or checkpoints moved"
    );
    assert_eq!(
        hashes(&decentralized),
        (
            0x89c6_520e_65cc_2805,
            0xe94d_ace3_6389_3808,
            0x69da_617a_b818_7a87
        ),
        "decentralized journal, write-ahead journals or checkpoints moved"
    );
}
