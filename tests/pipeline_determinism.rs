//! Regression gate for the runtime fast path: the interned-symbol router,
//! the binary wire codec, and the calendar-queue scheduler must not perturb
//! determinism. Two identical runs of a full centralized
//! monitor→analyze→effect cycle must export byte-identical journals, and
//! the journal must never leak interner state (symbol ids) — only names.
//! The same holds for the hosts' *durable* journals with monitoring reports
//! flowing (a report is built from symbol-keyed monitor slots and a hash
//! index; neither's order may reach its bytes).

use redep::framework::{AnalyzerConfig, CentralizedFramework, RuntimeConfig, SystemRuntime};
use redep::model::{Availability, Generator, GeneratorConfig};
use redep::netsim::Duration;
use redep::telemetry::Telemetry;

/// One full centralized run: build, install telemetry, advance with
/// interleaved framework cycles, export the journal.
fn centralized_journal(seed: u64) -> String {
    let system = Generator::generate(&GeneratorConfig::sized(4, 12).with_seed(13)).unwrap();
    let runtime_config = RuntimeConfig {
        seed,
        ..RuntimeConfig::default()
    };
    let mut fw = CentralizedFramework::new(
        system.model.clone(),
        system.initial.clone(),
        &runtime_config,
        AnalyzerConfig::default(),
    )
    .unwrap();
    fw.set_telemetry(Telemetry::default());
    for _ in 0..3 {
        fw.advance(Duration::from_secs_f64(5.0));
        fw.cycle(&Availability, Duration::ZERO, Duration::from_secs_f64(20.0))
            .unwrap();
    }
    fw.runtime().telemetry().export_jsonl()
}

#[test]
fn two_identical_centralized_runs_export_byte_identical_journals() {
    let a = centralized_journal(5);
    assert!(!a.is_empty(), "the run recorded nothing");
    let b = centralized_journal(5);
    assert_eq!(a, b, "same seed + same system must replay byte-identically");
    // Different seeds genuinely change the run (the equality above is not
    // comparing two empty or degenerate journals).
    let c = centralized_journal(6);
    assert_ne!(a, c, "seed is not reaching the simulation");
}

/// Every host's durable store after 12 simulated seconds of a generated
/// 8×32 system, and how many monitoring reports the master journaled.
fn steady_durable_stores(seed: u64) -> (Vec<Vec<u8>>, u64) {
    let system = Generator::generate(&GeneratorConfig::sized(8, 32).with_seed(13)).unwrap();
    let runtime_config = RuntimeConfig {
        seed,
        ..RuntimeConfig::default()
    };
    let mut rt = SystemRuntime::build(&system.model, &system.initial, &runtime_config).unwrap();
    rt.run_for(Duration::from_secs_f64(12.0));
    let master = rt.host(rt.master().unwrap()).unwrap();
    let mut kinds = master.services().durable().stats_by_kind();
    let reports = kinds.find(|k| k.0 == "report_received").unwrap().1;
    let stores = rt
        .hosts()
        .iter()
        .map(|&h| rt.host(h).unwrap().durable_digest());
    (stores.collect(), reports)
}

#[test]
fn two_identical_steady_runs_leave_byte_identical_durable_stores() {
    let (a, reports) = steady_durable_stores(5);
    assert!(reports >= 8, "only {reports} reports reached the master");
    let (b, _) = steady_durable_stores(5);
    assert_eq!(
        a, b,
        "same seed + same system must journal byte-identically"
    );
    let (c, _) = steady_durable_stores(6);
    assert_ne!(a, c, "seed is not reaching the simulation");
}
