//! Fault campaign: the faults the paper is about, injected on purpose.
//!
//! Runs a fault-class × algorithm matrix — host crash, partition, link
//! degradation, link flapping, each against centralized frameworks pinned to
//! one algorithm and against the decentralized (DecAp) instantiation — and
//! measures, per cell:
//!
//! * the **baseline** windowed availability before the fault,
//! * the **dip** (worst window at/after fault onset),
//! * the **recovery time** from fault clearance back to ≥90 % of baseline,
//! * model/runtime **consistency**: no cycle may end with the framework's
//!   model disagreeing with where components actually run.
//!
//! Every fault plan is round-tripped through JSON before installation
//! (proving serde-loadability), and one cell is executed twice to assert the
//! run journal is byte-identical — same seed + same plan ⇒ same run.
//!
//! `--quick` shrinks the matrix and horizons (the CI smoke configuration);
//! `--json` writes `BENCH_faults.json` in the shared `ExpReport` schema.

use redep_bench::{fmt_f, print_table, Bound, ExpReport};
use redep_core::{
    AnalyzerConfig, CentralizedFramework, DecentralizedFramework, RecoveryPolicy, RuntimeConfig,
    SystemRuntime,
};
use redep_model::{Availability, DeploymentModel, Generator, GeneratorConfig};
use redep_netsim::{Duration, FaultKind, FaultPlan};
use redep_telemetry::Telemetry;

const FAULT_CLASSES: [&str; 4] = ["crash", "partition", "degrade", "flap"];

/// Measured outcome of one campaign cell.
struct CellOutcome {
    baseline: f64,
    dip: f64,
    recovery_secs: f64,
    final_availability: f64,
    /// The cell has recovered when its final availability is back to this
    /// share of its baseline (the final windows all come after the fault
    /// ends, so one of them has then reached it too).
    recovery_threshold: f64,
    consistency_violations: u64,
    journal: String,
    /// Every windowed availability sample, for percentile reporting.
    availability_samples: Vec<f64>,
    /// Journal-overflow count — non-zero means traces are incomplete.
    journal_dropped: u64,
    /// Structural trace-invariant violations found in the cell's journal.
    trace_violations: Vec<String>,
    /// Crash recoveries performed (durable checkpoint + journal replays).
    recovery_reports: usize,
    /// Total per-operation verdicts those recoveries handed out.
    recovery_verdicts: usize,
    /// 1.0 iff every recovery's rebuilt state matched the pre-crash state.
    recovery_state_equiv: f64,
    /// Concatenated durable-store digests of every host (determinism probe).
    durable_digest: Vec<u8>,
}

/// Campaign horizons (simulated seconds).
#[derive(Clone, Copy)]
struct Horizons {
    fault_start: f64,
    fault_duration: f64,
    total: f64,
    effect_wait: Duration,
}

impl Horizons {
    fn new(quick: bool) -> Self {
        Horizons {
            fault_start: 10.0,
            fault_duration: if quick { 8.0 } else { 10.0 },
            total: if quick { 40.0 } else { 60.0 },
            effect_wait: Duration::from_secs_f64(if quick { 20.0 } else { 30.0 }),
        }
    }
    fn fault_end(&self) -> f64 {
        self.fault_start + self.fault_duration
    }
}

/// Builds the fault plan of one class against the generated topology, then
/// round-trips it through JSON — the same path a checked-in campaign file
/// would take.
fn fault_plan(class: &str, model: &DeploymentModel, h: Horizons) -> FaultPlan {
    let hosts = model.host_ids();
    // Crash a non-master host (the master at index 0 runs the deployer);
    // degrade/flap the first physical link that does not touch the master,
    // falling back to any link.
    let victim = hosts[1 % hosts.len()];
    let link = hosts
        .iter()
        .flat_map(|&a| model.neighbors(a).into_iter().map(move |b| (a, b)))
        .find(|&(a, b)| a.raw() < b.raw() && a != hosts[0] && b != hosts[0])
        .or_else(|| {
            hosts
                .iter()
                .flat_map(|&a| model.neighbors(a).into_iter().map(move |b| (a, b)))
                .find(|&(a, b)| a.raw() < b.raw())
        })
        .expect("generated models are connected");
    let half = hosts.len() / 2;
    let kind = match class {
        "crash" => FaultKind::HostCrash { host: victim },
        "partition" => FaultKind::Partition {
            groups: vec![hosts[..half].to_vec(), hosts[half..].to_vec()],
        },
        "degrade" => FaultKind::LinkDegrade {
            a: link.0,
            b: link.1,
            reliability_factor: 0.3,
            bandwidth_factor: 0.5,
        },
        "flap" => FaultKind::LinkFlap {
            a: link.0,
            b: link.1,
            period_secs: 2.0,
        },
        other => panic!("unknown fault class {other}"),
    };
    let plan = FaultPlan::new().episode(h.fault_start, h.fault_duration, kind);
    FaultPlan::from_json(&plan.to_json()).expect("fault plans round-trip through JSON")
}

/// Either framework instantiation, driven through one uniform loop.
enum Framework {
    Centralized(Box<CentralizedFramework>),
    Decentralized(Box<DecentralizedFramework>),
}

impl Framework {
    fn runtime(&self) -> &SystemRuntime {
        match self {
            Framework::Centralized(fw) => fw.runtime(),
            Framework::Decentralized(fw) => fw.runtime(),
        }
    }

    fn advance(&mut self, span: Duration) {
        match self {
            Framework::Centralized(fw) => fw.advance(span),
            Framework::Decentralized(fw) => fw.advance(span),
        }
    }

    fn cycle(&mut self, effect_wait: Duration) -> Result<(), Box<dyn std::error::Error>> {
        // Monitoring accumulated during `advance`; the cycle itself only
        // pulls, analyzes, and effects.
        match self {
            Framework::Centralized(fw) => {
                fw.cycle(&Availability, Duration::ZERO, effect_wait)?;
            }
            Framework::Decentralized(fw) => {
                fw.cycle(&Availability, Duration::ZERO, effect_wait)?;
            }
        }
        Ok(())
    }

    fn model_matches_actual(&self) -> bool {
        let actual = self.runtime().actual_deployment_by_id();
        match self {
            Framework::Centralized(fw) => fw.desi().system().deployment() == &actual,
            Framework::Decentralized(fw) => fw.system().deployment() == &actual,
        }
    }

    fn journal(&self) -> String {
        self.runtime().telemetry().export_jsonl()
    }
}

fn totals(rt: &SystemRuntime) -> (u64, u64) {
    let mut emitted = 0;
    let mut received = 0;
    for &h in rt.hosts() {
        if let Some(host) = rt.host(h) {
            let stats = host.services().stats();
            emitted += stats.app_events_emitted;
            received += stats.app_events_received;
        }
    }
    (emitted, received)
}

/// Runs one cell: build the framework, install the (JSON round-tripped)
/// plan, drive it in one-second windows with a framework cycle every five,
/// and score availability baseline/dip/recovery plus model consistency.
fn run_cell(
    class: &str,
    algo: &str,
    quick: bool,
) -> Result<CellOutcome, Box<dyn std::error::Error>> {
    let h = Horizons::new(quick);
    let system = Generator::generate(&GeneratorConfig::sized(4, 12).with_seed(7))?;
    let runtime_config = RuntimeConfig {
        seed: 1,
        ..RuntimeConfig::default()
    };
    let plan = fault_plan(class, &system.model, h);

    let mut fw = if algo == "decap" {
        let mut fw = DecentralizedFramework::new(
            system.model.clone(),
            system.initial.clone(),
            &runtime_config,
        )?;
        fw.set_recovery_policy(RecoveryPolicy::reconcile(2));
        fw.runtime_mut().set_telemetry(Telemetry::default());
        fw.runtime_mut().sim_mut().install_fault_plan(&plan);
        Framework::Decentralized(Box::new(fw))
    } else {
        let analyzer_config = AnalyzerConfig {
            algorithm_override: Some(algo.to_owned()),
            ..AnalyzerConfig::default()
        };
        let mut fw = CentralizedFramework::new(
            system.model.clone(),
            system.initial.clone(),
            &runtime_config,
            analyzer_config,
        )?;
        fw.set_recovery_policy(RecoveryPolicy::reconcile(2));
        fw.set_telemetry(Telemetry::default());
        fw.runtime_mut().sim_mut().install_fault_plan(&plan);
        Framework::Centralized(Box::new(fw))
    };

    let window = Duration::from_secs_f64(1.0);
    let mut samples: Vec<(f64, f64)> = Vec::new();
    let mut last = totals(fw.runtime());
    let mut consistency_violations = 0;
    let mut windows = 0u64;
    let sample = |fw: &Framework, last: &mut (u64, u64), samples: &mut Vec<(f64, f64)>| {
        let (emitted, received) = totals(fw.runtime());
        let (d_emitted, d_received) = (emitted - last.0, received - last.1);
        *last = (emitted, received);
        let availability = if d_emitted == 0 {
            1.0
        } else {
            d_received as f64 / d_emitted as f64
        };
        samples.push((fw.runtime().sim().now().as_secs_f64(), availability));
    };
    while fw.runtime().sim().now().as_secs_f64() < h.total {
        fw.advance(window);
        sample(&fw, &mut last, &mut samples);
        windows += 1;
        if windows.is_multiple_of(5) {
            fw.cycle(h.effect_wait)?;
            sample(&fw, &mut last, &mut samples);
            if !fw.model_matches_actual() {
                consistency_violations += 1;
            }
        }
    }

    let baseline_window: Vec<f64> = samples
        .iter()
        .filter(|(t, _)| *t > 3.0 && *t <= h.fault_start)
        .map(|(_, a)| *a)
        .collect();
    let baseline = baseline_window.iter().sum::<f64>() / baseline_window.len().max(1) as f64;
    let dip = samples
        .iter()
        .filter(|(t, _)| *t > h.fault_start)
        .map(|(_, a)| *a)
        .fold(f64::INFINITY, f64::min);
    let recovery_threshold = 0.9 * baseline;
    let recovery_secs = samples
        .iter()
        .find(|(t, a)| *t >= h.fault_end() && *a >= recovery_threshold)
        .map(|(t, _)| t - h.fault_end());
    let tail: Vec<f64> = samples.iter().rev().take(3).map(|(_, a)| *a).collect();
    let final_availability = tail.iter().sum::<f64>() / tail.len().max(1) as f64;

    // Reconstruct span trees from the journal and run the structural trace
    // invariants: every child span has a live parent, every opened move
    // settles, no traced cycle ends with the model diverging from the actual.
    let journal = fw.journal();
    let events = redep_telemetry::trace::parse_jsonl(&journal)
        .map_err(|e| format!("{class}/{algo}: journal does not parse: {e}"))?;
    let trace_violations = redep_telemetry::trace::check_journal(&events);
    let journal_dropped = fw.runtime().telemetry().journal().dropped();

    // Durable-recovery outcome: every restarted host left a report with an
    // explicit verdict per in-flight operation and a state-equivalence
    // self-check; the concatenated store digests feed the determinism probe.
    let rt = fw.runtime();
    let mut recovery_reports = 0usize;
    let mut recovery_verdicts = 0usize;
    let mut recovery_state_equiv = 1.0f64;
    let mut durable_digest = Vec::new();
    for &hid in rt.hosts() {
        if let Some(host) = rt.host(hid) {
            for r in host.recovery_reports() {
                recovery_reports += 1;
                recovery_verdicts += r.verdicts.len();
                if !r.state_equiv {
                    recovery_state_equiv = 0.0;
                }
            }
            durable_digest.extend(host.durable_digest());
        }
    }

    Ok(CellOutcome {
        baseline,
        dip,
        recovery_secs: recovery_secs.unwrap_or(h.total - h.fault_end()),
        final_availability,
        recovery_threshold,
        consistency_violations,
        journal,
        availability_samples: samples.iter().map(|&(_, a)| a).collect(),
        journal_dropped,
        trace_violations,
        recovery_reports,
        recovery_verdicts,
        recovery_state_equiv,
        durable_digest,
    })
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    // `--journal <dir>`: write each cell's run journal to
    // `<dir>/<fault>_<algo>.jsonl` for offline analysis with `redep-trace`.
    let journal_dir = args
        .iter()
        .position(|a| a == "--journal")
        .map(|i| {
            args.get(i + 1)
                .cloned()
                .ok_or("--journal requires a directory argument")
        })
        .transpose()?;
    if let Some(dir) = &journal_dir {
        std::fs::create_dir_all(dir)?;
    }
    let algorithms: &[&str] = if quick {
        &["stochastic", "decap"]
    } else {
        &["stochastic", "avala", "decap"]
    };

    let mut report = ExpReport::new(
        "faults",
        "Fault campaign: availability dip and recovery per fault class × algorithm",
    );
    report.note(if quick {
        "quick mode: 40 s horizon, 8 s faults, stochastic + decap"
    } else {
        "full mode: 60 s horizon, 10 s faults, stochastic + avala + decap"
    });

    let mut rows = Vec::new();
    let mut total_violations = 0;
    let mut total_trace_violations = 0usize;
    for class in FAULT_CLASSES {
        for &algo in algorithms {
            let cell = run_cell(class, algo, quick)?;
            total_violations += cell.consistency_violations;
            for violation in &cell.trace_violations {
                eprintln!("trace invariant [{class}.{algo}]: {violation}");
            }
            total_trace_violations += cell.trace_violations.len();
            report.add_journal_dropped(cell.journal_dropped);
            let key = format!("{class}.{algo}");
            report.metric(format!("{key}.baseline"), cell.baseline);
            report.metric(format!("{key}.dip"), cell.dip);
            report.metric(format!("{key}.recovery_secs"), cell.recovery_secs);
            let recovered = Bound::AtLeast(cell.recovery_threshold);
            report.gate(format!("{key}.final"), cell.final_availability, recovered);
            if algo == "decap" && !quick {
                // The partial-view starvation fix the hierarchical auctions
                // exist for: DecAp ends every fault class at ≥ 0.90.
                report.gate(
                    format!("{key}.final"),
                    cell.final_availability,
                    Bound::AtLeast(0.90),
                );
            }
            let recover = [
                ("reports", cell.recovery_reports as f64),
                ("verdicts", cell.recovery_verdicts as f64),
                ("state_equiv", cell.recovery_state_equiv),
            ];
            for (name, value) in recover {
                let name = format!("{key}.recover.{name}");
                if class == "crash" {
                    // The crash cell must actually exercise durable recovery:
                    // the victim restarts, replays its store, self-checks
                    // state equivalence, and hands out at least one verdict.
                    report.gate(name, value, Bound::AtLeast(1.0));
                } else {
                    report.metric(name, value);
                }
            }
            report.percentiles_of(format!("{key}.availability"), &cell.availability_samples);
            if let Some(dir) = &journal_dir {
                std::fs::write(format!("{dir}/{class}_{algo}.jsonl"), &cell.journal)?;
            }
            rows.push(vec![
                class.to_owned(),
                algo.to_owned(),
                fmt_f(cell.baseline),
                fmt_f(cell.dip),
                format!("{:.1}", cell.recovery_secs),
                fmt_f(cell.final_availability),
                if recovered.holds(cell.final_availability) {
                    "yes"
                } else {
                    "NO"
                }
                .to_owned(),
            ]);
        }
    }
    print_table(
        "Fault campaign: windowed availability around injected faults",
        &[
            "fault",
            "algorithm",
            "baseline",
            "dip",
            "recovery (s)",
            "final",
            "recovered",
        ],
        &rows,
    );

    // Determinism: the same seed and the same plan must produce the same
    // run, byte for byte, in the machine-readable journal — and leave
    // byte-identical durable stores (checkpoints + write-ahead journals) on
    // every host, crash recovery included.
    let a = run_cell("crash", algorithms[0], quick)?;
    let b = run_cell("crash", algorithms[0], quick)?;
    let deterministic = a.journal == b.journal
        && !a.journal.is_empty()
        && a.durable_digest == b.durable_digest
        && !a.durable_digest.is_empty();
    println!(
        "\ndeterminism: two identical crash runs -> journals {} ({} bytes), durable stores {} ({} digest bytes)",
        if a.journal == b.journal { "identical" } else { "DIFFER" },
        a.journal.len(),
        if a.durable_digest == b.durable_digest { "identical" } else { "DIFFER" },
        a.durable_digest.len()
    );

    // No cycle may leave the model diverging from the running system, no
    // journal may break the trace invariants, and identical runs must be
    // identical.
    report.gate(
        "consistency.violations",
        total_violations as f64,
        Bound::AtMost(0.0),
    );
    report.gate(
        "trace.violations",
        total_trace_violations as f64,
        Bound::AtMost(0.0),
    );
    report.gate(
        "determinism.identical",
        f64::from(u8::from(deterministic)),
        Bound::AtLeast(1.0),
    );
    report.finish()
}
