//! E3 (§5.1 complexity claims): running-time and work scaling.
//!
//! * Exact is O(kⁿ): feasible only for very small systems (the paper says
//!   ~5 hosts / ~15 components); its evaluation count equals the pruned
//!   search-space size and explodes visibly in the table.
//! * Stochastic is O(n²) per iteration, Avala O(n³), DecAp O(k·n³): all
//!   remain fast far beyond Exact's reach.

use redep_algorithms::annealing::AnnealingConfig;
use redep_algorithms::genetic::GeneticConfig;
use redep_algorithms::{
    AlgoResult, AnnealingAlgorithm, AvalaAlgorithm, DecApAlgorithm, ExactAlgorithm,
    GeneticAlgorithm, HierarchicalConfig, MonitoringExchange, RedeploymentAlgorithm,
    StochasticAlgorithm,
};
use redep_bench::{print_table, Bound, ExpReport};
use redep_model::{
    Availability, CompiledModel, ConstraintChecker, Deployment, GeneratedSystem, Generator,
    GeneratorConfig, Objective, Uncompiled,
};
use std::time::Instant;

/// Generation gates, each ≥ 4× the time the buffered-keystream generator
/// takes on a 2-vCPU box (`e3d.<size>.generate_secs` in
/// BENCH_algorithms.json).
const GENERATE_200X2000_MAX_SECS: f64 = 0.2;
const GENERATE_1000X10000_MAX_SECS: f64 = 3.0;

/// The four hierarchical variants under test, freshly configured.
fn hier_algos(hcfg: HierarchicalConfig) -> Vec<(&'static str, Box<dyn RedeploymentAlgorithm>)> {
    vec![
        (
            "avala",
            Box::new(AvalaAlgorithm::new().with_hierarchy(hcfg)),
        ),
        (
            "decap",
            Box::new(
                DecApAlgorithm::new()
                    .with_hierarchy(hcfg)
                    .with_exchange(MonitoringExchange::Gossip { hops: 1 }),
            ),
        ),
        (
            "stochastic",
            Box::new(StochasticAlgorithm::with_config(20, 0).with_hierarchy(hcfg)),
        ),
        (
            "annealing",
            Box::new(
                AnnealingAlgorithm::with_config(AnnealingConfig {
                    iterations: 2_000,
                    ..AnnealingConfig::default()
                })
                .with_hierarchy(hcfg),
            ),
        ),
    ]
}

/// Deployment scorings per second: full and delta evaluations both price a
/// complete deployment, so their sum over wall time is the uniform E3d
/// throughput metric for flat and hierarchical paths alike.
fn scorings_per_sec(r: &AlgoResult, secs: f64) -> f64 {
    (r.full_evaluations + r.delta_evaluations) as f64 / secs.max(1e-9)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let quick = std::env::args().any(|a| a == "--quick");
    let mut report = ExpReport::new(
        "algorithms",
        "E3: algorithm scaling and compiled-core speedup",
    );
    if quick {
        run_e3d(&mut report, true)?;
        report.note(
            "quick mode: E3d 200x2000 avala-h and decap-h only, decap-h solved at 1 and 2 \
             threads with identical placement, rounds and delta evaluations; and all four \
             1000x10000 scale rows",
        );
        return report.finish();
    }
    // --- Exact's wall: k^n growth -------------------------------------
    let mut rows = Vec::new();
    for (hosts, comps) in [
        (2, 6),
        (2, 10),
        (3, 8),
        (3, 10),
        (4, 8),
        (4, 10),
        (5, 15),
        (8, 40),
    ] {
        let system = Generator::generate(&GeneratorConfig::sized(hosts, comps).with_seed(1))?;
        let space = ExactAlgorithm::search_space(&system.model);
        let started = Instant::now();
        let outcome = ExactAlgorithm::with_budget(5_000_000).run(
            &system.model,
            &Availability,
            system.model.constraints(),
            Some(&system.initial),
        );
        let elapsed = started.elapsed();
        let (evals, status) = match &outcome {
            Ok(r) => {
                report.metric(
                    format!("e3a.exact.{hosts}x{comps}.evals_per_sec"),
                    r.evaluations as f64 / elapsed.as_secs_f64().max(1e-9),
                );
                (r.evaluations.to_string(), format!("{:.1?}", elapsed))
            }
            Err(e) => ("-".into(), format!("refused: {e}")),
        };
        rows.push(vec![
            format!("{hosts}×{comps}"),
            format!("{space:e}"),
            evals,
            status,
        ]);
    }
    print_table(
        "E3a: Exact algorithm — O(kⁿ) search space (budget 5e6 evaluations)",
        &["k×n", "k^n", "evaluated", "time / refusal"],
        &rows,
    );

    // --- Approximative algorithms scale to large systems ----------------
    let mut rows = Vec::new();
    for (hosts, comps) in [(4, 16), (8, 40), (12, 80), (16, 120), (20, 160)] {
        let system = Generator::generate(&GeneratorConfig::sized(hosts, comps).with_seed(2))?;
        let mut cells = vec![format!("{hosts}×{comps}")];
        let algos: Vec<(&str, Box<dyn RedeploymentAlgorithm>)> = vec![
            (
                "stochastic",
                Box::new(StochasticAlgorithm::with_config(20, 0)),
            ),
            ("avala", Box::new(AvalaAlgorithm::new())),
            ("decap", Box::new(DecApAlgorithm::new())),
        ];
        for (name, algo) in algos {
            let started = Instant::now();
            let r = algo.run(
                &system.model,
                &Availability,
                system.model.constraints(),
                Some(&system.initial),
            )?;
            let elapsed = started.elapsed();
            report.metric(
                format!("e3b.{name}.{hosts}x{comps}.evals_per_sec"),
                r.evaluations as f64 / elapsed.as_secs_f64().max(1e-9),
            );
            cells.push(format!("{:.1?} ({:.3})", elapsed, r.value));
        }
        rows.push(cells);
    }
    print_table(
        "E3b: approximative algorithms — time (achieved availability)",
        &["k×n", "stochastic (20 iter)", "avala", "decap"],
        &rows,
    );

    // --- Dense vs opaque scoring on the same body ----------------------
    // The two mutation-driven searches the compiled core targets, on the
    // acceptance-size instance (8 hosts × 32 components). `Uncompiled` hides
    // both dense forms, so the one body scores each
    // proposal with a from-scratch `evaluate` — and checks it with the
    // trait object's `check`/`admits` — on the decoded assignment instead
    // of an O(deg) delta over dense tables: the work a custom objective
    // and checker cost, which is what the ≥5× gate has always compared.
    let system = Generator::generate(&GeneratorConfig::sized(8, 32).with_seed(3))?;
    let annealing = AnnealingAlgorithm::with_config(AnnealingConfig {
        iterations: 2_000,
        ..AnnealingConfig::default()
    });
    let genetic = GeneticAlgorithm::with_config(GeneticConfig {
        generations: 20,
        ..GeneticConfig::default()
    });
    let searches: Vec<(&str, &dyn RedeploymentAlgorithm)> =
        vec![("annealing", &annealing), ("genetic", &genetic)];
    let mut rows = Vec::new();
    for (name, algo) in searches {
        let time_of = |objective: &dyn Objective,
                       constraints: &dyn ConstraintChecker|
         -> Result<(f64, f64, u64, u64), Box<dyn std::error::Error>> {
            // Median-of-5 wall time for stability outside Criterion.
            let mut times = Vec::new();
            let mut last = None;
            for _ in 0..5 {
                let started = Instant::now();
                let r = algo.run(&system.model, objective, constraints, Some(&system.initial))?;
                times.push(started.elapsed().as_secs_f64());
                last = Some(r);
            }
            times.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
            let r = last.expect("five runs");
            Ok((times[2], r.value, r.full_evaluations, r.delta_evaluations))
        };
        let checker = system.model.constraints();
        let (fast, fast_value, full, delta) = time_of(&Availability, checker)?;
        let (slow, slow_value, _, _) = time_of(&Uncompiled(&Availability), &Uncompiled(checker))?;
        assert!(
            (fast_value - slow_value).abs() <= 1e-12,
            "{name}: dense and opaque scoring disagree"
        );
        let speedup = slow / fast.max(1e-9);
        report.metric(format!("e3c.{name}.8x32.dense_secs"), fast);
        report.metric(format!("e3c.{name}.8x32.opaque_secs"), slow);
        // The acceptance: dense scoring runs the searches ≥ 5× faster
        // than opaque scoring on the same body.
        report.gate(
            format!("e3c.{name}.8x32.speedup"),
            speedup,
            Bound::AtLeast(5.0),
        );
        report.metric(format!("e3c.{name}.8x32.delta_evals"), delta as f64);
        report.metric(format!("e3c.{name}.8x32.full_evals"), full as f64);
        rows.push(vec![
            name.to_owned(),
            format!("{:.1}ms", fast * 1e3),
            format!("{:.1}ms", slow * 1e3),
            format!("{speedup:.1}×"),
            format!("{delta}/{full}"),
        ]);
    }
    print_table(
        "E3c: dense vs opaque scoring on the same body (8×32, median of 5)",
        &["search", "dense", "opaque", "speedup", "delta/full evals"],
        &rows,
    );
    run_e3d(&mut report, false)?;
    report.finish()
}

/// Runs one algorithm on a generated system and checks that it returned a
/// complete, constraint-valid placement. Returns the result and the wall
/// seconds.
fn solve_checked(
    algo: &dyn RedeploymentAlgorithm,
    system: &GeneratedSystem,
) -> Result<(AlgoResult, f64), Box<dyn std::error::Error>> {
    let model = &system.model;
    let started = Instant::now();
    let r = algo.run(
        model,
        &Availability,
        model.constraints(),
        Some(&system.initial),
    )?;
    let elapsed = started.elapsed().as_secs_f64();
    r.deployment.validate(model)?;
    model.constraints().check(model, &r.deployment)?;
    Ok((r, elapsed))
}

/// Generates an E3d system and records how: `e3d.<size>.generate_secs`,
/// gated at `max_secs`; the exact link counts and the system's fingerprint
/// (its two 32-bit halves, which a JSON number holds exactly), so a quick
/// run checks the generated system bit for bit; and one timed
/// [`CompiledModel::compile`] as `e3d.<size>.compile_ms`. The solve rows
/// do not pay that compile: the generator leaves its own in the model, and
/// every solve of the unedited model reuses it.
fn generate_recorded(
    report: &mut ExpReport,
    size: &str,
    config: &GeneratorConfig,
    max_secs: f64,
) -> Result<GeneratedSystem, Box<dyn std::error::Error>> {
    let started = Instant::now();
    let system = Generator::generate(config)?;
    report.gate(
        format!("e3d.{size}.generate_secs"),
        started.elapsed().as_secs_f64(),
        Bound::AtMost(max_secs),
    );
    let model = &system.model;
    report.metric(
        format!("e3d.{size}.physical_links"),
        model.physical_link_count() as f64,
    );
    report.metric(
        format!("e3d.{size}.logical_links"),
        model.logical_link_count() as f64,
    );
    record_halves(
        report,
        &format!("e3d.{size}.fingerprint"),
        fingerprint(&system),
    );

    let started = Instant::now();
    let _compiled = std::hint::black_box(CompiledModel::compile(model));
    report.metric(
        format!("e3d.{size}.compile_ms"),
        started.elapsed().as_secs_f64() * 1e3,
    );
    Ok(system)
}

/// FNV-1a over everything the generator draws: host and component memory,
/// both link layers with their parameters, and the initial deployment, each
/// in id order (the digest `redep_model`'s generator pin test takes).
fn fingerprint(s: &GeneratedSystem) -> u64 {
    let mut hash = FNV_OFFSET;
    let mut eat = |v: u64| fnv1a(&mut hash, v);
    for h in s.model.hosts() {
        eat(h.memory().to_bits());
    }
    for c in s.model.components() {
        eat(c.required_memory().to_bits());
    }
    for l in s.model.physical_links() {
        eat(l.ends().lo().raw() as u64);
        eat(l.ends().hi().raw() as u64);
        eat(l.reliability().to_bits());
        eat(l.bandwidth().to_bits());
        eat(l.delay().to_bits());
    }
    for l in s.model.logical_links() {
        eat(l.ends().lo().raw() as u64);
        eat(l.ends().hi().raw() as u64);
        eat(l.frequency().to_bits());
        eat(l.event_size().to_bits());
    }
    for (c, h) in s.initial.iter() {
        eat(c.raw() as u64);
        eat(h.raw() as u64);
    }
    hash
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `v`'s little-endian bytes into an FNV-1a hash.
fn fnv1a(hash: &mut u64, v: u64) {
    for b in v.to_le_bytes() {
        *hash = (*hash ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// FNV-1a over a placement's `(component, host)` pairs in component order.
fn placement_fingerprint(d: &Deployment) -> u64 {
    let mut hash = FNV_OFFSET;
    for (c, h) in d.iter() {
        fnv1a(&mut hash, c.raw() as u64);
        fnv1a(&mut hash, h.raw() as u64);
    }
    hash
}

/// Records a 64-bit digest as `<key>_hi` and `<key>_lo`, its two 32-bit
/// halves, which a JSON number holds exactly.
fn record_halves(report: &mut ExpReport, key: &str, digest: u64) {
    report.metric(format!("{key}_hi"), (digest >> 32) as f64);
    report.metric(format!("{key}_lo"), (digest & 0xffff_ffff) as f64);
}

/// E3d: the hierarchical placement engine; `quick` runs only the 200×2000
/// avala-h and decap-h cells and the 1000×10000 scale rows.
fn run_e3d(report: &mut ExpReport, quick: bool) -> Result<(), Box<dyn std::error::Error>> {
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let hcfg = HierarchicalConfig { threads };

    // --- 200×2000: every hierarchical algorithm completes ---------------
    let system = generate_recorded(
        report,
        "200x2000",
        &GeneratorConfig::sparse(200, 2000).with_seed(5),
        GENERATE_200X2000_MAX_SECS,
    )?;
    let mut rows = Vec::new();
    for (name, algo) in hier_algos(hcfg) {
        if quick && name != "avala" && name != "decap" {
            continue;
        }
        let (r, elapsed) = solve_checked(algo.as_ref(), &system)?;
        report.metric(
            format!("e3d.{name}.200x2000.evals_per_sec"),
            scorings_per_sec(&r, elapsed),
        );
        report.metric(format!("e3d.{name}.200x2000.wall_ms"), elapsed * 1e3);
        // Every E3d row places no worse than the initial deployment.
        let initial = Availability.evaluate(&system.model, &system.initial);
        report.gate(
            format!("e3d.{name}.200x2000.value"),
            r.value,
            Bound::AtLeast(initial),
        );
        rows.push(vec![
            r.algorithm.clone(),
            format!("{:.0}ms", elapsed * 1e3),
            format!("{:.3}", r.value),
            r.hierarchy_clusters.to_string(),
            r.pruned_evaluations.to_string(),
        ]);
    }
    print_table(
        "E3d: hierarchical engine at 200×2000 — super-node decomposition",
        &[
            "algorithm",
            "wall",
            "value",
            "clusters",
            "pruned candidates",
        ],
        &rows,
    );
    // The auctions' exact counts, not their wall time, are what a CI box can
    // check: a decap-h solve is the same at any thread count.
    let decap_at = |threads| {
        let algos = hier_algos(HierarchicalConfig { threads });
        let (_, algo) = algos.iter().find(|(name, _)| *name == "decap").unwrap();
        solve_checked(algo.as_ref(), &system).map(|(r, _)| r)
    };
    let (one, two) = (decap_at(1)?, decap_at(2)?);
    assert_eq!(one.algorithm, "decap-h");
    assert_eq!(one.deployment, two.deployment, "decap-h placement");
    assert_eq!(one.refine_rounds, two.refine_rounds, "decap-h rounds");
    assert_eq!(
        one.delta_evaluations, two.delta_evaluations,
        "decap-h delta evaluations"
    );
    assert!(one.refine_rounds > 0 && one.delta_evaluations > 0);
    report.metric("e3d.decap.200x2000.rounds", one.refine_rounds as f64);
    report.metric(
        "e3d.decap.200x2000.delta_evals",
        one.delta_evaluations as f64,
    );
    if quick {
        return scale_rows(report, hcfg);
    }

    // --- 20×160: hierarchical vs flat throughput (the ≥10× gate) --------
    let system = Generator::generate(&GeneratorConfig::sized(20, 160).with_seed(2))?;
    let flat_algos: Vec<(&str, Box<dyn RedeploymentAlgorithm>)> = vec![
        ("avala", Box::new(AvalaAlgorithm::new())),
        ("decap", Box::new(DecApAlgorithm::new())),
        (
            "stochastic",
            Box::new(StochasticAlgorithm::with_config(20, 0)),
        ),
        (
            "annealing",
            Box::new(AnnealingAlgorithm::with_config(AnnealingConfig {
                iterations: 2_000,
                ..AnnealingConfig::default()
            })),
        ),
    ];
    let mut rows = Vec::new();
    for ((name, flat), (_, hier)) in flat_algos.into_iter().zip(hier_algos(hcfg)) {
        let time_of = |algo: &dyn RedeploymentAlgorithm| -> Result<(f64, AlgoResult), Box<dyn std::error::Error>> {
            // Median-of-5 wall time for stability outside Criterion.
            let mut times = Vec::new();
            let mut last = None;
            for _ in 0..5 {
                let started = Instant::now();
                let r = algo.run(
                    &system.model,
                    &Availability,
                    system.model.constraints(),
                    Some(&system.initial),
                )?;
                times.push(started.elapsed().as_secs_f64());
                last = Some(r);
            }
            times.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
            Ok((times[2], last.expect("five runs")))
        };
        let (flat_secs, flat_r) = time_of(flat.as_ref())?;
        let (hier_secs, hier_r) = time_of(hier.as_ref())?;
        let flat_rate = scorings_per_sec(&flat_r, flat_secs);
        let hier_rate = scorings_per_sec(&hier_r, hier_secs);
        let speedup = hier_rate / flat_rate.max(1e-9);
        report.metric(format!("e3d.{name}.20x160.flat_evals_per_sec"), flat_rate);
        report.metric(format!("e3d.{name}.20x160.hier_evals_per_sec"), hier_rate);
        let speedup_key = format!("e3d.{name}.20x160.speedup_vs_flat");
        if name == "avala" || name == "decap" {
            // The acceptance: the hierarchical engine prices deployments
            // ≥ 10× faster than the flat path (full+delta scorings on both).
            report.gate(speedup_key, speedup, Bound::AtLeast(10.0));
        } else {
            report.metric(speedup_key, speedup);
        }
        report.metric(format!("e3d.{name}.20x160.flat_wall_ms"), flat_secs * 1e3);
        report.metric(format!("e3d.{name}.20x160.hier_wall_ms"), hier_secs * 1e3);
        rows.push(vec![
            name.to_owned(),
            format!("{:.1}ms ({:.3})", flat_secs * 1e3, flat_r.value),
            format!("{:.1}ms ({:.3})", hier_secs * 1e3, hier_r.value),
            format!("{:.0}/s vs {:.0}/s", hier_rate, flat_rate),
            format!("{speedup:.1}×"),
        ]);
    }
    print_table(
        "E3d: hierarchical vs flat at 20×160 — scorings/s (median of 5)",
        &[
            "algorithm",
            "flat (value)",
            "hier (value)",
            "throughput",
            "speedup",
        ],
        &rows,
    );

    scale_rows(report, hcfg)
}

/// E3d's scale rows at 1000×10000: every hierarchical algorithm, each
/// with its exact evaluation counters and a placement fingerprint, which
/// pin every `-h` body at a size the debug-build tests cannot afford.
fn scale_rows(
    report: &mut ExpReport,
    hcfg: HierarchicalConfig,
) -> Result<(), Box<dyn std::error::Error>> {
    let system = generate_recorded(
        report,
        "1000x10000",
        &GeneratorConfig::sparse(1000, 10_000).with_seed(6),
        GENERATE_1000X10000_MAX_SECS,
    )?;
    let mut rows = Vec::new();
    for (name, algo) in hier_algos(hcfg) {
        let (r, elapsed) = solve_checked(algo.as_ref(), &system)?;
        assert!(
            r.pruned_evaluations > 0,
            "{name}-h priced every host at 1000x10000"
        );
        let row = format!("e3d.{name}.1000x10000");
        report.metric(format!("{row}.full_evals"), r.full_evaluations as f64);
        report.metric(format!("{row}.delta_evals"), r.delta_evaluations as f64);
        report.metric(format!("{row}.pruned_evals"), r.pruned_evaluations as f64);
        record_halves(
            report,
            &format!("{row}.placement"),
            placement_fingerprint(&r.deployment),
        );
        if name == "decap" {
            // `e3d.decap.1000x10000.wall_secs` in BENCH_algorithms.json;
            // an O(hosts³) exchange every round took 8.7 s.
            report.gate(format!("{row}.wall_secs"), elapsed, Bound::AtMost(2.0));
        } else {
            report.metric(format!("{row}.wall_secs"), elapsed);
        }
        report.metric(
            format!("{row}.evals_per_sec"),
            scorings_per_sec(&r, elapsed),
        );
        let initial = Availability.evaluate(&system.model, &system.initial);
        report.gate(format!("{row}.value"), r.value, Bound::AtLeast(initial));
        rows.push(vec![
            r.algorithm.clone(),
            format!("{elapsed:.2}s"),
            format!("{:.3}", r.value),
            r.hierarchy_clusters.to_string(),
            r.pruned_evaluations.to_string(),
        ]);
    }
    print_table(
        "E3d: scale rows — 1000 hosts × 10000 components",
        &[
            "algorithm",
            "wall",
            "value",
            "clusters",
            "pruned candidates",
        ],
        &rows,
    );

    Ok(())
}
