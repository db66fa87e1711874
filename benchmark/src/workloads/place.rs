//! `place-scale`: hierarchical placement at 200×2000 and 1000×10000.
//!
//! `model::eval`, `model::hierarchy` and `algorithms` do all the work and
//! `netsim`/`prism` none, so this is the bypass workload for every runtime
//! optimisation and the exercising one for changes to the algorithms.
//!
//! Set-up generates the two systems (the E3d rule). The timed script runs a
//! fixed number of rounds; a round is three passes at 200×2000 and one at
//! 1000×10000. A pass at 200×2000 is one solve by each of `avala-h`,
//! `stochastic-h`, `annealing-h` and `decap-h`; a pass at 1000×10000 one
//! solve by each of the first three (`decap-h` takes ~8 s there and is run
//! once, in the traced run only). Work is counted in component placements
//! decided — a solve places every component of its system — so the two
//! scales add up in one rate, about half the time going to each.

use super::{note_memory, script_units, RunConfig};
use crate::inputs::{rep_seed, sparse, threads, REPS};
use crate::isolated;
use crate::report::{ratio, Outcome};
use crate::stats;
use crate::trace::Tracer;
use redep_algorithms::annealing::AnnealingConfig;
use redep_algorithms::{
    AlgoResult, AnnealingAlgorithm, AvalaAlgorithm, DecApAlgorithm, HierarchicalConfig,
    MonitoringExchange, RedeploymentAlgorithm, StochasticAlgorithm,
};
use redep_model::{Availability, CompiledModel, ConstraintChecker, GeneratedSystem, Generator};
use std::collections::BTreeMap;
use std::time::Instant;

/// Passes at the small scale in one round (there is one at the large scale).
const SMALL_PASSES_PER_ROUND: usize = 3;

/// The four hierarchical algorithms, configured as E3d configures them.
const ALGORITHMS: [&str; 4] = ["avala-h", "stochastic-h", "annealing-h", "decap-h"];

fn algorithm(name: &str) -> Box<dyn RedeploymentAlgorithm> {
    let hierarchy = HierarchicalConfig {
        threads: threads(),
        ..HierarchicalConfig::default()
    };
    match name {
        "avala-h" => Box::new(AvalaAlgorithm::new().with_hierarchy(hierarchy)),
        "stochastic-h" => {
            Box::new(StochasticAlgorithm::with_config(20, 0).with_hierarchy(hierarchy))
        }
        "annealing-h" => Box::new(
            AnnealingAlgorithm::with_config(AnnealingConfig {
                iterations: 2_000,
                ..AnnealingConfig::default()
            })
            .with_hierarchy(hierarchy),
        ),
        "decap-h" => Box::new(
            DecApAlgorithm::new()
                .with_hierarchy(hierarchy)
                .with_exchange(MonitoringExchange::Gossip { hops: 1 }),
        ),
        other => unreachable!("no algorithm named {other}"),
    }
}

/// Per-algorithm samples across the run.
#[derive(Default)]
struct AlgoSamples {
    run_ms: Vec<f64>,
    scale_ms: Vec<f64>,
    scorings: f64,
    solve_s: f64,
}

/// One solve: timed, checked complete and constraint-valid, tallied.
/// Returns the work done and the wall seconds taken.
#[allow(clippy::too_many_arguments)]
fn solve(
    name: &'static str,
    system: &GeneratedSystem,
    large: bool,
    tracer: &mut Tracer,
    out: &mut Outcome,
    samples: &mut BTreeMap<&'static str, AlgoSamples>,
    values: &mut Vec<f64>,
) -> (f64, f64) {
    let model = &system.model;
    let span = tracer.enter(match name {
        "avala-h" => "algorithms.avala-h",
        "stochastic-h" => "algorithms.stochastic-h",
        "annealing-h" => "algorithms.annealing-h",
        _ => "algorithms.decap-h",
    });
    let started = Instant::now();
    let result = algorithm(name).run(
        model,
        &Availability,
        model.constraints(),
        Some(&system.initial),
    );
    let wall = started.elapsed().as_secs_f64();
    tracer.exit(span);
    out.attempted += 1;
    let valid = |r: &AlgoResult| {
        r.deployment.validate(model).is_ok()
            && model.constraints().check(model, &r.deployment).is_ok()
            && r.value.is_finite()
    };
    let mut work = 0.0;
    match result {
        Ok(r) if valid(&r) => {
            work = model.component_count() as f64;
            values.push(r.value);
            out.digest.f64(r.value);
            out.digest.u64(r.full_evaluations);
            out.digest.u64(r.delta_evaluations);
            out.digest.u64(r.pruned_evaluations);
            let layers = &mut out.layers;
            layers.add("algorithms.evals_full", r.full_evaluations as f64);
            layers.add("algorithms.evals_delta", r.delta_evaluations as f64);
            layers.add("algorithms.evals_pruned", r.pruned_evaluations as f64);
            layers.add("algorithms.hierarchy_clusters", r.hierarchy_clusters as f64);
            layers.add("algorithms.refine_rounds", r.refine_rounds as f64);
            let s = samples.entry(name).or_default();
            if large {
                s.scale_ms.push(wall * 1e3);
            } else {
                s.run_ms.push(wall * 1e3);
            }
            s.scorings += (r.full_evaluations + r.delta_evaluations) as f64;
            s.solve_s += wall;
        }
        Ok(_) => {
            out.failed += 1;
            out.problem(format!(
                "{name} returned an incomplete or constraint-violating placement"
            ));
        }
        Err(e) => {
            out.failed += 1;
            out.problem(format!("{name} failed: {e}"));
        }
    }
    (work, wall)
}

/// Runs the workload.
pub fn run(cfg: &RunConfig, tracer: &mut Tracer) -> Outcome {
    let (small, large) = if cfg.smoke {
        ((40, 200), (80, 400))
    } else {
        ((200, 2000), (1000, 10_000))
    };
    let rounds = if cfg.smoke {
        1
    } else {
        script_units(cfg.seconds, 0.3, 1)
    };
    let mut out = Outcome::default();
    let mut samples: BTreeMap<&'static str, AlgoSamples> = BTreeMap::new();
    let mut values = Vec::new();
    let (mut place_s, mut place_scale_s) = (Vec::new(), Vec::new());
    let mut first_small = None;

    for rep in 0..REPS {
        tracer.set_rep(rep as u32);
        // --- set-up: generate both systems ------------------------------
        let setup = tracer.enter("bench.setup");
        let started = Instant::now();
        let span = tracer.enter("model.generate");
        let seed = rep_seed(cfg.seed, rep);
        let small_system =
            Generator::generate(&sparse(small.0, small.1, seed)).expect("sparse ranges generate");
        let large_system =
            Generator::generate(&sparse(large.0, large.1, seed.wrapping_add(REPS as u64)))
                .expect("sparse ranges generate");
        tracer.exit(span);
        out.setup_s.push(started.elapsed().as_secs_f64());
        tracer.exit(setup);

        // --- the timed rounds -------------------------------------------
        let timed = tracer.enter("bench.timed");
        for _ in 0..rounds {
            let mut round = (0.0, 0.0);
            let mut pass = |system: &GeneratedSystem, large: bool, names: &[&'static str]| {
                let mut pass_s = 0.0;
                for name in names {
                    let (work, wall) = solve(
                        name,
                        system,
                        large,
                        tracer,
                        &mut out,
                        &mut samples,
                        &mut values,
                    );
                    round.0 += work;
                    round.1 += wall;
                    pass_s += wall;
                }
                pass_s
            };
            for _ in 0..SMALL_PASSES_PER_ROUND {
                place_s.push(pass(&small_system, false, &ALGORITHMS));
            }
            place_scale_s.push(pass(&large_system, true, &ALGORITHMS[..3]));
            out.step(round.0, round.1);
        }
        tracer.exit(timed);

        if rep == 0 && tracer.enabled() {
            // Outside the timed script: `decap-h` at the large scale, once.
            let mut aside = Outcome::default();
            solve(
                "decap-h",
                &large_system,
                true,
                tracer,
                &mut aside,
                &mut samples,
                &mut Vec::new(),
            );
            out.problems.append(&mut aside.problems);
            first_small = Some(small_system);
        }
    }

    note_memory(&mut out);
    // The objective is availability, so the mean value of the returned
    // placements is this workload's `availability`.
    out.availability.push(stats::mean(&values));
    out.notes.push(format!(
        "{REPS} pairs of sparse systems, {}x{} and {}x{}; {rounds} rounds per pair of {SMALL_PASSES_PER_ROUND} passes of four \
         algorithms at the small scale and one pass of three at the large one; {} threads",
        small.0,
        small.1,
        large.0,
        large.1,
        threads()
    ));
    out.notes.push(format!(
        "pass wall: {}x{} n={} p50={:.4} s max={:.4} s; {}x{} n={} p50={:.4} s max={:.4} s",
        small.0,
        small.1,
        place_s.len(),
        stats::median(&place_s),
        place_s.iter().copied().fold(0.0, f64::max),
        large.0,
        large.1,
        place_scale_s.len(),
        stats::median(&place_scale_s),
        place_scale_s.iter().copied().fold(0.0, f64::max),
    ));

    if tracer.enabled() {
        let layers = &mut out.layers;
        layers.set("algorithms.place_s", stats::median(&place_s));
        layers.set("algorithms.place_scale_s", stats::median(&place_scale_s));
        for name in ALGORITHMS {
            let Some(s) = samples.get(name) else { continue };
            layers.set(
                &format!("algorithms.{name}.run_ms.p50"),
                stats::median(&s.run_ms),
            );
            layers.set(
                &format!("algorithms.{name}.run_ms.max"),
                s.run_ms.iter().copied().fold(0.0, f64::max),
            );
            layers.set(
                &format!("algorithms.{name}.scale_ms"),
                stats::median(&s.scale_ms),
            );
            layers.set(
                &format!("algorithms.{name}.scorings_per_s"),
                ratio(s.scorings, s.solve_s),
            );
        }
        let pruned = layers.get("algorithms.evals_pruned");
        let scored = layers.get("algorithms.evals_full") + layers.get("algorithms.evals_delta");
        layers.set("algorithms.pruned_share", ratio(pruned, pruned + scored));
        layers.set(
            "model.generate_s",
            tracer.total_s("model.generate") / REPS as f64,
        );
        if let Some(system) = first_small {
            let compiled = CompiledModel::compile(&system.model);
            let assignment = compiled.compile_assignment(&system.initial);
            isolated::model_costs(layers, &system.model, &assignment, cfg.smoke);
        }
    }
    out
}
