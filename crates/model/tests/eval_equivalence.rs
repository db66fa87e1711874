//! Property-based equivalence between the compiled evaluation core and the
//! naive objective implementations.
//!
//! The compiled path ([`redep_model::CompiledModel`] +
//! [`redep_model::IncrementalScore`]) must agree with the trait-object path
//! to within 1e-12 on generated systems: full scores, arbitrary delta-move
//! chains (including unassignments and re-assignments), and the compiled
//! constraint checker's feasibility verdicts — under random location and
//! group constraints, and projected onto host clusters.

use proptest::prelude::*;
use redep_model::{
    keys, Availability, CommunicationVolume, CompiledModel, Composite, Constraint,
    ConstraintChecker, GeneratedSystem, Generator, GeneratorConfig, IncrementalScore, Latency,
    LinkSecurity, Objective, PathAwareAvailability, Range, UNASSIGNED,
};
use std::collections::BTreeSet;

fn config_strategy() -> impl Strategy<Value = GeneratorConfig> {
    (
        1usize..=5,
        1usize..=10,
        0.0f64..=1.0,
        0.0f64..=1.0,
        any::<u64>(),
    )
        .prop_map(|(hosts, components, pd, ld, seed)| GeneratorConfig {
            hosts,
            components,
            physical_density: pd,
            logical_density: ld,
            seed,
            // Memory ranges that always admit a deployment, so the property
            // exercises scoring rather than generation failure.
            host_memory: Range::new(1_000.0, 2_000.0),
            component_memory: Range::new(1.0, 10.0),
            ..GeneratorConfig::default()
        })
}

/// Every objective the compiled core supports, as boxed trait objects.
fn objectives() -> Vec<Box<dyn Objective>> {
    vec![
        Box::new(Availability),
        Box::new(PathAwareAvailability),
        Box::new(Latency::new()),
        Box::new(CommunicationVolume),
        Box::new(LinkSecurity),
        Box::new(
            Composite::new()
                .with("availability", Availability, 2.0)
                .with("latency", Latency::new(), 1.0)
                .with("volume", CommunicationVolume, 0.5),
        ),
    ]
}

/// 1e-12 agreement, relative for values above 1 in magnitude (unbounded
/// objectives like latency and volume accumulate delta drift proportional
/// to their magnitude).
fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-12 * a.abs().max(b.abs()).max(1.0)
}

/// Decodes a raw index vector into a (possibly partial) dense assignment:
/// indices beyond the host count become [`UNASSIGNED`].
fn to_assignment(raw: &[u32], n_hosts: usize, n_comps: usize) -> Vec<u32> {
    (0..n_comps)
        .map(|i| {
            let v = raw[i % raw.len().max(1)] % (n_hosts as u32 + 1);
            if v == n_hosts as u32 {
                UNASSIGNED
            } else {
                v
            }
        })
        .collect()
}

/// Adds one constraint per pick that the system's initial deployment
/// satisfies, so the compiled masks and groups are exercised by both
/// verdicts. A pick is (kind, component, bitmask): the mask chooses hosts
/// for `PinnedTo`/`NotOn` and peers for `Collocated`/`Separated`.
fn add_satisfied_constraints(system: &mut GeneratedSystem, picks: &[(u8, u32, u32)]) {
    let hosts = system.model.host_ids();
    let comps = system.model.component_ids();
    let initial = &system.initial;
    let at = |c| {
        initial
            .host_of(c)
            .expect("the initial deployment is complete")
    };
    for &(kind, pick, bits) in picks {
        let c = comps[pick as usize % comps.len()];
        let chosen = |i: usize| (bits >> (i % 32)) & 1 == 1;
        let subset = hosts.iter().enumerate().filter(|&(i, _)| chosen(i));
        let subset = subset.map(|(_, &h)| h);
        let peers = comps.iter().enumerate().filter(|&(i, _)| chosen(i));
        let peers = peers.map(|(_, &o)| o);
        let constraint = match kind % 4 {
            0 => Constraint::PinnedTo {
                component: c,
                hosts: subset.chain([at(c)]).collect(),
            },
            1 => Constraint::NotOn {
                component: c,
                hosts: subset.filter(|&h| h != at(c)).collect(),
            },
            2 => {
                let components: BTreeSet<_> =
                    peers.filter(|&o| at(o) == at(c)).chain([c]).collect();
                // A one-member group is left out: the compiled checker drops
                // it as never violated, while the naive `admits` still lets
                // it veto a probe that moves its member while placed.
                if components.len() < 2 {
                    continue;
                }
                Constraint::Collocated { components }
            }
            _ => {
                // The first member per host, `c` first.
                let mut used = BTreeSet::new();
                Constraint::Separated {
                    components: [c]
                        .into_iter()
                        .chain(peers)
                        .filter(|&o| used.insert(at(o)))
                        .collect(),
                }
            }
        };
        system.model.constraints_mut().add(constraint);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn score_full_matches_naive_evaluate(
        config in config_strategy(),
        raw in proptest::collection::vec(any::<u32>(), 1..16),
    ) {
        let system = Generator::generate(&config).unwrap();
        let cm = CompiledModel::compile(&system.model);
        let assign = to_assignment(&raw, cm.n_hosts(), cm.n_comps());
        let deployment = cm.decode_assignment(&assign);
        for obj in objectives() {
            let co = obj.compiled().expect("objective compiles");
            let mut inc = IncrementalScore::new(&cm, &co);
            let compiled = inc.assign_from(&assign);
            let naive = obj.evaluate(&system.model, &deployment);
            prop_assert!(
                close(compiled, naive),
                "{}: compiled {compiled} vs naive {naive}",
                obj.name()
            );
        }
    }

    #[test]
    fn delta_chains_match_naive_evaluate(
        config in config_strategy(),
        raw in proptest::collection::vec(any::<u32>(), 1..16),
        moves in proptest::collection::vec((any::<u32>(), any::<u32>()), 1..24),
    ) {
        let system = Generator::generate(&config).unwrap();
        let cm = CompiledModel::compile(&system.model);
        let n_hosts = cm.n_hosts();
        let n_comps = cm.n_comps();
        let assign = to_assignment(&raw, n_hosts, n_comps);
        for obj in objectives() {
            let co = obj.compiled().expect("objective compiles");
            let mut inc = IncrementalScore::new(&cm, &co);
            let start = inc.assign_from(&assign);
            let mut current = assign.clone();
            // Delta drift per move is rounding residue at the scale of the
            // running sums the chain has passed through — which for composite
            // parts can exceed the finalized score's scale. The algorithms
            // therefore re-anchor with score_full whenever a delta value
            // comes within NEAR_EPS = 1e-9 of the incumbent; the chain must
            // stay comfortably inside that margin.
            let mut scale = start.abs().max(1.0);
            let mut steps = 0.0;
            for &(rc, rh) in &moves {
                let comp = rc % n_comps as u32;
                // One extra slot unassigns the component.
                let h = rh % (n_hosts as u32 + 1);
                let host = if h == n_hosts as u32 { UNASSIGNED } else { h };
                // peek must predict exactly what set commits.
                let predicted = inc.peek(comp, host);
                inc.set(comp, host);
                current[comp as usize] = host;
                prop_assert_eq!(inc.value(), predicted, "{}", obj.name());
                let naive = obj.evaluate(&system.model, &cm.decode_assignment(&current));
                scale = scale.max(naive.abs());
                steps += 1.0;
                prop_assert!(
                    (inc.value() - naive).abs() <= 1e-10 * scale * steps,
                    "{}: delta {} vs naive {naive} after move {comp}->{host}",
                    obj.name(),
                    inc.value()
                );
            }
            // Re-anchoring with a full rescore erases the drift entirely, and
            // afterwards the running value is the pure score.
            let pure = inc.score_full();
            let naive = obj.evaluate(&system.model, &cm.decode_assignment(&current));
            prop_assert!(close(pure, naive), "{}", obj.name());
            prop_assert_eq!(inc.value(), pure, "{}", obj.name());
        }
    }

    #[test]
    fn peek_many_is_bitwise_a_sequence_of_peeks(
        config in config_strategy(),
        raw in proptest::collection::vec(any::<u32>(), 1..16),
        dull in proptest::collection::vec(any::<u32>(), 0..6),
        batches in proptest::collection::vec(
            (any::<u32>(), proptest::collection::vec(any::<u32>(), 0..12)),
            1..8,
        ),
    ) {
        let mut system = Generator::generate(&config).unwrap();
        // Silence a few links: zero frequency, and a negative one written
        // past the setter's guard (the evaluators skip both).
        let ends: Vec<_> = system.model.logical_links().map(|l| l.ends()).collect();
        for (i, &pick) in dull.iter().enumerate() {
            let Some(pair) = ends.get(pick as usize % ends.len().max(1)) else { break };
            let frequency = if i % 2 == 0 { 0.0 } else { -3.0 };
            system.model.set_logical_link(pair.lo(), pair.hi(), |l| {
                l.params_mut().set(keys::INTERACTION_FREQUENCY, frequency);
            }).unwrap();
        }
        let cm = CompiledModel::compile(&system.model);
        let (n_hosts, n_comps) = (cm.n_hosts() as u32, cm.n_comps() as u32);
        // Leaves some neighbours unassigned.
        let assign = to_assignment(&raw, cm.n_hosts(), cm.n_comps());
        for obj in objectives() {
            let co = obj.compiled().expect("objective compiles");
            let mut batched = IncrementalScore::new(&cm, &co);
            batched.assign_from(&assign);
            let mut single = batched.clone();
            let mut out = vec![f64::NAN; 3]; // stale content must be replaced
            for (rc, picks) in &batches {
                let comp = rc % n_comps;
                // Candidates: any host, the unassign slot, and — first when
                // there is one — the component's current host.
                let mut hosts: Vec<u32> = picks
                    .iter()
                    .map(|p| match p % (n_hosts + 1) {
                        h if h == n_hosts => UNASSIGNED,
                        h => h,
                    })
                    .collect();
                if let Some(first) = hosts.first_mut() {
                    *first = batched.assignment()[comp as usize];
                }
                batched.peek_many(comp, &hosts, &mut out);
                let one_by_one: Vec<f64> = hosts.iter().map(|&h| single.peek(comp, h)).collect();
                prop_assert_eq!(
                    out.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    one_by_one.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "{}: comp {} hosts {:?}", obj.name(), comp, hosts
                );
                prop_assert_eq!(batched.delta_evaluations(), single.delta_evaluations());
                // Pricing commits nothing; a committed move keeps both
                // scorers in step for the next batch.
                prop_assert_eq!(batched.value().to_bits(), single.value().to_bits());
                if let Some(&host) = hosts.last() {
                    batched.set(comp, host);
                    single.set(comp, host);
                }
            }
        }
    }

    #[test]
    fn compiled_constraints_agree_with_naive_checker(
        config in config_strategy(),
        raw in proptest::collection::vec(any::<u32>(), 1..16),
        picks in proptest::collection::vec((any::<u8>(), any::<u32>(), any::<u32>()), 0..6),
    ) {
        let mut system = Generator::generate(&config).unwrap();
        add_satisfied_constraints(&mut system, &picks);
        let cm = CompiledModel::compile(&system.model);
        let checker = system.model.constraints();
        prop_assert!(checker.check(&system.model, &system.initial).is_ok());
        let cc = checker.compile(&system.model, &cm).expect("a ConstraintSet compiles");
        let random = to_assignment(&raw, cm.n_hosts(), cm.n_comps());
        for assign in [random, cm.compile_assignment(&system.initial)] {
            let deployment = cm.decode_assignment(&assign);
            prop_assert_eq!(
                cc.check(&assign),
                checker.check(&system.model, &deployment).is_ok(),
                "feasibility verdicts disagree"
            );
            // Incremental admission agrees as well: for a relocation (`comp`
            // lifted out first) and for a probe with `comp` still placed,
            // with the memory scan and with a caller-kept load vector.
            for comp in 0..cm.n_comps() as u32 {
                let id = cm.comp_ids()[comp as usize];
                let mut lifted = assign.clone();
                lifted[comp as usize] = UNASSIGNED;
                let mut without = deployment.clone();
                without.unassign(id);
                for host in 0..cm.n_hosts() as u32 {
                    let h = cm.host_ids()[host as usize];
                    for (dense, naive) in [(&lifted, &without), (&assign, &deployment)] {
                        let expected = checker.admits(&system.model, naive, id, h);
                        prop_assert_eq!(
                            cc.admits(dense, comp, host),
                            expected,
                            "admission verdicts disagree for {}->{}", comp, host
                        );
                        prop_assert_eq!(
                            cc.admits_with_load(dense, &cc.load_of(dense), comp, host),
                            expected,
                            "load-kept admission disagrees for {}->{}", comp, host
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn projection_admits_exactly_the_clusters_holding_an_allowed_host(
        config in config_strategy(),
        picks in proptest::collection::vec((any::<u8>(), any::<u32>(), any::<u32>()), 0..6),
        clusters in proptest::collection::vec(any::<u32>(), 1..6),
    ) {
        let mut system = Generator::generate(&config).unwrap();
        add_satisfied_constraints(&mut system, &picks);
        let cm = CompiledModel::compile(&system.model);
        let checker = system.model.constraints();
        let cc = checker.compile(&system.model, &cm).expect("a ConstraintSet compiles");
        // Any partition of the hosts into k non-empty clusters (the
        // projection's precondition, which `Hierarchy::build` meets);
        // unbounded capacity, so memory never decides.
        let k = clusters.len().min(cm.n_hosts());
        let cluster_of: Vec<u32> = (0..cm.n_hosts())
            .map(|h| if h < k { h as u32 } else { clusters[h % clusters.len()] % k as u32 })
            .collect();
        let projected = cc.project_to_clusters(&cluster_of, k, &vec![f64::INFINITY; k]);
        let nobody = vec![UNASSIGNED; cm.n_comps()];
        for (comp, &id) in cm.comp_ids().iter().enumerate() {
            let allowed = checker.allowed_hosts(&system.model, id);
            for cluster in 0..k as u32 {
                let expected = (0..cm.n_hosts())
                    .any(|h| cluster_of[h] == cluster && allowed.contains(&cm.host_ids()[h]));
                prop_assert_eq!(
                    projected.admits(&nobody, comp as u32, cluster),
                    expected,
                    "cluster {} for component {}", cluster, comp
                );
            }
        }
    }

    #[test]
    fn initial_deployments_score_identically(config in config_strategy()) {
        // The generator's initial deployment is the common-case input: the
        // compiled score must be bit-identical to the naive one there (the
        // link iteration orders coincide by construction).
        let system = Generator::generate(&config).unwrap();
        let cm = CompiledModel::compile(&system.model);
        let assign = cm.compile_assignment(&system.initial);
        for obj in [&Availability as &dyn Objective, &LinkSecurity, &CommunicationVolume] {
            let co = obj.compiled().expect("objective compiles");
            let mut inc = IncrementalScore::new(&cm, &co);
            let compiled = inc.assign_from(&assign);
            let naive = obj.evaluate(&system.model, &system.initial);
            prop_assert_eq!(compiled, naive, "{}", obj.name());
        }
    }
}
