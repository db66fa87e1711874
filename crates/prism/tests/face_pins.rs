//! Pins the one-shard simulator face across commits: the hand-built systems
//! of this crate's tests, of `redep-netsim`'s property tests and of the
//! `pipeline` bench, each run with one telemetry handle shared by the
//! network and every host, must leave the same journal, the same network
//! statistics and the same durable stores, byte for byte.
//!
//! Every system registers its hosts in ascending id order before its first
//! run, so the plan's dense host indices (and with them the packed event
//! keys that order simultaneous events) are ascending too.

use redep_model::HostId;
use redep_netsim::{LinkSpec, Message, Node, NodeCtx, SimTime, Simulator};
use redep_prism::workload::{InteractionSpec, WORKLOAD_TYPE};
use redep_prism::{host::HostConfig, ComponentFactory, PrismHost, WorkloadComponent};
use redep_telemetry::Telemetry;
use std::collections::{BTreeMap, BTreeSet};

fn h(n: u32) -> HostId {
    HostId::new(n)
}

/// FNV-1a, 64 bit.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// Installs one journal on the network and on every Prism host of `hosts`,
/// after registration and before the first run.
fn journal(sim: &mut Simulator, hosts: &[HostId]) -> Telemetry {
    let telemetry = Telemetry::new(1 << 20);
    for &x in hosts {
        let host = sim.node_mut::<PrismHost>(x).unwrap();
        host.set_telemetry(telemetry.clone());
    }
    sim.set_telemetry(telemetry.clone());
    telemetry
}

/// `[journal, statistics, durable stores]` hashes of a finished run.
type Pins = [u64; 3];

/// The [`Pins`] of a finished run; the stores are those of the Prism hosts
/// among `hosts`, in host order.
fn pins(sim: &Simulator, telemetry: &Telemetry, hosts: &[HostId]) -> Pins {
    assert_eq!(telemetry.journal().dropped(), 0, "the journal overflowed");
    let stats = serde_json::to_string(sim.stats()).unwrap();
    let stores = hosts
        .iter()
        .filter_map(|&x| sim.node_ref::<PrismHost>(x))
        .flat_map(|host| host.durable_digest());
    [
        fnv1a(telemetry.export_jsonl().bytes()),
        fnv1a(stats.bytes()),
        fnv1a(stores),
    ]
}

fn factory() -> ComponentFactory {
    let mut f = ComponentFactory::new();
    f.register(WORKLOAD_TYPE, WorkloadComponent::build);
    f
}

fn config(deployer: HostId, neighbors: &[HostId], checkpoint_interval: u32) -> HostConfig {
    HostConfig {
        deployer_host: deployer,
        neighbors: neighbors.iter().copied().collect::<BTreeSet<_>>(),
        checkpoint_interval_windows: checkpoint_interval,
        ..HostConfig::default()
    }
}

/// `recovery.rs`'s three fully meshed hosts: "a" on h0 talks to "b" on h1
/// at 5 events/s.
fn three_host_system(seed: u64, checkpoint_interval: u32) -> Simulator {
    let hosts = [h(0), h(1), h(2)];
    let mut sim = Simulator::new(seed);
    let directory: BTreeMap<String, HostId> =
        [("a".to_owned(), h(0)), ("b".to_owned(), h(1))].into();
    for &me in &hosts {
        let neighbors: Vec<HostId> = hosts.iter().copied().filter(|x| *x != me).collect();
        let mut host = PrismHost::new(me, factory(), config(h(0), &neighbors, checkpoint_interval));
        if me == h(0) {
            host.enable_deployer();
            host.add_app_component(
                "a",
                WorkloadComponent::new(vec![InteractionSpec {
                    peer: "b".into(),
                    frequency: 5.0,
                    event_size: 100,
                }]),
            )
            .unwrap();
        }
        if me == h(1) {
            host.add_app_component("b", WorkloadComponent::new(vec![]))
                .unwrap();
        }
        host.set_initial_directory(directory.clone());
        sim.add_host(me, host);
    }
    for i in 0..hosts.len() {
        for j in (i + 1)..hosts.len() {
            sim.set_link(hosts[i], hosts[j], LinkSpec::default());
        }
    }
    sim
}

/// `recovery.rs`'s `n` fully meshed hosts: the master h0 runs the deployer,
/// component `c<i>` on host `i` sends to the next one at 5 events/s.
fn mesh_system(n: u32, seed: u64, checkpoint_interval: u32) -> Simulator {
    let hosts: Vec<HostId> = (0..n).map(h).collect();
    let name = |i: u32| format!("c{i}");
    let directory: BTreeMap<String, HostId> = (1..n).map(|i| (name(i), h(i))).collect();
    let mut sim = Simulator::new(seed);
    for &me in &hosts {
        let neighbors: Vec<HostId> = hosts.iter().copied().filter(|x| *x != me).collect();
        let mut host = PrismHost::new(me, factory(), config(h(0), &neighbors, checkpoint_interval));
        if me == h(0) {
            host.enable_deployer();
        } else {
            let next = me.raw() % (n - 1) + 1;
            host.add_app_component(
                name(me.raw()),
                WorkloadComponent::new(vec![InteractionSpec {
                    peer: name(next),
                    frequency: 5.0,
                    event_size: 100,
                }]),
            )
            .unwrap();
        }
        host.set_initial_directory(directory.clone());
        sim.add_host(me, host);
    }
    for (i, &a) in hosts.iter().enumerate() {
        for &b in &hosts[i + 1..] {
            sim.set_link(a, b, LinkSpec::default());
        }
    }
    sim
}

/// `routing.rs`'s line h0 — h1 — h2 — h3 with static next-hop routes.
fn line_system(reliability: f64) -> Simulator {
    let hosts = [h(0), h(1), h(2), h(3)];
    let neighbors = |me: u32| -> BTreeSet<HostId> {
        hosts
            .iter()
            .copied()
            .filter(|x| x.raw() + 1 == me || x.raw() == me + 1)
            .collect()
    };
    let routes = |me: u32| -> BTreeMap<HostId, HostId> {
        let mut r = BTreeMap::new();
        for dst in 0..4u32 {
            if dst == me || dst.abs_diff(me) == 1 {
                continue;
            }
            let hop = if dst > me { me + 1 } else { me - 1 };
            r.insert(h(dst), h(hop));
        }
        r
    };
    let directory: BTreeMap<String, HostId> =
        [("src".to_owned(), h(0)), ("dst".to_owned(), h(3))].into();
    let mut sim = Simulator::new(77);
    for &me in &hosts {
        let config = HostConfig {
            deployer_host: h(0),
            neighbors: neighbors(me.raw()),
            routes: routes(me.raw()),
            ..HostConfig::default()
        };
        let mut host = PrismHost::new(me, factory(), config);
        if me == h(0) {
            host.enable_deployer();
            host.add_app_component(
                "src",
                WorkloadComponent::new(vec![InteractionSpec {
                    peer: "dst".into(),
                    frequency: 5.0,
                    event_size: 64,
                }]),
            )
            .unwrap();
        }
        if me == h(3) {
            host.add_app_component("dst", WorkloadComponent::new(vec![]))
                .unwrap();
        }
        host.set_initial_directory(directory.clone());
        sim.add_host(me, host);
    }
    for w in hosts.windows(2) {
        let spec = LinkSpec {
            reliability,
            bandwidth: 1e6,
            delay: 0.002,
        };
        sim.set_link(w[0], w[1], spec);
    }
    sim
}

/// A bare node that takes whatever arrives.
struct Sink;
impl Node for Sink {
    fn on_message(&mut self, _ctx: &mut NodeCtx<'_>, _msg: Message) {}
}

/// Sends `count` 8-byte messages to `peer` on start.
struct Burst {
    peer: HostId,
    count: u32,
}
impl Node for Burst {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        for _ in 0..self.count {
            ctx.send(self.peer, vec![0u8; 8], 8);
        }
    }
}

/// `recovery.rs`'s three hosts; h1 crashes at 5 s and restarts at 8 s.
fn three_hosts_with_a_crash_and_restart() -> Pins {
    let mut sim = three_host_system(11, 4);
    let hosts = [h(0), h(1), h(2)];
    let telemetry = journal(&mut sim, &hosts);
    sim.run_until(SimTime::from_secs_f64(5.0));
    sim.set_host_up(h(1), false);
    sim.run_until(SimTime::from_secs_f64(8.0));
    sim.set_host_up(h(1), true);
    sim.run_until(SimTime::from_secs_f64(12.0));
    pins(&sim, &telemetry, &hosts)
}

/// `recovery.rs`'s eight-host mesh; the master bounces and then moves c2.
fn eight_host_mesh_with_a_master_bounce() -> Pins {
    let mut sim = mesh_system(8, 37, 4);
    let hosts: Vec<HostId> = (0..8).map(h).collect();
    let telemetry = journal(&mut sim, &hosts);
    sim.run_until(SimTime::from_secs_f64(13.3));
    sim.set_host_up(h(0), false);
    sim.set_host_up(h(0), true);
    sim.node_mut::<PrismHost>(h(0))
        .unwrap()
        .effect_redeployment([("c2".to_owned(), h(1))].into(), None)
        .unwrap();
    sim.run_until(SimTime::from_secs_f64(30.0));
    pins(&sim, &telemetry, &hosts)
}

/// `routing.rs`'s line over lossy links.
fn relayed_line() -> Pins {
    let mut sim = line_system(0.9);
    let hosts = [h(0), h(1), h(2), h(3)];
    let telemetry = journal(&mut sim, &hosts);
    sim.run_until(SimTime::from_secs_f64(10.0));
    pins(&sim, &telemetry, &hosts)
}

/// `redep-netsim`'s property-test run: one lossy link, a burst across it.
fn two_host_lossy_burst() -> Pins {
    let (a, b) = (h(0), h(1));
    let mut sim = Simulator::new(5);
    sim.add_host(
        a,
        Burst {
            peer: b,
            count: 200,
        },
    );
    sim.add_host(b, Sink);
    let spec = LinkSpec {
        reliability: 0.6,
        ..LinkSpec::default()
    };
    sim.set_link(a, b, spec);
    let telemetry = journal(&mut sim, &[]);
    sim.run_to_completion();
    pins(&sim, &telemetry, &[])
}

/// The `pipeline` bench's 32-host full mesh of bare nodes, then one message
/// over every directed pair.
fn bench_mesh_dispatch() -> Pins {
    const HOSTS: u32 = 32;
    let mut sim = Simulator::new(7);
    for a in 0..HOSTS {
        sim.add_host(h(a), Sink);
        for b in 0..a {
            sim.set_link(h(a), h(b), LinkSpec::default());
        }
    }
    let telemetry = journal(&mut sim, &[]);
    sim.run_to_completion();
    for src in 0..HOSTS {
        for dst in (0..HOSTS).filter(|dst| *dst != src) {
            sim.inject(h(src), h(dst), Vec::new(), 64);
        }
    }
    sim.run_to_completion();
    pins(&sim, &telemetry, &[])
}

/// One test, the runs in a fixed order: the process-wide symbol table hands
/// out ids in first-use order, and ids reach the durable stores' bytes, so
/// runs on parallel test threads would race for them.
#[test]
fn face_runs_are_pinned() {
    let got = [
        ("three hosts", three_hosts_with_a_crash_and_restart()),
        ("eight-host mesh", eight_host_mesh_with_a_master_bounce()),
        ("relayed line", relayed_line()),
        ("two-host burst", two_host_lossy_burst()),
        ("bench mesh", bench_mesh_dispatch()),
    ];
    let pinned = [
        [
            2142806036605762580,
            14933605895411411520,
            10391987131028960788,
        ],
        [
            5255485887199481471,
            1721931624033349533,
            9269090314785852086,
        ],
        [
            2329979622177773824,
            11057373483566000154,
            4204566349258691562,
        ],
        [
            5486031760224883986,
            785824493753424968,
            14695981039346656037,
        ],
        // A lossless mesh of bare nodes journals nothing and stores nothing.
        [
            14695981039346656037,
            5698277501166374908,
            14695981039346656037,
        ],
    ];
    for (name, got) in &got {
        println!("{name}: {got:?}");
    }
    for ((name, got), want) in got.iter().zip(pinned) {
        assert_eq!(*got, want, "{name}: [journal, statistics, durable stores]");
    }
}
