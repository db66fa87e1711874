//! Criterion benches for the runtime hot path: the router loop
//! (interned-symbol adjacency, `Arc`-shared payloads), the wire codec, the
//! simulator's send → deliver path under bare nodes, and the component-timer
//! table — matching the `exp_e6_pipeline` experiment at micro scale.

use criterion::{criterion_group, criterion_main, Criterion};
use redep_model::HostId;
use redep_netsim::{LinkSpec, Message, Node, NodeCtx, SimTime, Simulator};
use redep_prism::timers::TimerTable;
use redep_prism::{Architecture, ComponentBehavior, ComponentCtx, Event};

/// Re-emits every event it receives until its budget runs out, keeping the
/// connector's route→pump loop saturated.
struct Relay {
    remaining: u32,
}
impl ComponentBehavior for Relay {
    fn type_name(&self) -> &str {
        "relay"
    }
    fn handle(&mut self, ctx: &mut ComponentCtx<'_>, _event: &Event) {
        if self.remaining > 0 {
            self.remaining -= 1;
            ctx.emit(Event::notification("relay.hop").with_size(64));
        }
    }
}

/// Routes ~`events` emissions through a bus with `fan` welded components.
fn route(fan: u32, events: u32) -> u64 {
    let mut arch = Architecture::new("bench", HostId::new(0));
    let bus = arch.add_connector("bus");
    for i in 0..fan {
        let id = arch
            .add_component(format!("c{i}"), Relay { remaining: events })
            .unwrap();
        arch.weld(id, bus).unwrap();
    }
    arch.publish("c0", Event::notification("relay.hop"))
        .unwrap();
    arch.pump(SimTime::ZERO)
}

fn bench_router(c: &mut Criterion) {
    let mut group = c.benchmark_group("router_hot_path");
    group.bench_function("fan2_10k_events", |b| b.iter(|| route(2, 10_000)));
    group.bench_function("fan16_1k_events", |b| b.iter(|| route(16, 1_000)));
    group.finish();
}

fn sample_event() -> Event {
    Event::request("pipeline.sample")
        .with_param("attempt", 3i64)
        .with_param("ratio", 0.875)
        .with_param("peer", "component-17")
        .with_payload(vec![0xA5u8; 64])
        .with_size(256)
}

fn bench_codec(c: &mut Criterion) {
    let event = sample_event();
    let bytes = event.encode().unwrap();

    let mut group = c.benchmark_group("codec_roundtrip");
    group.bench_function("encode", |b| b.iter(|| event.encode().unwrap()));
    group.bench_function("decode", |b| b.iter(|| Event::decode(&bytes).unwrap()));
    group.finish();
}

/// A node that does nothing: what is left is the simulator's own cost.
struct Sink;
impl Node for Sink {
    fn on_message(&mut self, _ctx: &mut NodeCtx<'_>, _msg: Message) {}
}

/// One message over every directed pair of a 32-host full mesh (992 sends,
/// 992 deliveries): topology, link-slot and stat-slot lookups, the loss
/// draw, the medium and the calendar, with no middleware on top.
fn bench_netsim_dispatch(c: &mut Criterion) {
    const HOSTS: u32 = 32;
    let mut sim = Simulator::new(7);
    for a in 0..HOSTS {
        sim.add_host(HostId::new(a), Sink);
        for b in 0..a {
            sim.set_link(HostId::new(a), HostId::new(b), LinkSpec::default());
        }
    }
    sim.run_to_completion();
    let mut group = c.benchmark_group("netsim_dispatch");
    group.bench_function("send_deliver_32_hosts", |b| {
        b.iter(|| {
            for src in 0..HOSTS {
                for dst in (0..HOSTS).filter(|dst| *dst != src) {
                    sim.inject(HostId::new(src), HostId::new(dst), Vec::new(), 64);
                }
            }
            sim.run_to_completion()
        })
    });
    group.finish();
}

/// The steady state of a host's timer table: 64 timers live; one fires and
/// a new one is armed, 10 000 times.
fn bench_timer_table(c: &mut Criterion) {
    let mut group = c.benchmark_group("timer_table");
    group.bench_function("arm_fire_64_live", |b| {
        b.iter(|| {
            let mut table = TimerTable::new();
            let mut fired = 0u64;
            for id in 0..10_064u64 {
                table.insert(id, id);
                if id >= 64 {
                    fired += table.remove(id - 64).expect("armed 64 ids ago");
                }
            }
            fired
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_router,
    bench_codec,
    bench_netsim_dispatch,
    bench_timer_table
);
criterion_main!(benches);
