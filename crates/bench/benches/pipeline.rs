//! Criterion benches for the runtime hot path: the router loop
//! (interned-symbol adjacency, `Arc`-shared payloads) and the wire codec,
//! matching the `exp_e6_pipeline` experiment at micro scale.

use criterion::{criterion_group, criterion_main, Criterion};
use redep_model::HostId;
use redep_netsim::SimTime;
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

criterion_group!(benches, bench_router, bench_codec);
criterion_main!(benches);
