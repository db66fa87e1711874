//! Criterion benches: the cost of monitoring (experiment E5's counterpart —
//! the connector tap, the per-window close and the report codec, at the ~130
//! component pairs a host of the 32×128 steady cell reports), of the
//! objective evaluations at the algorithms' core, and of the
//! telemetry hot paths (counter increments and journal records must stay
//! cheap enough to leave compiled into the simulators).

use criterion::{criterion_group, criterion_main, Criterion};
use redep_model::{Availability, Generator, GeneratorConfig, HostId, Latency, Objective};
use redep_netsim::{Duration, SimTime};
use redep_prism::monitor::{ConnectorMonitor, FrequencyWindow};
use redep_prism::{
    Architecture, ComponentBehavior, ComponentCtx, Event, EventFrequencyMonitor,
    MonitoringSnapshot, Symbol,
};
use redep_telemetry::Telemetry;
use std::collections::BTreeMap;

struct Bouncer {
    remaining: u32,
}
impl ComponentBehavior for Bouncer {
    fn type_name(&self) -> &str {
        "bouncer"
    }
    fn handle(&mut self, ctx: &mut ComponentCtx<'_>, _event: &Event) {
        if self.remaining > 0 {
            self.remaining -= 1;
            ctx.emit(Event::notification("bounce").with_size(64));
        }
    }
}

fn pump(monitored: bool, events: u32) -> u64 {
    let mut arch = Architecture::new("bench", HostId::new(0));
    let a = arch
        .add_component("a", Bouncer { remaining: events })
        .unwrap();
    let b = arch
        .add_component("b", Bouncer { remaining: events })
        .unwrap();
    let bus = arch.add_connector("bus");
    arch.weld(a, bus).unwrap();
    arch.weld(b, bus).unwrap();
    if monitored {
        arch.attach_monitor(bus, EventFrequencyMonitor::new())
            .unwrap();
    }
    arch.publish("a", Event::notification("bounce")).unwrap();
    arch.pump(SimTime::ZERO)
}

fn bench_monitoring(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_pump_10k");
    group.bench_function("monitors_off", |b| b.iter(|| pump(false, 10_000)));
    group.bench_function("monitors_on", |b| b.iter(|| pump(true, 10_000)));
    group.finish();
}

/// The first 130 unordered pairs of 17 components.
fn pairs_130() -> Vec<(Symbol, Symbol)> {
    let names: Vec<Symbol> = (0..17)
        .map(|i| format!("component-{i:02}").into())
        .collect();
    let pairs = (0..17).flat_map(|i| (i + 1..17).map(move |j| (i, j)));
    pairs.take(130).map(|(i, j)| (names[i], names[j])).collect()
}

/// What an admin does every window but for the two stability gauges: roll
/// the named-send and the connector monitor (each pair seen from one end by
/// the one and from the other end by the other), merge, fill in a snapshot
/// and encode it. The 260 observations that refill the window are in the
/// timed loop too; `event_pump_10k` says what those cost.
fn bench_window_close(c: &mut Criterion) {
    let pairs = pairs_130();
    let event = Event::notification("n").with_size(96);
    let window = Duration::from_secs_f64(2.0);
    let (mut named, mut bus) = (EventFrequencyMonitor::new(), EventFrequencyMonitor::new());
    let components: BTreeMap<String, String> = (0..4)
        .map(|i| (format!("component-{i:02}"), "workload".to_owned()))
        .collect();
    let reliabilities: BTreeMap<HostId, f64> = (1..32).map(|h| (HostId::new(h), 0.9)).collect();
    let mut now = SimTime::ZERO;
    let mut close = move || {
        for &(a, b) in &pairs {
            named.observe(a, b, &event, now);
            bus.observe(b, a, &event, now);
        }
        now += window;
        let (frequencies, event_sizes) =
            FrequencyWindow::estimates(&[&named.roll_window(now), &bus.roll_window(now)]);
        MonitoringSnapshot {
            host: HostId::new(0),
            components: components.clone(),
            frequencies,
            event_sizes,
            reliabilities: reliabilities.clone(),
            taken_at_secs: now.as_secs_f64(),
        }
    };

    let mut group = c.benchmark_group("monitor_window_close");
    group.bench_function("130_pairs", |b| b.iter(|| close().encode()));
    group.finish();

    let snapshot = close();
    let bytes = snapshot.encode();
    assert_eq!(snapshot.frequencies.len(), 130);
    let mut group = c.benchmark_group("snapshot_codec");
    group.bench_function("encode/130_pairs", |b| b.iter(|| snapshot.encode()));
    group.bench_function("decode/130_pairs", |b| {
        b.iter(|| MonitoringSnapshot::decode(&bytes).unwrap())
    });
    group.finish();
}

fn bench_objectives(c: &mut Criterion) {
    let s = Generator::generate(&GeneratorConfig::sized(8, 40).with_seed(1)).unwrap();
    let mut group = c.benchmark_group("objective_eval_8x40");
    group.bench_function("availability", |b| {
        b.iter(|| Availability.evaluate(&s.model, &s.initial))
    });
    group.bench_function("latency", |b| {
        b.iter(|| Latency::new().evaluate(&s.model, &s.initial))
    });
    group.finish();
}

fn bench_telemetry(c: &mut Criterion) {
    let tele = Telemetry::new(4096);
    let counter = tele.metrics().counter("bench.counter");
    let histogram = tele
        .metrics()
        .histogram("bench.hist", &[1.0, 10.0, 100.0, 1000.0]);
    let disabled = Telemetry::disabled();

    let mut group = c.benchmark_group("telemetry_hot_path");
    group.bench_function("counter_inc", |b| b.iter(|| counter.inc()));
    group.bench_function("histogram_observe", |b| b.iter(|| histogram.observe(42.0)));
    let mut t = 0u64;
    group.bench_function("event_record_2_fields", |b| {
        b.iter(|| {
            t += 1;
            tele.event("bench.event", t)
                .field("a", 1u64)
                .field("b", "x")
                .emit();
        })
    });
    group.bench_function("event_record_disabled", |b| {
        b.iter(|| disabled.event("bench.event", 1).field("a", 1u64).emit())
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_monitoring,
    bench_window_close,
    bench_objectives,
    bench_telemetry
);
criterion_main!(benches);
