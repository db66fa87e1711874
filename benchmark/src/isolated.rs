//! Isolated costs of single layers, measured from outside.
//!
//! Each `*_ns` times a tight loop of calls into one layer's *public*
//! functions, on inputs shaped by what the workload was observed doing
//! (sizes, depths, components per host). Multiplied by how often the
//! workload did that, it yields the layer's *estimated* share of the
//! simulation's wall time. They are estimates: an isolated loop runs with
//! warm caches and without the interleaving of the real run, and what has no
//! public entry point (`ReliableChannel`, `WireMsg`, host glue, the shard
//! barrier) cannot be timed at all — that remainder is reported as
//! `prism.unattributed_share`.

use crate::report::{ratio, Layers};
use crate::workloads::{ShareBase, SimWindow};
use redep_model::{
    CompiledModel, CompiledObjective, DeploymentModel, GeneratedSystem, Hierarchy, HierarchyConfig,
    HostId, IncrementalScore, PartKind,
};
use redep_netsim::{
    CalendarQueue, Duration, LinkSpec, NetworkTopology, Node, NodeCtx, SimTime, Simulator,
};
use redep_prism::{
    Architecture, Checkpoint, ComponentBehavior, ComponentCtx, DurableStore, Event, JournalRecord,
};
use redep_telemetry::Telemetry;
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::time::Instant;

/// Calls per isolated loop (the smoke test uses [`SMOKE_CALLS`]).
const CALLS: u64 = 200_000;
const SMOKE_CALLS: u64 = 2_000;

/// One remote interaction a host's components keep up: destination host,
/// period in simulated microseconds, modelled event size.
type Send = (HostId, u64, u64);

/// What a simulated workload looked like, for shaping the isolated loops.
#[derive(Clone, Debug, Default)]
pub struct SimShape {
    links: Vec<(HostId, HostId, LinkSpec)>,
    sends: BTreeMap<HostId, Vec<Send>>,
    hosts: Vec<HostId>,
    comps_per_host: usize,
    components: usize,
    event_size: u64,
    wire_bytes: usize,
    queue_depth: usize,
    record_bytes: usize,
    tail_records: usize,
}

impl SimShape {
    /// Derives the shape from a generated system and the counts of one
    /// timed window on it.
    pub fn observe(system: &GeneratedSystem, window: &SimWindow, in_flight: Option<u64>) -> Self {
        let model = &system.model;
        let topo = NetworkTopology::from_model(model);
        let links: Vec<_> = topo
            .links()
            .map(|(pair, state)| (pair.lo(), pair.hi(), state.spec))
            .collect();
        let linked: BTreeSet<(HostId, HostId)> = links
            .iter()
            .flat_map(|&(a, b, _)| [(a, b), (b, a)])
            .collect();
        let mut sends: BTreeMap<HostId, Vec<Send>> = BTreeMap::new();
        let (mut interactions, mut size_sum) = (0usize, 0.0);
        for link in model.logical_links() {
            if link.frequency() <= 0.0 {
                continue;
            }
            interactions += 1;
            size_sum += link.event_size();
            let from = system.initial.host_of(link.ends().lo());
            let to = system.initial.host_of(link.ends().hi());
            let (Some(from), Some(to)) = (from, to) else {
                continue;
            };
            if from == to {
                continue;
            }
            // The bare simulator does not forward: a destination that is
            // not a neighbour is replaced by the first neighbour, which
            // keeps one hop's worth of scheduler work per send.
            let to = if linked.contains(&(from, to)) {
                Some(to)
            } else {
                model.neighbors(from).into_iter().next()
            };
            if let Some(to) = to {
                sends.entry(from).or_default().push((
                    to,
                    (1e6 / link.frequency()).max(1.0) as u64,
                    link.event_size().max(1.0) as u64,
                ));
            }
        }
        let hosts = model.host_ids();
        let components = model.component_count();
        SimShape {
            links,
            sends,
            comps_per_host: components.div_ceil(hosts.len().max(1)),
            components,
            hosts,
            event_size: (size_sum / interactions.max(1) as f64).max(1.0) as u64,
            wire_bytes: ratio(window.codec_bytes as f64, window.net.sent as f64).max(16.0) as usize,
            // Queued: messages in flight plus one pending timer per
            // interaction.
            queue_depth: in_flight.unwrap_or(window.net.sent / 8) as usize + interactions,
            record_bytes: ratio(
                window.tally.durable_bytes as f64,
                window.tally.durable_records as f64,
            )
            .max(8.0) as usize,
            tail_records: ratio(
                window.tally.durable_records as f64,
                window.tally.durable_checkpoints.max(1) as f64,
            )
            .max(1.0) as usize,
        }
    }
}

/// A deterministic stream for shaping loop inputs (splitmix64).
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

fn ns_per_call(started: Instant, calls: u64) -> f64 {
    started.elapsed().as_nanos() as f64 / calls.max(1) as f64
}

/// One pop plus one push on a `CalendarQueue` held at `depth` entries, with
/// the workload's delay mix: link delays of 0.1–5 s and interaction periods
/// from 0.1 s up.
fn calendar_push_pop_ns(depth: usize, calls: u64) -> f64 {
    let mut mix = Mix(7);
    let mut delay = move || {
        let r = mix.next();
        if r & 1 == 0 {
            100_000 + (r >> 1) % 4_900_000
        } else {
            100_000 + (r >> 1) % 900_000
        }
    };
    let mut queue = CalendarQueue::new();
    let mut seq = 0u64;
    for _ in 0..depth.max(1) {
        queue.push(SimTime::from_micros(delay()), seq, seq);
        seq += 1;
    }
    let started = Instant::now();
    for _ in 0..calls {
        let (at, _, item) = queue.pop().expect("the queue is held at depth");
        queue.push(SimTime::from_micros(at.as_micros() + delay()), seq, item);
        seq += 1;
    }
    black_box(queue.len());
    ns_per_call(started, calls)
}

/// A host that only keeps up its send schedule: no middleware at all.
struct StubHost {
    sends: Vec<Send>,
    payload: Vec<u8>,
}

impl Node for StubHost {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        for (token, &(_, period, _)) in self.sends.iter().enumerate() {
            ctx.set_timer(Duration::from_micros(period), token as u64);
        }
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, token: u64) {
        let (dst, period, size) = self.sends[token as usize];
        ctx.send(dst, self.payload.clone(), size);
        ctx.set_timer(Duration::from_micros(period), token);
    }
}

/// Wall nanoseconds per simulator event with the workload's topology and
/// send schedule but stub hosts: what the scheduler and the link model cost
/// on their own.
fn bare_event_ns(shape: &SimShape, calls: u64) -> f64 {
    let mut sim = Simulator::new(1);
    for &h in &shape.hosts {
        sim.add_host(
            h,
            StubHost {
                sends: shape.sends.get(&h).cloned().unwrap_or_default(),
                payload: vec![0u8; shape.wire_bytes],
            },
        );
    }
    for &(a, b, spec) in &shape.links {
        sim.set_link(a, b, spec);
    }
    // Fill the links first, so the timed part runs at the steady in-flight
    // depth (the longest link delay is 5 s).
    sim.run_for(Duration::from_secs_f64(6.0));
    let mut events = 0;
    let started = Instant::now();
    for _ in 0..600 {
        events += sim.run_for(Duration::from_millis(100));
        if events >= calls {
            break;
        }
    }
    ns_per_call(started, events)
}

fn app_event(shape: &SimShape) -> Event {
    Event::notification("app.interaction").with_size(shape.event_size)
}

fn codec_ns(shape: &SimShape, calls: u64) -> (f64, f64) {
    let event = app_event(shape);
    let started = Instant::now();
    for _ in 0..calls {
        black_box(black_box(&event).encode().expect("events encode"));
    }
    let encode = ns_per_call(started, calls);
    let bytes = event.encode().expect("events encode");
    let started = Instant::now();
    for _ in 0..calls {
        black_box(Event::decode(black_box(&bytes)).expect("encoded events decode"));
    }
    (encode, ns_per_call(started, calls))
}

/// Receives and does nothing: the routing cost alone.
struct Sink;

impl ComponentBehavior for Sink {
    fn type_name(&self) -> &str {
        "bench.sink"
    }
    fn handle(&mut self, _ctx: &mut ComponentCtx<'_>, _event: &Event) {}
}

/// `Architecture::publish` + `pump` of one event into one of the host's
/// components, all welded to one bus as `PrismHost` welds them.
fn route_ns(shape: &SimShape, calls: u64) -> f64 {
    let mut arch = Architecture::new("bench", HostId::new(0));
    let bus = arch.add_connector("bus");
    let names: Vec<String> = (0..shape.comps_per_host.max(1))
        .map(|i| format!("comp-{i}"))
        .collect();
    for name in &names {
        let id = arch
            .add_component(name.clone(), Sink)
            .expect("fresh names are unique");
        arch.weld(id, bus).expect("both bricks exist");
    }
    let event = app_event(shape);
    let started = Instant::now();
    for i in 0..calls {
        arch.publish(&names[i as usize % names.len()], event.clone())
            .expect("the component exists");
        black_box(arch.pump(SimTime::from_micros(i)));
    }
    ns_per_call(started, calls)
}

/// A delivery record whose framed size matches the workload's mean record.
fn delivery_record(shape: &SimShape) -> JournalRecord {
    JournalRecord::Delivery {
        component: "comp-0".to_owned(),
        event: vec![0xA5; shape.record_bytes.saturating_sub(10).max(1)],
    }
}

fn checkpoint_of(shape: &SimShape) -> Checkpoint {
    Checkpoint {
        seq: 1,
        at_us: 8_000_000,
        components: (0..shape.comps_per_host)
            .map(|i| {
                (
                    format!("comp-{i}"),
                    "redep.workload".to_owned(),
                    vec![0x5A; 256],
                )
            })
            .collect(),
        directory: (0..shape.components)
            .map(|i| (format!("comp-{i}"), (i % shape.hosts.len().max(1)) as u32))
            .collect(),
        channels: (0..shape.hosts.len() as u32)
            .map(|h| (h, 100, 100))
            .collect(),
        ..Checkpoint::default()
    }
}

/// `(append ns, checkpoint ms, recover ms)` of a `DurableStore` at the
/// workload's record size, host size and journal-tail length.
fn durable_costs(shape: &SimShape, calls: u64) -> (f64, f64, f64) {
    let record = delivery_record(shape);
    let mut store = DurableStore::in_memory();
    let started = Instant::now();
    for _ in 0..calls {
        store.append(black_box(&record));
    }
    let append = ns_per_call(started, calls);

    let checkpoint = checkpoint_of(shape);
    let rounds = (calls / 1000).max(5);
    let started = Instant::now();
    for _ in 0..rounds {
        store.checkpoint(black_box(&checkpoint));
    }
    let checkpoint_ms = ns_per_call(started, rounds) * 1e-6;

    let mut store = DurableStore::in_memory();
    store.checkpoint(&checkpoint);
    for _ in 0..shape.tail_records {
        store.append(&record);
    }
    let rounds = (calls / 10_000).max(3);
    let started = Instant::now();
    for _ in 0..rounds {
        black_box(store.recover());
    }
    (append, checkpoint_ms, ns_per_call(started, rounds) * 1e-6)
}

/// `(counter ns, disabled event ns, enabled event ns)` of the telemetry
/// handle, with the two fields a typical middleware record carries.
fn telemetry_costs(calls: u64) -> (f64, f64, f64) {
    let counter = Telemetry::disabled().metrics().counter("bench.counter");
    let started = Instant::now();
    for _ in 0..calls {
        black_box(&counter).inc();
    }
    let counter_ns = ns_per_call(started, calls);
    let emit = |telemetry: &Telemetry| {
        let started = Instant::now();
        for i in 0..calls {
            telemetry
                .event("bench.event", i)
                .field("host", 3u32)
                .field("bytes", i)
                .emit();
        }
        ns_per_call(started, calls)
    };
    let disabled = emit(&Telemetry::disabled());
    // Large enough never to drop: an overflowing ring would time the drop
    // path instead of the record path.
    let enabled = emit(&Telemetry::new(calls as usize + 1));
    (counter_ns, disabled, enabled)
}

/// Runs every isolated loop of the simulated workloads and derives each
/// layer's estimated share of the simulation's wall time over `base`.
/// `journaling` says whether the workload ran with an enabled telemetry
/// handle.
pub fn sim_costs(
    layers: &mut Layers,
    shape: &SimShape,
    base: &ShareBase,
    smoke: bool,
    journaling: bool,
) {
    let calls = if smoke { SMOKE_CALLS } else { CALLS };
    let calendar = calendar_push_pop_ns(shape.queue_depth, calls);
    let bare = bare_event_ns(shape, calls);
    let (encode, decode) = codec_ns(shape, calls);
    let route = route_ns(shape, calls);
    let (append, checkpoint_ms, recover_ms) = durable_costs(shape, calls);
    let (counter_ns, disabled_ns, enabled_ns) = telemetry_costs(calls);
    layers.set("netsim.calendar.push_pop_ns", calendar);
    layers.set("netsim.bare_event_ns", bare);
    layers.set("prism.codec.encode_ns", encode);
    layers.set("prism.codec.decode_ns", decode);
    layers.set("prism.architecture.route_ns", route);
    layers.set("prism.durable.append_ns", append);
    layers.set("prism.durable.checkpoint_ms", checkpoint_ms);
    layers.set("prism.durable.recover_ms", recover_ms);
    layers.set("telemetry.counter_ns", counter_ns);
    layers.set("telemetry.event_disabled_ns", disabled_ns);
    layers.set("telemetry.event_enabled_ns", enabled_ns);

    // Shares of the simulation's wall time: cost per call × calls observed.
    let run_ns = base.run_s * 1e9;
    let netsim = ratio(bare * base.sim_events, run_ns);
    // Every network message is one encoded frame, every delivery one decode.
    let codec = ratio(encode * base.sent + decode * base.delivered, run_ns);
    let architecture = ratio(route * base.routed, run_ns);
    let durable = ratio(
        append * base.durable_records
            + checkpoint_ms * 1e6 * base.durable_checkpoints
            + recover_ms * 1e6 * base.recoveries,
        run_ns,
    );
    let telemetry = if journaling {
        ratio(enabled_ns * base.journal_records, run_ns)
    } else {
        0.0
    };
    layers.set("netsim.share", netsim);
    layers.set("prism.codec.share", codec);
    layers.set("prism.architecture.share", architecture);
    layers.set("prism.durable.share", durable);
    layers.set("telemetry.share", telemetry);
    layers.set(
        "prism.unattributed_share",
        1.0 - netsim - codec - architecture - durable - telemetry,
    );
}

/// Isolated costs of the compiled evaluation core on `model`:
/// `model.compile_s`, `model.hierarchy_build_s`, and `IncrementalScore`
/// `peek`/`set`/`score_full`.
pub fn model_costs(layers: &mut Layers, model: &DeploymentModel, assign_from: &[u32], smoke: bool) {
    let calls = if smoke { SMOKE_CALLS } else { CALLS };
    let started = Instant::now();
    let compiled = CompiledModel::compile(black_box(model));
    layers.set("model.compile_s", started.elapsed().as_secs_f64());
    let started = Instant::now();
    black_box(Hierarchy::build(&compiled, &HierarchyConfig::default()));
    layers.set("model.hierarchy_build_s", started.elapsed().as_secs_f64());

    let objective = CompiledObjective::single(PartKind::Availability);
    let mut score = IncrementalScore::new(&compiled, &objective);
    score.assign_from(assign_from);
    let (n_comps, n_hosts) = (compiled.n_comps() as u64, compiled.n_hosts() as u64);
    let mut mix = Mix(11);
    let mut pick = move || {
        let r = mix.next();
        ((r % n_comps) as u32, ((r >> 32) % n_hosts) as u32)
    };
    let started = Instant::now();
    for _ in 0..calls {
        let (c, h) = pick();
        black_box(score.peek(c, h));
    }
    layers.set("model.eval.peek_ns", ns_per_call(started, calls));
    let started = Instant::now();
    for _ in 0..calls {
        let (c, h) = pick();
        score.set(c, h);
    }
    layers.set("model.eval.set_ns", ns_per_call(started, calls));
    let rounds = (calls / 1000).max(5);
    let started = Instant::now();
    for _ in 0..rounds {
        black_box(score.score_full());
    }
    layers.set(
        "model.eval.score_full_us",
        ns_per_call(started, rounds) * 1e-3,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_deterministic() {
        let (mut a, mut b) = (Mix(3), Mix(3));
        assert!((0..8).all(|_| a.next() == b.next()));
        assert_ne!(Mix(3).next(), Mix(4).next());
    }

    #[test]
    fn calendar_loop_keeps_its_depth() {
        // The loop pops and pushes in pairs; a wrong delay mix that emptied
        // the queue would panic inside.
        assert!(calendar_push_pop_ns(64, 1_000) > 0.0);
    }
}
