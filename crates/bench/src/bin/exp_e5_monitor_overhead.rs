//! E5 (§4.3): monitoring overhead.
//!
//! "Our assessment of Prism-MW's monitoring support suggests that monitoring
//! on each host may induce as little as 0.1% and no greater than 10% in
//! memory and efficiency overheads."
//!
//! Measured here as event-pumping throughput of an architecture with its
//! connector monitor enabled vs. absent, plus the monitor's memory
//! footprint relative to the host runtime's working state. This is the price
//! of the *tap* alone, in a bare pump that does nothing else; what closing a
//! window, encoding the report and decoding it at the deployer add is told
//! by `exp_e6_pipeline`'s steady cell and the `monitor_window_close` /
//! `snapshot_codec` Criterion benches (EXPERIMENTS.md § E5, "in the
//! pipeline").

use redep_bench::{fmt_f, print_table, Bound, ExpReport};
use redep_model::HostId;
use redep_netsim::{Duration, SimTime};
use redep_prism::{Architecture, ComponentBehavior, ComponentCtx, Event, EventFrequencyMonitor};
use std::time::Instant;

/// Bounces events back and forth `hops` times.
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

fn throughput(monitored: bool, events: u32) -> (f64, u64) {
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
        arch.attach_monitor(
            bus,
            EventFrequencyMonitor::new(Duration::from_secs_f64(1.0)),
        )
        .unwrap();
    }
    arch.publish("a", Event::notification("bounce")).unwrap();
    let started = Instant::now();
    let processed = arch.pump(SimTime::ZERO);
    let secs = started.elapsed().as_secs_f64();
    (processed as f64 / secs, processed)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    const EVENTS: u32 = 300_000;
    // Warm up, then interleave measurements to be fair to both.
    let _ = throughput(false, 10_000);
    let _ = throughput(true, 10_000);
    let mut plain = Vec::new();
    let mut monitored = Vec::new();
    for _ in 0..5 {
        plain.push(throughput(false, EVENTS).0);
        monitored.push(throughput(true, EVENTS).0);
    }
    let p = redep_bench::mean(&plain);
    let m = redep_bench::mean(&monitored);
    let overhead = (p - m) / p * 100.0;

    // Memory: a frequency monitor keeps one counter slot per observed
    // component pair (two interned names + two u64 counters) and one index
    // entry pointing at it (u64 key, usize slot, one control byte) plus the
    // struct header — compare against a conservative 64 KiB PDA-class
    // middleware image (the deployment target the paper measured on).
    let per_pair = std::mem::size_of::<redep_prism::monitor::PairCount>() + 8 + 8 + 1;
    let monitor_bytes = std::mem::size_of::<EventFrequencyMonitor>() + 2 * per_pair;
    let mem_overhead = monitor_bytes as f64 / (64.0 * 1024.0) * 100.0;

    print_table(
        "E5: monitoring overhead (event-frequency monitor on the bus connector)",
        &["configuration", "events/s", "relative"],
        &[
            vec!["monitors off".into(), fmt_f(p), "1.000".into()],
            vec!["monitors on".into(), fmt_f(m), fmt_f(m / p)],
            vec![
                "throughput overhead".into(),
                format!("{overhead:.2}%"),
                "".into(),
            ],
            vec![
                "memory overhead (est.)".into(),
                format!("{mem_overhead:.2}%"),
                "".into(),
            ],
        ],
    );

    let mut report = ExpReport::new("e5", "monitoring overhead (§4.3)");
    report
        .metric("throughput_plain_events_per_s", p)
        .metric("throughput_monitored_events_per_s", m)
        .gate("throughput_overhead_pct", overhead, Bound::AtMost(15.0))
        .metric("memory_overhead_pct", mem_overhead)
        .note("paper's bound: 0.1%-10% overhead; the gate leaves room for wall-clock noise");
    report.finish()
}
