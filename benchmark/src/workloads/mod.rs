//! The five workloads and what they share: the run configuration, the
//! counters read off the running system through public accessors, and the
//! per-layer sums of the simulated workloads.

pub mod cycle;
pub mod fault;
pub mod pipeline;
pub mod place;

use crate::report::{ratio, Digest, Layers, Outcome};
use crate::trace::Tracer;
use redep_core::SystemRuntime;
use redep_netsim::{NetStats, SimTime};
use redep_prism::PrismHost;
use redep_telemetry::{Counter, Telemetry};

/// Names and one-line reasons, mirrored by `BENCHMARK.json`.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "pipeline-steady",
        "steady-state event pipeline on the single-queue engine: netsim scheduler and prism hot path do all the work, algorithms none",
    ),
    (
        "pipeline-sharded",
        "the same systems on the sharded engine (2 shards): the same prism layer through barriers and mailboxes, so a gain for one engine that costs the other shows",
    ),
    (
        "redeploy-cycle",
        "the whole paper loop, centralized: monitor, analyze, effect and settle on a clean network; wall time splits between simulated settle time, the desi adapter and analysis",
    ),
    (
        "fault-recover",
        "decentralized loop under a scripted crash, partition and degrade with journaling on: durable replay, retransmission and recovery, the same layers used differently",
    ),
    (
        "place-scale",
        "hierarchical placement at 200x2000 and 1000x10000: model and algorithms do all the work, netsim and prism none, the bypass workload for runtime optimisations",
    ),
];

/// What one run was asked to do.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct RunConfig {
    /// The workload seed; every input derives from it.
    pub seed: u64,
    /// Sizes every timed script: at the recorded baseline a script of
    /// `seconds` takes about that long on the reference box.
    pub seconds: f64,
    /// Tiny systems and scripts, for the smoke test.
    pub smoke: bool,
}

/// Runs the named workload.
///
/// # Errors
///
/// Returns the unknown name.
pub fn run(name: &str, cfg: &RunConfig, tracer: &mut Tracer) -> Result<Outcome, String> {
    match name {
        "pipeline-steady" => Ok(pipeline::run(cfg, tracer, false)),
        "pipeline-sharded" => Ok(pipeline::run(cfg, tracer, true)),
        "redeploy-cycle" => Ok(cycle::run(cfg, tracer)),
        "fault-recover" => Ok(fault::run(cfg, tracer)),
        "place-scale" => Ok(place::run(cfg, tracer)),
        other => Err(format!(
            "unknown workload '{other}'; expected one of: {}",
            WORKLOADS
                .iter()
                .map(|(n, _)| *n)
                .collect::<Vec<_>>()
                .join(", ")
        )),
    }
}

/// Records the process's peak resident memory once the repetitions are
/// done — before the traced run's isolated loops allocate anything.
pub fn note_memory(out: &mut Outcome) {
    let peak = crate::rss::peak_rss_mb();
    out.layers.set("bench.peak_rss_mb", peak);
    out.notes.push(format!(
        "peak resident memory after the scripts: {peak:.1} MB"
    ));
}

/// A script length proportional to `--seconds`: `per_second` units for each
/// second asked for, never fewer than `min`.
pub fn script_units(seconds: f64, per_second: f64, min: u64) -> u64 {
    ((seconds * per_second).round() as u64).max(min)
}

/// A struct of monotonic `u64` counters: a window is the difference of two
/// readings, and `fields` lists every counter by name, so a counter added
/// here cannot be forgotten by the digest or the per-layer sums.
macro_rules! counters {
    ($(#[$doc:meta])* $name:ident { $($field:ident),* $(,)? }) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
        pub struct $name {
            $(pub $field: u64,)*
        }

        impl $name {
            /// `self - earlier`, field by field.
            pub fn since(&self, earlier: &$name) -> $name {
                $name {
                    $($field: self.$field - earlier.$field,)*
                }
            }

            /// Every counter with its name, in declaration order.
            pub fn fields(&self) -> Vec<(&'static str, u64)> {
                vec![$((stringify!($field), self.$field),)*]
            }
        }
    };
}

counters! {
    /// Middleware counters summed over hosts, read through `PrismHost`'s
    /// public accessors.
    Tally {
        app_emitted,
        app_received,
        control_sent,
        retransmissions,
        events_buffered,
        events_replayed,
        events_undeliverable,
        frames_forwarded,
        frames_unroutable,
        durable_records,
        durable_bytes,
        durable_checkpoints,
        durable_replayed,
        recoveries,
        recovery_verdicts,
        recoveries_not_equivalent,
    }
}

counters! {
    /// The network's own aggregate counters.
    NetCounts {
        sent,
        delivered,
        dropped_loss,
        dropped_disconnected,
    }
}

impl Tally {
    /// Sums the counters of `hosts`.
    pub fn of<'a>(hosts: impl Iterator<Item = &'a PrismHost>) -> Tally {
        let mut t = Tally::default();
        for host in hosts {
            let s = host.services().stats();
            t.app_emitted += s.app_events_emitted;
            t.app_received += s.app_events_received;
            t.control_sent += s.control_sent;
            t.retransmissions += s.retransmissions;
            t.events_buffered += s.events_buffered;
            t.events_replayed += s.events_replayed;
            t.events_undeliverable += s.events_undeliverable;
            t.frames_forwarded += s.frames_forwarded;
            t.frames_unroutable += s.frames_unroutable;
            let durable = host.services().durable();
            t.durable_records += durable.records_appended();
            t.durable_bytes += durable.bytes_appended();
            t.durable_checkpoints += durable.checkpoints_written();
            for report in host.recovery_reports() {
                t.recoveries += 1;
                t.durable_replayed += report.replayed;
                t.recovery_verdicts += report.verdicts.len() as u64;
                t.recoveries_not_equivalent += u64::from(!report.state_equiv);
            }
        }
        t
    }

    /// Received ÷ emitted application events; 1 when nothing was emitted.
    pub fn availability(&self) -> f64 {
        if self.app_emitted == 0 {
            1.0
        } else {
            self.app_received as f64 / self.app_emitted as f64
        }
    }
}

impl NetCounts {
    /// Reads the aggregate counters of `stats`.
    pub fn of(stats: &NetStats) -> NetCounts {
        NetCounts {
            sent: stats.sent,
            delivered: stats.delivered,
            dropped_loss: stats.dropped_loss,
            dropped_disconnected: stats.dropped_disconnected,
        }
    }
}

/// Reads every counter of a running system: the hosts' through their public
/// accessors, the pipeline's through the telemetry handles (one for the
/// single-queue engine, one per shard for the sharded one).
pub struct Probe {
    handles: Vec<Telemetry>,
    routed: Vec<Counter>,
    bytes: Vec<Counter>,
}

/// One reading of a [`Probe`]; a window is the difference of two.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Reading {
    tally: Tally,
    net: NetCounts,
    routed: u64,
    bytes: u64,
    journal_records: u64,
    now_us: u64,
}

impl Probe {
    /// A probe on the handles the system's hosts count into.
    pub fn new(handles: Vec<Telemetry>) -> Probe {
        let of = |name: &str| handles.iter().map(|t| t.metrics().counter(name)).collect();
        Probe {
            routed: of("pipeline.events.routed"),
            bytes: of("pipeline.codec.bytes"),
            handles,
        }
    }

    /// A probe on the handle `runtime` shares with its hosts (install one
    /// with `set_telemetry` first, or every host counts into its own).
    pub fn on(runtime: &SystemRuntime) -> Probe {
        Probe::new(vec![runtime.telemetry().clone()])
    }

    /// `pipeline.events.routed` now.
    pub fn routed(&self) -> u64 {
        self.routed.iter().map(Counter::get).sum()
    }

    /// Reads the counters now.
    pub fn read<'a>(
        &self,
        hosts: impl Iterator<Item = &'a PrismHost>,
        net: NetCounts,
        now: SimTime,
    ) -> Reading {
        Reading {
            tally: Tally::of(hosts),
            net,
            routed: self.routed(),
            bytes: self.bytes.iter().map(Counter::get).sum(),
            journal_records: self.handles.iter().map(|t| t.journal().len() as u64).sum(),
            now_us: now.as_micros(),
        }
    }

    /// Reads the counters of a single-queue runtime now.
    pub fn read_runtime(&self, runtime: &SystemRuntime) -> Reading {
        self.read(
            runtime.hosts().iter().filter_map(|&h| runtime.host(h)),
            NetCounts::of(runtime.sim().stats()),
            runtime.sim().now(),
        )
    }

    /// Journal records dropped so far.
    pub fn journal_dropped(&self) -> u64 {
        self.handles.iter().map(|t| t.journal().dropped()).sum()
    }
}

impl Reading {
    /// The window from `earlier` to this reading. Simulator events and the
    /// end-of-window gauges are the caller's to fill in.
    pub fn since(&self, earlier: &Reading) -> SimWindow {
        SimWindow {
            tally: self.tally.since(&earlier.tally),
            net: self.net.since(&earlier.net),
            routed: self.routed - earlier.routed,
            codec_bytes: self.bytes - earlier.bytes,
            sim_s: (self.now_us - earlier.now_us) as f64 * 1e-6,
            journal_records: self.journal_records - earlier.journal_records,
            ..SimWindow::default()
        }
    }
}

/// How often a window did what the isolated loops price, and the wall time
/// of the simulation it was observed over: the base of the estimated shares.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct ShareBase {
    pub sim_events: f64,
    pub sent: f64,
    pub delivered: f64,
    pub routed: f64,
    pub durable_records: f64,
    pub durable_checkpoints: f64,
    pub recoveries: f64,
    pub journal_records: f64,
    /// Wall seconds inside the simulator over the same windows.
    pub run_s: f64,
}

impl ShareBase {
    /// Adds a window that took `run_s` wall seconds to simulate.
    pub fn add(&mut self, w: &SimWindow, run_s: f64) {
        self.sim_events += w.sim_events as f64;
        self.sent += w.net.sent as f64;
        self.delivered += w.net.delivered as f64;
        self.routed += w.routed as f64;
        self.durable_records += w.tally.durable_records as f64;
        self.durable_checkpoints += w.tally.durable_checkpoints as f64;
        self.recoveries += w.tally.recoveries as f64;
        self.journal_records += w.journal_records as f64;
        self.run_s += run_s;
    }
}

/// Counts of one repetition's timed script on a simulated workload.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct SimWindow {
    pub tally: Tally,
    pub net: NetCounts,
    /// `pipeline.events.routed` over the window.
    pub routed: u64,
    /// `pipeline.codec.bytes` over the window.
    pub codec_bytes: u64,
    /// Simulator events the harness saw returned by `run_until`/`run_for`
    /// (runs inside an opaque `cycle()` are not visible).
    pub sim_events: u64,
    /// Messages still in flight at the end (single-queue engine only).
    pub in_flight_end: u64,
    /// Simulated seconds the window covered.
    pub sim_s: f64,
    /// Telemetry journal records written over the window, and how many the
    /// journal has dropped.
    pub journal_records: u64,
    pub journal_dropped: u64,
}

impl SimWindow {
    /// Folds every exact count into the digest.
    pub fn digest_into(&self, d: &mut Digest) {
        for (_, v) in self.tally.fields().into_iter().chain(self.net.fields()) {
            d.u64(v);
        }
        for v in [
            self.routed,
            self.codec_bytes,
            self.sim_events,
            self.in_flight_end,
            self.journal_records,
            self.journal_dropped,
        ] {
            d.u64(v);
        }
        d.f64(self.sim_s);
    }

    /// Adds the window's counts to the per-layer sums: the hosts' counters
    /// as `prism.<counter>`, the network's as `netsim.<counter>`.
    pub fn add_to(&self, layers: &mut Layers) {
        for (field, v) in self.tally.fields() {
            // The one counter that is a check, not a per-layer metric.
            if field != "recoveries_not_equivalent" {
                layers.add(&format!("prism.{field}"), v as f64);
            }
        }
        for (field, v) in self.net.fields() {
            layers.add(&format!("netsim.{field}"), v as f64);
        }
        for (name, v) in [
            ("netsim.sim_events", self.sim_events),
            ("netsim.in_flight_end", self.in_flight_end),
            ("prism.events_routed", self.routed),
            ("prism.codec_bytes", self.codec_bytes),
            ("telemetry.journal_records", self.journal_records),
            ("telemetry.journal_dropped", self.journal_dropped),
        ] {
            layers.add(name, v as f64);
        }
    }
}

/// Derives the ratios of the simulated workloads once every repetition has
/// added its counts and the traced times are in.
pub fn finish_sim_ratios(layers: &mut Layers, sim_s: f64) {
    let g = |layers: &Layers, n: &str| layers.get(n);
    let routed = g(layers, "prism.events_routed");
    let run_s = g(layers, "netsim.run_s");
    let sim_events = g(layers, "netsim.sim_events");
    layers.set(
        "netsim.sim_events_per_app_event",
        ratio(sim_events, g(layers, "prism.app_emitted")),
    );
    layers.set(
        "netsim.wall_us_per_sim_event",
        ratio(run_s * 1e6, sim_events),
    );
    layers.set("netsim.wall_s_per_sim_s", ratio(run_s, sim_s));
    layers.set(
        "prism.codec_bytes_per_event",
        ratio(g(layers, "prism.codec_bytes"), routed),
    );
    layers.set(
        "prism.retransmit_ratio",
        ratio(g(layers, "prism.retransmissions"), g(layers, "netsim.sent")),
    );
    layers.set(
        "prism.durable_records_per_event",
        ratio(g(layers, "prism.durable_records"), routed),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn script_length_scales_with_seconds_and_has_a_floor() {
        assert_eq!(script_units(10.0, 1.0, 2), 10);
        assert_eq!(script_units(10.0, 0.4, 2), 4);
        assert_eq!(script_units(1.0, 0.4, 2), 2);
        assert_eq!(script_units(0.0, 5.0, 1), 1);
    }

    #[test]
    fn windows_are_differences_of_monotonic_tallies() {
        let early = Tally {
            app_emitted: 10,
            app_received: 4,
            ..Tally::default()
        };
        let late = Tally {
            app_emitted: 30,
            app_received: 19,
            retransmissions: 2,
            ..Tally::default()
        };
        let window = late.since(&early);
        assert_eq!(window.app_emitted, 20);
        assert_eq!(window.app_received, 15);
        assert_eq!(window.retransmissions, 2);
        assert_eq!(window.availability(), 0.75);
        assert_eq!(Tally::default().availability(), 1.0);
    }

    #[test]
    fn sim_digest_covers_every_count() {
        let base = SimWindow::default();
        let digest_of = |w: &SimWindow| {
            let mut d = Digest::default();
            w.digest_into(&mut d);
            d.value()
        };
        let reference = digest_of(&base);
        assert_eq!(reference, digest_of(&base));
        let mut changed = base;
        changed.tally.events_replayed = 1;
        assert_ne!(reference, digest_of(&changed));
        let mut changed = base;
        changed.net.dropped_loss = 1;
        assert_ne!(reference, digest_of(&changed));
        let mut changed = base;
        changed.sim_s = 0.1;
        assert_ne!(reference, digest_of(&changed));
    }

    #[test]
    fn unknown_workloads_are_refused_by_name() {
        let cfg = RunConfig {
            seed: 1,
            seconds: 1.0,
            smoke: true,
        };
        let err = run("nope", &cfg, &mut Tracer::new(false)).unwrap_err();
        assert!(err.contains("pipeline-steady"));
    }
}
