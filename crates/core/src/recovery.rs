//! What a framework does when a redeployment does not finish cleanly, and
//! the `core.recovery` records both frameworks journal about it.
//!
//! The paper's target environments — fluctuating wireless links, hosts that
//! crash and restart — make incomplete redeployments a normal outcome, not
//! an exceptional one. A framework that errors out of its improvement loop
//! on the first unfinished move stalls exactly when it is needed most.
//! [`RecoveryPolicy`] bounds the reaction: re-issue the unfinished moves a
//! bounded number of times, then *reconcile* — accept the placement the
//! running system actually reached, fold it back into the model, and
//! resynchronize every host's directory so the next cycle starts from
//! consistent (if degraded) state.
//!
//! Both frameworks end a cycle with the same tail, written once here and in
//! [`SystemRuntime`]: `drain_crash_replays` surfaces the hosts' durable
//! replays, `SystemRuntime::settle` waits out an effect attempt,
//! `reconcile` follows the placement reached when the attempts run out, and
//! `guard_drift` folds in moves that landed after their cycle gave up on
//! them. Each of the three journals one `core.recovery` mode:
//! `crash-replay`, `reconcile` and `drift`.

use crate::runtime::SystemRuntime;
use redep_desi::SystemData;
use redep_telemetry::{SpanIdGen, TraceCtx};
use std::collections::BTreeSet;

/// Policy applied when an effected redeployment is still unfinished after
/// its wait budget (some moves failed or remained in flight): re-effect the
/// unfinished moves until the attempt budget is spent (each re-effect opens
/// a fresh redeployment epoch), then reconcile the model with the running
/// system's actual placement and report a degraded-but-consistent cycle.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RecoveryPolicy {
    max_effect_attempts: u32,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy::reconcile(2)
    }
}

impl RecoveryPolicy {
    /// A policy allowing `max_effect_attempts` effect attempts per cycle
    /// (the initial effect counts as the first attempt) before reconciling.
    ///
    /// # Panics
    ///
    /// Panics when `max_effect_attempts` is 0: the initial effect counts as
    /// the first attempt, so a budget of 0 cannot be honored.
    pub fn reconcile(max_effect_attempts: u32) -> Self {
        assert!(
            max_effect_attempts >= 1,
            "Reconcile requires max_effect_attempts >= 1 (the initial effect \
             is the first attempt)"
        );
        RecoveryPolicy {
            max_effect_attempts,
        }
    }

    /// Total effect attempts this policy allows per cycle.
    pub fn effect_attempts(self) -> u32 {
        self.max_effect_attempts
    }
}

/// Drains the crash recoveries (durable checkpoint + journal replays) that
/// happened while the system ran, journals each as a `core.recovery` event
/// with `mode = crash-replay` under `cycle`, and returns the moves whose
/// landing a restarted host *proved* by replaying the migrant's attach
/// record — so the cycle's decisions read verified facts about what each
/// restarted host recovered instead of inferring them from monitoring
/// silence.
pub(crate) fn drain_crash_replays(
    runtime: &mut SystemRuntime,
    tracer: &SpanIdGen,
    cycle: TraceCtx,
) -> BTreeSet<String> {
    let reports = runtime.drain_recovery_reports();
    let now_us = runtime.sim().now().as_micros();
    for report in &reports {
        // Timestamped at the drain (the restart itself happened outside
        // this cycle's span); the restart instant rides in a field.
        runtime
            .telemetry()
            .event("core.recovery", now_us)
            .field("mode", "crash-replay")
            .field("recovered_at_us", report.at.as_micros())
            .field("host", report.host.raw())
            .field("checkpoint_seq", report.checkpoint_seq)
            .field("replayed", report.replayed)
            .field("state_equiv", report.state_equiv)
            .field("verdicts", report.verdicts.len())
            .field("completed", report.completed())
            .trace(tracer.child(&cycle))
            .emit();
    }
    reports
        .iter()
        .flat_map(|r| r.completed_moves().map(str::to_owned))
        .collect()
}

/// Gives up on an unfinished redeployment: `system` follows the placement
/// actually reached (`SystemRuntime::follow_actual`) and a `core.recovery`
/// event with `mode = reconcile` records the `unfinished` moves under the
/// framework's own field name.
pub(crate) fn reconcile(
    runtime: &mut SystemRuntime,
    system: &mut SystemData,
    (field, unfinished): (&'static str, usize),
    tracer: &SpanIdGen,
    cycle: TraceCtx,
) {
    runtime.follow_actual(system);
    runtime
        .telemetry()
        .event("core.recovery", runtime.sim().now().as_micros())
        .field("mode", "reconcile")
        .field(field, unfinished)
        .field("measured_availability", runtime.measured_availability())
        .trace(tracer.child(&cycle))
        .emit();
}

/// The end-of-cycle drift guard. A transfer from an earlier epoch can land
/// *after* its cycle settled or reconciled without it (reliable channels
/// retransmit through arbitrarily long outages), silently re-materializing a
/// component the model gave up on — even when the current cycle completed.
/// So no cycle ends with `system` diverging from the running system: on a
/// mismatch `system` follows the actual placement and a `core.recovery`
/// event with `mode = drift` is journaled. Returns whether it drifted.
pub(crate) fn guard_drift(
    runtime: &mut SystemRuntime,
    system: &mut SystemData,
    tracer: &SpanIdGen,
    cycle: TraceCtx,
) -> bool {
    if system.deployment() == &runtime.actual_deployment_by_id() {
        return false;
    }
    runtime.follow_actual(system);
    runtime
        .telemetry()
        .event("core.recovery", runtime.sim().now().as_micros())
        .field("mode", "drift")
        .trace(tracer.child(&cycle))
        .emit();
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_reconciles_with_a_retry() {
        assert_eq!(RecoveryPolicy::default(), RecoveryPolicy::reconcile(2));
        assert_eq!(RecoveryPolicy::default().effect_attempts(), 2);
    }

    #[test]
    fn reconcile_constructor_accepts_positive_budgets() {
        assert_eq!(RecoveryPolicy::reconcile(3).effect_attempts(), 3);
        assert_eq!(RecoveryPolicy::reconcile(1).effect_attempts(), 1);
    }

    #[test]
    #[should_panic(expected = "max_effect_attempts >= 1")]
    fn reconcile_constructor_rejects_zero() {
        let _ = RecoveryPolicy::reconcile(0);
    }
}
