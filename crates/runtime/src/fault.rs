//! Deterministic fault plans for the `fault-injection` feature.

use std::time::Duration;

/// A deterministic schedule of injected faults.
///
/// Each point is **one-shot**: it disarms as it fires, so later
/// checkpoints of the same governor run clean. The
/// type is always available (it is plain data), but only a governor built
/// with `Governor::with_faults` — which exists only under the
/// `fault-injection` cargo feature — ever fires one.
///
/// Step-indexed points (`fail_alloc_at_step`, `panic_in_trigger_at_step`)
/// fire at the first checkpoint whose chase step is `>= k`; round-indexed
/// points fire at the first checkpoint whose round/branch ordinal is
/// `>= r`. The `>=` makes every plan reachable even when an engine's step
/// counter skips values.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Fail the allocation checkpoint at chase step `k` (surfaces as
    /// `StopReason::FaultInjected { point: "alloc" }`).
    pub fail_alloc_at_step: Option<usize>,
    /// Trip the shared cancel token at round `r` (surfaces as
    /// `StopReason::Cancelled`).
    pub cancel_at_round: Option<usize>,
    /// Panic inside trigger application at chase step `k` (contained as
    /// an `EngineError` by `isolate` at the solver boundary).
    pub panic_in_trigger_at_step: Option<usize>,
    /// At round `r`, skew the governor's clock forward by the given
    /// duration (surfaces as `StopReason::DeadlineExceeded` when a
    /// deadline is set).
    pub clock_skip_at_round: Option<(usize, Duration)>,
}

impl FaultPlan {
    /// Is any fault still armed?
    pub fn is_armed(&self) -> bool {
        self.fail_alloc_at_step.is_some()
            || self.cancel_at_round.is_some()
            || self.panic_in_trigger_at_step.is_some()
            || self.clock_skip_at_round.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_disarmed() {
        assert!(!FaultPlan::default().is_armed());
        assert!(FaultPlan {
            cancel_at_round: Some(0),
            ..FaultPlan::default()
        }
        .is_armed());
    }
}
