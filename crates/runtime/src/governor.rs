//! The [`Governor`]: cooperative deadlines, memory budgets, cancellation.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A shared flag for cooperatively cancelling a running solve.
///
/// Clones share the flag: hand one clone to the engine (inside a
/// [`GovernorConfig`]) and keep another to call [`CancelToken::cancel`]
/// from a different thread. Engines observe the flag at their next
/// round/branch checkpoint and stop with [`StopReason::Cancelled`].
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Request cancellation. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Has cancellation been requested?
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// Why a governed run stopped before reaching an answer.
///
/// Every variant is a *refusal to keep spending*, never a claim about the
/// instance: callers surface it as `Undecided`, not as a SOL/certain
/// answer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// The wall-clock deadline elapsed.
    DeadlineExceeded {
        /// The configured deadline.
        budget: Duration,
    },
    /// The observed instance footprint exceeded the byte budget.
    MemoryExhausted {
        /// Estimated heap bytes observed at the tripping checkpoint.
        observed_bytes: usize,
        /// The configured budget.
        budget_bytes: usize,
    },
    /// The [`CancelToken`] was triggered.
    Cancelled,
    /// A deterministic fault-injection point fired (only with the
    /// `fault-injection` feature; named so tests can tell injected stops
    /// from genuine ones).
    FaultInjected {
        /// The fault point that fired (e.g. `"alloc"`).
        point: &'static str,
    },
}

impl fmt::Display for StopReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StopReason::DeadlineExceeded { budget } => {
                write!(f, "deadline exceeded ({budget:?} budget)")
            }
            StopReason::MemoryExhausted {
                observed_bytes,
                budget_bytes,
            } => write!(
                f,
                "memory budget exhausted ({observed_bytes} bytes observed, {budget_bytes} budget)"
            ),
            StopReason::Cancelled => write!(f, "cancelled"),
            StopReason::FaultInjected { point } => write!(f, "injected fault at {point:?}"),
        }
    }
}

/// Budgets for a governed run. `Default` is fully unlimited.
#[derive(Clone, Debug, Default)]
pub struct GovernorConfig {
    /// Wall-clock budget, measured from [`Governor::new`].
    pub deadline: Option<Duration>,
    /// Memory budget in heap bytes as accounted by the columnar storage
    /// (see `Instance::heap_bytes`).
    pub memory_budget_bytes: Option<usize>,
    /// External cancellation handle; a fresh token is created when absent.
    pub cancel: Option<CancelToken>,
}

/// Counters a [`Governor`] accumulated over a run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GovernorReport {
    /// Budget checkpoints evaluated.
    pub checks: usize,
    /// Largest byte estimate observed at any checkpoint.
    pub peak_bytes: usize,
    /// Checkpoints that observed the cancel flag set.
    pub cancellations_observed: usize,
    /// Checkpoints that stopped the run (0 or 1 per engine attempt).
    pub stops: usize,
    /// Fault-injection points that fired (always 0 without the
    /// `fault-injection` feature).
    pub faults_fired: usize,
    /// Wall-clock budget left, if a deadline was configured (saturates at
    /// zero once exceeded).
    pub deadline_remaining: Option<Duration>,
}

impl GovernorReport {
    /// Did the governor stop the run at any checkpoint? Serve's access-log
    /// and flight-recorder layers key degraded-outcome handling off this.
    pub fn stopped(&self) -> bool {
        self.stops > 0
    }

    /// Export every counter into a [`pde_trace::MetricsRegistry`] under
    /// the `governor.` prefix. The registry is the canonical report-layer
    /// home for these numbers.
    pub fn export_metrics(&self, reg: &mut pde_trace::MetricsRegistry) {
        let u = |x: usize| u64::try_from(x).unwrap_or(u64::MAX);
        reg.add("governor.checks", u(self.checks));
        reg.set_max("governor.peak_bytes", u(self.peak_bytes));
        reg.add(
            "governor.cancellations_observed",
            u(self.cancellations_observed),
        );
        reg.add("governor.stops", u(self.stops));
        reg.add("governor.faults_fired", u(self.faults_fired));
        if let Some(d) = self.deadline_remaining {
            reg.set(
                "governor.deadline_remaining_ns",
                u64::try_from(d.as_nanos()).unwrap_or(u64::MAX),
            );
        }
    }
}

/// Cooperative resource governor threaded through chase engines and
/// solvers.
///
/// Engines call [`Governor::on_round`] at every chase round / solver
/// branch with their current byte estimate; a `Err(StopReason)` means
/// "stop now and report `Undecided`". All counters are atomics, so one
/// governor may be shared across the threads of a parallel solve.
#[derive(Debug)]
pub struct Governor {
    started: Instant,
    deadline: Option<Duration>,
    memory_budget: Option<usize>,
    cancel: CancelToken,
    /// Artificial addition to elapsed time, injected by the clock-skip
    /// fault (nanoseconds).
    skew_nanos: AtomicU64,
    checks: AtomicUsize,
    peak_bytes: AtomicUsize,
    cancellations_observed: AtomicUsize,
    stops: AtomicUsize,
    faults_fired: AtomicUsize,
    #[cfg(feature = "fault-injection")]
    faults: std::sync::Mutex<crate::FaultPlan>,
}

impl Governor {
    /// A governor with the given budgets.
    pub fn new(config: GovernorConfig) -> Governor {
        Governor {
            started: Instant::now(),
            deadline: config.deadline,
            memory_budget: config.memory_budget_bytes,
            cancel: config.cancel.unwrap_or_default(),
            skew_nanos: AtomicU64::new(0),
            checks: AtomicUsize::new(0),
            peak_bytes: AtomicUsize::new(0),
            cancellations_observed: AtomicUsize::new(0),
            stops: AtomicUsize::new(0),
            faults_fired: AtomicUsize::new(0),
            #[cfg(feature = "fault-injection")]
            faults: std::sync::Mutex::new(crate::FaultPlan::default()),
        }
    }

    /// A governor with no budgets: every check passes (unless a fault
    /// plan is armed). This is what the ungoverned public entry points
    /// use, so the ungoverned fast path stays allocation-free.
    pub fn unlimited() -> Governor {
        Governor::new(GovernorConfig::default())
    }

    /// A governor with an armed fault plan (deterministic fault
    /// injection; test-only feature).
    #[cfg(feature = "fault-injection")]
    pub fn with_faults(config: GovernorConfig, plan: crate::FaultPlan) -> Governor {
        let g = Governor::new(config);
        *g.faults.lock().expect("fault plan lock never poisoned") = plan;
        g
    }

    /// A clone of the cancel token governing this run.
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Does this governor enforce a memory budget? Engines may skip
    /// computing byte estimates when it does not.
    pub fn tracks_memory(&self) -> bool {
        self.memory_budget.is_some()
    }

    /// Elapsed wall-clock time, including injected skew.
    fn elapsed(&self) -> Duration {
        self.started.elapsed() + Duration::from_nanos(self.skew_nanos.load(Ordering::Relaxed))
    }

    /// Wall-clock budget left, if a deadline was configured.
    pub fn deadline_remaining(&self) -> Option<Duration> {
        self.deadline.map(|d| d.saturating_sub(self.elapsed()))
    }

    /// Evaluate every budget against the caller's current byte estimate.
    ///
    /// Order: cancellation, then deadline, then memory — a cancelled run
    /// reports `Cancelled` even if it also blew its deadline.
    pub fn check(&self, observed_bytes: usize) -> Result<(), StopReason> {
        let _span = pde_trace::span("governor.check").field("bytes", observed_bytes);
        self.checks.fetch_add(1, Ordering::Relaxed);
        self.peak_bytes.fetch_max(observed_bytes, Ordering::Relaxed);
        if self.cancel.is_cancelled() {
            self.cancellations_observed.fetch_add(1, Ordering::Relaxed);
            return self.stop(StopReason::Cancelled);
        }
        if let Some(budget) = self.deadline {
            if self.elapsed() > budget {
                return self.stop(StopReason::DeadlineExceeded { budget });
            }
        }
        if let Some(budget_bytes) = self.memory_budget {
            if observed_bytes > budget_bytes {
                return self.stop(StopReason::MemoryExhausted {
                    observed_bytes,
                    budget_bytes,
                });
            }
        }
        Ok(())
    }

    fn stop(&self, reason: StopReason) -> Result<(), StopReason> {
        self.stops.fetch_add(1, Ordering::Relaxed);
        Err(reason)
    }

    /// Round/branch checkpoint: fires any round-indexed faults, then
    /// evaluates the budgets. `index` is the 1-based chase round or the
    /// solver's branch/node ordinal; `observed_bytes` may be 0 when
    /// [`Governor::tracks_memory`] is false.
    pub fn on_round(&self, index: usize, observed_bytes: usize) -> Result<(), StopReason> {
        #[cfg(feature = "fault-injection")]
        self.fire_round_faults(index);
        #[cfg(not(feature = "fault-injection"))]
        let _ = index;
        self.check(observed_bytes)
    }

    /// Allocation checkpoint, called before an engine materializes new
    /// facts at chase step `step`. Only the injected allocation-failure
    /// fault can trip it; it exists so tests can prove a failed
    /// allocation surfaces as a structured stop.
    pub fn on_alloc(&self, step: usize) -> Result<(), StopReason> {
        #[cfg(feature = "fault-injection")]
        if self.take_fault(|p| match p.fail_alloc_at_step {
            Some(k) if step >= k => {
                p.fail_alloc_at_step = None;
                true
            }
            _ => false,
        }) {
            self.stops.fetch_add(1, Ordering::Relaxed);
            return Err(StopReason::FaultInjected { point: "alloc" });
        }
        #[cfg(not(feature = "fault-injection"))]
        let _ = step;
        Ok(())
    }

    /// Trigger checkpoint, called as an engine fires a trigger at chase
    /// step `step`. Panics when the panic-in-trigger fault is armed for
    /// this step — the panic is meant to be contained by [`crate::isolate`]
    /// at the solver boundary.
    pub fn on_trigger(&self, step: usize) {
        #[cfg(feature = "fault-injection")]
        if self.take_fault(|p| match p.panic_in_trigger_at_step {
            Some(k) if step >= k => {
                p.panic_in_trigger_at_step = None;
                true
            }
            _ => false,
        }) {
            panic!("injected panic in trigger (fault-injection, step {step})");
        }
        #[cfg(not(feature = "fault-injection"))]
        let _ = step;
    }

    /// Snapshot the run counters.
    pub fn report(&self) -> GovernorReport {
        GovernorReport {
            checks: self.checks.load(Ordering::Relaxed),
            peak_bytes: self.peak_bytes.load(Ordering::Relaxed),
            cancellations_observed: self.cancellations_observed.load(Ordering::Relaxed),
            stops: self.stops.load(Ordering::Relaxed),
            faults_fired: self.faults_fired.load(Ordering::Relaxed),
            deadline_remaining: self.deadline_remaining(),
        }
    }

    /// Fire round-indexed faults (cancel-at-round, clock-skip). Each is
    /// one-shot: it disarms as it fires.
    #[cfg(feature = "fault-injection")]
    fn fire_round_faults(&self, round: usize) {
        if self.take_fault(|p| match p.cancel_at_round {
            Some(r) if round >= r => {
                p.cancel_at_round = None;
                true
            }
            _ => false,
        }) {
            self.cancel.cancel();
        }
        let skip = {
            let mut plan = self.faults.lock().expect("fault plan lock never poisoned");
            match plan.clock_skip_at_round {
                Some((r, skip)) if round >= r => {
                    plan.clock_skip_at_round = None;
                    Some(skip)
                }
                _ => None,
            }
        };
        if let Some(skip) = skip {
            self.faults_fired.fetch_add(1, Ordering::Relaxed);
            let nanos = u64::try_from(skip.as_nanos()).unwrap_or(u64::MAX);
            self.skew_nanos.fetch_add(nanos, Ordering::Relaxed);
        }
    }

    /// Run `f` on the fault plan; when it reports a fault fired, count it.
    #[cfg(feature = "fault-injection")]
    fn take_fault(&self, f: impl FnOnce(&mut crate::FaultPlan) -> bool) -> bool {
        let fired = f(&mut self.faults.lock().expect("fault plan lock never poisoned"));
        if fired {
            self.faults_fired.fetch_add(1, Ordering::Relaxed);
        }
        fired
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_always_passes() {
        let g = Governor::unlimited();
        for i in 0..100 {
            assert_eq!(g.on_round(i, i * 1024), Ok(()));
            assert_eq!(g.on_alloc(i), Ok(()));
            g.on_trigger(i);
        }
        let r = g.report();
        assert_eq!(r.checks, 100);
        assert_eq!(r.peak_bytes, 99 * 1024);
        assert_eq!(r.stops, 0);
        assert_eq!(r.deadline_remaining, None);
    }

    #[test]
    fn zero_deadline_trips_immediately() {
        let g = Governor::new(GovernorConfig {
            deadline: Some(Duration::ZERO),
            ..GovernorConfig::default()
        });
        assert_eq!(
            g.check(0),
            Err(StopReason::DeadlineExceeded {
                budget: Duration::ZERO
            })
        );
        assert_eq!(g.report().stops, 1);
        assert_eq!(g.deadline_remaining(), Some(Duration::ZERO));
    }

    #[test]
    fn memory_budget_trips_on_excess() {
        let g = Governor::new(GovernorConfig {
            memory_budget_bytes: Some(1000),
            ..GovernorConfig::default()
        });
        assert!(g.tracks_memory());
        assert_eq!(g.check(1000), Ok(()));
        assert_eq!(
            g.check(1001),
            Err(StopReason::MemoryExhausted {
                observed_bytes: 1001,
                budget_bytes: 1000
            })
        );
        assert_eq!(g.report().peak_bytes, 1001);
    }

    #[test]
    fn cancellation_wins_over_other_budgets() {
        let token = CancelToken::new();
        let g = Governor::new(GovernorConfig {
            deadline: Some(Duration::ZERO),
            memory_budget_bytes: Some(0),
            cancel: Some(token.clone()),
        });
        token.cancel();
        assert_eq!(g.check(usize::MAX), Err(StopReason::Cancelled));
        assert_eq!(g.report().cancellations_observed, 1);
    }

    #[test]
    fn cancel_token_is_shared_between_clones() {
        let a = CancelToken::new();
        let b = a.clone();
        assert!(!b.is_cancelled());
        a.cancel();
        assert!(b.is_cancelled());
    }

    #[cfg(feature = "fault-injection")]
    mod faults {
        use super::*;
        use crate::FaultPlan;

        #[test]
        fn alloc_fault_fires_once_at_step() {
            let g = Governor::with_faults(
                GovernorConfig::default(),
                FaultPlan {
                    fail_alloc_at_step: Some(3),
                    ..FaultPlan::default()
                },
            );
            assert_eq!(g.on_alloc(2), Ok(()));
            assert_eq!(
                g.on_alloc(3),
                Err(StopReason::FaultInjected { point: "alloc" })
            );
            // One-shot: the next checkpoint passes.
            assert_eq!(g.on_alloc(3), Ok(()));
            assert_eq!(g.report().faults_fired, 1);
        }

        #[test]
        fn cancel_at_round_cancels_via_the_token() {
            let g = Governor::with_faults(
                GovernorConfig::default(),
                FaultPlan {
                    cancel_at_round: Some(2),
                    ..FaultPlan::default()
                },
            );
            assert_eq!(g.on_round(1, 0), Ok(()));
            assert_eq!(g.on_round(2, 0), Err(StopReason::Cancelled));
        }

        #[test]
        fn panic_in_trigger_panics_exactly_once() {
            let g = Governor::with_faults(
                GovernorConfig::default(),
                FaultPlan {
                    panic_in_trigger_at_step: Some(1),
                    ..FaultPlan::default()
                },
            );
            g.on_trigger(0);
            let err = crate::isolate(|| g.on_trigger(1)).unwrap_err();
            let crate::EngineError::Panicked { message } = err;
            assert!(message.contains("injected panic"));
            g.on_trigger(1); // disarmed
        }

        #[test]
        fn clock_skip_fast_forwards_the_deadline() {
            let g = Governor::with_faults(
                GovernorConfig {
                    deadline: Some(Duration::from_secs(3600)),
                    ..GovernorConfig::default()
                },
                FaultPlan {
                    clock_skip_at_round: Some((2, Duration::from_secs(7200))),
                    ..FaultPlan::default()
                },
            );
            assert_eq!(g.on_round(1, 0), Ok(()));
            assert_eq!(
                g.on_round(2, 0),
                Err(StopReason::DeadlineExceeded {
                    budget: Duration::from_secs(3600)
                })
            );
            assert_eq!(g.deadline_remaining(), Some(Duration::ZERO));
        }
    }
}
