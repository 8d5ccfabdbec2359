//! The naive chase, kept as the differential-testing oracle for
//! [`crate::chase`].
//!
//! Every round re-enumerates every premise homomorphism over the entire
//! instance, and each egd merge rewrites the instance immediately. It
//! shares the restricted-chase semantics, the [`StepRecord`] provenance
//! shape and the [`ChaseLimits`] semantics of the semi-naive engine, and
//! agrees with it up to null renaming (the `naive_and_seminaive_chase_agree`
//! property test). Only tests and benchmarks call it: production code
//! chases through [`crate::chase`], and CI rejects any reference to this
//! module from another crate's `src/`.

use crate::engine::{apply_tgd_step, ChaseOptions, WitnessMode};
use crate::result::{ChaseLimits, ChaseOutcome, ChaseResult, ChaseStats, StepRecord};
use crate::satisfy;
use pde_constraints::{Dependency, Egd, Tgd};
use pde_relational::{exists_hom, for_each_hom, Assignment, Instance, Value};
use pde_runtime::{Governor, StopReason};
use std::ops::ControlFlow;
use std::time::Instant;

/// The naive chase behind [`crate::chase`]'s signature, so a differential
/// test can swap one function for the other.
///
/// `opts.schedule` and `opts.since` are ignored: a full re-enumeration
/// of every trigger reaches the same fixpoint in any order and from any
/// watermark whose precondition holds.
pub fn chase_naive(
    instance: Instance,
    deps: &[Dependency],
    mode: WitnessMode<'_>,
    opts: &ChaseOptions<'_>,
) -> ChaseResult {
    opts.with_governor(|governor| chase_naive_governed(instance, deps, mode, opts.limits, governor))
}

fn chase_naive_governed(
    mut instance: Instance,
    deps: &[Dependency],
    mode: WitnessMode<'_>,
    limits: ChaseLimits,
    governor: &Governor,
) -> ChaseResult {
    let mut steps = 0usize;
    let mut tgd_steps = 0usize;
    let mut egd_steps = 0usize;
    let mut log: Vec<StepRecord> = Vec::new();
    let mut stats = ChaseStats::default();
    let mut stopped: Option<StopReason> = None;

    'outer: loop {
        // A mid-round governor stop takes precedence over the counter
        // limits: both are honest "undecided" endings, but the stop
        // carries the reason the caller asked for.
        if stopped.is_none() {
            if let Err(reason) = governor.on_round(stats.rounds + 1, instance.heap_bytes()) {
                stopped = Some(reason);
            }
        }
        if let Some(reason) = stopped.take() {
            return ChaseResult {
                outcome: ChaseOutcome::Stopped { reason },
                instance,
                steps,
                tgd_steps,
                egd_steps,
                log,
                stats,
            };
        }
        if steps >= limits.max_steps || instance.fact_count() >= limits.max_facts {
            return ChaseResult {
                outcome: ChaseOutcome::ResourceExceeded,
                instance,
                steps,
                tgd_steps,
                egd_steps,
                log,
                stats,
            };
        }
        stats.rounds += 1;
        let round_start = Instant::now();
        let _round_span = pde_trace::span("chase.round")
            .field("engine", "naive")
            .field("round", stats.rounds)
            .field("facts", instance.fact_count());
        let mut progressed = false;
        for (i, dep) in deps.iter().enumerate() {
            match dep {
                Dependency::Tgd(tgd) => {
                    let applied = apply_tgd_round(
                        &mut instance,
                        i,
                        tgd,
                        mode,
                        limits,
                        governor,
                        &mut stopped,
                        &mut steps,
                        &mut log,
                        &mut stats,
                    );
                    if applied > 0 {
                        tgd_steps += applied;
                        progressed = true;
                    }
                    if stopped.is_some() {
                        continue 'outer; // surfaced by the loop-head check
                    }
                    if steps >= limits.max_steps || instance.fact_count() >= limits.max_facts {
                        continue 'outer; // limit check at loop head
                    }
                }
                Dependency::Egd(egd) => {
                    let mut egd_span = pde_trace::span("egd.merge")
                        .field("engine", "naive")
                        .field("dep", i)
                        .field("round", stats.rounds);
                    let merges_before = stats.egd_merges;
                    loop {
                        match apply_one_egd(&mut instance, egd) {
                            EgdStep::None => break,
                            EgdStep::Merged { from, to } => {
                                steps += 1;
                                egd_steps += 1;
                                stats.egd_merges += 1;
                                stats.triggers_found += 1;
                                progressed = true;
                                log.push(StepRecord::Egd {
                                    dep_index: i,
                                    from,
                                    to,
                                });
                                if steps >= limits.max_steps {
                                    continue 'outer;
                                }
                            }
                            EgdStep::Failure => {
                                return ChaseResult {
                                    outcome: ChaseOutcome::Failure { dep_index: i },
                                    instance,
                                    steps: steps + 1,
                                    tgd_steps,
                                    egd_steps: egd_steps + 1,
                                    log,
                                    stats,
                                };
                            }
                        }
                    }
                    egd_span.record_field("merges", stats.egd_merges - merges_before);
                }
            }
        }
        stats
            .round_ns
            .record(u64::try_from(round_start.elapsed().as_nanos()).unwrap_or(u64::MAX));
        if !progressed {
            return ChaseResult {
                outcome: ChaseOutcome::Success,
                instance,
                steps,
                tgd_steps,
                egd_steps,
                log,
                stats,
            };
        }
    }
}

/// Apply every *currently active* trigger of `tgd` once (re-validating each
/// before application, since earlier applications may have satisfied it).
/// Returns the number of steps applied; a governor stop is reported
/// through `stopped` and ends the batch early.
#[allow(clippy::too_many_arguments)]
fn apply_tgd_round(
    instance: &mut Instance,
    dep_index: usize,
    tgd: &Tgd,
    mode: WitnessMode<'_>,
    limits: ChaseLimits,
    governor: &Governor,
    stopped: &mut Option<StopReason>,
    steps: &mut usize,
    log: &mut Vec<StepRecord>,
    stats: &mut ChaseStats,
) -> usize {
    let mut dep_span = pde_trace::span("chase.trigger")
        .field("engine", "naive")
        .field("dep", dep_index)
        .field("round", stats.rounds);
    // Collect the active triggers against the current instance. Triggers
    // stay valid under insertions (homomorphisms are monotone), so batch
    // collection is sound in a round without egd steps.
    let mut triggers: Vec<Assignment> = Vec::new();
    let found_before = stats.triggers_found;
    let _ = for_each_hom(&tgd.premise.atoms, instance, &Assignment::new(), |h| {
        stats.triggers_found += 1;
        if exists_hom(&tgd.conclusion.atoms, instance, h) {
            stats.triggers_satisfied += 1;
        } else {
            triggers.push(h.clone());
        }
        ControlFlow::Continue(())
    });
    dep_span.record_field("found", stats.triggers_found - found_before);
    let mut applied = 0usize;
    for h in triggers {
        if *steps >= limits.max_steps || instance.fact_count() >= limits.max_facts {
            break;
        }
        // Re-check: a previous application may have satisfied this trigger.
        if exists_hom(&tgd.conclusion.atoms, instance, &h) {
            stats.triggers_satisfied += 1;
            continue;
        }
        governor.on_trigger(*steps);
        if let Err(reason) = governor.on_alloc(*steps) {
            *stopped = Some(reason);
            break;
        }
        let new_facts = apply_tgd_step(instance, tgd, &h, mode);
        log.push(StepRecord::Tgd {
            dep_index,
            new_facts,
        });
        *steps += 1;
        applied += 1;
        stats.triggers_fired += 1;
    }
    dep_span.record_field("fired", applied);
    applied
}

enum EgdStep {
    None,
    Merged { from: Value, to: Value },
    Failure,
}

/// Find and apply one egd violation; substitutions invalidate other
/// outstanding homomorphisms, so egds are applied one at a time.
fn apply_one_egd(instance: &mut Instance, egd: &Egd) -> EgdStep {
    let Some(h) = satisfy::find_egd_violation(instance, egd) else {
        return EgdStep::None;
    };
    let l = h
        .get(egd.lhs)
        .expect("egd lhs bound: violation hom covers the premise");
    let r = h
        .get(egd.rhs)
        .expect("egd rhs bound: violation hom covers the premise");
    match (l, r) {
        (Value::Const(_), Value::Const(_)) => EgdStep::Failure,
        (Value::Null(_), _) => {
            instance.substitute(l, r);
            EgdStep::Merged { from: l, to: r }
        }
        (_, Value::Null(_)) => {
            instance.substitute(r, l);
            EgdStep::Merged { from: r, to: l }
        }
    }
}
