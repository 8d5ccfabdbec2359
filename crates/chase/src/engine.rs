//! The chase: the standard chase and the solution-aware chase of the
//! paper (Definitions 6–7), reached through one entry point, [`chase`].
//!
//! The chase follows restricted-chase semantics: repeatedly find an
//! *active trigger* — a premise homomorphism with no conclusion extension
//! (tgd), or one separating the equated variables (egd) — and apply the
//! corresponding step. Where a tgd step's existential witnesses come from
//! is orthogonal:
//!
//! * **standard** ([`WitnessMode::FreshNulls`]): mint a fresh labeled null
//!   per existential variable — the \[FKMP\] chase; results are universal.
//! * **solution-aware** ([`WitnessMode::FromSolution`]): pick witnesses
//!   from a supplied instance `K'` that contains the chased instance and
//!   satisfies the tgds (paper Def. 6). The chase then stays inside `K'`,
//!   which is how Lemma 2 extracts a polynomial-size sub-solution.
//!
//! The loop is semi-naive (see `docs/CHASE.md` for the full design): rows
//! carry insertion epochs; each round only enumerates premise
//! homomorphisms touching the previous round's delta
//! ([`pde_relational::for_each_hom_seminaive`]), feeding a per-dependency
//! trigger worklist. The seed round fires everything once. Egd violations
//! of a round are batched in a [`pde_relational::ValueUnionFind`] and
//! applied as one targeted rewrite per round.
//!
//! The naive engine in [`crate::oracle`] re-enumerates every trigger each
//! round behind the same signature; it is the differential-testing oracle,
//! and the `naive_and_seminaive_chase_agree` property test holds the two
//! to the same results up to null renaming.

use crate::result::{ChaseLimits, ChaseOutcome, ChaseResult, ChaseStats, StepRecord};
use pde_constraints::{Dependency, Tgd};
use pde_relational::{
    exists_hom, find_hom, for_each_hom_seminaive, Assignment, HomConfig, Instance, NullGen, Tuple,
    Value, ValueUnionFind,
};
use pde_runtime::Governor;
use std::ops::ControlFlow;
use std::time::Instant;

/// Where tgd steps obtain witnesses for existential variables.
#[derive(Clone, Copy)]
pub enum WitnessMode<'a> {
    /// Mint fresh labeled nulls from the generator.
    FreshNulls(&'a NullGen),
    /// Draw witnesses from a given instance that contains the chased
    /// instance and satisfies the tgds (solution-aware chase, Def. 6).
    FromSolution(&'a Instance),
}

/// A stratified execution order over a dependency list, as produced by
/// the optimizer's interference analysis (`pde-analysis`'s
/// `forward_schedule`). Indices refer to positions in the `deps` slice
/// handed to the chase; each stratum is run to its own semi-naive
/// fixpoint before the next stratum starts. Soundness rests on the
/// producer guaranteeing that no dependency in a later stratum writes a
/// relation position read by an earlier stratum — then the per-stratum
/// fixpoints compose to the global fixpoint, and the later strata never
/// reopen earlier ones (these strata are the planned parallel shards of
/// the parallel-chase roadmap item).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DepSchedule {
    /// Strata of dependency indices, executed in order.
    pub strata: Vec<Vec<usize>>,
}

impl DepSchedule {
    /// The trivial schedule: one stratum containing every index in order.
    /// Chasing under it is identical to chasing unscheduled.
    pub fn single(n: usize) -> DepSchedule {
        DepSchedule {
            strata: vec![(0..n).collect()],
        }
    }

    /// Number of strata.
    pub fn strata_count(&self) -> usize {
        self.strata.len()
    }

    /// Does this schedule cover each of `0..n` exactly once?
    pub fn is_partition_of(&self, n: usize) -> bool {
        let mut hit = vec![false; n];
        let mut count = 0usize;
        for &i in self.strata.iter().flatten() {
            if i >= n || hit[i] {
                return false;
            }
            hit[i] = true;
            count += 1;
        }
        count == n
    }
}

/// How a [`chase`] run is bounded and ordered. `ChaseOptions::default()`
/// is a full, unscheduled chase under [`ChaseLimits::default`] with no
/// runtime governor.
#[derive(Clone, Copy, Default)]
pub struct ChaseOptions<'a> {
    /// Step and fact caps.
    pub limits: ChaseLimits,
    /// Runtime governor, consulted at every round (deadline / memory
    /// budget / cancellation) and at every tgd application
    /// (fault-injection points). `None` runs unlimited.
    pub governor: Option<&'a Governor>,
    /// Stratified execution order; `None` runs every dependency in one
    /// stratum. A schedule must partition the indices of `deps`.
    pub schedule: Option<&'a DepSchedule>,
    /// Epoch watermark the first delta window opens at. `0` is the full
    /// chase. A non-zero watermark asserts that the facts older than it
    /// already satisfy **every** dependency (they are the fixpoint of a
    /// previous chase); see [`chase`].
    pub since: u64,
}

impl ChaseOptions<'_> {
    /// Run `f` under the configured governor, or an unlimited one.
    pub(crate) fn with_governor<R>(&self, f: impl FnOnce(&Governor) -> R) -> R {
        match self.governor {
            Some(g) => f(g),
            None => f(&Governor::unlimited()),
        }
    }
}

/// Chase `instance` with `deps` under the given witness mode and options.
///
/// Each round opens a new insertion epoch; trigger discovery for round *k*
/// only enumerates premise homomorphisms with at least one atom matched
/// against a fact inserted in round *k−1* (the seed round's "delta" is the
/// whole input, so every trigger fires once). Discovered triggers join a
/// per-dependency worklist and are re-validated against the full instance
/// before application. Egd violations are accumulated in a union-find and
/// applied as a single targeted rewrite per dependency per round;
/// rewritten facts re-enter the next round's delta.
///
/// A tripped governor budget ends the run with [`ChaseOutcome::Stopped`]
/// carrying the [`pde_runtime::StopReason`]. The input `instance` is
/// consumed — a stopped result's `instance` field is a best-effort
/// snapshot, and callers that must not observe partial work keep their
/// own copy (the solvers pass clones).
///
/// # Incremental chase
/// With `opts.since > 0`, trigger discovery only enumerates premise
/// homomorphisms touching at least one fact inserted at or after that
/// epoch. This asserts that the sub-instance of older facts already
/// satisfies every dependency in `deps` (it is the fixpoint of a previous
/// chase). Under that precondition the skipped all-old triggers are
/// exactly the already-satisfied ones, so the run reaches the same
/// fixpoint as a fresh chase of the whole instance — this is what
/// `pde serve` relies on to re-chase inserts off epoch deltas instead of
/// from scratch. Violating the precondition (e.g. after a retraction,
/// which can *un*-satisfy old triggers' conclusions) silently
/// under-chases: retracts must fall back to a full re-chase. With
/// [`WitnessMode::FreshNulls`], pass a generator seeded above the
/// instance's existing nulls ([`null_gen_for`]) or witnesses may collide
/// with recovered ones.
///
/// # Panics
/// When `opts.schedule` does not partition the indices of `deps` (each
/// stratum opens at the same watermark, so a skipped or repeated
/// dependency would silently under- or re-chase), and (solution-aware
/// mode) when the supplied solution does not satisfy a tgd it is asked
/// to witness.
pub fn chase(
    instance: Instance,
    deps: &[Dependency],
    mode: WitnessMode<'_>,
    opts: &ChaseOptions<'_>,
) -> ChaseResult {
    if let Some(s) = opts.schedule {
        assert!(
            s.is_partition_of(deps.len()),
            "schedule must partition the dependency indices 0..{}",
            deps.len()
        );
    }
    opts.with_governor(|governor| seminaive(instance, deps, mode, opts, governor))
}

fn seminaive(
    mut instance: Instance,
    deps: &[Dependency],
    mode: WitnessMode<'_>,
    opts: &ChaseOptions<'_>,
    governor: &Governor,
) -> ChaseResult {
    let ChaseOptions {
        limits,
        schedule,
        since: initial_since,
        ..
    } = *opts;
    let single;
    let strata: &[Vec<usize>] = match schedule {
        Some(s) => &s.strata,
        None => {
            single = DepSchedule::single(deps.len());
            &single.strata
        }
    };
    let config = HomConfig::default();
    let mut steps = 0usize;
    let mut tgd_steps = 0usize;
    let mut egd_steps = 0usize;
    let mut log: Vec<StepRecord> = Vec::new();
    let mut stats = ChaseStats::default();
    // Premise matches seen so far per dependency: what the naive engine
    // would re-enumerate every subsequent round.
    let mut seen: Vec<usize> = vec![0; deps.len()];

    for stratum in strata {
        // Each stratum re-seeds its delta window at the watermark: its
        // first round enumerates everything at or after it (for a full
        // chase, the whole instance — exactly like the seed round of an
        // unscheduled chase), picking up everything earlier strata
        // produced.
        let mut since: u64 = initial_since;
        'outer: loop {
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
            if let Err(reason) = governor.on_round(stats.rounds + 1, instance.heap_bytes()) {
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
            let cur = instance.bump_epoch();
            stats.rounds += 1;
            let round_start = Instant::now();
            let _round_span = pde_trace::span("chase.round")
                .field("engine", "seminaive")
                .field("round", stats.rounds)
                .field("facts", instance.fact_count());
            let mut progressed = false;
            for &i in stratum {
                let dep = &deps[i];
                stats.skipped_by_delta += seen[i];
                match dep {
                    Dependency::Tgd(tgd) => {
                        let mut dep_span = pde_trace::span("chase.trigger")
                            .field("engine", "seminaive")
                            .field("dep", i)
                            .field("round", stats.rounds);
                        let fired_before = stats.triggers_fired;
                        let mut work: Vec<Assignment> = Vec::new();
                        let mut found_now = 0usize;
                        if tgd.premise.atoms.is_empty() {
                            // The empty homomorphism touches no fact, so the
                            // delta search would never surface it; check it on
                            // the seed round, where everything fires once.
                            if since == 0 {
                                found_now += 1;
                                if exists_hom(&tgd.conclusion.atoms, &instance, &Assignment::new())
                                {
                                    stats.triggers_satisfied += 1;
                                } else {
                                    work.push(Assignment::new());
                                }
                            }
                        } else {
                            let _ = for_each_hom_seminaive(
                                &tgd.premise.atoms,
                                &instance,
                                &Assignment::new(),
                                config,
                                since,
                                cur,
                                |h| {
                                    found_now += 1;
                                    if exists_hom(&tgd.conclusion.atoms, &instance, h) {
                                        stats.triggers_satisfied += 1;
                                    } else {
                                        work.push(h.clone());
                                    }
                                    ControlFlow::Continue(())
                                },
                            );
                        }
                        stats.triggers_found += found_now;
                        seen[i] += found_now;
                        dep_span.record_field("found", found_now);
                        for h in work {
                            if steps >= limits.max_steps
                                || instance.fact_count() >= limits.max_facts
                            {
                                continue 'outer; // limit check at loop head
                            }
                            // Re-check: an earlier application may have
                            // satisfied this trigger.
                            if exists_hom(&tgd.conclusion.atoms, &instance, &h) {
                                stats.triggers_satisfied += 1;
                                continue;
                            }
                            governor.on_trigger(steps);
                            if let Err(reason) = governor.on_alloc(steps) {
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
                            let new_facts = apply_tgd_step(&mut instance, tgd, &h, mode);
                            log.push(StepRecord::Tgd {
                                dep_index: i,
                                new_facts,
                            });
                            steps += 1;
                            tgd_steps += 1;
                            stats.triggers_fired += 1;
                            progressed = true;
                        }
                        dep_span.record_field("fired", stats.triggers_fired - fired_before);
                    }
                    Dependency::Egd(egd) => {
                        let mut egd_span = pde_trace::span("egd.merge")
                            .field("engine", "seminaive")
                            .field("dep", i)
                            .field("round", stats.rounds);
                        let merges_before = stats.egd_merges;
                        let mut uf = ValueUnionFind::new();
                        let mut conflict = false;
                        let mut found_now = 0usize;
                        let _ = for_each_hom_seminaive(
                            &egd.premise.atoms,
                            &instance,
                            &Assignment::new(),
                            config,
                            since,
                            cur,
                            |h| {
                                found_now += 1;
                                let l = h.get(egd.lhs).expect("egd lhs bound by premise");
                                let r = h.get(egd.rhs).expect("egd rhs bound by premise");
                                match uf.union(l, r) {
                                    Ok(Some((from, to))) => {
                                        log.push(StepRecord::Egd {
                                            dep_index: i,
                                            from,
                                            to,
                                        });
                                        steps += 1;
                                        egd_steps += 1;
                                        stats.egd_merges += 1;
                                        progressed = true;
                                        if steps >= limits.max_steps {
                                            return ControlFlow::Break(());
                                        }
                                        ControlFlow::Continue(())
                                    }
                                    Ok(None) => ControlFlow::Continue(()),
                                    Err(_) => {
                                        conflict = true;
                                        ControlFlow::Break(())
                                    }
                                }
                            },
                        );
                        stats.triggers_found += found_now;
                        seen[i] += found_now;
                        egd_span.record_field("found", found_now);
                        egd_span.record_field("merges", stats.egd_merges - merges_before);
                        if conflict {
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
                        // One targeted rewrite applies every merge of this
                        // round; rewritten facts land in the next delta.
                        instance.apply_merges(&uf);
                        if steps >= limits.max_steps {
                            continue 'outer;
                        }
                    }
                }
            }
            stats
                .round_ns
                .record(u64::try_from(round_start.elapsed().as_nanos()).unwrap_or(u64::MAX));
            if !progressed {
                // Stratum fixpoint reached; move on to the next stratum.
                break;
            }
            since = cur;
        }
    }
    ChaseResult {
        outcome: ChaseOutcome::Success,
        instance,
        steps,
        tgd_steps,
        egd_steps,
        log,
        stats,
    }
}

/// Apply one tgd step for trigger `h`; returns the number of new facts.
pub(crate) fn apply_tgd_step(
    instance: &mut Instance,
    tgd: &Tgd,
    h: &Assignment,
    mode: WitnessMode<'_>,
) -> usize {
    let mut ext = h.clone();
    match mode {
        WitnessMode::FreshNulls(gen) => {
            for v in &tgd.existentials {
                ext.bind(*v, Value::Null(gen.fresh()));
            }
        }
        WitnessMode::FromSolution(solution) => {
            // The premise image lies inside `solution` (it contains the
            // chased instance), and `solution` satisfies the tgd, so an
            // extension into `solution` exists; use its witnesses.
            let w = find_hom(&tgd.conclusion.atoms, solution, h).expect(
                "solution-aware chase: supplied instance does not satisfy the tgd \
                 (violates Def. 6's precondition)",
            );
            for v in &tgd.existentials {
                ext.bind(*v, w.get(*v).expect("extension binds existentials"));
            }
        }
    }
    let mut new_facts = 0usize;
    for atom in &tgd.conclusion.atoms {
        let vals = atom
            .ground(&|v| ext.get(v))
            .expect("conclusion fully bound after extension");
        if instance.insert(atom.rel, Tuple::new(vals)) {
            new_facts += 1;
        }
    }
    new_facts
}

/// Seed a null generator safely above every null already in `instance`.
pub fn null_gen_for(instance: &Instance) -> NullGen {
    NullGen::starting_at(instance.max_null_id().map_or(0, |m| m + 1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::chase_naive;
    use crate::satisfy::{satisfies_all, satisfies_all_tgds};
    use pde_constraints::{parse_dependencies, parse_tgds};
    use pde_relational::{instances_isomorphic, parse_instance, parse_schema, Schema};
    use pde_runtime::{CancelToken, GovernorConfig, StopReason};
    use std::sync::Arc;
    use std::time::Duration;

    /// The signature both the engine and its oracle share.
    type Engine = fn(Instance, &[Dependency], WitnessMode<'_>, &ChaseOptions<'_>) -> ChaseResult;

    fn schema() -> Arc<Schema> {
        Arc::new(parse_schema("source E/2; target H/2; target K/2;").unwrap())
    }

    fn tgd_deps(tgds: &[Tgd]) -> Vec<Dependency> {
        tgds.iter().cloned().map(Dependency::Tgd).collect()
    }

    /// A default-options standard chase with a fresh null generator.
    fn run(engine: Engine, inst: Instance, deps: &[Dependency]) -> ChaseResult {
        engine(
            inst,
            deps,
            WitnessMode::FreshNulls(&NullGen::new()),
            &ChaseOptions::default(),
        )
    }

    #[test]
    fn full_tgd_chase_reaches_fixpoint() {
        let s = schema();
        let tgds = parse_tgds(&s, "E(x, z), E(z, y) -> H(x, y)").unwrap();
        let inst = parse_instance(&s, "E(a, b). E(b, c). E(c, d).").unwrap();
        let res = run(chase, inst, &tgd_deps(&tgds));
        assert!(res.is_success());
        let out = res.instance;
        let h = s.rel_id("H").unwrap();
        assert_eq!(out.relation(h).len(), 2); // (a,c), (b,d)
        assert!(satisfies_all_tgds(&out, &tgds));
        assert!(out.is_ground());
    }

    #[test]
    fn existential_tgd_creates_nulls() {
        let s = schema();
        let tgds = parse_tgds(&s, "E(x, y) -> exists z . H(x, z), K(z, y)").unwrap();
        let inst = parse_instance(&s, "E(a, b).").unwrap();
        let res = run(chase, inst, &tgd_deps(&tgds));
        assert!(res.is_success());
        let out = res.instance;
        assert_eq!(out.fact_count(), 3);
        assert_eq!(out.nulls().len(), 1);
        assert!(satisfies_all_tgds(&out, &tgds));
    }

    #[test]
    fn restricted_chase_skips_satisfied_triggers() {
        let s = schema();
        let tgds = parse_tgds(&s, "E(x, y) -> exists z . H(x, z)").unwrap();
        // H(a, q) already witnesses E(a, b): no step needed.
        let inst = parse_instance(&s, "E(a, b). H(a, q).").unwrap();
        let res = run(chase, inst, &tgd_deps(&tgds));
        assert!(res.is_success());
        assert_eq!(res.steps, 0);
        assert_eq!(res.instance.nulls().len(), 0);
    }

    #[test]
    fn egd_merges_null_with_constant() {
        let s = schema();
        let deps = parse_dependencies(
            &s,
            "E(x, y) -> exists z . H(x, z); H(x, y), H(x, z) -> y = z",
        )
        .unwrap();
        let inst = parse_instance(&s, "E(a, b). H(a, c).").unwrap();
        let res = run(chase, inst, &deps);
        assert!(res.is_success());
        let out = res.instance;
        let h = s.rel_id("H").unwrap();
        // Either zero steps (restricted chase sees H(a,c) as witness) or
        // the created null merges into c — both leave exactly H(a, c).
        assert_eq!(out.relation(h).len(), 1);
        assert!(out.is_ground());
        assert!(satisfies_all(&out, &deps));
    }

    #[test]
    fn egd_on_two_constants_fails() {
        let s = schema();
        let deps = parse_dependencies(&s, "H(x, y), H(x, z) -> y = z").unwrap();
        let inst = parse_instance(&s, "H(a, b). H(a, c).").unwrap();
        let res = run(chase, inst, &deps);
        assert!(res.is_failure());
        assert_eq!(res.outcome, ChaseOutcome::Failure { dep_index: 0 });
    }

    #[test]
    fn egd_merges_two_nulls() {
        let s = schema();
        let deps = parse_dependencies(
            &s,
            "E(x, y) -> exists z . H(x, z); E(x, y) -> exists w . K(x, w); \
             H(x, y), K(x, z) -> y = z",
        )
        .unwrap();
        let inst = parse_instance(&s, "E(a, b).").unwrap();
        let res = run(chase, inst, &deps);
        assert!(res.is_success());
        let out = res.instance;
        assert_eq!(out.nulls().len(), 1, "the two nulls merged");
        assert!(satisfies_all(&out, &deps));
    }

    #[test]
    fn divergent_chase_hits_limit() {
        let s = Arc::new(parse_schema("target A/2;").unwrap());
        let mut a = Instance::new(s.clone());
        a.insert_consts("A", ["x", "y"]);
        let tgds = parse_tgds(&s, "A(x, y) -> exists z . A(y, z)").unwrap();
        let gen = NullGen::new();
        let res = chase(
            a,
            &tgd_deps(&tgds),
            WitnessMode::FreshNulls(&gen),
            &ChaseOptions {
                limits: ChaseLimits::tight(50),
                ..ChaseOptions::default()
            },
        );
        assert_eq!(res.outcome, ChaseOutcome::ResourceExceeded);
        assert!(res.steps >= 50);
    }

    #[test]
    fn solution_aware_chase_stays_inside_solution() {
        let s = schema();
        let tgds = parse_tgds(&s, "E(x, y) -> exists z . H(x, z)").unwrap();
        let inst = parse_instance(&s, "E(a, b).").unwrap();
        // A "solution" containing inst and satisfying the tgd.
        let solution = parse_instance(&s, "E(a, b). H(a, w1). H(a, w2).").unwrap();
        let res = chase(
            inst,
            &tgd_deps(&tgds),
            WitnessMode::FromSolution(&solution),
            &ChaseOptions::default(),
        );
        assert!(res.is_success());
        let out = res.instance;
        assert!(out.contained_in(&solution), "chase stayed inside K'");
        assert!(out.is_ground(), "witnesses come from K', not fresh nulls");
        assert!(satisfies_all_tgds(&out, &tgds));
        // Exactly one witness used, not both (minimality of the chase).
        let h = s.rel_id("H").unwrap();
        assert_eq!(out.relation(h).len(), 1);
    }

    #[test]
    #[should_panic(expected = "does not satisfy the tgd")]
    fn solution_aware_chase_validates_precondition() {
        let s = schema();
        let tgds = parse_tgds(&s, "E(x, y) -> exists z . H(x, z)").unwrap();
        let inst = parse_instance(&s, "E(a, b).").unwrap();
        let bogus = parse_instance(&s, "E(a, b).").unwrap(); // no H witness
        let _ = chase(
            inst,
            &tgd_deps(&tgds),
            WitnessMode::FromSolution(&bogus),
            &ChaseOptions::default(),
        );
    }

    #[test]
    fn provenance_log_records_every_step() {
        let s = schema();
        let deps = parse_dependencies(
            &s,
            "E(x, y) -> exists z . H(x, z); H(x, y), H(x, z) -> y = z",
        )
        .unwrap();
        let inst = parse_instance(&s, "E(a, b). E(a, c). H(a, q).").unwrap();
        let res = run(chase, inst, &deps);
        assert!(res.is_success());
        assert_eq!(res.log.len(), res.steps);
        let tgd_recs = res
            .log
            .iter()
            .filter(|r| matches!(r, StepRecord::Tgd { .. }))
            .count();
        let egd_recs = res.log.len() - tgd_recs;
        assert_eq!(tgd_recs, res.tgd_steps);
        assert_eq!(egd_recs, res.egd_steps);
        // Dependency indexes point into the chased list.
        for r in &res.log {
            match r {
                StepRecord::Tgd {
                    dep_index,
                    new_facts,
                } => {
                    assert_eq!(*dep_index, 0);
                    assert!(*new_facts <= 1);
                }
                StepRecord::Egd {
                    dep_index,
                    from,
                    to,
                } => {
                    assert_eq!(*dep_index, 1);
                    assert!(from.is_null() || to.is_null());
                }
            }
        }
    }

    #[test]
    fn chase_without_steps_has_empty_log() {
        let s = schema();
        let deps = tgd_deps(&parse_tgds(&s, "E(x, y) -> exists z . H(x, z)").unwrap());
        let inst = parse_instance(&s, "E(a, b). H(a, w).").unwrap();
        let res = run(chase, inst, &deps);
        assert!(res.log.is_empty());
    }

    #[test]
    fn null_gen_for_avoids_collisions() {
        let s = schema();
        let inst = parse_instance(&s, "H(?5, a).").unwrap();
        let gen = null_gen_for(&inst);
        assert_eq!(gen.fresh().0, 6);
    }

    #[test]
    fn chase_is_idempotent_on_satisfied_instances() {
        let s = schema();
        let deps = tgd_deps(&parse_tgds(&s, "E(x, z), E(z, y) -> H(x, y)").unwrap());
        let inst = parse_instance(&s, "E(a, b). E(b, c).").unwrap();
        let once = run(chase, inst, &deps).into_success().unwrap();
        let twice = run(chase, once.clone(), &deps).into_success().unwrap();
        assert!(once.same_facts(&twice));
    }

    #[test]
    fn engines_agree_on_fixtures() {
        let s = schema();
        let cases = [
            (
                "E(x, z), E(z, y) -> H(x, y)",
                "E(a, b). E(b, c). E(c, d). E(d, a).",
            ),
            (
                "E(x, y) -> exists z . H(x, z), K(z, y); H(x, y), H(x, z) -> y = z",
                "E(a, b). E(a, c). E(b, b).",
            ),
            (
                "E(x, y) -> exists z . H(x, z); E(x, y) -> exists w . K(x, w); \
                 H(x, y), K(x, z) -> y = z",
                "E(a, b). E(c, d).",
            ),
        ];
        for (deps_src, inst_src) in cases {
            let deps = parse_dependencies(&s, deps_src).unwrap();
            let inst = parse_instance(&s, inst_src).unwrap();
            let naive = run(chase_naive, inst.clone(), &deps);
            let semi = run(chase, inst, &deps);
            assert!(naive.is_success() && semi.is_success(), "{deps_src}");
            assert!(
                instances_isomorphic(&naive.instance, &semi.instance),
                "{deps_src}: {:?} vs {:?}",
                naive.instance,
                semi.instance
            );
        }
    }

    #[test]
    fn engines_agree_on_failing_egds() {
        let s = schema();
        let deps = parse_dependencies(&s, "E(x, y) -> H(x, y); H(x, y), H(x, z) -> y = z").unwrap();
        let inst = parse_instance(&s, "E(a, b). E(a, c).").unwrap();
        let naive = run(chase_naive, inst.clone(), &deps);
        let semi = run(chase, inst, &deps);
        assert!(naive.is_failure());
        assert!(semi.is_failure());
        assert_eq!(semi.outcome, ChaseOutcome::Failure { dep_index: 1 });
    }

    #[test]
    fn incremental_chase_matches_a_fresh_rechase() {
        let s = schema();
        let deps = parse_dependencies(
            &s,
            "E(x, z), E(z, y) -> H(x, y); H(x, y) -> K(y, x); H(x, y), H(x, z) -> y = z",
        )
        .unwrap();
        // Chase a base to fixpoint, then insert new facts at a fresh epoch
        // and re-chase only off the delta.
        let base = parse_instance(&s, "E(a, b). E(b, c).").unwrap();
        let fixed = run(chase, base, &deps);
        assert!(fixed.is_success());
        let mut grown = fixed.instance;
        let watermark = grown.bump_epoch();
        grown.insert_consts("E", ["c", "d"]);
        let gen = null_gen_for(&grown);
        let incremental = chase(
            grown.clone(),
            &deps,
            WitnessMode::FreshNulls(&gen),
            &ChaseOptions {
                since: watermark,
                ..ChaseOptions::default()
            },
        );
        assert!(incremental.is_success());
        // Oracle: a fresh full chase of the grown base.
        let fresh_base = parse_instance(&s, "E(a, b). E(b, c). E(c, d).").unwrap();
        let fresh = run(chase, fresh_base, &deps);
        assert!(fresh.is_success());
        assert!(
            instances_isomorphic(&incremental.instance, &fresh.instance),
            "{:?} vs {:?}",
            incremental.instance,
            fresh.instance
        );
        assert!(satisfies_all(&incremental.instance, &deps));
        // And the incremental run did less work than the fresh one: the
        // watermark skipped the already-fired base triggers.
        assert!(incremental.tgd_steps < fresh.tgd_steps);
    }

    #[test]
    #[should_panic(expected = "schedule must partition")]
    fn schedule_must_partition_the_dependencies() {
        let s = schema();
        let deps = tgd_deps(&parse_tgds(&s, "E(x, y) -> H(x, y)").unwrap());
        let inst = parse_instance(&s, "E(a, b).").unwrap();
        let schedule = DepSchedule {
            strata: vec![vec![0], vec![0]],
        };
        let _ = chase(
            inst,
            &deps,
            WitnessMode::FreshNulls(&NullGen::new()),
            &ChaseOptions {
                schedule: Some(&schedule),
                ..ChaseOptions::default()
            },
        );
    }

    #[test]
    fn seminaive_stats_count_rounds_and_delta_skips() {
        let s = schema();
        let deps = tgd_deps(&parse_tgds(&s, "E(x, z), E(z, y) -> H(x, y)").unwrap());
        let inst = parse_instance(&s, "E(a, b). E(b, c). E(c, d).").unwrap();
        let res = run(chase, inst, &deps);
        assert!(res.is_success());
        // Round 1 fires both path triggers; round 2's delta is H-only, so
        // the E-only premise is never re-enumerated.
        assert_eq!(res.stats.rounds, 2);
        assert_eq!(res.stats.triggers_found, 2);
        assert_eq!(res.stats.triggers_fired, 2);
        assert_eq!(res.stats.triggers_fired, res.tgd_steps);
        assert_eq!(res.stats.skipped_by_delta, 2);
        assert_eq!(res.stats.egd_merges, 0);
    }

    /// Chase `inst` with `deps` under `governor`.
    fn governed(
        engine: Engine,
        inst: Instance,
        deps: &[Dependency],
        governor: &Governor,
    ) -> ChaseResult {
        engine(
            inst,
            deps,
            WitnessMode::FreshNulls(&NullGen::new()),
            &ChaseOptions {
                governor: Some(governor),
                ..ChaseOptions::default()
            },
        )
    }

    #[test]
    fn governed_chase_stops_on_deadline_and_keeps_input_unpoisoned() {
        let s = Arc::new(parse_schema("target A/2;").unwrap());
        let mut a = Instance::new(s.clone());
        a.insert_consts("A", ["x", "y"]);
        let deps = tgd_deps(&parse_tgds(&s, "A(x, y) -> exists z . A(y, z)").unwrap());
        let governor = Governor::new(GovernorConfig {
            deadline: Some(Duration::ZERO),
            ..GovernorConfig::default()
        });
        for engine in [chase as Engine, chase_naive] {
            let res = governed(engine, a.clone(), &deps, &governor);
            let ChaseOutcome::Stopped { reason } = &res.outcome else {
                panic!("expected a governed stop, got {:?}", res.outcome);
            };
            assert!(
                matches!(reason, StopReason::DeadlineExceeded { .. }),
                "{reason:?}"
            );
            // The zero deadline trips before any step is applied.
            assert_eq!(res.steps, 0);
            assert!(governor.report().deadline_remaining.is_some());
        }
        // The caller's instance is untouched (engines consume clones).
        assert_eq!(a.fact_count(), 1);
    }

    #[test]
    fn governed_chase_stops_on_memory_budget() {
        let s = Arc::new(parse_schema("target A/2;").unwrap());
        let mut a = Instance::new(s.clone());
        a.insert_consts("A", ["x", "y"]);
        let deps = tgd_deps(&parse_tgds(&s, "A(x, y) -> exists z . A(y, z)").unwrap());
        let governor = Governor::new(GovernorConfig {
            memory_budget_bytes: Some(1),
            ..GovernorConfig::default()
        });
        let res = governed(chase, a, &deps, &governor);
        let ChaseOutcome::Stopped { reason } = res.outcome else {
            panic!("expected a governed stop, got {:?}", res.outcome);
        };
        assert!(matches!(reason, StopReason::MemoryExhausted { .. }));
        assert!(governor.report().peak_bytes > 1);
    }

    #[test]
    fn governed_chase_observes_cancellation() {
        let s = schema();
        let deps = tgd_deps(&parse_tgds(&s, "E(x, z), E(z, y) -> H(x, y)").unwrap());
        let inst = parse_instance(&s, "E(a, b). E(b, c).").unwrap();
        let token = CancelToken::new();
        token.cancel();
        let governor = Governor::new(GovernorConfig {
            cancel: Some(token),
            ..GovernorConfig::default()
        });
        let res = governed(chase, inst, &deps, &governor);
        assert_eq!(
            res.outcome,
            ChaseOutcome::Stopped {
                reason: StopReason::Cancelled
            }
        );
        assert!(governor.report().cancellations_observed >= 1);
    }

    #[test]
    fn unlimited_governor_changes_nothing() {
        let s = schema();
        let deps = tgd_deps(&parse_tgds(&s, "E(x, z), E(z, y) -> H(x, y)").unwrap());
        let inst = parse_instance(&s, "E(a, b). E(b, c). E(c, d).").unwrap();
        let plain = run(chase, inst.clone(), &deps);
        let governed = governed(chase, inst, &deps, &Governor::unlimited());
        assert!(plain.is_success() && governed.is_success());
        assert!(plain.instance.same_facts(&governed.instance));
        assert_eq!(plain.steps, governed.steps);
    }
}
