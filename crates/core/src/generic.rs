//! Complete search solver for settings with target constraints
//! (Σt = egds ∪ weakly acyclic tgds) — the general NP procedure behind
//! Theorem 1.
//!
//! The solver runs a *nondeterministic-witness chase*: whenever a tgd of
//! Σst ∪ Σt fires, each existential variable branches over every value of
//! the current active domain **plus one fresh null**. This search space is
//! complete by the solution-aware chase argument (Lemma 2): for any
//! solution `J'`, the branch that picks exactly `J'`'s witnesses — with
//! values outside the active domain represented by fresh nulls — reaches a
//! leaf that is itself a solution and maps homomorphically into `J'`.
//! Target egds are applied deterministically (they are forced); a
//! constant/constant conflict kills the branch.
//!
//! At a leaf (no Σst ∪ Σt violations) the branch succeeds iff Σts holds.
//! Mid-branch, a Σts violation whose premise image consists solely of
//! constants is permanent — constants survive every future merge and the
//! conclusions range over the fixed source — so such branches are pruned
//! immediately.
//!
//! Worst-case exponential, as it must be: the §4 boundary settings encode
//! CLIQUE with a single target egd or a single full target tgd.

use crate::setting::PdeSetting;
use pde_chase::{find_egd_violation, find_tgd_violation, null_gen_for};
use pde_constraints::{Egd, Tgd};
use pde_relational::{exists_hom, for_each_hom, Assignment, Instance, NullGen, Tuple, Value, Var};
use pde_runtime::{Governor, StopReason};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::ops::ControlFlow;

/// Resource limits for the search.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GenericLimits {
    /// Maximum number of search nodes to expand.
    pub max_nodes: usize,
    /// Maximum number of *active-domain* values tried per existential
    /// variable when branching (the one fresh null is always tried on
    /// top). When this truncates the branch set, an unsuccessful search
    /// is not exhausted, so it answers *undecided* rather than *no* —
    /// completeness needs every branch.
    pub max_branches: usize,
}

impl Default for GenericLimits {
    fn default() -> Self {
        GenericLimits {
            max_nodes: 1_000_000,
            max_branches: usize::MAX,
        }
    }
}

/// Why the generic solver refused to run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GenericError {
    /// The input instance contains labeled nulls.
    InputNotGround,
}

impl fmt::Display for GenericError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GenericError::InputNotGround => write!(f, "input instance contains nulls"),
        }
    }
}

impl std::error::Error for GenericError {}

/// Search statistics.
#[derive(Clone, Debug, Default)]
pub struct GenericStats {
    /// Search nodes expanded.
    pub nodes: usize,
    /// Branches cut by the memoized visited-state set.
    pub memo_hits: usize,
    /// Branches cut by the permanent-Σts-violation prune.
    pub ts_prunes: usize,
    /// Branches killed by egd constant conflicts.
    pub egd_failures: usize,
    /// Leaves reached (Σst ∪ Σt hold) and tested against Σts.
    pub candidates_checked: usize,
}

/// Enumerate the leaf solutions of the search. Every solution of the
/// setting contains a homomorphic image of some enumerated leaf, so for
/// monotone queries certain answers are the intersection of ground answers
/// over this family. The governor is checked at every search node.
///
/// Returns the statistics, whether the space was exhausted (no node or
/// branch limit, governor stop or sink break cut it short), and why the
/// governor stopped the walk, if it did.
pub fn for_each_solution(
    setting: &PdeSetting,
    input: &Instance,
    limits: GenericLimits,
    governor: &Governor,
    f: impl FnMut(&Instance) -> ControlFlow<()>,
) -> Result<(GenericStats, bool, Option<StopReason>), GenericError> {
    if !input.is_ground() {
        return Err(GenericError::InputNotGround);
    }
    let gen = null_gen_for(input);
    // The tgds whose violations force chase steps: Σst ∪ (tgds of Σt).
    // Full tgds first: they are forced (single branch), and applying them
    // eagerly exposes Σts violations before the search commits to further
    // existential witness choices.
    let mut forward: Vec<Tgd> = setting
        .sigma_st()
        .iter()
        .cloned()
        .chain(setting.target_tgds().cloned())
        .collect();
    forward.sort_by_key(|t| usize::from(!t.is_full()));
    let egds: Vec<Egd> = setting.target_egds().cloned().collect();
    // Conclusion-relevant variables of each ts tgd: premise variables that
    // reappear in the conclusion. A violating match is permanent when the
    // values bound to them can never change — always, if there are no egds
    // (nothing ever merges); otherwise when they are all constants.
    let ts_relevant: Vec<Vec<Var>> = setting
        .sigma_ts()
        .iter()
        .map(|t| t.frontier().into_iter().collect())
        .collect();
    let mut ctx = Ctx {
        setting,
        forward,
        egds,
        ts_relevant,
        gen,
        limits,
        // Pre-size the memo table from the node budget: a decided search
        // inserts at most one key per expanded node. Capped so tiny
        // searches under a huge budget don't over-allocate.
        visited: HashSet::with_capacity(limits.max_nodes.min(1 << 12)),
        stats: GenericStats::default(),
        sink: f,
        governor,
        stopped: None,
    };
    let exhausted = matches!(ctx.search(input.clone()), SearchFlow::Exhausted);
    Ok((ctx.stats, exhausted, ctx.stopped))
}

enum SearchFlow {
    /// Subtree fully explored.
    Exhausted,
    /// The sink asked to stop.
    Stopped,
    /// Node limit hit somewhere below.
    Truncated,
}

struct Ctx<'a, F> {
    setting: &'a PdeSetting,
    forward: Vec<Tgd>,
    egds: Vec<Egd>,
    /// Conclusion-relevant premise variables, indexed like `sigma_ts()`.
    ts_relevant: Vec<Vec<Var>>,
    gen: NullGen,
    limits: GenericLimits,
    visited: HashSet<String>,
    stats: GenericStats,
    sink: F,
    /// Resource governor, checked at every search node.
    governor: &'a Governor,
    /// Set when the governor stopped the search (distinguishes a governor
    /// stop from the sink breaking early).
    stopped: Option<StopReason>,
}

impl<F: FnMut(&Instance) -> ControlFlow<()>> Ctx<'_, F> {
    fn search(&mut self, mut k: Instance) -> SearchFlow {
        // Governor checkpoint before the node-limit check, so a governed
        // stop is reported as such rather than as a plain truncation.
        // Bytes are only estimated when a memory budget is set: this is
        // the solver's hottest loop.
        let bytes = if self.governor.tracks_memory() {
            k.heap_bytes()
        } else {
            0
        };
        if let Err(reason) = self.governor.on_round(self.stats.nodes + 1, bytes) {
            self.stopped = Some(reason);
            return SearchFlow::Stopped;
        }
        if self.stats.nodes >= self.limits.max_nodes {
            return SearchFlow::Truncated;
        }
        self.stats.nodes += 1;
        let _span = pde_trace::span("solver.branch")
            .field("solver", "generic")
            .field("node", self.stats.nodes)
            .field("facts", k.fact_count());

        // 1. Apply egds to a fixpoint (forced steps).
        loop {
            let mut stepped = false;
            for e in &self.egds {
                if let Some(h) = find_egd_violation(&k, e) {
                    let l = h
                        .get(e.lhs)
                        .expect("egd lhs bound: violation hom covers the premise");
                    let r = h
                        .get(e.rhs)
                        .expect("egd rhs bound: violation hom covers the premise");
                    match (l, r) {
                        (Value::Const(_), Value::Const(_)) => {
                            self.stats.egd_failures += 1;
                            return SearchFlow::Exhausted;
                        }
                        (Value::Null(_), _) => k.substitute(l, r),
                        (_, Value::Null(_)) => k.substitute(r, l),
                    }
                    stepped = true;
                    break;
                }
            }
            if !stepped {
                break;
            }
        }

        // 2. Permanent Σts violation prune (checked before the memo key:
        // pruned nodes never pay for canonicalization).
        if self.has_permanent_ts_violation(&k) {
            self.stats.ts_prunes += 1;
            return SearchFlow::Exhausted;
        }

        // 3. Memoized visited check (isomorphism-invariant key).
        let key = canonical_key(&k);
        if !self.visited.insert(key) {
            self.stats.memo_hits += 1;
            return SearchFlow::Exhausted;
        }

        // 4. Find a forward-tgd violation to branch on.
        let trigger = self
            .forward
            .iter()
            .enumerate()
            .find_map(|(i, t)| find_tgd_violation(&k, t).map(|h| (i, h)));
        let Some((ti, h)) = trigger else {
            // Leaf: Σst and Σt hold; success iff Σts holds.
            self.stats.candidates_checked += 1;
            let ts_ok = self
                .setting
                .sigma_ts()
                .iter()
                .all(|t| pde_chase::satisfies_tgd(&k, t));
            if ts_ok {
                return match (self.sink)(&k) {
                    ControlFlow::Break(()) => SearchFlow::Stopped,
                    ControlFlow::Continue(()) => SearchFlow::Exhausted,
                };
            }
            return SearchFlow::Exhausted;
        };
        let tgd = self.forward[ti].clone();

        // 5. Branch over witness choices: each existential independently
        // takes any active-domain value or a fresh null.
        let exvars: Vec<Var> = tgd.existentials.iter().copied().collect();
        let adom: Vec<Value> = k.active_domain().into_iter().collect();
        // The branch-width budget caps how many active-domain values each
        // existential tries; skipping any makes the subtree incomplete, so
        // the whole search degrades to Truncated (never a false
        // NoSolution).
        let tried = adom.len().min(self.limits.max_branches);
        let fresh: Vec<Value> = exvars
            .iter()
            .map(|_| Value::Null(self.gen.fresh()))
            .collect();
        let mut truncated = !exvars.is_empty() && tried < adom.len();
        let mut choice = vec![0usize; exvars.len()];
        loop {
            // Materialize this choice.
            let mut ext = h.clone();
            for (i, v) in exvars.iter().enumerate() {
                let val = if choice[i] < tried {
                    adom[choice[i]]
                } else {
                    fresh[i]
                };
                ext.bind(*v, val);
            }
            // Fault-injection points: firing a branch is the search's
            // analogue of a chase trigger/allocation.
            self.governor.on_trigger(self.stats.nodes);
            if let Err(reason) = self.governor.on_alloc(self.stats.nodes) {
                self.stopped = Some(reason);
                return SearchFlow::Stopped;
            }
            let mut k2 = k.clone();
            for atom in &tgd.conclusion.atoms {
                let vals = atom
                    .ground(&|v| ext.get(v))
                    .expect("conclusion fully bound: ext extends the premise hom with witnesses for every existential");
                k2.insert(atom.rel, Tuple::new(vals));
            }
            match self.search(k2) {
                SearchFlow::Stopped => return SearchFlow::Stopped,
                SearchFlow::Truncated => truncated = true,
                SearchFlow::Exhausted => {}
            }
            // Advance the mixed-radix counter (adom values + 1 fresh each).
            let mut pos = 0;
            loop {
                if pos == exvars.len() {
                    return if truncated {
                        SearchFlow::Truncated
                    } else {
                        SearchFlow::Exhausted
                    };
                }
                choice[pos] += 1;
                if choice[pos] <= tried {
                    break;
                }
                choice[pos] = 0;
                pos += 1;
            }
            if exvars.is_empty() {
                // Full tgd: a single (empty) choice.
                return if truncated {
                    SearchFlow::Truncated
                } else {
                    SearchFlow::Exhausted
                };
            }
        }
    }

    /// Is there a Σts violation that no future step can repair?
    ///
    /// Target facts only grow (more matches, never fewer) and the source
    /// is fixed, so a violating match dies only if an egd later merges a
    /// null bound to a conclusion-relevant variable. Without egds every
    /// violation is permanent; with egds a violation is permanent when its
    /// conclusion-relevant values are all constants.
    fn has_permanent_ts_violation(&self, k: &Instance) -> bool {
        let no_egds = self.egds.is_empty();
        for (i, t) in self.setting.sigma_ts().iter().enumerate() {
            let relevant = &self.ts_relevant[i];
            let mut permanent = false;
            let _ = for_each_hom(&t.premise.atoms, k, &Assignment::new(), |h| {
                let frozen = no_egds
                    || relevant
                        .iter()
                        .all(|v| h.get(*v).is_some_and(|val| val.is_const()));
                if frozen && !exists_hom(&t.conclusion.atoms, k, h) {
                    permanent = true;
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            });
            if permanent {
                return true;
            }
        }
        false
    }
}

/// An isomorphism-invariant key: render facts with null ids, sort, then
/// renumber nulls by first appearance. Instances differing only in null
/// naming share a key; different instances never collide. The search
/// memoizes on it and [`crate::enumerate`] deduplicates with it.
pub(crate) fn canonical_key(k: &Instance) -> String {
    let mut lines: Vec<String> = k
        .facts()
        .map(|(rel, t)| format!("{}{t:?}", rel.0))
        .collect();
    lines.sort();
    let joined = lines.join(";");
    // Renumber nulls by first appearance, rebuilding in one pass so ids
    // that prefix each other (⊥1 vs ⊥10) cannot collide.
    let mut ranks: HashMap<String, usize> = HashMap::new();
    let mut out = String::with_capacity(joined.len());
    let bytes = joined.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if joined[i..].starts_with('⊥') {
            let start = i + '⊥'.len_utf8();
            let mut j = start;
            while j < bytes.len() && bytes[j].is_ascii_digit() {
                j += 1;
            }
            let id = joined[start..j].to_owned();
            let next = ranks.len();
            let rank = *ranks.entry(id).or_insert(next);
            out.push_str(&format!("¤{rank}¤"));
            i = j;
        } else {
            let ch = joined[i..]
                .chars()
                .next()
                .expect("i < joined.len() and on a char boundary: i only advances by len_utf8");
            out.push(ch);
            i += ch.len_utf8();
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solution::is_solution;
    use pde_relational::parse_instance;

    /// Run the search to its first solution: `Some(true)` with a witness,
    /// `Some(false)` when the space was exhausted without one, `None` when
    /// a limit cut it short.
    fn first(
        p: &PdeSetting,
        input: &Instance,
        limits: GenericLimits,
    ) -> (Option<bool>, Option<Instance>, GenericStats) {
        let mut found = None;
        let (stats, exhausted, _) =
            for_each_solution(p, input, limits, &Governor::unlimited(), |sol| {
                found = Some(sol.clone());
                ControlFlow::Break(())
            })
            .unwrap();
        let decided = if found.is_some() {
            Some(true)
        } else {
            exhausted.then_some(false)
        };
        (decided, found, stats)
    }

    fn decided(p: &PdeSetting, input: &Instance) -> Option<bool> {
        first(p, input, GenericLimits::default()).0
    }

    #[test]
    fn agrees_with_assignment_solver_when_sigma_t_empty() {
        let p = PdeSetting::parse(
            "source E/2; target H/2;",
            "E(x, z), E(z, y) -> H(x, y)",
            "H(x, y) -> E(x, y)",
            "",
        )
        .unwrap();
        for src in [
            "E(a, b). E(b, c).",
            "E(a, a).",
            "E(a, b). E(b, c). E(a, c).",
            "E(a, b). E(b, a).",
        ] {
            let input = parse_instance(p.schema(), src).unwrap();
            let problem = crate::assignment::DisjunctiveProblem::from_setting(&p).unwrap();
            let fast = crate::assignment::solve(&problem, &input, &Governor::unlimited())
                .unwrap()
                .exists;
            assert_eq!(decided(&p, &input), Some(fast), "{src}");
        }
    }

    #[test]
    fn egd_boundary_setting_tiny_clique() {
        // §4 first boundary setting: single target egd, Σst/Σts in (1, 2.1)
        // — the existence problem encodes CLIQUE. (With the w-consistency
        // Σts tgd added as in the Theorem 3 reduction; see DESIGN.md.)
        let p = PdeSetting::parse(
            "source D/2; source E/2; target P/4;",
            "D(x, y) -> exists z, w . P(x, z, y, w)",
            "P(x, z, y, w) -> E(z, w)",
            "P(x, z, y, w), P(x, z2, y2, w2) -> z = z2;
             P(x, z, y, w), P(y, z2, y2, w2) -> w = z2",
        )
        .unwrap();
        // Triangle: solution exists (3-clique).
        let tri = parse_instance(
            p.schema(),
            "D(a1, a2). D(a2, a1). D(a1, a3). D(a3, a1). D(a2, a3). D(a3, a2).
             E(u, v). E(v, u). E(u, t). E(t, u). E(v, t). E(t, v).",
        )
        .unwrap();
        let (decided_tri, witness, _) = first(&p, &tri, GenericLimits::default());
        assert_eq!(decided_tri, Some(true));
        assert!(is_solution(&p, &tri, &witness.unwrap()));
        // Path: no 3-clique, no solution.
        let path = parse_instance(
            p.schema(),
            "D(a1, a2). D(a2, a1). D(a1, a3). D(a3, a1). D(a2, a3). D(a3, a2).
             E(u, v). E(v, u). E(v, t). E(t, v).",
        )
        .unwrap();
        assert_eq!(decided(&p, &path), Some(false));
    }

    #[test]
    fn weakly_acyclic_target_tgds() {
        // Σt tgd copies H into K; Σts then demands E-support for K.
        let p = PdeSetting::parse(
            "source E/2; source F/2; target H/2; target K/2;",
            "E(x, y) -> H(x, y)",
            "K(x, y) -> F(x, y)",
            "H(x, y) -> K(x, y)",
        )
        .unwrap();
        let good = parse_instance(p.schema(), "E(a, b). F(a, b).").unwrap();
        let (decided_good, witness, _) = first(&p, &good, GenericLimits::default());
        assert_eq!(decided_good, Some(true));
        assert!(is_solution(&p, &good, &witness.unwrap()));
        let bad = parse_instance(p.schema(), "E(a, b).").unwrap();
        assert_eq!(decided(&p, &bad), Some(false));
    }

    #[test]
    fn egd_conflict_in_j_means_no_solution() {
        let p = PdeSetting::parse(
            "source E/2; target H/2;",
            "E(x, y) -> H(x, y)",
            "",
            "H(x, y), H(x, z) -> y = z",
        )
        .unwrap();
        let input = parse_instance(p.schema(), "H(a, b). H(a, c).").unwrap();
        let (decided_j, _, stats) = first(&p, &input, GenericLimits::default());
        assert_eq!(decided_j, Some(false));
        assert!(stats.egd_failures >= 1);
    }

    #[test]
    fn egd_forces_merge_consistent_with_ts() {
        // Σst creates H(a, n); Σt egd merges n with b via J's H(a, b);
        // Σts then requires E-support for (a, b) — present.
        let p = PdeSetting::parse(
            "source E/2; source W/2; target H/2;",
            "E(x, y) -> exists z . H(x, z)",
            "H(x, y) -> W(x, y)",
            "H(x, y), H(x, z) -> y = z",
        )
        .unwrap();
        let good = parse_instance(p.schema(), "E(a, q). H(a, b). W(a, b).").unwrap();
        let (decided_good, witness, _) = first(&p, &good, GenericLimits::default());
        assert_eq!(decided_good, Some(true));
        assert!(is_solution(&p, &good, &witness.unwrap()));
        // Without W(a, b) the merged H(a, b) violates Σts.
        let bad = parse_instance(p.schema(), "E(a, q). H(a, b).").unwrap();
        assert_eq!(decided(&p, &bad), Some(false));
    }

    #[test]
    fn node_limit_yields_unknown() {
        let p = PdeSetting::parse(
            "source D/2; source E/2; target P/4;",
            "D(x, y) -> exists z, w . P(x, z, y, w)",
            "P(x, z, y, w) -> E(z, w)",
            "P(x, z, y, w), P(x, z2, y2, w2) -> z = z2",
        )
        .unwrap();
        let input = parse_instance(p.schema(), "D(a1, a2). D(a2, a1). E(u, v). E(v, u).").unwrap();
        let limits = GenericLimits {
            max_nodes: 1,
            ..Default::default()
        };
        let (decided_one, _, _) = first(&p, &input, limits);
        assert!(decided_one.is_none() || decided_one == Some(true));
    }

    #[test]
    fn branch_cap_degrades_to_unknown_not_no_solution() {
        // The only solution instantiates the existential with the adom
        // value `b` (a fresh null cannot match the ground Σts demand);
        // with every active-domain choice cut, the search must degrade to
        // Unknown rather than claim NoSolution.
        let p = PdeSetting::parse(
            "source E/2; source W/2; target H/2;",
            "E(x, y) -> exists z . H(x, z)",
            "H(x, y) -> W(x, y)",
            "H(x, y), H(x, z) -> y = z",
        )
        .unwrap();
        let input = parse_instance(p.schema(), "E(a, q). W(a, b).").unwrap();
        assert_eq!(decided(&p, &input), Some(true));
        let capped = GenericLimits {
            max_branches: 0,
            ..Default::default()
        };
        // Fresh-null branches alone cannot satisfy Σts here, and the
        // skipped branches forbid a NoSolution verdict.
        assert_eq!(first(&p, &input, capped).0, None);
    }

    #[test]
    fn governed_deadline_yields_stopped_not_no_solution() {
        use pde_runtime::GovernorConfig;
        use std::time::Duration;
        let p = PdeSetting::parse(
            "source E/2; target H/2;",
            "E(x, y) -> H(x, y)",
            "H(x, y) -> E(x, y)",
            "H(x, y), H(x, z) -> y = z",
        )
        .unwrap();
        let input = parse_instance(p.schema(), "E(a, b).").unwrap();
        let governor = Governor::new(GovernorConfig {
            deadline: Some(Duration::ZERO),
            ..GovernorConfig::default()
        });
        let (_, exhausted, stopped) =
            for_each_solution(&p, &input, GenericLimits::default(), &governor, |_| {
                ControlFlow::Break(())
            })
            .unwrap();
        assert!(matches!(stopped, Some(StopReason::DeadlineExceeded { .. })));
        assert!(!exhausted);
    }

    #[test]
    fn canonical_key_is_null_rename_invariant() {
        let p = PdeSetting::parse("source E/2; target H/2;", "", "", "").unwrap();
        let a = parse_instance(p.schema(), "H(?3, a). H(?3, ?7).").unwrap();
        let b = parse_instance(p.schema(), "H(?12, a). H(?12, ?1).").unwrap();
        assert_eq!(canonical_key(&a), canonical_key(&b));
        let c = parse_instance(p.schema(), "H(?3, a). H(?4, ?7).").unwrap();
        assert_ne!(canonical_key(&a), canonical_key(&c));
    }

    #[test]
    fn data_exchange_case_matches_chase() {
        // Σts = ∅: the generic solver must agree with the plain chase.
        let p = PdeSetting::parse(
            "source E/2; target H/2;",
            "E(x, y) -> exists z . H(x, z)",
            "",
            "H(x, y), H(x, z) -> y = z",
        )
        .unwrap();
        let input = parse_instance(p.schema(), "E(a, b). H(a, c).").unwrap();
        assert_eq!(decided(&p, &input), Some(true));
    }
}
