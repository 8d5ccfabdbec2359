//! The covering family of solutions behind Theorems 1 and 2.
//!
//! Both complete searches enumerate a family `F` of solutions such that
//! every solution contains a constant-preserving homomorphic image of
//! some member: for Σt = ∅ the solution images of `J_can` (the
//! null-assignment search, [`crate::assignment`]), otherwise the leaves
//! of the nondeterministic-witness chase ([`crate::generic`]). One family
//! answers every question the paper asks of it:
//!
//! * a solution exists iff `F` is non-empty ([`crate::solver`]);
//! * the certain answers of a monotone query are the intersection of its
//!   ground answers over `F` ([`crate::certain`]);
//! * [`crate::enumerate`] lists `F`.
//!
//! [`for_each_solution`] is the one way into the two searches.

use crate::assignment::{self, DisjunctiveProblem};
use crate::generic::{self, GenericLimits};
use crate::setting::PdeSetting;
use crate::solver::{SearchSummary, SolveError};
use pde_chase::ChaseStats;
use pde_relational::Instance;
use pde_runtime::{Governor, StopReason};
use std::ops::ControlFlow;

/// Which complete search walks the family.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Search {
    /// Null-assignment search over the images of `J_can` (Σt = ∅).
    Assignment,
    /// Nondeterministic-witness chase search (any Σt).
    Generic,
}

impl Search {
    /// The search that covers `setting`: the null-assignment search when
    /// Σt = ∅, the witness-chase search otherwise.
    pub(crate) fn for_setting(setting: &PdeSetting) -> Search {
        if setting.has_no_target_constraints() {
            Search::Assignment
        } else {
            Search::Generic
        }
    }
}

/// How a walk over the family ended.
pub(crate) struct FamilyEnd {
    /// Search counters, normalized across the two searches.
    pub(crate) search: SearchSummary,
    /// Counters of the Σst chase that built `J_can`, when the
    /// null-assignment search ran.
    pub(crate) chase_stats: Option<ChaseStats>,
    /// The whole family was walked: no limit, governor stop or sink break
    /// cut it short.
    pub(crate) exhausted: bool,
    /// Why the governor stopped the walk, when it did.
    pub(crate) stopped: Option<StopReason>,
}

/// Hand every member of the covering family of `input` to `f`, in the
/// order `search` finds them, until `f` breaks, `limits` or `governor`
/// cut the walk short, or the family is exhausted. `limits` bound the
/// witness-chase search only.
///
/// A search that cannot run on `setting` (input with nulls, a Σst chase
/// over its limits, a null-assignment search asked of a setting with
/// target constraints) is a [`SolveError::Precondition`].
pub(crate) fn for_each_solution(
    setting: &PdeSetting,
    input: &Instance,
    search: Search,
    limits: GenericLimits,
    governor: &Governor,
    f: impl FnMut(&Instance) -> ControlFlow<()>,
) -> Result<FamilyEnd, SolveError> {
    let precondition = |e: &dyn std::fmt::Display| SolveError::Precondition(e.to_string());
    match search {
        Search::Assignment => {
            let problem =
                DisjunctiveProblem::from_setting(setting).map_err(|e| precondition(&e))?;
            let (stats, exhausted, stopped) =
                assignment::for_each_solution(&problem, input, governor, f)
                    .map_err(|e| precondition(&e))?;
            Ok(FamilyEnd {
                search: SearchSummary {
                    branches: stats.nodes,
                    candidates_checked: stats.candidates_checked,
                    prunes: stats.prunes,
                },
                chase_stats: Some(stats.chase_stats),
                exhausted,
                stopped,
            })
        }
        Search::Generic => {
            let (stats, exhausted, stopped) =
                generic::for_each_solution(setting, input, limits, governor, f)
                    .map_err(|e| precondition(&e))?;
            Ok(FamilyEnd {
                search: SearchSummary {
                    branches: stats.nodes,
                    candidates_checked: stats.candidates_checked,
                    prunes: stats.memo_hits + stats.ts_prunes + stats.egd_failures,
                },
                chase_stats: None,
                exhausted,
                stopped,
            })
        }
    }
}
