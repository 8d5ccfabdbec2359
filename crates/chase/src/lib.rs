//! Chase engines for peer data exchange.
//!
//! * [`satisfy`]: dependency satisfaction checks (`K ⊨ d`);
//! * [`engine`]: the one production chase, [`chase`]: the standard chase
//!   with fresh nulls and the paper's solution-aware chase (Definitions
//!   6–7), semi-naive and delta-driven (see `docs/CHASE.md`);
//! * [`oracle`]: the naive chase behind the same signature, the
//!   differential-testing oracle for tests and benchmarks;
//! * [`result`]: outcomes (success / egd failure / resource limits) and
//!   step statistics.
//!
//! The solution-aware chase is the tool behind the paper's NP upper bound
//! (Lemmas 1–2): chasing `(I, J)` while drawing existential witnesses from
//! a known solution `J'` yields a solution of polynomial size contained in
//! `J'`.

pub mod engine;
pub mod oracle;
pub mod result;
pub mod satisfy;

pub use engine::{chase, null_gen_for, ChaseOptions, DepSchedule, WitnessMode};
pub use result::{ChaseLimits, ChaseOutcome, ChaseResult, ChaseStats, StepRecord};
pub use satisfy::{
    find_egd_violation, find_tgd_violation, satisfies, satisfies_all, satisfies_all_tgds,
    satisfies_disjunctive, satisfies_egd, satisfies_tgd,
};
