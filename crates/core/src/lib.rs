//! Peer data exchange (PODS 2005): the paper's primary contribution.
//!
//! This crate defines PDE settings and implements all the paper's
//! algorithms:
//!
//! * [`setting`]: `P = (S, T, Σst, Σts, Σt)` with validation and static
//!   classification (Def. 1, Def. 9);
//! * [`solution`]: solution checking (Def. 2);
//! * [`blocks`](mod@blocks): block decomposition and Prop. 1;
//! * [`tractable`]: the polynomial `ExistsSolution` of Fig. 3 (Thms. 4–6);
//! * [`assignment`]: complete solver for Σt = ∅ (the Theorem 1 NP
//!   procedure, specialized to no target constraints), including the §4
//!   disjunctive extension;
//! * [`generic`]: complete witness-chase search for any Σt (Theorem 1);
//! * [`data_exchange`]: the chase-only baseline for Σts = ∅ (§3);
//! * [`solver`]: the façade that routes `SOL(P)` to one of the above;
//! * [`certain`]: certain answers of unions of conjunctive queries
//!   (Def. 4, Theorem 2);
//! * [`enumerate`]: the covering family of solutions as a stream;
//! * [`small`]: Lemma 2's polynomial-size solution extraction;
//! * [`multi`]: multi-PDE settings and their union reduction (§2);
//! * [`pdms`]: the embedding of PDE settings into PDMS (§2);
//! * [`bundle`]: the `.pde` bundle file format.
//!
//! The two complete searches are reached through one crate-internal walk
//! over the covering family of solutions, which backs `decide`, the
//! certain answers, and enumeration alike.

pub mod assignment;
pub mod blocks;
mod family;
pub mod setting;
pub mod solution;
pub mod tractable;

pub use assignment::{AssignmentError, AssignmentOutcome, DisjunctiveProblem, SearchStats};
pub use blocks::{blocks, blockwise_hom_exists, max_block_nulls, Block};
pub use setting::{PdeSetting, SettingClass, SettingError};
pub use solution::{check_solution, core_solution, is_solution, SolutionViolation};
pub use tractable::{
    exists_solution, exists_solution_from_chased, TractableError, TractableOutcome, TractableStats,
};

pub mod generic;
pub use generic::{GenericError, GenericLimits, GenericStats};

pub mod certain;
pub use certain::{brute_force_certain_superset, certain_answers, CertainError, CertainOutcome};

pub mod bundle;
pub mod data_exchange;
pub mod enumerate;
pub mod multi;
pub mod pdms;
pub mod small;
pub mod solver;
pub use bundle::{split_sections, Bundle, BundleError, BundleSources, Section};
pub use data_exchange::{solve_data_exchange, DataExchangeError, DataExchangeOutcome};
pub use enumerate::{enumerate_solutions, EnumerateOptions, SolutionFamily};
pub use multi::{MultiPdeError, MultiPdeSetting, PeerConstraints};
pub use pdms::{Pdms, StorageDescription};
pub use small::{shrink_solution, ShrinkError};
pub use solver::{
    decide, decide_governed_scheduled, SearchSummary, SolveError, SolvePlan, SolveReport,
    SolverKind,
};
