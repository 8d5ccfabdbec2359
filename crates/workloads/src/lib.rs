//! Workload generators and hardness reductions for the peer data exchange
//! experiments (see `EXPERIMENTS.md` at the workspace root).
//!
//! * [`graphs`]: graph type, generators, and direct CLIQUE / 3-COL
//!   baselines;
//! * [`clique`]: the Theorem 3 reduction (with the documented correction);
//! * [`threecol`]: the §4 disjunctive boundary reduction;
//! * [`boundary`]: the §4 target-egd and full-target-tgd boundary settings;
//! * [`lav`] / [`full`]: scalable `C_tract` workloads (Corollaries 2 / 1);
//! * [`genomics`]: the §1 Swiss-Prot-style motivating scenario;
//! * [`paper`]: every worked example of the paper as a fixture;
//! * [`random`]: random settings/instances for differential solver testing.

pub mod boundary;
pub mod clique;
pub mod full;
pub mod genomics;
pub mod graphs;
pub mod lav;
pub mod paper;
pub mod random;
pub mod threecol;

pub use graphs::{has_k_clique, is_three_colorable, k_coloring, Graph};

/// Decide `setting` on `input` with the solver `kind`, whatever the
/// setting's classification: the differential tests use it to run one
/// complete search against another.
pub fn decide_by(
    kind: pde_core::SolverKind,
    setting: &pde_core::PdeSetting,
    input: &pde_relational::Instance,
    limits: pde_core::GenericLimits,
) -> pde_core::SolveReport {
    let plan = pde_core::SolvePlan {
        kind,
        limits,
        ..pde_core::SolvePlan::for_setting(setting)
    };
    let governor = pde_runtime::Governor::unlimited();
    pde_core::decide_governed_scheduled(setting, input, &plan, None, &governor).unwrap()
}
