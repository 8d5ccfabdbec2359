//! Scalable workloads for the LAV tractable class (Corollary 2 / E5).
//!
//! Σst is an arbitrary tgd set; Σts consists of LAV dependencies (single
//! unrepeated-variable premise), so the setting is in `C_tract` and
//! `ExistsSolution` runs in polynomial time. The generators produce
//! instances of controllable size in both the solvable and unsolvable
//! regimes, so the E5 sweep measures genuine work in each.

use crate::graphs::Graph;
use pde_core::PdeSetting;
use pde_relational::{parse_instance, Instance};

/// The LAV path-closure setting: `H` must be supported by `E`, edge by
/// edge and 2-path by 2-path.
///
/// ```text
/// Σst: E(x,z) ∧ E(z,y) → H(x,y)
/// Σts: H(x,y) → ∃z . E(x,z) ∧ E(z,y)         (LAV, with existential)
///      H(x,y) → E(x,y)                       (LAV, no existentials)
/// ```
///
/// The existential dependency is listed first so the `I_can` chase creates
/// genuine null blocks before the full dependency fills in the ground
/// demands — exercising the Theorem 6 block machinery.
pub fn lav_setting() -> PdeSetting {
    PdeSetting::parse(
        "source E/2; target H/2;",
        "E(x, z), E(z, y) -> H(x, y)",
        "H(x, y) -> exists z . E(x, z), E(z, y); H(x, y) -> E(x, y)",
        "",
    )
    .expect("LAV setting is well-formed")
}

/// A *solvable* instance of size Θ(cliques·size²): a disjoint union of
/// directed cliques with self-loops. Such graphs are closed under 2-path
/// composition, and every edge lies on a 2-path, so a solution always
/// exists and the solver does full work on it.
pub fn lav_solvable_instance(setting: &PdeSetting, cliques: u32, size: u32) -> Instance {
    let mut src = String::new();
    for c in 0..cliques {
        for u in 0..size {
            for v in 0..size {
                src.push_str(&format!("E(c{c}n{u}, c{c}n{v}). "));
            }
        }
    }
    parse_instance(setting.schema(), &src).expect("generated instance parses")
}

/// An *unsolvable* variant: one cross-clique edge breaks closure (its
/// forced `H` fact has no `E` support).
pub fn lav_unsolvable_instance(setting: &PdeSetting, cliques: u32, size: u32) -> Instance {
    assert!(cliques >= 2 && size >= 1);
    let mut inst = lav_solvable_instance(setting, cliques, size);
    let extra = parse_instance(setting.schema(), "E(c0n0, c1n0).").expect("parses");
    inst = inst.union(&extra);
    inst
}

/// A graph-shaped instance for arbitrary inputs (used by property tests):
/// directed edges of `g` plus optional self-loops.
pub fn lav_graph_instance(setting: &PdeSetting, g: &Graph, self_loops: bool) -> Instance {
    let mut src = String::new();
    for (u, v) in g.edges() {
        src.push_str(&format!("E(v{u}, v{v}). E(v{v}, v{u}). "));
    }
    if self_loops {
        for v in 0..g.vertex_count() {
            src.push_str(&format!("E(v{v}, v{v}). "));
        }
    }
    parse_instance(setting.schema(), &src).expect("generated instance parses")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decide_by;
    use pde_core::{tractable, GenericLimits, SolverKind};

    #[test]
    fn setting_is_in_ctract_via_lav() {
        let p = lav_setting();
        let c = p.classification();
        assert!(c.ctract.ts_all_lav);
        assert!(c.tractable());
    }

    #[test]
    fn solvable_instances_solve() {
        let p = lav_setting();
        for (cl, sz) in [(1u32, 2u32), (2, 3), (3, 2)] {
            let input = lav_solvable_instance(&p, cl, sz);
            let out = tractable::exists_solution(&p, &input).unwrap();
            assert!(out.exists, "cliques={cl} size={sz}");
            assert!(pde_core::is_solution(&p, &input, &out.witness.unwrap()));
        }
    }

    #[test]
    fn unsolvable_instances_fail() {
        let p = lav_setting();
        let input = lav_unsolvable_instance(&p, 2, 2);
        assert!(!tractable::exists_solution(&p, &input).unwrap().exists);
    }

    #[test]
    fn tractable_and_assignment_solvers_agree() {
        let p = lav_setting();
        for input in [
            lav_solvable_instance(&p, 2, 2),
            lav_unsolvable_instance(&p, 2, 2),
            lav_graph_instance(&p, &Graph::cycle(4), true),
            lav_graph_instance(&p, &Graph::cycle(4), false),
            lav_graph_instance(&p, &Graph::complete(3), true),
        ] {
            let fast = tractable::exists_solution(&p, &input).unwrap().exists;
            let slow = decide_by(
                SolverKind::AssignmentSearch,
                &p,
                &input,
                GenericLimits::default(),
            );
            assert_eq!(Some(fast), slow.exists);
        }
    }

    #[test]
    fn instance_sizes_scale_quadratically_in_clique_size() {
        let p = lav_setting();
        let i = lav_solvable_instance(&p, 2, 4);
        assert_eq!(i.fact_count(), 2 * 16);
    }
}
