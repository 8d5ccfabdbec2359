//! Scalable workloads for the full-Σst tractable class (Corollary 1 / E6).
//!
//! Every source-to-target tgd is *full* (no existentials), so no target
//! position is marked and condition 2.2 of `C_tract` holds regardless of
//! the shape of Σts — which here has multi-literal premises and
//! existentials, i.e. it is *not* LAV, exercising the 2.2 side of the
//! class.

use pde_core::PdeSetting;
use pde_relational::{parse_instance, Instance};

/// The full-Σst setting: target mirrors `E` in `H` and `K`; Σts demands
/// 2-path support for `H∘K` compositions.
///
/// ```text
/// Σst: E(x,y) → H(x,y)
///      E(x,y) → K(y,x)
/// Σts: H(x,y) ∧ K(y,z) → ∃u . E(x,u) ∧ E(u,z)   (multi-literal, ∃)
/// ```
pub fn full_setting() -> PdeSetting {
    PdeSetting::parse(
        "source E/2; target H/2; target K/2;",
        "E(x, y) -> H(x, y); E(x, y) -> K(y, x)",
        "H(x, y), K(y, z) -> exists u . E(x, u), E(u, z)",
        "",
    )
    .expect("full setting is well-formed")
}

/// Solvable instance: a union of directed cliques with self-loops (closed
/// under all the demanded compositions).
pub fn full_solvable_instance(setting: &PdeSetting, cliques: u32, size: u32) -> Instance {
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

/// Unsolvable variant: a single edge with no 2-path support for the pair
/// (`H(a,b)`, `K(b,a)`) demands `E(a,u), E(u,a)` — absent.
pub fn full_unsolvable_instance(setting: &PdeSetting) -> Instance {
    parse_instance(setting.schema(), "E(a, b).").expect("parses")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decide_by;
    use pde_core::{tractable, GenericLimits, SolverKind};

    #[test]
    fn setting_is_in_ctract_via_full_st() {
        let p = full_setting();
        let c = p.classification();
        assert!(c.ctract.st_all_full);
        assert!(!c.ctract.ts_all_lav, "Σts is genuinely non-LAV");
        assert!(!c.ctract.holds2_1(), "exercises the 2.2 side of the class");
        assert!(c.ctract.holds2_2());
        assert!(c.tractable());
    }

    #[test]
    fn solvable_and_unsolvable_cases() {
        let p = full_setting();
        let good = full_solvable_instance(&p, 2, 3);
        let out = tractable::exists_solution(&p, &good).unwrap();
        assert!(out.exists);
        assert!(pde_core::is_solution(&p, &good, &out.witness.unwrap()));
        let bad = full_unsolvable_instance(&p);
        assert!(!tractable::exists_solution(&p, &bad).unwrap().exists);
    }

    #[test]
    fn solvers_agree() {
        let p = full_setting();
        for input in [
            full_solvable_instance(&p, 1, 2),
            full_solvable_instance(&p, 2, 2),
            full_unsolvable_instance(&p),
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
}
