//! The §4 target-constraint boundary settings.
//!
//! Both settings keep Σst and Σts inside conditions (1) and (2.1) of
//! `C_tract`, yet adding a *single* target egd — or a single *full* target
//! tgd — makes the existence-of-solutions problem NP-hard again, via
//! CLIQUE. As with the Theorem 3 reduction, the printed constraint sets
//! lack the `w`-coordinate consistency dependency; we add its egd/tgd
//! analogue (see `crate::clique` and DESIGN.md), which stays within the
//! same boundary shape (still "target egds only" / "one more full target
//! tgd").

use crate::graphs::Graph;
use pde_core::PdeSetting;
use pde_relational::{parse_instance, Instance};

/// Boundary setting 1: Σst/Σts satisfy (1) and (2.1); Σt holds egds only.
///
/// ```text
/// Σst: D(x,y) → ∃z ∃w P(x,z,y,w)
/// Σt:  P(x,z,y,w) ∧ P(x,z',y',w') → z = z'
///      P(x,z,y,w) ∧ P(y,z',y',w') → w = z'     (consistency, added)
/// Σts: P(x,z,y,w) → E(z,w)
/// ```
pub fn egd_boundary_setting() -> PdeSetting {
    PdeSetting::parse(
        "source D/2; source E/2; target P/4;",
        "D(x, y) -> exists z, w . P(x, z, y, w)",
        "P(x, z, y, w) -> E(z, w)",
        "P(x, z, y, w), P(x, z2, y2, w2) -> z = z2;
         P(x, z, y, w), P(y, z2, y2, w2) -> w = z2",
    )
    .expect("egd boundary setting is well-formed")
}

/// Boundary setting 2: Σst/Σts satisfy (1) and (2.1); Σt holds full tgds
/// only.
///
/// ```text
/// Σst: S(z,w) → S2(z,w)
///      D(x,y) → ∃z ∃w P(x,z,y,w)
/// Σt:  P(x,z,y,w) ∧ P(x,z',y',w') → S2(z,z')
///      P(x,z,y,w) ∧ P(y,z',y',w') → S2(w,z')   (consistency, added)
/// Σts: S2(z,z') → S(z,z')
///      P(x,z,y,w) → E(z,w)
/// ```
pub fn full_tgd_boundary_setting() -> PdeSetting {
    PdeSetting::parse(
        "source D/2; source S/2; source E/2; target P/4; target S2/2;",
        "S(z, w) -> S2(z, w); D(x, y) -> exists z, w . P(x, z, y, w)",
        "S2(z, z2) -> S(z, z2); P(x, z, y, w) -> E(z, w)",
        "P(x, z, y, w), P(x, z2, y2, w2) -> S2(z, z2);
         P(x, z, y, w), P(y, z2, y2, w2) -> S2(w, z2)",
    )
    .expect("full-tgd boundary setting is well-formed")
}

/// Source instance for the egd boundary: `D` = inequality on `k` elements,
/// `E` = symmetric edges (no `S` — the egds replace it).
pub fn egd_boundary_instance(setting: &PdeSetting, g: &Graph, k: u32) -> Instance {
    let mut src = String::new();
    for i in 0..k {
        for j in 0..k {
            if i != j {
                src.push_str(&format!("D(elem{i}, elem{j}). "));
            }
        }
    }
    for (u, v) in g.edges() {
        src.push_str(&format!("E(v{u}, v{v}). E(v{v}, v{u}). "));
    }
    parse_instance(setting.schema(), &src).expect("generated instance parses")
}

/// Source instance for the full-tgd boundary: `D` inequality, `S` identity
/// on `V`, `E` symmetric edges.
pub fn full_tgd_boundary_instance(setting: &PdeSetting, g: &Graph, k: u32) -> Instance {
    let mut src = String::new();
    for i in 0..k {
        for j in 0..k {
            if i != j {
                src.push_str(&format!("D(elem{i}, elem{j}). "));
            }
        }
    }
    for v in 0..g.vertex_count() {
        src.push_str(&format!("S(v{v}, v{v}). "));
    }
    for (u, v) in g.edges() {
        src.push_str(&format!("E(v{u}, v{v}). E(v{v}, v{u}). "));
    }
    parse_instance(setting.schema(), &src).expect("generated instance parses")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graphs::has_k_clique;
    use pde_core::decide;

    #[test]
    fn both_settings_are_in_ctract_shape_modulo_target_constraints() {
        for p in [egd_boundary_setting(), full_tgd_boundary_setting()] {
            let c = p.classification();
            // Σst/Σts satisfy conditions 1 and 2.1…
            assert!(c.ctract.holds1());
            assert!(c.ctract.holds2_1());
            assert!(c.ctract.in_ctract());
            // …but the target constraints put the setting outside the
            // scope of Theorem 4.
            assert!(c.has_target_constraints);
            assert!(!c.tractable());
            assert!(c.target_tgds_weakly_acyclic);
        }
    }

    #[test]
    fn egd_boundary_encodes_clique() {
        let p = egd_boundary_setting();
        for (g, k) in [
            (Graph::complete(3), 3u32),
            (Graph::path(3), 3),
            (Graph::cycle(4), 2),
            (Graph::complete_bipartite(2, 2), 3),
        ] {
            let input = egd_boundary_instance(&p, &g, k);
            let out = decide(&p, &input).unwrap();
            assert_eq!(out.exists, Some(has_k_clique(&g, k)), "k={k}");
        }
    }

    #[test]
    fn full_tgd_boundary_encodes_clique() {
        let p = full_tgd_boundary_setting();
        for (g, k) in [(Graph::complete(3), 3u32), (Graph::path(3), 3)] {
            let input = full_tgd_boundary_instance(&p, &g, k);
            let out = decide(&p, &input).unwrap();
            assert_eq!(out.exists, Some(has_k_clique(&g, k)), "k={k}");
        }
    }
}
