//! The Theorem 3 reduction: CLIQUE ≤p SOL(P).
//!
//! Given a graph `G` and `k`, the paper builds the source instance
//! `I(G, k)` with `D` the inequality relation on `k` fresh elements, `S`
//! the identity relation on `V`, and `E` the (symmetric, irreflexive) edge
//! relation; the target holds a single 4-ary relation `P`, and
//!
//! ```text
//! Σst: D(x,y) → ∃z ∃w P(x,z,y,w)
//! Σts: P(x,z,y,w) → E(z,w)
//!      P(x,z,y,w) ∧ P(x,z',y',w') → S(z,z')
//! ```
//!
//! **Correction.** As printed, the reduction is incomplete: nothing ties
//! the `w`-coordinate of `P(x,z,y,w)` to the node assigned to `y`, so any
//! graph with a single edge admits the solution that maps every element to
//! one endpoint and every `w` to the other. We therefore add the symmetric
//! consistency dependency
//!
//! ```text
//!      P(x,z,y,w) ∧ P(y,z',y',w') → S(w,z')
//! ```
//!
//! with which `G` has a `k`-clique iff a solution exists (validated in the
//! tests against the direct clique search). The added tgd preserves the
//! paper's classification analysis: condition 1 of `C_tract` still holds,
//! and conditions 2.1/2.2 still fail exactly as described in §4. The
//! original, literal setting is kept as
//! [`clique_setting_paper_literal`] so the discrepancy is reproducible.

use crate::graphs::Graph;
use pde_core::PdeSetting;
use pde_relational::{parse_instance, ConjunctiveQuery, Instance, UnionQuery};

/// The (corrected) Theorem 3 setting.
pub fn clique_setting() -> PdeSetting {
    PdeSetting::parse(
        "source D/2; source S/2; source E/2; target P/4;",
        "D(x, y) -> exists z, w . P(x, z, y, w)",
        "P(x, z, y, w) -> E(z, w);
         P(x, z, y, w), P(x, z2, y2, w2) -> S(z, z2);
         P(x, z, y, w), P(y, z2, y2, w2) -> S(w, z2)",
        "",
    )
    .expect("clique setting is well-formed")
}

/// The literal setting as printed in the paper (missing the `w`-coordinate
/// consistency tgd). Kept to document the discrepancy; see the module
/// docs and `tests::literal_setting_is_too_weak`.
pub fn clique_setting_paper_literal() -> PdeSetting {
    PdeSetting::parse(
        "source D/2; source S/2; source E/2; target P/4;",
        "D(x, y) -> exists z, w . P(x, z, y, w)",
        "P(x, z, y, w) -> E(z, w);
         P(x, z, y, w), P(x, z2, y2, w2) -> S(z, z2)",
        "",
    )
    .expect("literal clique setting is well-formed")
}

/// Names of the `k` elements: `elem0, elem1, …`.
fn elem(i: u32) -> String {
    format!("elem{i}")
}

/// Name of graph vertex `v`.
fn node(v: u32) -> String {
    format!("v{v}")
}

/// Build the source instance `I(G, k)`: `D` = inequality on `k` elements,
/// `S` = identity on `V`, `E` = symmetric edges of `G`. The target is
/// empty.
pub fn clique_instance(setting: &PdeSetting, g: &Graph, k: u32) -> Instance {
    let mut src = String::new();
    for i in 0..k {
        for j in 0..k {
            if i != j {
                src.push_str(&format!("D({}, {}). ", elem(i), elem(j)));
            }
        }
    }
    for v in 0..g.vertex_count() {
        src.push_str(&format!("S({}, {}). ", node(v), node(v)));
    }
    for (u, v) in g.edges() {
        src.push_str(&format!(
            "E({}, {}). E({}, {}). ",
            node(u),
            node(v),
            node(v),
            node(u)
        ));
    }
    parse_instance(setting.schema(), &src).expect("generated instance parses")
}

/// The coNP-hardness variant of the instance: the `k` distinct elements
/// are drawn from `V` itself (vertices `0..k`; the paper notes `V` can be
/// padded when it has fewer than `k` nodes). Combine with
/// [`certain_query`].
pub fn clique_instance_elements_from_v(setting: &PdeSetting, g: &Graph, k: u32) -> Instance {
    assert!(
        g.vertex_count() >= k,
        "pad the graph to at least k vertices first"
    );
    let mut src = String::new();
    for i in 0..k {
        for j in 0..k {
            if i != j {
                src.push_str(&format!("D({}, {}). ", node(i), node(j)));
            }
        }
    }
    for v in 0..g.vertex_count() {
        src.push_str(&format!("S({}, {}). ", node(v), node(v)));
    }
    for (u, v) in g.edges() {
        src.push_str(&format!(
            "E({}, {}). E({}, {}). ",
            node(u),
            node(v),
            node(v),
            node(u)
        ));
    }
    parse_instance(setting.schema(), &src).expect("generated instance parses")
}

/// The Boolean query `q = ∃x P(x, x, x, x)` of Theorem 3's coNP-hardness
/// argument: `certain(q, (I(G,k), ∅)) = false` iff `G` has a `k`-clique.
pub fn certain_query(setting: &PdeSetting) -> UnionQuery {
    let q = pde_relational::parse_query(setting.schema(), "P(x, x, x, x)").expect("query parses");
    UnionQuery::new(vec![q])
}

/// A non-Boolean probe query `q(x) :- P(x, z, y, w)` (the elements that
/// received an assignment), used in tests.
pub fn elements_query(setting: &PdeSetting) -> ConjunctiveQuery {
    pde_relational::parse_query(setting.schema(), "q(x) :- P(x, z, y, w)").expect("query parses")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graphs::has_k_clique;
    use pde_core::{certain_answers, decide, GenericLimits};

    #[test]
    fn reduction_agrees_with_direct_clique_search() {
        let p = clique_setting();
        let cases: Vec<(Graph, u32)> = vec![
            (Graph::complete(3), 3),
            (Graph::complete(4), 3),
            (Graph::complete(4), 4),
            (Graph::path(4), 3),
            (Graph::cycle(5), 3),
            (Graph::cycle(5), 2),
            (Graph::complete_bipartite(2, 2), 3),
            (Graph::planted_clique(6, 0.2, 3, 11), 3),
            (Graph::gnp(6, 0.3, 5), 3),
        ];
        for (g, k) in cases {
            let input = clique_instance(&p, &g, k);
            let out = decide(&p, &input).unwrap();
            assert_eq!(
                out.exists,
                Some(has_k_clique(&g, k)),
                "n={} k={k}",
                g.vertex_count()
            );
        }
    }

    #[test]
    fn literal_setting_is_too_weak() {
        // Documented discrepancy: under the setting exactly as printed, a
        // path (no 3-clique) still admits a solution.
        let p = clique_setting_paper_literal();
        let g = Graph::path(3);
        assert!(!has_k_clique(&g, 3));
        let input = clique_instance(&p, &g, 3);
        let out = decide(&p, &input).unwrap();
        assert_eq!(
            out.exists,
            Some(true),
            "the literal reduction accepts graphs without a k-clique"
        );
    }

    #[test]
    fn classification_matches_paper_discussion() {
        // Both the literal and corrected settings satisfy condition 1 and
        // violate 2.1 and 2.2 (§4's minimality discussion).
        for p in [clique_setting(), clique_setting_paper_literal()] {
            let c = p.classification();
            assert!(c.ctract.holds1());
            assert!(!c.ctract.holds2_1());
            assert!(!c.ctract.holds2_2());
            assert!(!c.tractable());
        }
    }

    #[test]
    fn certain_answers_refute_iff_clique_exists() {
        let p = clique_setting();
        let q = certain_query(&p);
        // Triangle, k = 3: clique exists ⇒ certain(q) = false.
        let tri = clique_instance_elements_from_v(&p, &Graph::complete(3), 3);
        let out = certain_answers(&p, &tri, &q, GenericLimits::default()).unwrap();
        assert!(out.solution_exists);
        assert!(!out.certain_bool());
        // Path, k = 3: no clique ⇒ no solution ⇒ certain(q) = true.
        let path = clique_instance_elements_from_v(&p, &Graph::path(3), 3);
        let out = certain_answers(&p, &path, &q, GenericLimits::default()).unwrap();
        assert!(!out.solution_exists);
        assert!(out.certain_bool());
    }

    #[test]
    fn witness_encodes_a_clique() {
        let p = clique_setting();
        let g = Graph::planted_clique(6, 0.1, 3, 2);
        let input = clique_instance(&p, &g, 3);
        let out = decide(&p, &input).unwrap();
        let w = out.witness.expect("clique exists");
        // Read the assignment off the witness: P(elem_i, z, elem_j, w).
        let prel = p.schema().rel_id("P").unwrap();
        for t in w.relation(prel).iter() {
            let z = t.get(1);
            let wv = t.get(3);
            assert!(z.is_const() && wv.is_const());
            assert_ne!(z, wv, "E is irreflexive, assigned nodes differ");
        }
    }

    #[test]
    fn instance_sizes_scale_as_expected() {
        let p = clique_setting();
        let g = Graph::complete(5);
        let input = clique_instance(&p, &g, 3);
        let d = p.schema().rel_id("D").unwrap();
        let s = p.schema().rel_id("S").unwrap();
        let e = p.schema().rel_id("E").unwrap();
        assert_eq!(input.relation(d).len(), 6); // k(k-1)
        assert_eq!(input.relation(s).len(), 5); // |V|
        assert_eq!(input.relation(e).len(), 20); // 2·|E|
    }
}
