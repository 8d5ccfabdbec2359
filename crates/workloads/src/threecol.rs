//! The §4 disjunctive boundary: 3-COLORABILITY ≤p SOL(P) once Σts may use
//! disjunction.
//!
//! Source relations: the edge relation `E` and three color unit relations
//! `R`, `B`, `G` (each holding one constant). Target: a copy `E2` of the
//! edges and the coloring relation `C`.
//!
//! ```text
//! Σst: E(x,y) → ∃u C(x,u)
//!      E(x,y) → E2(x,y)
//! Σts: E2(x,y) ∧ C(x,u) ∧ C(y,v) →   (R(u) ∧ B(v)) | (R(u) ∧ G(v))
//!                                  | (B(u) ∧ G(v)) | (B(u) ∧ R(v))
//!                                  | (G(u) ∧ R(v)) | (G(u) ∧ B(v))
//! ```
//!
//! (The paper's display garbles the ∧/∨ nesting; the intended formula is
//! the disjunction over the six ordered pairs of distinct colors.) The
//! plain parts of the setting satisfy conditions (1) and (2.2) of
//! `C_tract`, yet `E` is 3-colorable iff a solution exists — disjunction
//! alone crosses the tractability boundary.

use crate::graphs::Graph;
use pde_constraints::{parse_disjunctive_tgd, parser::parse_tgds};
use pde_core::assignment::DisjunctiveProblem;
use pde_relational::{parse_instance, parse_schema, Instance};
use std::sync::Arc;

/// Build the disjunctive 3-colorability problem.
pub fn threecol_problem() -> DisjunctiveProblem {
    let schema = Arc::new(
        parse_schema("source E/2; source R/1; source B/1; source G/1; target E2/2; target C/2;")
            .expect("schema parses"),
    );
    let st = parse_tgds(
        &schema,
        "E(x, y) -> exists u . C(x, u); E(x, y) -> E2(x, y)",
    )
    .expect("st tgds parse");
    let ts = vec![parse_disjunctive_tgd(
        &schema,
        "E2(x, y), C(x, u), C(y, v) -> R(u), B(v) | R(u), G(v) | B(u), G(v) \
         | B(u), R(v) | G(u), R(v) | G(u), B(v)",
    )
    .expect("disjunctive ts parses")];
    DisjunctiveProblem::new(schema, st, ts).expect("problem validates")
}

/// Build the source instance for graph `g`: symmetric edges plus the
/// three color constants `r`, `g`, `b`. The target is empty.
pub fn threecol_instance(problem: &DisjunctiveProblem, g: &Graph) -> Instance {
    let mut src = String::from("R(colr). G(colg). B(colb). ");
    for (u, v) in g.edges() {
        src.push_str(&format!("E(v{u}, v{v}). E(v{v}, v{u}). "));
    }
    parse_instance(problem.schema(), &src).expect("generated instance parses")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graphs::is_three_colorable;
    use pde_core::assignment::{self, AssignmentError, AssignmentOutcome};

    fn solve(
        p: &DisjunctiveProblem,
        input: &Instance,
    ) -> Result<AssignmentOutcome, AssignmentError> {
        assignment::solve(p, input, &pde_runtime::Governor::unlimited())
    }

    #[test]
    fn reduction_agrees_with_direct_coloring() {
        let p = threecol_problem();
        let cases = vec![
            Graph::cycle(4),
            Graph::cycle(5),
            Graph::complete(3),
            Graph::complete(4),
            Graph::complete_bipartite(2, 3),
            Graph::path(5),
            Graph::gnp(6, 0.4, 9),
        ];
        for g in cases {
            let input = threecol_instance(&p, &g);
            let out = solve(&p, &input).unwrap();
            assert_eq!(
                out.exists,
                is_three_colorable(&g),
                "n={} m={}",
                g.vertex_count(),
                g.edge_count()
            );
        }
    }

    #[test]
    fn witness_assigns_real_colors() {
        let p = threecol_problem();
        let g = Graph::cycle(5);
        let input = threecol_instance(&p, &g);
        let out = solve(&p, &input).unwrap();
        let w = out.witness.expect("odd cycles are 3-colorable");
        let c = p.schema().rel_id("C").unwrap();
        let colors: std::collections::BTreeSet<String> = w
            .relation(c)
            .iter()
            .map(|t| format!("{}", t.get(1)))
            .collect();
        assert!(colors
            .iter()
            .all(|s| ["colr", "colg", "colb"].contains(&s.as_str())));
        assert!(colors.len() >= 3, "an odd cycle needs all three colors");
    }

    #[test]
    fn k4_has_no_solution() {
        let p = threecol_problem();
        let input = threecol_instance(&p, &Graph::complete(4));
        assert!(!solve(&p, &input).unwrap().exists);
    }

    #[test]
    fn plain_parts_satisfy_ctract_conditions() {
        // The paper's point: Σst/Σts satisfy (1) and (2.2); only the
        // disjunction makes this hard. Check via the classifier on the
        // non-disjunctive skeleton (each disjunct separately is LAV-free
        // but single-premise... the relevant check is conditions 1 and 2.2
        // per disjunct-as-tgd).
        let p = threecol_problem();
        let d = &p.sigma_ts()[0];
        let marking = pde_constraints::Marking::of_st_tgds(p.sigma_st());
        // Each disjunct, viewed as a tgd, must respect conditions 1 and
        // 2.2 of Def. 9.
        for dj in &d.disjuncts {
            let t = pde_constraints::Tgd::new(
                d.premise.clone(),
                dj.existentials.iter().copied(),
                dj.conjunction.clone(),
            );
            let marked = marking.marked_variables(&t);
            // Condition 1: each marked variable at most once in the LHS.
            for v in &marked {
                assert!(t.premise.occurrences_of(*v) <= 1);
            }
            // Condition 2.2: marked RHS pairs — each disjunct's conjuncts
            // are unary, so no two marked variables co-occur at all.
            for atom in &t.conclusion.atoms {
                assert!(atom.variables().len() <= 1);
            }
        }
    }
}
