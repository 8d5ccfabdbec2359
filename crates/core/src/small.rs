//! Lemma 2: extracting a polynomial-size solution from any solution.
//!
//! The paper's NP upper bound rests on this: if `(I, J)` has a solution
//! `J'`, then the **solution-aware chase** of `(I, J)` with Σst ∪ Σt —
//! drawing every existential witness from `J'` — terminates (Lemma 1, via
//! weak acyclicity) in a solution `J* ⊆ J'` whose size is polynomial in
//! `|(I, J)|`. `J*` satisfies Σst ∪ Σt because the chase ran to
//! completion, and Σts for free: its premises over `J* ⊆ J'` are premises
//! over `J'`, whose Σts conclusions live in the *fixed* source instance.
//!
//! [`shrink_solution`] makes the lemma executable: give it any (possibly
//! bloated) solution and get back the chase-extracted small one.

use crate::setting::PdeSetting;
use crate::solution::is_solution;
use pde_chase::{chase, ChaseOptions, WitnessMode};
use pde_constraints::Dependency;
use pde_relational::Instance;
use std::fmt;

/// Errors of the Lemma 2 extraction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ShrinkError {
    /// The supplied candidate is not a solution for the input.
    NotASolution,
    /// The solution-aware chase hit its limits (target tgds not weakly
    /// acyclic — outside Lemma 2's hypothesis).
    ChaseDidNotTerminate,
}

impl fmt::Display for ShrinkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShrinkError::NotASolution => write!(f, "candidate is not a solution"),
            ShrinkError::ChaseDidNotTerminate => {
                write!(f, "solution-aware chase exceeded its limits")
            }
        }
    }
}

impl std::error::Error for ShrinkError {}

/// Lemma 2, constructively: given a solution `big` for `input`, return a
/// solution `J* ⊆ big` obtained by the solution-aware chase of `input`
/// with Σst ∪ Σt and witnesses from `big`.
pub fn shrink_solution(
    setting: &PdeSetting,
    input: &Instance,
    big: &Instance,
) -> Result<Instance, ShrinkError> {
    if !is_solution(setting, input, big) {
        return Err(ShrinkError::NotASolution);
    }
    let deps: Vec<Dependency> = setting
        .sigma_st()
        .iter()
        .cloned()
        .map(Dependency::Tgd)
        .chain(setting.sigma_t().iter().cloned())
        .collect();
    let res = chase(
        input.clone(),
        &deps,
        WitnessMode::FromSolution(big),
        &ChaseOptions::default(),
    );
    if !res.is_success() {
        return Err(ShrinkError::ChaseDidNotTerminate);
    }
    let small = res.instance;
    debug_assert!(small.contained_in(big), "Lemma 2: J* ⊆ J'");
    debug_assert!(
        is_solution(setting, input, &small),
        "Lemma 2: J* is a solution"
    );
    Ok(small)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pde_relational::parse_instance;

    fn example1() -> PdeSetting {
        PdeSetting::parse(
            "source E/2; target H/2;",
            "E(x, z), E(z, y) -> H(x, y)",
            "H(x, y) -> E(x, y)",
            "",
        )
        .unwrap()
    }

    #[test]
    fn shrinks_the_bloated_triangle_solution() {
        // Paper Example 1, third instance: both {H(a,c)} and the full
        // H-set are solutions; Lemma 2 extracts the small one from the big
        // one.
        let p = example1();
        let input = parse_instance(p.schema(), "E(a, b). E(b, c). E(a, c).").unwrap();
        let big = parse_instance(
            p.schema(),
            "E(a, b). E(b, c). E(a, c). H(a, b). H(b, c). H(a, c).",
        )
        .unwrap();
        let small = shrink_solution(&p, &input, &big).unwrap();
        assert!(small.contained_in(&big));
        assert!(is_solution(&p, &input, &small));
        let h = p.schema().rel_id("H").unwrap();
        assert_eq!(
            small.relation(h).len(),
            1,
            "only the forced H(a, c) remains"
        );
    }

    #[test]
    fn preserves_j_facts() {
        // Facts of J always survive (the chase starts from (I, J)).
        let p = example1();
        let input = parse_instance(p.schema(), "E(a, a). E(b, b). H(b, b).").unwrap();
        let big =
            parse_instance(p.schema(), "E(a, a). E(b, b). H(a, a). H(b, b). H(a, b).").unwrap();
        // H(a,b) is junk (but supported: E(a,b)? no — E(a,b) ∉ I, so big
        // isn't a solution with it). Use a supported bloat instead.
        assert!(!is_solution(&p, &input, &big));
        let big_ok = parse_instance(p.schema(), "E(a, a). E(b, b). H(a, a). H(b, b).").unwrap();
        let small = shrink_solution(&p, &input, &big_ok).unwrap();
        let h = p.schema().rel_id("H").unwrap();
        assert!(
            small.contains(h, &pde_relational::Tuple::consts(["b", "b"])),
            "J ⊆ J*"
        );
    }

    #[test]
    fn rejects_non_solutions() {
        let p = example1();
        let input = parse_instance(p.schema(), "E(a, b). E(b, c).").unwrap();
        let junk = parse_instance(p.schema(), "E(a, b). E(b, c). H(a, c).").unwrap();
        assert_eq!(
            shrink_solution(&p, &input, &junk),
            Err(ShrinkError::NotASolution)
        );
    }

    #[test]
    fn works_with_target_constraints() {
        let p = PdeSetting::parse(
            "source E/2; source W/2; target H/2; target K/2;",
            "E(x, y) -> H(x, y)",
            "K(x, y) -> W(x, y)",
            "H(x, y) -> K(x, y)",
        )
        .unwrap();
        let input = parse_instance(p.schema(), "E(a, b). W(a, b). W(q, q).").unwrap();
        let big = parse_instance(
            p.schema(),
            "E(a, b). W(a, b). W(q, q). H(a, b). K(a, b). K(q, q).",
        )
        .unwrap();
        let small = shrink_solution(&p, &input, &big).unwrap();
        assert!(is_solution(&p, &input, &small));
        let k = p.schema().rel_id("K").unwrap();
        // The junk K(q, q) is gone; the forced K(a, b) stays.
        assert_eq!(small.relation(k).len(), 1);
    }

    #[test]
    fn size_is_polynomial_in_input() {
        // The shrunk solution never exceeds the Lemma 1 bound.
        let p = example1();
        let input = parse_instance(p.schema(), "E(a, b). E(b, c). E(a, c). E(c, a).").unwrap();
        if let Ok(small) = {
            // Build some solution first via the complete solver.
            let problem = crate::assignment::DisjunctiveProblem::from_setting(&p).unwrap();
            let governor = pde_runtime::Governor::unlimited();
            let out = crate::assignment::solve(&problem, &input, &governor).unwrap();
            match out.witness {
                Some(w) => shrink_solution(&p, &input, &w),
                None => return, // no solution for this input: nothing to test
            }
        } {
            let bound =
                pde_constraints::chase_bound(p.schema(), p.sigma_st(), input.active_domain().len())
                    .unwrap();
            assert!(small.fact_count() <= bound.fact_bound);
        }
    }
}
