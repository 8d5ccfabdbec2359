//! Multi-PDE settings: several source peers exchanging data with one
//! target peer (paper §2).
//!
//! A multi-PDE setting is a family `P_1 = (S_1, T, Σ_{s1 t}, Σ_{t s1},
//! Σ_{t1}), …, P_n` over pairwise disjoint source schemas. A target
//! instance `J'` is a solution for `((I_1, …, I_n), J)` iff it is a
//! solution for `(I_m, J)` in every `P_m` — and, as the paper observes,
//! iff it is a solution for `(I_1 ∪ ⋯ ∪ I_n, J)` in the *union* setting
//! whose constraint sets are the unions of the per-peer ones. The
//! [`MultiPdeSetting::to_single`] construction implements that reduction,
//! so every solver in this crate applies to multi-peer exchanges
//! unchanged.

use crate::setting::{PdeSetting, SettingError};
use crate::solution::{check_solution, SolutionViolation};
use pde_constraints::Dependency;
use pde_relational::{Instance, RelId, Schema};
use std::collections::BTreeSet;
use std::sync::Arc;

/// The constraints of one source peer against the shared target.
#[derive(Clone, Debug)]
pub struct PeerConstraints {
    /// Human-readable peer name (for reports).
    pub name: String,
    /// This peer's Σst.
    pub sigma_st: Vec<pde_constraints::Tgd>,
    /// This peer's Σts.
    pub sigma_ts: Vec<pde_constraints::Tgd>,
    /// This peer's Σt.
    pub sigma_t: Vec<Dependency>,
}

/// A multi-PDE setting over one combined schema: the union of the pairwise
/// disjoint source schemas `S_1, …, S_n` plus the target schema `T`.
#[derive(Clone, Debug)]
pub struct MultiPdeSetting {
    schema: Arc<Schema>,
    peers: Vec<PeerConstraints>,
}

impl MultiPdeSetting {
    /// Build a multi-PDE setting; validates each peer's constraints as a
    /// PDE setting over the combined schema and checks that the peers'
    /// source relations are pairwise disjoint (the paper's disjointness
    /// requirement on `S_1, …, S_n`).
    pub fn new(
        schema: Arc<Schema>,
        peers: Vec<PeerConstraints>,
    ) -> Result<MultiPdeSetting, MultiPdeError> {
        let mut claimed: BTreeSet<RelId> = BTreeSet::new();
        for (i, p) in peers.iter().enumerate() {
            // Validate orientation etc. by building the per-peer setting.
            PdeSetting::new(
                schema.clone(),
                p.sigma_st.clone(),
                p.sigma_ts.clone(),
                p.sigma_t.clone(),
            )
            .map_err(|e| MultiPdeError::Peer { index: i, error: e })?;
            let mine = source_rels_of(&p.sigma_st, &p.sigma_ts);
            for r in mine {
                if !claimed.insert(r) {
                    return Err(MultiPdeError::OverlappingSources {
                        peer: p.name.clone(),
                        relation: schema.name(r).as_str(),
                    });
                }
            }
        }
        Ok(MultiPdeSetting { schema, peers })
    }

    /// The combined schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// The peers.
    pub fn peers(&self) -> &[PeerConstraints] {
        &self.peers
    }

    /// Per-peer view as a PDE setting.
    pub fn peer_setting(&self, index: usize) -> PdeSetting {
        let p = &self.peers[index];
        PdeSetting::new(
            self.schema.clone(),
            p.sigma_st.clone(),
            p.sigma_ts.clone(),
            p.sigma_t.clone(),
        )
        .expect("validated at construction")
    }

    /// The union construction: a single PDE setting with the same solution
    /// space (paper §2).
    pub fn to_single(&self) -> PdeSetting {
        let mut st = Vec::new();
        let mut ts = Vec::new();
        let mut t = Vec::new();
        for p in &self.peers {
            st.extend(p.sigma_st.iter().cloned());
            ts.extend(p.sigma_ts.iter().cloned());
            t.extend(p.sigma_t.iter().cloned());
        }
        PdeSetting::new(self.schema.clone(), st, ts, t).expect("validated at construction")
    }

    /// Is `candidate` a solution for `input` per the multi-PDE definition
    /// (a solution for `(I_m, J)` in every peer's setting)?
    pub fn check_multi_solution(
        &self,
        input: &Instance,
        candidate: &Instance,
    ) -> Result<(), (usize, SolutionViolation)> {
        for i in 0..self.peers.len() {
            let p = self.peer_setting(i);
            check_solution(&p, input, candidate).map_err(|v| (i, v))?;
        }
        Ok(())
    }
}

/// The source relations mentioned by a peer's constraints.
fn source_rels_of(st: &[pde_constraints::Tgd], ts: &[pde_constraints::Tgd]) -> BTreeSet<RelId> {
    let mut out = BTreeSet::new();
    for t in st {
        out.extend(t.premise.atoms.iter().map(|a| a.rel));
    }
    for t in ts {
        out.extend(t.conclusion.atoms.iter().map(|a| a.rel));
    }
    out
}

/// Multi-PDE construction errors.
#[derive(Debug)]
pub enum MultiPdeError {
    /// A peer's constraints failed PDE validation.
    Peer {
        /// Peer index.
        index: usize,
        /// Underlying error.
        error: SettingError,
    },
    /// Two peers' constraints mention the same source relation, violating
    /// schema disjointness.
    OverlappingSources {
        /// The later peer.
        peer: String,
        /// The shared relation.
        relation: String,
    },
}

impl std::fmt::Display for MultiPdeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MultiPdeError::Peer { index, error } => write!(f, "peer {index}: {error}"),
            MultiPdeError::OverlappingSources { peer, relation } => {
                write!(f, "peer {peer} reuses source relation {relation}")
            }
        }
    }
}

impl std::error::Error for MultiPdeError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solution::is_solution;
    use pde_constraints::parser::parse_tgds;
    use pde_relational::{parse_instance, parse_schema};

    fn two_peer_setting() -> MultiPdeSetting {
        let schema = Arc::new(parse_schema("source A/2; source B/2; target H/2;").unwrap());
        let p1 = PeerConstraints {
            name: "alpha".into(),
            sigma_st: parse_tgds(&schema, "A(x, y) -> H(x, y)").unwrap(),
            sigma_ts: vec![],
            sigma_t: vec![],
        };
        let p2 = PeerConstraints {
            name: "beta".into(),
            sigma_st: parse_tgds(&schema, "B(x, y) -> H(y, x)").unwrap(),
            sigma_ts: parse_tgds(&schema, "H(x, y) -> B(y, x)").unwrap(),
            sigma_t: vec![],
        };
        MultiPdeSetting::new(schema, vec![p1, p2]).unwrap()
    }

    #[test]
    fn union_setting_collects_all_constraints() {
        let m = two_peer_setting();
        let u = m.to_single();
        assert_eq!(u.sigma_st().len(), 2);
        assert_eq!(u.sigma_ts().len(), 1);
    }

    #[test]
    fn multi_solution_iff_union_solution() {
        let m = two_peer_setting();
        let u = m.to_single();
        let input = parse_instance(m.schema(), "A(a, b). B(c, d).").unwrap();
        // Candidates: all subsets of a small H universe.
        let h_facts = ["H(a, b).", "H(d, c).", "H(b, a)."];
        for mask in 0u8..8 {
            let mut src = String::from("A(a, b). B(c, d). ");
            for (i, f) in h_facts.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    src.push_str(f);
                }
            }
            let cand = parse_instance(m.schema(), &src).unwrap();
            let multi_ok = m.check_multi_solution(&input, &cand).is_ok();
            let union_ok = is_solution(&u, &input, &cand);
            assert_eq!(multi_ok, union_ok, "mask {mask}");
        }
    }

    #[test]
    fn per_peer_violations_are_attributed() {
        let m = two_peer_setting();
        let input = parse_instance(m.schema(), "A(a, b). B(c, d).").unwrap();
        // Missing H(d, c) violates peer beta's Σst (index 1).
        let cand = parse_instance(m.schema(), "A(a, b). B(c, d). H(a, b).").unwrap();
        let (peer, _) = m.check_multi_solution(&input, &cand).unwrap_err();
        assert_eq!(peer, 1);
    }

    #[test]
    fn overlapping_source_relations_rejected() {
        let schema = Arc::new(parse_schema("source A/2; target H/2;").unwrap());
        let mk = |name: &str| PeerConstraints {
            name: name.into(),
            sigma_st: parse_tgds(&schema, "A(x, y) -> H(x, y)").unwrap(),
            sigma_ts: vec![],
            sigma_t: vec![],
        };
        let err = MultiPdeSetting::new(schema.clone(), vec![mk("p1"), mk("p2")]).unwrap_err();
        assert!(matches!(err, MultiPdeError::OverlappingSources { .. }));
    }

    #[test]
    fn solving_the_union_solves_the_multi_setting() {
        let m = two_peer_setting();
        let u = m.to_single();
        // Peer alpha forces H(a, b), which peer beta's Σts only accepts
        // when B(b, a) is present — the cross-peer interaction.
        let problem = crate::assignment::DisjunctiveProblem::from_setting(&u).unwrap();
        let governor = pde_runtime::Governor::unlimited();
        let no = parse_instance(m.schema(), "A(a, b). B(c, d).").unwrap();
        assert!(
            !crate::assignment::solve(&problem, &no, &governor)
                .unwrap()
                .exists
        );
        let input = parse_instance(m.schema(), "A(a, b). B(b, a). B(c, d).").unwrap();
        let out = crate::assignment::solve(&problem, &input, &governor).unwrap();
        assert!(out.exists);
        let w = out.witness.unwrap();
        assert!(m.check_multi_solution(&input, &w).is_ok());
    }
}
