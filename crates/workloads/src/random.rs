//! Random PDE settings and instances, for differential testing.
//!
//! The strongest evidence that three very different solvers implement the
//! same semantics is agreement on inputs none of them was written for.
//! This module generates structurally valid random settings (safe tgds of
//! bounded shape over random schemas) and random ground instances, then
//! the test suites compare every applicable solver pairwise.

use pde_constraints::Tgd;
use pde_core::{PdeSetting, SettingError};
use pde_relational::{Atom, Conjunction, Instance, Peer, Schema, Term, Tuple, Value, Var};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Shape parameters for random settings.
#[derive(Clone, Copy, Debug)]
pub struct RandomSettingParams {
    /// Number of source relations.
    pub source_rels: u32,
    /// Number of target relations.
    pub target_rels: u32,
    /// Maximum relation arity (min 1).
    pub max_arity: u16,
    /// Number of source-to-target tgds.
    pub n_st: u32,
    /// Number of target-to-source tgds.
    pub n_ts: u32,
    /// Maximum premise atoms per tgd.
    pub max_premise: u32,
    /// Maximum conclusion atoms per tgd.
    pub max_conclusion: u32,
    /// Maximum existential variables per tgd.
    pub max_existentials: u32,
}

impl Default for RandomSettingParams {
    fn default() -> Self {
        RandomSettingParams {
            source_rels: 2,
            target_rels: 2,
            max_arity: 2,
            n_st: 2,
            n_ts: 2,
            max_premise: 2,
            max_conclusion: 2,
            max_existentials: 1,
        }
    }
}

/// Generate a random schema per the parameters.
fn random_schema(params: &RandomSettingParams, rng: &mut StdRng) -> Arc<Schema> {
    let mut s = Schema::new();
    for i in 0..params.source_rels {
        s.source(format!("Src{i}"), rng.gen_range(1..=params.max_arity));
    }
    for i in 0..params.target_rels {
        s.target(format!("Tgt{i}"), rng.gen_range(1..=params.max_arity));
    }
    Arc::new(s)
}

/// A random safe tgd from `from`-side relations to `to`-side relations.
fn random_tgd(
    schema: &Schema,
    from: Peer,
    to: Peer,
    params: &RandomSettingParams,
    rng: &mut StdRng,
) -> Tgd {
    let from_rels: Vec<_> = schema.rels_of(from).collect();
    let to_rels: Vec<_> = schema.rels_of(to).collect();
    let var_pool: Vec<Var> = (0..6).map(|i| Var::new(format!("x{i}"))).collect();
    let n_prem = rng.gen_range(1..=params.max_premise.max(1));
    let mut premise = Vec::new();
    for _ in 0..n_prem {
        let rel = from_rels[rng.gen_range(0..from_rels.len())];
        let terms: Vec<Term> = (0..schema.arity(rel))
            .map(|_| Term::Var(var_pool[rng.gen_range(0..var_pool.len())]))
            .collect();
        premise.push(Atom::new(schema, rel, terms));
    }
    let premise = Conjunction::new(premise);
    let prem_vars: Vec<Var> = premise.variables().into_iter().collect();
    let n_ex = rng.gen_range(0..=params.max_existentials);
    let exvars: Vec<Var> = (0..n_ex).map(|i| Var::new(format!("e{i}"))).collect();
    let n_conc = rng.gen_range(1..=params.max_conclusion.max(1));
    // Conclusion terms draw from premise variables and the existentials;
    // every declared existential must be used, so seed a use-list.
    let mut must_use: Vec<Var> = exvars.clone();
    let mut conclusion = Vec::new();
    for _ in 0..n_conc {
        let rel = to_rels[rng.gen_range(0..to_rels.len())];
        let terms: Vec<Term> = (0..schema.arity(rel))
            .map(|_| {
                if let Some(v) = must_use.pop() {
                    Term::Var(v)
                } else if !exvars.is_empty() && rng.gen_bool(0.3) {
                    Term::Var(exvars[rng.gen_range(0..exvars.len())])
                } else {
                    Term::Var(prem_vars[rng.gen_range(0..prem_vars.len())])
                }
            })
            .collect();
        conclusion.push(Atom::new(schema, rel, terms));
    }
    // Existentials that did not fit (arities too small) are dropped.
    let used: std::collections::BTreeSet<Var> =
        conclusion.iter().flat_map(Atom::variables).collect();
    let existentials: Vec<Var> = exvars.into_iter().filter(|v| used.contains(v)).collect();
    Tgd::new(premise, existentials, Conjunction::new(conclusion))
}

/// Generate a random PDE setting with no target constraints.
pub fn random_setting(params: &RandomSettingParams, seed: u64) -> Result<PdeSetting, SettingError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let schema = random_schema(params, &mut rng);
    let st: Vec<Tgd> = (0..params.n_st)
        .map(|_| random_tgd(&schema, Peer::Source, Peer::Target, params, &mut rng))
        .collect();
    let ts: Vec<Tgd> = (0..params.n_ts)
        .map(|_| random_tgd(&schema, Peer::Target, Peer::Source, params, &mut rng))
        .collect();
    PdeSetting::new(schema, st, ts, vec![])
}

/// Generate a random PDE setting whose Σt holds target tgds and whose
/// chased tgd set (Σst ∪ Σt) is weakly acyclic, by rejection sampling:
/// candidate Σt tgds that would introduce a special cycle are dropped.
///
/// Used by the certificate property tests — the static chase bound of
/// `pde_constraints::chase_bound` is only defined for weakly acyclic sets,
/// and these settings exercise nonzero position ranks (target-to-target
/// existentials chained behind Σst existentials).
pub fn random_weakly_acyclic_setting(
    params: &RandomSettingParams,
    n_target_tgds: u32,
    seed: u64,
) -> Result<PdeSetting, SettingError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let schema = random_schema(params, &mut rng);
    let st: Vec<Tgd> = (0..params.n_st)
        .map(|_| random_tgd(&schema, Peer::Source, Peer::Target, params, &mut rng))
        .collect();
    let mut t: Vec<Tgd> = Vec::new();
    for _ in 0..n_target_tgds {
        let cand = random_tgd(&schema, Peer::Target, Peer::Target, params, &mut rng);
        let chased: Vec<&Tgd> = st.iter().chain(&t).chain(std::iter::once(&cand)).collect();
        if pde_constraints::is_weakly_acyclic(&schema, chased) {
            t.push(cand);
        }
    }
    let ts: Vec<Tgd> = (0..params.n_ts)
        .map(|_| random_tgd(&schema, Peer::Target, Peer::Source, params, &mut rng))
        .collect();
    let t = t
        .into_iter()
        .map(pde_constraints::Dependency::Tgd)
        .collect();
    PdeSetting::new(schema, st, ts, t)
}

/// Generate a random ground instance over the setting's schema.
///
/// `source_facts` and `target_facts` bound the respective fact counts;
/// values come from a pool of `domain` constants.
pub fn random_instance(
    setting: &PdeSetting,
    source_facts: u32,
    target_facts: u32,
    domain: u32,
    seed: u64,
) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    let schema = setting.schema();
    let mut inst = Instance::new(schema.clone());
    let consts: Vec<Value> = (0..domain.max(1))
        .map(|i| Value::constant(format!("c{i}")))
        .collect();
    let add = |peer: Peer, n: u32, rng: &mut StdRng, inst: &mut Instance| {
        let rels: Vec<_> = schema.rels_of(peer).collect();
        if rels.is_empty() {
            return;
        }
        for _ in 0..n {
            let rel = rels[rng.gen_range(0..rels.len())];
            let vals: Vec<Value> = (0..schema.arity(rel))
                .map(|_| consts[rng.gen_range(0..consts.len())])
                .collect();
            inst.insert(rel, Tuple::new(vals));
        }
    };
    add(Peer::Source, source_facts, &mut rng, &mut inst);
    add(Peer::Target, target_facts, &mut rng, &mut inst);
    inst
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decide_by;
    use pde_core::{solution::is_solution, tractable, GenericLimits, SolverKind};

    #[test]
    fn random_settings_validate_and_are_deterministic() {
        let params = RandomSettingParams::default();
        for seed in 0..50 {
            let a = random_setting(&params, seed).expect("random settings are valid");
            let b = random_setting(&params, seed).expect("valid");
            assert_eq!(a.sigma_st().len(), b.sigma_st().len());
            for (x, y) in a.sigma_st().iter().zip(b.sigma_st()) {
                assert_eq!(x, y, "determinism per seed");
            }
        }
    }

    #[test]
    fn differential_assignment_vs_generic() {
        let params = RandomSettingParams::default();
        let lim = GenericLimits {
            max_nodes: 200_000,
            ..Default::default()
        };
        let mut decided = 0;
        for seed in 0..40u64 {
            let setting = random_setting(&params, seed).unwrap();
            let input = random_instance(&setting, 4, 2, 3, seed ^ 0xabcd);
            let a = decide_by(SolverKind::AssignmentSearch, &setting, &input, lim);
            let g = decide_by(SolverKind::GenericSearch, &setting, &input, lim);
            assert!(
                a.exists.is_some(),
                "seed {seed}: the assignment search decides"
            );
            if let Some(gd) = g.exists {
                decided += 1;
                assert_eq!(a.exists, Some(gd), "seed {seed}\n{setting:?}\n{input:?}");
            }
            if let Some(w) = a.witness {
                assert!(is_solution(&setting, &input, &w), "seed {seed}");
            }
        }
        assert!(decided >= 30, "most random cases should be decided");
    }

    #[test]
    fn differential_tractable_when_classified() {
        let params = RandomSettingParams::default();
        let mut tractable_hits = 0;
        for seed in 0..120u64 {
            let setting = random_setting(&params, seed).unwrap();
            if !setting.classification().tractable() {
                continue;
            }
            tractable_hits += 1;
            let input = random_instance(&setting, 4, 2, 3, seed ^ 0x1234);
            let fast = tractable::exists_solution(&setting, &input).unwrap();
            let slow = decide_by(
                SolverKind::AssignmentSearch,
                &setting,
                &input,
                GenericLimits::default(),
            );
            assert_eq!(
                Some(fast.exists),
                slow.exists,
                "seed {seed}\n{setting:?}\n{input:?}"
            );
            if let Some(w) = fast.witness {
                assert!(is_solution(&setting, &input, &w), "seed {seed}");
            }
        }
        assert!(
            tractable_hits >= 10,
            "the generator should produce C_tract settings regularly (got {tractable_hits})"
        );
    }

    #[test]
    fn random_instances_respect_bounds() {
        let params = RandomSettingParams::default();
        let setting = random_setting(&params, 1).unwrap();
        let inst = random_instance(&setting, 5, 3, 4, 9);
        assert!(inst.fact_count() <= 8);
        assert!(inst.is_ground());
        assert!(inst.active_domain().len() <= 4);
    }
}
