//! End-to-end integration tests for every claim the paper demonstrates by
//! example: Example 1, the certain-answer illustration, the Theorem 3
//! reduction, the §4 boundary settings, the §2 multi-PDE and PDMS
//! correspondences, and the §3 contrast with plain data exchange.

use peer_data_exchange::core::{
    assignment, certain_answers, multi::MultiPdeSetting, multi::PeerConstraints, pdms::Pdms,
    solution::is_solution, tractable, GenericLimits, PdeSetting, SolverKind,
};
use peer_data_exchange::prelude::*;
use peer_data_exchange::workloads::{boundary, clique, graphs, paper, threecol};
use std::sync::Arc;

#[test]
fn example1_full_story() {
    let p = paper::example1_setting();
    let [no, unique, two] = paper::example1_instances(&p);

    // "If I = {E(a,b), E(b,c)} and J = ∅, then no solution exists."
    let r = decide(&p, &no).unwrap();
    assert_eq!(r.kind, SolverKind::Tractable);
    assert_eq!(r.exists, Some(false));

    // "If I = {E(a,a)}, then J' = {H(a,a)} is the only solution."
    let r = decide(&p, &unique).unwrap();
    assert_eq!(r.exists, Some(true));
    let w = r.witness.unwrap();
    let h = p.schema().rel_id("H").unwrap();
    assert_eq!(w.relation(h).len(), 1);

    // "Both {H(a,c)} and {H(a,b), H(b,c), H(a,c)} are solutions."
    let s1 = parse_instance(p.schema(), "E(a, b). E(b, c). E(a, c). H(a, c).").unwrap();
    let s2 = parse_instance(
        p.schema(),
        "E(a, b). E(b, c). E(a, c). H(a, b). H(b, c). H(a, c).",
    )
    .unwrap();
    assert!(is_solution(&p, &two, &s1));
    assert!(is_solution(&p, &two, &s2));
    assert_eq!(decide(&p, &two).unwrap().exists, Some(true));
}

#[test]
fn paper_certain_answer_illustration() {
    // certain(q, ({E(a,a)}, ∅)) = true and
    // certain(q, ({E(a,b),E(b,c),E(a,c)}, ∅)) = false
    // for q = ∃x∃y∃z (H(x,y) ∧ H(y,z)).
    let p = paper::example1_setting();
    let q: UnionQuery = parse_query(p.schema(), "H(x, y), H(y, z)").unwrap().into();
    let loopy = parse_instance(p.schema(), "E(a, a).").unwrap();
    let tri = parse_instance(p.schema(), "E(a, b). E(b, c). E(a, c).").unwrap();
    assert!(certain_answers(&p, &loopy, &q, GenericLimits::default())
        .unwrap()
        .certain_bool());
    assert!(!certain_answers(&p, &tri, &q, GenericLimits::default())
        .unwrap()
        .certain_bool());
}

#[test]
fn theorem3_reduction_sweep() {
    // CLIQUE ⟺ SOL over a sweep of graphs, cross-validated against the
    // direct clique search.
    let p = clique::clique_setting();
    for seed in 0..4u64 {
        for (n, prob, k) in [(5u32, 0.4, 3u32), (6, 0.3, 3), (6, 0.5, 4)] {
            let g = graphs::Graph::gnp(n, prob, seed);
            let input = clique::clique_instance(&p, &g, k);
            let out = decide(&p, &input).unwrap();
            assert_eq!(out.kind, SolverKind::AssignmentSearch);
            assert_eq!(
                out.exists,
                Some(graphs::has_k_clique(&g, k)),
                "seed={seed} n={n} p={prob} k={k}"
            );
            if let Some(w) = out.witness {
                assert!(is_solution(&p, &input, &w));
            }
        }
    }
}

#[test]
fn data_exchange_contrast() {
    // §3: with Σts = ∅ and Σt = ∅, solutions ALWAYS exist — the
    // existence problem is trivial for data exchange, never for PDE.
    let de = PdeSetting::parse(
        "source E/2; target H/2;",
        "E(x, z), E(z, y) -> H(x, y)",
        "",
        "",
    )
    .unwrap();
    let pde = paper::example1_setting();
    for src in ["E(a, b). E(b, c).", "E(a, a).", "E(a, b)."] {
        let input_de = parse_instance(de.schema(), src).unwrap();
        let r = decide(&de, &input_de).unwrap();
        assert_eq!(r.kind, SolverKind::DataExchange);
        assert_eq!(r.exists, Some(true));
    }
    // The same Σst with a Σts makes existence fail on the 2-path input.
    let input = parse_instance(pde.schema(), "E(a, b). E(b, c).").unwrap();
    assert_eq!(decide(&pde, &input).unwrap().exists, Some(false));
}

#[test]
fn boundary_settings_encode_clique() {
    let graphs_k: Vec<(graphs::Graph, u32)> = vec![
        (graphs::Graph::complete(3), 3),
        (graphs::Graph::path(3), 3),
        (graphs::Graph::cycle(4), 2),
    ];
    let egd = boundary::egd_boundary_setting();
    let ftgd = boundary::full_tgd_boundary_setting();
    for (g, k) in &graphs_k {
        let expect = graphs::has_k_clique(g, *k);
        let i1 = boundary::egd_boundary_instance(&egd, g, *k);
        let r = decide(&egd, &i1).unwrap();
        assert_eq!(r.kind, SolverKind::GenericSearch);
        assert_eq!(r.exists, Some(expect));
        let i2 = boundary::full_tgd_boundary_instance(&ftgd, g, *k);
        let r = decide(&ftgd, &i2).unwrap();
        assert_eq!(r.kind, SolverKind::GenericSearch);
        assert_eq!(r.exists, Some(expect));
    }
}

#[test]
fn disjunctive_boundary_encodes_three_colorability() {
    let p = threecol::threecol_problem();
    for g in [
        graphs::Graph::cycle(5),
        graphs::Graph::complete(4),
        graphs::Graph::complete_bipartite(3, 2),
        graphs::Graph::gnp(7, 0.4, 13),
    ] {
        let input = threecol::threecol_instance(&p, &g);
        let out = assignment::solve(&p, &input, &Governor::unlimited()).unwrap();
        assert_eq!(out.exists, graphs::is_three_colorable(&g));
    }
}

#[test]
fn multi_pde_union_equivalence() {
    // §2: a multi-PDE setting and its union have the same solutions.
    let schema = Arc::new(parse_schema("source A/1; source B/1; target T/1;").unwrap());
    let mk = |st: &str, ts: &str, name: &str| PeerConstraints {
        name: name.into(),
        sigma_st: parse_tgds(&schema, st).unwrap(),
        sigma_ts: parse_tgds(&schema, ts).unwrap(),
        sigma_t: vec![],
    };
    let m = MultiPdeSetting::new(
        schema.clone(),
        vec![
            mk("A(x) -> T(x)", "", "pa"),
            mk("B(x) -> T(x)", "T(x) -> B(x)", "pb"),
        ],
    )
    .unwrap();
    let u = m.to_single();
    let input = parse_instance(&schema, "A(a). B(a). B(b).").unwrap();
    // Enumerate all candidate targets over {a, b, c}.
    for mask in 0u8..8 {
        let mut src = String::from("A(a). B(a). B(b). ");
        for (i, v) in ["a", "b", "c"].iter().enumerate() {
            if mask & (1 << i) != 0 {
                src.push_str(&format!("T({v}). "));
            }
        }
        let cand = parse_instance(&schema, &src).unwrap();
        assert_eq!(
            m.check_multi_solution(&input, &cand).is_ok(),
            is_solution(&u, &input, &cand),
            "mask {mask}"
        );
    }
}

#[test]
fn pdms_embedding_correspondence() {
    // §2: K solves (I, J) in P iff K is a consistent data instance of
    // N(P) over locals (I, J) — exhaustively over a small universe.
    let p = paper::example1_setting();
    let n = Pdms::embed(&p);
    let input = parse_instance(p.schema(), "E(a, b). E(b, b).").unwrap();
    let universe = ["H(a, b).", "H(b, b).", "H(a, a)."];
    for mask in 0u8..8 {
        let mut src = String::from("E(a, b). E(b, b). ");
        for (i, f) in universe.iter().enumerate() {
            if mask & (1 << i) != 0 {
                src.push_str(f);
            }
        }
        let cand = parse_instance(p.schema(), &src).unwrap();
        assert_eq!(
            is_solution(&p, &input, &cand),
            n.is_consistent(&input, &cand),
            "mask {mask}"
        );
    }
}

#[test]
fn marked_example_behaves_as_described() {
    // §4's illustration: the marked position forces the chase null of T's
    // second column to be matched against S's second column in I.
    let p = paper::marked_example_setting();
    // S(a,b): T(a,y) must map y to a value v with some S(w,v) ∈ I → v=b.
    let yes = parse_instance(p.schema(), "S(a, b).").unwrap();
    let out = tractable::exists_solution(&p, &yes).unwrap();
    assert!(out.exists);
    assert!(is_solution(&p, &yes, &out.witness.unwrap()));
    // Empty I: trivially solvable with empty target.
    let empty = parse_instance(p.schema(), "").unwrap();
    assert!(tractable::exists_solution(&p, &empty).unwrap().exists);
}

#[test]
fn exact_views_glav_encoding() {
    // §2: Σst φ→∃ψ plus Σts ψ→φ expresses GLAV with exact views.
    let p = paper::exact_view_setting();
    assert!(p.classification().tractable());
    let closed = parse_instance(p.schema(), "E(a, a).").unwrap();
    let r = decide(&p, &closed).unwrap();
    assert_eq!(r.exists, Some(true));
    // The witness's H is exactly the 2-path view of E.
    let w = r.witness.unwrap();
    let h = p.schema().rel_id("H").unwrap();
    assert!(w
        .relation(h)
        .contains(&pde_relational::Tuple::consts(["a", "a"])));
}

#[test]
fn facade_matches_direct_solver_calls() {
    let p = paper::example1_setting();
    let [no, unique, _] = paper::example1_instances(&p);
    for input in [no, unique] {
        let facade = decide(&p, &input).unwrap().exists;
        let direct = tractable::exists_solution(&p, &input).unwrap().exists;
        assert_eq!(facade, Some(direct));
    }
}
