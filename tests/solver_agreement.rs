//! Cross-solver agreement: every pair of applicable solvers must return
//! the same existence verdict, and every returned witness must verify.
//!
//! This is the strongest correctness net in the suite: the tractable
//! algorithm (Fig. 3), the assignment search, and the generic
//! witness-chase search are three very different implementations of the
//! same semantics. Each search is forced by the plan's solver kind, so
//! the comparisons hold whatever the setting's classification would pick.

use peer_data_exchange::core::{solution::is_solution, tractable, PdeSetting};
use peer_data_exchange::prelude::*;
use peer_data_exchange::workloads::{decide_by, graphs::Graph, lav, paper};

/// All ground instances over `E/2` with vertices from `vals`, up to
/// `max_edges` edges, enumerated deterministically.
fn edge_instances(setting: &PdeSetting, vals: &[&str], max_edges: usize) -> Vec<Instance> {
    let mut pairs = Vec::new();
    for a in vals {
        for b in vals {
            pairs.push(format!("E({a}, {b})."));
        }
    }
    let mut out = Vec::new();
    // All subsets of the pair universe with ≤ max_edges members.
    for mask in 0u32..(1 << pairs.len()) {
        if mask.count_ones() as usize > max_edges {
            continue;
        }
        let mut src = String::new();
        for (i, p) in pairs.iter().enumerate() {
            if mask & (1 << i) != 0 {
                src.push_str(p);
            }
        }
        out.push(parse_instance(setting.schema(), &src).unwrap());
    }
    out
}

#[test]
fn tractable_vs_assignment_vs_generic_on_example1() {
    let lim = GenericLimits::default();
    let p = paper::example1_setting();
    for input in edge_instances(&p, &["a", "b"], 4) {
        let fast = tractable::exists_solution(&p, &input).unwrap().exists;
        let assigned = decide_by(SolverKind::AssignmentSearch, &p, &input, lim);
        let searched = decide_by(SolverKind::GenericSearch, &p, &input, lim);
        assert_eq!(Some(fast), assigned.exists, "{input:?}");
        assert_eq!(Some(fast), searched.exists, "{input:?}");
        if let Some(w) = assigned.witness {
            assert!(is_solution(&p, &input, &w), "{input:?}");
        }
        if let Some(w) = searched.witness {
            assert!(is_solution(&p, &input, &w), "{input:?}");
        }
    }
}

#[test]
fn tractable_vs_assignment_on_exact_views() {
    let lim = GenericLimits::default();
    let p = paper::exact_view_setting();
    for input in edge_instances(&p, &["a", "b"], 4) {
        let fast = tractable::exists_solution(&p, &input).unwrap().exists;
        let slow = decide_by(SolverKind::AssignmentSearch, &p, &input, lim).exists;
        assert_eq!(Some(fast), slow, "{input:?}");
    }
}

#[test]
fn tractable_vs_assignment_on_marked_example() {
    let lim = GenericLimits::default();
    let p = paper::marked_example_setting();
    // All instances over S/2 with values {a, b}.
    let vals = ["a", "b"];
    let mut pairs = Vec::new();
    for a in &vals {
        for b in &vals {
            pairs.push(format!("S({a}, {b})."));
        }
    }
    for mask in 0u32..(1 << pairs.len()) {
        let mut src = String::new();
        for (i, p2) in pairs.iter().enumerate() {
            if mask & (1 << i) != 0 {
                src.push_str(p2);
            }
        }
        let input = parse_instance(p.schema(), &src).unwrap();
        let fast = tractable::exists_solution(&p, &input).unwrap().exists;
        let slow = decide_by(SolverKind::AssignmentSearch, &p, &input, lim).exists;
        assert_eq!(Some(fast), slow, "{src}");
    }
}

#[test]
fn assignment_vs_generic_on_clique_setting() {
    let lim = GenericLimits::default();
    // The clique setting has Σt = ∅, so both complete solvers apply.
    let p = peer_data_exchange::workloads::clique::clique_setting();
    for (g, k) in [
        (Graph::complete(3), 3u32),
        (Graph::path(3), 3),
        (Graph::cycle(4), 2),
    ] {
        let input = peer_data_exchange::workloads::clique::clique_instance(&p, &g, k);
        let a = decide_by(SolverKind::AssignmentSearch, &p, &input, lim).exists;
        let b = decide_by(SolverKind::GenericSearch, &p, &input, lim).exists;
        assert!(a.is_some(), "k={k}");
        assert_eq!(a, b, "k={k}");
    }
}

#[test]
fn data_exchange_vs_generic_on_sigma_ts_empty() {
    let lim = GenericLimits::default();
    let p = PdeSetting::parse(
        "source E/2; target H/2;",
        "E(x, y) -> exists z . H(x, z)",
        "",
        "H(x, y), H(x, z) -> y = z",
    )
    .unwrap();
    for src in [
        "E(a, b).",
        "E(a, b). E(a, c).",
        "E(a, b). H(a, q). H(a, r).",
        "E(a, b). H(a, q).",
        "",
    ] {
        let input = parse_instance(p.schema(), src).unwrap();
        let de = decide_by(SolverKind::DataExchange, &p, &input, lim).exists;
        let gen = decide_by(SolverKind::GenericSearch, &p, &input, lim).exists;
        assert!(de.is_some(), "{src}");
        assert_eq!(de, gen, "{src}");
    }
}

#[test]
fn lav_workload_solver_triangle() {
    let lim = GenericLimits::default();
    let p = lav::lav_setting();
    for input in [
        lav::lav_solvable_instance(&p, 1, 3),
        lav::lav_unsolvable_instance(&p, 2, 2),
        lav::lav_graph_instance(&p, &Graph::cycle(3), true),
        lav::lav_graph_instance(&p, &Graph::cycle(3), false),
    ] {
        let fast = tractable::exists_solution(&p, &input).unwrap().exists;
        let assigned = decide_by(SolverKind::AssignmentSearch, &p, &input, lim).exists;
        let searched = decide_by(SolverKind::GenericSearch, &p, &input, lim).exists;
        assert_eq!(Some(fast), assigned);
        assert_eq!(Some(fast), searched);
    }
}

#[test]
fn witnesses_always_verify() {
    // Any witness returned by any solver must pass the Def. 2 checks.
    let settings = [
        paper::example1_setting(),
        paper::exact_view_setting(),
        paper::marked_example_setting(),
    ];
    for p in &settings {
        let rel = p.schema().rel_ids().next().unwrap();
        let relname = p.schema().name(rel).as_str();
        for src in [
            format!("{relname}(a, a)."),
            format!("{relname}(a, b). {relname}(b, a)."),
            format!("{relname}(a, b). {relname}(b, c)."),
        ] {
            let input = parse_instance(p.schema(), &src).unwrap();
            let r = decide(p, &input).unwrap();
            if let Some(w) = r.witness {
                assert!(is_solution(p, &input, &w), "{src}");
            }
        }
    }
}
