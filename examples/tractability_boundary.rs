//! A tour of the §4 tractability frontier.
//!
//! ```text
//! cargo run --release --example tractability_boundary
//! ```
//!
//! Classifies a gallery of settings against `C_tract`, then demonstrates
//! each boundary crossing: the CLIQUE-hard setting (violates 2.1 and 2.2
//! minimally), the single-target-egd and single-full-target-tgd settings
//! (Σst/Σts tractable, Σt breaks it), and the disjunctive Σts setting
//! (3-COLORABILITY).

use peer_data_exchange::core::assignment::{self, DisjunctiveProblem};
use peer_data_exchange::prelude::*;
use peer_data_exchange::workloads::boundary::{
    egd_boundary_instance, egd_boundary_setting, full_tgd_boundary_instance,
    full_tgd_boundary_setting,
};
use peer_data_exchange::workloads::clique::{clique_instance, clique_setting};
use peer_data_exchange::workloads::full::full_setting;
use peer_data_exchange::workloads::lav::lav_setting;
use peer_data_exchange::workloads::paper::marked_example_setting;
use peer_data_exchange::workloads::threecol::{threecol_instance, threecol_problem};

fn classify_row(name: &str, setting: &PdeSetting) {
    let c = setting.classification();
    println!(
        "{name:<26} cond1={:<5} cond2.1={:<5} cond2.2={:<5} Σt={:<5} ⇒ tractable={}",
        c.ctract.holds1(),
        c.ctract.holds2_1(),
        c.ctract.holds2_2(),
        c.has_target_constraints,
        c.tractable()
    );
}

fn main() {
    println!("== Classification gallery (Def. 9) ==");
    classify_row(
        "Example 1 (LAV Σts)",
        &peer_data_exchange::workloads::paper::example1_setting(),
    );
    classify_row("marked-variable example", &marked_example_setting());
    classify_row("LAV workload", &lav_setting());
    classify_row("full-Σst workload", &full_setting());
    classify_row("Theorem 3 (CLIQUE)", &clique_setting());
    classify_row("boundary: target egd", &egd_boundary_setting());
    classify_row("boundary: full target tgd", &full_tgd_boundary_setting());

    println!("\n== Crossing 1: the Theorem 3 setting is NP-hard ==");
    let p = clique_setting();
    for v in p.classification().ctract.violations() {
        println!("  {v}");
    }
    let tri = clique_instance(&p, &Graph::complete(3), 3);
    let path = clique_instance(&p, &Graph::path(3), 3);
    let problem = DisjunctiveProblem::from_setting(&p).unwrap();
    let unlimited = Governor::unlimited();
    println!(
        "  K3/k=3 → {}   P3/k=3 → {}",
        assignment::solve(&problem, &tri, &unlimited)
            .unwrap()
            .exists,
        assignment::solve(&problem, &path, &unlimited)
            .unwrap()
            .exists
    );

    println!("\n== Crossing 2: one target egd is enough ==");
    let p = egd_boundary_setting();
    println!(
        "  Σst/Σts in C_tract: {} — but Σt has egds",
        p.classification().ctract.in_ctract()
    );
    let tri = egd_boundary_instance(&p, &Graph::complete(3), 3);
    let path = egd_boundary_instance(&p, &Graph::path(3), 3);
    println!(
        "  K3/k=3 → {:?}   P3/k=3 → {:?}",
        decide(&p, &tri).unwrap().exists,
        decide(&p, &path).unwrap().exists
    );

    println!("\n== Crossing 3: one full target tgd is enough ==");
    let p = full_tgd_boundary_setting();
    let tri = full_tgd_boundary_instance(&p, &Graph::complete(3), 3);
    let path = full_tgd_boundary_instance(&p, &Graph::path(3), 3);
    println!(
        "  K3/k=3 → {:?}   P3/k=3 → {:?}",
        decide(&p, &tri).unwrap().exists,
        decide(&p, &path).unwrap().exists
    );

    println!("\n== Crossing 4: disjunction in Σts (3-COLORABILITY) ==");
    let p3 = threecol_problem();
    for (label, g) in [
        ("C5 (odd cycle)", Graph::cycle(5)),
        ("K4", Graph::complete(4)),
        ("Petersen-ish G(8,0.35)", Graph::gnp(8, 0.35, 4)),
    ] {
        let input = threecol_instance(&p3, &g);
        let out = assignment::solve(&p3, &input, &unlimited).unwrap();
        println!(
            "  {label:<24} 3-colorable: {:<5} PDE solution: {}",
            is_three_colorable(&g),
            out.exists
        );
        assert_eq!(out.exists, is_three_colorable(&g));
    }
}
