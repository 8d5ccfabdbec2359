//! E9 — §4 boundary: disjunction in Σts conclusions re-encodes
//! 3-COLORABILITY even though the non-disjunctive skeleton satisfies
//! conditions (1) and (2.2). Cross-checked against the direct backtracking
//! colorer, whose time is the baseline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pde_core::assignment;
use pde_runtime::Governor;
use pde_workloads::threecol::{threecol_instance, threecol_problem};
use pde_workloads::{is_three_colorable, Graph};

fn bench(c: &mut Criterion) {
    let problem = threecol_problem();
    let governor = Governor::unlimited();
    let mut rows = Vec::new();
    let mut g = c.benchmark_group("e09_boundary_3col");
    g.sample_size(10);
    for (label, graph) in [
        ("C5_yes", Graph::cycle(5)),
        ("C7_yes", Graph::cycle(7)),
        ("K4_no", Graph::complete(4)),
        ("gnp8_yes", Graph::gnp(8, 0.3, 2)),
        ("gnp10", Graph::gnp(10, 0.35, 5)),
    ] {
        let input = threecol_instance(&problem, &graph);
        let expected = is_three_colorable(&graph);
        g.bench_with_input(BenchmarkId::from_parameter(label), &input, |b, input| {
            b.iter(|| {
                let out = assignment::solve(&problem, input, &governor).unwrap();
                assert_eq!(out.exists, expected);
            });
        });
        let pde_ms = pde_bench::time_ms(|| {
            let _ = assignment::solve(&problem, &input, &governor).unwrap();
        });
        let direct_ms = pde_bench::time_ms(|| {
            let _ = is_three_colorable(&graph);
        });
        rows.push((
            format!(
                "{label} (n={}, m={})",
                graph.vertex_count(),
                graph.edge_count()
            ),
            format!("{pde_ms:.2} ms"),
            format!("{direct_ms:.4} ms"),
        ));
    }
    g.finish();
    pde_bench::print_series3(
        "E9: disjunctive Σts re-encodes 3-COLORABILITY",
        ("case", "PDE solver", "direct colorer"),
        &rows,
    );
}

// Criterion's macros expand to undocumented items.
#[allow(missing_docs)]
mod generated {
    use super::*;
    criterion_group!(benches, bench);
}
use generated::benches;
criterion_main!(benches);
