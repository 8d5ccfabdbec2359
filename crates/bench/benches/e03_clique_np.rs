//! E3 — Theorem 3: `SOL(P)` is NP-complete; the complete solver's running
//! time on the CLIQUE reduction grows exponentially in the hard direction
//! while the reduction itself stays polynomial.
//!
//! Sweeps graph size for `k = 3` over planted-clique (yes) and sparse
//! (mostly no) inputs, cross-checking every answer against the direct
//! clique search, whose time is also reported as the baseline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pde_core::assignment::{self, DisjunctiveProblem};
use pde_runtime::Governor;
use pde_workloads::clique::{clique_instance, clique_setting};
use pde_workloads::{has_k_clique, Graph};

fn bench(c: &mut Criterion) {
    let setting = clique_setting();
    let problem = DisjunctiveProblem::from_setting(&setting).unwrap();
    let governor = Governor::unlimited();
    let k = 3;
    let mut rows = Vec::new();
    let mut g = c.benchmark_group("e03_clique_np");
    g.sample_size(10);
    for n in [4u32, 5, 6, 7] {
        let yes = Graph::planted_clique(n, 0.15, k, 7);
        let no = Graph::complete_bipartite(n / 2, n - n / 2); // triangle-free
        for (label, graph) in [("planted_yes", &yes), ("bipartite_no", &no)] {
            let input = clique_instance(&setting, graph, k);
            let expected = has_k_clique(graph, k);
            g.bench_with_input(
                BenchmarkId::new(format!("pde_{label}"), n),
                &input,
                |b, input| {
                    b.iter(|| {
                        let out = assignment::solve(&problem, input, &governor).unwrap();
                        assert_eq!(out.exists, expected);
                        out.exists
                    });
                },
            );
            g.bench_with_input(
                BenchmarkId::new(format!("direct_{label}"), n),
                graph,
                |b, graph| b.iter(|| has_k_clique(graph, k)),
            );
            let ms = pde_bench::time_ms(|| {
                let _ = assignment::solve(&problem, &input, &governor).unwrap();
            });
            let direct_ms = pde_bench::time_ms(|| {
                let _ = has_k_clique(graph, k);
            });
            rows.push((
                format!("n={n} {label}"),
                format!("{ms:.2} ms"),
                format!("{direct_ms:.4} ms"),
            ));
        }
    }
    g.finish();
    pde_bench::print_series3(
        "E3: SOL(P) via CLIQUE reduction (k=3) — exponential vs direct baseline",
        ("case", "PDE solver", "direct clique"),
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
