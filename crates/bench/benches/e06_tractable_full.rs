//! E6 — Theorem 4 / Corollary 1: with full Σst the setting is tractable
//! even when Σts has multi-literal premises and existentials.
//!
//! Same sweep shape as E5 on the full-Σst workload (the condition-2.2 side
//! of `C_tract`), plus a head-to-head against the complete assignment
//! solver on a size where both run — the polynomial algorithm should win
//! and keep winning as sizes grow.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pde_core::assignment::{self, DisjunctiveProblem};
use pde_core::tractable;
use pde_runtime::Governor;
use pde_workloads::full::{full_setting, full_solvable_instance};

fn bench(c: &mut Criterion) {
    let setting = full_setting();
    let problem = DisjunctiveProblem::from_setting(&setting).unwrap();
    let governor = Governor::unlimited();
    let mut rows = Vec::new();
    let mut g = c.benchmark_group("e06_tractable_full");
    g.sample_size(10);
    for size in [3u32, 4, 6, 8, 10] {
        let input = full_solvable_instance(&setting, 2, size);
        g.bench_with_input(
            BenchmarkId::new("exists_solution", size),
            &input,
            |b, input| {
                b.iter(|| {
                    let out = tractable::exists_solution(&setting, input).unwrap();
                    assert!(out.exists);
                });
            },
        );
        let fast_ms = pde_bench::time_ms(|| {
            let _ = tractable::exists_solution(&setting, &input).unwrap();
        });
        // The complete solver is exact but exponential in the worst case;
        // on these solvable instances it terminates quickly too, yet the
        // polynomial algorithm dominates as sizes grow.
        let slow_ms = pde_bench::time_ms(|| {
            let _ = assignment::solve(&problem, &input, &governor).unwrap();
        });
        rows.push((
            format!("2 cliques × {size}"),
            format!("{fast_ms:.2} ms"),
            format!("{slow_ms:.2} ms"),
        ));
    }
    g.finish();
    pde_bench::print_series3(
        "E6: full-Σst settings — ExistsSolution vs complete search",
        ("instance", "ExistsSolution", "assignment search"),
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
