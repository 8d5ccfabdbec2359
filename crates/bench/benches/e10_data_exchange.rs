//! E10 — §3 contrast: with Σts = ∅ (plain data exchange) the chase decides
//! everything in polynomial time, and with Σt = ∅ solutions always exist.
//!
//! Sweeps the same instance sizes as the NP experiments: the chase stays
//! polynomial where the PDE solvers explode, which is the whole point of
//! the paper's complexity comparison.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pde_chase::ChaseLimits;
use pde_core::{data_exchange, PdeSetting};
use pde_relational::parse_instance;
use pde_runtime::Governor;

fn setting() -> PdeSetting {
    PdeSetting::parse(
        "source E/2; target H/2; target K/2;",
        "E(x, y) -> exists z . H(x, z), K(z, y)",
        "",
        "H(x, y) -> K(x, y)",
    )
    .unwrap()
}

/// The ungoverned, unscheduled data-exchange chase.
fn solve(p: &PdeSetting, input: &pde_relational::Instance) -> data_exchange::DataExchangeOutcome {
    let governor = Governor::unlimited();
    data_exchange::solve_data_exchange(p, input, ChaseLimits::default(), None, &governor).unwrap()
}

fn bench(c: &mut Criterion) {
    let p = setting();
    let mut rows = Vec::new();
    let mut g = c.benchmark_group("e10_data_exchange");
    g.sample_size(10);
    for n in [32usize, 64, 128, 256, 512] {
        let mut src = String::new();
        for i in 0..n {
            src.push_str(&format!("E(a{i}, b{i}). "));
        }
        let input = parse_instance(p.schema(), &src).unwrap();
        g.bench_with_input(BenchmarkId::new("chase", n), &input, |b, input| {
            b.iter(|| {
                let out = solve(&p, input);
                assert!(out.exists, "DE with weakly acyclic Σt always solvable here");
                out.chase_steps
            });
        });
        let out = solve(&p, &input);
        rows.push((n, out.chase_steps, out.canonical.unwrap().fact_count()));
    }
    g.finish();
    pde_bench::print_series3(
        "E10: data exchange chase (polynomial; solutions always exist)",
        ("|E|", "chase steps", "canonical facts"),
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
