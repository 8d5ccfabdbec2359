//! E8 — §4 boundary: the same Σst/Σts shape with a single **full target
//! tgd** (plus the copy relations `S`/`S2`) is NP-hard as well.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pde_bench::witness_search;
use pde_workloads::boundary::{full_tgd_boundary_instance, full_tgd_boundary_setting};
use pde_workloads::{has_k_clique, Graph};

fn bench(c: &mut Criterion) {
    let setting = full_tgd_boundary_setting();
    let mut rows = Vec::new();
    let mut g = c.benchmark_group("e08_boundary_fulltgd");
    g.sample_size(10);
    for (label, graph, k) in [
        ("K3_k3_yes", Graph::complete(3), 3u32),
        ("P3_k3_no", Graph::path(3), 3),
        ("C4_k2_yes", Graph::cycle(4), 2),
    ] {
        let input = full_tgd_boundary_instance(&setting, &graph, k);
        let expected = has_k_clique(&graph, k);
        g.bench_with_input(BenchmarkId::new(label, k), &input, |b, input| {
            b.iter(|| {
                assert_eq!(witness_search(&setting, input).0, Some(expected));
            });
        });
        let (verdict, stats) = witness_search(&setting, &input);
        rows.push((
            label,
            format!("decided={verdict:?}"),
            format!("nodes={}", stats.nodes),
        ));
    }
    g.finish();
    pde_bench::print_series3(
        "E8: single full target tgd re-encodes CLIQUE",
        ("case", "verdict", "search stats"),
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
