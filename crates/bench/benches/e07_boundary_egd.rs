//! E7 — §4 boundary: Σst/Σts satisfy conditions (1) and (2.1) of
//! `C_tract`, yet a single target **egd** makes `SOL(P)` NP-hard again
//! (CLIQUE). The generic witness-chase search is the only complete
//! algorithm; its time explodes on the no-instances.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pde_bench::witness_search;
use pde_workloads::boundary::{egd_boundary_instance, egd_boundary_setting};
use pde_workloads::{has_k_clique, Graph};

fn bench(c: &mut Criterion) {
    let setting = egd_boundary_setting();
    let mut rows = Vec::new();
    let mut g = c.benchmark_group("e07_boundary_egd");
    g.sample_size(10);
    for (label, graph, k) in [
        ("K3_k3_yes", Graph::complete(3), 3u32),
        ("P3_k3_no", Graph::path(3), 3),
        ("C4_k2_yes", Graph::cycle(4), 2),
        ("K22_k3_no", Graph::complete_bipartite(2, 2), 3),
    ] {
        let input = egd_boundary_instance(&setting, &graph, k);
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
            format!(
                "nodes={} ts_prunes={} egd_failures={}",
                stats.nodes, stats.ts_prunes, stats.egd_failures
            ),
        ));
    }
    g.finish();
    pde_bench::print_series3(
        "E7: single target egd re-encodes CLIQUE (Σst/Σts tractable alone)",
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
