//! Shared helpers for the experiment harness.
//!
//! Each Criterion bench target under `benches/` regenerates one experiment
//! of `EXPERIMENTS.md`. Criterion reports the timing distributions; the
//! helpers here additionally print the experiment's *series* (size →
//! measured value) as plain rows, so the scaling shape the paper's
//! complexity results predict can be read directly off `cargo bench`
//! output.

use pde_core::{generic, GenericLimits, GenericStats, PdeSetting};
use pde_relational::Instance;
use pde_runtime::Governor;
use std::fmt::Display;
use std::ops::ControlFlow;

/// Print a labeled series table to stderr (Criterion owns stdout).
pub fn print_series<A: Display, B: Display>(
    experiment: &str,
    header: (&str, &str),
    rows: &[(A, B)],
) {
    eprintln!("\n=== {experiment} ===");
    eprintln!("{:>16} {:>20}", header.0, header.1);
    for (a, b) in rows {
        eprintln!("{a:>16} {b:>20}");
    }
}

/// Print a three-column series.
pub fn print_series3<A: Display, B: Display, C: Display>(
    experiment: &str,
    header: (&str, &str, &str),
    rows: &[(A, B, C)],
) {
    eprintln!("\n=== {experiment} ===");
    eprintln!("{:>16} {:>20} {:>20}", header.0, header.1, header.2);
    for (a, b, c) in rows {
        eprintln!("{a:>16} {b:>20} {c:>20}");
    }
}

/// Milliseconds (fractional) of a timed closure, for the series printers.
pub fn time_ms(mut f: impl FnMut()) -> f64 {
    let t = std::time::Instant::now();
    f();
    t.elapsed().as_secs_f64() * 1e3
}

/// The witness-chase search to its first solution: the verdict (`None`
/// when a limit cut it short) and the search counters.
pub fn witness_search(setting: &PdeSetting, input: &Instance) -> (Option<bool>, GenericStats) {
    let mut found = false;
    let governor = Governor::unlimited();
    let limits = GenericLimits::default();
    let (stats, exhausted, _) =
        generic::for_each_solution(setting, input, limits, &governor, |_| {
            found = true;
            ControlFlow::Break(())
        })
        .unwrap();
    let verdict = if found {
        Some(true)
    } else {
        exhausted.then_some(false)
    };
    (verdict, stats)
}

/// The workspace commit the benchmark ran on, or `"unknown"` outside a
/// git checkout (e.g. a source tarball).
pub fn commit_hash() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Write the machine-readable benchmark report `BENCH_<experiment>.json`
/// at the workspace root — the repo's perf-trajectory record. One JSON
/// object per experiment run: report schema version, commit hash,
/// wall-clock timestamp, the named timing measurements, and a
/// [`pde_trace::MetricsRegistry`] snapshot of the counters the workload
/// produced. Benches overwrite their own file; the trajectory lives in
/// the git history of these files.
pub fn write_report(
    experiment: &str,
    measurements: &[(String, f64)],
    metrics: &pde_trace::MetricsRegistry,
) {
    let unix_ms = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis())
        .unwrap_or(0);
    let body: Vec<String> = measurements
        .iter()
        .map(|(k, v)| format!("{}:{v:.3}", pde_trace::json_escape(k)))
        .collect();
    let json = format!(
        "{{\"v\":{},\"experiment\":{},\"commit\":{},\"generated_unix_ms\":{unix_ms},\"measurements\":{{{}}},\"metrics\":{}}}\n",
        pde_trace::REPORT_VERSION,
        pde_trace::json_escape(experiment),
        pde_trace::json_escape(&commit_hash()),
        body.join(","),
        metrics.to_json(),
    );
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(format!("BENCH_{experiment}.json"));
    match std::fs::write(&path, json) {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}
