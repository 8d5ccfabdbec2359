//! The repository benchmark: end-to-end and per-layer measurements of the
//! `pde` binary on four seeded workloads.
//!
//! * `sync_batch` — §1 genomics sync rounds, one `pde solve` and one
//!   `pde certain` child per round.
//! * `search_batch` — Theorem 3 / §4 hard instances from G(n, p) graphs,
//!   one `pde solve` or `pde certain` child per instance.
//! * `serve_query` — one `pde serve` session answering a closed loop of
//!   solve / certain / insert requests.
//! * `serve_ingest` — `pde serve` sessions bulk-loading inserts with a
//!   window in flight, snapshots, a closing solve and a restart.
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` replays the
//! same operations in-process with spans around each layer call and
//! prints the per-layer metrics. See `pdebench/README.md`.

pub mod batch;
pub mod env;
pub mod gen;
pub mod json;
pub mod oracle;
pub mod proc;
pub mod replay;
pub mod serve;
pub mod stats;
pub mod trace;

use stats::{median, percentile, smooth_percentile, tail_quantile, Metric, OpRecord};
use std::path::PathBuf;
use std::time::Duration;

/// Per-operation deadline: no reply by then is a failed operation.
pub const OP_DEADLINE: Duration = Duration::from_secs(30);
/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 7;
/// The default workload seed.
pub const DEFAULT_SEED: u64 = 1;
/// A seed held out from tuning, for checking later claims.
pub const HELD_OUT_SEED: u64 = 20_261_017;
/// The workloads.
pub const WORKLOADS: [&str; 4] = ["sync_batch", "search_batch", "serve_query", "serve_ingest"];

/// The operation kinds whose latency the JSON result carries, each with
/// the percentile reported as its `<kind>_tail_ms`. They are fixed per
/// workload so that runs of different commits compare the same quantile.
/// Each is at or below the highest percentile with ten samples beyond it,
/// and with its [`smooth_percentile`] window stays inside one class of
/// operations: the sync solve tail below the share of sync solves that
/// abort today (a failure ranks at the deadline, so a window among them
/// would read the deadline), the search solve tail among the egd-boundary
/// nos.
pub fn latency_kinds(workload: &str) -> &'static [(&'static str, f64)] {
    match workload {
        "sync_batch" => &[("solve", 0.65), ("certain", 0.65)],
        "search_batch" => &[("solve", 0.85), ("certain", 0.65)],
        "serve_query" => &[("solve", 0.9), ("certain", 0.9)],
        _ => &[("insert", 0.99)],
    }
}

/// The percentile of all operations reported as `tail_ms` in the report
/// (not in the JSON result), fixed per workload.
pub fn tail_q(workload: &str) -> f64 {
    match workload {
        "sync_batch" => 0.8,
        "search_batch" => 0.9,
        "serve_query" => 0.95,
        _ => 0.99,
    }
}

/// What one run is asked to do.
pub struct Ctx {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Measuring time.
    pub seconds: f64,
    /// The `pde` binary under test.
    pub pde: PathBuf,
    /// This benchmark's own binary (for replay children).
    pub exe: PathBuf,
    /// Scratch directory of this run (inside the checkout).
    pub work: PathBuf,
    /// The checkout root.
    pub checkout: PathBuf,
}

impl Ctx {
    /// A command for `program`, run through the exec helper.
    pub fn command(&self, program: impl AsRef<std::ffi::OsStr>) -> proc::Cmd {
        proc::command(&self.exe, &self.work, program)
    }
}

/// What an untraced run measured.
#[derive(Default)]
pub struct RunOutput {
    /// Every timed operation.
    pub ops: Vec<OpRecord>,
    /// Length of the timed phase, s.
    pub timed_s: f64,
    /// Each set-up's duration, s.
    pub setup_s: Vec<f64>,
    /// Peak RSS of each child under test, KiB.
    pub rss_kib: Vec<u64>,
    /// Restart (recovery) times, ms.
    pub restart_ms: Vec<f64>,
    /// Store bytes per live base fact at session end.
    pub store_bytes_per_fact: Option<f64>,
    /// The session's store fsyncs per fact committed (serve workloads).
    pub fsyncs_per_fact: Option<f64>,
    /// Notes for the report (failures and the like).
    pub notes: Vec<String>,
    /// Batch workloads: one record per distinct operation, at the median
    /// of its runs. The latency percentiles are taken over these when
    /// there are any, else over `ops`.
    pub per_op: Vec<OpRecord>,
    /// Batch workloads: completed operations per second of one pass over
    /// the distinct operations, each at the median wall time of its runs.
    pub pass_ops_per_s: Option<f64>,
    /// Sessions of equal make-up (`serve_ingest`): the index of each one's
    /// first operation in `ops` and its duration in seconds. With more than
    /// one, the latency and throughput metrics are medians over sessions,
    /// so one session hit by a disk stall does not decide the run.
    pub sessions: Vec<(usize, f64)>,
}

/// Run the untraced workload.
pub fn run_plain(ctx: &Ctx) -> Result<RunOutput, String> {
    match ctx.workload.as_str() {
        "sync_batch" => batch::run(ctx, gen::sync_batch),
        "search_batch" => batch::run(ctx, gen::search_batch),
        "serve_query" => serve::run_query(ctx),
        "serve_ingest" => serve::run_ingest(ctx),
        other => Err(format!("unknown workload '{other}'")),
    }
}

/// Run the traced workload.
pub fn run_traced(ctx: &Ctx) -> Result<trace::TraceOutput, String> {
    match ctx.workload.as_str() {
        "sync_batch" => trace::run_batch(ctx, gen::sync_batch),
        "search_batch" => trace::run_batch(ctx, gen::search_batch),
        "serve_query" => trace::run_serve(ctx, false),
        "serve_ingest" => trace::run_serve(ctx, true),
        other => Err(format!("unknown workload '{other}'")),
    }
}

/// The end-to-end metrics of an untraced run, plus report lines with the
/// per-operation breakdown.
pub fn end_to_end(ctx: &Ctx, out: &RunOutput) -> (Vec<Metric>, Vec<String>) {
    let all: Vec<f64> = out.ops.iter().map(|o| o.ms).collect();
    let attempted = out.ops.len();
    let failed = out.ops.iter().filter(|o| o.failure.is_some()).count();
    let completed = attempted - failed;
    let rss: Vec<f64> = out.rss_kib.iter().map(|&k| k as f64 / 1024.0).collect();
    let q = tail_q(&ctx.workload);
    let mut session_lines = Vec::new();
    let (ops_per_s, p50, tail) = if out.sessions.len() > 1 {
        let mut per = (Vec::new(), Vec::new(), Vec::new());
        for (k, &(first, secs)) in out.sessions.iter().enumerate() {
            let last = out.sessions.get(k + 1).map_or(out.ops.len(), |s| s.0);
            let ops = &out.ops[first..last];
            let ms: Vec<f64> = ops.iter().map(|o| o.ms).collect();
            per.0
                .push(ops.iter().filter(|o| o.failure.is_none()).count() as f64 / secs);
            per.1.push(percentile(&ms, 0.5));
            per.2.push(percentile(&ms, q));
            session_lines.push(format!(
                "session {k}: {} ops in {secs:.3} s, p50 {:.3} ms, p{} {:.3} ms",
                ops.len(),
                per.1[k],
                (q * 100.0).round(),
                per.2[k]
            ));
        }
        (median(&per.0), median(&per.1), median(&per.2))
    } else {
        (
            out.pass_ops_per_s
                .unwrap_or(completed as f64 / out.timed_s),
            percentile(&all, 0.5),
            percentile(&all, q),
        )
    };
    let mut metrics = vec![
        Metric::new("setup_s", median(&out.setup_s), "s"),
        Metric::new("ops_per_s", ops_per_s, "1/s"),
        Metric::new(
            "ok_frac",
            completed as f64 / attempted.max(1) as f64,
            "ratio",
        ),
    ];
    let latency = if out.per_op.is_empty() {
        &out.ops
    } else {
        &out.per_op
    };
    let of_kind = |kind: &str| -> Vec<f64> {
        latency
            .iter()
            .filter(|o| o.kind == kind)
            .map(|o| o.ms)
            .collect()
    };
    for &(kind, q) in latency_kinds(&ctx.workload) {
        let v = of_kind(kind);
        if !v.is_empty() {
            metrics.push(Metric::new(
                format!("{kind}_p50_ms"),
                smooth_percentile(&v, 0.5),
                "ms",
            ));
            metrics.push(Metric::new(
                format!("{kind}_tail_ms"),
                smooth_percentile(&v, q),
                "ms",
            ));
        }
    }
    metrics.push(Metric::new("peak_rss_mb", median(&rss), "MiB"));
    let mut lines = vec![
        format!(
            "setup_s {:.4} s (median of {}: {:?})",
            median(&out.setup_s),
            out.setup_s.len(),
            out.setup_s
                .iter()
                .map(|s| (s * 1e4).round() / 1e4)
                .collect::<Vec<_>>()
        ),
        format!(
            "ops_per_s {ops_per_s:.3} 1/s ({completed} completed in {:.2} s{})",
            out.timed_s,
            if out.sessions.len() > 1 {
                format!("; median over {} sessions", out.sessions.len())
            } else if out.pass_ops_per_s.is_some() {
                "; rate of one pass at each operation's median time".into()
            } else {
                String::new()
            }
        ),
        format!(
            "failed_frac {:.4} ratio ({failed} of {attempted} failed)",
            failed as f64 / attempted.max(1) as f64
        ),
        format!(
            "p50_ms {p50:.3} ms, tail_ms (p{}) {tail:.3} ms over all {attempted} ops{}",
            (q * 100.0).round(),
            if out.sessions.len() > 1 {
                " (medians over sessions)"
            } else {
                ""
            }
        ),
    ];
    lines.extend(session_lines);
    for kind in ["solve", "certain", "insert", "snapshot", "restart"] {
        let v = of_kind(kind);
        if v.is_empty() {
            lines.push(format!(
                "{kind}_p50_ms n/a, {kind}_tail_ms n/a (no {kind} ops)"
            ));
            continue;
        }
        let fixed = latency_kinds(&ctx.workload)
            .iter()
            .find(|k| k.0 == kind)
            .map(|k| k.1);
        let tail = match fixed.or_else(|| tail_quantile(v.len())) {
            Some(q) => format!(
                "{kind}_tail_ms {:.3} ms (p{}, n={}, {} beyond)",
                smooth_percentile(&v, q),
                (q * 100.0).round(),
                v.len(),
                v.len() - (q * v.len() as f64).ceil() as usize
            ),
            None => format!("{kind}_tail_ms n/a (n={} < 20)", v.len()),
        };
        lines.push(format!(
            "{kind}_p50_ms {:.3} ms (n={}), {tail}",
            smooth_percentile(&v, 0.5),
            v.len()
        ));
    }
    lines.push(format!(
        "peak_rss_mb {:.2} MiB (median over {} children, max {:.2})",
        median(&rss),
        rss.len(),
        rss.iter().copied().fold(0.0, f64::max)
    ));
    match out.store_bytes_per_fact {
        Some(b) => lines.push(format!("store_bytes_per_fact {b:.2} B")),
        None => lines.push("store_bytes_per_fact n/a (no store)".into()),
    }
    if out.restart_ms.is_empty() {
        lines.push("restart_ms n/a (no restart)".into());
    } else {
        lines.push(format!(
            "restart_ms {:.3} ms (median of {})",
            median(&out.restart_ms),
            out.restart_ms.len()
        ));
    }
    (metrics, lines)
}
