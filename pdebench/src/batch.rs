//! The batch workloads: one `pde solve` / `pde certain` child per
//! operation, one at a time (closed loop, one caller).

use crate::gen::{BatchInputs, BatchOp};
use crate::oracle::{check, cli_answer};
use crate::proc::{self, Cmd, End};
use crate::stats::{median, OpRecord};
use crate::{Ctx, RunOutput, OP_DEADLINE, SETUPS};
use std::path::PathBuf;
use std::process::Stdio;
use std::time::{Duration, Instant};

/// Path of bundle `i` in the work directory.
pub fn bundle_path(ctx: &Ctx, i: usize) -> PathBuf {
    ctx.work.join(format!("b{i}.pde"))
}

/// Set up a batch workload [`SETUPS`] times: generate and write every
/// bundle, then run the binary once (`pde lint` on the first bundle).
/// Returns the inputs and each set-up's duration in seconds. The repeats
/// double as a determinism check: every generation must be byte-identical.
pub fn setup(ctx: &Ctx, gen: fn(u64) -> BatchInputs) -> Result<(BatchInputs, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut first: Option<BatchInputs> = None;
    for _ in 0..SETUPS {
        let start = Instant::now();
        let inputs = gen(ctx.seed);
        for (i, text) in inputs.bundles.iter().enumerate() {
            std::fs::write(bundle_path(ctx, i), text).map_err(|e| e.to_string())?;
        }
        let mut lint = ctx.command(&ctx.pde);
        lint.cmd
            .arg("lint")
            .arg(bundle_path(ctx, 0))
            .stdout(Stdio::null())
            .stderr(Stdio::null());
        let exit =
            proc::run(lint, OP_DEADLINE).map_err(|e| format!("{}: {e}", ctx.pde.display()))?;
        if !matches!(exit.end, End::Code(0 | 1)) {
            return Err(format!(
                "first exec of pde ended with {}",
                exit.end.describe()
            ));
        }
        times.push(start.elapsed().as_secs_f64());
        match &first {
            Some(f) if f.bundles != inputs.bundles => {
                return Err("input generation is not deterministic".into())
            }
            Some(_) => {}
            None => first = Some(inputs),
        }
    }
    Ok((first.expect("at least one set-up"), times))
}

/// The `pde` command line of a batch operation.
pub fn command(ctx: &Ctx, op: &BatchOp) -> Cmd {
    let mut c = ctx.command(&ctx.pde);
    c.cmd.arg(op.kind).arg(bundle_path(ctx, op.bundle));
    if let Some(q) = op.query {
        c.cmd.arg(q);
    }
    c.cmd.stdin(Stdio::null()).stderr(Stdio::null());
    c
}

/// Run one batch operation as a child under `deadline`, check its answer,
/// and return the record, the child's peak RSS in KiB and its wall time
/// in ms (the record holds a failed operation at the deadline instead).
pub fn run_op(
    ctx: &Ctx,
    op: &BatchOp,
    mut cmd: Cmd,
    deadline: Duration,
) -> Result<(OpRecord, u64, f64), String> {
    let out_path = ctx.work.join("stdout.txt");
    let out = std::fs::File::create(&out_path).map_err(|e| e.to_string())?;
    cmd.cmd.stdout(out);
    let exit = proc::run(cmd, deadline).map_err(|e| e.to_string())?;
    let wall_ms = exit.wall.as_secs_f64() * 1e3;
    let stdout = std::fs::read_to_string(&out_path).unwrap_or_default();
    let failure = cli_answer(op.kind, exit.end, &stdout)
        .and_then(|a| check(&op.expect, &a))
        .err();
    // A failed operation missed every latency limit: it ranks at the
    // deadline, above every completed one.
    let ms = if failure.is_some() {
        deadline.as_secs_f64() * 1e3
    } else {
        wall_ms
    };
    Ok((
        OpRecord {
            kind: op.kind,
            ms,
            failure,
        },
        exit.maxrss_kib,
        wall_ms,
    ))
}

/// The untraced batch run: set up, then run the whole set of operations
/// in order, over and over until the measuring time is spent (the first
/// time through always completes). Every run of an operation is an
/// attempt; the latency percentiles and the throughput are taken over the
/// distinct operations, each at the median of its runs, so a moment of
/// contention on a shared host moves one run of one operation, not the
/// percentile it happens to fall on.
pub fn run(ctx: &Ctx, gen: fn(u64) -> BatchInputs) -> Result<RunOutput, String> {
    let (inputs, setup_s) = setup(ctx, gen)?;
    let mut out = RunOutput {
        setup_s,
        ..RunOutput::default()
    };
    let n = inputs.ops.len();
    let mut runs: Vec<Vec<(f64, f64, bool)>> = vec![Vec::new(); n];
    let start = Instant::now();
    let mut i = 0;
    while i < n || start.elapsed().as_secs_f64() < ctx.seconds {
        let op = &inputs.ops[i % n];
        let (rec, rss, wall_ms) = run_op(ctx, op, command(ctx, op), OP_DEADLINE)?;
        if let Some(f) = &rec.failure {
            out.notes.push(format!(
                "op {i} {} on b{} ({} facts) failed: {f}",
                op.kind, op.bundle, inputs.facts[op.bundle]
            ));
        }
        runs[i % n].push((rec.ms, wall_ms, rec.failure.is_none()));
        out.ops.push(rec);
        out.rss_kib.push(rss);
        i += 1;
    }
    out.timed_s = start.elapsed().as_secs_f64();
    let (mut completed, mut pass_s) = (0.0, 0.0);
    for (op, r) in inputs.ops.iter().zip(&runs) {
        let ms: Vec<f64> = r.iter().map(|x| x.0).collect();
        let wall: Vec<f64> = r.iter().map(|x| x.1).collect();
        completed += r.iter().filter(|x| x.2).count() as f64 / r.len() as f64;
        pass_s += median(&wall) / 1e3;
        out.per_op.push(OpRecord {
            kind: op.kind,
            ms: median(&ms),
            failure: None,
        });
    }
    out.pass_ops_per_s = Some(completed / pass_s);
    out.notes.push(format!(
        "{i} runs of {n} distinct operations ({:.2} runs each)",
        i as f64 / n as f64
    ));
    Ok(out)
}
