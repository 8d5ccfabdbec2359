//! `pdebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! --pde <path>`: run one benchmark workload and print its metrics, the
//! last stdout line being the JSON result. `pdebench replay ...` is the
//! in-process replay child the traced run spawns, and `pdebench exec ...`
//! the helper every child is started through (see `proc`).

use pdebench::{end_to_end, env, replay, run_plain, run_traced, stats, trace, Ctx, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> String {
    format!(
        "usage: pdebench --workload <{}> --seed <n> --seconds <s> --trace <0|1> --pde <path>",
        WORKLOADS.join("|")
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("exec") && args.len() >= 3 {
        return match pdebench::proc::exec_helper(
            std::path::Path::new(&args[1]),
            std::ffi::OsStr::new(&args[2]),
            &args[3..],
        ) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("exec {}: {e}", args[2]);
                ExitCode::from(2)
            }
        };
    }
    if args.first().map(String::as_str) == Some("replay") {
        return match replay::main(&replay::Spec::parse(&args[1..])) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("replay: {e}");
                ExitCode::from(2)
            }
        };
    }
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("pdebench: {e}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let mut workload = None;
    let mut seed = pdebench::DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut traced = false;
    let mut pde = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{a} needs a value\n{}", usage()))
        };
        match a.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => traced = value()? == "1",
            "--pde" => pde = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}\n{}", usage())),
        }
    }
    let workload = workload.ok_or_else(usage)?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload '{workload}'\n{}", usage()));
    }
    let pde = pde.ok_or_else(usage)?;
    let checkout = std::env::current_dir().map_err(|e| e.to_string())?;
    let pde = checkout.join(pde);
    if !pde.is_file() {
        return Err(format!("{}: no such binary", pde.display()));
    }
    let root = checkout.join(".bench_work");
    let work = root.join(format!("{workload}-{seed}-{}", std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| e.to_string())?;
    pdebench::proc::sync_disk();
    let ctx = Ctx {
        workload,
        seed,
        seconds,
        pde,
        exe: std::env::current_exe().map_err(|e| e.to_string())?,
        work: work.clone(),
        checkout: checkout.clone(),
    };
    let result = if traced {
        traced_run(&ctx, &root)
    } else {
        plain_run(&ctx)
    };
    let _ = std::fs::remove_dir_all(&work);
    pdebench::proc::sync_disk();
    let line = result?;
    println!("{}", env::record(&root, &checkout));
    println!("{line}");
    Ok(())
}

fn header(ctx: &Ctx, mode: &str) {
    println!(
        "pdebench workload={} seed={} seconds={} mode={mode}",
        ctx.workload, ctx.seed, ctx.seconds
    );
}

fn plain_run(ctx: &Ctx) -> Result<String, String> {
    header(ctx, "end-to-end");
    let out = run_plain(ctx)?;
    let (metrics, lines) = end_to_end(ctx, &out);
    for l in lines.iter().chain(&out.notes) {
        println!("  {l}");
    }
    let failed = out.ops.iter().filter(|o| o.failure.is_some()).count();
    let wrong = out.ops.iter().any(|o| {
        o.failure
            .as_ref()
            .is_some_and(pdebench::oracle::Failure::is_wrong)
    });
    Ok(stats::result_line(!wrong, out.ops.len(), failed, &metrics))
}

fn traced_run(ctx: &Ctx, root: &std::path::Path) -> Result<String, String> {
    header(ctx, "traced");
    let out = run_traced(ctx)?;
    let mut metrics = out
        .layers
        .metrics(out.store_bytes_per_fact, out.fsyncs_per_fact);
    metrics.extend(trace::serve_metrics(out.access.as_ref()));
    for l in out.layers.report() {
        println!("  {l}");
    }
    if let Some(a) = &out.access {
        println!("  serve.queue_ms {:.3} ms (mean per request)", a.queue_ms);
    }
    for m in &metrics {
        println!("  {} {} {}", m.name, m.value, m.unit);
    }
    for n in out.layers.notes.iter().take(20) {
        println!("  {n}");
    }
    let spans = root.join(format!("spans-{}-seed{}.jsonl", ctx.workload, ctx.seed));
    let mut text = out.layers.lines.join("\n");
    text.push('\n');
    std::fs::write(&spans, text).map_err(|e| e.to_string())?;
    println!("  spans written to {}", spans.display());
    Ok(stats::result_line(
        out.layers.wrong == 0,
        out.layers.ops.max(1),
        out.layers.failed,
        &metrics,
    ))
}
