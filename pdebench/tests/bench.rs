//! The benchmark's own checks: inputs are a function of the seed, the
//! oracle can fail an operation, and the deadline path works.

use pdebench::gen::{self, BatchOp, Expect};
use pdebench::oracle::Failure;
use pdebench::proc::{End, Exit};
use pdebench::{batch, trace, Ctx};
use std::path::{Path, PathBuf};
use std::time::Duration;

fn repo() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// A scratch directory under cargo's per-target temp dir.
fn scratch(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("pdebench-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn ctx(pde: PathBuf, work: PathBuf) -> Ctx {
    Ctx {
        workload: "sync_batch".into(),
        seed: 1,
        seconds: 1.0,
        pde,
        exe: PathBuf::from(env!("CARGO_BIN_EXE_pdebench")),
        work,
        checkout: repo(),
    }
}

/// The release `pde` binary, built if needed (the benchmark drives it as a
/// child process).
fn pde_binary() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| repo().join(".bench_build"), PathBuf::from);
    let target = if target.is_absolute() {
        target
    } else {
        repo().join(target)
    };
    let status = std::process::Command::new(env!("CARGO"))
        .args(["build", "--release", "--offline", "--quiet", "--bin", "pde"])
        .current_dir(repo())
        .env("CARGO_TARGET_DIR", &target)
        .status()
        .expect("cargo runs");
    assert!(status.success(), "building pde failed");
    target.join("release").join("pde")
}

#[test]
fn the_same_seed_gives_byte_identical_inputs() {
    for g in [gen::sync_batch, gen::search_batch] {
        let (a, b, c) = (g(7), g(7), g(8));
        assert_eq!(a.bundles, b.bundles);
        assert_ne!(a.bundles, c.bundles, "another seed gives other inputs");
        let ops = |x: &gen::BatchInputs| -> Vec<_> {
            x.ops
                .iter()
                .map(|o| (o.kind, o.bundle, o.expect.clone()))
                .collect()
        };
        assert_eq!(ops(&a), ops(&b));
    }
    assert_eq!(gen::serve_base(7), gen::serve_base(7));
    assert_ne!(gen::serve_base(7).0, gen::serve_base(8).0);
    let stream = |seed| -> Vec<String> {
        (0..300)
            .map(|i| gen::query_request(seed, i).line())
            .collect()
    };
    assert_eq!(stream(7), stream(7));
    assert_ne!(stream(7), stream(8));
    let ingest = |seed| -> Vec<String> {
        gen::ingest_requests(seed)
            .iter()
            .map(|r| r.line())
            .collect()
    };
    assert_eq!(ingest(7), ingest(7));
    assert_ne!(ingest(7), ingest(8));
}

#[test]
fn workloads_hold_both_answers_and_the_stated_mix() {
    let sync = gen::sync_batch(3);
    let rogue = sync
        .ops
        .iter()
        .filter(|o| o.expect == Expect::Solve(false))
        .count();
    assert_eq!(
        rogue * 4,
        gen::SYNC_ROUNDS,
        "one round in four is unsolvable"
    );
    assert!(sync.facts.iter().all(|&f| (900..=22_000).contains(&f)));
    let search = gen::search_batch(3);
    for want in [true, false] {
        assert!(search.ops.iter().any(|o| o.expect == Expect::Solve(want)));
    }
    let kinds: Vec<&str> = (0..1000).map(|i| gen::query_request(3, i).kind()).collect();
    let count = |k| kinds.iter().filter(|&&x| x == k).count();
    assert_eq!(count("snapshot"), 1000 / gen::QUERY_SNAPSHOT_EVERY);
    for (kind, share) in [("solve", 600), ("certain", 300), ("insert", 100)] {
        let slack = 1000 / gen::QUERY_SNAPSHOT_EVERY;
        assert!(
            count(kind).abs_diff(share) <= slack,
            "{kind}: {}",
            count(kind)
        );
    }
}

#[test]
fn a_wrong_answer_is_a_failed_operation() {
    let work = scratch("wrong");
    // A stand-in for pde that always claims there is no solution.
    let fake = work.join("fake-pde");
    std::fs::write(&fake, "#!/bin/sh\necho 'result:   no solution'\nexit 1\n").unwrap();
    std::process::Command::new("chmod")
        .arg("+x")
        .arg(&fake)
        .status()
        .unwrap();
    let ctx = ctx(fake, work.clone());
    std::fs::write(batch::bundle_path(&ctx, 0), "%schema\n").unwrap();
    let op = |expect| BatchOp {
        kind: "solve",
        bundle: 0,
        query: None,
        expect,
    };
    let deadline = Duration::from_secs(10);
    let (right, _, _) = batch::run_op(
        &ctx,
        &op(Expect::Solve(false)),
        batch::command(&ctx, &op(Expect::Solve(false))),
        deadline,
    )
    .unwrap();
    assert!(right.failure.is_none(), "{:?}", right.failure);
    let wrong_op = op(Expect::Solve(true));
    let (wrong, _, _) =
        batch::run_op(&ctx, &wrong_op, batch::command(&ctx, &wrong_op), deadline).unwrap();
    assert!(
        matches!(wrong.failure, Some(Failure::Wrong(_))),
        "{:?}",
        wrong.failure
    );
    assert_eq!(
        wrong.ms,
        deadline.as_secs_f64() * 1e3,
        "failures rank at the deadline"
    );
}

#[test]
fn a_divergent_solve_fails_at_the_deadline() {
    let work = scratch("deadline");
    let ctx = ctx(pde_binary(), work.clone());
    std::fs::copy(
        repo().join("examples/divergent.pde"),
        batch::bundle_path(&ctx, 0),
    )
    .unwrap();
    let op = BatchOp {
        kind: "solve",
        bundle: 0,
        query: None,
        expect: Expect::Solve(true),
    };
    let deadline = Duration::from_millis(400);
    let start = std::time::Instant::now();
    let (rec, _, _) = batch::run_op(&ctx, &op, batch::command(&ctx, &op), deadline).unwrap();
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "the child was killed"
    );
    assert_eq!(rec.failure, Some(Failure::Ended("deadline".into())));
    assert_eq!(rec.ms, 400.0);
}

#[test]
fn an_abort_is_charged_to_the_open_span() {
    let lines = [
        r#"{"kind":"pdebench-open","seq":1,"name":"batch.op","layer":"","op":1,"parent":0,"t_ns":1000}"#,
        r#"{"kind":"pdebench-open","seq":2,"name":"bundle.parse","layer":"relational.parse","op":1,"parent":1,"t_ns":1100}"#,
        r#"{"kind":"pdebench-close","seq":2,"t_ns":1300}"#,
        r#"{"kind":"pdebench-open","seq":3,"name":"solve","layer":"core.solve","op":1,"parent":1,"t_ns":1400}"#,
    ];
    let exit = Exit {
        end: End::Signal(6),
        wall: Duration::from_nanos(5000),
        mono_ns: 6000,
        maxrss_kib: 0,
    };
    let r = trace::parse_replay(&lines.join("\n"), exit);
    let a = r.aborted.as_ref().expect("an open span");
    assert_eq!((a.name.as_str(), a.dur_ns), ("solve", 4600));
    let mut layers = trace::Layers::default();
    layers.add(&r, |a| a.layer.clone());
    assert_eq!(layers.layer_ms("core.solve"), 0.0046);
    assert_eq!(layers.layer_ms("relational.parse"), 0.0);
    // The same markers from a child that exited cleanly charge nothing.
    let clean = Exit {
        end: End::Code(0),
        ..exit
    };
    assert!(trace::parse_replay(&lines.join("\n"), clean).aborted.is_none());
}

/// The traced replay of a solve reports the program's own spans folded
/// into layers, and its answer.
#[test]
fn a_traced_replay_folds_the_program_spans_into_layers() {
    let work = scratch("replay");
    let ctx = ctx(pde_binary(), work.clone());
    let inputs = gen::sync_batch(1);
    let op = &inputs.ops[0];
    std::fs::write(batch::bundle_path(&ctx, 0), &inputs.bundles[op.bundle]).unwrap();
    let spec = pdebench::replay::Spec {
        traced: true,
        kind: op.kind.to_owned(),
        bundle: batch::bundle_path(&ctx, 0).display().to_string(),
        ..Default::default()
    };
    let r = trace::replay(&ctx, &spec, Duration::from_secs(60)).unwrap();
    assert_eq!(r.exit.end, End::Code(0));
    let o = r.ops.first().expect("one operation");
    let a = trace::replay_answer(&o.answer).unwrap();
    assert!(pdebench::oracle::check(&op.expect, &a).is_ok(), "{a:?}");
    for layer in ["relational.parse", "chase.st", "chase.ts", "core.blocks", "relational.ground_hom"] {
        assert!(o.layers.get(layer).copied().unwrap_or(0) > 0, "{layer}: {:?}", o.layers);
    }
    let total: u64 = o.layers.values().sum();
    assert!(total <= o.wall_ns, "layers {total} ns within the wall {} ns", o.wall_ns);
    assert!(o.counts.get("decompositions").copied().unwrap_or(0) >= 1);
}
