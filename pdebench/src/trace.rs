//! The traced run: the same seeded operations replayed in-process (one
//! replay child per batch operation or serve session, see `replay`), plus
//! the per-layer metrics computed from the layer time and counts the
//! children report, the serve access log and the untraced replays.

use crate::batch;
use crate::gen::{self, BatchInputs, GenomicsModel, Request};
use crate::json::Json;
use crate::oracle::{check, check_serve, serve_answer, Answer, Failure};
use crate::proc::{self, End, Exit};
use crate::replay::{request_layer, Spec};
use crate::serve;
use crate::stats::Metric;
use crate::{Ctx, OP_DEADLINE, SETUPS};
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::process::Stdio;
use std::time::{Duration, Instant};

/// Deadline of one replayed serve session.
const SESSION_DEADLINE: Duration = Duration::from_secs(120);

/// One operation a replay child finished.
#[derive(Clone, Debug)]
pub struct OpResult {
    /// Operation id within its child (serve: the request id; 0 is the
    /// session's start-up).
    pub op: u64,
    /// In-process wall time, ns.
    pub wall_ns: u64,
    /// The answer.
    pub answer: Json,
    /// Nanoseconds per layer.
    pub layers: BTreeMap<String, u64>,
    /// Counts from the stats the calls returned and from the spans.
    pub counts: BTreeMap<String, u64>,
    /// Maxima read off the spans.
    pub maxes: BTreeMap<String, u64>,
}

/// A benchmark span still open when its child died.
#[derive(Clone, Debug)]
pub struct Aborted {
    /// Span name.
    pub name: String,
    /// The layer its time is charged to.
    pub layer: String,
    /// Operation id.
    pub op: u64,
    /// From its start to the child's death, ns.
    pub dur_ns: u64,
}

/// Everything one replay child reported.
pub struct Replay {
    /// The operations it finished.
    pub ops: Vec<OpResult>,
    /// The innermost span an abort left open.
    pub aborted: Option<Aborted>,
    /// How the child ended.
    pub exit: Exit,
    /// The benchmark span records, for the spans file.
    pub lines: Vec<String>,
}

/// Run a replay child.
pub fn replay(ctx: &Ctx, spec: &Spec, deadline: Duration) -> Result<Replay, String> {
    let out_path = ctx.work.join("replay.out");
    let out = std::fs::File::create(&out_path).map_err(|e| e.to_string())?;
    let mut c = ctx.command(&ctx.exe);
    c.cmd
        .arg("replay")
        .args(spec.args())
        .stdin(Stdio::null())
        .stdout(out)
        .stderr(Stdio::null());
    let exit = proc::run(c, deadline).map_err(|e| e.to_string())?;
    let text = std::fs::read_to_string(&out_path).unwrap_or_default();
    Ok(parse_replay(&text, exit))
}

fn field(v: &Json, k: &str) -> u64 {
    v.get(k).and_then(Json::num).unwrap_or(0.0) as u64
}

fn map(v: Option<&Json>) -> BTreeMap<String, u64> {
    match v {
        Some(Json::Obj(m)) => m
            .iter()
            .map(|(k, x)| (k.clone(), x.num().unwrap_or(0.0) as u64))
            .collect(),
        _ => BTreeMap::new(),
    }
}

/// Read a replay child's stdout. A benchmark span opened but never closed
/// was cut by the child's death: the innermost one is charged with the
/// time from its start to the death.
pub fn parse_replay(text: &str, exit: Exit) -> Replay {
    let mut ops = Vec::new();
    let mut lines = Vec::new();
    let mut open: BTreeMap<u64, (String, String, u64, u64)> = BTreeMap::new();
    for line in text.lines() {
        let Ok(v) = Json::parse(line) else { continue };
        if v.get("span").is_some() {
            lines.push(line.to_owned());
            continue;
        }
        let s = |k: &str| v.get(k).and_then(Json::str).unwrap_or("").to_owned();
        match v.get("kind").and_then(Json::str) {
            Some("pdebench-open") => {
                open.insert(
                    field(&v, "seq"),
                    (s("name"), s("layer"), field(&v, "op"), field(&v, "t_ns")),
                );
            }
            Some("pdebench-close") => {
                open.remove(&field(&v, "seq"));
            }
            Some("pdebench-op") => ops.push(OpResult {
                op: field(&v, "op"),
                wall_ns: field(&v, "wall_ns"),
                answer: v.get("answer").cloned().unwrap_or(Json::Null),
                layers: map(v.get("layers")),
                counts: map(v.get("counts")),
                maxes: map(v.get("maxes")),
            }),
            _ => {}
        }
    }
    // A child that exited cleanly was cut by nothing (a session leaves
    // the request after its last one open).
    if matches!(exit.end, End::Code(0)) {
        open.clear();
    }
    let aborted = open
        .into_iter()
        .rev()
        .find(|(_, o)| !o.1.is_empty())
        .map(|(seq, (name, layer, op, t))| {
            let dur_ns = exit.mono_ns.saturating_sub(t);
            lines.push(format!(
                concat!(
                    "{{\"v\":1,\"span\":{},\"seq\":{},\"dur_ns\":{},\"self_ns\":{},",
                    "\"fields\":{{\"op\":{},\"layer\":{},\"start_ns\":{},\"aborted\":1}}}}"
                ),
                pde_trace::json_escape(&name),
                seq,
                dur_ns,
                dur_ns,
                op,
                pde_trace::json_escape(&layer),
                t
            ));
            Aborted {
                name,
                layer,
                op,
                dur_ns,
            }
        });
    Replay {
        ops,
        aborted,
        exit,
        lines,
    }
}

/// Read a batch replay answer as the oracle sees it.
pub fn replay_answer(a: &Json) -> Result<Answer, Failure> {
    if let Some(b) = a.get("solve").and_then(Json::bool) {
        return Ok(Answer::Solve(b));
    }
    if let Some(b) = a.get("bool").and_then(Json::bool) {
        return Ok(Answer::Bool(b));
    }
    if let Some(rows) = a.get("rows") {
        return Ok(Answer::Rows(rows.arr().map(|r| {
            r.iter()
                .map(|x| x.str().unwrap_or("?").to_owned())
                .collect()
        })));
    }
    if a.get("done").is_some() {
        return Ok(Answer::Done);
    }
    if a.get("undecided").is_some() {
        return Err(Failure::Undecided);
    }
    let e = a.get("error").and_then(Json::str).unwrap_or("no answer");
    Err(Failure::Refused(e.to_owned()))
}

/// Layer names, in report order.
pub const LAYERS: [&str; 14] = [
    "relational.parse",
    "relational.ground_hom",
    "relational.block_hom",
    "analysis",
    "chase.st",
    "chase.ts",
    "core.blocks",
    "core.solve",
    "core.search",
    "core.certain",
    "store.commit",
    "store.checkpoint",
    "store.open",
    "serve.apply",
];

/// Per-layer totals over every replay of a traced run.
#[derive(Default)]
pub struct Layers {
    layer_ns: BTreeMap<String, u64>,
    /// In-process wall time of the traced operations, ns: the time the
    /// layers (and the glue between them) account for.
    top_ns: u64,
    /// Time of the spans aborts cut (included in their layers), ns.
    aborted_ns: u64,
    /// Count sums over operations.
    sums: BTreeMap<String, f64>,
    /// Maxima over operations.
    maxes: BTreeMap<String, f64>,
    /// Traced operations.
    pub ops: usize,
    /// Traced operations that failed.
    pub failed: usize,
    /// Wrong answers among them.
    pub wrong: usize,
    /// In-process wall ns of the traced / untraced replays of the same
    /// operations.
    pub traced_ns: u64,
    /// See `traced_ns`.
    pub plain_ns: u64,
    /// Wall ns of the `pde` children for the same operations (batch).
    pub cli_ns: u64,
    /// In-process wall ns of the untraced replays matched to `cli_ns`.
    pub cli_plain_ns: u64,
    /// Notes for the report.
    pub notes: Vec<String>,
    /// Span lines for the spans file.
    pub lines: Vec<String>,
}

impl Layers {
    /// Fold a traced replay in; `layer_of_abort` may re-map the layer of a
    /// span an abort left open.
    pub fn add(&mut self, r: &Replay, layer_of_abort: impl Fn(&Aborted) -> String) {
        for o in &r.ops {
            self.top_ns += o.wall_ns;
            for (l, ns) in &o.layers {
                *self.layer_ns.entry(l.clone()).or_default() += ns;
            }
            for (k, v) in &o.counts {
                *self.sums.entry(k.clone()).or_default() += *v as f64;
                let m = self.maxes.entry(k.clone()).or_default();
                *m = m.max(*v as f64);
            }
            for (k, v) in &o.maxes {
                let m = self.maxes.entry(k.clone()).or_default();
                *m = m.max(*v as f64);
            }
        }
        if let Some(a) = &r.aborted {
            let layer = layer_of_abort(a);
            self.top_ns += a.dur_ns;
            self.aborted_ns += a.dur_ns;
            *self.layer_ns.entry(layer.clone()).or_default() += a.dur_ns;
            self.notes.push(format!(
                "abort ({}) charged to open span {} in layer {layer} ({:.1} ms)",
                r.exit.end.describe(),
                a.name,
                a.dur_ns as f64 / 1e6
            ));
        }
        self.lines.extend(r.lines.iter().cloned());
    }

    fn sum(&self, key: &str) -> f64 {
        self.sums.get(key).copied().unwrap_or(0.0)
    }

    fn max(&self, key: &str) -> f64 {
        self.maxes.get(key).copied().unwrap_or(0.0)
    }

    /// Milliseconds charged to `layer`.
    pub fn layer_ms(&self, layer: &str) -> f64 {
        self.layer_ns.get(layer).copied().unwrap_or(0) as f64 / 1e6
    }

    /// The per-layer metrics (everything but the serve access-log ones).
    pub fn metrics(&self, store_bytes_per_fact: f64, fsyncs_per_fact: f64) -> Vec<Metric> {
        let ops = self.ops.max(1) as f64;
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let top_ms = self.top_ns as f64 / 1e6;
        let mut m = Vec::new();
        for l in LAYERS {
            m.push(Metric::new(
                format!("{l}_share"),
                ratio(self.layer_ms(l), top_ms),
                "ratio",
            ));
        }
        let per_op = |k: &str| self.sum(k) / ops;
        m.push(Metric::new("chase.rounds", per_op("chase_rounds"), "count"));
        m.push(Metric::new(
            "chase.triggers_found",
            per_op("triggers_found"),
            "count",
        ));
        m.push(Metric::new(
            "chase.triggers_fired",
            per_op("triggers_fired"),
            "count",
        ));
        m.push(Metric::new(
            "chase.fired_frac",
            ratio(self.sum("triggers_fired"), self.sum("triggers_found")),
            "ratio",
        ));
        m.push(Metric::new(
            "chase.skipped_by_delta",
            per_op("skipped_by_delta"),
            "count",
        ));
        m.push(Metric::new("chase.egd_merges", per_op("egd_merges"), "count"));
        m.push(Metric::new(
            "core.blocks",
            ratio(self.sum("blocks"), self.sum("decompositions")),
            "count",
        ));
        m.push(Metric::new(
            "core.ground_block_facts",
            ratio(self.sum("ground_block_facts"), self.sum("ground_searches")),
            "count",
        ));
        m.push(Metric::new(
            "core.max_block_nulls",
            self.max("max_block_nulls"),
            "count",
        ));
        m.push(Metric::new("core.search_branches", per_op("branches"), "count"));
        m.push(Metric::new(
            "core.candidates_checked",
            per_op("candidates_checked"),
            "count",
        ));
        m.push(Metric::new("core.prunes", per_op("prunes"), "count"));
        m.push(Metric::new(
            "core.prune_frac",
            ratio(self.sum("prunes"), self.sum("branches")),
            "ratio",
        ));
        m.push(Metric::new(
            "core.solutions_examined",
            per_op("solutions_examined"),
            "count",
        ));
        m.push(Metric::new(
            "runtime.governor_checks",
            per_op("governor_checks"),
            "count",
        ));
        m.push(Metric::new(
            "runtime.peak_bytes",
            self.max("peak_bytes"),
            "B",
        ));
        m.push(Metric::new(
            "store.fsyncs_per_fact",
            fsyncs_per_fact,
            "count",
        ));
        m.push(Metric::new(
            "store.frames_replayed",
            self.max("frames_replayed"),
            "count",
        ));
        m.push(Metric::new(
            "store.bytes_per_fact",
            store_bytes_per_fact,
            "B",
        ));
        m.push(Metric::new(
            "cli.unattributed_frac",
            if self.cli_ns > 0 {
                1.0 - ratio(self.cli_plain_ns as f64, self.cli_ns as f64)
            } else {
                0.0
            },
            "ratio",
        ));
        m.push(Metric::new(
            "trace.aborted_share",
            ratio(self.aborted_ns as f64 / 1e6, top_ms),
            "ratio",
        ));
        m.push(Metric::new(
            "trace.overhead_frac",
            ratio(self.traced_ns as f64, self.plain_ns as f64) - 1.0,
            "ratio",
        ));
        m
    }

    /// Report lines: each layer's time in ms and share.
    pub fn report(&self) -> Vec<String> {
        let top_ms = self.top_ns as f64 / 1e6;
        let mut out = vec![format!(
            "traced ops {}  in-process {:.1} ms  (failed {})",
            self.ops, top_ms, self.failed
        )];
        for l in LAYERS {
            let ms = self.layer_ms(l);
            let share = if top_ms > 0.0 { ms / top_ms } else { 0.0 };
            out.push(format!(
                "  {:<24} {:>10.3} ms  {:>5.1}%  ({:.3} ms/op)",
                format!("{l}_ms"),
                ms,
                share * 100.0,
                ms / self.ops.max(1) as f64
            ));
        }
        let rest: f64 = self
            .layer_ns
            .iter()
            .filter(|(l, _)| !LAYERS.contains(&l.as_str()))
            .map(|(_, ns)| *ns as f64 / 1e6)
            .sum();
        out.push(format!("  {:<24} {rest:>10.3} ms  (other)", ""));
        out
    }
}

/// Serve metrics from the access log of a real `pde serve` session.
pub struct AccessStats {
    /// 1 − (chase_ns + solve_ns) / total_ns per op kind.
    pub unattributed: BTreeMap<String, f64>,
    /// Share of client-observed latency spent outside the server's own
    /// request handling (queueing, pipes).
    pub queue_frac: f64,
    /// Mean of that queueing, ms.
    pub queue_ms: f64,
    /// Share of solve/certain requests at the same epoch as the previous
    /// one.
    pub same_epoch_frac: f64,
}

/// Read the access log against the client-observed latencies (ms, by
/// request id starting at 1).
pub fn access_stats(log: &Path, client_ms: &[f64]) -> AccessStats {
    let text = std::fs::read_to_string(log).unwrap_or_default();
    let mut attributed: BTreeMap<String, (f64, f64)> = BTreeMap::new();
    let (mut queue, mut client, mut matched) = (0.0, 0.0, 0usize);
    let (mut reads, mut same) = (0usize, 0usize);
    let mut last_read_epoch: Option<u64> = None;
    for line in text.lines() {
        let Ok(v) = Json::parse(line) else { continue };
        if v.get("kind").and_then(Json::str) != Some("pde-access") {
            continue;
        }
        let op = v.get("op").and_then(Json::str).unwrap_or("?").to_owned();
        let total = v.get("total_ns").and_then(Json::num).unwrap_or(0.0);
        let inner = v.get("chase_ns").and_then(Json::num).unwrap_or(0.0)
            + v.get("solve_ns").and_then(Json::num).unwrap_or(0.0);
        let e = attributed.entry(op.clone()).or_default();
        e.0 += inner;
        e.1 += total;
        let id = v.get("id").and_then(Json::num).unwrap_or(0.0) as usize;
        if let Some(&c) = id.checked_sub(1).and_then(|i| client_ms.get(i)) {
            queue += (c - total / 1e6).max(0.0);
            client += c;
            matched += 1;
        }
        if op == "solve" || op == "certain" {
            let epoch = v.get("epoch").and_then(Json::num).unwrap_or(0.0) as u64;
            if last_read_epoch.is_some() {
                reads += 1;
                if last_read_epoch == Some(epoch) {
                    same += 1;
                }
            }
            last_read_epoch = Some(epoch);
        }
    }
    AccessStats {
        unattributed: attributed
            .into_iter()
            .map(|(k, (inner, total))| {
                (
                    k,
                    if total > 0.0 {
                        1.0 - inner / total
                    } else {
                        0.0
                    },
                )
            })
            .collect(),
        queue_frac: if client > 0.0 { queue / client } else { 0.0 },
        queue_ms: if matched > 0 {
            queue / matched as f64
        } else {
            0.0
        },
        same_epoch_frac: if reads > 0 {
            same as f64 / reads as f64
        } else {
            0.0
        },
    }
}

/// The serve metrics of the per-layer set (zero on batch workloads, which
/// have no server).
pub fn serve_metrics(a: Option<&AccessStats>) -> Vec<Metric> {
    let un = |op: &str| {
        a.and_then(|a| a.unattributed.get(op).copied())
            .unwrap_or(0.0)
    };
    vec![
        Metric::new("serve.unattributed_frac.solve", un("solve"), "ratio"),
        Metric::new("serve.unattributed_frac.certain", un("certain"), "ratio"),
        Metric::new("serve.unattributed_frac.insert", un("insert"), "ratio"),
        Metric::new("serve.queue_frac", a.map_or(0.0, |a| a.queue_frac), "ratio"),
        Metric::new(
            "serve.same_epoch_frac",
            a.map_or(0.0, |a| a.same_epoch_frac),
            "ratio",
        ),
    ]
}

/// Output of a traced run.
pub struct TraceOutput {
    /// Layer totals and counts.
    pub layers: Layers,
    /// Serve access-log statistics (serve workloads).
    pub access: Option<AccessStats>,
    /// Store bytes per live fact at the end of the real session.
    pub store_bytes_per_fact: f64,
    /// The real session's store fsyncs per fact committed.
    pub fsyncs_per_fact: f64,
}

/// Traced run of a batch workload: per operation, the `pde` child, then
/// the untraced and traced replay children (alternating which goes first).
pub fn run_batch(ctx: &Ctx, gen: fn(u64) -> BatchInputs) -> Result<TraceOutput, String> {
    let inputs = gen(ctx.seed);
    for (i, text) in inputs.bundles.iter().enumerate() {
        std::fs::write(batch::bundle_path(ctx, i), text).map_err(|e| e.to_string())?;
    }
    let mut layers = Layers::default();
    let start = Instant::now();
    let mut i = 0;
    while start.elapsed().as_secs_f64() < ctx.seconds || i % inputs.ops.len() != 0 {
        let op = &inputs.ops[i % inputs.ops.len()];
        let (cli, _, _) = batch::run_op(ctx, op, batch::command(ctx, op), OP_DEADLINE)?;
        let spec = |traced| Spec {
            traced,
            kind: op.kind.to_owned(),
            bundle: batch::bundle_path(ctx, op.bundle).display().to_string(),
            query: op.query.unwrap_or("").to_owned(),
            ..Spec::default()
        };
        let (plain, traced) = if i % 2 == 0 {
            let p = replay(ctx, &spec(false), OP_DEADLINE)?;
            (p, replay(ctx, &spec(true), OP_DEADLINE)?)
        } else {
            let t = replay(ctx, &spec(true), OP_DEADLINE)?;
            (replay(ctx, &spec(false), OP_DEADLINE)?, t)
        };
        layers.add(&traced, |a| a.layer.clone());
        layers.ops += 1;
        let outcome = match traced.ops.first() {
            Some(o) => replay_answer(&o.answer).and_then(|a| check(&op.expect, &a)),
            None => Err(Failure::Ended(traced.exit.end.describe())),
        };
        if let Err(f) = outcome {
            layers.failed += 1;
            layers.wrong += usize::from(f.is_wrong());
            layers.notes.push(format!(
                "op {i} {} on b{} ({} facts): traced replay failed: {f}",
                op.kind, op.bundle, inputs.facts[op.bundle]
            ));
        }
        if let (Some(p), Some(t)) = (plain.ops.first(), traced.ops.first()) {
            layers.plain_ns += p.wall_ns;
            layers.traced_ns += t.wall_ns;
            if cli.failure.is_none() {
                layers.cli_ns += (cli.ms * 1e6) as u64;
                layers.cli_plain_ns += p.wall_ns;
            }
        }
        i += 1;
    }
    Ok(TraceOutput {
        layers,
        access: None,
        store_bytes_per_fact: 0.0,
        fsyncs_per_fact: 0.0,
    })
}

/// Check a replayed session's answers against the model, request by
/// request, and count the traced operations.
fn check_session(layers: &mut Layers, r: &Replay, requests: &[Request], model: &GenomicsModel) {
    let mut model = model.clone();
    let by_op: HashMap<u64, &Json> = r.ops.iter().map(|o| (o.op, &o.answer)).collect();
    for (i, req) in requests.iter().enumerate() {
        layers.ops += 1;
        let response = by_op
            .get(&(i as u64 + 1))
            .and_then(|a| a.get("response"))
            .and_then(Json::str);
        let outcome = match response {
            Some(line) => serve_answer(req, line).and_then(|a| check_serve(req, &a, &model, None)),
            None => Err(Failure::Ended(format!(
                "replay child ended ({}) first",
                r.exit.end.describe()
            ))),
        };
        match outcome {
            Ok(()) => req.apply(&mut model),
            Err(f) => {
                layers.failed += 1;
                layers.wrong += usize::from(f.is_wrong());
                if layers.failed <= 3 {
                    layers
                        .notes
                        .push(format!("replayed request {} {}: {f}", i + 1, req.kind()));
                }
            }
        }
    }
}

/// Sum of in-process wall ns over the requests every replay finished; the
/// untraced time is the mean of the two untraced replays.
fn matched_walls(layers: &mut Layers, plain: [&Replay; 2], traced: &Replay) {
    let walls = |r: &Replay| -> HashMap<u64, u64> { r.ops.iter().map(|o| (o.op, o.wall_ns)).collect() };
    let (a, b) = (walls(plain[0]), walls(plain[1]));
    for o in &traced.ops {
        if let (Some(pa), Some(pb)) = (a.get(&o.op), b.get(&o.op)) {
            layers.traced_ns += o.wall_ns;
            layers.plain_ns += (pa + pb) / 2;
        }
    }
}

/// Traced run of a serve workload: a real `pde serve` session with an
/// access log, then untraced, traced and untraced in-process replays of
/// the same requests, each on its own seeded store (the stores of the
/// first three set-ups), then a replayed reopen of each finished store.
pub fn run_serve(ctx: &Ctx, ingest: bool) -> Result<TraceOutput, String> {
    let log = ctx.work.join("access.jsonl");
    let mut setup = serve::setup(ctx, Some(&log))?;
    let mut out = crate::RunOutput::default();
    let requests: Vec<Request> = if ingest {
        let store = setup.stores[SETUPS - 1].clone();
        let server = setup.server.take().expect("set-up leaves a running server");
        out.store_bytes_per_fact = Some(serve::ingest_session(
            ctx, &setup, &store, server, &mut out,
        )?);
        let mut r = gen::ingest_requests(ctx.seed);
        r.push(Request::Solve);
        r
    } else {
        let n = serve::query_session(ctx, &mut setup, ctx.seconds / 4.0, &mut out)?;
        (0..n).map(|i| gen::query_request(ctx.seed, i)).collect()
    };
    // Client latencies in request order, which is id order.
    let client_ms: Vec<f64> = out
        .ops
        .iter()
        .filter(|o| o.kind != "restart")
        .map(|o| o.ms)
        .collect();
    let access = access_stats(&log, &client_ms);
    let req_path = ctx.work.join("requests.jsonl");
    let lines: String = requests.iter().map(|r| r.line() + "\n").collect();
    std::fs::write(&req_path, lines).map_err(|e| e.to_string())?;
    let mut layers = Layers::default();
    layers.notes.extend(out.notes.iter().cloned());
    let spec = |traced: bool, store: &Path, kind: &str| Spec {
        traced,
        kind: kind.to_owned(),
        bundle: setup.bundle.display().to_string(),
        store: store.display().to_string(),
        requests: req_path.display().to_string(),
        ..Spec::default()
    };
    // Untraced replays on either side of the traced one, so a drift in
    // machine speed does not read as tracing overhead.
    for kind in ["session", "reopen"] {
        let before = replay(ctx, &spec(false, &setup.stores[0], kind), SESSION_DEADLINE)?;
        let traced = replay(ctx, &spec(true, &setup.stores[1], kind), SESSION_DEADLINE)?;
        let after = replay(ctx, &spec(false, &setup.stores[2], kind), SESSION_DEADLINE)?;
        layers.add(&traced, |a| match a.name.as_str() {
            // A request's kind decides its layer.
            "serve.request" => requests
                .get(a.op as usize - 1)
                .map_or("serve.other", |r| request_layer(r.kind()).0)
                .to_owned(),
            _ => a.layer.clone(),
        });
        if kind == "session" {
            check_session(&mut layers, &traced, &requests, &setup.model);
        } else {
            layers.ops += 1;
            if !matches!(traced.exit.end, End::Code(0)) {
                layers.failed += 1;
            }
        }
        matched_walls(&mut layers, [&before, &after], &traced);
    }
    Ok(TraceOutput {
        layers,
        access: Some(access),
        store_bytes_per_fact: out.store_bytes_per_fact.unwrap_or(0.0),
        fsyncs_per_fact: out.fsyncs_per_fact.unwrap_or(0.0),
    })
}
