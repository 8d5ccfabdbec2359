//! The serve workloads: one `pde serve` child per session, driven over its
//! stdin/stdout by one client.

use crate::gen::{self, GenomicsModel, Request};
use crate::json::Json;
use crate::oracle::{check_serve, serve_answer, Failure};
use crate::proc::{self, Exit, Running};
use crate::stats::OpRecord;
use crate::{Ctx, RunOutput, OP_DEADLINE, SETUPS};
use pde_relational::{Instance, Value};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::process::{ChildStdin, Stdio};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::time::{Duration, Instant};

/// Requests `serve_ingest` keeps in flight.
pub const INGEST_WINDOW: usize = 16;

/// A running `pde serve` child.
pub struct Server {
    running: Running,
    stdin: Option<BufWriter<ChildStdin>>,
    lines: Receiver<(Option<String>, Instant)>,
    reader: Option<std::thread::JoinHandle<()>>,
    /// The parsed hello line.
    pub hello: Json,
    /// Spawn to hello line, in milliseconds.
    pub hello_ms: f64,
}

impl Server {
    /// Spawn `pde serve <bundle> <store>` and wait for its hello line.
    pub fn spawn(
        ctx: &Ctx,
        bundle: &Path,
        store: &Path,
        access_log: Option<&Path>,
    ) -> Result<Server, String> {
        let stderr = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(ctx.work.join("serve.stderr"))
            .map_err(|e| e.to_string())?;
        let mut c = ctx.command(&ctx.pde);
        c.cmd.arg("serve").arg(bundle).arg(store);
        if let Some(log) = access_log {
            c.cmd.arg("--access-log").arg(log);
        }
        c.cmd
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(stderr);
        let start = Instant::now();
        let (running, mut child) = proc::spawn(c).map_err(|e| e.to_string())?;
        let stdout = child.stdout.take().expect("piped stdout");
        let stdin = child.stdin.take().expect("piped stdin");
        let (tx, rx) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if tx.send((Some(line), Instant::now())).is_err() {
                    return;
                }
            }
            let _ = tx.send((None, Instant::now()));
        });
        let mut server = Server {
            running,
            stdin: Some(BufWriter::new(stdin)),
            lines: rx,
            reader: Some(reader),
            hello: Json::Null,
            hello_ms: 0.0,
        };
        match server.recv(start + OP_DEADLINE) {
            Ok((line, at)) => {
                let hello = Json::parse(&line).map_err(|e| format!("hello: {e}"))?;
                if hello.get("kind").and_then(Json::str) != Some("pde-serve-hello") {
                    server.kill();
                    return Err(format!("unexpected first line: {line}"));
                }
                server.hello = hello;
                server.hello_ms = at.duration_since(start).as_secs_f64() * 1e3;
                Ok(server)
            }
            Err(f) => {
                server.kill();
                Err(format!("pde serve gave no hello line: {f}"))
            }
        }
    }

    /// Write one request line; returns when it was sent.
    pub fn send(&mut self, line: &str) -> Result<Instant, Failure> {
        let w = self
            .stdin
            .as_mut()
            .ok_or(Failure::Ended("stdin closed".into()))?;
        let at = Instant::now();
        writeln!(w, "{line}")
            .and_then(|()| w.flush())
            .map_err(|e| Failure::Ended(format!("write: {e}")))?;
        Ok(at)
    }

    /// The next response line and when it arrived.
    pub fn recv(&mut self, deadline: Instant) -> Result<(String, Instant), Failure> {
        let wait = deadline.saturating_duration_since(Instant::now());
        match self.lines.recv_timeout(wait) {
            Ok((Some(line), at)) => Ok((line, at)),
            Ok((None, _)) | Err(RecvTimeoutError::Disconnected) => {
                let end = self
                    .running
                    .wait_until(Instant::now() + Duration::from_secs(5))
                    .end;
                Err(Failure::Ended(format!(
                    "EOF from server ({})",
                    end.describe()
                )))
            }
            Err(RecvTimeoutError::Timeout) => Err(Failure::Ended("deadline".into())),
        }
    }

    /// Has the child died?
    pub fn dead(&mut self) -> bool {
        self.running.try_exit().is_some()
    }

    /// The store's fsyncs per fact committed by this server, from its
    /// `stats` counters: one `fdatasync` per commit and three per
    /// snapshot (the snapshot file, its directory and the reset journal),
    /// over the facts committed after the seeding commit.
    pub fn fsyncs_per_fact(&mut self) -> Option<f64> {
        let sent = self.send(r#"{"op":"stats"}"#).ok()?;
        let (line, _) = self.recv(sent + OP_DEADLINE).ok()?;
        let v = Json::parse(&line).ok()?;
        let counters = v.get("metrics")?.get("counters")?;
        let n = |k: &str| counters.get(k).and_then(Json::num).unwrap_or(0.0);
        let seeded = self.hello.get("seeded").and_then(Json::num).unwrap_or(0.0);
        let commits = n("store.commits") - f64::from(u8::from(seeded > 0.0));
        let facts = n("store.ops_committed") - seeded;
        let fsyncs = commits + 3.0 * n("store.snapshots_written");
        (facts > 0.0).then(|| fsyncs / facts)
    }

    /// Ask the server to shut down and reap it.
    pub fn shutdown(mut self) -> Exit {
        if self.send(r#"{"op":"shutdown"}"#).is_ok() {
            let _ = self.recv(Instant::now() + OP_DEADLINE);
        }
        self.stdin = None;
        let exit = self.running.wait_until(Instant::now() + OP_DEADLINE);
        self.join_reader();
        exit
    }

    /// Kill and reap the server.
    pub fn kill(mut self) -> Exit {
        self.stdin = None;
        let exit = self.running.kill();
        self.join_reader();
        exit
    }

    /// The child has ended, so its stdout is closed and the reader done.
    fn join_reader(&mut self) {
        if let Some(h) = self.reader.take() {
            h.join().expect("the stdout reader does not panic");
        }
    }
}

impl Drop for Server {
    /// A server dropped on an error path is killed, not left running.
    fn drop(&mut self) {
        self.stdin = None;
        if self.running.try_exit().is_none() {
            self.running.kill();
        }
    }
}

/// Bytes of the store directory's snapshot and journal.
pub fn store_bytes(store: &Path) -> u64 {
    [pde_store::SNAPSHOT_FILE, pde_store::JOURNAL_FILE]
        .iter()
        .filter_map(|f| std::fs::metadata(store.join(f)).ok())
        .map(|m| m.len())
        .sum()
}

/// The serve base bundle and its model, plus [`SETUPS`] freshly seeded
/// stores: each set-up generates the base, writes it, and spawns
/// `pde serve` on an empty store directory up to its hello line. The last
/// set-up's server is returned running; the others are shut down.
pub struct ServeSetup {
    /// Path of the base bundle.
    pub bundle: PathBuf,
    /// The base's source facts.
    pub model: GenomicsModel,
    /// Seeded store directories, one per set-up.
    pub stores: Vec<PathBuf>,
    /// Facts the seeded base holds.
    pub base_facts: usize,
    /// Set-up durations in seconds.
    pub times: Vec<f64>,
    /// The last set-up's server, still running until a session takes it.
    pub server: Option<Server>,
}

/// Run the serve set-up (see [`ServeSetup`]).
pub fn setup(ctx: &Ctx, access_log: Option<&Path>) -> Result<ServeSetup, String> {
    let bundle = ctx.work.join("base.pde");
    let mut times = Vec::new();
    let mut stores = Vec::new();
    let mut first: Option<(String, GenomicsModel)> = None;
    let mut last = None;
    for k in 0..SETUPS {
        let start = Instant::now();
        let (text, model) = gen::serve_base(ctx.seed);
        std::fs::write(&bundle, &text).map_err(|e| e.to_string())?;
        let store = ctx.work.join(format!("store{k}"));
        let log = if k + 1 == SETUPS { access_log } else { None };
        let server = Server::spawn(ctx, &bundle, &store, log)?;
        times.push(start.elapsed().as_secs_f64());
        stores.push(store);
        match &first {
            Some(f) if f.0 != text => return Err("input generation is not deterministic".into()),
            Some(_) => {}
            None => first = Some((text, model)),
        }
        if k + 1 == SETUPS {
            last = Some(server);
        } else {
            server.shutdown();
        }
    }
    let server = last.expect("at least one set-up");
    let base_facts = server.hello.get("facts").and_then(Json::num).unwrap_or(0.0) as usize;
    let (_, model) = first.expect("at least one set-up");
    Ok(ServeSetup {
        bundle,
        model,
        stores,
        base_facts,
        times,
        server: Some(server),
    })
}

/// Record a failed request (at the deadline, as every failure is).
fn failed(kind: &'static str, f: Failure) -> OpRecord {
    OpRecord {
        kind,
        ms: OP_DEADLINE.as_secs_f64() * 1e3,
        failure: Some(f),
    }
}

/// A client-observed request record: the response checked by the oracle,
/// or the failure.
fn record(
    req: &Request,
    reply: Result<(String, Instant), Failure>,
    sent: Instant,
    model: &mut GenomicsModel,
    pending: &mut Option<GenomicsModel>,
) -> OpRecord {
    let outcome = reply.and_then(|(line, at)| {
        let answer = serve_answer(req, &line)?;
        check_serve(req, &answer, model, pending.as_ref())?;
        Ok(at)
    });
    match outcome {
        Ok(at) => {
            req.apply(model);
            *pending = None;
            OpRecord {
                kind: req.kind(),
                ms: at.duration_since(sent).as_secs_f64() * 1e3,
                failure: None,
            }
        }
        Err(f) => {
            if matches!(req, Request::Insert(..)) && !f.is_wrong() {
                let mut p = model.clone();
                req.apply(&mut p);
                *pending = Some(p);
            }
            failed(req.kind(), f)
        }
    }
}

/// Restart a dead or stuck server on the same store, as an operator would.
fn restart(
    ctx: &Ctx,
    setup: &ServeSetup,
    store: &Path,
    old: Server,
    out: &mut RunOutput,
) -> Result<Server, String> {
    let exit = old.kill();
    out.rss_kib.push(exit.maxrss_kib);
    out.notes
        .push(format!("server ended ({}); restarted", exit.end.describe()));
    Server::spawn(ctx, &setup.bundle, store, None)
}

/// The `serve_query` client: a closed loop of [`gen::query_request`]s,
/// ending on a whole block of ten once `seconds` are spent; then the
/// server is shut down and restarted on the finished store (see
/// [`restart_check`]). Returns the number of requests sent.
pub fn query_session(
    ctx: &Ctx,
    setup: &mut ServeSetup,
    seconds: f64,
    out: &mut RunOutput,
) -> Result<usize, String> {
    let store = setup.stores[SETUPS - 1].clone();
    let mut server = setup.server.take().expect("set-up leaves a running server");
    let mut model = setup.model.clone();
    let mut pending = None;
    let mut acknowledged = Vec::new();
    let start = Instant::now();
    let mut i = 0;
    while start.elapsed().as_secs_f64() < seconds || i % 10 != 0 {
        let req = gen::query_request(ctx.seed, i);
        i += 1;
        let rec = match server.send(&req.line()) {
            Ok(sent) => {
                let reply = server.recv(sent + OP_DEADLINE);
                record(&req, reply, sent, &mut model, &mut pending)
            }
            Err(f) => failed(req.kind(), f),
        };
        if let Some(f) = &rec.failure {
            out.notes
                .push(format!("request {i} {} failed: {f}", req.kind()));
            if !f.is_wrong() {
                server = restart(ctx, setup, &store, server, out)?;
            }
        } else if matches!(req, Request::Insert(..)) {
            acknowledged.push(req);
        }
        out.ops.push(rec);
    }
    out.timed_s = start.elapsed().as_secs_f64();
    out.fsyncs_per_fact = server.fsyncs_per_fact();
    out.rss_kib.push(server.shutdown().maxrss_kib);
    let live = live_facts(setup, &model);
    out.store_bytes_per_fact = Some(store_bytes(&store) as f64 / live.max(1) as f64);
    restart_check(ctx, setup, &store, &acknowledged, live, out);
    Ok(i)
}

/// One `serve_ingest` session on `server` (already running on `store`):
/// pipelined inserts with periodic snapshots, the closing `solve`, then a
/// restart on the finished store and a durability check of every
/// acknowledged insert. Returns store bytes per live fact at session end.
pub fn ingest_session(
    ctx: &Ctx,
    setup: &ServeSetup,
    store: &Path,
    mut server: Server,
    out: &mut RunOutput,
) -> Result<f64, String> {
    let requests = gen::ingest_requests(ctx.seed);
    let mut model = setup.model.clone();
    let mut pending = None;
    let mut acknowledged = Vec::new();
    let mut inflight: VecDeque<(&Request, Instant)> = VecDeque::new();
    let mut next = 0;
    let started = Instant::now();
    while next < requests.len() || !inflight.is_empty() {
        if next < requests.len() && inflight.len() < INGEST_WINDOW {
            let req = &requests[next];
            next += 1;
            match server.send(&req.line()) {
                Ok(sent) => inflight.push_back((req, sent)),
                Err(f) => out.ops.push(failed(req.kind(), f)),
            }
            continue;
        }
        let (req, sent) = inflight.pop_front().expect("window is not empty");
        let reply = server.recv(sent + OP_DEADLINE);
        let dead = reply.is_err();
        let rec = record(req, reply, sent, &mut model, &mut pending);
        if rec.failure.is_none() && matches!(req, Request::Insert(..)) {
            acknowledged.push(req.clone());
        }
        out.ops.push(rec);
        if dead {
            // Everything still in flight died with the server.
            for (r, _) in inflight.drain(..) {
                out.ops
                    .push(failed(r.kind(), Failure::Ended("server died".into())));
            }
            out.notes
                .push(format!("ingest: server died at request {next}"));
            server = restart(ctx, setup, store, server, out)?;
        }
    }
    out.notes.push(format!(
        "ingest: {} requests answered in {:.3} s",
        requests.len(),
        started.elapsed().as_secs_f64()
    ));
    // The closing solve, as a sync round does.
    let solve = Request::Solve;
    let rec = match server.send(&solve.line()) {
        Ok(sent) => {
            let reply = server.recv(sent + OP_DEADLINE);
            record(&solve, reply, sent, &mut model, &mut pending)
        }
        Err(f) => failed("solve", f),
    };
    if let Some(f) = &rec.failure {
        out.notes.push(format!("ingest: closing solve failed: {f}"));
    }
    let closing_failed = rec.failure.is_some();
    out.ops.push(rec);
    let exit = if closing_failed && server.dead() {
        server.kill()
    } else {
        out.fsyncs_per_fact = server.fsyncs_per_fact();
        server.shutdown()
    };
    out.rss_kib.push(exit.maxrss_kib);

    let live = live_facts(setup, &model);
    let bytes_per_fact = store_bytes(store) as f64 / live.max(1) as f64;
    restart_check(ctx, setup, store, &acknowledged, live, out);
    Ok(bytes_per_fact)
}

/// Facts in the base once the model's acknowledged inserts are in.
fn live_facts(setup: &ServeSetup, model: &GenomicsModel) -> usize {
    setup.base_facts + model.proteins.len() + model.annotations.len()
        - setup.model.proteins.len()
        - setup.model.annotations.len()
}

/// Restart `pde serve` on a finished store (an operation of kind
/// `restart`): time spawn to hello line, check the recovered fact count,
/// then reopen the store in-process and confirm every acknowledged insert
/// is there. Returns the restart time when the server came up.
fn restart_check(
    ctx: &Ctx,
    setup: &ServeSetup,
    store: &Path,
    acknowledged: &[Request],
    live: usize,
    out: &mut RunOutput,
) -> Option<f64> {
    let server = match Server::spawn(ctx, &setup.bundle, store, None) {
        Ok(s) => s,
        Err(e) => {
            out.ops.push(failed("restart", Failure::Ended(e)));
            return None;
        }
    };
    let ms = server.hello_ms;
    let facts = server.hello.get("facts").and_then(Json::num).unwrap_or(0.0) as usize;
    server.shutdown();
    let rec = match durable(store, acknowledged) {
        Ok(()) if facts == live => OpRecord {
            kind: "restart",
            ms,
            failure: None,
        },
        Ok(()) => failed(
            "restart",
            Failure::Wrong(format!("restart reports {facts} facts, expected {live}")),
        ),
        Err(f) => failed("restart", f),
    };
    if let Some(f) = &rec.failure {
        out.notes.push(format!("restart check failed: {f}"));
    }
    out.ops.push(rec);
    out.restart_ms.push(ms);
    Some(ms)
}

/// Open the store in-process and confirm every acknowledged insert is in
/// the recovered base.
pub fn durable(store: &Path, acknowledged: &[Request]) -> Result<(), Failure> {
    let schema = pde_workloads::genomics::genomics_setting().schema().clone();
    let (_, base, report) = pde_store::InstanceStore::open(store, schema)
        .map_err(|e| Failure::Ended(format!("reopen store: {e}")))?;
    if report.rewound() {
        return Err(Failure::Wrong("recovery rewound the journal".into()));
    }
    for req in acknowledged {
        if let Some(missing) = missing_fact(&base, req) {
            return Err(Failure::Wrong(format!(
                "acknowledged insert lost: {missing}"
            )));
        }
    }
    Ok(())
}

fn missing_fact(base: &Instance, req: &Request) -> Option<String> {
    let Request::Insert(acc, org, gos) = req else {
        return None;
    };
    let schema = base.schema();
    let c = |s: &str| Value::constant(s);
    let spp = schema.rel_id("sp_protein").expect("genomics schema");
    let spa = schema.rel_id("sp_annotation").expect("genomics schema");
    let protein = pde_relational::Tuple::new(vec![c(acc), c(&format!("name{acc}")), c(org)]);
    if !base.contains(spp, &protein) {
        return Some(format!("sp_protein{protein}"));
    }
    gos.iter().find_map(|g| {
        let t = pde_relational::Tuple::new(vec![c(acc), c(g)]);
        (!base.contains(spa, &t)).then(|| format!("sp_annotation{t}"))
    })
}

/// The untraced `serve_query` run.
pub fn run_query(ctx: &Ctx) -> Result<RunOutput, String> {
    let mut setup = setup(ctx, None)?;
    let mut out = RunOutput {
        setup_s: setup.times.clone(),
        ..RunOutput::default()
    };
    query_session(ctx, &mut setup, ctx.seconds, &mut out)?;
    Ok(out)
}

/// The untraced `serve_ingest` run: sessions back to back until the
/// measuring time is spent. The first runs on the last set-up's server;
/// later ones restart on the other seeded stores, then on fresh ones.
pub fn run_ingest(ctx: &Ctx) -> Result<RunOutput, String> {
    let mut setup = setup(ctx, None)?;
    let mut out = RunOutput {
        setup_s: setup.times.clone(),
        ..RunOutput::default()
    };
    let start = Instant::now();
    let mut session = 0;
    let mut bytes = Vec::new();
    while session == 0 || start.elapsed().as_secs_f64() < ctx.seconds {
        let (store, server) = if session == 0 {
            (
                setup.stores[SETUPS - 1].clone(),
                setup.server.take().expect("set-up leaves a running server"),
            )
        } else if session < SETUPS {
            let store = setup.stores[session - 1].clone();
            (
                store.clone(),
                Server::spawn(ctx, &setup.bundle, &store, None)?,
            )
        } else {
            let store = ctx.work.join(format!("store{}", session + SETUPS));
            (
                store.clone(),
                Server::spawn(ctx, &setup.bundle, &store, None)?,
            )
        };
        let first = out.ops.len();
        let began = Instant::now();
        bytes.push(ingest_session(ctx, &setup, &store, server, &mut out)?);
        out.sessions.push((first, began.elapsed().as_secs_f64()));
        session += 1;
    }
    out.timed_s = start.elapsed().as_secs_f64();
    out.store_bytes_per_fact = Some(crate::stats::median(&bytes));
    out.notes.push(format!("ingest sessions: {session}"));
    Ok(out)
}
