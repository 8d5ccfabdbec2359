//! The in-process replay child: the operations the `pde` binary runs,
//! made of the program's public entry points called in the order its
//! commands call them, with a span from benchmark code around each call.
//!
//! * Batch `solve` and `certain` follow `pde solve` / `pde certain`:
//!   `Bundle::parse_with_warnings`, then lint, optimizer, planner and
//!   schedule, then `decide_governed_scheduled` (plus the
//!   `exists_solution` explanation of a no answer) or `certain_answers`.
//! * A `session` runs the program's own serve loop
//!   (`peer_data_exchange::serve::serve`) over a file of request lines.
//! * `reopen` is `InstanceStore::open` on a finished store.
//!
//! Finer layers come from the program's own `pde-trace` spans: in traced
//! mode a [`LayerSink`] is installed and folds each closing span into the
//! benchmark span (or serve request) it ran under. The parent runs one
//! child per batch operation or serve session, so an abort kills only the
//! child and is charged to the benchmark span that was open. The child's
//! stdout carries:
//!
//! * `pdebench-open` / `pdebench-close` markers as benchmark spans open
//!   and close (traced mode only), so the parent can attribute an abort;
//! * the benchmark spans in `pde-trace`'s record schema
//!   ([`SpanRecord::to_json`]), kept in memory and written when each
//!   operation ends; their `fields` carry `op`, `parent`, `start_ns`,
//!   `layer` and the nanoseconds of each program layer inside them;
//! * one `pdebench-op` line per operation with its answer, in-process wall
//!   time, per-layer nanoseconds and counts (both modes).

use crate::proc::mono_ns;
use pde_analysis::{analyze_setting, forward_schedule, optimize_setting, plan_setting};
use pde_core::{certain_answers, decide_governed_scheduled, Bundle, SolverKind};
use pde_relational::parse_query;
use pde_runtime::{Governor, GovernorConfig};
use pde_store::InstanceStore;
use pde_trace::{json_escape, FieldValue, Sink, SpanRecord};
use peer_data_exchange::serve::{serve, ServeOptions};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::ThreadId;

/// Nanoseconds per layer.
type LayerNs = BTreeMap<&'static str, u64>;

/// Counts attached to an operation.
type Counts = BTreeMap<&'static str, u64>;

/// Program spans folded while one benchmark span (or serve request) is
/// open.
#[derive(Default)]
struct Fold {
    /// Layer time of program spans, each with the unlayered spans nested
    /// in it.
    layers: LayerNs,
    /// Time of each chase run (a run's rounds count from 1), in order.
    runs: Vec<u64>,
    /// Layered time recorded on the replay's main thread.
    main_ns: u64,
    /// Layered time recorded on worker threads (parallel block checks).
    worker_ns: u64,
    /// Counts read off the spans' fields.
    counts: Counts,
    /// Maxima read off the spans' fields.
    maxes: Counts,
}

impl Fold {
    /// Charge a scope of `dur_ns` whose own time goes to `layer`. An
    /// absorbing scope takes everything that ran inside it; otherwise the
    /// program layers keep their time, the last chase run of the scope is
    /// the Σts chase and every earlier one a Σst chase (the order of
    /// ExistsSolution's steps 1 and 2), and what is left is the scope's
    /// own. The main thread waits while worker threads search blocks, so
    /// their time is taken off the scope's own time rather than counted
    /// twice.
    fn resolve(self, dur_ns: u64, layer: &'static str, absorbing: bool) -> LayerNs {
        if absorbing {
            return BTreeMap::from([(layer, dur_ns)]);
        }
        let mut out = self.layers;
        if let Some((ts, st)) = self.runs.split_last() {
            *out.entry("chase.ts").or_default() += ts;
            *out.entry("chase.st").or_default() += st.iter().sum::<u64>();
        }
        let own = dur_ns.saturating_sub(self.main_ns + self.worker_ns);
        *out.entry(layer).or_default() += own;
        out
    }
}

/// What a closed program span is charged to.
enum Charge {
    Layer(&'static str),
    ChaseRound(u64),
    /// `serve.request`: ends the request's scope.
    Request,
}

fn num(r: &SpanRecord, key: &str) -> u64 {
    r.fields
        .iter()
        .find_map(|(k, v)| match v {
            FieldValue::U64(n) if *k == key => Some(*n),
            _ => None,
        })
        .unwrap_or(0)
}

fn text<'a>(r: &'a SpanRecord, key: &str) -> &'a str {
    r.fields
        .iter()
        .find_map(|(k, v)| match v {
            FieldValue::Str(s) if *k == key => Some(s.as_str()),
            _ => None,
        })
        .unwrap_or("")
}

/// The program spans that start a layer; every other program span is
/// charged to the nearest enclosing one (or to the benchmark span).
fn charge(r: &SpanRecord) -> Option<Charge> {
    Some(match r.name {
        "blocks.decompose" => Charge::Layer("core.blocks"),
        "block.hom_search" if num(r, "nulls") == 0 => Charge::Layer("relational.ground_hom"),
        "block.hom_search" => Charge::Layer("relational.block_hom"),
        "chase.round" => Charge::ChaseRound(num(r, "round")),
        "store.commit" => Charge::Layer("store.commit"),
        "serve.request" => Charge::Request,
        _ => return None,
    })
}

/// Marker sequence numbers of serve requests start here, above the
/// benchmark spans'.
pub const REQUEST_SEQ: u64 = 1 << 32;

/// The layer of a serve request's own time, and whether it takes
/// everything inside it.
pub fn request_layer(op: &str) -> (&'static str, bool) {
    match op {
        "solve" => ("core.solve", false),
        "certain" => ("core.certain", true),
        "insert" | "retract" => ("serve.apply", false),
        "snapshot" => ("store.checkpoint", false),
        _ => ("serve.other", false),
    }
}

/// The fold of the open scope, and the finished serve requests.
static FOLD: Mutex<Option<Fold>> = Mutex::new(None);
static REQUESTS: Mutex<Vec<(u64, LayerNs, Counts, Counts)>> = Mutex::new(Vec::new());
static MAIN: OnceLock<ThreadId> = OnceLock::new();

thread_local! {
    /// Closed unlayered spans of this thread not yet claimed by an
    /// enclosing span: (end, ns).
    static PENDING: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
}

/// Folds the program's spans into layers. A span closes after every span
/// nested in it on its thread, so when it closes, the pending spans that
/// ended after it started are its descendants.
struct LayerSink;

impl Sink for LayerSink {
    fn record(&self, r: &SpanRecord) {
        let now = mono_ns();
        let start = now.saturating_sub(r.dur_ns);
        let claimed = PENDING.with(|p| {
            let mut p = p.borrow_mut();
            let mut ns = 0;
            while p.last().is_some_and(|&(end, _)| end > start) {
                ns += p.pop().expect("checked").1;
            }
            ns
        });
        let ns = r.self_ns + claimed;
        let Some(c) = charge(r) else {
            PENDING.with(|p| p.borrow_mut().push((now, ns)));
            return;
        };
        let mut guard = FOLD.lock().expect("fold lock");
        let fold = guard.get_or_insert_with(Fold::default);
        if let Charge::Request = c {
            let fold = std::mem::take(fold);
            drop(guard);
            let (layer, absorbing) = request_layer(text(r, "op"));
            let (counts, maxes) = (fold.counts.clone(), fold.maxes.clone());
            let layers = fold.resolve(r.dur_ns, layer, absorbing);
            REQUESTS.lock().expect("requests lock").push((
                num(r, "id"),
                layers,
                counts,
                maxes,
            ));
            PENDING.with(|p| p.borrow_mut().clear());
            return;
        }
        if MAIN.get() == Some(&std::thread::current().id()) {
            fold.main_ns += ns;
        } else {
            fold.worker_ns += ns;
        }
        match c {
            Charge::Layer(l) => *fold.layers.entry(l).or_default() += ns,
            Charge::ChaseRound(round) => {
                if round <= 1 || fold.runs.is_empty() {
                    fold.runs.push(0);
                }
                *fold.runs.last_mut().expect("pushed") += ns;
                *fold.counts.entry("chase_rounds").or_default() += 1;
            }
            Charge::Request => unreachable!("handled above"),
        }
        match r.name {
            "blocks.decompose" => {
                *fold.counts.entry("decompositions").or_default() += 1;
                *fold.counts.entry("blocks").or_default() += num(r, "blocks");
            }
            "block.hom_search" if num(r, "nulls") == 0 => {
                *fold.counts.entry("ground_searches").or_default() += 1;
                *fold.counts.entry("ground_block_facts").or_default() += num(r, "facts");
            }
            "block.hom_search" => {
                let m = fold.maxes.entry("max_block_nulls").or_default();
                *m = (*m).max(num(r, "nulls"));
            }
            "store.commit" => {
                *fold.counts.entry("commits").or_default() += 1;
                *fold.counts.entry("commit_ops").or_default() += num(r, "ops");
            }
            _ => {}
        }
    }
}

/// Take the open scope's fold, dropping this thread's unclaimed spans
/// (they ran directly under the scope, whose own time covers them).
fn take_fold() -> Fold {
    PENDING.with(|p| p.borrow_mut().clear());
    FOLD.lock().expect("fold lock").take().unwrap_or_default()
}

struct Open {
    seq: u64,
    start: u64,
    child_ns: u64,
}

/// Records the benchmark's spans around the program's calls and gathers
/// the layer time of each operation.
struct Tracer {
    on: bool,
    seq: u64,
    op: u64,
    stack: Vec<Open>,
    done: Vec<SpanRecord>,
    layers: LayerNs,
    counts: Counts,
    maxes: Counts,
}

/// How a benchmark span charges its time.
#[derive(Clone, Copy)]
struct Scope {
    /// The span's name.
    name: &'static str,
    /// The layer its own time goes to.
    layer: &'static str,
    /// Does it take everything that ran inside it?
    absorbing: bool,
}

const fn scope(name: &'static str, layer: &'static str, absorbing: bool) -> Scope {
    Scope {
        name,
        layer,
        absorbing,
    }
}

const PARSE: Scope = scope("bundle.parse", "relational.parse", true);
const QUERY: Scope = scope("query.parse", "relational.parse", true);
const ANALYSIS: Scope = scope("analysis", "analysis", true);
const CERTAIN: Scope = scope("certain", "core.certain", true);
const OPEN: Scope = scope("store.open", "store.open", true);

fn add(into: &mut Counts, from: &Counts) {
    for (k, v) in from {
        *into.entry(k).or_default() += v;
    }
}

fn add_max(into: &mut Counts, from: &Counts) {
    for (k, v) in from {
        let m = into.entry(k).or_default();
        *m = (*m).max(*v);
    }
}

impl Tracer {
    /// A tracer; `on = false` makes every span a plain call.
    fn new(on: bool) -> Tracer {
        if on {
            let _ = MAIN.set(std::thread::current().id());
            pde_trace::set_sink(Arc::new(LayerSink));
        }
        Tracer {
            on,
            seq: 0,
            op: 0,
            stack: Vec::new(),
            done: Vec::new(),
            layers: LayerNs::new(),
            counts: Counts::new(),
            maxes: Counts::new(),
        }
    }

    fn marker(&self, line: &str) {
        if self.on {
            let mut out = std::io::stdout().lock();
            let _ = writeln!(out, "{line}");
            let _ = out.flush();
        }
    }

    fn open(&mut self, name: &str, layer: &str) {
        self.seq += 1;
        let start = mono_ns();
        let parent = self.stack.last().map_or(0, |o| o.seq);
        self.marker(&format!(
            concat!(
                "{{\"kind\":\"pdebench-open\",\"seq\":{},\"name\":\"{}\",\"layer\":\"{}\",",
                "\"op\":{},\"parent\":{},\"t_ns\":{}}}"
            ),
            self.seq, name, layer, self.op, parent, start
        ));
        self.stack.push(Open {
            seq: self.seq,
            start,
            child_ns: 0,
        });
    }

    fn close(&mut self) -> (Open, u64) {
        let open = self.stack.pop().expect("spans nest");
        let end = mono_ns();
        self.marker(&format!(
            "{{\"kind\":\"pdebench-close\",\"seq\":{},\"t_ns\":{end}}}",
            open.seq
        ));
        let dur = end.saturating_sub(open.start);
        if let Some(p) = self.stack.last_mut() {
            p.child_ns += dur;
        }
        (open, dur)
    }

    /// Run `f` inside a benchmark span; `f` returns its result and the
    /// counts it read off the stats the call returned.
    fn span<T>(&mut self, s: Scope, f: impl FnOnce() -> (T, Counts)) -> T {
        if !self.on {
            return f().0;
        }
        self.open(s.name, s.layer);
        let _ = take_fold();
        let (out, counts) = f();
        let fold = take_fold();
        let (open, dur) = self.close();
        add(&mut self.counts, &counts);
        add(&mut self.counts, &fold.counts);
        add_max(&mut self.maxes, &fold.maxes);
        let layers = fold.resolve(dur.saturating_sub(open.child_ns), s.layer, s.absorbing);
        self.record(s, &open, dur, &layers);
        for (l, ns) in layers {
            *self.layers.entry(l).or_default() += ns;
        }
        out
    }

    /// The outermost span of an operation; its own time is benchmark glue.
    fn top<T>(&mut self, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        self.open("batch.op", "");
        let out = f(self);
        let (open, dur) = self.close();
        self.record(scope("batch.op", "", false), &open, dur, &LayerNs::new());
        out
    }

    fn record(&mut self, s: Scope, open: &Open, dur: u64, layers: &LayerNs) {
        let mut fields = vec![
            ("op", FieldValue::U64(self.op)),
            (
                "parent",
                FieldValue::U64(self.stack.last().map_or(0, |o| o.seq)),
            ),
            ("start_ns", FieldValue::U64(open.start)),
            ("layer", FieldValue::Str(s.layer.to_owned())),
        ];
        fields.extend(layers.iter().map(|(l, ns)| (*l, FieldValue::U64(*ns))));
        self.done.push(SpanRecord {
            name: s.name,
            seq: open.seq,
            dur_ns: dur,
            self_ns: dur.saturating_sub(open.child_ns),
            fields,
        });
    }

    /// Write the finished spans and the `pdebench-op` line of the current
    /// operation, in one write.
    fn finish(&mut self, wall_ns: u64, answer: &str) {
        let mut text = String::new();
        for r in self.done.drain(..) {
            text.push_str(&r.to_json());
            text.push('\n');
        }
        let layers = std::mem::take(&mut self.layers);
        let counts = std::mem::take(&mut self.counts);
        let maxes = std::mem::take(&mut self.maxes);
        text.push_str(&op_line(self.op, wall_ns, answer, &layers, &counts, &maxes));
        let mut out = std::io::stdout().lock();
        let _ = out.write_all(text.as_bytes());
        let _ = out.flush();
    }
}

fn object(m: &Counts) -> String {
    let parts: Vec<String> = m.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
    format!("{{{}}}", parts.join(","))
}

fn op_line(op: u64, wall_ns: u64, answer: &str, layers: &LayerNs, c: &Counts, m: &Counts) -> String {
    format!(
        concat!(
            "{{\"kind\":\"pdebench-op\",\"op\":{},\"wall_ns\":{},\"answer\":{},",
            "\"layers\":{},\"counts\":{},\"maxes\":{}}}\n"
        ),
        op,
        wall_ns,
        answer,
        object(layers),
        object(c),
        object(m)
    )
}

fn counts<const N: usize>(pairs: [(&'static str, usize); N]) -> Counts {
    pairs.into_iter().map(|(k, v)| (k, v as u64)).collect()
}

fn error(e: &str) -> String {
    format!("{{\"error\":{}}}", json_escape(e))
}

/// Parse the bundle, then lint, optimize and plan it as a solve-style
/// command does.
fn load(
    tr: &mut Tracer,
    text: &str,
) -> Result<(Bundle, pde_core::PdeSetting, pde_analysis::Certificate), String> {
    let bundle = tr.span(PARSE, || (Bundle::parse_with_warnings(text), Counts::new()));
    let bundle = bundle.map_err(|e| e.to_string())?.0;
    let (setting, cert) = tr.span(ANALYSIS, || {
        let _ = analyze_setting(&bundle.setting);
        let opt = optimize_setting(&bundle.setting, &bundle.input);
        let cert = plan_setting(&opt.optimized, bundle.input.active_domain().len());
        ((opt.optimized, cert), Counts::new())
    });
    Ok((bundle, setting, cert))
}

/// `pde solve <bundle>`.
fn batch_solve(tr: &mut Tracer, text: &str) -> String {
    let (bundle, setting, cert) = match load(tr, text) {
        Ok(x) => x,
        Err(e) => return error(&e),
    };
    let plan = cert.to_solve_plan();
    let schedule = tr.span(ANALYSIS, || (forward_schedule(&setting), Counts::new()));
    let tractable = plan.kind == SolverKind::Tractable;
    let solve = if tractable {
        scope("solve", "core.solve", false)
    } else {
        scope("solve", "core.search", true)
    };
    let gov = Governor::new(GovernorConfig::default());
    let report = tr.span(solve, || {
        let r = decide_governed_scheduled(&setting, &bundle.input, &plan, Some(&schedule), &gov);
        let mut c = Counts::new();
        if let Ok(r) = &r {
            if let Some(s) = &r.chase_stats {
                // Rounds are counted off the `chase.round` spans.
                c.extend(counts([
                    ("triggers_found", s.triggers_found),
                    ("triggers_fired", s.triggers_fired),
                    ("skipped_by_delta", s.skipped_by_delta),
                    ("egd_merges", s.egd_merges),
                ]));
            }
            if let Some(s) = &r.search {
                c.extend(counts([
                    ("branches", s.branches),
                    ("candidates_checked", s.candidates_checked),
                    ("prunes", s.prunes),
                ]));
            }
            c.extend(counts([
                ("governor_checks", r.governor.checks),
                ("peak_bytes", r.governor.peak_bytes),
            ]));
        }
        (r, c)
    });
    match report {
        Ok(r) => match r.exists {
            Some(exists) => {
                if !exists && tractable {
                    // `pde solve` explains a tractable no by running
                    // ExistsSolution again for the unsatisfiable demand.
                    let explain = scope("solve.explain", "core.solve", false);
                    let _ = tr.span(explain, || {
                        (
                            pde_core::exists_solution(&bundle.setting, &bundle.input),
                            Counts::new(),
                        )
                    });
                }
                format!("{{\"solve\":{exists}}}")
            }
            None => "{\"undecided\":true}".into(),
        },
        Err(e) => error(&e.to_string()),
    }
}

/// `pde certain <bundle> <query>`.
fn batch_certain(tr: &mut Tracer, text: &str, qsrc: &str) -> String {
    let (bundle, setting, cert) = match load(tr, text) {
        Ok(x) => x,
        Err(e) => return error(&e),
    };
    let q = tr.span(QUERY, || {
        (parse_query(bundle.setting.schema(), qsrc), Counts::new())
    });
    let q: pde_relational::UnionQuery = match q {
        Ok(q) => q.into(),
        Err(e) => return error(&e.to_string()),
    };
    let limits = cert.to_solve_plan().limits;
    let out = tr.span(CERTAIN, || {
        let r = certain_answers(&setting, &bundle.input, &q, limits);
        let n = r.as_ref().map_or(0, |o| o.solutions_examined);
        (r, counts([("solutions_examined", n)]))
    });
    let out = match out {
        Ok(o) => o,
        Err(e) => return error(&e.to_string()),
    };
    if q.is_boolean() {
        return format!("{{\"bool\":{}}}", out.certain_bool());
    }
    if !out.solution_exists {
        return "{\"rows\":null}".into();
    }
    let rows: Vec<String> = out
        .answers
        .iter()
        .map(|t| {
            let row: Vec<String> = t.iter().map(ToString::to_string).collect();
            json_escape(&row.join(", "))
        })
        .collect();
    format!("{{\"rows\":[{}]}}", rows.join(","))
}

/// The serve loop's output: each response line becomes a `pdebench-op`
/// line carrying it, with the request's wall time (since the previous
/// line, as the loop reads the next request only after answering) and,
/// traced, the layer time the sink folded for it.
struct Responses {
    traced: bool,
    last: u64,
    buf: Vec<u8>,
}

impl Responses {
    fn line(&mut self, line: &str) {
        let now = mono_ns();
        let wall = now - self.last;
        self.last = now;
        let id = crate::json::Json::parse(line)
            .ok()
            .and_then(|v| v.get("id").and_then(crate::json::Json::num))
            .map_or(0, |n| n as u64);
        let mut text = String::new();
        let (mut layers, mut c, mut m) = (LayerNs::new(), Counts::new(), Counts::new());
        if self.traced {
            text.push_str(&format!(
                "{{\"kind\":\"pdebench-close\",\"seq\":{},\"t_ns\":{now}}}\n",
                REQUEST_SEQ + id
            ));
            if id == 0 {
                // The hello line: start-up is the store's recovery and
                // seeding commit.
                let fold = take_fold();
                c = fold.counts.clone();
                layers = fold.resolve(wall, "store.open", false);
            } else {
                let mut done = REQUESTS.lock().expect("requests lock");
                if let Some(k) = done.iter().position(|r| r.0 == id) {
                    let r = done.swap_remove(k);
                    (layers, c, m) = (r.1, r.2, r.3);
                }
            }
        }
        let answer = format!("{{\"response\":{}}}", json_escape(line));
        text.push_str(&op_line(id, wall, &answer, &layers, &c, &m));
        if self.traced {
            text.push_str(&format!(
                concat!(
                    "{{\"kind\":\"pdebench-open\",\"seq\":{},\"name\":\"serve.request\",",
                    "\"layer\":\"serve.other\",\"op\":{},\"parent\":0,\"t_ns\":{}}}\n"
                ),
                REQUEST_SEQ + id + 1,
                id + 1,
                mono_ns()
            ));
        }
        let mut out = std::io::stdout().lock();
        let _ = out.write_all(text.as_bytes());
        let _ = out.flush();
        self.last = mono_ns();
    }
}

impl Write for Responses {
    fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
        self.buf.extend_from_slice(b);
        while let Some(i) = self.buf.iter().position(|&c| c == b'\n') {
            let line: Vec<u8> = self.buf.drain(..=i).collect();
            self.line(String::from_utf8_lossy(&line).trim_end());
        }
        Ok(b.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A `pde serve` session, in-process, over the request file.
fn session(tr: &mut Tracer, text: &str, store: &Path, requests: &Path) -> Result<(), String> {
    let start = mono_ns();
    let bundle = tr.span(PARSE, || (Bundle::parse(text), Counts::new()));
    let bundle = bundle.map_err(|e| e.to_string())?;
    tr.finish(mono_ns() - start, "{\"done\":true}");
    let input = std::io::BufReader::new(
        std::fs::File::open(requests).map_err(|e| format!("{}: {e}", requests.display()))?,
    );
    let options = ServeOptions {
        store_dir: store.display().to_string(),
        timeout: None,
        memory_limit: None,
        stats: false,
        access_log: None,
        trace_sample: 0,
    };
    let _ = take_fold();
    let out = Responses {
        traced: tr.on,
        last: mono_ns(),
        buf: Vec::new(),
    };
    tr.marker(&format!(
        concat!(
            "{{\"kind\":\"pdebench-open\",\"seq\":{},\"name\":\"serve.startup\",",
            "\"layer\":\"store.open\",\"op\":0,\"parent\":0,\"t_ns\":{}}}"
        ),
        REQUEST_SEQ,
        mono_ns()
    ));
    serve(&bundle, &options, input, out)
}

/// What a replay child is asked to do.
#[derive(Clone, Debug, Default)]
pub struct Spec {
    /// Record spans?
    pub traced: bool,
    /// `solve`, `certain`, `session` or `reopen`.
    pub kind: String,
    /// The bundle file.
    pub bundle: String,
    /// The certain query.
    pub query: String,
    /// The store directory (`session`, `reopen`).
    pub store: String,
    /// The request file (`session`).
    pub requests: String,
}

impl Spec {
    /// Encode as one argument per field (`key=value`).
    pub fn args(&self) -> Vec<String> {
        vec![
            format!("traced={}", u8::from(self.traced)),
            format!("kind={}", self.kind),
            format!("bundle={}", self.bundle),
            format!("query={}", self.query),
            format!("store={}", self.store),
            format!("requests={}", self.requests),
        ]
    }

    /// Decode [`Spec::args`].
    pub fn parse(args: &[String]) -> Spec {
        let mut s = Spec::default();
        for a in args {
            let (k, v) = a.split_once('=').unwrap_or((a, ""));
            match k {
                "traced" => s.traced = v == "1",
                "kind" => s.kind = v.to_owned(),
                "bundle" => v.clone_into(&mut s.bundle),
                "query" => v.clone_into(&mut s.query),
                "store" => v.clone_into(&mut s.store),
                "requests" => v.clone_into(&mut s.requests),
                _ => {}
            }
        }
        s
    }
}

/// The replay child's entry point.
pub fn main(spec: &Spec) -> Result<(), String> {
    let mut tr = Tracer::new(spec.traced);
    tr.op = 1;
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let start = mono_ns();
    let answer = match spec.kind.as_str() {
        "solve" => {
            let text = read(&spec.bundle)?;
            tr.top(|tr| batch_solve(tr, &text))
        }
        "certain" => {
            let text = read(&spec.bundle)?;
            tr.top(|tr| batch_certain(tr, &text, &spec.query))
        }
        "session" => {
            let text = read(&spec.bundle)?;
            tr.op = 0;
            return session(
                &mut tr,
                &text,
                Path::new(&spec.store),
                Path::new(&spec.requests),
            );
        }
        "reopen" => {
            let schema = pde_workloads::genomics::genomics_setting().schema().clone();
            let r = tr.span(OPEN, || {
                let r = InstanceStore::open(&spec.store, schema);
                let n = r.as_ref().map_or(0, |(_, _, rep)| rep.frames_replayed);
                (r, counts([("frames_replayed", n)]))
            });
            match r {
                Ok(_) => "{\"done\":true}".to_owned(),
                Err(e) => error(&e.to_string()),
            }
        }
        other => return Err(format!("unknown replay kind {other}")),
    };
    tr.finish(mono_ns() - start, &answer);
    Ok(())
}
