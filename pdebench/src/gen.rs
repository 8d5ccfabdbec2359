//! Seeded inputs: bundles for the batch workloads, the serve base bundle
//! and the serve request streams.
//!
//! Everything here is a pure function of the workload seed, so the same
//! seed gives byte-identical bundles and request lines. The program under
//! test only ever sees the generated text, never the seed.

use pde_core::{Bundle, PdeSetting};
use pde_relational::Instance;
use pde_workloads::boundary::{egd_boundary_instance, egd_boundary_setting};
use pde_workloads::clique::{clique_instance, clique_instance_elements_from_v, clique_setting};
use pde_workloads::genomics::{genomics_instance, genomics_setting, GenomicsParams};
use pde_workloads::{has_k_clique, Graph};
use std::collections::BTreeSet;

/// The certain query of a sync round and of `serve_query`'s first
/// recurring query: the (accession, organism) pairs the target must hold.
pub const PROTEIN_QUERY: &str = "q(a, o) :- u_protein(a, o)";
/// The other recurring `serve_query` queries.
pub const ANNOTATION_QUERY: &str = "q(a, g) :- u_annotation(a, g)";
/// Organisms that some target protein lives in.
pub const ORGANISM_QUERY: &str = "q(o) :- u_protein(a, o)";
/// Theorem 3's Boolean query: certain iff the graph has no k-clique.
pub const CLIQUE_QUERY: &str = "q() :- P(x, x, x, x)";

/// Smallest and largest `sync_batch` round, in input facts.
pub const SYNC_MIN_FACTS: f64 = 1_000.0;
/// See [`SYNC_MIN_FACTS`].
pub const SYNC_MAX_FACTS: f64 = 20_000.0;
/// `sync_batch` sizes are stratified into this many log-uniform strata.
pub const SYNC_STRATA: usize = 32;
/// Sync rounds generated per run, one per stratum.
pub const SYNC_ROUNDS: usize = SYNC_STRATA;
/// Distinct `search_batch` instances generated per run.
pub const SEARCH_INSTANCES: usize = 120;
/// Proteins in the serve base bundle (about 2×10³ facts).
pub const SERVE_BASE_PROTEINS: u32 = 490;
/// Insert requests per `serve_ingest` session (four facts each, about
/// 2×10⁴ facts).
pub const INGEST_INSERTS: usize = 5_000;
/// One `serve_query` request in this many is a `snapshot`.
pub const QUERY_SNAPSHOT_EVERY: usize = 100;
/// A `snapshot` request follows every this many ingest inserts.
pub const INGEST_SNAPSHOT_EVERY: usize = 1_000;
/// Annotations per generated protein.
const ANNOTATIONS: u32 = 3;
/// Distinct organisms and GO terms in generated data.
const ORGANISMS: u32 = 50;
const GO_TERMS: u32 = 2_000;

/// SplitMix64: a small, dependency-free, fully specified generator, so
/// inputs do not change when some library's generator does.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for stream `stream`, item `index` of workload seed `seed`.
    pub fn new(seed: u64, stream: u64, index: u64) -> Rng {
        let mut r = Rng(seed ^ 0x9E37_79B9_7F4A_7C15);
        let a = r.next_u64() ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03);
        let mut r = Rng(a);
        Rng(r.next_u64() ^ index.wrapping_mul(0x8CB9_2BA7_2F3D_8DD7))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

/// What the oracle expects of one operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Expect {
    /// `solve`: does a solution exist?
    Solve(bool),
    /// `certain` of a non-Boolean query: exactly these rows (each rendered
    /// `a, b`), or `None` when no solution exists (vacuously certain).
    Rows(Option<BTreeSet<String>>),
    /// `certain` of a Boolean query.
    Bool(bool),
}

/// One batch operation: a `pde solve` or `pde certain` child on a bundle.
#[derive(Clone, Debug)]
pub struct BatchOp {
    /// `solve` or `certain`.
    pub kind: &'static str,
    /// Index of the bundle in [`BatchInputs::bundles`].
    pub bundle: usize,
    /// The certain query, for `certain`.
    pub query: Option<&'static str>,
    /// What the answer must be.
    pub expect: Expect,
}

/// The generated inputs of a batch workload.
#[derive(Clone, Debug)]
pub struct BatchInputs {
    /// Bundle texts (file `b<index>.pde` in the work directory).
    pub bundles: Vec<String>,
    /// Operations in the order they run. A run goes through all of them,
    /// then starts over while it has time, so every operation runs at
    /// least once and every run measures the same make-up.
    pub ops: Vec<BatchOp>,
    /// Input facts per bundle.
    pub facts: Vec<usize>,
}

fn render(setting: PdeSetting, input: Instance) -> String {
    Bundle { setting, input }.render()
}

/// Reverse the low `bits` bits of `i`: visiting strata in this order keeps
/// every prefix of the rounds spread over the whole size range.
fn bit_reverse(i: usize, bits: u32) -> usize {
    i.reverse_bits() >> (usize::BITS - bits)
}

/// The source facts of a genomics instance, as the oracle sees them.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GenomicsModel {
    /// `sp_protein` (accession, organism) pairs.
    pub proteins: BTreeSet<(String, String)>,
    /// `sp_annotation` (accession, GO term) pairs.
    pub annotations: BTreeSet<(String, String)>,
}

impl GenomicsModel {
    /// Read the source facts of `input`.
    pub fn of(setting: &PdeSetting, input: &Instance) -> GenomicsModel {
        let schema = setting.schema();
        let spp = schema.rel_id("sp_protein").expect("genomics schema");
        let spa = schema.rel_id("sp_annotation").expect("genomics schema");
        let mut m = GenomicsModel::default();
        for t in input.relation(spp).iter() {
            m.proteins
                .insert((t.get(0).to_string(), t.get(2).to_string()));
        }
        for t in input.relation(spa).iter() {
            m.annotations
                .insert((t.get(0).to_string(), t.get(1).to_string()));
        }
        m
    }

    /// The certain answers of one of the recurring genomics queries over a
    /// solvable instance with these source facts.
    pub fn certain(&self, query: &str) -> BTreeSet<String> {
        match query {
            PROTEIN_QUERY => self
                .proteins
                .iter()
                .map(|(a, o)| format!("{a}, {o}"))
                .collect(),
            ANNOTATION_QUERY => {
                let accs: BTreeSet<&str> = self.proteins.iter().map(|(a, _)| a.as_str()).collect();
                self.annotations
                    .iter()
                    .filter(|(a, _)| accs.contains(a.as_str()))
                    .map(|(a, g)| format!("{a}, {g}"))
                    .collect()
            }
            ORGANISM_QUERY => self.proteins.iter().map(|(_, o)| o.clone()).collect(),
            other => panic!("no oracle for query {other}"),
        }
    }
}

fn genomics_params(proteins: u32, rogue: u32, seed: u64) -> GenomicsParams {
    GenomicsParams {
        proteins,
        annotations_per_protein: ANNOTATIONS,
        organisms: ORGANISMS,
        go_terms: GO_TERMS,
        preloaded: proteins / 10,
        rogue,
        seed,
    }
}

/// `sync_batch`: genomics sync rounds of log-uniform size; one round in
/// four carries rogue target facts. Each round is a `solve` and a
/// `certain` of [`PROTEIN_QUERY`].
///
/// Sizes are stratified: round `r` falls in stratum `bit_reverse(r)` of
/// [`SYNC_STRATA`] equal slices of the log range, at a seeded point in the
/// middle fifth of it. Every seed thus sees the same size spread (solve time
/// grows with the square of the size, so wider jitter would make the
/// percentiles depend on the seed), and every prefix of the rounds (a run's
/// last partial pass) covers the whole range evenly.
pub fn sync_batch(seed: u64) -> BatchInputs {
    let setting = genomics_setting();
    let bits = SYNC_STRATA.trailing_zeros();
    let span = (SYNC_MAX_FACTS / SYNC_MIN_FACTS).ln();
    let mut out = BatchInputs {
        bundles: Vec::new(),
        ops: Vec::new(),
        facts: Vec::new(),
    };
    for r in 0..SYNC_ROUNDS {
        let mut rng = Rng::new(seed, 1, r as u64);
        let stratum = bit_reverse(r % SYNC_STRATA, bits);
        let u = (stratum as f64 + 0.4 + 0.2 * rng.unit()) / SYNC_STRATA as f64;
        let facts = SYNC_MIN_FACTS * (u * span).exp();
        // Four facts per protein plus a tenth preloaded into the target.
        let proteins = (facts / 4.1).round() as u32;
        // One stratum in four carries rogue facts, so rogue rounds spread
        // evenly over the size range.
        let rogue = if stratum % 4 == 2 {
            1 + rng.below(3) as u32
        } else {
            0
        };
        let input = genomics_instance(&setting, &genomics_params(proteins, rogue, rng.next_u64()));
        let model = GenomicsModel::of(&setting, &input);
        let solvable = rogue == 0;
        out.facts.push(input.fact_count());
        out.bundles.push(render(setting.clone(), input));
        out.ops.push(BatchOp {
            kind: "solve",
            bundle: r,
            query: None,
            expect: Expect::Solve(solvable),
        });
        out.ops.push(BatchOp {
            kind: "certain",
            bundle: r,
            query: Some(PROTEIN_QUERY),
            expect: Expect::Rows(solvable.then(|| model.certain(PROTEIN_QUERY))),
        });
    }
    out
}

/// The reductions `search_batch` runs.
#[derive(Clone, Copy)]
enum Reduction {
    /// Theorem 3 clique reduction, `solve`.
    Clique,
    /// §4 egd boundary, `solve`.
    Egd,
    /// Elements-from-V reduction with the clique certain query, `certain`.
    Certain,
}

/// One pass of `search_batch`: (reduction, has a 3-clique, edge count).
///
/// Search effort depends on the reduction and the answer, so the
/// instances fall into classes with gaps between them (on a 2-vCPU VM: a
/// clique yes ~20 ms, a clique no ~65 ms, an egd yes ~135 ms, an egd no
/// ~900 ms; a certain with a clique ~10 ms, without ~45 ms). A percentile
/// that falls on a gap between two classes jumps with every small change
/// of the instances, so the counts are chosen to put every reported
/// percentile inside one class: of the eight solves, one clique
/// yes, four clique nos, one egd yes and two egd nos (the median is a
/// clique no, p85 an egd no); of the four certains, one with a clique and
/// three without (the median and p65 are both without).
const SEARCH_PASS: [(Reduction, bool, usize); 12] = [
    (Reduction::Clique, false, 9),
    (Reduction::Egd, false, 2),
    (Reduction::Certain, false, 9),
    (Reduction::Clique, false, 9),
    (Reduction::Egd, true, 3),
    (Reduction::Certain, true, 9),
    (Reduction::Clique, true, 9),
    (Reduction::Clique, false, 9),
    (Reduction::Certain, false, 9),
    (Reduction::Clique, false, 9),
    (Reduction::Egd, false, 2),
    (Reduction::Certain, false, 9),
];

/// `search_batch`: seeded G(n, p) graphs through the Theorem 3 clique
/// reduction, the §4 egd boundary and the elements-from-V reduction, in
/// the order of [`SEARCH_PASS`]. An instance is a seeded G(n, p) draw,
/// redrawn until it meets its (answer, edges) target, so every run holds
/// both answers and the same spread of effort, whatever the seed. The
/// oracle is a direct clique search.
pub fn search_batch(seed: u64) -> BatchInputs {
    let mut out = BatchInputs {
        bundles: Vec::new(),
        ops: Vec::new(),
        facts: Vec::new(),
    };
    for i in 0..SEARCH_INSTANCES {
        let mut rng = Rng::new(seed, 3, i as u64);
        let (reduction, want_clique, edges) = SEARCH_PASS[i % SEARCH_PASS.len()];
        let (n, p) = match reduction {
            Reduction::Egd => (4, 0.5),
            _ => (8, 0.33),
        };
        let g = loop {
            let g = Graph::gnp(n, p, rng.next_u64());
            if g.edge_count() == edges && has_k_clique(&g, 3) == want_clique {
                break g;
            }
        };
        let (kind, query, setting, input) = match reduction {
            Reduction::Clique => {
                let s = clique_setting();
                let inst = clique_instance(&s, &g, 3);
                ("solve", None, s, inst)
            }
            Reduction::Egd => {
                let s = egd_boundary_setting();
                let inst = egd_boundary_instance(&s, &g, 3);
                ("solve", None, s, inst)
            }
            Reduction::Certain => {
                let s = clique_setting();
                let inst = clique_instance_elements_from_v(&s, &g, 3);
                ("certain", Some(CLIQUE_QUERY), s, inst)
            }
        };
        let expect = if kind == "solve" {
            Expect::Solve(want_clique)
        } else {
            Expect::Bool(!want_clique)
        };
        out.facts.push(input.fact_count());
        out.bundles.push(render(setting, input));
        out.ops.push(BatchOp {
            kind,
            bundle: i,
            query,
            expect,
        });
    }
    out
}

/// The serve base: a solvable genomics instance of about 2×10³ facts.
pub fn serve_base(seed: u64) -> (String, GenomicsModel) {
    let setting = genomics_setting();
    let input = genomics_instance(
        &setting,
        &genomics_params(SERVE_BASE_PROTEINS, 0, Rng::new(seed, 4, 0).next_u64()),
    );
    let model = GenomicsModel::of(&setting, &input);
    (render(setting, input), model)
}

/// One serve request line plus what the oracle needs to check it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// `solve`; the base stays solvable, so the answer is always `yes`.
    Solve,
    /// `certain` of one of the recurring queries.
    Certain(&'static str),
    /// `insert` of one new protein: (accession, organism, GO terms).
    Insert(String, String, Vec<String>),
    /// `snapshot`.
    Snapshot,
}

impl Request {
    /// The op name (`solve`, `certain`, …).
    pub fn kind(&self) -> &'static str {
        match self {
            Request::Solve => "solve",
            Request::Certain(_) => "certain",
            Request::Insert(..) => "insert",
            Request::Snapshot => "snapshot",
        }
    }

    /// The JSONL request line.
    pub fn line(&self) -> String {
        match self {
            Request::Solve => r#"{"op":"solve"}"#.to_owned(),
            Request::Snapshot => r#"{"op":"snapshot"}"#.to_owned(),
            Request::Certain(q) => format!(r#"{{"op":"certain","query":"{q}"}}"#),
            Request::Insert(..) => format!(r#"{{"op":"insert","facts":"{}"}}"#, self.facts()),
        }
    }

    /// The instance text of an insert (empty for other requests).
    pub fn facts(&self) -> String {
        let Request::Insert(acc, org, gos) = self else {
            return String::new();
        };
        let mut s = format!("sp_protein({acc}, name{acc}, {org}).");
        for g in gos {
            s.push_str(&format!(" sp_annotation({acc}, {g})."));
        }
        s
    }

    /// Apply an acknowledged insert to the oracle's model.
    pub fn apply(&self, model: &mut GenomicsModel) {
        if let Request::Insert(acc, org, gos) = self {
            model.proteins.insert((acc.clone(), org.clone()));
            for g in gos {
                model.annotations.insert((acc.clone(), g.clone()));
            }
        }
    }
}

fn new_protein(seed: u64, stream: u64, prefix: char, n: usize) -> Request {
    let mut rng = Rng::new(seed, stream, n as u64);
    let org = format!("org{}", rng.below(u64::from(ORGANISMS)));
    let gos = (0..ANNOTATIONS)
        .map(|_| format!("GO{:07}", rng.below(u64::from(GO_TERMS))))
        .collect();
    Request::Insert(format!("{prefix}{n:06}"), org, gos)
}

/// Request `i` of `serve_query`'s closed loop. Each block of ten requests
/// holds six `solve`, three `certain` (one per recurring query) and one
/// `insert`, in a seeded order; every [`QUERY_SNAPSHOT_EVERY`]th request
/// is a `snapshot` instead, so checkpoints run on this workload too.
pub fn query_request(seed: u64, i: usize) -> Request {
    if i % QUERY_SNAPSHOT_EVERY == QUERY_SNAPSHOT_EVERY - 1 {
        return Request::Snapshot;
    }
    let block = i / 10;
    let mut slots: Vec<u8> = vec![0, 0, 0, 0, 0, 0, 1, 2, 3, 4];
    let mut rng = Rng::new(seed, 5, block as u64);
    for k in (1..slots.len()).rev() {
        let j = rng.below(k as u64 + 1) as usize;
        slots.swap(k, j);
    }
    match slots[i % 10] {
        0 => Request::Solve,
        1 => Request::Certain(PROTEIN_QUERY),
        2 => Request::Certain(ANNOTATION_QUERY),
        3 => Request::Certain(ORGANISM_QUERY),
        _ => new_protein(seed, 6, 'N', block),
    }
}

/// Request `i` of one `serve_ingest` session: [`INGEST_INSERTS`] inserts
/// with a `snapshot` after every [`INGEST_SNAPSHOT_EVERY`] but the last
/// batch, which stays in the journal for the restart to replay; the
/// closing `solve` is sent separately.
pub fn ingest_requests(seed: u64) -> Vec<Request> {
    let mut out = Vec::with_capacity(INGEST_INSERTS + INGEST_INSERTS / INGEST_SNAPSHOT_EVERY);
    for n in 0..INGEST_INSERTS {
        out.push(new_protein(seed, 7, 'L', n));
        if (n + 1) % INGEST_SNAPSHOT_EVERY == 0 && n + 1 < INGEST_INSERTS {
            out.push(Request::Snapshot);
        }
    }
    out
}
