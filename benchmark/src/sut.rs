//! The system under test: every call the benchmark makes into the
//! repository lives in this module, so the API waist it depends on can
//! be read in one place (README.md lists it). No engine toggle, no
//! executor entry point below `SweepPlan`, no kernel type: open ROADMAP
//! items plan to delete or reshape those, and the benchmark must keep
//! compiling — and keep meaning the same thing — across them.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use serde::json::Value as Json;
use serde::{FromJson, ToJson};
use sg_adversary::FaultSelection;
use sg_analysis::{
    summarize, AdversaryFamily, CellReport, Fingerprint, SweepConfig, SweepPlan, SweepReport,
};
use sg_core::AlgorithmSpec;
use sg_eigtree::{convert, discover_ig, Conversion, FaultList, IgTree};
use sg_journal::{CellKey, EngineEpoch, Journal};
use sg_serve::{serve, Bind, Client, ServeError, ServeOptions, ServerHandle};
use sg_sim::{ProcessId, Value};

/// A sweep grid, opaque to the rest of the harness.
pub type Plan = SweepPlan;

/// `optimal-king n=16 t=5 random-liar`, 1000 seeds, base 0 — the cell
/// `BENCH_sweep.json` pins — must fingerprint to this, or the build under
/// test is not the engine the benchmark's numbers describe.
pub const CANARY_FINGERPRINT: u64 = 0xd5c0_db8c_0396_4e75;

/// The paper's three costs summed over a set of runs, plus the count.
#[derive(Clone, Copy, Default, Debug, PartialEq)]
pub struct Cost {
    pub runs: u64,
    pub rounds: u64,
    pub bits: u64,
    pub local_ops: u64,
}

impl Cost {
    fn of(report: &SweepReport) -> Cost {
        let mut cost = Cost::default();
        for sample in report.cells.iter().flat_map(|cell| &cell.samples) {
            cost.runs += 1;
            cost.rounds += sample.rounds;
            cost.bits += sample.total_bits;
            cost.local_ops += sample.max_local_ops;
        }
        cost
    }

    pub fn add(&mut self, other: Cost) {
        self.runs += other.runs;
        self.rounds += other.rounds;
        self.bits += other.bits;
        self.local_ops += other.local_ops;
    }
}

/// A finished plan reduced to what the harness checks and reports.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Outcome {
    pub fingerprint: u64,
    pub cost: Cost,
}

impl Outcome {
    fn of(report: &SweepReport) -> Outcome {
        Outcome {
            fingerprint: report.fingerprint(),
            cost: Cost::of(report),
        }
    }
}

/// Runs the canary cell and returns its fingerprint.
pub fn canary() -> u64 {
    one_cell(
        AlgorithmSpec::OptimalKing,
        16,
        AdversaryFamily::random_liar(FaultSelection::without_source()),
        1000,
        0,
    )
    .run_with_jobs(1)
    .fingerprint()
}

fn config(spec: AlgorithmSpec, n: usize) -> SweepConfig {
    SweepConfig::traced(spec, n, spec.max_resilience(n))
}

const KING_SPECS: [AlgorithmSpec; 3] = [
    AlgorithmSpec::OptimalKing,
    AlgorithmSpec::PhaseKing,
    AlgorithmSpec::PhaseQueen,
];

fn king_configs(sizes: [usize; 3]) -> Vec<SweepConfig> {
    KING_SPECS
        .iter()
        .flat_map(|&spec| sizes.iter().map(move |&n| config(spec, n)))
        .collect()
}

/// `king-expedite`: correct source, so every run stops at round 3 and
/// per-run fixed work is the whole job (36 cells × 64 seeds).
pub fn king_expedite(base_seed: u64) -> Plan {
    let honest_source = FaultSelection::without_source;
    SweepPlan::new(
        king_configs([7, 16, 31]),
        vec![
            AdversaryFamily::random_liar(honest_source()),
            AdversaryFamily::crash(honest_source(), 2),
            AdversaryFamily::silent(honest_source()),
            AdversaryFamily::chain_revealer(honest_source(), 2, 2),
        ],
        64,
    )
    .with_base_seed(base_seed)
}

/// The recipient split that keeps correct processors divided through
/// the whole king schedule at system size `n` (found by scanning splits;
/// any other collapses the cell to 3 rounds).
fn matched_split(n: usize) -> usize {
    match n {
        16 => 11,
        31 => 21,
        64 => 43,
        _ => panic!("no matched equivocation split recorded for n={n}"),
    }
}

/// `king-fullround`: a faulty, equivocating source keeps the matched
/// cells running their full schedule, with mask-only deterministic lies
/// (27 cells × 256 seeds).
pub fn king_fullround(base_seed: u64) -> Plan {
    let sizes = [16, 31, 64];
    SweepPlan::new(
        king_configs(sizes),
        sizes
            .iter()
            .map(|&n| {
                AdversaryFamily::equivocate(FaultSelection::with_source(), matched_split(n), 1)
            })
            .collect(),
        256,
    )
    .with_base_seed(base_seed)
}

/// The paper's own algorithms and its gear shifts, by the short names
/// the `core.*` per-layer metrics carry.
pub const TREE_SPECS: [(&str, AlgorithmSpec, usize); 7] = [
    ("exponential", AlgorithmSpec::Exponential, 10),
    ("algorithm-a", AlgorithmSpec::AlgorithmA { b: 3 }, 13),
    ("algorithm-b", AlgorithmSpec::AlgorithmB { b: 3 }, 17),
    ("algorithm-c", AlgorithmSpec::AlgorithmC, 32),
    ("hybrid", AlgorithmSpec::Hybrid { b: 3 }, 16),
    ("king-shift", AlgorithmSpec::KingShift { b: 3 }, 13),
    ("dynamic-king", AlgorithmSpec::DynamicKing { b: 3 }, 13),
];

/// `tree-paper`: the tree machine under a correct source (14 cells × 4
/// seeds).
pub fn tree_paper(base_seed: u64) -> Plan {
    let honest_source = FaultSelection::without_source;
    SweepPlan::new(
        TREE_SPECS
            .iter()
            .map(|&(_, spec, n)| config(spec, n))
            .collect(),
        vec![
            AdversaryFamily::random_liar(honest_source()),
            AdversaryFamily::chain_revealer(honest_source(), 2, 2),
        ],
        4,
    )
    .with_base_seed(base_seed)
}

/// `journal-incremental`'s fresh work: the `king-expedite` configs under
/// the two deterministic families (18 cells × 64 seeds).
pub fn journal_delta(base_seed: u64) -> Plan {
    let honest_source = FaultSelection::without_source;
    SweepPlan::new(
        king_configs([7, 16, 31]),
        vec![
            AdversaryFamily::crash(honest_source(), 2),
            AdversaryFamily::silent(honest_source()),
        ],
        64,
    )
    .with_base_seed(base_seed)
}

/// The named adversary families the `adversary.*` probes contrast with
/// the fault-free cell.
pub fn probe_families() -> Vec<(&'static str, AdversaryFamily)> {
    let honest_source = FaultSelection::without_source;
    vec![
        ("random-liar", AdversaryFamily::random_liar(honest_source())),
        ("crash", AdversaryFamily::crash(honest_source(), 2)),
        ("silent", AdversaryFamily::silent(honest_source())),
        (
            "chain-revealer",
            AdversaryFamily::chain_revealer(honest_source(), 2, 2),
        ),
    ]
}

fn one_cell(spec: AlgorithmSpec, n: usize, family: AdversaryFamily, seeds: u64, base: u64) -> Plan {
    SweepPlan::new(vec![config(spec, n)], vec![family], seeds).with_base_seed(base)
}

/// One optimal-king (31,10) cell of `seeds` runs under `family` — the
/// probe cell of the `sim.*` and `adversary.*` metrics.
pub fn probe_cell(family: AdversaryFamily, seeds: u64, base_seed: u64) -> Plan {
    one_cell(AlgorithmSpec::OptimalKing, 31, family, seeds, base_seed)
}

/// [`probe_cell`] without faults: the bare lock-step loop.
pub fn fault_free_cell(seeds: u64, base_seed: u64) -> Plan {
    probe_cell(AdversaryFamily::no_faults(), seeds, base_seed)
}

/// [`probe_cell`] under the matched equivocation that runs all 33
/// rounds.
pub fn full_schedule_cell(seeds: u64, base_seed: u64) -> Plan {
    probe_cell(
        AdversaryFamily::equivocate(FaultSelection::with_source(), matched_split(31), 1),
        seeds,
        base_seed,
    )
}

/// The same `seeds_total` fault-free runs cut into `cells` cells — the
/// contrast behind `analysis.us_per_cell`.
pub fn many_cells(cells: usize, seeds_total: u64, base_seed: u64) -> Plan {
    SweepPlan::new(
        vec![config(AlgorithmSpec::OptimalKing, 31); cells],
        vec![AdversaryFamily::no_faults()],
        seeds_total / cells as u64,
    )
    .with_base_seed(base_seed)
}

/// Executes `plan` on `jobs` workers (1 = inline on this thread, so its
/// thread-local pools stay warm from job to job).
pub fn run(plan: &Plan, jobs: usize) -> Outcome {
    Outcome::of(&plan.run_with_jobs(jobs))
}

/// Cells in `plan`'s grid.
pub fn cell_count(plan: &Plan) -> usize {
    plan.configs.len() * plan.adversaries.len()
}

/// One cell of a decomposed plan.
pub struct Cell {
    /// `analysis.cell:<spec> n=<n> <family>`, the name of the cell's span.
    pub label: String,
    /// The metric-name key of the cell's spec (`TREE_SPECS` short name,
    /// else the spec's own name).
    pub spec: String,
    pub n: usize,
    pub plan: Plan,
}

/// Splits `plan` into one one-cell sub-plan per cell, in grid order.
/// `base_seed = plan.seed_for(ci, ai, 0)` reproduces the cell's seeds
/// exactly, so the cells folded back together fingerprint like the
/// monolithic plan.
pub fn cells(plan: &Plan) -> Vec<Cell> {
    let mut cells = Vec::new();
    for (ci, config) in plan.configs.iter().enumerate() {
        let spec = TREE_SPECS
            .iter()
            .find(|(_, spec, _)| *spec == config.spec)
            .map_or_else(|| config.spec.name(), |(short, _, _)| short.to_string());
        for (ai, family) in plan.adversaries.iter().enumerate() {
            cells.push(Cell {
                label: format!(
                    "analysis.cell:{} n={} {}",
                    config.spec.name(),
                    config.n,
                    family.name()
                ),
                spec: spec.clone(),
                n: config.n,
                plan: SweepPlan::new(vec![*config], vec![family.clone()], plan.seeds_per_cell)
                    .with_base_seed(plan.seed_for(ci, ai, 0)),
            });
        }
    }
    cells
}

/// Grid-order fold of decomposed cells into one report fingerprint.
pub struct Fold(Fingerprint);

impl Fold {
    pub fn new() -> Fold {
        Fold(Fingerprint::new())
    }

    /// Runs a one-cell plan inline and folds its samples in.
    pub fn run_cell(&mut self, cell: &Plan) -> Cost {
        let report = cell.run_with_jobs(1);
        self.0.mix_cell(&report.cells[0]);
        Cost::of(&report)
    }

    pub fn fingerprint(&self) -> u64 {
        self.0.value()
    }
}

// ---------------------------------------------------------------- serve

/// An in-process `sg-serve` daemon on a unix socket, one worker.
pub struct Daemon {
    handle: Option<ServerHandle>,
    socket: PathBuf,
}

impl Daemon {
    pub fn start(socket: &Path) -> Result<Daemon, String> {
        let options = ServeOptions {
            workers: 1,
            ..ServeOptions::default()
        };
        let handle = serve(&Bind::Unix(socket.to_path_buf()), options)
            .map_err(|e| format!("bind {}: {e}", socket.display()))?;
        Ok(Daemon {
            handle: Some(handle),
            socket: socket.to_path_buf(),
        })
    }

    pub fn connect(&self) -> Result<Connection, String> {
        let addr = format!("unix:{}", self.socket.display());
        Client::connect(&addr, Duration::from_secs(5))
            .map(Connection)
            .map_err(|e| format!("connect {addr}: {e}"))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            handle.shutdown();
        }
        std::fs::remove_file(&self.socket).ok();
    }
}

/// One client connection to a [`Daemon`].
pub struct Connection(Client);

/// A served job with the instants of its boundaries.
pub struct Served {
    pub outcome: Outcome,
    /// `submit` called.
    pub submitted: Instant,
    /// `submit` returned (the accept frame arrived).
    pub accepted: Instant,
    /// The first `collect` callback fired.
    pub first_cell: Instant,
    /// `collect` returned (the summary frame arrived and verified).
    pub done: Instant,
    /// The daemon's own accept → last cell wall, from the summary frame.
    pub server_wall_ms: f64,
}

/// Why a served job failed; admission-control refusals are told apart
/// because `serve.rejected` counts them.
pub enum ServeFailure {
    Rejected(String),
    Other(String),
}

impl Connection {
    pub fn ping(&mut self) -> Result<(), String> {
        self.0.ping().map_err(|e| e.to_string())
    }

    pub fn job(&mut self, plan: &Plan) -> Result<Served, ServeFailure> {
        let fail = |e: ServeError| match e {
            ServeError::Rejected { .. } => ServeFailure::Rejected(e.to_string()),
            other => ServeFailure::Other(other.to_string()),
        };
        let submitted = Instant::now();
        let handle = self.0.submit(plan).map_err(fail)?;
        let accepted = Instant::now();
        let mut first_cell = None;
        let streamed = self
            .0
            .collect(handle, |_, _| {
                first_cell.get_or_insert_with(Instant::now);
            })
            .map_err(fail)?;
        let done = Instant::now();
        Ok(Served {
            outcome: Outcome {
                fingerprint: streamed.fingerprint,
                cost: Cost::of(&streamed.report),
            },
            submitted,
            accepted,
            first_cell: first_cell.unwrap_or(done),
            done,
            server_wall_ms: streamed.wall_ms,
        })
    }
}

// -------------------------------------------------------------- journal

/// One `run_with_journal` call: the merged outcome and the hit/computed
/// split that produced it.
pub struct Lookup {
    pub outcome: Outcome,
    pub hits: usize,
    pub computed: usize,
}

/// An open result journal.
pub struct Store(Journal);

impl Store {
    pub fn open(dir: &Path) -> Result<Store, String> {
        Journal::open(dir)
            .map(Store)
            .map_err(|e| format!("open {}: {e}", dir.display()))
    }

    /// Answers `plan` from the store, computing (on `jobs` workers) and
    /// appending whatever it does not hold.
    pub fn run(&mut self, plan: &Plan, jobs: usize) -> Result<Lookup, String> {
        let sweep = plan.run_with_journal(&mut self.0, jobs);
        if let Some(warning) = sweep.warnings.first() {
            return Err(warning.clone());
        }
        Ok(Lookup {
            outcome: Outcome::of(&sweep.report),
            hits: sweep.hits,
            computed: sweep.computed,
        })
    }

    /// Mean seconds of one direct `append` of `cell` over `reps` distinct
    /// keys.
    pub fn time_appends(&mut self, cell: &CodecCell, reps: u64) -> Result<f64, String> {
        let started = Instant::now();
        for k in 0..reps {
            self.0
                .append(CellKey(k), EngineEpoch(0), &cell.json)
                .map_err(|e| e.to_string())?;
        }
        Ok(started.elapsed().as_secs_f64() / reps as f64)
    }
}

// --------------------------------------------------------- direct probes

/// A 64-sample cell report and its wire forms, for the codec probes.
pub struct CodecCell {
    report: SweepReport,
    json: Json,
    text: String,
}

impl CodecCell {
    pub fn new(base_seed: u64) -> CodecCell {
        let family = AdversaryFamily::random_liar(FaultSelection::without_source());
        let report = probe_cell(family, 64, base_seed).run_with_jobs(1);
        let json = report.cells[0].to_json();
        let text = json.to_string();
        CodecCell { report, json, text }
    }

    pub fn samples(&self) -> usize {
        self.report.cells[0].samples.len()
    }

    /// Length of the cell's wire encoding — what a journal line or a
    /// `cell` frame carries.
    pub fn json_bytes(&self) -> usize {
        self.text.len()
    }

    pub fn summarize(&self) -> f64 {
        summarize(&self.report.cells[0].samples)[0].mean
    }

    pub fn fingerprint(&self) -> u64 {
        self.report.fingerprint()
    }

    pub fn encode(&self) -> usize {
        self.report.cells[0].to_json().to_string().len()
    }

    /// Parses and decodes the wire text; the result must be the cell.
    pub fn decode(&self) -> bool {
        Json::parse(&self.text)
            .ok()
            .and_then(|doc| CellReport::from_json(&doc).ok())
            .is_some_and(|cell| cell == self.report.cells[0])
    }
}

/// Mean seconds of one `AdversaryFamily::instantiate` over `reps` seeds.
pub fn time_instantiate(family: &AdversaryFamily, reps: u64) -> f64 {
    let started = Instant::now();
    for seed in 0..reps {
        std::hint::black_box(family.instantiate(seed));
    }
    started.elapsed().as_secs_f64() / reps as f64
}

/// Mean seconds of one fault-set selection (`Adversary::corrupt`) at
/// (31,10), over `reps` calls on one instance of `family`.
pub fn time_corrupt(family: &AdversaryFamily, reps: u64) -> f64 {
    let mut adversary = family.instantiate(0);
    let started = Instant::now();
    let mut picked = 0;
    for _ in 0..reps {
        picked += std::hint::black_box(adversary.corrupt(31, 10, ProcessId(0))).len();
    }
    let elapsed = started.elapsed().as_secs_f64();
    assert_eq!(picked as u64, 10 * reps, "corrupt must pick t processors");
    elapsed / reps as f64
}

/// Seconds per node of the four tree primitives at n=13, four gathered
/// levels (13 345 nodes): `[append, convert, convert', discover]`.
pub fn time_eigtree(seed: u64) -> [f64; 4] {
    const N: usize = 13;
    const T: usize = 4;
    let lie = |parent: usize, sender: ProcessId| {
        // A seeded minority of wrong values, so conversion and discovery
        // see dissent without any node losing its majority.
        let h = (seed ^ (parent as u64) << 8 ^ sender.index() as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15);
        Value(u16::from(h >> 61 != 0))
    };
    let started = Instant::now();
    let mut tree = IgTree::new(N, ProcessId(0));
    tree.set_root(Value(1));
    for _ in 0..4 {
        tree.append_level(lie);
    }
    let append = started.elapsed().as_secs_f64();
    let nodes = tree.node_count() as f64;

    let started = Instant::now();
    let resolved = std::hint::black_box(convert(&tree, Conversion::Resolve));
    let convert_s = started.elapsed().as_secs_f64();
    assert_eq!(resolved.depth(), 5);

    let started = Instant::now();
    std::hint::black_box(convert(&tree, Conversion::ResolvePrime { t: T }));
    let convert_prime = started.elapsed().as_secs_f64();

    let started = Instant::now();
    std::hint::black_box(discover_ig(&tree, T, &FaultList::new(N)));
    let discover = started.elapsed().as_secs_f64();
    // Discovery examines only the parents of the deepest level.
    let examined = tree.level(4).len() as f64;

    [
        append / nodes,
        convert_s / nodes,
        convert_prime / nodes,
        discover / examined,
    ]
}
