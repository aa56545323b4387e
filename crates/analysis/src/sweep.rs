//! The parallel sweep engine: `configs × adversaries × seeds` fan-out.
//!
//! Every empirical result in this reproduction is a *sweep* — many
//! independent executions of `(algorithm, n, t)` cells against adversary
//! strategies over seed ranges, reduced to summary statistics. This
//! module is the one place that fan-out happens: a [`SweepPlan`]
//! describes the grid, [`SweepPlan::run`] executes it on a rayon pool
//! sized by [`set_jobs`] (the CLI's `--jobs` flag), and the resulting
//! [`SweepReport`] is **bit-identical regardless of thread count** (see
//! `tests/sweep_determinism.rs`).
//!
//! # Deterministic seeding scheme
//!
//! Parallel determinism requires that the seed a run sees depends only on
//! its *grid coordinates*, never on scheduling order. Each `(config,
//! adversary)` cell owns an independent seed stream:
//!
//! ```text
//! stream(ci, ai) = base_seed ⊕ (ci · 0x9E3779B97F4A7C15) ⊕ (ai · 0xBF58476D1CE4E5B9)
//! seed(ci, ai, si) = stream(ci, ai) + si          (wrapping)
//! ```
//!
//! where `ci`/`ai` are the config/adversary indices and `si` the run
//! index within the cell. With the default `base_seed = 0` and a
//! single-cell plan, run `si` sees seed `si` exactly, as a sequential
//! loop over seeds `0..k` would.
//! Results are collected in `(ci, ai, si)` order whatever the worker
//! interleaving, and each cell's statistics are reduced sequentially
//! from its seed-ordered vector, so serial and parallel sweeps produce
//! the same bytes.
//!
//! # One executor
//!
//! Every run of every sweep executes through one private function,
//! `SweepPlan::run_chunk`: up to 64 consecutive seeds of one cell, in a
//! [`SweepScratch`]. It alone decides between the lock-step batch engine
//! and the scalar one. [`SweepPlan::run`] fans chunk units over the
//! pool; a [`CellCursor`] advances one cell a chunk at a time for
//! callers that schedule for themselves (the `sg-serve` daemon).
//!
//! The pool is also exposed raw as [`sweep_map`] — an input-ordered
//! parallel map — for sweep-shaped work that does not fit the seeded
//! grid (the experiment harness's measurement cells, the exhaustive
//! model-checking enumerations in `tests/exhaustive_*.rs`).

use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use rayon::prelude::*;
use sg_adversary::{BatchFamily, Family, FaultSelection};
use sg_core::AlgorithmSpec;
use sg_sim::{Adversary, MruPool, Outcome, RunArena, RunConfig, Value};

use crate::montecarlo::{early_stop_rate, Sample, Summary};

/// Worker-thread count used by [`SweepPlan::run`] and [`sweep_map`];
/// 0 = hardware default.
static JOBS: AtomicUsize = AtomicUsize::new(0);

/// Sets the sweep worker count (the CLI's `--jobs`); 0 restores the
/// hardware default.
pub fn set_jobs(jobs: usize) {
    JOBS.store(jobs, Ordering::SeqCst);
}

/// The effective sweep worker count.
pub fn jobs() -> usize {
    match JOBS.load(Ordering::SeqCst) {
        0 => std::thread::available_parallelism().map_or(1, usize::from),
        j => j,
    }
}

/// Runs `f` over `cells` on the configured pool, returning results in
/// input order (the scheduling-independence that makes sweep output
/// deterministic).
pub fn sweep_map<T, R, F>(cells: Vec<T>, f: F) -> Vec<R>
where
    T: Send + 'static,
    R: Send + 'static,
    F: Fn(T) -> R + Send + Sync + 'static,
{
    sweep_map_with_jobs(cells, jobs(), f)
}

/// [`sweep_map`] with an explicit worker count (1 = in-place sequential).
pub fn sweep_map_with_jobs<T, R, F>(cells: Vec<T>, jobs: usize, f: F) -> Vec<R>
where
    T: Send + 'static,
    R: Send + 'static,
    F: Fn(T) -> R + Send + Sync + 'static,
{
    rayon::ThreadPoolBuilder::new()
        .num_threads(jobs.max(1))
        .build()
        .expect("sweep thread pool")
        .install(|| cells.into_par_iter().map(f).collect())
}

/// One protocol instantiation in a sweep grid.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SweepConfig {
    /// The algorithm under test.
    pub spec: AlgorithmSpec,
    /// System size.
    pub n: usize,
    /// Fault bound.
    pub t: usize,
    /// The source's initial value.
    pub source_value: Value,
    /// Whether the cell samples lock-in and discoveries: set, each
    /// [`Sample`] carries a run's lock-in round and discovery count; clear,
    /// both read 0. The scalar path reads them off the engine's folds
    /// ([`Outcome::lock_in`], [`Outcome::discoveries`]) and records no
    /// event log either way; the lock-step path folds the lock-in from
    /// its snapshot words only when this is set.
    pub trace: bool,
}

impl SweepConfig {
    /// A traced cell of `spec` at `(n, t)` with source value 1 — the
    /// shape every Monte-Carlo sweep in this crate uses.
    pub fn traced(spec: AlgorithmSpec, n: usize, t: usize) -> Self {
        SweepConfig {
            spec,
            n,
            t,
            source_value: Value(1),
            trace: true,
        }
    }

    /// The engine configuration of one (early-stopping) run of this cell.
    pub(crate) fn run_config(&self) -> RunConfig {
        let config = RunConfig::new(self.n, self.t).with_source_value(self.source_value);
        if self.trace {
            config.with_trace()
        } else {
            config
        }
    }

    /// The instance-pool key this cell's runs execute under — derived
    /// exactly as `sg_core::execute_into` derives it, including the
    /// authentication adjustment for specs that require it. Long-lived
    /// [`SweepScratch`] owners (the `sg-serve` daemon's workers) use this
    /// to quarantine exactly one cell's pooled instances after a panic
    /// ([`SweepScratch::evict_instances`]) instead of discarding the
    /// whole warm scratch.
    pub fn pool_key(&self) -> sg_sim::PoolKey {
        let mut config = self.run_config();
        if self.spec.needs_authentication() {
            config = config.with_authentication();
        }
        self.spec.pool_key(&config)
    }
}

/// A seed-keyed adversary family in a sweep grid: one shared [`Family`]
/// value, `seed ↦ strategy instance`.
///
/// It travels the wire (see [`crate::wire`]), runs lock-step where it has
/// a vector shape and pools its scalar strategies. Cloning is cheap (the
/// value is shared), which is what lets the executor move families into
/// worker closures.
///
/// Build one as `Family::X { .. }.into()`. The six named constructors
/// below ([`no_faults`](Self::no_faults), [`random_liar`](Self::random_liar),
/// [`chain_revealer`](Self::chain_revealer), [`crash`](Self::crash),
/// [`silent`](Self::silent), [`equivocate`](Self::equivocate)) say the
/// same thing; they remain only while `benchmark/` calls them (ROADMAP
/// item 10(c)).
#[derive(Clone)]
pub struct AdversaryFamily(Arc<Family>);

impl From<Family> for AdversaryFamily {
    fn from(family: Family) -> Self {
        AdversaryFamily(Arc::new(family))
    }
}

impl AdversaryFamily {
    /// The fault-free baseline (ignores the seed).
    pub fn no_faults() -> Self {
        Family::NoFaults.into()
    }

    /// Seeded uniform random lies over `selection`.
    pub fn random_liar(selection: FaultSelection) -> Self {
        Family::RandomLiar(selection).into()
    }

    /// The chain-revealing stress adversary over `selection`.
    pub fn chain_revealer(selection: FaultSelection, start: usize, block: usize) -> Self {
        Family::ChainRevealer {
            selection,
            start,
            block,
        }
        .into()
    }

    /// The crash-early/go-silent scenario family: selected processors are
    /// perfectly honest until `round`, then permanently silent (ignores
    /// the seed — crashes are deterministic). With
    /// [`FaultSelection::limit`] capping the actual fault count `f ≤ t`,
    /// this is the workload for plotting rounds saved against `f` — the
    /// regime where the paper's expedite argument pays.
    pub fn crash(selection: FaultSelection, round: usize) -> Self {
        Family::Crash { selection, round }.into()
    }

    /// The omission scenario family: selected processors never send
    /// anything (ignores the seed). Combined with
    /// [`FaultSelection::limit`] this is the go-silent end of the
    /// actual-fault-budget vocabulary.
    pub fn silent(selection: FaultSelection) -> Self {
        Family::Silent(selection).into()
    }

    /// The equivocation-schedule family: from round `start` on,
    /// corrupted senders tell recipients below `split` all-zeros and the
    /// rest all-ones (ignores the seed).
    pub fn equivocate(selection: FaultSelection, split: usize, start: usize) -> Self {
        Family::Equivocate {
            selection,
            split,
            start,
        }
        .into()
    }

    /// The family's strategy name.
    pub fn name(&self) -> &'static str {
        self.0.name()
    }

    /// The family value the strategies are built from.
    pub fn family(&self) -> &Family {
        &self.0
    }

    /// Builds the strategy instance for one seed.
    pub fn instantiate(&self, seed: u64) -> Box<dyn Adversary> {
        self.0.strategy(seed)
    }

    /// The key the executor pools this family's strategy instances under:
    /// a family's strategy takes nothing but the RNG seed from `seed`,
    /// which is what [`sg_sim::Adversary::reseed`] assumes.
    fn pool_key(&self) -> FamilyKey {
        FamilyKey(Arc::clone(&self.0))
    }
}

impl std::fmt::Debug for AdversaryFamily {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdversaryFamily")
            .field("name", &self.name())
            .finish_non_exhaustive()
    }
}

/// Pool key of a family's strategy instances: the identity of its shared
/// [`Family`]. The key holds a clone of the `Arc`, so the pointer
/// used for the lookup cannot be recycled by a different family while an
/// entry is alive (no ABA hazard) — pointer equality therefore proves
/// "built from exactly this value", which with the family's seed
/// contract ([`AdversaryFamily::pool_key`]) is what
/// [`sg_sim::Adversary::reseed`] needs.
struct FamilyKey(Arc<Family>);

impl PartialEq for FamilyKey {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

/// Everything one thread needs to execute sweep chunks, recycled across
/// chunks, cells, plans — and, on the `sg-serve` daemon's long-lived
/// workers, across jobs and requests. [`SweepPlan::run`]'s pool threads
/// keep one in a thread-local; a caller driving [`CellCursor`]s owns one
/// and passes it to every [`CellCursor::advance`].
///
/// Every pooled value is re-initialized on checkout (`reseed`-or-rebuild
/// for strategies, a full `reset` for kernels), so pooling is never
/// wrong, only absent: `tests/engine_identity.rs` holds pooled execution
/// to the fresh-everything `sg_sim::reference`. A default scratch is
/// cold: every buffer grows on first use.
///
/// Strategies are pooled for scalar runs only: a lock-step chunk builds
/// no strategy at all, for only a family with a vector shape runs
/// lock-step.
#[derive(Default)]
pub struct SweepScratch {
    /// Scalar-engine buffers and the keyed protocol-instance pool.
    arena: RunArena,
    /// Every scalar run streams its result here and is reduced to a
    /// [`Sample`] in place, so the executor allocates no per-run result
    /// vectors.
    outcome: Outcome,
    /// Lock-step engine buffers.
    batch: sg_sim::BatchArena,
    /// One strategy instance per family, for scalar runs. Grids
    /// rarely cross more than a handful of families per worker.
    adversaries: MruPool<FamilyKey, Box<dyn Adversary>, 8>,
    /// Lock-step kernels by the exact `(spec, config)` they were built
    /// for, [`KERNEL_CACHE_CAP`] of them.
    kernels:
        MruPool<(AlgorithmSpec, RunConfig), Box<dyn sg_sim::BatchKernel + Send>, KERNEL_CACHE_CAP>,
}

/// How many lock-step kernels a [`SweepScratch`] retains: the widest
/// rotation a worker cycles through — every king grid the benchmark
/// runs (`king-expedite`, `king-fullround`, the journal's delta and
/// the daemon's `serve-stream` jobs) walks three king specs at three
/// sizes, nine `(spec, config)` keys — so a job finds every kernel the
/// previous one built. A smaller pool evicts each kernel before the
/// next job comes back for it, and every job rebuilds all nine (a box
/// and five buffers each). `sg_sim`'s instance pool is sized the same
/// way, for `tree-paper`'s seven specs.
const KERNEL_CACHE_CAP: usize = 9;

impl SweepScratch {
    /// Drops the pooled protocol instances for `key`
    /// ([`SweepConfig::pool_key`]), leaving every other key warm — the
    /// recovery step for an owner that caught a panic out of
    /// [`CellCursor::advance`]. Everything the panicking chunk had
    /// checked out was dropped by the unwind and every buffer is
    /// overwritten at the start of each run, so the scratch stays usable.
    pub fn evict_instances(&mut self, key: sg_sim::PoolKey) {
        self.arena.evict_instances(key);
    }
}

thread_local! {
    /// The scratch of a [`SweepPlan::run`] pool thread.
    static SCRATCH: RefCell<SweepScratch> = RefCell::default();
}

/// A sweep grid: `configs × adversaries × seeds_per_cell` executions.
#[derive(Clone, Debug)]
pub struct SweepPlan {
    /// Protocol instantiations (grid axis 1).
    pub configs: Vec<SweepConfig>,
    /// Adversary families (grid axis 2).
    pub adversaries: Vec<AdversaryFamily>,
    /// Runs per `(config, adversary)` cell (grid axis 3).
    pub seeds_per_cell: u64,
    /// Base of the per-cell seed streams (see the module docs).
    pub base_seed: u64,
    /// Whether the plan's runs may stop early (`true` by default) — part
    /// of *which executions the plan asks for*, like the seeds: it
    /// travels on the wire and selects the journal epoch
    /// ([`SweepPlan::epoch`]).
    pub early_stopping: bool,
}

impl SweepPlan {
    /// A plan over the full grid with `base_seed = 0`.
    pub fn new(
        configs: Vec<SweepConfig>,
        adversaries: Vec<AdversaryFamily>,
        seeds_per_cell: u64,
    ) -> Self {
        SweepPlan {
            configs,
            adversaries,
            seeds_per_cell,
            base_seed: 0,
            early_stopping: true,
        }
    }

    /// Sets the base seed (shifts every cell's stream).
    pub fn with_base_seed(mut self, base_seed: u64) -> Self {
        self.base_seed = base_seed;
        self
    }

    /// Asks for full static schedules: every run executes under
    /// [`RunConfig::fixed_length`].
    pub fn fixed_length(mut self) -> Self {
        self.early_stopping = false;
        self
    }

    /// The engine configuration of cell row `ci`'s runs.
    fn run_config(&self, ci: usize) -> RunConfig {
        let mut config = self.configs[ci].run_config();
        config.early_stopping = self.early_stopping;
        config
    }

    /// The adversary seed of run `si` in cell `(ci, ai)` — the module
    /// docs' scheme, a pure function of grid coordinates.
    pub fn seed_for(&self, ci: usize, ai: usize, si: u64) -> u64 {
        let stream = self.base_seed
            ^ (ci as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ (ai as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        stream.wrapping_add(si)
    }

    /// Total executions the plan describes.
    pub fn total_runs(&self) -> u64 {
        self.configs.len() as u64 * self.adversaries.len() as u64 * self.seeds_per_cell
    }

    /// Executes the plan on [`jobs`] workers.
    ///
    /// # Panics
    ///
    /// Panics if the plan is empty, a spec rejects its `(n, t)`, or any
    /// execution violates agreement — sweeps double as correctness
    /// checks, exactly like the sequential harness they replaced.
    pub fn run(&self) -> SweepReport {
        self.run_with_jobs(jobs())
    }

    /// Executes the plan on an explicit worker count (1 = sequential).
    /// Output is bit-identical across worker counts.
    pub fn run_with_jobs(&self, jobs: usize) -> SweepReport {
        assert!(
            !self.configs.is_empty() && !self.adversaries.is_empty() && self.seeds_per_cell > 0,
            "empty sweep plan"
        );
        let cells: Vec<usize> = (0..self.cell_count()).collect();
        SweepReport {
            total_runs: self.total_runs(),
            cells: self.run_cells_with_jobs(&cells, jobs),
        }
    }

    /// Executes only the cells named by flat index, through the same
    /// chunked parallel executor as [`SweepPlan::run_with_jobs`] (which
    /// passes the full range), returning one report per entry in `cells`
    /// order. This is what makes the journal-warm path bit-identical to
    /// a cold run: a miss set of any shape still executes with the cold
    /// path's exact chunking.
    pub(crate) fn run_cells_with_jobs(&self, cells: &[usize], jobs: usize) -> Vec<CellReport> {
        if cells.is_empty() {
            return Vec::new();
        }
        let shared = Arc::new(self.clone());
        // A unit is one chunk: up to 64 consecutive seeds of one cell.
        // Chunks come back in unit order and each cell's are appended to
        // its first, so the report bytes depend on neither the worker
        // interleaving nor how `run_chunk` executed each unit (pinned by
        // `tests/engine_identity.rs`).
        let chunk = sg_sim::MAX_BATCH_RUNS as u64;
        let seeds = self.seeds_per_cell;
        let units: Vec<(usize, usize, u64, u64)> = cells
            .iter()
            .flat_map(|&cell| {
                let (ci, ai) = self.cell_coords(cell);
                (0..seeds)
                    .step_by(chunk as usize)
                    .map(move |si0| (ci, ai, si0, chunk.min(seeds - si0)))
            })
            .collect();
        let chunks = sweep_map_with_jobs(units, jobs, move |(ci, ai, si0, len)| {
            // A cell's first chunk holds the whole cell in the end.
            let mut samples = Vec::with_capacity(if si0 == 0 { seeds } else { len } as usize);
            SCRATCH.with(|scratch| {
                shared.run_chunk(&mut scratch.borrow_mut(), ci, ai, si0, len, &mut samples);
            });
            samples
        });

        let mut chunks = chunks.into_iter();
        cells
            .iter()
            .map(|&cell| {
                let (ci, ai) = self.cell_coords(cell);
                let mut samples = chunks.next().expect("a cell's first chunk");
                while (samples.len() as u64) < seeds {
                    samples.extend(chunks.next().expect("the cell's next chunk"));
                }
                self.cell_report(ci, ai, samples)
            })
            .collect()
    }

    /// Number of `(config, adversary)` cells in the grid.
    pub fn cell_count(&self) -> usize {
        self.configs.len() * self.adversaries.len()
    }

    /// Grid coordinates `(ci, ai)` of flat cell index `cell`, row-major
    /// over `configs × adversaries` — the order [`SweepPlan::run`] emits
    /// cells in.
    ///
    /// # Panics
    ///
    /// Panics if `cell >= cell_count()`.
    pub fn cell_coords(&self, cell: usize) -> (usize, usize) {
        assert!(cell < self.cell_count(), "cell index out of range");
        (cell / self.adversaries.len(), cell % self.adversaries.len())
    }

    /// A resumable executor for cell `cell` — the unit the `sg-serve`
    /// scheduler interleaves jobs at. See [`CellCursor`].
    ///
    /// # Panics
    ///
    /// Panics if `cell >= cell_count()`.
    pub fn cell_cursor(&self, cell: usize) -> CellCursor<'_> {
        let (ci, ai) = self.cell_coords(cell);
        CellCursor {
            plan: self,
            ci,
            ai,
            next_si: 0,
            samples: Vec::with_capacity(self.seeds_per_cell as usize),
        }
    }

    /// Assembles the [`CellReport`] of cell `(ci, ai)` from its run-order
    /// samples — shared by [`SweepPlan::run`] and [`CellCursor::finish`],
    /// so both produce identical bytes.
    fn cell_report(&self, ci: usize, ai: usize, samples: Vec<Sample>) -> CellReport {
        let config = &self.configs[ci];
        let summaries = crate::montecarlo::summarize(&samples);
        CellReport {
            spec_name: config.spec.name(),
            n: config.n,
            t: config.t,
            adversary: self.adversaries[ai].name().to_string(),
            first_seed: self.seed_for(ci, ai, 0),
            early_stop_rate: early_stop_rate(&samples),
            samples,
            summaries,
        }
    }

    /// The one way a run executes: appends the samples of runs
    /// `si0 .. si0 + len` (`len ≤ 64`) of cell `(ci, ai)` to `out`, in
    /// seed order.
    ///
    /// When the cell has a lock-step kernel (the king family on eligible
    /// configurations) and its family a vector shape, the whole chunk
    /// executes in one [`sg_sim::run_batch_with`] call; everything else —
    /// other specs, the gear shifts among them, families without a vector
    /// shape, a 1-seed tail — runs seed by seed on the scalar engine.
    /// Both emit identical samples.
    fn run_chunk(
        &self,
        scratch: &mut SweepScratch,
        ci: usize,
        ai: usize,
        si0: u64,
        len: u64,
        out: &mut Vec<Sample>,
    ) {
        let lockstep = len > 1 && self.run_chunk_lockstep(scratch, ci, ai, si0, len, out);
        if !lockstep {
            out.extend((0..len).map(|k| self.run_scalar(scratch, ci, ai, si0 + k)));
        }
    }

    /// The lock-step fast path: all `len` seeds of the chunk execute
    /// simultaneously, one bit lane per run, their faults injected by a
    /// [`BatchFamily`] (one fault set, one `lies` call per round, no
    /// strategy built). Returns `false`, with `out` untouched and nothing
    /// run, when the cell is not batch-eligible (no kernel for the spec,
    /// or no vector shape for the family).
    fn run_chunk_lockstep(
        &self,
        scratch: &mut SweepScratch,
        ci: usize,
        ai: usize,
        si0: u64,
        len: u64,
        out: &mut Vec<Sample>,
    ) -> bool {
        let config = &self.configs[ci];
        let run_config = self.run_config(ci);
        let family = &self.adversaries[ai];

        let kernel_key = (config.spec, run_config);
        let Some(mut kernel) = scratch
            .kernels
            .take(&kernel_key)
            .or_else(|| sg_core::batch_kernel(&config.spec, &run_config))
        else {
            return false;
        };

        let seeds: [u64; sg_sim::MAX_BATCH_RUNS] =
            std::array::from_fn(|k| self.seed_for(ci, ai, si0 + k as u64));
        let seeds = &seeds[..len as usize];
        let Some(mut batch) = BatchFamily::new(family.family(), seeds) else {
            scratch.kernels.put(kernel_key, kernel);
            return false;
        };
        sg_sim::run_batch_with(&mut scratch.batch, &run_config, kernel.as_mut(), &mut batch);
        scratch.kernels.put(kernel_key, kernel);

        for (result, seed) in scratch.batch.results().iter().zip(seeds) {
            assert!(
                result.agreement,
                "{} violated agreement under {} at seed {seed}",
                config.spec.name(),
                family.name(),
            );
            out.push(Sample {
                lock_in: result.lock_in as u64,
                // The king family discovers no faults.
                discoveries: 0,
                total_bits: result.total_bits,
                max_local_ops: result.max_local_ops,
                rounds: result.rounds_used as u64,
                early_stopped: result.early_stopped,
            });
        }
        true
    }

    /// The scalar fallback: run `si` of cell `(ci, ai)` through
    /// [`sg_core::execute_into`] on the scratch's arena and outcome
    /// buffer, with the family's strategy instance recycled through
    /// [`sg_sim::Adversary::reseed`] (rebuilt where the strategy
    /// declines — the default).
    ///
    /// The run records no event log: its lock-in and discoveries come
    /// from the engine's folds, reported when the cell samples them
    /// ([`SweepConfig::trace`]) and 0 otherwise — the numbers a walk of
    /// the traced run's log gives (`tests/engine_identity.rs` holds the
    /// sweep to that walk on the reference engine).
    fn run_scalar(&self, scratch: &mut SweepScratch, ci: usize, ai: usize, si: u64) -> Sample {
        let config = &self.configs[ci];
        let run_config = RunConfig {
            trace: false,
            ..self.run_config(ci)
        };
        let family = &self.adversaries[ai];
        let seed = self.seed_for(ci, ai, si);
        let family_key = family.pool_key();
        let mut adversary = scratch
            .adversaries
            .take(&family_key)
            .and_then(|mut warm| warm.reseed(seed).then_some(warm))
            .unwrap_or_else(|| family.instantiate(seed));
        let out = &mut scratch.outcome;
        sg_core::execute_into(
            &mut scratch.arena,
            config.spec,
            &run_config,
            adversary.as_mut(),
            out,
        )
        .unwrap_or_else(|e| panic!("{}: {e}", config.spec.name()));
        assert!(
            out.agreement(),
            "{} violated agreement under {} at seed {seed}",
            config.spec.name(),
            family.name(),
        );
        scratch.adversaries.put(family_key, adversary);
        let sampled = |fold: u64| if config.trace { fold } else { 0 };
        Sample {
            lock_in: sampled(out.lock_in as u64),
            discoveries: sampled(out.discoveries),
            total_bits: out.metrics.total_bits(),
            max_local_ops: out.metrics.max_local_ops(),
            rounds: out.rounds_used as u64,
            early_stopped: out.early_stopped,
        }
    }
}

/// A resumable, preemptible executor for one `(config, adversary)` cell.
///
/// [`SweepPlan::run`] fans every chunk of every cell onto a rayon pool
/// and joins; a long-lived service cannot afford that shape — it needs
/// to *interleave* cells of concurrent jobs on a fixed worker pool and
/// abandon a cell mid-flight when its job is cancelled. A cursor is that
/// unit of scheduling: created per cell, [advanced](CellCursor::advance)
/// one chunk (≤ 64 runs) at a time through the same `run_chunk` the pool
/// threads execute — the scheduler checks its cancel flag and deadline in
/// between — and [`CellCursor::finish`]ed into a [`CellReport`] that is
/// bit-identical to the corresponding cell of [`SweepPlan::run`]
/// (`tests/engine_identity.rs`).
///
/// Chunks execute in the caller's [`SweepScratch`], so a worker that
/// holds one for its whole life performs no steady-state allocations and
/// keeps instances, strategies and kernels warm across cells — and
/// across jobs.
#[derive(Debug)]
pub struct CellCursor<'p> {
    plan: &'p SweepPlan,
    ci: usize,
    ai: usize,
    next_si: u64,
    samples: Vec<Sample>,
}

impl CellCursor<'_> {
    /// Runs not yet executed.
    pub fn remaining(&self) -> u64 {
        self.plan.seeds_per_cell - self.next_si
    }

    /// Whether every run of the cell has executed.
    pub fn is_done(&self) -> bool {
        self.next_si == self.plan.seeds_per_cell
    }

    /// Executes the cell's next chunk — up to
    /// [`sg_sim::MAX_BATCH_RUNS`] runs — in `scratch`, returning how many
    /// runs it held (0 when already done).
    pub fn advance(&mut self, scratch: &mut SweepScratch) -> u64 {
        let len = self.remaining().min(sg_sim::MAX_BATCH_RUNS as u64);
        if len > 0 {
            let samples = &mut self.samples;
            self.plan
                .run_chunk(scratch, self.ci, self.ai, self.next_si, len, samples);
            self.next_si += len;
        }
        len
    }

    /// Assembles the finished cell's report.
    ///
    /// # Panics
    ///
    /// Panics if the cell is not [`CellCursor::is_done`] — an abandoned
    /// (cancelled) cursor is dropped, never finished.
    pub fn finish(self) -> CellReport {
        assert!(self.is_done(), "cell cursor finished early");
        self.plan.cell_report(self.ci, self.ai, self.samples)
    }
}

/// Results of one `(config, adversary)` cell.
#[derive(Clone, PartialEq, Debug)]
pub struct CellReport {
    /// Algorithm name.
    pub spec_name: String,
    /// System size.
    pub n: usize,
    /// Fault bound.
    pub t: usize,
    /// Adversary family name.
    pub adversary: String,
    /// The seed of the cell's first run (run `si` used `first_seed + si`).
    pub first_seed: u64,
    /// Fraction of the cell's runs that terminated before their static
    /// schedule ended.
    pub early_stop_rate: f64,
    /// Per-run samples, in run order.
    pub samples: Vec<Sample>,
    /// `[lock-in, discoveries, total bits, max local ops, rounds]`
    /// summaries.
    pub summaries: [Summary; 5],
}

impl CellReport {
    /// Renders the cell as one aligned table line (newline-terminated) —
    /// the row format of [`SweepReport::render`], also used by clients
    /// streaming cells one at a time.
    pub fn render_line(&self) -> String {
        let [lock, disc, bits, ops, rounds] = &self.summaries;
        format!(
            "{:<24} n={:<3} t={:<2} {:<16} lock-in {:<14} discoveries {:<14} bits {:<20} ops \
             {:<20} rounds {:<14} early-stop {:.0}%\n",
            self.spec_name,
            self.n,
            self.t,
            self.adversary,
            lock.render(),
            disc.render(),
            bits.render(),
            ops.render(),
            rounds.render(),
            self.early_stop_rate * 100.0,
        )
    }
}

/// The full sweep output: one [`CellReport`] per `(config, adversary)`
/// pair, in grid order. `PartialEq` compares every sample and statistic,
/// which is how the determinism tests assert bit-identical serial vs.
/// parallel execution.
#[derive(Clone, PartialEq, Debug)]
pub struct SweepReport {
    /// Executions performed.
    pub total_runs: u64,
    /// Per-cell results in `(config, adversary)` grid order.
    pub cells: Vec<CellReport>,
}

/// Order-sensitive FNV-1a fingerprint over sweep samples.
///
/// This is the determinism contract's currency: the batch path
/// ([`SweepReport::fingerprint`]), the journal's warm reports and the
/// `sg-serve` daemon's summary frame all reduce their samples through
/// this builder *in grid order*, so a fingerprint match
/// means bit-identical samples whatever path produced them. Mixing is
/// incremental — a streaming consumer can fold cells in as they arrive,
/// as long as it folds them in grid order.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Fingerprint(u64);

impl Fingerprint {
    /// The FNV-1a offset basis — an empty fingerprint.
    pub fn new() -> Self {
        Fingerprint(sg_sim::fnv::OFFSET)
    }

    /// Folds one `u64` into the hash as its eight little-endian bytes.
    ///
    /// The fold is exact FNV-1a, byte for byte, but costs only the
    /// word's significant bytes: the zero bytes above its highest set
    /// byte leave the XOR unchanged, so they collapse into one multiply
    /// by a power of the prime ([`sg_sim::fnv::mix_word`]). Samples are
    /// small numbers, so most of a sample's 32 bytes are such zeros.
    pub fn mix_u64(&mut self, v: u64) {
        self.0 = sg_sim::fnv::mix_word(self.0, v);
    }

    /// Folds raw bytes into the hash — used by the journal's
    /// content-address derivations, which fingerprint canonical wire
    /// encodings rather than samples.
    pub fn mix_bytes(&mut self, bytes: &[u8]) {
        self.0 = sg_sim::fnv::mix_bytes(self.0, bytes);
    }

    /// Folds one sample — deliberately the four original quantities
    /// only, in field order. The `rounds`/`early_stopped` fields added
    /// with the early-stopping engine are *not* mixed, so fixed-length
    /// ([`SweepPlan::fixed_length`]) sweeps keep their historical
    /// fingerprint (`40c18433ac711905`); early-stopped
    /// runs still perturb the hash through `total_bits`, which shrinks
    /// with every saved round.
    pub fn mix_sample(&mut self, s: &Sample) {
        for v in fingerprinted(s) {
            self.mix_u64(v);
        }
    }

    /// Folds one cell's samples in run order: exactly
    /// [`Fingerprint::mix_sample`] on every sample, but a leading run
    /// of at least 16 equal rows (`COMPILED_RUN`; a correct-source king
    /// cell is one row repeated 64 times) compiles its row's FNV-1a
    /// steps once ([`sg_sim::fnv::CompiledRow`]: one xor-multiply per
    /// non-zero byte, every zero tail and zero word merged into a
    /// multiplier) and folds them once per row. The rows after it fold
    /// one by one.
    pub fn mix_cell(&mut self, cell: &CellReport) {
        let samples = &cell.samples;
        let mut lead = crate::montecarlo::leading_run(samples);
        if lead >= COMPILED_RUN {
            let steps = sg_sim::fnv::CompiledRow::new(fingerprinted(&samples[0]));
            self.0 = steps.fold(self.0, lead);
        } else {
            lead = 0;
        }
        for s in &samples[lead..] {
            self.mix_sample(s);
        }
    }

    /// The current hash value.
    pub fn value(&self) -> u64 {
        self.0
    }

    /// The hash as the 16-digit lower-hex string the JSON artifacts use.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }

    /// Parses a [`Fingerprint::hex`]-formatted string.
    pub fn parse_hex(s: &str) -> Option<u64> {
        let s = s.trim().trim_start_matches("0x");
        if s.is_empty() || s.len() > 16 {
            return None;
        }
        u64::from_str_radix(s, 16).ok()
    }

    /// The `--expect-fingerprint` cross-check shared by the `sg` and
    /// `repro` binaries: `Ok` carries the success line to print, `Err`
    /// the mismatch report (the caller exits non-zero on `Err` — that
    /// exit-code contract is what CI's `&&` chains rely on).
    ///
    /// # Errors
    ///
    /// Returns the mismatch message when `actual != expected`.
    pub fn cross_check(expected: u64, actual: u64) -> Result<String, String> {
        if actual == expected {
            Ok(format!("fingerprint cross-check ok ({actual:016x})"))
        } else {
            Err(format!(
                "FINGERPRINT MISMATCH: expected {expected:016x}, got {actual:016x} — \
                 the sweep did not reproduce the reference output"
            ))
        }
    }
}

/// The shortest leading run [`Fingerprint::mix_cell`] compiles: a
/// compile costs about what a dozen rows save by it (`run_loop`'s
/// `reduce/*`), so a shorter run folds row by row.
const COMPILED_RUN: usize = 16;

/// The words [`Fingerprint`] folds for one sample, in field order.
fn fingerprinted(s: &Sample) -> [u64; sg_sim::fnv::ROW_WORDS] {
    [s.lock_in, s.discoveries, s.total_bits, s.max_local_ops]
}

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint::new()
    }
}

impl SweepReport {
    /// The report's [`Fingerprint`] over every sample in grid order.
    pub fn fingerprint(&self) -> u64 {
        let mut fp = Fingerprint::new();
        for cell in &self.cells {
            fp.mix_cell(cell);
        }
        fp.value()
    }

    /// [`SweepReport::fingerprint`] as the artifact hex string.
    pub fn fingerprint_hex(&self) -> String {
        format!("{:016x}", self.fingerprint())
    }

    /// Renders one line per cell: `spec n t adversary lock-in disc bits ops`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for cell in &self.cells {
            out.push_str(&cell.render_line());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_plan() -> SweepPlan {
        SweepPlan::new(
            vec![
                SweepConfig::traced(AlgorithmSpec::Exponential, 7, 2),
                SweepConfig::traced(AlgorithmSpec::Hybrid { b: 3 }, 10, 3),
            ],
            vec![
                AdversaryFamily::random_liar(FaultSelection::with_source()),
                AdversaryFamily::no_faults(),
            ],
            3,
        )
    }

    #[test]
    fn seeding_is_coordinate_pure() {
        let plan = small_plan();
        assert_eq!(plan.seed_for(0, 0, 0), 0);
        assert_eq!(plan.seed_for(0, 0, 5), 5);
        assert_ne!(plan.seed_for(1, 0, 0), plan.seed_for(0, 1, 0));
        let shifted = small_plan().with_base_seed(99);
        assert_eq!(shifted.seed_for(0, 0, 0), 99);
    }

    #[test]
    fn serial_and_parallel_reports_are_identical() {
        let plan = small_plan();
        let serial = plan.run_with_jobs(1);
        let parallel = plan.run_with_jobs(4);
        assert_eq!(serial, parallel);
        assert_eq!(serial.total_runs, 12);
        assert_eq!(serial.cells.len(), 4);
        assert!(serial.render().contains("hybrid"));
    }

    #[test]
    fn cell_cursors_reproduce_the_batch_report() {
        // A lock-step kernel cell and a scalar tree cell, 65 seeds each:
        // every cursor crosses the 64-run chunk boundary into a 1-seed
        // tail.
        let plan = SweepPlan::new(
            vec![
                SweepConfig::traced(AlgorithmSpec::OptimalKing, 10, 3),
                SweepConfig::traced(AlgorithmSpec::Hybrid { b: 3 }, 10, 3),
            ],
            vec![
                AdversaryFamily::random_liar(FaultSelection::with_source()),
                AdversaryFamily::no_faults(),
            ],
            65,
        );
        let batch = plan.run_with_jobs(2);
        let mut scratch = SweepScratch::default();
        for cell in 0..plan.cell_count() {
            let mut cursor = plan.cell_cursor(cell);
            assert_eq!(cursor.advance(&mut scratch), 64);
            if cell == 0 {
                // The king chunk under random-liar ran at word width and
                // built no strategy; only its scalar tail pools one.
                assert!(
                    scratch.adversaries.is_empty(),
                    "a vector chunk pooled a strategy"
                );
            }
            assert_eq!(cursor.remaining(), 1);
            assert_eq!(cursor.advance(&mut scratch), 1);
            if cell == 0 {
                assert_eq!(
                    scratch.adversaries.len(),
                    1,
                    "the scalar tail pools its strategy"
                );
            }
            assert!(cursor.is_done());
            assert_eq!(cursor.advance(&mut scratch), 0);
            assert_eq!(cursor.finish(), batch.cells[cell]);
        }
        assert!(
            scratch.arena.pooled_instance_sets() > 0 && !scratch.kernels.is_empty(),
            "scratch pools stayed cold"
        );
    }

    #[test]
    fn fingerprint_matches_streaming_fold() {
        let plan = small_plan();
        let report = plan.run_with_jobs(1);
        let mut streaming = Fingerprint::new();
        for cell in &report.cells {
            streaming.mix_cell(cell);
        }
        assert_eq!(streaming.value(), report.fingerprint());
        assert_eq!(streaming.hex(), report.fingerprint_hex());
        assert_eq!(
            Fingerprint::parse_hex(&streaming.hex()),
            Some(streaming.value())
        );
        assert_eq!(Fingerprint::parse_hex("zz"), None);
        assert_ne!(report.fingerprint(), Fingerprint::new().value());
    }

    #[test]
    fn cell_coords_are_row_major() {
        let plan = small_plan();
        assert_eq!(plan.cell_count(), 4);
        assert_eq!(plan.cell_coords(0), (0, 0));
        assert_eq!(plan.cell_coords(1), (0, 1));
        assert_eq!(plan.cell_coords(3), (1, 1));
    }

    #[test]
    fn sweep_map_preserves_order() {
        let out = sweep_map_with_jobs((0..32usize).collect(), 4, |i| i * 3);
        assert_eq!(out, (0..32).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn jobs_setting_round_trips() {
        set_jobs(3);
        assert_eq!(jobs(), 3);
        set_jobs(0);
        assert!(jobs() >= 1);
    }
}
