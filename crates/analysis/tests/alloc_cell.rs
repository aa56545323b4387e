//! The allocation floor of a finished sweep job: a warm 36-cell
//! `king-expedite`-shaped plan (three king specs at n = 7, 16, 31 × four
//! honest-source families × 64 seeds) executed by `run_with_jobs(1)`,
//! and a warm `tree-paper`-shaped one (below).
//!
//! With a correct source every run ends at round 3, so much of a job is
//! what happens around its runs. Samples cost one vector per chunk, a
//! cell's first sized for the whole cell; a rise in the pinned count
//! means something copies them again.
//!
//! What is left against the ≤ 4 allocations per chunk the executor aims
//! at:
//! * each cell's report owns its `spec_name` and `adversary` `String`s;
//! * the executor clones the plan into an `Arc` for its workers, which
//!   copies the config and family vectors (a family is one shared
//!   `Arc`, so its clone allocates nothing).
//!
//! Two costs are gone and must stay gone; with both, this job read 282
//! and each one-cell job below 14. The rayon shim boxed two closures
//! per unit (the item and the map) and shared the map through an `Arc`.
//! The scratch pooled 4 kernels while the job walks 9 king configs, so
//! every job rebuilt all nine (a box and five buffers each); that alone
//! reads 209.
//!
//! The same test pins a warm `tree-paper`-shaped job: the seven
//! `TREE_PAPER_CELLS` × `random-liar` and `chain-revealer`, sparing the
//! source, × 4 seeds, every run on the scalar engine. It reads 129: the
//! cell floor above for 14 cells, and one allocation per run, the fault
//! set the adversary's `corrupt` returns (56). Each cell samples lock-in
//! and discoveries, but its runs record no event log: the engine folds
//! both as the events are emitted. When every run recorded its log and
//! the sample walked it, allocating a per-processor table for the
//! lock-in, this job read 207.
//!
//! This file holds a single test on purpose: the counter is per thread,
//! and one test per binary keeps the harness quiet while it runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sg_adversary::FaultSelection;
use sg_analysis::{AdversaryFamily, SweepConfig, SweepPlan, TREE_PAPER_CELLS};
use sg_core::AlgorithmSpec;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting this thread's allocating calls.
struct Counting;

// SAFETY: every operation is delegated verbatim to `System`; the only
// addition is a thread-local counter bump, which never allocates (the
// cell is const-initialized) and is skipped during thread teardown.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

fn allocations_of<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.with(Cell::get);
    let result = f();
    (ALLOCS.with(Cell::get) - before, result)
}

fn king_expedite(base_seed: u64) -> SweepPlan {
    let honest = FaultSelection::without_source;
    let configs = [
        AlgorithmSpec::OptimalKing,
        AlgorithmSpec::PhaseKing,
        AlgorithmSpec::PhaseQueen,
    ]
    .into_iter()
    .flat_map(|spec| {
        [7, 16, 31]
            .map(|n| SweepConfig::traced(spec, n, spec.max_resilience(n)))
            .into_iter()
    })
    .collect();
    SweepPlan::new(
        configs,
        vec![
            AdversaryFamily::random_liar(honest()),
            AdversaryFamily::crash(honest(), 2),
            AdversaryFamily::silent(honest()),
            AdversaryFamily::chain_revealer(honest(), 2, 2),
        ],
        64,
    )
    .with_base_seed(base_seed)
}

fn tree_paper(base_seed: u64) -> SweepPlan {
    let honest = FaultSelection::without_source;
    SweepPlan::new(
        TREE_PAPER_CELLS
            .iter()
            .map(|&(spec, n)| SweepConfig::traced(spec, n, spec.max_resilience(n)))
            .collect(),
        vec![
            AdversaryFamily::random_liar(honest()),
            AdversaryFamily::chain_revealer(honest(), 2, 2),
        ],
        4,
    )
    .with_base_seed(base_seed)
}

#[test]
fn a_warm_king_expedite_job_allocates_at_its_floor() {
    // The cold job sizes every pooled buffer and kernel on this thread.
    let (cold, _) = allocations_of(|| king_expedite(0).run_with_jobs(1));
    let plan = king_expedite(1);
    let (warm, report) = allocations_of(|| plan.run_with_jobs(1));
    assert!(cold > warm, "the counter is not counting");
    assert_eq!(report.cells.len(), 36);
    assert_eq!(warm, 155, "allocations of a warm 36-cell job");

    // One cell, one chunk: the floor's fixed part. Its kernel is the
    // first of the job's nine and the least recently used, so a pool
    // that cannot hold the whole rotation has evicted it; this cell
    // then reads 17: a kernel rebuilt (a box and five buffers) over the
    // floor.
    let one = SweepPlan::new(vec![plan.configs[0]], vec![plan.adversaries[0].clone()], 64);
    let (warm_one, _) = allocations_of(|| one.run_with_jobs(1));
    assert_eq!(warm_one, 11, "allocations of a warm one-cell job");

    // The fault-free baseline runs lock-step like any named family, so
    // its warm cell sits at the same floor. A chunk that built one
    // strategy per lane and per-lane view tables read 79 here.
    let none = SweepPlan::new(
        vec![plan.configs[0]],
        vec![AdversaryFamily::no_faults()],
        64,
    );
    none.run_with_jobs(1);
    let (warm_none, _) = allocations_of(|| none.run_with_jobs(1));
    assert_eq!(warm_none, 11, "allocations of a warm fault-free cell");

    let (cold, _) = allocations_of(|| tree_paper(0).run_with_jobs(1));
    let plan = tree_paper(1);
    let (warm, report) = allocations_of(|| plan.run_with_jobs(1));
    assert!(cold > warm, "the counter is not counting");
    assert_eq!(report.cells.len(), 14);
    assert_eq!(warm, 129, "allocations of a warm 14-cell tree-paper job");
}
