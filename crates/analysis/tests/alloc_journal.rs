//! The allocation floor of a warm journal lookup: a 36-cell
//! `king-expedite`-shaped plan (three king specs at n = 7, 16, 31 × four
//! honest-source families × 64 seeds) answered entirely from its store by
//! `run_with_journal` — 36 hits, nothing computed. The store is opened
//! outside the counted region, so the count is the lookup alone.
//!
//! Per plan: the keys (each row's config and each column's family
//! encoded once), each row's spec name, and the slot, miss and cell
//! vectors. Per hit: the three allocations of the text decode (two
//! names and the samples vector). A shape check that derives the spec
//! name per cell again reads 322 here: one more per cell, one fewer per
//! row.
//!
//! This file holds a single test on purpose: the counter is per thread,
//! and one test per binary keeps the harness quiet while it runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sg_adversary::FaultSelection;
use sg_analysis::{AdversaryFamily, SweepConfig, SweepPlan};
use sg_core::AlgorithmSpec;
use sg_journal::Journal;

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

#[test]
fn a_warm_all_hit_journal_job_allocates_at_its_floor() {
    let dir = std::env::temp_dir().join(format!("sg-alloc-journal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let plan = king_expedite(1);
    let cold = plan.run_with_journal(&mut Journal::open(&dir).expect("store"), 1);
    assert_eq!((cold.hits, cold.computed), (0, 36));

    let mut journal = Journal::open(&dir).expect("reopen");
    // One uncounted all-hit pass first, so nothing lazily built on first
    // use is charged to the counted one.
    plan.run_with_journal(&mut journal, 1);
    let (warm, sweep) = allocations_of(|| plan.run_with_journal(&mut journal, 1));
    assert_eq!((sweep.hits, sweep.computed), (36, 0));
    assert!(sweep.warnings.is_empty(), "{:?}", sweep.warnings);
    assert_eq!(sweep.report.cells, cold.report.cells);
    drop(journal);
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(warm, 295, "allocations of a warm all-hit 36-cell job");
}
