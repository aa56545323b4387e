//! The allocation floor of the cell text codec, on two 64-sample king
//! cells — the shape a journal line and an `sg-serve/1` cell frame carry
//! by the hundred: one with nearly every row distinct, and one whose
//! rows are a single row repeated, as every `king-expedite` cell's are.
//!
//! `CellReport::write_text` formats every sample row on the stack, so a
//! warm write into a string that already holds a cell allocates nothing.
//! `CellReport::from_text` allocates what the decoded cell owns and
//! nothing more: its two names and its samples vector, sized from the
//! text before the first row is read, so it never regrows.
//!
//! This file holds a single test on purpose: the counter is per thread,
//! and one test per binary keeps the harness quiet while it runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sg_adversary::FaultSelection;
use sg_analysis::{AdversaryFamily, CellReport, SweepConfig, SweepPlan};
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

#[test]
fn the_cell_text_codec_allocates_only_what_the_cell_owns() {
    let cell = |family: AdversaryFamily| {
        SweepPlan::new(
            vec![SweepConfig::traced(AlgorithmSpec::OptimalKing, 16, 5)],
            vec![family],
            64,
        )
        .run_with_jobs(1)
        .cells
        .swap_remove(0)
    };
    let varied = cell(AdversaryFamily::random_liar(FaultSelection::with_source()));
    // Crashes with a correct source: one row repeated 64 times, which
    // the writer appends from its first formatting and the reader copies.
    let run_heavy = cell(AdversaryFamily::crash(FaultSelection::without_source(), 2));
    assert!(run_heavy.samples.iter().all(|s| *s == run_heavy.samples[0]));

    for cell in [varied, run_heavy] {
        assert_eq!(cell.samples.len(), 64);

        // The first write sizes the string; the warm one reuses it.
        let mut text = String::new();
        cell.write_text(&mut text);
        let (writes, ()) = allocations_of(|| {
            text.clear();
            cell.write_text(&mut text);
        });
        assert_eq!(writes, 0, "allocations of a warm write_text");

        let (reads, read) = allocations_of(|| CellReport::from_text(&text));
        assert_eq!(read.as_ref(), Some(&cell));
        assert_eq!(
            reads, 3,
            "allocations of from_text: two names and the samples"
        );
    }
}
