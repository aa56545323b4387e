//! The gather / discover / convert passes allocate per *level*, never
//! per *node*: each call's allocation count is a small function of the
//! tree's depth and identical for a 517-node and a 13 345-node tree.
//!
//! This file holds a single test on purpose — the counter is per thread,
//! but one test per binary also keeps the harness quiet while it runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sg_eigtree::{
    convert, discover_during_conversion, discover_ig, Conversion, FaultList, IgTree, RepTree,
};
use sg_sim::{ProcessId, ProcessSet, Value};

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

/// One sender lies about every other node: each internal node sees at
/// most one dissenting child, so discovery and conversion have something
/// to count but blame nobody (a discovery would add its own push).
fn minority_lie(parent: usize, sender: ProcessId) -> Value {
    Value(u16::from(sender != ProcessId(3) || parent % 2 == 1))
}

const DEPTH: usize = 4;

/// Allocation counts of `[append ×4, discover_ig, convert, convert',
/// discover_during_conversion, mask_level]` on an `n`-processor tree.
fn profile(n: usize, t: usize) -> Vec<u64> {
    let mut tree = IgTree::new(n, ProcessId(0));
    tree.set_root(Value(1));
    let mut counts: Vec<u64> = (0..DEPTH)
        .map(|_| allocations_of(|| tree.append_level(minority_lie)).0)
        .collect();

    let snapshot = FaultList::new(n);
    let (a, report) = allocations_of(|| discover_ig(&tree, t, &snapshot));
    assert!(report.discovered.is_empty(), "n={n}: {report:?}");
    counts.push(a);
    for conversion in [Conversion::Resolve, Conversion::ResolvePrime { t }] {
        let (a, converted) = allocations_of(|| convert(&tree, conversion));
        counts.push(a);
        if matches!(conversion, Conversion::ResolvePrime { .. }) {
            let (a, report) =
                allocations_of(|| discover_during_conversion(&tree, &converted, t, &snapshot));
            assert!(report.discovered.is_empty(), "n={n}: {report:?}");
            counts.push(a);
        }
    }
    let masked = ProcessSet::from_members(n, [ProcessId(2)]);
    counts.push(allocations_of(|| tree.mask_level(DEPTH, &masked)).0);
    counts
}

#[test]
fn tree_passes_allocate_per_level_not_per_node() {
    // The first pass over each shape pays for the shared label table's
    // one-time construction; the second is the steady state.
    let steady = |n, t| {
        profile(n, t);
        profile(n, t)
    };
    let small = steady(7, 1); // 1 + 6 + 30 + 120 + 360 nodes
    let large = steady(13, 4); // 1 + 12 + 132 + 1320 + 11880 nodes
    assert_eq!(
        small, large,
        "allocation counts must not depend on level size"
    );
    let [appends @ .., discover, resolve, resolve_prime, during, mask] = &large[..] else {
        panic!("profile shape");
    };
    // One level vector per append (plus the outer vector's growth).
    assert!(appends.iter().all(|&a| a <= 2), "{appends:?}");
    // Nobody is blamed, so nothing is recorded.
    assert_eq!((*discover, *during), (0, 0));
    assert_eq!(*mask, 0);
    // One vector per converted level plus the outer one.
    assert_eq!(
        (*resolve, *resolve_prime),
        (DEPTH as u64 + 2, DEPTH as u64 + 2)
    );

    // Algorithm C's gather cycle reuses its n×n buffer: nothing after the
    // first round.
    let n = 32;
    let mut rep = RepTree::new(n, ProcessId(0));
    rep.set_root(Value(1));
    rep.store_intermediates(|_| Value(1));
    let snapshot = FaultList::new(n);
    let mut cycle = || {
        allocations_of(|| {
            rep.store_leaves(minority_lie);
            let report = rep.discover_intermediates(4, &snapshot);
            assert!(report.discovered.is_empty());
            rep.reorder();
            rep.convert_to_intermediates();
        })
        .0
    };
    cycle();
    assert_eq!(cycle(), 0);
}
