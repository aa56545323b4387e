//! Per-run set-up is `O(t·n)`, never `O(n²)`, and a warm tree gather
//! allocates nothing: an early-stopped run of every `tree-paper` spec on
//! a warm arena allocates the same small constant at `exponential n = 10`
//! and at `algorithm-c n = 32`. A warm fixed-length gear run, whose
//! processors shift, builds no trace label untraced.
//!
//! This file holds a single test on purpose — the counter is per thread,
//! but one test per binary also keeps the harness quiet while it runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sg_adversary::{Family, FaultSelection};
use sg_analysis::TREE_PAPER_CELLS;
use sg_core::{execute_into, AlgorithmSpec};
use sg_sim::{Adversary, NoFaults, Outcome, RunArena, RunConfig, TraceEvent};

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

/// What a warm early-stopped run may allocate, whatever `n` is: the fault
/// set `Adversary::corrupt` returns (moved into the outcome, so the engine
/// cannot reuse it). Everything else — round tables, inbox, contexts,
/// instances, tree levels, the gather scratch, results — is warm.
const PER_RUN: u64 = 1;

#[test]
fn warm_early_stopped_tree_runs_allocate_a_constant() {
    let mut arena = RunArena::new();
    let mut out = Outcome::buffer();
    let liar = || Family::RandomLiar(FaultSelection::without_source()).strategy(7);
    for (spec, n) in TREE_PAPER_CELLS {
        let config = RunConfig::new(n, spec.max_resilience(n));
        // The chain revealer relays its shadows until round 2: each is
        // the processor's own broadcast, cloned per faulty edge — free as
        // long as no payload on the wire is a heap-held vector.
        let adversaries: [Box<dyn Adversary>; 3] = [
            Box::new(NoFaults),
            liar(),
            Family::ChainRevealer {
                selection: FaultSelection::without_source(),
                start: 2,
                block: 2,
            }
            .strategy(7),
        ];
        for mut adversary in adversaries {
            let mut run = |seed: u64| {
                adversary.reseed(seed);
                allocations_of(|| {
                    execute_into(&mut arena, spec, &config, adversary.as_mut(), &mut out)
                        .expect("a tree-paper cell is valid");
                })
                .0
            };
            run(1);
            let warm = run(2);
            assert!(out.early_stopped && out.rounds_used == 2, "{}", spec.name());
            assert!(
                warm <= PER_RUN,
                "{} n={n} under {}: {warm} allocations in a warm run",
                spec.name(),
                out.adversary,
            );
        }
    }

    // A warm fixed-length gear run: every processor emits a trace event at
    // each shift, whose conversion label an untraced run must not build.
    // Built anyway, each label is one allocation per processor per shift
    // (13 × 2 and 16 × 5 more than pinned here).
    for (spec, n, shifts, pinned) in [
        (AlgorithmSpec::KingShift { b: 3 }, 13, 2, 66),
        (AlgorithmSpec::Hybrid { b: 3 }, 16, 5, 273),
    ] {
        let config = RunConfig::new(n, spec.max_resilience(n)).fixed_length();
        let mut run = |config: &RunConfig, out: &mut Outcome| {
            allocations_of(|| {
                execute_into(&mut arena, spec, config, &mut NoFaults, out)
                    .expect("a valid gear cell");
            })
            .0
        };
        run(&config.with_trace(), &mut out);
        let labels = out
            .trace
            .entries()
            .iter()
            .filter(|e| matches!(e.event, TraceEvent::Shift { .. }))
            .count();
        assert_eq!(labels, n * shifts, "{}: shift events", spec.name());
        run(&config, &mut out);
        let warm = run(&config, &mut out);
        assert_eq!(
            warm,
            pinned,
            "{} n={n}: allocations in a warm fixed-length run",
            spec.name()
        );
    }
}
