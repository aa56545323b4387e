//! A traced lock-step batch on a warm [`BatchArena`] allocates nothing:
//! snapshots, decisions, story rows and the per-lane accounting all live
//! in arena buffers that keep their capacity from one batch to the next.
//!
//! The kernel and the adversary are toys local to this file, so whatever
//! is counted belongs to the driver. This file holds a single test on
//! purpose — the counter is per thread, but one test per binary also
//! keeps the harness quiet while it runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sg_sim::batch::{BatchAdversary, BatchKernel, BatchNet, LaneView, LiarRows};
use sg_sim::{run_batch_with, BatchArena, ProcessId, ProcessSet, RunConfig};

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

const N: usize = 16;
const ROUNDS: usize = 12;

/// Majority flooding: every slot broadcasts its bit each round and adopts
/// the majority of what it hears; a preference event after every round.
struct Flood {
    current: Vec<u64>,
}

impl BatchKernel for Flood {
    fn total_rounds(&self) -> usize {
        ROUNDS
    }

    fn reset(&mut self, _lanes: usize) {
        // Slot `i` starts at 1 in the lanes whose index shares a bit with
        // `i`: a different split in every lane.
        for (i, word) in self.current.iter_mut().enumerate() {
            *word = (0..64).fold(0, |w, lane| w | u64::from(lane & i != 0) << lane);
        }
    }

    fn charge(&self, _round: usize) -> u64 {
        N as u64
    }

    fn snapshot_round(&self, _round: usize) -> bool {
        true
    }

    fn outgoing(&mut self, _round: usize, present: &mut [u64], one: &mut [u64], zero: &mut [u64]) {
        for j in 0..N {
            present[j] = !0;
            one[j] = self.current[j];
            zero[j] = !self.current[j];
        }
    }

    fn deliver(&mut self, _round: usize, net: &BatchNet<'_>, active: u64) {
        for i in 0..N {
            let majority = net.tally_one(i, self.current[i]).ge(N / 2 + 1);
            self.current[i] = (majority & active) | (self.current[i] & !active);
        }
    }

    fn ready(&self) -> &[u64] {
        &[0; N]
    }

    fn current(&self) -> &[u64] {
        &self.current
    }

    fn decision_one(&self, slot: usize) -> u64 {
        self.current[slot]
    }
}

/// Slots 1 and 2 are faulty in every lane and tell even recipients `1`,
/// odd recipients `0`, alternating by round: one story, told by both.
struct TwoFaced {
    lanes: usize,
    set: ProcessSet,
}

impl BatchAdversary for TwoFaced {
    fn lanes(&self) -> usize {
        self.lanes
    }

    fn corrupt_lanes(
        &mut self,
        _n: usize,
        _t: usize,
        _source: ProcessId,
        faulty: &mut [u64],
        fault_sets: &mut Vec<ProcessSet>,
    ) -> bool {
        for p in self.set.iter() {
            faulty[p.index()] = !0 >> (64 - self.lanes);
        }
        // Overwrite what the arena kept; allocate only on a cold start.
        for kept in fault_sets.iter_mut() {
            kept.clone_from(&self.set);
        }
        while fault_sets.len() < self.lanes {
            fault_sets.push(self.set.clone());
        }
        true
    }

    fn lies(&mut self, view: &LaneView<'_>, rows: &mut LiarRows) {
        let members = self.set.iter().fold(0u64, |m, p| m | 1 << p.index());
        let (one, zero) = rows.story(members);
        for r in 0..view.n {
            if (r + view.round).is_multiple_of(2) {
                one[r] = view.active;
            } else {
                zero[r] = view.active;
            }
        }
    }
}

#[test]
fn a_warm_traced_batch_allocates_nothing() {
    let config = RunConfig::new(N, 2).with_trace().fixed_length();
    let mut arena = BatchArena::new();
    let mut kernel = Flood {
        current: vec![0; N],
    };
    let mut adversary = TwoFaced {
        lanes: 64,
        set: ProcessSet::from_members(N, [ProcessId(1), ProcessId(2)]),
    };
    let mut batch = |arena: &mut BatchArena| {
        allocations_of(|| assert!(run_batch_with(arena, &config, &mut kernel, &mut adversary))).0
    };

    // The cold batch sizes every buffer: it must allocate, or the counter
    // is not counting.
    assert!(batch(&mut arena) > 0);
    let cold: Vec<_> = arena.results().to_vec();
    assert_eq!(batch(&mut arena), 0, "a warm batch allocated");

    // The batch did its work both times: ROUNDS snapshots per lane, each
    // correct sender's bit to N − 1 recipients every round, and the same
    // results from the recycled buffers.
    assert_eq!(arena.results().len(), 64);
    for (warm, cold) in arena.results().iter().zip(&cold) {
        assert_eq!(warm.rounds_used, ROUNDS);
        assert_eq!(warm.total_bits, (ROUNDS * (N - 2) * (N - 1)) as u64);
        assert_eq!(warm.max_local_ops, (ROUNDS * N) as u64);
        assert!((1..=ROUNDS).contains(&warm.lock_in));
        assert_eq!(
            (warm.lock_in, warm.agreement),
            (cold.lock_in, cold.agreement)
        );
    }
}
