//! Batch-vs-scalar bit-identity: the lock-step batch executor is
//! *unobservable* in sweep output.
//!
//! The sweep engine's batch layer (`sg_sim::run_batch` +
//! `sg_core::KingBatchKernel`) executes up to 64 seeds of a cell in
//! lock-step, one bit lane per run. Its contract is the same as every
//! other engine fast path (`set_packed_broadcast`, instance pooling):
//! toggling it changes wall time only, never a byte of the report. The
//! property tests below drive the eleven protocol families through the
//! named adversary suite at `f ∈ {0, 1, t}` and assert the full
//! [`SweepReport`] — every sample of every cell, and the pinned
//! fingerprint derived from it — matches between `set_batch_runs(true)`
//! and `set_batch_runs(false)` — and a third witness, the same plan
//! driven cell by cell through `SweepPlan::cell_cursor` /
//! `CellCursor::advance` (how the `sg-serve` daemon executes it), must
//! equal both. Families without a batch kernel exercise
//! the chunk-scheduling layer (grouped units must flatten back to seed
//! order); `optimal-king` cells exercise the kernel itself, including
//! early-stop retirement splitting the active mask mid-batch; the
//! `king-shift` / `dynamic-king` cells exercise the mixed-width gear
//! kernels (scalar tree prefix, bit-lane king tail), including the
//! per-lane gear-commit vote and its scalar-deferral escape hatch.
//!
//! The same contract covers the batch *adversary* layer
//! (`sg_sim::set_batch_adversaries`): the vectorized fault-injection
//! path for the seven named families must be unobservable next to the
//! per-lane scalar bridge.

use std::sync::Mutex;

use proptest::prelude::*;
use shifting_gears::adversary::FaultSelection;
use shifting_gears::analysis::{
    AdversaryFamily, SweepConfig, SweepPlan, SweepReport, SweepScratch,
};
use shifting_gears::core::AlgorithmSpec;
use shifting_gears::sim::{set_batch_adversaries, set_batch_runs, set_early_stopping};

/// Serializes the tests in this file: all of them drive the
/// process-global `set_batch_runs` toggle, so running them concurrently
/// would race the flag mid-sweep.
static TOGGLE_LOCK: Mutex<()> = Mutex::new(());

/// Runs `plan` once with the batch executor and once without, restoring
/// the default (on) afterwards, and returns both reports.
///
/// The caller must hold `TOGGLE_LOCK`.
fn batched_and_scalar(plan: &SweepPlan, jobs: usize) -> (SweepReport, SweepReport) {
    set_batch_runs(true);
    let batched = plan.run_with_jobs(jobs);
    set_batch_runs(false);
    let scalar = plan.run_with_jobs(jobs);
    set_batch_runs(true);
    (batched, scalar)
}

/// Runs `plan` the way a daemon worker does: cell by cell, each through
/// a cursor advanced one ≤ 64-seed chunk at a time, all in one scratch.
fn via_cursors(plan: &SweepPlan) -> SweepReport {
    let mut scratch = SweepScratch::default();
    let cells = (0..plan.cell_count())
        .map(|cell| {
            let mut cursor = plan.cell_cursor(cell);
            while !cursor.is_done() {
                cursor.advance(&mut scratch);
            }
            cursor.finish()
        })
        .collect();
    SweepReport {
        total_runs: plan.total_runs(),
        cells,
    }
}

/// The eleven protocol families of the sweep surface. Every resilience
/// bound accepts `(n, t) = (10, 2)` except the hybrid's, which pins
/// `t = t_A(10) = 3` (the property test adjusts).
fn spec(idx: usize) -> AlgorithmSpec {
    match idx {
        0 => AlgorithmSpec::PlainExponential,
        1 => AlgorithmSpec::Exponential,
        2 => AlgorithmSpec::AlgorithmA { b: 3 },
        3 => AlgorithmSpec::AlgorithmB { b: 3 },
        4 => AlgorithmSpec::AlgorithmC,
        5 => AlgorithmSpec::Hybrid { b: 3 },
        6 => AlgorithmSpec::PhaseKing,
        7 => AlgorithmSpec::OptimalKing,
        8 => AlgorithmSpec::PhaseQueen,
        9 => AlgorithmSpec::KingShift { b: 3 },
        _ => AlgorithmSpec::DynamicKing { b: 3 },
    }
}

/// The named adversary suite, parameterized by a fault selection — the
/// same families `sg sweep --adversary` exposes, at the CLI's default
/// shape parameters.
fn family(idx: usize, sel: FaultSelection) -> AdversaryFamily {
    match idx {
        0 => AdversaryFamily::no_faults(),
        1 => AdversaryFamily::random_liar(sel),
        2 => AdversaryFamily::chain_revealer(sel, 2, 2),
        3 => AdversaryFamily::crash(sel, 2),
        4 => AdversaryFamily::silent(sel),
        5 => AdversaryFamily::partition(sel, 1, 2, 3),
        6 => AdversaryFamily::omission(sel, 2, 0),
        7 => AdversaryFamily::equivocate(sel, 3, 1),
        _ => AdversaryFamily::adaptive(sel, vec![2, 4]),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Bit-identity across the grid: family × adversary × fault budget.
    /// Cells with a lock-step kernel (`optimal-king`, `phase-king`,
    /// `phase-queen`) get 65 seeds so one chunk fills completely and a
    /// second, partial chunk crosses the 64-lane boundary; the
    /// scalar-fallback families get fewer (their identity is
    /// scheduling-only, and the tree machines are costly per run). The
    /// cursor leg takes all four routes through the chunk executor: the
    /// kernel, deferred `dynamic-king` lanes, scalar-only tree specs, and
    /// the `partition` edge-fault bailout.
    #[test]
    fn batch_and_scalar_reports_are_bit_identical(
        spec_idx in 0usize..11,
        adv_idx in 0usize..9,
        f in 0usize..3,
    ) {
        let _serial = TOGGLE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let n = 10;
        // The hybrid runs only at its design resilience t_A(10) = 3;
        // every other family accepts (10, 2).
        let t = match spec(spec_idx) {
            AlgorithmSpec::Hybrid { .. } => 3,
            _ => 2,
        };
        let budget = [0, 1, t][f];
        let seeds = match spec(spec_idx) {
            AlgorithmSpec::OptimalKing
            | AlgorithmSpec::PhaseKing
            | AlgorithmSpec::PhaseQueen => 65,
            AlgorithmSpec::PlainExponential | AlgorithmSpec::Exponential => 4,
            _ => 8,
        };
        let plan = SweepPlan::new(
            vec![SweepConfig::traced(spec(spec_idx), n, t)],
            vec![family(adv_idx, FaultSelection::without_source().limit(budget))],
            seeds,
        );
        let (batched, scalar) = batched_and_scalar(&plan, 1);
        let cursors = via_cursors(&plan);
        prop_assert_eq!(&batched, &scalar);
        prop_assert_eq!(&cursors, &batched);
        prop_assert_eq!(batched.fingerprint(), scalar.fingerprint());
    }
}

proptest! {
    // 128 (spec, family, selection) combinations, each a few ms.
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The batch *adversary* layer is as unobservable as the batch
    /// executor: for the kernel-backed specs (the king-tail gear hybrids
    /// and the phase family) under every vector-eligible named family at
    /// `f ∈ {0, 1, t}` and with the source among the faulty (what makes
    /// a king sample depend on the lies told), the vectorized
    /// fault-injection path (`set_batch_adversaries(true)`, one `lies`
    /// call per round) — through `SweepPlan::run` and through cursors —
    /// the per-lane scalar bridge (`false`), and the fully scalar engine
    /// (`set_batch_runs(false)`) all produce one report.
    #[test]
    fn batch_adversaries_are_bit_identical_too(
        spec_idx in 0usize..4,
        adv_idx in 0usize..8,
        sel_idx in 0usize..4,
    ) {
        let _serial = TOGGLE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let spec = [
            AlgorithmSpec::KingShift { b: 3 },
            AlgorithmSpec::DynamicKing { b: 3 },
            AlgorithmSpec::PhaseKing,
            AlgorithmSpec::OptimalKing,
        ][spec_idx];
        let sel = match sel_idx {
            3 => FaultSelection::with_source(),
            f => FaultSelection::without_source().limit(f),
        };
        let family = [
            AdversaryFamily::random_liar(sel.clone()),
            AdversaryFamily::crash(sel.clone(), 2),
            AdversaryFamily::silent(sel.clone()),
            AdversaryFamily::omission(sel.clone(), 2, 0),
            AdversaryFamily::equivocate(sel.clone(), 3, 1),
            AdversaryFamily::adaptive(sel.clone(), vec![2, 4]),
            AdversaryFamily::chain_revealer(sel.clone(), 2, 2),
            AdversaryFamily::chain_revealer(sel.clone(), 1, 1),
        ][adv_idx].clone();
        let seeds = match spec {
            AlgorithmSpec::OptimalKing | AlgorithmSpec::PhaseKing => 65,
            _ => 8,
        };
        let plan = SweepPlan::new(
            vec![SweepConfig::traced(spec, 10, 2)],
            vec![family],
            seeds,
        );
        set_batch_runs(true);
        set_batch_adversaries(true);
        let vectorized = plan.run_with_jobs(1);
        let cursors = via_cursors(&plan);
        set_batch_adversaries(false);
        let bridged = plan.run_with_jobs(1);
        set_batch_adversaries(true);
        set_batch_runs(false);
        let scalar = plan.run_with_jobs(1);
        set_batch_runs(true);
        prop_assert_eq!(&vectorized, &bridged);
        prop_assert_eq!(&vectorized, &scalar);
        prop_assert_eq!(&vectorized, &cursors);
        prop_assert_eq!(vectorized.fingerprint(), scalar.fingerprint());
    }
}

/// Early-stop divergence mid-batch: an `optimal-king` cell whose runs
/// retire at different rounds (the probe histogram at this cell is
/// `{3, 6, 9, 12}`), so the active mask shrinks lane by lane while the
/// survivors keep executing. The retired lanes' state must stay frozen —
/// any leak shows up as a sample mismatch against the scalar run.
#[test]
fn early_stop_divergence_splits_the_active_mask() {
    let _serial = TOGGLE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let plan = SweepPlan::new(
        vec![SweepConfig::traced(AlgorithmSpec::OptimalKing, 10, 3)],
        vec![AdversaryFamily::random_liar(FaultSelection::with_source())],
        65,
    );
    let (batched, scalar) = batched_and_scalar(&plan, 1);
    assert_eq!(batched, scalar);

    // The cell must actually diverge — otherwise this test silently
    // degrades to the uniform-retirement case the property test covers.
    let distinct: std::collections::BTreeSet<u64> =
        batched.cells[0].samples.iter().map(|s| s.rounds).collect();
    assert!(
        distinct.len() >= 2,
        "cell retired uniformly (rounds {distinct:?}); pick a livelier cell"
    );
}

/// With early stopping disabled, no lane ever retires mid-loop: every
/// run survives to the schedule's end and takes the post-loop
/// finalization path (`rounds_used = total_rounds`, not early-stopped).
/// That path must also match the scalar executor bit for bit.
#[test]
fn fixed_length_batches_match_scalar_too() {
    let _serial = TOGGLE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let plan = SweepPlan::new(
        vec![SweepConfig::traced(AlgorithmSpec::OptimalKing, 10, 3)],
        vec![AdversaryFamily::random_liar(FaultSelection::with_source())],
        65,
    );
    set_early_stopping(false);
    let (batched, scalar) = batched_and_scalar(&plan, 1);
    set_early_stopping(true);
    assert_eq!(batched, scalar);
    let total_rounds = 1 + 3 * (3 + 1); // optimal-king schedule at t = 3
    assert!(
        batched.cells[0]
            .samples
            .iter()
            .all(|s| s.rounds == total_rounds && !s.early_stopped),
        "fixed-length runs must fill the whole schedule"
    );
}

/// The phase-family kernels (`phase-king`, `phase-queen`) share the
/// two-round phase shape but differ in the keep-your-value rule
/// (plurality-with-proof vs. pure threshold); both must match their
/// scalar protocols bit for bit across a 65-seed chunk boundary, under
/// an adversary allowed to corrupt the source and every phase leader —
/// the paths where the tally-majority broadcast and the super-majority
/// override actually diverge.
#[test]
fn phase_family_kernels_match_scalar() {
    let _serial = TOGGLE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for spec in [AlgorithmSpec::PhaseKing, AlgorithmSpec::PhaseQueen] {
        let plan = SweepPlan::new(
            vec![SweepConfig::traced(spec, 10, 2)],
            vec![AdversaryFamily::random_liar(FaultSelection::with_source())],
            65,
        );
        let (batched, scalar) = batched_and_scalar(&plan, 1);
        assert_eq!(batched, scalar, "{spec:?} batch != scalar");
        assert_eq!(batched.fingerprint(), scalar.fingerprint());

        // The cell must exercise early-stop divergence (lanes retiring
        // at different rounds), not just the uniform case.
        let distinct: std::collections::BTreeSet<u64> =
            batched.cells[0].samples.iter().map(|s| s.rounds).collect();
        assert!(
            distinct.len() >= 2,
            "{spec:?} retired uniformly (rounds {distinct:?}); pick a livelier cell"
        );
    }
}

/// The gear hybrids (`king-shift` statically planned, `dynamic-king`
/// vote-driven) execute on the mixed-width kernel: the tree prefix runs
/// scalar instances inside the wide round, the king tail runs in bit
/// lanes, and the whole composite must match the scalar executor bit
/// for bit — across a 65-seed chunk boundary and at both worker counts.
#[test]
fn gear_kernels_match_scalar_across_chunks_and_jobs() {
    let _serial = TOGGLE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for spec in [
        AlgorithmSpec::KingShift { b: 3 },
        AlgorithmSpec::DynamicKing { b: 3 },
    ] {
        let plan = SweepPlan::new(
            vec![SweepConfig::traced(spec, 10, 2)],
            vec![AdversaryFamily::random_liar(
                FaultSelection::without_source().limit(2),
            )],
            65,
        );
        let (batched, scalar) = batched_and_scalar(&plan, 1);
        assert_eq!(batched, scalar, "{spec:?} batch != scalar");

        set_batch_runs(true);
        let parallel = plan.run_with_jobs(8);
        assert_eq!(parallel, scalar, "{spec:?} parallel batch != scalar");
        assert_eq!(via_cursors(&plan), scalar, "{spec:?} cursors != scalar");
    }
}

/// Lane divergence inside one `dynamic-king` batch: at `(10, 3)` under
/// seed-dependent random lies, different lanes accumulate different
/// fault evidence, so at a checkpoint some lanes' correct processors
/// vote to shift unanimously (the kernel commits the gear shift in
/// lock-step) while others split or decline — deferred lanes retire to
/// the scalar executor mid-batch and their scalar samples are spliced
/// back at their seed positions. Whatever mix occurs, the result must
/// be bit-identical to the all-scalar run; the round histogram must
/// actually spread, or the cell silently degrades to the uniform case
/// the property test already covers.
fn assert_dynamic_king_batch_splits(family: AdversaryFamily) {
    let _serial = TOGGLE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let plan = SweepPlan::new(
        vec![SweepConfig::traced(
            AlgorithmSpec::DynamicKing { b: 3 },
            10,
            3,
        )],
        vec![family],
        64,
    );
    let (batched, scalar) = batched_and_scalar(&plan, 1);
    assert_eq!(batched, scalar);
    assert_eq!(via_cursors(&plan), scalar);

    let distinct: std::collections::BTreeSet<u64> =
        batched.cells[0].samples.iter().map(|s| s.rounds).collect();
    assert!(
        distinct.len() >= 2,
        "cell retired uniformly (rounds {distinct:?}); pick a livelier cell"
    );
}

#[test]
fn dynamic_king_lane_divergence_splits_the_batch() {
    assert_dynamic_king_batch_splits(AdversaryFamily::random_liar(
        FaultSelection::without_source().limit(2),
    ));
}

/// The same split under staged reveals: the lies start per rank, so the
/// vector path's turn rule decides which lanes see evidence when.
#[test]
fn dynamic_king_chain_revealer_splits_the_batch() {
    assert_dynamic_king_batch_splits(AdversaryFamily::chain_revealer(
        FaultSelection::without_source().limit(2),
        2,
        2,
    ));
}

/// Worker count and batching compose: a mixed grid (kernel cell +
/// fallback cell; a vector-path family, a bridged one, and an
/// edge-faulting one that bails the kernel out to the scalar engine)
/// produces one report for all four combinations of `--jobs {1, 8}` ×
/// batch on/off — and for the cursor path, whose 70 seeds per cell cross
/// the 64-run chunk boundary.
#[test]
fn jobs_and_batching_commute_on_a_mixed_grid() {
    let _serial = TOGGLE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let plan = SweepPlan::new(
        vec![
            SweepConfig::traced(AlgorithmSpec::OptimalKing, 10, 3),
            SweepConfig::traced(AlgorithmSpec::Hybrid { b: 3 }, 10, 3),
        ],
        vec![
            AdversaryFamily::random_liar(FaultSelection::with_source()),
            AdversaryFamily::crash(FaultSelection::without_source().limit(3), 2),
            AdversaryFamily::partition(FaultSelection::with_source().limit(1), 1, 2, 3),
        ],
        70,
    );
    set_batch_runs(true);
    let batched_1 = plan.run_with_jobs(1);
    let batched_8 = plan.run_with_jobs(8);
    set_batch_runs(false);
    let scalar_1 = plan.run_with_jobs(1);
    let scalar_8 = plan.run_with_jobs(8);
    set_batch_runs(true);
    assert_eq!(batched_1, batched_8);
    assert_eq!(batched_1, scalar_1);
    assert_eq!(batched_1, scalar_8);
    assert_eq!(batched_1, via_cursors(&plan));
}
