//! The lock-step executor's routes, each shown to be *taken* and shown
//! to be unobservable.
//!
//! `tests/engine_identity.rs` holds every execution path to
//! `sg_sim::reference` over the whole grid; a grid cannot tell whether a
//! particular route through `sg_sim::run_batch` was exercised. Each case
//! here names one — the active mask splitting as lanes retire at
//! different rounds, the post-loop finalization of a fixed-length batch,
//! the phase kernels' keep-your-value rules, the mixed-width gear kernels
//! across a chunk boundary and worker counts, `dynamic-king` lanes
//! deferred to the scalar engine mid-batch, one gear batch whose lanes
//! stop at the prefix's first echo, seed their tails and defer side by
//! side, a grid mixing kernel, tree, vector, bridged and edge-faulting
//! cells — first asserts the cell
//! really takes it (the round histogram spreads, the schedule fills), and
//! then holds `SweepPlan::run`, the cursor walk and the bridged plan to
//! the reference report (`tests/oracle/mod.rs`).

mod oracle;

use oracle::assert_engines_agree;
use shifting_gears::adversary::FaultSelection;
use shifting_gears::adversary::RandomLiar;
use shifting_gears::analysis::{AdversaryFamily, SweepConfig, SweepPlan, SweepReport};
use shifting_gears::core::{gear_batch_kernel, AlgorithmSpec};
use shifting_gears::sim::batch::{run_batch, BatchArena};
use shifting_gears::sim::{Adversary, AdversaryView, Payload, ProcessId, ProcessSet, RunConfig};

/// Fails unless the cell's runs ended at two or more different rounds —
/// otherwise a divergence case silently degrades to the uniform one.
fn assert_rounds_spread(report: &SweepReport) {
    let distinct: std::collections::BTreeSet<u64> =
        report.cells[0].samples.iter().map(|s| s.rounds).collect();
    assert!(
        distinct.len() >= 2,
        "cell retired uniformly (rounds {distinct:?}); pick a livelier cell"
    );
}

/// Early-stop divergence mid-batch: an `optimal-king` cell whose runs
/// retire at different rounds (the probe histogram at this cell is
/// `{3, 6, 9, 12}`), so the active mask shrinks lane by lane while the
/// survivors keep executing. The retired lanes' state must stay frozen —
/// any leak shows up as a sample mismatch against the reference.
#[test]
fn early_stop_divergence_splits_the_active_mask() {
    let plan = SweepPlan::new(
        vec![SweepConfig::traced(AlgorithmSpec::OptimalKing, 10, 3)],
        vec![AdversaryFamily::random_liar(FaultSelection::with_source())],
        65,
    );
    assert_rounds_spread(&assert_engines_agree(&plan));
}

/// In a fixed-length plan no lane ever retires mid-loop: every run
/// survives to the schedule's end and takes the post-loop finalization
/// path (`rounds_used = total_rounds`, not early-stopped). That path must
/// also match the scalar engines bit for bit.
#[test]
fn fixed_length_batches_match_scalar_too() {
    let plan = SweepPlan::new(
        vec![SweepConfig::traced(AlgorithmSpec::OptimalKing, 10, 3)],
        vec![AdversaryFamily::random_liar(FaultSelection::with_source())],
        65,
    )
    .fixed_length();
    let report = assert_engines_agree(&plan);
    let total_rounds = 1 + 3 * (3 + 1); // optimal-king schedule at t = 3
    assert!(
        report.cells[0]
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
    for spec in [AlgorithmSpec::PhaseKing, AlgorithmSpec::PhaseQueen] {
        let plan = SweepPlan::new(
            vec![SweepConfig::traced(spec, 10, 2)],
            vec![AdversaryFamily::random_liar(FaultSelection::with_source())],
            65,
        );
        // The cell must exercise early-stop divergence (lanes retiring
        // at different rounds), not just the uniform case.
        assert_rounds_spread(&assert_engines_agree(&plan));
    }
}

/// The gear hybrids (`king-shift` statically planned, `dynamic-king`
/// vote-driven) execute on the mixed-width kernel: the tree prefix runs
/// scalar instances inside the wide round, the king tail runs in bit
/// lanes, and the whole composite must match the reference bit for bit —
/// across a 65-seed chunk boundary and at both worker counts.
#[test]
fn gear_kernels_match_scalar_across_chunks_and_jobs() {
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
        let oracle = assert_engines_agree(&plan);
        assert_eq!(
            plan.run_with_jobs(8),
            oracle,
            "{spec:?} parallel != reference"
        );
    }
}

/// Lane divergence inside one `dynamic-king` batch: at `(10, 3)` under
/// seed-dependent random lies led by the source (a correct source would
/// end every lane at the first echo, round 2), different lanes
/// accumulate different
/// fault evidence, so at a checkpoint some lanes' correct processors
/// vote to shift unanimously (the kernel commits the gear shift in
/// lock-step) while others split or decline — deferred lanes retire to
/// the scalar executor mid-batch and their scalar samples are spliced
/// back at their seed positions. Whatever mix occurs, the result must
/// be bit-identical to the reference; the round histogram must actually
/// spread, or the cell silently degrades to the uniform case the grid
/// already covers.
fn assert_dynamic_king_batch_splits(family: AdversaryFamily) {
    let plan = SweepPlan::new(
        vec![SweepConfig::traced(
            AlgorithmSpec::DynamicKing { b: 3 },
            10,
            3,
        )],
        vec![family],
        64,
    );
    assert_rounds_spread(&assert_engines_agree(&plan));
}

#[test]
fn dynamic_king_lane_divergence_splits_the_batch() {
    assert_dynamic_king_batch_splits(AdversaryFamily::random_liar(
        FaultSelection::with_source().limit(2),
    ));
}

/// The same split under staged reveals: the lies start per rank, so the
/// vector path's turn rule decides which lanes see evidence when.
#[test]
fn dynamic_king_chain_revealer_splits_the_batch() {
    assert_dynamic_king_batch_splits(AdversaryFamily::chain_revealer(
        FaultSelection::with_source().limit(2),
        1,
        2,
    ));
}

/// How the lanes of one gear batch left it: `(stopped at the prefix's
/// first echo, ran a seeded king tail, deferred to the scalar engine)`.
/// Drives the kernel directly with the strategies the plan's only cell
/// would instantiate, since a report cannot tell a deferred lane from a
/// batched one — that is the point of it.
fn lane_fates(plan: &SweepPlan, prefix_rounds: usize) -> (usize, usize, usize) {
    let cell = &plan.configs[0];
    let mut config = RunConfig::new(cell.n, cell.t)
        .with_source_value(cell.source_value)
        .with_trace();
    config.early_stopping = plan.early_stopping;
    let mut kernel = gear_batch_kernel(&cell.spec, &config).expect("a gear spec");
    let mut adversaries: Vec<Box<dyn Adversary>> = (0..plan.seeds_per_cell)
        .map(|si| plan.adversaries[0].instantiate(plan.seed_for(0, 0, si)))
        .collect();
    let mut arena = BatchArena::new();
    assert!(run_batch(
        &mut arena,
        &config,
        &mut kernel,
        &mut adversaries
    ));
    let results = arena.results();
    let count = |f: &dyn Fn(&shifting_gears::sim::batch::BatchRunResult) -> bool| {
        results.iter().filter(|r| f(r)).count()
    };
    (
        count(&|r| !r.deferred && r.early_stopped && r.rounds_used == 2),
        count(&|r| !r.deferred && r.rounds_used > prefix_rounds),
        count(&|r| r.deferred),
    )
}

/// Two random liars, led by the source in two seeds out of three.
struct SourceInSomeLanes(RandomLiar);

impl SourceInSomeLanes {
    const NAME: &'static str = "random-liar(source in 2 of 3 seeds)";

    fn new(seed: u64) -> Self {
        let sel = if seed.is_multiple_of(3) {
            FaultSelection::without_source()
        } else {
            FaultSelection::with_source()
        };
        SourceInSomeLanes(RandomLiar::new(sel.limit(2), seed))
    }
}

impl Adversary for SourceInSomeLanes {
    fn name(&self) -> String {
        Self::NAME.to_string()
    }

    fn reseed(&mut self, seed: u64) -> bool {
        // The seed picks the selection, so a recycled instance is rebuilt.
        *self = Self::new(seed);
        true
    }

    fn corrupt(&mut self, n: usize, t: usize, source: ProcessId) -> ProcessSet {
        self.0.corrupt(n, t, source)
    }

    fn payload(
        &mut self,
        sender: ProcessId,
        recipient: ProcessId,
        view: &AdversaryView<'_>,
    ) -> Payload {
        self.0.payload(sender, recipient, view)
    }
}

/// One 64-lane gear batch, three fates. A closure family (no wire shape,
/// so the bridge drives every lane) corrupts the source in some seeds
/// only: lanes with a correct source stop in the wide prefix at the
/// first echo — retired by the kernel itself, with the scalar engine's
/// sample — while lanes under a lying source run on, seed their king
/// tails at different rounds and, for `dynamic-king`, split their shift
/// votes and defer. With early stopping off nothing stops in the prefix.
/// Both modes, against `sg_sim::reference`.
#[test]
fn one_gear_batch_holds_retiring_seeding_and_deferring_lanes() {
    let source_in_some_lanes = AdversaryFamily::new(SourceInSomeLanes::NAME.to_string(), |seed| {
        Box::new(SourceInSomeLanes::new(seed))
    });
    let b = 3;
    for (spec, dynamic) in [
        (AlgorithmSpec::KingShift { b }, false),
        (AlgorithmSpec::DynamicKing { b }, true),
    ] {
        let early = SweepPlan::new(
            vec![SweepConfig::traced(spec, 10, 3)],
            vec![source_in_some_lanes.clone()],
            64,
        );
        let (stopped, tailed, deferred) = lane_fates(&early, 1 + b);
        assert!(stopped > 0, "{spec:?}: no lane stopped at the first echo");
        assert!(tailed > 0, "{spec:?}: no lane reached its king tail");
        assert_eq!(deferred > 0, dynamic, "{spec:?}: {deferred} deferred lanes");
        assert_rounds_spread(&assert_engines_agree(&early));

        let fixed = early.fixed_length();
        let (stopped, tailed, deferred) = lane_fates(&fixed, 1 + b);
        assert_eq!(stopped, 0, "{spec:?}: a fixed-length lane stopped early");
        assert_eq!(tailed + deferred, 64, "{spec:?}");
        assert_engines_agree(&fixed);
    }
}

/// Adjacent wide lanes with different fault sets. The gear kernel runs
/// every lane's prefix round through one shared set of round tables
/// (`sg_sim::RoundNet`), which rewrites only the rows of the lane's own
/// faulty senders: lane `k` leaves rows behind that lane `k + 1` must not
/// read. So the seed picks the set — three low ids, three high ids, the
/// source and two high ids, nobody — and neighbouring lanes never share
/// one; random lies differ per (seed, sender, recipient), so a row read
/// from the wrong lane cannot pass for the right one. Fixed-length too,
/// where every lane stays wide for the whole prefix.
#[test]
fn adjacent_wide_lanes_keep_their_own_fault_rows() {
    let n = 13;
    let fault_set = |seed: u64| -> Vec<usize> {
        match seed % 4 {
            0 => vec![1, 2, 3],
            1 => vec![10, 11, 12],
            2 => vec![0, 11, 12],
            _ => vec![],
        }
    };
    assert!((0..16).all(|seed| fault_set(seed) != fault_set(seed + 1)));
    let per_lane_faults =
        AdversaryFamily::new("random-liar(set by seed)".to_string(), move |seed| {
            let members = fault_set(seed).into_iter().map(ProcessId);
            Box::new(RandomLiar::new(FaultSelection::explicit(members), seed))
        });
    for spec in [
        AlgorithmSpec::KingShift { b: 3 },
        AlgorithmSpec::DynamicKing { b: 3 },
    ] {
        let config = SweepConfig::traced(spec, n, spec.max_resilience(n));
        let early = SweepPlan::new(vec![config], vec![per_lane_faults.clone()], 16);
        assert_rounds_spread(&assert_engines_agree(&early));
        assert_engines_agree(&early.fixed_length());
    }
}

/// Worker count and batching compose: a mixed grid (kernel cell +
/// tree cell; a vector-path family, and an edge-faulting one that bails
/// the kernel out to the scalar engine; the oracle adds the bridged leg)
/// produces the reference report at `--jobs {1, 8}` and on the cursor
/// path, whose 70 seeds per cell cross the 64-run chunk boundary.
#[test]
fn jobs_and_batching_commute_on_a_mixed_grid() {
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
    let oracle = assert_engines_agree(&plan);
    assert_eq!(plan.run_with_jobs(8), oracle);
}
