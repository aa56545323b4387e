//! The chunk executor's routes, each shown to be *taken* and shown to be
//! unobservable.
//!
//! `tests/engine_identity.rs` holds every execution path to
//! `sg_sim::reference` over the whole grid; a grid cannot tell whether a
//! particular route was exercised. Each case here names one. Through
//! `sg_sim::run_batch_with`: the active mask splitting as lanes retire at
//! different rounds, each lane keeping the send total it retired with,
//! the post-loop finalization of a fixed-length batch,
//! the phase kernels' keep-your-value rules, a grid mixing kernel and
//! tree cells under families with and without a vector shape, a spent
//! shadow beside members that still relay theirs, recipients that
//! share one tally under a shared story, and the read rule — liars that
//! draw for the fault set alone under a correct source, and for some
//! correct recipients but not all in margin cells. Through
//! the scalar engine, which runs the gear shifts seed by seed: a chunk
//! boundary and worker counts, `dynamic-king` runs whose shift votes
//! diverge, runs that stop at the prefix's first echo beside runs that
//! reach their king tails, and adjacent seeds with different fault sets.
//! Each case first asserts that the cell really takes its route (the
//! round histogram spreads, the schedule fills), and then holds
//! `SweepPlan::run`, the cursor walk and the scalar engine to the
//! reference report (`tests/oracle/mod.rs`). The two cases whose fault
//! set changes with the seed, which no `Family` expresses, run their
//! seeds in order through the scalar engine on one arena and meet the
//! reference seed by seed.

mod oracle;

use std::cell::RefCell;

use oracle::{assert_engines_agree, assert_seeds_match_reference};
use shifting_gears::adversary::{BatchFamily, Family, FaultSelection};
use shifting_gears::analysis::{AdversaryFamily, Sample, SweepConfig, SweepPlan};
use shifting_gears::core::{batch_kernel, execute, AlgorithmSpec};
use shifting_gears::sim::batch::{run_batch_with, BatchArena, BatchKernel, BatchNet, LaneCounts};
use shifting_gears::sim::{
    Adversary, AdversaryView, Payload, ProcessId, ProcessSet, RunConfig, MAX_BATCH_RUNS,
};

/// Fails unless the cell's runs ended at two or more different rounds —
/// otherwise a divergence case silently degrades to the uniform one.
fn assert_rounds_spread(samples: &[Sample]) {
    let distinct: std::collections::BTreeSet<u64> = samples.iter().map(|s| s.rounds).collect();
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
    assert_rounds_spread(&assert_engines_agree(&plan).cells[0].samples);
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
        assert_rounds_spread(&assert_engines_agree(&plan).cells[0].samples);
    }
}

/// The gear hybrids (`king-shift` statically planned, `dynamic-king`
/// vote-driven) have no lock-step kernel: every chunk runs seed by seed
/// on the scalar engine, through a worker's pooled instances and
/// strategies, and must match the reference bit for bit — across a
/// 65-seed chunk boundary and at both worker counts.
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

/// Divergence inside one `dynamic-king` chunk: at `(10, 3)` under
/// seed-dependent random lies led by the source (a correct source would
/// end every run at the first echo, round 2), different seeds accumulate
/// different fault evidence, so at a checkpoint some runs' correct
/// processors vote to shift unanimously while others split or decline.
/// Whatever mix occurs, the result must be bit-identical to the
/// reference; the round histogram must actually spread, or the cell
/// silently degrades to the uniform case the grid already covers.
fn assert_dynamic_king_cell_splits(family: AdversaryFamily) {
    let plan = SweepPlan::new(
        vec![SweepConfig::traced(
            AlgorithmSpec::DynamicKing { b: 3 },
            10,
            3,
        )],
        vec![family],
        64,
    );
    assert_rounds_spread(&assert_engines_agree(&plan).cells[0].samples);
}

#[test]
fn dynamic_king_lane_divergence_splits_the_batch() {
    assert_dynamic_king_cell_splits(AdversaryFamily::random_liar(
        FaultSelection::with_source().limit(2),
    ));
}

/// The same split under staged reveals: the lies start per rank, so the
/// reveal schedule decides which seeds see evidence when.
#[test]
fn dynamic_king_chain_revealer_splits_the_batch() {
    assert_dynamic_king_cell_splits(AdversaryFamily::chain_revealer(
        FaultSelection::with_source().limit(2),
        1,
        2,
    ));
}

/// Honest sends are one running total that a lane keeps when it
/// retires: in a `random-liar` king batch whose lanes stop at different
/// rounds, every lane's `total_bits` is its scalar run's. A lane that
/// kept a later total, or an earlier one, counts another run's rounds.
#[test]
fn each_lane_keeps_the_sends_it_retired_with() {
    let spec = AlgorithmSpec::OptimalKing;
    let config = RunConfig::new(10, 3);
    let seeds: Vec<u64> = (0..MAX_BATCH_RUNS as u64).collect();
    let family = AdversaryFamily::random_liar(FaultSelection::with_source());
    let mut batch = BatchFamily::new(family.family(), &seeds).expect("a vector shape");
    let mut kernel = batch_kernel(&spec, &config).expect("a king kernel");
    let mut arena = BatchArena::new();
    run_batch_with(&mut arena, &config, kernel.as_mut(), &mut batch);
    let mut rounds = std::collections::BTreeSet::new();
    for (result, &seed) in arena.results().iter().zip(&seeds) {
        let scalar = execute(spec, &config, family.instantiate(seed).as_mut()).expect("valid");
        assert_eq!(result.rounds_used, scalar.rounds_used, "seed {seed}");
        assert_eq!(
            result.total_bits,
            scalar.metrics.total_bits(),
            "seed {seed}"
        );
        rounds.insert(result.rounds_used);
    }
    // The lanes retired at three or more different rounds.
    assert!(rounds.len() >= 3, "rounds {rounds:?}");
}

/// What the king kernel is handed, round by round: a kernel that watches
/// each round's network and read question, and then delegates to the
/// real one.
struct Watch {
    kernel: Box<dyn BatchKernel + Send>,
    n: usize,
    /// The batch's fault set, as a slot mask.
    members: u64,
    /// Rounds in which some member is spent while another still relays
    /// its shadow.
    contested: usize,
    /// Live recipients that hear alike the live recipient before them.
    alike: usize,
    /// The most hearing classes (runs of alike recipients) among the
    /// correct recipients of any one round.
    classes: usize,
    /// Every read mask the driver asked for, with its round.
    asked: RefCell<Vec<(usize, u64)>>,
}

impl Watch {
    /// The king kernel for `spec` under `config` and `family` over one
    /// full batch, watched.
    fn run(spec: AlgorithmSpec, config: &RunConfig, family: &AdversaryFamily) -> Watch {
        let seeds: Vec<u64> = (0..MAX_BATCH_RUNS as u64).collect();
        let members = family
            .instantiate(0)
            .corrupt(config.n, config.t, config.source)
            .iter()
            .fold(0, |m, f| m | 1 << f.index());
        let family = family.family();
        let mut batch = BatchFamily::new(family, &seeds).expect("a vector shape");
        let mut watch = Watch {
            kernel: batch_kernel(&spec, config).expect("a king kernel"),
            n: config.n,
            members,
            contested: 0,
            alike: 0,
            classes: 0,
            asked: RefCell::new(Vec::new()),
        };
        run_batch_with(&mut BatchArena::new(), config, &mut watch, &mut batch);
        watch
    }

    /// The read masks asked after round 1.
    fn asked_after_the_source_round(&self) -> Vec<u64> {
        let asked = self.asked.borrow();
        asked
            .iter()
            .filter(|&&(round, _)| round > 1)
            .map(|&(_, mask)| mask)
            .collect()
    }
}

impl BatchKernel for Watch {
    fn total_rounds(&self) -> usize {
        self.kernel.total_rounds()
    }

    fn reset(&mut self, lanes: usize) {
        self.kernel.reset(lanes);
    }

    fn charge(&self, round: usize) -> u64 {
        self.kernel.charge(round)
    }

    fn snapshot_round(&self, round: usize) -> bool {
        self.kernel.snapshot_round(round)
    }

    fn outgoing(&mut self, round: usize, present: &mut [u64], one: &mut [u64], zero: &mut [u64]) {
        self.kernel.outgoing(round, present, one, zero);
    }

    fn readers(
        &self,
        round: usize,
        common_one: &LaneCounts,
        common_zero: &LaneCounts,
        members: u64,
        active: u64,
    ) -> u64 {
        let read = self
            .kernel
            .readers(round, common_one, common_zero, members, active);
        self.asked.borrow_mut().push((round, read));
        read
    }

    fn deliver(&mut self, round: usize, net: &BatchNet<'_>, active: u64) {
        let spent = net.spent();
        if spent != 0 && spent != self.members {
            self.contested += 1;
        }
        let live: Vec<usize> = (0..self.n).filter(|&i| (spent >> i) & 1 == 0).collect();
        self.alike += live
            .windows(2)
            .filter(|w| net.hears_alike(w[0], w[1]))
            .count();
        let correct: Vec<usize> = live
            .into_iter()
            .filter(|&i| (self.members >> i) & 1 == 0)
            .collect();
        let split = correct
            .windows(2)
            .filter(|w| !net.hears_alike(w[0], w[1]))
            .count();
        self.classes = self.classes.max(1 + split);
        self.kernel.deliver(round, net, active);
    }

    fn ready(&self) -> &[u64] {
        self.kernel.ready()
    }

    fn current(&self) -> &[u64] {
        self.kernel.current()
    }

    fn decision_one(&self, slot: usize) -> u64 {
        self.kernel.decision_one(slot)
    }
}

/// A spent shadow beside members that still relay theirs: `chain-revealer`
/// led by the source at `(31, 10)` turns rank `k` at round `2 + 2k`, so a
/// member is spent from the round before its turn while the later ranks
/// still relay the shadows the kernel keeps computing for them. A member
/// spent a round early would relay a stale shadow.
#[test]
fn a_spent_shadow_beside_relaying_members_matches_scalar() {
    let family = AdversaryFamily::chain_revealer(FaultSelection::with_source(), 2, 2);
    let config = RunConfig::new(31, 10).fixed_length();
    let watch = Watch::run(AlgorithmSpec::OptimalKing, &config, &family);
    // Rank 0 is spent from round 1, rank 9 from round 19: rounds 1 to 18
    // of the 34 are contested.
    assert_eq!(watch.contested, 18);
    let plan = SweepPlan::new(
        vec![SweepConfig::traced(AlgorithmSpec::OptimalKing, 31, 10)],
        vec![family],
        64,
    )
    .fixed_length();
    assert_engines_agree(&plan);
}

/// Recipients that share one tally: `equivocate` led by the source with
/// the split matched to `n = 31` tells its members' one shared story, so
/// the correct recipients below the split hear alike, and so do those
/// above it — two hearings, each tallied once. Both king rows.
#[test]
fn recipient_classes_under_a_shared_story_match_scalar() {
    let family = AdversaryFamily::equivocate(FaultSelection::with_source(), 21, 1);
    for (spec, t) in [
        (AlgorithmSpec::OptimalKing, 10),
        (AlgorithmSpec::PhaseKing, 7),
    ] {
        let watch = Watch::run(spec, &RunConfig::new(31, t).fixed_length(), &family);
        assert_eq!(watch.classes, 2, "{spec:?}: hearing classes");
        assert!(watch.alike >= 300, "{spec:?}: {} alike", watch.alike);
        let plan = SweepPlan::new(
            vec![SweepConfig::traced(spec, 31, t)],
            vec![family.clone()],
            64,
        )
        .fixed_length();
        assert_engines_agree(&plan);
    }
}

/// The king specs every lock-step cell below runs.
const KING_SPECS: [AlgorithmSpec; 3] = [
    AlgorithmSpec::OptimalKing,
    AlgorithmSpec::PhaseKing,
    AlgorithmSpec::PhaseQueen,
];

/// A correct source settles every threshold: its value reaches the
/// `n − f ≥ n − t` correct slots, and no `f ≤ t` liars can swing a count
/// that starts there. So in every `king-expedite` cell under random lies
/// and staged reveals, each read mask asked after the source round names
/// the fault set alone, and the liars draw for nobody else.
#[test]
fn a_correct_source_leaves_the_liars_no_correct_reader() {
    let honest_source = FaultSelection::without_source;
    let families = [
        AdversaryFamily::random_liar(honest_source()),
        AdversaryFamily::chain_revealer(honest_source(), 2, 2),
    ];
    let mut configs = Vec::new();
    for spec in KING_SPECS {
        for n in [7, 16, 31] {
            let t = spec.max_resilience(n);
            configs.push(SweepConfig::traced(spec, n, t));
            for family in &families {
                let watch = Watch::run(spec, &RunConfig::new(n, t), family);
                let asked = watch.asked_after_the_source_round();
                assert!(
                    !asked.is_empty(),
                    "{spec:?} n={n} {}: no mask asked",
                    family.name()
                );
                assert!(
                    asked.iter().all(|&mask| mask == watch.members),
                    "{spec:?} n={n} {}: {asked:x?} beside members {:x}",
                    family.name(),
                    watch.members
                );
            }
        }
    }
    assert_engines_agree(&SweepPlan::new(configs, families.to_vec(), 64));
}

/// Margin cells: random liars led by the source at `f = t`, so the
/// correct slots start split, and whether the liars can still swing a
/// rule differs from lane to lane and from recipient to recipient. The
/// cells of each spec ask some read mask that is neither the fault set
/// nor every slot — the king step's locked recipients read nothing — and
/// every cell matches the scalar engine sample for sample, early and
/// fixed-length.
fn assert_margin_cells_match_scalar(spec: AlgorithmSpec) {
    let family = AdversaryFamily::random_liar(FaultSelection::with_source());
    let mut partial = 0;
    for n in [7, 16, 31, 64] {
        let t = spec.max_resilience(n);
        let early = SweepPlan::new(
            vec![SweepConfig::traced(spec, n, t)],
            vec![family.clone()],
            64,
        );
        for plan in [early.clone(), early.fixed_length()] {
            let mut config = RunConfig::new(n, t);
            config.early_stopping = plan.early_stopping;
            let watch = Watch::run(spec, &config, &family);
            assert_eq!(watch.members.count_ones() as usize, t, "f = t");
            partial += watch
                .asked_after_the_source_round()
                .into_iter()
                .filter(|&mask| mask != watch.members && mask != !0)
                .count();
            assert_engines_agree(&plan);
        }
    }
    assert!(
        partial > 0,
        "{spec:?}: every mask was the fault set or every slot"
    );
}

#[test]
fn optimal_king_margin_cells_match_scalar() {
    assert_margin_cells_match_scalar(AlgorithmSpec::OptimalKing);
}

#[test]
fn phase_king_margin_cells_match_scalar() {
    assert_margin_cells_match_scalar(AlgorithmSpec::PhaseKing);
}

#[test]
fn phase_queen_margin_cells_match_scalar() {
    assert_margin_cells_match_scalar(AlgorithmSpec::PhaseQueen);
}

/// Two random liars, led by the source in two seeds out of three.
struct SourceInSomeSeeds(Box<dyn Adversary>);

impl SourceInSomeSeeds {
    const NAME: &'static str = "random-liar(source in 2 of 3 seeds)";

    fn new(seed: u64) -> Self {
        let sel = if seed.is_multiple_of(3) {
            FaultSelection::without_source()
        } else {
            FaultSelection::with_source()
        };
        SourceInSomeSeeds(Family::RandomLiar(sel.limit(2)).strategy(seed))
    }
}

impl Adversary for SourceInSomeSeeds {
    fn name(&self) -> String {
        Self::NAME.to_string()
    }

    fn corrupt(&mut self, n: usize, t: usize, source: ProcessId) -> ProcessSet {
        self.0.corrupt(n, t, source)
    }

    fn row(&mut self, sender: ProcessId, view: &AdversaryView<'_>, row: &mut [Payload]) {
        self.0.row(sender, view, row);
    }
}

/// One 64-seed gear cell, several fates. The adversary corrupts the
/// source in some seeds only — a fault set no `Family` can express, so
/// the seeds run in order through the scalar engine on one arena, each
/// under its own strategy: runs with a correct source stop in the prefix
/// at the first echo, while runs under a lying source go on into their
/// king tails — `dynamic-king`'s at different rounds, as their shift
/// votes split. With early stopping off nothing stops in the prefix.
/// Both modes, against `sg_sim::reference`.
#[test]
fn a_source_lying_in_some_seeds_spreads_the_gear_cells() {
    let source_in_some_seeds = |seed| Box::new(SourceInSomeSeeds::new(seed)) as Box<dyn Adversary>;
    let prefix_rounds = 1 + 3;
    for spec in [
        AlgorithmSpec::KingShift { b: 3 },
        AlgorithmSpec::DynamicKing { b: 3 },
    ] {
        let cell = SweepConfig::traced(spec, 10, 3);
        let samples = assert_seeds_match_reference(&cell, true, 64, source_in_some_seeds);
        assert!(
            samples.iter().any(|s| s.early_stopped && s.rounds == 2),
            "{spec:?}: no run stopped at the first echo"
        );
        assert!(
            samples.iter().any(|s| s.rounds > prefix_rounds),
            "{spec:?}: no run reached its king tail"
        );
        assert_rounds_spread(&samples);

        let fixed = assert_seeds_match_reference(&cell, false, 64, source_in_some_seeds);
        assert!(
            fixed.iter().all(|s| s.rounds > prefix_rounds),
            "{spec:?}: a fixed-length run stopped in its prefix"
        );
    }
}

/// Adjacent seeds with different fault sets. A worker runs the seeds of a
/// gear cell one after another through one arena, whose round tables
/// rewrite only the rows of the run's own faulty senders: seed `k` leaves
/// rows behind that seed `k + 1` must not read. So the seed picks the set
/// — three low ids, three high ids, the source and two high ids, nobody —
/// and neighbouring seeds never share one; random lies differ per (seed,
/// sender, recipient), so a row read from the wrong run cannot pass for
/// the right one. Every seed builds its own strategy, for one recycled
/// from the seed before would keep that seed's set. Fixed-length too,
/// where every run plays its whole prefix.
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
    let per_seed_faults = |seed| {
        let members = fault_set(seed).into_iter().map(ProcessId);
        Family::RandomLiar(FaultSelection::explicit(members)).strategy(seed)
    };
    for spec in [
        AlgorithmSpec::KingShift { b: 3 },
        AlgorithmSpec::DynamicKing { b: 3 },
    ] {
        let cell = SweepConfig::traced(spec, n, spec.max_resilience(n));
        assert_rounds_spread(&assert_seeds_match_reference(
            &cell,
            true,
            16,
            per_seed_faults,
        ));
        assert_seeds_match_reference(&cell, false, 16, per_seed_faults);
    }
}

/// Worker count and batching compose: a mixed grid (kernel cell +
/// tree cell; two vector-path families, and an edge-faulting one with no
/// vector shape, whose kernel cell runs on the scalar engine; the oracle
/// adds the scalar leg) produces the reference report at
/// `--jobs {1, 8}` and on the cursor path, whose 70 seeds per cell cross
/// the 64-run chunk boundary.
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
            Family::Partition {
                selection: FaultSelection::with_source().limit(1),
                split: 1,
                from: 2,
                to: 3,
            }
            .into(),
        ],
        70,
    );
    let oracle = assert_engines_agree(&plan);
    assert_eq!(plan.run_with_jobs(8), oracle);
}
