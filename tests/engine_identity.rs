//! Every fast path, held to one oracle.
//!
//! The engine selects its paths from its *input*: it always pools, packs
//! ballots when `n ≤ 64 && |V| = 2`, and runs a chunk lock-step, its
//! faults injected at word width, when the spec has a kernel, the family
//! a vector shape and the chunk more than one seed — and falls back
//! (per-payload tallies, the scalar loop, factory rebuilds) when it does
//! not. No flag selects any of it, so nothing can be cross-checked by
//! flipping one. Instead every execution route is compared, on full
//! `SweepReport` equality, with a report built seed by seed on
//! `sg_sim::reference` (see `tests/oracle/mod.rs`): `SweepPlan::run`, the
//! daemon's cursor walk, and every cell run seed by seed on the scalar
//! engine (king cells included, strategies recycled by `reseed`) must all
//! say exactly what the naive engine says, early-stopping and
//! fixed-length alike.
//!
//! The property test covers the grid; the named cases below are the cells
//! CI's perf-smoke, `lie_smoke`, dynamic-gear, tree-family and
//! "submit == sweep --no-batch" loops used to drive through `sg` with one
//! escape hatch per invocation.

mod oracle;

use oracle::{assert_engines_agree, assert_seeds_match_reference};
use proptest::prelude::*;
use shifting_gears::adversary::{Family, FaultSelection};
use shifting_gears::analysis::{AdversaryFamily, SweepConfig, SweepPlan};
use shifting_gears::core::AlgorithmSpec;
use shifting_gears::sim::{Adversary, ProcessId};

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
/// shape parameters. Seven have a vector shape, `partition` corrupts
/// edges (the kernel bails out to the scalar engine), `no-faults` has
/// nothing to inject.
fn family(idx: usize, sel: FaultSelection) -> AdversaryFamily {
    match idx {
        0 => AdversaryFamily::no_faults(),
        1 => AdversaryFamily::random_liar(sel),
        2 => AdversaryFamily::chain_revealer(sel, 2, 2),
        3 => AdversaryFamily::crash(sel, 2),
        4 => AdversaryFamily::silent(sel),
        5 => Family::Partition {
            selection: sel,
            split: 1,
            from: 2,
            to: 3,
        }
        .into(),
        6 => Family::Omission {
            selection: sel,
            period: 2,
            phase: 0,
        }
        .into(),
        7 => AdversaryFamily::equivocate(sel, 3, 1),
        _ => Family::Adaptive {
            selection: sel,
            schedule: vec![2, 4],
        }
        .into(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The grid: family × adversary × fault budget × mode. Budgets are
    /// `f ∈ {0, 1, t}` sparing the source, plus the full budget with the
    /// source among the faulty — what makes a king sample depend on the
    /// lies told. Cells with a uniform lock-step kernel get 65 seeds, so
    /// one chunk fills completely and a 1-seed tail crosses the 64-lane
    /// boundary onto the scalar loop; the tree machines get fewer (their
    /// identity is scheduling and pooling only, and they are costly per
    /// run). Between them the cells take every route through the chunk
    /// executor: the king kernel, the gear shifts and tree specs on the
    /// scalar engine, the vector fault path, and the scalar engine for
    /// families without a vector shape (`partition`, and every family on
    /// the oracle's scalar leg).
    #[test]
    fn production_cursor_and_reference_agree_on_the_grid(
        spec_idx in 0usize..11,
        adv_idx in 0usize..9,
        budget in 0usize..4,
        fixed in any::<bool>(),
    ) {
        let spec = spec(spec_idx);
        let t = match spec {
            AlgorithmSpec::Hybrid { .. } => 3,
            _ => 2,
        };
        let sel = match budget {
            3 => FaultSelection::with_source(),
            f => FaultSelection::without_source().limit([0, 1, t][f]),
        };
        let seeds = match spec {
            AlgorithmSpec::OptimalKing
            | AlgorithmSpec::PhaseKing
            | AlgorithmSpec::PhaseQueen => 65,
            AlgorithmSpec::PlainExponential | AlgorithmSpec::Exponential => 4,
            _ => 8,
        };
        let mut plan = SweepPlan::new(
            vec![SweepConfig::traced(spec, 10, t)],
            vec![family(adv_idx, sel)],
            seeds,
        );
        plan.early_stopping = !fixed;
        assert_engines_agree(&plan);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The corner of the grid where a sample depends on *what the liars
    /// say*, sampled densely: the king-family specs (the three with a
    /// kernel, and the two gear shifts, whose king tails run on the scalar
    /// engine) under every vector-eligible family at `f ∈ {0, 1, t}` and
    /// with the source among the faulty. Under a correct source a king run
    /// locks on the first propose step whatever the lies are, so a wrong
    /// lane mask or a mis-drawn lie is invisible there; a source that lies
    /// from round 1 splits the correct processors, and every later tally —
    /// word-wide in the kernel, packed or per payload in the scalar engine
    /// and the reference — has to agree.
    #[test]
    fn lies_that_matter_reach_every_kernel(
        spec_idx in 0usize..5,
        adv_idx in 0usize..8,
        budget in 0usize..4,
        fixed in any::<bool>(),
    ) {
        let spec = [
            AlgorithmSpec::KingShift { b: 3 },
            AlgorithmSpec::DynamicKing { b: 3 },
            AlgorithmSpec::PhaseKing,
            AlgorithmSpec::PhaseQueen,
            AlgorithmSpec::OptimalKing,
        ][spec_idx];
        let sel = match budget {
            3 => FaultSelection::with_source(),
            f => FaultSelection::without_source().limit(f),
        };
        // The seven vector-shaped families of `family`, and a second,
        // denser chain-revealer.
        let family = match adv_idx {
            7 => AdversaryFamily::chain_revealer(sel, 1, 1),
            i => family([1, 2, 3, 4, 6, 7, 8][i], sel),
        };
        let seeds = match spec {
            AlgorithmSpec::KingShift { .. } | AlgorithmSpec::DynamicKing { .. } => 8,
            _ => 65,
        };
        let mut plan = SweepPlan::new(vec![SweepConfig::traced(spec, 10, 2)], vec![family], seeds);
        plan.early_stopping = !fixed;
        assert_engines_agree(&plan);
    }
}

/// The tree machine's corner of the same kind, every cell of it: the six
/// pure tree specs with the source among `f ∈ {1, t}` liars, in both
/// modes. A correct source makes every echo round read alike whatever the
/// liars say, so only a lying one exercises the level the scalar engine's
/// tree machine stores off the packed ballots at a block's echo round,
/// and the Fault Discovery Rule and echo rule that read it, against the
/// reference, which attaches no ballots and reads every payload slot. `partition` cuts edges, so its ballots are rebuilt per
/// recipient.
#[test]
fn lies_that_matter_reach_the_echo_round() {
    for spec in (0..6).map(spec) {
        let t = match spec {
            AlgorithmSpec::Hybrid { .. } => 3,
            _ => 2,
        };
        for f in [1, t] {
            let sel = FaultSelection::with_source().limit(f);
            // random-liar, partition, omission, equivocate, and a dense
            // chain-revealer.
            let families = [1, 5, 6, 7]
                .map(|i| family(i, sel.clone()))
                .into_iter()
                .chain([AdversaryFamily::chain_revealer(sel, 1, 1)]);
            for family in families {
                for fixed in [false, true] {
                    let config = SweepConfig::traced(spec, 10, t);
                    let mut plan = SweepPlan::new(vec![config], vec![family.clone()], 8);
                    plan.early_stopping = !fixed;
                    assert_engines_agree(&plan);
                }
            }
        }
    }
}

/// The echo round's fallback, named: past `n = 64` the engine attaches no
/// ballots, so the tree machine reads its echoes slot by slot on every
/// route. Algorithm C at `t = 2` is a three-round schedule.
#[test]
fn algorithm_c_n65_under_a_lying_source() {
    for fixed in [false, true] {
        let liars = AdversaryFamily::random_liar(FaultSelection::with_source());
        let config = SweepConfig::traced(AlgorithmSpec::AlgorithmC, 65, 2);
        let mut plan = SweepPlan::new(vec![config], vec![liars], 4);
        plan.early_stopping = !fixed;
        assert_engines_agree(&plan);
    }
}

/// One named cell at its spec's maximum resilience: every route agrees
/// with the reference.
fn check_cell(spec: AlgorithmSpec, n: usize, family: AdversaryFamily, seeds: u64, fixed: bool) {
    let config = SweepConfig::traced(spec, n, spec.max_resilience(n));
    let mut plan = SweepPlan::new(vec![config], vec![family], seeds);
    plan.early_stopping = !fixed;
    assert_engines_agree(&plan);
}

fn staged_lies_from_a_faulty_source() -> AdversaryFamily {
    AdversaryFamily::chain_revealer(FaultSelection::with_source(), 2, 2)
}

fn random_liars() -> AdversaryFamily {
    AdversaryFamily::random_liar(FaultSelection::without_source())
}

// The deleted CI loops ran the gear and tree cells early-stopping only;
// so do the cases below (their fixed-length mode is in the grid above, at
// n = 10 — in a debug build a tree prefix at n = 16 costs ~10 ms a run).
// The pure king cells, a few µs a run, take both modes.

/// CI's `lie_smoke`, king half: with a faulty source under staged random
/// lies the sample depends on what the liars say — the vector path's
/// turn rule and the first-draw kernel against per-edge scalar draws.
#[test]
fn optimal_king_n31_under_a_lying_source() {
    for fixed in [false, true] {
        let lies = staged_lies_from_a_faulty_source();
        check_cell(AlgorithmSpec::OptimalKing, 31, lies, 200, fixed);
    }
}

/// CI's `lie_smoke`, gear half: the same lies through a gear shift's tree
/// prefix and king tail on the scalar engine.
#[test]
fn dynamic_king_n16_under_a_lying_source() {
    let lies = staged_lies_from_a_faulty_source();
    check_cell(AlgorithmSpec::DynamicKing { b: 3 }, 16, lies, 200, false);
}

/// CI's dynamic-gear smoke: runtime gear shifts (and the static plan
/// beside them) are exactly as deterministic as the static specs. One
/// full chunk and an 8-lane one; the 200-seed depth is the cell above.
#[test]
fn gear_shifting_kings_n16() {
    check_cell(
        AlgorithmSpec::DynamicKing { b: 3 },
        16,
        random_liars(),
        72,
        false,
    );
    check_cell(
        AlgorithmSpec::KingShift { b: 3 },
        16,
        random_liars(),
        72,
        false,
    );
}

/// CI's tree-family smoke: the tree machine reads one process-wide label
/// table per `(n, source)`; a pooled instance must not differ from a
/// fresh one (`tests/tree_fingerprints.rs` pins that a second worker
/// thread's trees do not differ from the first's).
#[test]
fn tree_family_n16_and_n13() {
    check_cell(
        AlgorithmSpec::Hybrid { b: 3 },
        16,
        random_liars(),
        16,
        false,
    );
    check_cell(
        AlgorithmSpec::AlgorithmA { b: 3 },
        13,
        random_liars(),
        16,
        false,
    );
}

/// CI's "submit == sweep --no-batch" cell: 130 seeds are two full
/// lock-step chunks and a 2-seed tail, which is how the daemon's cursor
/// walks it.
#[test]
fn the_130_seed_serve_cell() {
    for fixed in [false, true] {
        check_cell(AlgorithmSpec::OptimalKing, 16, random_liars(), 130, fixed);
    }
}

/// The benchmark's `king-fullround` cells at the lane and slot limit: 64
/// lanes × 64 slots, where a tally can reach the counter's last plane.
/// Under the matched equivocation a faulty source keeps the correct
/// processors split, so the schedules run to their end (66 / 33 / 33
/// rounds) on liar rows that differ per recipient; under random lies
/// every lane hears its own.
fn check_n64(spec: AlgorithmSpec) {
    for fixed in [false, true] {
        let matched = AdversaryFamily::equivocate(FaultSelection::with_source(), 43, 1);
        check_cell(spec, 64, matched, 65, fixed);
        let liars = AdversaryFamily::random_liar(FaultSelection::with_source());
        check_cell(spec, 64, liars, 65, fixed);
    }
}

#[test]
fn optimal_king_n64_full_schedules() {
    check_n64(AlgorithmSpec::OptimalKing);
}

#[test]
fn phase_king_n64_full_schedules() {
    check_n64(AlgorithmSpec::PhaseKing);
}

#[test]
fn phase_queen_n64_full_schedules() {
    check_n64(AlgorithmSpec::PhaseQueen);
}

/// An adversary whose **fault set depends on the seed**: a window of
/// consecutive ids that starts at `seed mod n` (wrapping, so some windows
/// take in the source) and grows by one, up to `t` and back to none,
/// every `n` seeds — telling random lies, the
/// two-audience story, or — so that what a faulty *shadow* computed is
/// heard by someone — relaying its shadow minus every third edge. No
/// `Family` says this, and a fault set that changes from seed to seed
/// has no lock-step form (a batch has one fault set): every cell here,
/// the king rows included, runs seed by seed on the scalar engine's one
/// arena, where every seed needs its own strategy — one recycled from the
/// seed before would keep that seed's window.
fn rotating_faults(n: usize, t: usize, story: &'static str) -> impl Fn(u64) -> Box<dyn Adversary> {
    move |seed| {
        let start = (seed % n as u64) as usize;
        let size = (seed / n as u64 % (t as u64 + 1)) as usize;
        let window = FaultSelection::explicit((0..size).map(|k| ProcessId((start + k) % n)));
        match story {
            "random-liar" => Family::RandomLiar(window).strategy(seed),
            "equivocate" => Family::Equivocate {
                selection: window,
                split: 2 * n / 3,
                start: 1,
            }
            .strategy(0),
            _ => Family::Omission {
                selection: window,
                period: 3,
                phase: 0,
            }
            .strategy(0),
        }
    }
}

#[test]
fn fault_sets_that_differ_lane_by_lane() {
    let cells = [
        (AlgorithmSpec::OptimalKing, 16, 65),
        (AlgorithmSpec::PhaseKing, 16, 65),
        (AlgorithmSpec::PhaseQueen, 16, 65),
        (AlgorithmSpec::KingShift { b: 3 }, 13, 24),
        (AlgorithmSpec::Exponential, 7, 24),
    ];
    for (spec, n, seeds) in cells {
        let t = spec.max_resilience(n);
        let cell = SweepConfig::traced(spec, n, t);
        for story in ["random-liar", "equivocate", "omission"] {
            for early_stopping in [true, false] {
                let rotating = rotating_faults(n, t, story);
                assert_seeds_match_reference(&cell, early_stopping, seeds, rotating);
            }
        }
    }
}
