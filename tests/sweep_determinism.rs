//! Determinism guarantees of the parallel sweep engine and the engine's
//! arena recycling.
//!
//! The sweep engine's contract is that worker count is *unobservable* in
//! the output: a seeded [`SweepPlan`] produces bit-identical
//! [`SweepReport`]s at `--jobs 1` and `--jobs 8`, because every run's
//! seed is a pure function of its grid coordinates and results are
//! collected in grid order. The engine's contract is that [`RunArena`]
//! recycling (the thread-local pool behind `engine::run`) never leaks
//! state between consecutive runs.
//!
//! The two fingerprints every PR since PR 2 has had to reproduce are
//! pinned here as constants, on the production engine and on
//! `sg_sim::reference` alike.

mod oracle;

use shifting_gears::adversary::{Family, FaultSelection};
use shifting_gears::analysis::{AdversaryFamily, SweepConfig, SweepPlan};
use shifting_gears::core::{execute, AlgorithmSpec};
use shifting_gears::sim::{run_into, NoFaults, Outcome, RunArena, RunConfig, Value};

fn grid() -> SweepPlan {
    SweepPlan::new(
        vec![
            SweepConfig::traced(AlgorithmSpec::OptimalKing, 10, 3),
            SweepConfig::traced(AlgorithmSpec::Hybrid { b: 3 }, 10, 3),
        ],
        vec![
            AdversaryFamily::random_liar(FaultSelection::with_source()),
            AdversaryFamily::chain_revealer(FaultSelection::without_source(), 2, 2),
        ],
        5,
    )
}

/// The canary cell — `optimal-king n=16 t=5` under random liars sparing
/// the source, 1000 seeds from base 0 — fingerprints to this.
const CANARY_EARLY: u64 = 0xd5c0_db8c_0396_4e75;

/// The same cell as a fixed-length plan: the pre-early-stopping engine's
/// output, unmoved since.
const CANARY_FIXED: u64 = 0x40c1_8433_ac71_1905;

#[test]
fn canary_fingerprints_are_pinned_on_both_engines() {
    let canary = SweepPlan::new(
        vec![SweepConfig::traced(AlgorithmSpec::OptimalKing, 16, 5)],
        vec![AdversaryFamily::random_liar(
            FaultSelection::without_source(),
        )],
        1000,
    );
    for (plan, pinned) in [
        (canary.clone(), CANARY_EARLY),
        (canary.fixed_length(), CANARY_FIXED),
    ] {
        assert_eq!(plan.run().fingerprint(), pinned, "SweepPlan::run");
        for jobs in [1, 8] {
            assert_eq!(
                plan.run_with_jobs(jobs).fingerprint(),
                pinned,
                "--jobs {jobs}"
            );
        }
        assert_eq!(
            oracle::via_reference(&plan).fingerprint(),
            pinned,
            "sg_sim::reference"
        );
    }
}

/// The tentpole guarantee: `--jobs 1` and `--jobs 8` produce the same
/// bytes — every sample of every cell, not just the summaries.
#[test]
fn sweep_report_is_bit_identical_across_job_counts() {
    let serial = grid().run_with_jobs(1);
    let parallel = grid().run_with_jobs(8);
    assert_eq!(serial, parallel);
    assert_eq!(serial.total_runs, 20);
    // And re-running serially reproduces itself (the plan is a pure
    // function of its coordinates).
    assert_eq!(serial, grid().run_with_jobs(1));
}

/// Seeds depend on grid coordinates only, so *reordering the grid* moves
/// cells around but never changes a cell's samples.
#[test]
fn cell_results_do_not_depend_on_grid_position_of_other_cells() {
    let full = grid().run_with_jobs(2);
    let single = SweepPlan::new(
        vec![SweepConfig::traced(AlgorithmSpec::OptimalKing, 10, 3)],
        vec![AdversaryFamily::random_liar(FaultSelection::with_source())],
        5,
    )
    .run_with_jobs(2);
    // Cell (0, 0) of the full grid has coordinates (0, 0) in both plans,
    // hence the same seed stream and the same samples.
    assert_eq!(full.cells[0].samples, single.cells[0].samples);
    assert_eq!(full.cells[0].summaries, single.cells[0].summaries);
}

/// Arena recycling must not leak trace state: a traced run followed by an
/// untraced run on the same thread (hence the same pooled arena) yields
/// an empty trace for the second run.
#[test]
fn arena_reuse_does_not_leak_traces_between_runs() {
    let traced_config = RunConfig::new(10, 3)
        .with_source_value(Value(1))
        .with_trace();
    let mut adversary = Family::RandomLiar(FaultSelection::with_source()).strategy(7);
    let traced = execute(
        AlgorithmSpec::Hybrid { b: 3 },
        &traced_config,
        adversary.as_mut(),
    )
    .unwrap();
    assert!(
        !traced.trace.entries().is_empty(),
        "run A (traced) must record events"
    );

    let untraced_config = RunConfig::new(10, 3).with_source_value(Value(1));
    let mut adversary = Family::RandomLiar(FaultSelection::with_source()).strategy(7);
    let untraced = execute(
        AlgorithmSpec::Hybrid { b: 3 },
        &untraced_config,
        adversary.as_mut(),
    )
    .unwrap();
    assert!(
        untraced.trace.entries().is_empty(),
        "run B (untraced) must not inherit run A's trace"
    );

    // Everything except the trace matches: arena reuse changed nothing.
    assert_eq!(traced.decisions, untraced.decisions);
    assert_eq!(traced.faulty, untraced.faulty);
    assert_eq!(traced.metrics.per_round, untraced.metrics.per_round);
}

/// Explicitly holding one arena across many heterogeneous runs (different
/// n, different protocols, traced and untraced) reproduces the outcomes
/// of fresh-arena runs exactly.
#[test]
fn one_arena_reused_across_heterogeneous_runs_matches_fresh_runs() {
    let cases = [
        (AlgorithmSpec::Exponential, 7, 2, true),
        (AlgorithmSpec::OptimalKing, 13, 4, false),
        (AlgorithmSpec::Exponential, 4, 1, false),
        (AlgorithmSpec::Hybrid { b: 3 }, 10, 3, true),
    ];
    let mut arena = RunArena::new();
    let mut reused = Outcome::buffer();
    for (spec, n, t, trace) in cases {
        let mut config = RunConfig::new(n, t).with_source_value(Value(1));
        if trace {
            config = config.with_trace();
        }
        // Reference run through the pooled path.
        let mut adversary = Family::RandomLiar(FaultSelection::with_source()).strategy(42);
        let fresh = execute(spec, &config, adversary.as_mut()).unwrap();
        // Same run through the shared, explicitly reused arena and
        // result buffer.
        let mut adversary = Family::RandomLiar(FaultSelection::with_source()).strategy(42);
        let mk = spec.factory(&config);
        run_into(
            &mut arena,
            &config,
            adversary.as_mut(),
            None,
            mk,
            &mut reused,
        );
        assert_eq!(fresh.decisions, reused.decisions);
        assert_eq!(fresh.faulty, reused.faulty);
        assert_eq!(fresh.metrics, reused.metrics);
        assert_eq!(fresh.trace, reused.trace);
        assert_eq!(fresh.rounds_used, reused.rounds_used);
    }
}

/// The fault-free baseline also survives arena recycling bit-for-bit
/// (exercises the interned missing-payload path end to end).
#[test]
fn fault_free_runs_are_stable_under_recycling() {
    let config = RunConfig::new(16, 5).with_source_value(Value(1));
    let first = execute(AlgorithmSpec::OptimalKing, &config, &mut NoFaults).unwrap();
    for _ in 0..3 {
        let again = execute(AlgorithmSpec::OptimalKing, &config, &mut NoFaults).unwrap();
        assert_eq!(first.decisions, again.decisions);
        assert_eq!(first.metrics, again.metrics);
    }
    assert_eq!(first.decision(), Some(Value(1)));
}
