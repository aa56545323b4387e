//! Early stopping is an *optimization*, never a semantic change: for
//! every protocol family × adversary (including the actual-fault-budget
//! scenarios with `f_actual < t`), the early-stopped run must decide the
//! same values as the same-seed fixed-length run —
//! agreement and validity preserved — while never overrunning the static
//! schedule. Fault-free (`f = 0`) runs of the early-stopping families
//! must *strictly* undercut their schedules: that saving is the paper's
//! expedite thesis made measurable. Since the echo rule
//! (`sg_core::GearedProtocol`) the tree machine is one of those families: a
//! correct source ends every tree spec at round 2.
//!
//! Also pinned here: the sweep engine's adversary pool
//! (`Adversary::reseed`) is unobservable — pooled-warm and pooled-cold
//! sweeps produce the report the reference engine builds from a fresh
//! strategy instance per seed.

mod oracle;

use proptest::prelude::*;
use shifting_gears::adversary::{Family, FaultSelection};
use shifting_gears::analysis::{AdversaryFamily, SweepConfig, SweepPlan, TREE_PAPER_CELLS};
use shifting_gears::core::{execute, AlgorithmSpec};
use shifting_gears::sim::{Adversary, NoFaults, Outcome, RunConfig, Value};

/// One strategy instance; `f` caps the actual fault count (`None` = the
/// full budget `t`).
fn adversary(idx: usize, seed: u64, f: Option<usize>) -> Box<dyn Adversary> {
    let cap = |sel: FaultSelection| match f {
        Some(f) => sel.limit(f),
        None => sel,
    };
    match idx {
        0 => Box::new(NoFaults),
        1 => Family::RandomLiar(cap(FaultSelection::with_source())).strategy(seed),
        2 => Family::TwoFaced(cap(FaultSelection::without_source())).strategy(0),
        3 => Family::ChainRevealer {
            selection: cap(FaultSelection::without_source()),
            start: 2,
            block: 2,
        }
        .strategy(seed),
        // The new crash-early / go-silent scenario families.
        4 => Family::Crash {
            selection: cap(FaultSelection::without_source()),
            round: 2,
        }
        .strategy(0),
        _ => Family::Silent(cap(FaultSelection::without_source())).strategy(0),
    }
}

/// Runs `spec` twice with the same adversary construction — early
/// stopping, then fixed-length — and returns both outcomes.
fn run_pair(
    spec: AlgorithmSpec,
    n: usize,
    t: usize,
    mk_adversary: &dyn Fn() -> Box<dyn Adversary>,
) -> (Outcome, Outcome) {
    let config = RunConfig::new(n, t)
        .with_source_value(Value(1))
        .with_trace();
    let expedited = execute(spec, &config, mk_adversary().as_mut())
        .unwrap_or_else(|e| panic!("{}: {e}", spec.name()));
    let fixed = execute(spec, &config.fixed_length(), mk_adversary().as_mut())
        .unwrap_or_else(|e| panic!("{}: {e}", spec.name()));
    (expedited, fixed)
}

/// The core equivalence: same decisions, same fault set, schedule
/// respected, and the expedited metrics are a round-prefix of the fixed
/// run's.
fn check_equivalence(
    label: &str,
    spec: AlgorithmSpec,
    n: usize,
    t: usize,
    expedited: &Outcome,
    fixed: &Outcome,
) {
    assert_eq!(expedited.faulty, fixed.faulty, "{label}: fault set");
    assert_eq!(
        expedited.decisions, fixed.decisions,
        "{label}: early stopping changed a decision"
    );
    expedited.assert_correct();
    fixed.assert_correct();
    assert_eq!(expedited.validity(), fixed.validity(), "{label}: validity");

    assert_eq!(fixed.scheduled_rounds, spec.rounds(n, t), "{label}");
    if matches!(spec, AlgorithmSpec::DynamicKing { .. }) {
        // A committed gear shift is part of the schedule: it shortens
        // the fixed-length run too.
        assert!(fixed.rounds_used <= fixed.scheduled_rounds, "{label}");
        assert!(expedited.rounds_used <= fixed.rounds_used, "{label}");
    } else {
        assert_eq!(fixed.rounds_used, fixed.scheduled_rounds, "{label}");
        assert!(!fixed.early_stopped, "{label}");
    }
    assert_eq!(
        expedited.scheduled_rounds, fixed.scheduled_rounds,
        "{label}"
    );
    assert!(
        expedited.rounds_used <= expedited.scheduled_rounds,
        "{label}: overran the schedule"
    );
    assert_eq!(
        expedited.early_stopped,
        expedited.rounds_used < expedited.scheduled_rounds,
        "{label}"
    );

    // Up to the stopping round the executions are identical, so the
    // expedited per-round metrics are exactly a prefix of the fixed ones.
    assert_eq!(
        expedited.metrics.per_round[..],
        fixed.metrics.per_round[..expedited.rounds_used],
        "{label}: metrics diverged before the stopping round"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Every early-stopping family — the seven `tree-paper` specs at
    /// their benchmark sizes among them — the adversary sample
    /// (including crash/silent), and actual fault budgets
    /// `f ∈ {0, 1, t}`: expedited and fixed-length runs decide
    /// identically, and a correct source stops every tree spec at the
    /// first echo.
    #[test]
    fn early_stopped_runs_decide_like_fixed_runs(
        seed in 0u64..1_000,
        adv_idx in 0usize..6,
        f_sel in 0usize..3,
    ) {
        let cases = [
            (AlgorithmSpec::PhaseKing, 9, 2),
            (AlgorithmSpec::PhaseQueen, 9, 2),
            (AlgorithmSpec::OptimalKing, 7, 2),
            (AlgorithmSpec::DolevStrong, 5, 3),
        ];
        let tree_paper = TREE_PAPER_CELLS.map(|(spec, n)| (spec, n, spec.max_resilience(n)));
        for (i, (spec, n, t)) in cases.into_iter().chain(tree_paper).enumerate() {
            let f = [Some(0), Some(1), None][f_sel].map(|f| f.min(t));
            let mk = || adversary(adv_idx, seed, f);
            let (expedited, fixed) = run_pair(spec, n, t, &mk);
            let label = format!("{} adv={adv_idx} f={f:?} seed={seed}", spec.name());
            check_equivalence(&label, spec, n, t, &expedited, &fixed);
            let source_correct = !expedited.faulty.contains(expedited.config.source);
            if i >= cases.len() && source_correct {
                prop_assert_eq!(
                    expedited.rounds_used, 2,
                    "{}: a correct source stops every tree spec at round 2", label
                );
            }
        }
    }
}

/// The expedite thesis, concretely: with zero actual faults the
/// early-stopping families finish strictly below their schedules —
/// Dolev–Strong by the quiescence rule (`min(f+2, t+1)` with `f = 0`),
/// the king family one propose step after the source round, the tree
/// family (gear hybrids included: their prefix stops them before any
/// tail is seeded) at the first echo.
#[test]
fn fault_free_runs_strictly_undercut_their_schedules() {
    let cases = [
        (AlgorithmSpec::DolevStrong, 5, 3, 2),           // t+1 = 4 → 2
        (AlgorithmSpec::OptimalKing, 16, 5, 3),          // 3t+4 = 19 → 3
        (AlgorithmSpec::PhaseKing, 16, 3, 3),            // 2t+3 = 9 → 3
        (AlgorithmSpec::PhaseQueen, 16, 3, 3),           // 2t+3 = 9 → 3
        (AlgorithmSpec::KingShift { b: 3 }, 16, 5, 2),   // 1+b+3(t+1) = 22 → 2
        (AlgorithmSpec::DynamicKing { b: 3 }, 16, 5, 2), // 1+4b+3(t+1) = 31 → 2
        (AlgorithmSpec::Exponential, 10, 3, 2),          // t+1 = 4 → 2
        (AlgorithmSpec::AlgorithmA { b: 3 }, 16, 5, 2),  // 13 → 2
        (AlgorithmSpec::AlgorithmB { b: 3 }, 17, 4, 2),  // 6 → 2
        (AlgorithmSpec::AlgorithmC, 32, 4, 2),           // t+1 = 5 → 2
        (AlgorithmSpec::Hybrid { b: 3 }, 16, 5, 2),      // 12 → 2
    ];
    for (spec, n, t, expect) in cases {
        let config = RunConfig::new(n, t).with_source_value(Value(1));
        let outcome = execute(spec, &config, &mut NoFaults).unwrap();
        outcome.assert_correct();
        assert!(
            outcome.rounds_used < outcome.scheduled_rounds,
            "{}: no expedite at f = 0",
            spec.name()
        );
        assert_eq!(outcome.rounds_used, expect, "{}", spec.name());
        assert!(outcome.early_stopped, "{}", spec.name());
        assert_eq!(
            outcome.rounds_saved(),
            outcome.scheduled_rounds - expect,
            "{}",
            spec.name()
        );
    }
}

/// The acceptance workload: an `f_actual = 0` sweep shows `mean_rounds`
/// strictly below the schedule for Dolev–Strong, the king family and
/// the tree family alike, with a 100% early-stop rate.
#[test]
fn fault_budget_sweep_records_the_expedite_win() {
    let plan = SweepPlan::new(
        vec![
            SweepConfig::traced(AlgorithmSpec::DolevStrong, 5, 3),
            SweepConfig::traced(AlgorithmSpec::OptimalKing, 16, 5),
            SweepConfig::traced(AlgorithmSpec::Exponential, 7, 2),
        ],
        vec![
            // f_actual = 0 spelled two ways: an empty crash selection and
            // the fault-free family.
            AdversaryFamily::crash(FaultSelection::without_source().limit(0), 2),
            AdversaryFamily::no_faults(),
        ],
        5,
    );
    let report = plan.run_with_jobs(1);
    for cell in &report.cells {
        let rounds = &cell.summaries[4];
        let schedule = match cell.spec_name.as_str() {
            "dolev-strong" => AlgorithmSpec::DolevStrong.rounds(cell.n, cell.t),
            "optimal-king" => AlgorithmSpec::OptimalKing.rounds(cell.n, cell.t),
            _ => AlgorithmSpec::Exponential.rounds(cell.n, cell.t),
        } as u64;
        assert!(
            rounds.mean < schedule as f64,
            "{}: mean rounds {} not below schedule {schedule}",
            cell.spec_name,
            rounds.mean
        );
        assert!((cell.early_stop_rate - 1.0).abs() < f64::EPSILON);
        if cell.spec_name == "exponential" {
            assert_eq!(rounds.max, 2, "a correct source: one echo");
        }
        // The rendered row carries the new columns.
        let line = cell.render_line();
        assert!(line.contains("rounds"), "{line}");
        assert!(line.contains("early-stop 100%"), "{line}");
    }
}

/// The adversary pool is unobservable: a first sweep, a second
/// (reseed-recycled) one and the reference engine's report — a fresh
/// strategy instance per seed — are bit-identical.
#[test]
fn adversary_reseed_pooling_is_bit_identical() {
    let plan = SweepPlan::new(
        vec![
            SweepConfig::traced(AlgorithmSpec::OptimalKing, 7, 2),
            SweepConfig::traced(AlgorithmSpec::Hybrid { b: 3 }, 10, 3),
        ],
        vec![
            AdversaryFamily::random_liar(FaultSelection::with_source()),
            AdversaryFamily::chain_revealer(FaultSelection::without_source().limit(1), 2, 2),
            AdversaryFamily::crash(FaultSelection::without_source(), 3),
            AdversaryFamily::silent(FaultSelection::without_source().limit(1)),
            AdversaryFamily::no_faults(),
            Family::TwoFaced(FaultSelection::without_source()).into(),
            Family::EquivocatingSource(FaultSelection::with_source()).into(),
            Family::Stealth(FaultSelection::with_source().limit(1)).into(),
            Family::DoubleTalk(FaultSelection::without_source()).into(),
            Family::StaggeredSplit {
                selection: FaultSelection::with_source(),
                start: 2,
                block: 2,
            }
            .into(),
            Family::Collusion(FaultSelection::without_source().limit(1)).into(),
            Family::StaleShadow(FaultSelection::with_source()).into(),
            Family::FrontierBreaker(FaultSelection::with_source()).into(),
        ],
        4,
    );
    // Sequential so both passes share one thread's adversary pool: the
    // first pass seeds it, the second runs entirely on reseeds.
    let cold = plan.run_with_jobs(1);
    let warm = plan.run_with_jobs(1);
    assert_eq!(cold, warm, "reseed-recycled sweep diverged");
    assert_eq!(
        cold,
        oracle::via_reference(&plan),
        "pooled and fresh sweeps diverged"
    );
}

/// `rounds_used` equality at the schedule: a fixed-length run reports
/// exactly its schedule, for every family × adversary.
#[test]
fn fixed_length_mode_reports_full_schedules() {
    for (spec, n, t) in [
        (AlgorithmSpec::OptimalKing, 7, 2),
        (AlgorithmSpec::DolevStrong, 5, 3),
    ] {
        for adv_idx in 0..6 {
            let config = RunConfig::new(n, t)
                .with_source_value(Value(1))
                .fixed_length();
            let outcome = execute(spec, &config, adversary(adv_idx, 7, None).as_mut()).unwrap();
            assert_eq!(outcome.rounds_used, spec.rounds(n, t), "{}", spec.name());
            assert!(!outcome.early_stopped);
        }
    }
}
