//! Quantitative integration tests: measured rounds, message sizes, local
//! space and determinism against the paper's stated bounds. The bounds
//! are statements about *full* schedules, so the runs here are
//! fixed-length: with a correct source the echo rule (`sg_core::GearedProtocol`)
//! would end every one of them at round 2.

use shifting_gears::adversary::{Family, FaultSelection};
use shifting_gears::analysis::bounds::{
    blocked_max_message_values, c_max_message_values, exponential_max_message_values,
};
use shifting_gears::core::schedule::{algorithm_a_rounds_bound, algorithm_b_rounds_bound};
use shifting_gears::core::{execute, t_a, t_b, t_c, AlgorithmSpec, HybridSchedule};
use shifting_gears::sim::{Outcome, RunConfig, Value};

fn run(spec: AlgorithmSpec, n: usize, t: usize, seed: u64) -> Outcome {
    let config = RunConfig::new(n, t)
        .with_source_value(Value(1))
        .fixed_length();
    let mut adversary = Family::ChainRevealer {
        selection: FaultSelection::without_source(),
        start: 2,
        block: 2,
    }
    .strategy(seed);
    let outcome = execute(spec, &config, adversary.as_mut()).expect("valid parameters");
    outcome.assert_correct();
    outcome
}

#[test]
fn exponential_rounds_and_message_sizes_match_proposition_1() {
    for (n, t) in [(4, 1), (7, 2), (10, 3)] {
        let outcome = run(AlgorithmSpec::Exponential, n, t, 3);
        assert_eq!(outcome.rounds_used, t + 1);
        assert_eq!(
            outcome.metrics.max_message_values() as u128,
            exponential_max_message_values(n, t),
            "n={n} t={t}"
        );
    }
}

#[test]
fn algorithm_a_message_sizes_bounded_by_level_b_minus_1() {
    for (n, b) in [(13, 3), (16, 3), (16, 4)] {
        let t = t_a(n);
        let outcome = run(AlgorithmSpec::AlgorithmA { b }, n, t, 5);
        assert!(outcome.rounds_used <= algorithm_a_rounds_bound(t, b));
        assert_eq!(
            outcome.metrics.max_message_values() as u128,
            blocked_max_message_values(n, b),
            "n={n} b={b}"
        );
    }
}

#[test]
fn algorithm_b_message_sizes_bounded_by_level_b_minus_1() {
    for (n, b) in [(13, 2), (17, 3), (21, 3)] {
        let t = t_b(n);
        let outcome = run(AlgorithmSpec::AlgorithmB { b }, n, t, 7);
        assert!(outcome.rounds_used <= algorithm_b_rounds_bound(t, b));
        assert_eq!(
            outcome.metrics.max_message_values() as u128,
            blocked_max_message_values(n, b),
            "n={n} b={b}"
        );
    }
}

#[test]
fn algorithm_c_messages_stay_linear_in_n() {
    for n in [18, 32, 50] {
        let t = t_c(n);
        let outcome = run(AlgorithmSpec::AlgorithmC, n, t, 9);
        assert_eq!(outcome.rounds_used, t + 1);
        assert_eq!(
            outcome.metrics.max_message_values() as u128,
            c_max_message_values(n)
        );
        // Peak tree: root + intermediates + n×n leaf matrix (+1 for the
        // no-rep root kept in sync).
        assert!(outcome.metrics.peak_tree_nodes <= (2 + n + n * n) as u64);
    }
}

#[test]
fn hybrid_rounds_match_main_theorem_and_messages_match_a() {
    for (n, b) in [(10, 3), (13, 3), (16, 3), (16, 4)] {
        let t = t_a(n);
        let schedule = HybridSchedule::compute(n, b);
        let outcome = run(AlgorithmSpec::Hybrid { b }, n, t, 11);
        assert_eq!(outcome.rounds_used, schedule.total_rounds());
        assert_eq!(outcome.rounds_used, schedule.main_theorem_rounds());
        // The hybrid's biggest message is the same O(n^b) gather as A's
        // (level b−1), provided its A phase contains a full block.
        if schedule.a_blocks.contains(&b) {
            assert_eq!(
                outcome.metrics.max_message_values() as u128,
                blocked_max_message_values(n, b),
                "n={n} b={b}"
            );
        }
    }
}

#[test]
fn executions_are_deterministic() {
    let config = RunConfig::new(13, 4).with_source_value(Value(1));
    let outcomes: Vec<Outcome> = (0..2)
        .map(|_| {
            let mut adversary = Family::RandomLiar(FaultSelection::with_source()).strategy(99);
            execute(AlgorithmSpec::Hybrid { b: 3 }, &config, adversary.as_mut()).expect("valid")
        })
        .collect();
    assert_eq!(outcomes[0].decisions, outcomes[1].decisions);
    assert_eq!(outcomes[0].metrics, outcomes[1].metrics);
}

#[test]
fn honest_traffic_is_adversary_independent() {
    // The schedule fixes what honest processors send; two very different
    // adversaries must produce identical honest traffic shapes.
    let config = RunConfig::new(13, 4).with_source_value(Value(1));
    let mut liar = Family::RandomLiar(FaultSelection::without_source()).strategy(1);
    let mut chain = Family::ChainRevealer {
        selection: FaultSelection::without_source(),
        start: 2,
        block: 2,
    }
    .strategy(2);
    let a = execute(AlgorithmSpec::AlgorithmA { b: 3 }, &config, liar.as_mut()).expect("valid");
    let b = execute(AlgorithmSpec::AlgorithmA { b: 3 }, &config, chain.as_mut()).expect("valid");
    assert_eq!(
        a.metrics.max_message_values(),
        b.metrics.max_message_values()
    );
    assert_eq!(a.metrics.total_messages(), b.metrics.total_messages());
}

#[test]
fn over_threshold_runs_do_not_panic() {
    // With more than t faults no guarantee applies, but the system must
    // still run to completion (decisions may disagree).
    let config = RunConfig::new(7, 2)
        .with_source_value(Value(1))
        .fixed_length();
    let mut adversary = Family::RandomLiar(shifting_gears::adversary::FaultSelection::explicit([
        shifting_gears::sim::ProcessId(1),
        shifting_gears::sim::ProcessId(2),
        shifting_gears::sim::ProcessId(3),
    ]))
    .strategy(4);
    let outcome = shifting_gears::sim::run(
        &config,
        adversary.as_mut(),
        AlgorithmSpec::Exponential.factory(&config),
    );
    assert_eq!(outcome.rounds_used, 3);
    assert_eq!(outcome.faulty.len(), 3);
}

#[test]
fn local_ops_grow_polynomially_for_blocked_families() {
    // Theorem 2/3's point: at fixed b, doubling n must not explode local
    // computation beyond ~n^{b+1}.
    let small = run(AlgorithmSpec::AlgorithmB { b: 2 }, 9, 2, 21);
    let large = run(AlgorithmSpec::AlgorithmB { b: 2 }, 17, 4, 21);
    let ratio = large.metrics.max_local_ops() as f64 / small.metrics.max_local_ops() as f64;
    // n grew ~1.9x; n^{b+1} = n^3 predicts ~6.7x; t doubled adds ~2x
    // more rounds. Anything under ~40x is comfortably polynomial.
    assert!(ratio < 40.0, "ratio {ratio}");
}
