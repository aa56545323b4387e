//! Integration gauntlet: every algorithm × every adversary strategy ×
//! source-correct/faulty × both source values must reach Byzantine
//! agreement with validity, within its round schedule.

use shifting_gears::adversary::{quick_suite, standard_suite, RecordingAdversary};
use shifting_gears::core::{execute, AlgorithmSpec};
use shifting_gears::sim::{RunConfig, Value};

/// Runs `spec` against the full standard suite at maximum resilience.
fn gauntlet(spec: AlgorithmSpec, n: usize, t: usize, quick: bool) {
    let suite = if quick {
        quick_suite(0xC0FFEE)
    } else {
        standard_suite(0xC0FFEE)
    };
    for mut adversary in suite {
        for source_value in [Value(0), Value(1)] {
            let config = RunConfig::new(n, t).with_source_value(source_value);
            let outcome = execute(spec, &config, adversary.as_mut())
                .unwrap_or_else(|e| panic!("{} invalid: {e}", spec.name()));
            assert!(
                outcome.faulty.len() <= t,
                "{} corrupted more than t",
                adversary.name()
            );
            outcome.assert_correct();
            assert_eq!(
                outcome.scheduled_rounds,
                spec.rounds(n, t),
                "{} schedule drifted under {}",
                spec.name(),
                outcome.adversary
            );
            assert!(
                outcome.rounds_used <= outcome.scheduled_rounds,
                "{} overran its schedule under {}",
                spec.name(),
                outcome.adversary
            );
            assert_eq!(
                outcome.early_stopped,
                outcome.rounds_used < outcome.scheduled_rounds,
                "{} mis-reported early_stopped under {}",
                spec.name(),
                outcome.adversary
            );
        }
    }
}

/// A gauntlet runs one strategy instance for both source values, so a
/// strategy must carry nothing from one run into the next: every suite
/// entry's second run records the trace, decisions and rounds that a
/// fresh instance's does.
#[test]
fn a_reused_strategy_runs_like_a_fresh_one() {
    for (spec, n, t) in [
        (AlgorithmSpec::Exponential, 7, 2),
        (AlgorithmSpec::PhaseKing, 9, 2),
        (AlgorithmSpec::OptimalKing, 7, 2),
        (AlgorithmSpec::Hybrid { b: 3 }, 10, 3),
        (AlgorithmSpec::AlgorithmC, 9, 2),
    ] {
        for early in [true, false] {
            let config = |value| {
                let config = RunConfig::new(n, t).with_source_value(value);
                if early {
                    config
                } else {
                    config.fixed_length()
                }
            };
            let fresh = standard_suite(0xC0FFEE);
            for (reused, fresh) in standard_suite(0xC0FFEE).into_iter().zip(fresh) {
                let mut reused = RecordingAdversary::new(reused);
                execute(spec, &config(Value(0)), &mut reused).expect("a valid cell");
                let again = execute(spec, &config(Value(1)), &mut reused).expect("a valid cell");
                let mut fresh = RecordingAdversary::new(fresh);
                let once = execute(spec, &config(Value(1)), &mut fresh).expect("a valid cell");
                let what = format!("{} under {} (early: {early})", spec.name(), once.adversary);
                assert_eq!(again.decisions, once.decisions, "{what}");
                assert_eq!(again.rounds_used, once.rounds_used, "{what}");
                assert_eq!(reused.finish(), fresh.finish(), "{what}");
            }
        }
    }
}

#[test]
fn exponential_n4_t1() {
    gauntlet(AlgorithmSpec::Exponential, 4, 1, false);
}

#[test]
fn exponential_n7_t2() {
    gauntlet(AlgorithmSpec::Exponential, 7, 2, false);
}

#[test]
fn exponential_n10_t3() {
    gauntlet(AlgorithmSpec::Exponential, 10, 3, true);
}

#[test]
fn plain_exponential_n7_t2() {
    gauntlet(AlgorithmSpec::PlainExponential, 7, 2, false);
}

#[test]
fn exponential_prime_n7_t2() {
    gauntlet(AlgorithmSpec::ExponentialPrime, 7, 2, false);
}

#[test]
fn algorithm_a_n13_t4_b3() {
    gauntlet(AlgorithmSpec::AlgorithmA { b: 3 }, 13, 4, false);
}

#[test]
fn algorithm_a_n16_t5_b3() {
    gauntlet(AlgorithmSpec::AlgorithmA { b: 3 }, 16, 5, true);
}

#[test]
fn algorithm_a_n16_t5_b4() {
    gauntlet(AlgorithmSpec::AlgorithmA { b: 4 }, 16, 5, true);
}

#[test]
fn algorithm_b_n13_t3_b2() {
    gauntlet(AlgorithmSpec::AlgorithmB { b: 2 }, 13, 3, false);
}

#[test]
fn algorithm_b_n21_t5_b3() {
    gauntlet(AlgorithmSpec::AlgorithmB { b: 3 }, 21, 5, true);
}

#[test]
fn algorithm_c_n18_t3() {
    gauntlet(AlgorithmSpec::AlgorithmC, 18, 3, false);
}

#[test]
fn algorithm_c_n32_t4() {
    gauntlet(AlgorithmSpec::AlgorithmC, 32, 4, true);
}

#[test]
fn hybrid_n10_t3_b3() {
    gauntlet(AlgorithmSpec::Hybrid { b: 3 }, 10, 3, false);
}

#[test]
fn hybrid_n13_t4_b3() {
    gauntlet(AlgorithmSpec::Hybrid { b: 3 }, 13, 4, false);
}

#[test]
fn hybrid_n16_t5_b3() {
    gauntlet(AlgorithmSpec::Hybrid { b: 3 }, 16, 5, true);
}

#[test]
fn hybrid_n16_t5_b4() {
    gauntlet(AlgorithmSpec::Hybrid { b: 4 }, 16, 5, true);
}

#[test]
fn phase_king_n9_t2() {
    gauntlet(AlgorithmSpec::PhaseKing, 9, 2, false);
}

#[test]
fn phase_queen_n9_t2() {
    gauntlet(AlgorithmSpec::PhaseQueen, 9, 2, false);
}

#[test]
fn phase_queen_n13_t3() {
    gauntlet(AlgorithmSpec::PhaseQueen, 13, 3, true);
}

#[test]
fn dolev_strong_n5_t3() {
    gauntlet(AlgorithmSpec::DolevStrong, 5, 3, false);
}

#[test]
fn dynamic_king_n10_t3() {
    gauntlet(AlgorithmSpec::DynamicKing { b: 3 }, 10, 3, false);
}

#[test]
fn dynamic_king_n16_t5() {
    gauntlet(AlgorithmSpec::DynamicKing { b: 3 }, 16, 5, true);
}
