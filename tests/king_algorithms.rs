//! Integration tests for the optimally resilient Phase King and the
//! A→King shift hybrid (the §5/§6 extensions).
//!
//! Both run at the full `⌊(n−1)/3⌋` resilience of Algorithm A, so they
//! face the same gauntlet the paper's own algorithms face, at the same
//! parameters.

use shifting_gears::adversary::{quick_suite, standard_suite, Family, FaultSelection};
use shifting_gears::core::{execute, t_a, AlgorithmSpec, SpecError};
use shifting_gears::sim::{RunConfig, Value};

fn gauntlet(spec: AlgorithmSpec, n: usize, t: usize, quick: bool) {
    let suite = if quick {
        quick_suite(0x516)
    } else {
        standard_suite(0x516)
    };
    for mut adversary in suite {
        for source_value in [Value(0), Value(1)] {
            let config = RunConfig::new(n, t).with_source_value(source_value);
            let outcome = execute(spec, &config, adversary.as_mut())
                .unwrap_or_else(|e| panic!("{} invalid: {e}", spec.name()));
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
        }
    }
}

#[test]
fn optimal_king_n4_t1() {
    gauntlet(AlgorithmSpec::OptimalKing, 4, 1, false);
}

#[test]
fn optimal_king_n7_t2() {
    gauntlet(AlgorithmSpec::OptimalKing, 7, 2, false);
}

#[test]
fn optimal_king_n10_t3() {
    gauntlet(AlgorithmSpec::OptimalKing, 10, 3, true);
}

#[test]
fn optimal_king_n13_t4() {
    gauntlet(AlgorithmSpec::OptimalKing, 13, 4, true);
}

#[test]
fn king_shift_n4_t1() {
    gauntlet(AlgorithmSpec::KingShift { b: 3 }, 4, 1, false);
}

#[test]
fn king_shift_n7_t2() {
    gauntlet(AlgorithmSpec::KingShift { b: 3 }, 7, 2, false);
}

#[test]
fn king_shift_n10_t3() {
    gauntlet(AlgorithmSpec::KingShift { b: 3 }, 10, 3, true);
}

#[test]
fn king_shift_n13_t4_wide_block() {
    gauntlet(AlgorithmSpec::KingShift { b: 4 }, 13, 4, true);
}

/// Both extensions claim Algorithm A's full resilience: exactly
/// `t_A = ⌊(n−1)/3⌋`, no more.
#[test]
fn king_resilience_matches_algorithm_a() {
    for n in [4usize, 7, 10, 16, 31] {
        let t = t_a(n);
        assert!(AlgorithmSpec::OptimalKing.validate(n, t).is_ok(), "n={n}");
        assert!(matches!(
            AlgorithmSpec::OptimalKing.validate(n, t + 1),
            Err(SpecError::ResilienceExceeded { .. })
        ));
        assert!(AlgorithmSpec::KingShift { b: 3 }.validate(n, t).is_ok());
        assert!(matches!(
            AlgorithmSpec::KingShift { b: 3 }.validate(n, t + 1),
            Err(SpecError::ResilienceExceeded { .. })
        ));
    }
    assert!(matches!(
        AlgorithmSpec::KingShift { b: 2 }.validate(16, 5),
        Err(SpecError::BadBlockParameter { .. })
    ));
}

/// Messages stay O(1) values in the king phases: the largest message any
/// honest processor sends in a king round carries exactly one value, so
/// the maximum over the whole run is set by the A prefix (for the shift)
/// or is 1 (for pure Phase King).
#[test]
fn optimal_king_messages_are_constant_size() {
    let config = RunConfig::new(13, 4);
    let mut adversary = Family::TwoFaced(FaultSelection::without_source()).strategy(0);
    let outcome = execute(AlgorithmSpec::OptimalKing, &config, adversary.as_mut()).unwrap();
    outcome.assert_correct();
    let max = outcome
        .metrics
        .per_round
        .iter()
        .map(|r| r.max_message_values)
        .max()
        .unwrap();
    assert_eq!(max, 1, "king messages must carry exactly one value");
}

/// The king-shift's large messages are confined to the A block; every
/// round after the shift carries one value.
#[test]
fn king_shift_big_messages_confined_to_prefix() {
    let n = 13;
    let t = 4;
    let b = 3;
    let config = RunConfig::new(n, t);
    let mut adversary = Family::RandomLiar(FaultSelection::without_source()).strategy(7);
    let outcome = execute(AlgorithmSpec::KingShift { b }, &config, adversary.as_mut()).unwrap();
    outcome.assert_correct();
    let prefix = 1 + b.min(t);
    for stats in &outcome.metrics.per_round {
        if stats.round > prefix {
            assert!(
                stats.max_message_values <= 1,
                "round {} carried {} values after the shift",
                stats.round,
                stats.max_message_values
            );
        }
    }
}

/// Persistence across the shift: with a *correct* source, every correct
/// processor's decision equals the source value even while the maximum
/// number of non-source processors misbehave — the Strong Persistence
/// Lemma handed to the king phases.
#[test]
fn king_shift_preserves_persistence_across_shift() {
    for n in [7usize, 10, 13, 16] {
        let t = t_a(n);
        for seed in 0..5u64 {
            let config = RunConfig::new(n, t).with_source_value(Value(1));
            let mut adversary = Family::RandomLiar(FaultSelection::without_source()).strategy(seed);
            let outcome = execute(
                AlgorithmSpec::KingShift { b: 3 },
                &config,
                adversary.as_mut(),
            )
            .unwrap();
            outcome.assert_correct();
            assert_eq!(outcome.decision(), Some(Value(1)), "n={n} seed={seed}");
        }
    }
}

/// A faulty, equivocating source cannot break agreement in either
/// extension (the hardest validity-free case).
#[test]
fn equivocating_source_cannot_split_kings() {
    for spec in [
        AlgorithmSpec::OptimalKing,
        AlgorithmSpec::KingShift { b: 3 },
    ] {
        let config = RunConfig::new(10, 3);
        let mut adversary = Family::EquivocatingSource(FaultSelection::with_source()).strategy(0);
        let outcome = execute(spec, &config, adversary.as_mut()).unwrap();
        assert!(
            outcome.faulty.contains(config.source),
            "the adversary must corrupt the source"
        );
        outcome.assert_correct();
    }
}

/// Round counts: OptimalKing runs `3t + 4`; KingShift runs
/// `1 + min(b,t) + 3(t+1)`.
#[test]
fn round_formulas() {
    assert_eq!(AlgorithmSpec::OptimalKing.rounds(10, 3), 13);
    assert_eq!(AlgorithmSpec::KingShift { b: 3 }.rounds(10, 3), 16);
    assert_eq!(AlgorithmSpec::KingShift { b: 5 }.rounds(10, 3), 16);
    assert_eq!(AlgorithmSpec::KingShift { b: 3 }.rounds(16, 5), 22);
}
