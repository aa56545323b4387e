//! Property-based tests: agreement and validity must hold under *fully
//! random* Byzantine behaviour (including malformed message lengths), and
//! the schedule/conversion algebra must match its closed forms, for
//! randomly drawn parameters.

mod common;

use common::TestNet;
use proptest::prelude::*;
use shifting_gears::core::schedule::{
    algorithm_a_rounds_bound, algorithm_a_rounds_exact, algorithm_b_rounds_bound,
    algorithm_b_rounds_exact,
};
use shifting_gears::core::{AlgorithmSpec, HybridSchedule};
use shifting_gears::eigtree::{convert, strict_majority, Conversion, IgTree, Res};
use shifting_gears::sim::{Payload, ProcessId, ProcessSet, Value};

/// A tiny deterministic PRNG for adversary payload generation inside
/// proptest closures (proptest supplies the seed).
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs `spec` with a fully random adversary: random values, random
/// *lengths* (sometimes truncated, sometimes padded, sometimes missing).
fn random_run(
    spec: AlgorithmSpec,
    n: usize,
    t: usize,
    faulty_ids: &[usize],
    source_value: Value,
    seed: u64,
) {
    let faulty = ProcessSet::from_members(n, faulty_ids.iter().map(|&i| ProcessId(i)));
    let mut net = TestNet::new(spec, n, t, source_value, faulty);
    let mut state = seed;
    net.run_all(
        &mut |_round, _sender, _recipient, shadow: Option<&Payload>| {
            let base_len = shadow.map_or(1, Payload::num_values);
            match splitmix(&mut state) % 5 {
                0 => Payload::Missing,
                1 => {
                    // Wrong length: truncate or pad.
                    let len = (splitmix(&mut state) as usize) % (base_len + 3);
                    Payload::Values(
                        (0..len)
                            .map(|_| Value((splitmix(&mut state) % 4) as u16)) // may be out of domain
                            .collect(),
                    )
                }
                _ => Payload::Values(
                    (0..base_len)
                        .map(|_| Value((splitmix(&mut state) % 2) as u16))
                        .collect(),
                ),
            }
        },
    );
    net.assert_correct(source_value);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The Exponential Algorithm never violates agreement/validity under
    /// arbitrary faulty behaviour (n = 7, t = 2, any 2 faults).
    #[test]
    fn exponential_agreement_under_chaos(
        seed in any::<u64>(),
        f1 in 0usize..7,
        f2 in 0usize..7,
        source_value in 0u16..2,
    ) {
        let faults: Vec<usize> = if f1 == f2 { vec![f1] } else { vec![f1, f2] };
        random_run(AlgorithmSpec::Exponential, 7, 2, &faults, Value(source_value), seed);
    }

    /// Algorithm A (b = 3) under chaos at n = 10, t = 3.
    #[test]
    fn algorithm_a_agreement_under_chaos(
        seed in any::<u64>(),
        faults in proptest::collection::btree_set(0usize..10, 0..=3),
        source_value in 0u16..2,
    ) {
        let faults: Vec<usize> = faults.into_iter().collect();
        random_run(AlgorithmSpec::AlgorithmA { b: 3 }, 10, 3, &faults, Value(source_value), seed);
    }

    /// Algorithm B (b = 2) under chaos at n = 9, t = 2.
    #[test]
    fn algorithm_b_agreement_under_chaos(
        seed in any::<u64>(),
        faults in proptest::collection::btree_set(0usize..9, 0..=2),
        source_value in 0u16..2,
    ) {
        let faults: Vec<usize> = faults.into_iter().collect();
        random_run(AlgorithmSpec::AlgorithmB { b: 2 }, 9, 2, &faults, Value(source_value), seed);
    }

    /// Algorithm C under chaos at n = 18, t = 3.
    #[test]
    fn algorithm_c_agreement_under_chaos(
        seed in any::<u64>(),
        faults in proptest::collection::btree_set(0usize..18, 0..=3),
        source_value in 0u16..2,
    ) {
        let faults: Vec<usize> = faults.into_iter().collect();
        random_run(AlgorithmSpec::AlgorithmC, 18, 3, &faults, Value(source_value), seed);
    }

    /// The hybrid under chaos at n = 10, t = 3 (its design resilience).
    #[test]
    fn hybrid_agreement_under_chaos(
        seed in any::<u64>(),
        faults in proptest::collection::btree_set(0usize..10, 0..=3),
        source_value in 0u16..2,
    ) {
        let faults: Vec<usize> = faults.into_iter().collect();
        random_run(AlgorithmSpec::Hybrid { b: 3 }, 10, 3, &faults, Value(source_value), seed);
    }

    /// Plan lengths always equal the closed-form exact round counts, and
    /// the exact counts never exceed the theorem bounds.
    #[test]
    fn schedule_algebra(t in 3usize..40, b in 2usize..12) {
        prop_assume!(b < t);
        let plan_len = |spec: AlgorithmSpec| spec.plan(4 * t + 1, t).expect("tree spec").len();
        prop_assert_eq!(plan_len(AlgorithmSpec::AlgorithmB { b }), algorithm_b_rounds_exact(t, b));
        prop_assert!(algorithm_b_rounds_exact(t, b) <= algorithm_b_rounds_bound(t, b));
        if b >= 3 {
            prop_assert_eq!(plan_len(AlgorithmSpec::AlgorithmA { b }), algorithm_a_rounds_exact(t, b));
            prop_assert!(algorithm_a_rounds_exact(t, b) <= algorithm_a_rounds_bound(t, b));
        }
    }

    /// Hybrid schedules are internally consistent for any valid (n, b),
    /// and the Main Theorem's closed form equals the phase sum.
    #[test]
    fn hybrid_schedule_algebra(n in 10usize..120, b_offset in 0usize..8) {
        let t = shifting_gears::core::t_a(n);
        prop_assume!(t >= 3);
        let b = 3 + b_offset.min(t - 3);
        let s = HybridSchedule::compute(n, b);
        prop_assert_eq!(s.total_rounds(), s.main_theorem_rounds());
        prop_assert!(s.t_ab >= 1 && s.t_ab <= s.t_ac && s.t_ac <= t);
        prop_assert!(s.n - 2 * s.t + s.t_ab > (s.n - 1) / 2);
        let d = s.t - s.t_ac;
        prop_assert!(2 * d * d < s.n - 2 * s.t);
    }

    /// `strict_majority` agrees with the naive count definition.
    #[test]
    fn strict_majority_matches_naive(vals in proptest::collection::vec(0u16..4, 0..24)) {
        let got = strict_majority(&vals);
        let naive = (0u16..4).find(|v| {
            2 * vals.iter().filter(|x| *x == v).count() > vals.len()
        });
        prop_assert_eq!(got, naive);
    }

    /// Unanimous trees resolve to the unanimous value under both
    /// conversion functions, regardless of depth.
    #[test]
    fn unanimous_trees_resolve_to_value(
        depth in 1usize..4,
        v in 0u16..2,
    ) {
        let n = 7;
        let t = 2;
        let mut tree = IgTree::new(n, ProcessId(0));
        tree.set_root(Value(v));
        for _ in 0..depth {
            tree.append_level(|_, _| Value(v));
        }
        prop_assert_eq!(convert(&tree, Conversion::Resolve).root(), Res::Val(Value(v)));
        prop_assert_eq!(
            convert(&tree, Conversion::ResolvePrime { t }).root(),
            Res::Val(Value(v))
        );
    }

    /// Random trees: both conversions always produce either a domain
    /// value or ⊥, and `resolve` never produces ⊥.
    #[test]
    fn conversions_are_total(seed in any::<u64>(), depth in 1usize..4) {
        let n = 6;
        let mut state = seed;
        let mut tree = IgTree::new(n, ProcessId(0));
        tree.set_root(Value((splitmix(&mut state) % 2) as u16));
        for _ in 0..depth {
            tree.append_level(|_, _| Value((splitmix(&mut state) % 2) as u16));
        }
        let r = convert(&tree, Conversion::Resolve);
        for level in 0..r.depth() {
            for res in r.level(level) {
                prop_assert!(matches!(res, Res::Val(_)));
            }
        }
        let rp = convert(&tree, Conversion::ResolvePrime { t: 1 });
        prop_assert!(matches!(rp.root(), Res::Val(_) | Res::Bottom));
    }
}
