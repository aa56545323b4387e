//! Property-based tests for the shift-composition framework: the
//! validator's arithmetic, the compiled plans, and end-to-end agreement
//! of randomly generated accepted compositions.

use proptest::prelude::*;

use shifting_gears::adversary::{Family, FaultSelection};
use shifting_gears::core::compose::{
    b_entry_requirement, c_entry_requirement, ComposeError, ShiftPlanBuilder,
};
use shifting_gears::core::{t_a, t_b, t_c, RoundAction};
use shifting_gears::sim::{RunConfig, Value};

/// A random composition recipe over small systems: a few A blocks, an
/// optional B segment, and a terminal (C tail sized generously, or King).
#[derive(Clone, Debug)]
struct Recipe {
    n: usize,
    a_b: usize,
    a_blocks: usize,
    b_seg: Option<(usize, usize)>,
    king: bool,
    c_rounds: usize,
}

fn recipe() -> impl Strategy<Value = Recipe> {
    (
        prop_oneof![Just(10usize), Just(13), Just(16)],
        3usize..=4,
        1usize..=3,
        proptest::option::of((2usize..=3, 1usize..=2)),
        any::<bool>(),
        1usize..=6,
    )
        .prop_map(|(n, a_b, a_blocks, b_seg, king, c_rounds)| Recipe {
            n,
            a_b,
            a_blocks,
            b_seg,
            king,
            c_rounds,
        })
}

fn build(recipe: &Recipe) -> Result<shifting_gears::core::ShiftComposition, ComposeError> {
    let t = t_a(recipe.n);
    let mut b = ShiftPlanBuilder::new(recipe.n, t).a_blocks(recipe.a_b.min(t), recipe.a_blocks);
    if let Some((bb, blocks)) = recipe.b_seg {
        b = b.b_blocks(bb.min(t), blocks);
    }
    if recipe.king {
        b = b.king_tail();
    } else {
        b = b.c_tail(recipe.c_rounds);
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Accepted compositions have structurally coherent plans: start with
    /// the source round, rounds() matches the plan plus any king tail,
    /// and every conversion matches its segment family.
    #[test]
    fn accepted_plans_are_coherent(r in recipe()) {
        let Ok(c) = build(&r) else { return Ok(()) };
        let t = t_a(r.n);
        prop_assert!(matches!(c.plan().first(), Some(RoundAction::Initial)));
        let king_rounds = if r.king { 3 * (t + 1) } else { 0 };
        prop_assert_eq!(c.rounds(), c.plan().len() + king_rounds);
        // A segments convert with discovery, B segments without.
        let conversions: Vec<bool> = c
            .plan()
            .iter()
            .filter_map(|a| match a {
                RoundAction::Gather { convert: Some(s) } => Some(s.discovery),
                _ => None,
            })
            .collect();
        let expected_a = r.a_blocks;
        let expected_b = r.b_seg.map_or(0, |(_, blocks)| blocks);
        prop_assert_eq!(conversions.len(), expected_a + expected_b);
        prop_assert!(conversions[..expected_a].iter().all(|&d| d));
        prop_assert!(conversions[expected_a..].iter().all(|&d| !d));
    }

    /// Widening the prefix never invalidates: prepending one more A block
    /// to an accepted composition keeps it accepted (the detection ledger
    /// is monotone).
    #[test]
    fn extra_leading_a_block_preserves_acceptance(r in recipe()) {
        if build(&r).is_err() {
            return Ok(());
        }
        let mut wider = r.clone();
        wider.a_blocks += 1;
        prop_assert!(build(&wider).is_ok(), "widening broke {wider:?}");
    }

    /// Every accepted composition reaches agreement with validity under a
    /// seeded random liar at full resilience.
    #[test]
    fn accepted_compositions_agree(r in recipe(), seed in 0u64..64) {
        let Ok(c) = build(&r) else { return Ok(()) };
        let t = t_a(r.n);
        let config = RunConfig::new(r.n, t).with_source_value(Value(1));
        let mut adversary = Family::RandomLiar(FaultSelection::with_source()).strategy(seed);
        let outcome = c.execute(&config, adversary.as_mut());
        prop_assert!(outcome.agreement(), "{} disagreed", c.name());
        if let Some(valid) = outcome.validity() {
            prop_assert!(valid);
        }
    }
}

/// The B-entry requirement is the *least* ledger satisfying the paper's
/// inequality, across the n range where it binds.
#[test]
fn b_entry_requirement_is_minimal() {
    for n in 7..=64 {
        let t = t_a(n);
        if t == 0 {
            continue;
        }
        let req = b_entry_requirement(n, t);
        if t <= t_b(n) {
            assert_eq!(req, 0, "n={n}");
            continue;
        }
        assert!(n - 2 * t + req > (n - 1) / 2, "satisfies, n={n}");
        assert!(
            req == 0 || n - 2 * t + (req - 1) <= (n - 1) / 2,
            "minimal, n={n}"
        );
    }
}

/// The C-entry requirement satisfies both Proposition 4 branches and is
/// minimal, wherever it is satisfiable at full resilience.
#[test]
fn c_entry_requirement_is_minimal() {
    let satisfies = |n: usize, t: usize, d: usize| {
        let u = t - d;
        n > t + u * u && 2 * (n - t - u * u) > n && n + d > 2 * t && 2 * (n + d - 2 * t) > n
    };
    for n in 7..=64 {
        let t = t_a(n);
        if t == 0 {
            continue;
        }
        match c_entry_requirement(n, t) {
            Some(0) => assert!(t <= t_c(n) || satisfies(n, t, 0), "n={n}"),
            Some(d) => {
                assert!(satisfies(n, t, d), "satisfies, n={n} d={d}");
                assert!(!satisfies(n, t, d - 1), "minimal, n={n} d={d}");
            }
            None => {
                // No ledger value <= t works; verify exhaustively.
                assert!((0..=t).all(|d| !satisfies(n, t, d)), "n={n}");
            }
        }
    }
}
