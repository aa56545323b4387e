//! Executable lemmas for the dynamic gearing layer.
//!
//! Two claims from the early-stopping literature (the Aspnes survey's
//! framing of the rounds-vs-faults tradeoff), pinned as properties:
//!
//! * **`min(f+2, t+1)`** — Dolev–Strong's quiescence rule halts within
//!   `min(f_actual + 2, t + 1)` rounds: a chain carrying a *new* value at
//!   round `r` needs `r − 1` faulty signatures (a correct signer would
//!   have relayed it earlier), so activity dies within two rounds of the
//!   actual fault count, whatever the strategy (honest signatures are
//!   unforgeable).
//! * **`O(f)` expedite** — the gear-shifted king family's dynamic
//!   schedule is linear in the *actual* fault count on the scenario
//!   workloads: every prefix block an omission-style adversary delays
//!   costs it a detection it does not have, and every king phase it
//!   spoils burns a faulty king, so `rounds_used` is bounded by
//!   `1 + (f+1)·b + 3·(f+2)` — independent of `t`. The tree family has
//!   its own row since the echo rule (`sg_core::GearedProtocol`): a correct
//!   source ends every tree spec at round 2 whatever `f` and `t` are,
//!   and under a lying source a block that does not end in agreement
//!   globally detects a fault the adversary then no longer has, so the
//!   blocked specs stop at the first echo after at most `f + 1` blocks —
//!   inside the same bound.
//!
//! With the echo rule the *static* plans expedite too, so the
//! dynamic-vs-static comparisons below are made where the two plans
//! still differ: under a lying source, and on the schedule itself
//! (fixed-length runs, in which a committed gear shift still truncates
//! the prefix).

use proptest::prelude::*;
use shifting_gears::adversary::{Family, FaultSelection};
use shifting_gears::analysis::TREE_PAPER_CELLS;
use shifting_gears::core::{
    dynamic_king_blocks, execute, AlgorithmSpec, ShiftComposition, ShiftPlanBuilder,
};
use shifting_gears::sim::{Adversary, NoFaults, RunConfig, Value};

/// The equivalent static gear plan of `DynamicKing { b }` at `(n, t)`:
/// the same A-block prefix compiled as a fixed composition with the same
/// king tail, shifting only at the precompiled boundary.
fn static_equivalent(n: usize, t: usize, b: usize) -> ShiftComposition {
    ShiftPlanBuilder::new(n, t)
        .a_blocks(b, dynamic_king_blocks(t, b))
        .king_tail()
        .build()
        .expect("A blocks + king tail validate")
}

/// One scenario-family strategy instance capped at `f` actual faults.
fn scenario(idx: usize, seed: u64, f: usize) -> Box<dyn Adversary> {
    let sel = FaultSelection::without_source().limit(f);
    match idx {
        0 => Family::Crash {
            selection: sel,
            round: 2,
        }
        .strategy(0),
        1 => Family::Silent(sel).strategy(0),
        2 => Family::RandomLiar(sel).strategy(seed),
        _ => Family::ChainRevealer {
            selection: sel,
            start: 2,
            block: 2,
        }
        .strategy(seed),
    }
}

/// A lying source plus `f − 1` further liars: the source tells the two
/// halves of the system different values in round 1 (`idx` 0, and every
/// fault keeps the two stories up afterwards) or lies at random.
fn lying_source(idx: usize, seed: u64, n: usize, f: usize) -> Box<dyn Adversary> {
    let sel = FaultSelection::with_source().limit(f);
    match idx {
        0 => Family::Equivocate {
            selection: sel,
            split: n / 2,
            start: 1,
        }
        .strategy(0),
        _ => Family::RandomLiar(sel).strategy(seed),
    }
}

/// Whether a `tree-paper` spec is *blocked* at its benchmark size: more
/// than one block start, so the echo rule gets more than one chance.
/// Algorithm B at that size, Exponential and Algorithm C are not.
fn is_blocked(spec: AlgorithmSpec) -> bool {
    matches!(
        spec,
        AlgorithmSpec::AlgorithmA { .. }
            | AlgorithmSpec::Hybrid { .. }
            | AlgorithmSpec::KingShift { .. }
            | AlgorithmSpec::DynamicKing { .. }
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The `min(f+2, t+1)` lemma, executable: Dolev–Strong's
    /// status-driven runs never exceed the bound, for any strategy in
    /// the sample (including the chain-revealer, which stages its
    /// reveals precisely to stretch the schedule) at `f ∈ {0, 1, t}`.
    #[test]
    fn dolev_strong_halts_within_min_f_plus_2(
        seed in 0u64..1_000,
        adv_idx in 0usize..4,
        f_sel in 0usize..3,
    ) {
        for (n, t) in [(5usize, 3usize), (8, 5)] {
            let f = [0, 1, t][f_sel].min(t);
            let config = RunConfig::new(n, t).with_source_value(Value(1));
            let outcome = execute(
                AlgorithmSpec::DolevStrong,
                &config,
                scenario(adv_idx, seed, f).as_mut(),
            )
            .expect("valid parameters");
            outcome.assert_correct();
            let f_actual = outcome.faulty.len();
            prop_assert!(f_actual <= f, "selection overran its budget");
            prop_assert!(
                outcome.rounds_used <= (f_actual + 2).min(t + 1),
                "dolev-strong used {} rounds at f = {f_actual}, t = {t} (bound {})",
                outcome.rounds_used,
                (f_actual + 2).min(t + 1),
            );
        }
    }

    /// The `O(f)` expedite claim for the gear-shifted king family on the
    /// omission-style scenario workloads (crash / silent, where every
    /// correct processor observes the same faulty behaviour): the
    /// dynamic schedule is bounded by `1 + (f+1)·b + 3·(f+2)` —
    /// independent of `t` — and never exceeds the equivalent static
    /// composition's rounds.
    #[test]
    fn dynamic_king_expedite_is_linear_in_f(
        seed in 0u64..1_000,
        adv_idx in 0usize..2,
        f_sel in 0usize..3,
    ) {
        let b = 3usize;
        for (n, t) in [(10usize, 3usize), (16, 5)] {
            let f = [0, 1, t][f_sel].min(t);
            let config = RunConfig::new(n, t).with_source_value(Value(1));
            let mk = || scenario(adv_idx, seed, f);

            let dynamic = execute(AlgorithmSpec::DynamicKing { b }, &config, mk().as_mut())
                .expect("valid parameters");
            dynamic.assert_correct();
            let f_actual = dynamic.faulty.len();

            let static_comp = static_equivalent(n, t, b);
            let fixed = static_comp.execute(&config, mk().as_mut());
            fixed.assert_correct();
            prop_assert_eq!(fixed.faulty, dynamic.faulty.clone(), "scenario families are deterministic");

            prop_assert!(
                dynamic.rounds_used <= fixed.rounds_used,
                "dynamic {} rounds exceeded the equivalent static composition's {}",
                dynamic.rounds_used,
                fixed.rounds_used,
            );
            prop_assert!(
                dynamic.rounds_used <= 1 + (f_actual + 1) * b + 3 * (f_actual + 2),
                "dynamic-king used {} rounds at f = {f_actual}, b = {b}: not O(f)",
                dynamic.rounds_used,
            );
            prop_assert!(
                dynamic.rounds_used <= dynamic.scheduled_rounds,
                "overran the worst-case schedule"
            );
        }
    }

    /// The tree family's row of the `O(f)` expedite claim. Correct
    /// source, any scenario family, any `f`: every tree spec ends at
    /// round 2. Lying source with `f` actual faults: the blocked specs
    /// end within `1 + (f+1)·b + 3·(f+2)` — independent of `t`.
    #[test]
    fn tree_family_expedite_is_linear_in_f(
        seed in 0u64..1_000,
        adv_idx in 0usize..4,
        f_sel in 0usize..3,
    ) {
        let b = 3usize; // the block parameter of TREE_PAPER_CELLS
        for (spec, n) in TREE_PAPER_CELLS {
            let t = spec.max_resilience(n);
            let config = RunConfig::new(n, t).with_source_value(Value(1));

            let f = [0, 1, t][f_sel];
            let outcome = execute(spec, &config, scenario(adv_idx, seed, f).as_mut())
                .expect("valid parameters");
            outcome.assert_correct();
            prop_assert_eq!(
                outcome.rounds_used, 2,
                "{}: a correct source must stop it at the first echo (f = {})",
                spec.name(), f
            );

            if !is_blocked(spec) {
                continue;
            }
            let f = [1, 2, t][f_sel];
            let outcome = execute(spec, &config, lying_source(adv_idx % 2, seed, n, f).as_mut())
                .expect("valid parameters");
            outcome.assert_correct();
            prop_assert!(outcome.faulty.contains(config.source) && outcome.faulty.len() == f);
            prop_assert!(
                outcome.rounds_used <= (1 + (f + 1) * b + 3 * (f + 2)).min(outcome.scheduled_rounds),
                "{} used {} rounds at f = {f}, b = {b}: not O(f)",
                spec.name(),
                outcome.rounds_used,
            );
        }
    }
}

/// At `f ≪ t` `dynamic-king` *strictly* beats the equivalent
/// static [`ShiftComposition`] on the schedule — the acceptance-criterion
/// comparison, pinned at the benchmark parameters under a lying source
/// (with a correct one both plans end at round 2 and there is nothing to
/// compare). Fixed-length, the static plan runs its whole four-block
/// prefix and tail, 31 rounds, while the dynamic plan shifts at the
/// first quiet block boundary. With early stopping the echo rule gives
/// the static plan the same expedite: it stops at the second block's
/// first echo, round `1 + b + 1`, and the dynamic plan — which may have
/// shifted one round earlier and then needs exchange + propose to lock —
/// lands on that round or the next.
#[test]
fn dynamic_beats_static_at_low_f() {
    let (n, t, b) = (16, 5, 3);
    let early = RunConfig::new(n, t).with_source_value(Value(1));
    let fixed = early.fixed_length();
    let static_comp = static_equivalent(n, t, b);
    for f in [1usize, 2] {
        let run_static = |config: &RunConfig| {
            let outcome = static_comp.execute(config, lying_source(0, 7, n, f).as_mut());
            outcome.assert_correct();
            outcome.rounds_used
        };
        let run_dynamic = |config: &RunConfig| {
            let outcome = execute(
                AlgorithmSpec::DynamicKing { b },
                config,
                lying_source(0, 7, n, f).as_mut(),
            )
            .unwrap();
            outcome.assert_correct();
            assert!(outcome.early_stopped);
            outcome.rounds_used
        };

        // The schedule contest: the split source is discovered in block
        // one (a full ledger entry, no shift), block two is quiet, the
        // shift commits at its boundary and the full tail follows.
        assert_eq!(run_static(&fixed), 1 + 4 * b + 3 * (t + 1), "f = {f}");
        assert_eq!(run_dynamic(&fixed), 1 + 2 * b + 3 * (t + 1), "f = {f}");

        // With early stopping both end at the second block's first echo.
        assert_eq!(run_static(&early), 1 + b + 1, "f = {f}: static echo");
        assert_eq!(run_dynamic(&early), 1 + b + 1, "f = {f}: dynamic echo");
    }
}

/// Dynamic dispatch is part of the schedule, not an engine observation:
/// in a fixed-length run the shift still commits (the tail is entered
/// early) but the tail then runs its full fixed length.
#[test]
fn gear_shifts_survive_early_stopping_off() {
    let (n, t, b) = (16, 5, 3);
    let config = RunConfig::new(n, t)
        .with_source_value(Value(1))
        .fixed_length();
    let outcome = execute(AlgorithmSpec::DynamicKing { b }, &config, &mut NoFaults).unwrap();
    outcome.assert_correct();
    // Shift at the first block boundary (round 1 + b), then the full
    // 3·(t+1)-round tail.
    assert_eq!(outcome.rounds_used, 1 + b + 3 * (t + 1));
    assert!(outcome.rounds_used < outcome.scheduled_rounds);
    assert!(outcome.early_stopped, "shortened schedules report expedite");
}

/// The never-shift path: a detection-forcing adversary at full budget
/// (a lying source and staged reveals, one chain member per stride)
/// holds the dynamic plan in its prefix past the first checkpoint —
/// dynamic dispatch degrades towards the precompiled plan instead of
/// guessing. That is a statement about the schedule, so it is read off
/// the fixed-length run; with early stopping the same execution ends at
/// the second block's first echo whatever the gear box would have done.
#[test]
fn detection_forcing_adversaries_delay_the_shift() {
    let (n, t, b) = (16, 5, 3);
    let config = RunConfig::new(n, t).with_source_value(Value(1));
    let revealer = || {
        Family::ChainRevealer {
            selection: FaultSelection::with_source(),
            start: 1,
            block: 2,
        }
        .strategy(7)
    };
    let dynamic = execute(
        AlgorithmSpec::DynamicKing { b },
        &config.fixed_length(),
        revealer().as_mut(),
    )
    .unwrap();
    dynamic.assert_correct();
    let first_checkpoint_end = 1 + b + 3 * (t + 1);
    assert!(
        dynamic.rounds_used > first_checkpoint_end,
        "staged reveals should delay the shift past the first checkpoint \
         (used {} rounds)",
        dynamic.rounds_used
    );
    let expedited = execute(
        AlgorithmSpec::DynamicKing { b },
        &config,
        revealer().as_mut(),
    )
    .unwrap();
    expedited.assert_correct();
    assert_eq!(expedited.rounds_used, 1 + b + 1);
    assert_eq!(expedited.decisions, dynamic.decisions);
}
