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
//!   `1 + (f+1)·b + 3·(f+2)` — independent of `t` — while the static
//!   plan's tree prefix always runs to its worst-case end.

use proptest::prelude::*;
use shifting_gears::adversary::{ChainRevealer, Crash, FaultSelection, RandomLiar, Silent};
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
        0 => Box::new(Crash::new(sel, 2)),
        1 => Box::new(Silent::new(sel)),
        2 => Box::new(RandomLiar::new(sel, seed)),
        _ => Box::new(ChainRevealer::new(sel, 2, 2, seed)),
    }
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
}

/// At `f ≪ t` the dynamic composition *strictly* beats the equivalent
/// static [`ShiftComposition`] — the acceptance-criterion comparison,
/// pinned at the benchmark parameters: the static plan's tree prefix
/// holds every run to round 15 while the dynamic plan shifts at the
/// first quiet block and locks at round 6.
#[test]
fn dynamic_beats_static_at_low_f() {
    let (n, t, b) = (16, 5, 3);
    let config = RunConfig::new(n, t).with_source_value(Value(1));
    let static_comp = static_equivalent(n, t, b);
    for f in [0usize, 1] {
        let run_static = |f: usize| {
            let outcome = static_comp.execute(&config, scenario(0, 7, f).as_mut());
            outcome.assert_correct();
            outcome.rounds_used
        };
        let dynamic = execute(
            AlgorithmSpec::DynamicKing { b },
            &config,
            scenario(0, 7, f).as_mut(),
        )
        .unwrap();
        dynamic.assert_correct();
        assert!(
            dynamic.rounds_used < run_static(f),
            "f = {f}: dynamic {} not below static {}",
            dynamic.rounds_used,
            run_static(f)
        );
        assert_eq!(dynamic.rounds_used, 1 + b + 2, "f = {f}: shift + lock");
        assert!(dynamic.early_stopped);
    }
    // The dynamic composition built through the ShiftPlanBuilder makes
    // the same runtime decisions as the spec-level protocol.
    let dynamic_comp = ShiftPlanBuilder::new(n, t)
        .a_blocks(b, dynamic_king_blocks(t, b))
        .king_tail()
        .dynamic()
        .build()
        .expect("dynamic composition validates");
    let outcome = dynamic_comp.execute(&config, &mut NoFaults);
    outcome.assert_correct();
    assert_eq!(outcome.rounds_used, 1 + b + 2);
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
/// holds the dynamic plan in its prefix, and the run lands on the static
/// schedule shape (prefix + tail) — dynamic dispatch degrades to the
/// precompiled plan instead of guessing.
#[test]
fn detection_forcing_adversaries_delay_the_shift() {
    let (n, t, b) = (16, 5, 3);
    let config = RunConfig::new(n, t).with_source_value(Value(1));
    let mut revealer = ChainRevealer::new(FaultSelection::without_source(), 2, 2, 7);
    let dynamic = execute(AlgorithmSpec::DynamicKing { b }, &config, &mut revealer).unwrap();
    dynamic.assert_correct();
    let first_checkpoint_end = 1 + b + 2;
    assert!(
        dynamic.rounds_used > first_checkpoint_end,
        "staged reveals should delay the shift past the first checkpoint \
         (used {} rounds)",
        dynamic.rounds_used
    );
}
