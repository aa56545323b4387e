//! Property tests for the scenario-trace contract.
//!
//! Three guarantees, fuzzed across the named adversary suite, seeds, and
//! cells:
//!
//! 1. **Record → serialize → parse → replay is bit-exact.** Recording a
//!    run wraps the live strategy without changing it; the resulting
//!    `sg-scenario/1` JSON parses back to an equal scenario; replaying it
//!    reproduces the recorded verdict — including the fingerprint-relevant
//!    metric sample — exactly.
//! 2. **Replay is engine independent.** The same trace replays
//!    identically on the production engine (pooled instances, packed
//!    ballots) and on `sg_sim::reference`, which also pins the
//!    reference engine to the trace format's call-order contract.
//! 3. **Damaged artifacts fail structurally.** Truncated JSON and
//!    mutated traces produce `Err`, never a panic.

use std::sync::Arc;

use proptest::prelude::*;
use serde::json::Value as Json;
use serde::{FromJson, ToJson};
use shifting_gears::adversary::{standard_suite, ReplayAdversary};
use shifting_gears::analysis::scenario::{record, replay};
use shifting_gears::analysis::{Scenario, SweepConfig, Verdict};
use shifting_gears::core::AlgorithmSpec;
use shifting_gears::sim::{reference, RunConfig};

/// The cells the round-trip property samples: one king protocol, one
/// exponential, both unauthenticated (signed payloads have no trace
/// normal form and are rejected by recording, by design).
fn cells() -> [SweepConfig; 3] {
    [
        SweepConfig::traced(AlgorithmSpec::OptimalKing, 7, 2),
        SweepConfig::traced(AlgorithmSpec::Exponential, 5, 1),
        SweepConfig::traced(AlgorithmSpec::PhaseKing, 9, 2),
    ]
}

/// One full record → serialize → parse → replay check, on both engines.
fn check_roundtrip(family_index: usize, seed: u64, cell_index: usize) -> Result<(), TestCaseError> {
    let mut suite = standard_suite(seed);
    let adversary = suite.swap_remove(family_index % suite.len());
    let name = adversary.name();
    let config = cells()[cell_index % cells().len()];
    let (scenario, outcome) =
        record(&config, adversary).unwrap_or_else(|e| panic!("recording {name} failed: {e}"));

    // Recording must not have perturbed the run: the verdict is what the
    // outcome says.
    prop_assert_eq!(scenario.verdict.agreement, outcome.agreement());
    prop_assert_eq!(scenario.verdict.rounds_used, outcome.rounds_used);

    // Wire round-trip preserves the scenario exactly.
    let text = scenario.to_json().to_string();
    let parsed = Scenario::from_json(&Json::parse(&text).expect("serializer emits valid JSON"))
        .expect("serialized scenario parses back");
    prop_assert_eq!(&parsed, &scenario);

    // Replay is bit-exact on the production engine…
    let pooled = replay(&parsed).expect("pooled replay runs");
    prop_assert_eq!(pooled, scenario.verdict);

    // …and on the reference engine, which must issue the recorded calls
    // in the recorded order.
    let mut replayer = ReplayAdversary::new(Arc::new(parsed.trace.clone())).expect("valid trace");
    let run_config = RunConfig::new(config.n, config.t)
        .with_source_value(config.source_value)
        .with_trace();
    let fresh = reference::run(&run_config, &mut replayer, config.spec.factory(&run_config));
    replayer.verify().expect("reference replay stays in sync");
    prop_assert_eq!(Verdict::of(&fresh), scenario.verdict);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn named_families_record_and_replay_bit_exact(
        family_index in 0usize..32,
        seed in 0u64..1024,
        cell_index in 0usize..3,
    ) {
        check_roundtrip(family_index, seed, cell_index)?;
    }

    /// Truncating the serialized artifact anywhere yields a structured
    /// error somewhere in parse-or-replay — never a panic, and never a
    /// silently "successful" replay of a half-artifact that still claims
    /// the recorded verdict came from the recorded trace.
    #[test]
    fn truncated_artifacts_error_structurally(
        seed in 0u64..256,
        cut_permille in 0usize..1000,
    ) {
        let mut suite = standard_suite(seed);
        let adversary = suite.swap_remove(seed as usize % suite.len());
        let config = SweepConfig::traced(AlgorithmSpec::OptimalKing, 7, 2);
        let (scenario, _) = record(&config, adversary).expect("recordable");
        let text = scenario.to_json().to_string();
        let cut = text.len() * cut_permille / 1000;
        let damaged = &text[..cut];
        if let Ok(json) = Json::parse(damaged) {
            if let Ok(parsed) = Scenario::from_json(&json) {
                // A prefix that still parses must be the whole artifact.
                prop_assert_eq!(parsed, scenario);
            }
        }
    }

    /// Mutating the recorded steps desyncs replay into a structured
    /// error; dropping a suffix of calls is detected, not papered over.
    #[test]
    fn mutated_traces_error_structurally(
        seed in 0u64..256,
        drop in 1usize..8,
    ) {
        let mut suite = standard_suite(seed);
        let adversary = suite.swap_remove(seed as usize % suite.len());
        let config = SweepConfig::traced(AlgorithmSpec::OptimalKing, 7, 2);
        let (mut scenario, _) = record(&config, adversary).expect("recordable");
        if scenario.trace.steps.is_empty() {
            // A no-op strategy draw (empty corrupted set) has nothing to
            // truncate; nothing to check.
            return Ok(());
        }
        let keep = scenario.trace.steps.len().saturating_sub(drop);
        scenario.trace.steps.truncate(keep);
        prop_assert!(replay(&scenario).is_err());
    }
}
