//! The committed scenario corpus: recorded adversary runs that must keep
//! replaying with their recorded verdicts.
//!
//! `tests/corpus/*.json` are `sg-scenario/1` artifacts — each one a full
//! adversary trace plus the verdict the run produced when recorded. The
//! regression test here (and CI's `scenario-corpus` job, which drives the
//! same files through `sg replay`) re-executes every trace and asserts
//! the verdict reproduces bit-exactly, so any engine change that silently
//! alters what a recorded fault pattern does to a protocol fails loudly.
//!
//! The corpus includes *violations* (over-budget adversaries breaking
//! agreement) on purpose: disagreement is a preservable verdict, and the
//! corpus is exactly where minimized counterexamples live once found.
//!
//! Regenerate with `SG_EXPORT_CORPUS=1 cargo test --test scenario_corpus
//! -- export` — the generator is fully deterministic (fixed cells, fixed
//! seeds, lexicographic tape search), so regeneration is a no-op unless
//! engine behaviour actually changed.

use std::path::PathBuf;

use serde::json::Value as Json;
use serde::{FromJson, ToJson};
use shifting_gears::adversary::{
    enumerate_tapes, Family, FaultSelection, TapeAdversary, SINGLE_VALUE_MOVES,
};
use shifting_gears::analysis::scenario::{record, replay};
use shifting_gears::analysis::{Scenario, SweepConfig};
use shifting_gears::core::AlgorithmSpec;
use shifting_gears::sim::{Adversary, ProcessId};

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

fn corpus_files() -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(corpus_dir())
        .expect("tests/corpus exists")
        .map(|entry| entry.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .collect();
    files.sort();
    files
}

/// Every committed scenario replays with its recorded verdict.
#[test]
fn corpus_replays_with_recorded_verdicts() {
    let files = corpus_files();
    assert!(
        !files.is_empty(),
        "tests/corpus must contain at least one scenario"
    );
    for path in files {
        let text = std::fs::read_to_string(&path).expect("readable corpus file");
        let json =
            Json::parse(&text).unwrap_or_else(|e| panic!("{}: invalid JSON: {e}", path.display()));
        let recorded = Scenario::from_json(&json)
            .unwrap_or_else(|e| panic!("{}: not a scenario: {e}", path.display()));
        let fresh =
            replay(&recorded).unwrap_or_else(|e| panic!("{}: replay failed: {e}", path.display()));
        assert_eq!(
            fresh,
            recorded.verdict,
            "{}: verdict drifted",
            path.display()
        );
    }
}

/// The corpus holds at least one recorded agreement violation — the
/// counterexample half of the regression surface.
#[test]
fn corpus_includes_a_violation() {
    let mut saw_violation = false;
    for path in corpus_files() {
        let text = std::fs::read_to_string(&path).expect("readable corpus file");
        let json = Json::parse(&text).expect("valid JSON");
        let recorded = Scenario::from_json(&json).expect("valid scenario");
        saw_violation |= !recorded.verdict.agreement;
    }
    assert!(
        saw_violation,
        "corpus must include a recorded agreement violation"
    );
}

/// The named survival scenarios: (file stem, cell, strategy).
fn survival_exhibits() -> Vec<(&'static str, SweepConfig, Box<dyn Adversary>)> {
    vec![
        (
            "equivocate_optimal_king_n7",
            SweepConfig::traced(AlgorithmSpec::OptimalKing, 7, 2),
            Family::Equivocate {
                selection: FaultSelection::with_source(),
                split: 3,
                start: 1,
            }
            .strategy(0),
        ),
        (
            "partition_optimal_king_n7",
            SweepConfig::traced(AlgorithmSpec::OptimalKing, 7, 2),
            Family::Partition {
                selection: FaultSelection::without_source().limit(1),
                split: 1,
                from: 2,
                to: 3,
            }
            .strategy(0),
        ),
        (
            "omission_phase_king_n5",
            SweepConfig::traced(AlgorithmSpec::PhaseKing, 5, 1),
            Family::Omission {
                selection: FaultSelection::without_source(),
                period: 2,
                phase: 0,
            }
            .strategy(0),
        ),
        (
            "adaptive_exponential_n7",
            SweepConfig::traced(AlgorithmSpec::Exponential, 7, 2),
            Family::Adaptive {
                selection: FaultSelection::without_source(),
                schedule: vec![1, 3],
            }
            .strategy(0),
        ),
        (
            "tape_exponential_n4",
            SweepConfig::traced(AlgorithmSpec::Exponential, 4, 1),
            Box::new(
                TapeAdversary::new([ProcessId(1)], SINGLE_VALUE_MOVES.to_vec())
                    .expect("non-empty tape"),
            ),
        ),
    ]
}

/// Finds the lexicographically first over-budget tape that breaks
/// agreement: Exponential at (n=4, t=1) with *two* corrupted processors
/// (source included), searched over single-value tapes of growing length.
fn find_violation() -> Scenario {
    let config = SweepConfig::traced(AlgorithmSpec::Exponential, 4, 1);
    let members = [ProcessId(0), ProcessId(1)];
    for len in 1..=6 {
        for tape in enumerate_tapes(&SINGLE_VALUE_MOVES, len) {
            let adversary = Box::new(TapeAdversary::new(members, tape).expect("non-empty tape"));
            let (scenario, _) = record(&config, adversary).expect("recordable run");
            if !scenario.verdict.agreement {
                return scenario;
            }
        }
    }
    panic!("no violating tape found up to length 6");
}

/// Regenerates the corpus. Gated behind `SG_EXPORT_CORPUS=1` so a plain
/// `cargo test` never writes into the source tree.
#[test]
fn export_corpus() {
    if std::env::var("SG_EXPORT_CORPUS").is_err() {
        return;
    }
    let dir = corpus_dir();
    std::fs::create_dir_all(&dir).expect("create tests/corpus");
    let mut written = Vec::new();
    for (stem, config, adversary) in survival_exhibits() {
        let (scenario, _) =
            record(&config, adversary).unwrap_or_else(|e| panic!("recording {stem} failed: {e}"));
        assert!(scenario.verdict.agreement, "{stem} must be a survival");
        written.push((format!("{stem}.json"), scenario));
    }
    written.push((
        "violation_exponential_n4_overbudget.json".to_string(),
        find_violation(),
    ));
    for (file, scenario) in written {
        let path = dir.join(&file);
        std::fs::write(&path, scenario.to_json().to_string())
            .unwrap_or_else(|e| panic!("writing {file} failed: {e}"));
        println!(
            "wrote {file}: agreement={}, rounds={}",
            scenario.verdict.agreement, scenario.verdict.rounds_used
        );
    }
}
