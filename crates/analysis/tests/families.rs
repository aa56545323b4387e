//! Committed digests of every named adversary family: what each one is
//! called, how it reads on the wire, the journal key it gives a cell, and
//! every sample it produces on both engines.
//!
//! * [`NAMES_AND_KEYS`] folds, for every family shape of [`shapes`], the
//!   family's `name()`, its `to_json()` text and the `cell_key(0)` of a
//!   one-cell `optimal-king (16, 5)` plan. The shapes cover all eleven
//!   kinds, with and without the source, under `limit` and `explicit`
//!   selections, two parameter sets per kind, two tapes and a committed
//!   corpus trace.
//! * [`REPORTS`] folds the report fingerprint and every sample's round
//!   count and early-stop flag of [`runs`]' families crossed with a
//!   lock-step king spec and a scalar tree spec, in both engine modes.
//!   65 seeds a cell: the king cell runs one 64-lane lock-step chunk and
//!   a one-seed scalar tail, so one pin holds both representations. The
//!   replay cell runs at its trace's own `(n, t)`.
//! * [`SUITES`] folds every run of every [`standard_suite`] and
//!   [`quick_suite`] entry across six specs, both source values, in early
//!   and fixed mode: the run's name from its first `(` on, its fault set,
//!   decisions, rounds and bits, and its recorded trace where the run can
//!   be recorded. Every run takes its entry from a freshly built suite, so
//!   no strategy carries state from one run into the next.
//! * [`SUITE_FAMILIES`] folds, for every shape of the eight families the
//!   suites used to hold outside [`sg_adversary::Family`], what
//!   [`NAMES_AND_KEYS`] folds plus the display name of the strategy the
//!   shape builds.
//!
//! The first two digests were captured on the commit before the named
//! families were collapsed into one `sg_adversary::Family` value, the
//! third on the commit before the suites were built from `Family` values.
//! [`SUITES`] was re-derived once since, when `stale-shadow` began telling
//! every recipient the shadow of the round before (it had refreshed its
//! stash at each member's first recipient, so the rest of the row heard
//! the current round's): folded entry by entry, only the standard
//! suite's two `stale-shadow` entries moved.

use std::path::PathBuf;

use serde::json::Value as Json;
use serde::{FromJson, ToJson};
use sg_adversary::{quick_suite, standard_suite, Family, FaultSelection, Move, RecordingAdversary};
use sg_analysis::{AdversaryFamily, Scenario, SweepConfig, SweepPlan, SweepReport};
use sg_core::{execute, AlgorithmSpec};
use sg_sim::{fnv, Adversary, ProcessId, RunConfig, Value};

/// The digest of [`names_and_keys`].
const NAMES_AND_KEYS: u64 = 0xecbe_b4d1_b608_b134;

/// The digest of [`reports`].
const REPORTS: u64 = 0x8f6b_11fc_8de7_c590;

/// The digest of [`suites`].
const SUITES: u64 = 0xe67d_6346_5b38_f3d8;

/// The digest of [`suite_families`].
const SUITE_FAMILIES: u64 = 0x65d3_5cb9_5534_3b1c;

/// The committed trace both digests replay: `optimal-king` at `(7, 2)`,
/// an equivocating source.
fn corpus_scenario() -> Scenario {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/corpus/equivocate_optimal_king_n7.json");
    let text = std::fs::read_to_string(&path).expect("readable corpus file");
    Scenario::from_json(&Json::parse(&text).expect("corpus JSON")).expect("a scenario")
}

fn replay() -> AdversaryFamily {
    Family::replay(corpus_scenario().trace)
        .map(AdversaryFamily::from)
        .expect("a valid trace")
}

fn tapes() -> [AdversaryFamily; 2] {
    [
        Family::tape(
            vec![ProcessId(1)],
            vec![Move::AllOne, Move::Silent, Move::FlipFirst],
        )
        .map(AdversaryFamily::from)
        .expect("a non-empty tape"),
        Family::tape(
            vec![ProcessId(0), ProcessId(5)],
            vec![Move::Garbage, Move::AllZero, Move::Honest, Move::AllOne],
        )
        .map(AdversaryFamily::from)
        .expect("a non-empty tape"),
    ]
}

/// Every selection-parameterised family, two parameter sets per kind.
fn over(sel: &FaultSelection) -> Vec<AdversaryFamily> {
    vec![
        AdversaryFamily::random_liar(sel.clone()),
        AdversaryFamily::chain_revealer(sel.clone(), 2, 2),
        AdversaryFamily::chain_revealer(sel.clone(), 1, 0),
        AdversaryFamily::crash(sel.clone(), 2),
        AdversaryFamily::crash(sel.clone(), 4),
        AdversaryFamily::silent(sel.clone()),
        Family::Partition {
            selection: sel.clone(),
            split: 1,
            from: 2,
            to: 3,
        }
        .into(),
        Family::Partition {
            selection: sel.clone(),
            split: 5,
            from: 1,
            to: 1,
        }
        .into(),
        Family::Omission {
            selection: sel.clone(),
            period: 2,
            phase: 0,
        }
        .into(),
        Family::Omission {
            selection: sel.clone(),
            period: 0,
            phase: 1,
        }
        .into(),
        AdversaryFamily::equivocate(sel.clone(), 3, 1),
        AdversaryFamily::equivocate(sel.clone(), 8, 2),
        Family::Adaptive {
            selection: sel.clone(),
            schedule: vec![1, 3],
        }
        .into(),
        Family::Adaptive {
            selection: sel.clone(),
            schedule: vec![2],
        }
        .into(),
    ]
}

/// Every family shape [`NAMES_AND_KEYS`] holds.
fn shapes() -> Vec<AdversaryFamily> {
    let selections = [
        FaultSelection::with_source(),
        FaultSelection::without_source(),
        FaultSelection::with_source().limit(2),
        FaultSelection::without_source().limit(3),
        FaultSelection::explicit([ProcessId(1), ProcessId(4), ProcessId(7)]),
    ];
    let mut shapes = vec![AdversaryFamily::no_faults()];
    for sel in &selections {
        shapes.extend(over(sel));
    }
    shapes.extend(tapes());
    shapes.push(replay());
    shapes
}

fn names_and_keys() -> u64 {
    let config = SweepConfig::traced(AlgorithmSpec::OptimalKing, 16, 5);
    let mut h = fnv::OFFSET;
    for family in shapes() {
        h = fnv::mix_bytes(h, family.name().as_bytes());
        h = fnv::mix_bytes(h, &[0xFF]);
        let text = family.to_json().to_string();
        h = fnv::mix_bytes(h, text.as_bytes());
        // Every named family decodes back to its own text.
        let back = AdversaryFamily::from_json(&Json::parse(&text).expect("JSON"))
            .expect("a named family decodes");
        assert_eq!(back.to_json().to_string(), text);
        assert_eq!(back.name(), family.name());
        let plan = SweepPlan::new(vec![config], vec![family], 65);
        let key = plan.cell_key(0);
        h = fnv::mix_word(h, key.0);
    }
    h
}

/// The shapes [`SUITE_FAMILIES`] holds: the eight families with and
/// without the source, under `limit`, and two `staggered-split`
/// parameter sets.
fn suite_family_shapes() -> Vec<Family> {
    let selections = [
        FaultSelection::with_source(),
        FaultSelection::without_source(),
        FaultSelection::with_source().limit(2),
        FaultSelection::without_source().limit(3),
    ];
    let mut shapes = Vec::new();
    for sel in selections {
        shapes.extend([
            Family::TwoFaced(sel.clone()),
            Family::EquivocatingSource(sel.clone()),
            Family::Stealth(sel.clone()),
            Family::DoubleTalk(sel.clone()),
            Family::StaggeredSplit {
                selection: sel.clone(),
                start: 2,
                block: 2,
            },
            Family::StaggeredSplit {
                selection: sel.clone(),
                start: 3,
                block: 0,
            },
            Family::Collusion(sel.clone()),
            Family::StaleShadow(sel.clone()),
            Family::FrontierBreaker(sel),
        ]);
    }
    shapes
}

fn suite_families() -> u64 {
    let config = SweepConfig::traced(AlgorithmSpec::OptimalKing, 16, 5);
    let mut h = fnv::OFFSET;
    for family in suite_family_shapes() {
        h = fnv::mix_bytes(h, family.name().as_bytes());
        h = fnv::mix_bytes(h, &[0xFF]);
        h = fnv::mix_bytes(h, family.strategy(0).name().as_bytes());
        h = fnv::mix_bytes(h, &[0xFF]);
        let text = family.to_json().to_string();
        h = fnv::mix_bytes(h, text.as_bytes());
        // Every named family decodes back to its own text.
        let back = AdversaryFamily::from_json(&Json::parse(&text).expect("JSON"))
            .expect("a named family decodes");
        assert_eq!(back.to_json().to_string(), text);
        assert_eq!(back.name(), family.name());
        let plan = SweepPlan::new(vec![config], vec![family.into()], 65);
        let key = plan.cell_key(0);
        h = fnv::mix_word(h, key.0);
    }
    h
}

/// The families [`REPORTS`] runs: every kind, shapes whose faults stay
/// within both configs' fault bound (a partition's cut edges all touch
/// its one corrupted processor, the source).
fn runs() -> Vec<AdversaryFamily> {
    let explicit = || FaultSelection::explicit([ProcessId(1), ProcessId(4), ProcessId(7)]);
    let mut runs = vec![
        AdversaryFamily::no_faults(),
        AdversaryFamily::random_liar(FaultSelection::with_source()),
        AdversaryFamily::random_liar(explicit()),
        AdversaryFamily::chain_revealer(FaultSelection::without_source(), 2, 2),
        AdversaryFamily::chain_revealer(FaultSelection::with_source().limit(2), 1, 0),
        AdversaryFamily::crash(FaultSelection::with_source(), 2),
        AdversaryFamily::crash(FaultSelection::without_source().limit(1), 4),
        AdversaryFamily::silent(FaultSelection::without_source()),
        AdversaryFamily::silent(explicit()),
        Family::Partition {
            selection: FaultSelection::with_source().limit(1),
            split: 1,
            from: 2,
            to: 3,
        }
        .into(),
        Family::Partition {
            selection: FaultSelection::explicit([ProcessId(0)]),
            split: 1,
            from: 1,
            to: 2,
        }
        .into(),
        Family::Omission {
            selection: FaultSelection::without_source(),
            period: 2,
            phase: 0,
        }
        .into(),
        Family::Omission {
            selection: FaultSelection::with_source().limit(2),
            period: 0,
            phase: 1,
        }
        .into(),
        AdversaryFamily::equivocate(FaultSelection::with_source(), 3, 1),
        AdversaryFamily::equivocate(explicit(), 8, 2),
        Family::Adaptive {
            selection: FaultSelection::with_source(),
            schedule: vec![1, 3],
        }
        .into(),
        Family::Adaptive {
            selection: FaultSelection::without_source().limit(2),
            schedule: vec![2],
        }
        .into(),
    ];
    runs.extend(tapes());
    runs
}

fn fold(mut h: u64, report: &SweepReport) -> u64 {
    h = fnv::mix_word(h, report.fingerprint());
    for cell in &report.cells {
        h = fnv::mix_bytes(h, cell.adversary.as_bytes());
        for s in &cell.samples {
            h = fnv::mix_word(h, s.rounds);
            h = fnv::mix_word(h, u64::from(s.early_stopped));
        }
    }
    h
}

fn reports() -> u64 {
    let grid = SweepPlan::new(
        vec![
            SweepConfig::traced(AlgorithmSpec::OptimalKing, 16, 5),
            SweepConfig::traced(AlgorithmSpec::Hybrid { b: 3 }, 10, 3),
        ],
        runs(),
        65,
    );
    let scenario = corpus_scenario();
    let (n, t) = (scenario.trace.n, scenario.trace.t);
    let replayed = SweepPlan::new(
        vec![
            SweepConfig::traced(AlgorithmSpec::OptimalKing, n, t),
            SweepConfig::traced(AlgorithmSpec::Exponential, n, t),
        ],
        vec![replay()],
        65,
    );
    let mut h = fnv::OFFSET;
    for plan in [grid, replayed] {
        h = fold(h, &plan.run_with_jobs(2));
        h = fold(h, &plan.fixed_length().run_with_jobs(2));
    }
    h
}

/// Every run of both suites' entries: [`SUITES`].
///
/// A name is folded from its first `(` on — the parameters and the
/// selection it reports. Which strategy an entry is follows from its
/// place in its suite, and the text before the `(` is a display tag. The
/// recorded trace is folded without its `family` field, which repeats
/// the name.
fn suites() -> u64 {
    type Suite = fn(u64) -> Vec<Box<dyn Adversary>>;
    const SEED: u64 = 7;
    let specs = [
        (AlgorithmSpec::OptimalKing, 7, 2),
        (AlgorithmSpec::PhaseKing, 9, 2),
        (AlgorithmSpec::Exponential, 7, 2),
        (AlgorithmSpec::Hybrid { b: 3 }, 10, 3),
        (AlgorithmSpec::AlgorithmC, 9, 2),
        (AlgorithmSpec::DolevStrong, 7, 3),
    ];
    let mut h = fnv::OFFSET;
    for suite in [standard_suite as Suite, quick_suite] {
        for entry in 0..suite(SEED).len() {
            for (spec, n, t) in specs {
                for early in [true, false] {
                    for value in [Value(0), Value(1)] {
                        let mut config = RunConfig::new(n, t).with_source_value(value);
                        if !early {
                            config = config.fixed_length();
                        }
                        let fresh = suite(SEED).swap_remove(entry);
                        let mut recorder = RecordingAdversary::new(fresh);
                        let outcome = execute(spec, &config, &mut recorder).expect("a valid cell");
                        let name = &outcome.adversary;
                        h = fnv::mix_bytes(h, name[name.find('(').unwrap_or(0)..].as_bytes());
                        h = fnv::mix_bytes(h, &[0xFF]);
                        h = fnv::mix_word(h, outcome.faulty.len() as u64);
                        for p in outcome.faulty.iter() {
                            h = fnv::mix_word(h, p.index() as u64);
                        }
                        for d in &outcome.decisions {
                            h = fnv::mix_word(h, d.map_or(u64::MAX, |v| u64::from(v.raw())));
                        }
                        h = fnv::mix_word(h, outcome.rounds_used as u64);
                        h = fnv::mix_word(h, outcome.metrics.total_bits());
                        if let Ok(mut trace) = recorder.finish() {
                            trace.family.clear();
                            h = fnv::mix_bytes(h, trace.to_json().to_string().as_bytes());
                        }
                    }
                }
            }
        }
    }
    h
}

#[test]
fn every_suite_family_keeps_its_names_text_and_key() {
    assert_eq!(
        suite_families(),
        SUITE_FAMILIES,
        "a suite family's name, display name, wire text or journal key moved"
    );
}

#[test]
fn every_suite_entry_keeps_its_runs() {
    assert_eq!(
        suites(),
        SUITES,
        "a suite entry's name, fault set, decisions, rounds, bits or trace moved"
    );
}

#[test]
fn every_named_family_keeps_its_name_text_and_key() {
    assert_eq!(
        names_and_keys(),
        NAMES_AND_KEYS,
        "a family's name, wire text or journal key moved"
    );
}

#[test]
fn every_named_family_keeps_its_samples_on_both_engines() {
    assert_eq!(
        reports(),
        REPORTS,
        "a family's samples moved on the lock-step or the scalar engine"
    );
}
