//! The tree machine against its paper-literal oracle
//! (`tests/oracle/paper_tree.rs`): every tree spec at `n ≤ 10` (and
//! Algorithm A's multi-block case at `n = 13`), under every named
//! adversary family with the source spared and corrupted, early and
//! fixed-length, and the tree-spec scenarios of `tests/corpus/`, all on
//! `sg_sim::reference`. Per processor and per round the outgoing
//! payload, the resolved root, `L_p`, the round status and the decision
//! must agree under the code's reading; the literal reading's
//! divergences are the oracle header's listed deviations.

#[path = "oracle/paper_tree.rs"]
mod paper_tree;

use std::cell::RefCell;
use std::path::PathBuf;
use std::rc::Rc;

use paper_tree::{paired_factory, Log, Reading};
use serde::json::Value as Json;
use serde::FromJson;
use shifting_gears::adversary::{Family, FaultSelection};
use shifting_gears::analysis::Scenario;
use shifting_gears::core::AlgorithmSpec;
use shifting_gears::sim::{reference, Adversary, RunConfig, Value};

/// The tree specs with a plain tree plan, at their maximum resilience.
const CELLS: [(AlgorithmSpec, usize); 10] = [
    (AlgorithmSpec::PlainExponential, 7),
    (AlgorithmSpec::Exponential, 7),
    (AlgorithmSpec::Exponential, 10),
    (AlgorithmSpec::ExponentialPrime, 7),
    (AlgorithmSpec::AlgorithmA { b: 3 }, 10),
    (AlgorithmSpec::AlgorithmA { b: 3 }, 13),
    (AlgorithmSpec::AlgorithmB { b: 2 }, 9),
    (AlgorithmSpec::AlgorithmC, 9),
    (AlgorithmSpec::AlgorithmC, 10),
    (AlgorithmSpec::Hybrid { b: 3 }, 10),
];

/// Every named family, under `selection`, with parameters that make it
/// act inside a short schedule at size `n`.
fn families(selection: &FaultSelection, n: usize) -> Vec<Family> {
    let s = || selection.clone();
    vec![
        Family::NoFaults,
        Family::RandomLiar(s()),
        Family::ChainRevealer {
            selection: s(),
            start: 2,
            block: 2,
        },
        Family::Crash {
            selection: s(),
            round: 2,
        },
        Family::Silent(s()),
        Family::Partition {
            selection: s(),
            split: n / 2,
            from: 2,
            to: 3,
        },
        Family::Omission {
            selection: s(),
            period: 3,
            phase: 1,
        },
        Family::Equivocate {
            selection: s(),
            split: n / 2,
            start: 1,
        },
        Family::Adaptive {
            selection: s(),
            schedule: vec![2, 3, 4],
        },
        Family::TwoFaced(s()),
        Family::EquivocatingSource(s()),
        Family::Stealth(s()),
        Family::DoubleTalk(s()),
        Family::StaggeredSplit {
            selection: s(),
            start: 2,
            block: 2,
        },
        Family::Collusion(s()),
        Family::StaleShadow(s()),
        Family::FrontierBreaker(s()),
    ]
}

/// Runs one (spec, config, adversary) under the oracle and returns its
/// first disagreement, if any.
fn check(
    spec: AlgorithmSpec,
    config: &RunConfig,
    adversary: &mut dyn Adversary,
    reading: Reading,
) -> Option<String> {
    let log: Log = Rc::new(RefCell::new(Vec::new()));
    let factory = paired_factory(spec, config, reading, Rc::clone(&log)).expect("a tree plan");
    reference::run(config, adversary, factory);
    let first = log.borrow().first().cloned();
    first
}

/// One run the oracle covers: a label, the cell, and the family and
/// seed its strategy is built from.
struct Run {
    label: String,
    spec: AlgorithmSpec,
    config: RunConfig,
    family: Family,
    seed: u64,
}

impl Run {
    fn check(&self, reading: Reading) -> Option<String> {
        let mut adversary = self.family.strategy(self.seed);
        check(self.spec, &self.config, adversary.as_mut(), reading)
    }
}

/// Every (cell, family, selection, mode, seed) the oracle covers.
fn runs() -> Vec<Run> {
    let mut runs = Vec::new();
    for (spec, n) in CELLS {
        let t = spec.max_resilience(n);
        for selection in [
            FaultSelection::without_source(),
            FaultSelection::with_source(),
        ] {
            for family in families(&selection, n) {
                // Only the seeded families read the seed.
                let seeds = match family {
                    Family::RandomLiar(_) | Family::ChainRevealer { .. } => 2,
                    _ => 1,
                };
                for early in [true, false] {
                    for seed in 0..seeds {
                        let mut config = RunConfig::new(n, t).with_source_value(Value(1));
                        config.early_stopping = early;
                        let label = format!(
                            "{} n={n} {} {} early={early} seed={seed}",
                            spec.name(),
                            family.name(),
                            selection.describe()
                        );
                        runs.push(Run {
                            label,
                            spec,
                            config,
                            family: family.clone(),
                            seed,
                        });
                    }
                }
            }
        }
    }
    runs
}

#[test]
fn tree_machine_matches_the_paper_literal_oracle() {
    let runs = runs();
    for run in &runs {
        if let Some(diff) = run.check(Reading::CODE) {
            panic!("{}: {diff}", run.label);
        }
    }
    assert!(runs.len() > 700, "{} runs", runs.len());
}

#[test]
fn corpus_tree_scenarios_match_the_oracle() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut checked = 0;
    for entry in std::fs::read_dir(dir).expect("tests/corpus exists") {
        let path = entry.expect("readable entry").path();
        let text = std::fs::read_to_string(&path).expect("readable corpus file");
        let json = Json::parse(&text).expect("valid JSON");
        let scenario = Scenario::from_json(&json).expect("a scenario");
        let spec = scenario.config.spec;
        if spec.plan(scenario.config.n, scenario.config.t).is_none() {
            continue;
        }
        let cell = &scenario.config;
        let mut config = RunConfig::new(cell.n, cell.t).with_source_value(cell.source_value);
        config.early_stopping = scenario.verdict.early_stopped;
        let mut adversary = Family::replay(scenario.trace.clone())
            .expect("a valid trace")
            .strategy(0);
        if let Some(diff) = check(spec, &config, adversary.as_mut(), Reading::CODE) {
            panic!("{}: {diff}", path.display());
        }
        checked += 1;
    }
    assert!(checked >= 3, "{checked} tree scenarios");
}

/// The literal reading diverges only where the header lists a deviation:
/// every run on which it diverges also diverges with one listed
/// deviation's flag alone. Prints how often each one shows.
#[test]
fn literal_reading_diverges_only_at_listed_deviations() {
    let only_scope = Reading {
        every_internal_node: true,
        ..Reading::CODE
    };
    let only_malformed = Reading {
        wholesale_malformed: true,
        ..Reading::CODE
    };
    let (mut scope, mut malformed, mut either) = (0, 0, 0);
    for run in runs() {
        if run.check(Reading::PAPER).is_none() {
            continue;
        }
        let s = run.check(only_scope).is_some();
        let m = run.check(only_malformed).is_some();
        either += 1;
        scope += usize::from(s);
        malformed += usize::from(m);
        assert!(
            s || m,
            "{}: the literal reading diverges unlisted",
            run.label
        );
    }
    eprintln!(
        "literal reading: {either} runs diverge; discovery scope {scope}, malformed vectors {malformed}"
    );
}
