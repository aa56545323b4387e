//! The engine's sample folds, held to the trace walk.
//!
//! A sweep's scalar runs record no event log: each `ProcCtx` folds its
//! `Preferred` / `Shift` snapshots and its `Discovered` events as they
//! are emitted, and the engine reduces the folds over the correct
//! processors into `Outcome::lock_in` and `Outcome::discoveries`. This
//! file checks, on `run_into` and on `sg_sim::reference` alike, that a
//! traced run's two folds equal what a walk of its log gives —
//! `stability::lock_in(..).system_lock_in()` (0 when no correct
//! processor reported a preferred value) and the count of `Discovered`
//! entries — and that an untraced run, the sweep's, folds the same two
//! numbers. The grid is every spec of `AlgorithmSpec::families(3)` at
//! `n = 10` and every `TREE_PAPER_CELLS` cell, each at its maximum
//! resilience, under every named family with the source correct and
//! faulty, early and fixed-length, over several seeds.

use shifting_gears::adversary::{Family, FaultSelection};
use shifting_gears::analysis::{lock_in, TREE_PAPER_CELLS};
use shifting_gears::core::{execute_into, AlgorithmSpec};
use shifting_gears::sim::{reference, Outcome, RunArena, RunConfig, TraceEvent};

/// The seventeen named families over `sel`, at the CLI's default shape
/// parameters (`lie_rows.rs` adds the tape and the replay).
fn named_families(sel: &FaultSelection, n: usize) -> Vec<Family> {
    let s = || sel.clone();
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
            split: 1,
            from: 2,
            to: 3,
        },
        Family::Omission {
            selection: s(),
            period: 2,
            phase: 0,
        },
        Family::Equivocate {
            selection: s(),
            split: n / 2,
            start: 1,
        },
        Family::Adaptive {
            selection: s(),
            schedule: vec![2, 4],
        },
        Family::TwoFaced(s()),
        Family::EquivocatingSource(s()),
        Family::Stealth(s()),
        Family::DoubleTalk(s()),
        Family::StaggeredSplit {
            selection: s(),
            start: 2,
            block: 1,
        },
        Family::Collusion(s()),
        Family::StaleShadow(s()),
        Family::FrontierBreaker(s()),
    ]
}

/// The two numbers a walk of `outcome`'s log gives.
fn walked(outcome: &Outcome) -> (usize, u64) {
    let discoveries = outcome
        .trace
        .entries()
        .iter()
        .filter(|e| matches!(e.event, TraceEvent::Discovered { .. }))
        .count() as u64;
    (lock_in(outcome).system_lock_in().unwrap_or(0), discoveries)
}

fn folded(outcome: &Outcome) -> (usize, u64) {
    (outcome.lock_in, outcome.discoveries)
}

#[test]
fn folds_equal_the_trace_walk_on_both_engines() {
    let cells = AlgorithmSpec::families(3)
        .map(|spec| (spec, 10))
        .into_iter()
        .chain(TREE_PAPER_CELLS);
    let mut arena = RunArena::new();
    let mut out = Outcome::buffer();
    let (mut runs, mut discovering, mut late) = (0, 0, 0);
    for (spec, n) in cells {
        let t = spec.max_resilience(n);
        spec.validate(n, t).expect("a valid cell");
        for early in [true, false] {
            let mut traced = RunConfig::new(n, t).with_trace();
            traced.early_stopping = early;
            let untraced = RunConfig {
                trace: false,
                ..traced
            };
            // `execute_into` adds authentication where the spec needs
            // it; the reference engine adds nothing itself.
            let oracle_config = if spec.needs_authentication() {
                traced.with_authentication()
            } else {
                traced
            };
            for seed in 0..4u64 {
                let sel = if seed % 2 == 0 {
                    FaultSelection::without_source()
                } else {
                    FaultSelection::with_source()
                };
                for family in named_families(&sel, n) {
                    let label = format!(
                        "{} ({n}, {t}) {} seed {seed} early {early}",
                        spec.name(),
                        family.name()
                    );
                    let oracle = reference::run(
                        &oracle_config,
                        family.strategy(seed).as_mut(),
                        spec.factory(&oracle_config),
                    );
                    let want = walked(&oracle);
                    assert_eq!(folded(&oracle), want, "{label}: reference");

                    execute_into(
                        &mut arena,
                        spec,
                        &traced,
                        family.strategy(seed).as_mut(),
                        &mut out,
                    )
                    .unwrap_or_else(|e| panic!("{label}: {e}"));
                    assert_eq!(walked(&out), want, "{label}: run_into's log");
                    assert_eq!(folded(&out), want, "{label}: run_into traced");

                    execute_into(
                        &mut arena,
                        spec,
                        &untraced,
                        family.strategy(seed).as_mut(),
                        &mut out,
                    )
                    .unwrap_or_else(|e| panic!("{label}: {e}"));
                    assert!(out.trace.entries().is_empty(), "{label}: an untraced log");
                    assert_eq!(folded(&out), want, "{label}: run_into untraced");

                    runs += 1;
                    discovering += usize::from(want.1 > 0);
                    late += usize::from(want.0 > 1);
                }
            }
        }
    }
    // The grid reaches both folds' interesting sides: runs that discover
    // faults, and runs whose value settles after round 1.
    assert!(
        discovering > runs / 20,
        "{discovering} of {runs} runs discover"
    );
    assert!(
        late > runs / 20,
        "{late} of {runs} runs lock in after round 1"
    );
}
