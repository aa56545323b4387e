//! Every named adversary family, its lies written in place, held to the
//! oracle.
//!
//! Both engines ask each faulty sender's row with one `Adversary::row`
//! call. The scalar engine keeps its rows across rounds and runs, so a
//! strategy writes the slots in place over whatever they held in the
//! round or run before; `sg_sim::reference` passes a fresh row of
//! missing payloads every round. Each case below runs all nineteen
//! `Family` variants — the sixteen selection families (`stale-shadow`'s
//! stash among them), the tape and the replay, which write their slots
//! one move or recorded step at a time, and no faults — over one cell, and `assert_engines_agree` compares the full
//! reports: `SweepPlan::run`, the daemon's cursor walk and the scalar
//! engine seed by seed (one arena, strategies recycled by `reseed`)
//! against the reference. The cells are a tree spec and a king spec at
//! `(13, 4)`, whose tree levels hold 1, 12, 132 and 1 320 slots, each
//! with the source correct and faulty, early and fixed-length, and one
//! cell at `n = 65`, past the packed ballots.

mod oracle;

use std::collections::BTreeSet;

use oracle::assert_engines_agree;
use shifting_gears::adversary::{Family, FaultSelection, Move, RecordingAdversary};
use shifting_gears::analysis::{AdversaryFamily, SweepConfig, SweepPlan};
use shifting_gears::core::{execute, AlgorithmSpec};
use shifting_gears::sim::{ProcessId, RunConfig};

/// The nineteen families over `sel`, the tape and the replay built for
/// `cell` in the given mode.
fn every_family(cell: &SweepConfig, sel: &FaultSelection, early: bool) -> Vec<Family> {
    let s = || sel.clone();
    let families = vec![
        Family::NoFaults,
        Family::RandomLiar(s()),
        Family::ChainRevealer {
            selection: s(),
            start: 2,
            block: 1,
        },
        Family::Crash {
            selection: s(),
            round: 3,
        },
        Family::Silent(s()),
        // Cutting only the source off keeps agreement, which a sweep
        // asserts; a wider cut of honest edges need not.
        Family::Partition {
            selection: s(),
            split: 1,
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
            split: cell.n / 2,
            start: 1,
        },
        Family::Adaptive {
            selection: s(),
            schedule: vec![1, 3],
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
        tape(cell, sel),
        replay(cell, sel, early),
    ];
    let names: BTreeSet<&str> = families.iter().map(Family::name).collect();
    assert_eq!(names.len(), 19, "every family, once: {names:?}");
    families
}

/// A tape over the selection's members at this cell, playing every move.
fn tape(cell: &SweepConfig, sel: &FaultSelection) -> Family {
    let members = sel.select(cell.n, cell.t, ProcessId(0)).iter().collect();
    let moves = vec![
        Move::Garbage,
        Move::AllZero,
        Move::Honest,
        Move::FlipFirst,
        Move::AllOne,
        Move::Silent,
    ];
    Family::tape(members, moves).expect("a non-empty tape")
}

/// A replay of one random-liar run of this cell, in this mode.
fn replay(cell: &SweepConfig, sel: &FaultSelection, early: bool) -> Family {
    let mut config = RunConfig::new(cell.n, cell.t).with_source_value(cell.source_value);
    config.early_stopping = early;
    let mut recorder = RecordingAdversary::new(Family::RandomLiar(sel.clone()).strategy(11));
    execute(cell.spec, &config, &mut recorder).expect("a valid cell");
    Family::replay(recorder.finish().expect("recordable")).expect("a valid trace")
}

/// Every family over `cell`, the source correct and faulty, in `modes`.
fn check(spec: AlgorithmSpec, n: usize, t: usize, modes: &[bool], seeds: u64) {
    let cell = SweepConfig::traced(spec, n, t);
    for sel in [
        FaultSelection::without_source(),
        FaultSelection::with_source(),
    ] {
        for &early in modes {
            let families = every_family(&cell, &sel, early);
            let adversaries = families.into_iter().map(AdversaryFamily::from).collect();
            let mut plan = SweepPlan::new(vec![cell], adversaries, seeds);
            plan.early_stopping = early;
            assert_engines_agree(&plan);
        }
    }
}

#[test]
fn tree_rows_at_13_4() {
    check(AlgorithmSpec::AlgorithmA { b: 3 }, 13, 4, &[true, false], 3);
}

#[test]
fn king_rows_at_13_4() {
    check(AlgorithmSpec::OptimalKing, 13, 4, &[true, false], 8);
}

#[test]
fn tree_rows_at_n65() {
    check(AlgorithmSpec::AlgorithmC, 65, 2, &[true, false], 1);
}
