//! The echo rule as an executable lemma.
//!
//! The tree machine stops early on one number: at a block's first gather
//! a processor is ready iff all but at most `t` of the echoes it stored
//! equal its own root (`sg_core::GearedProtocol`, "Early stopping: the echo
//! rule"). The soundness argument is four lines and leans on the
//! Persistence Lemma; this file holds the *conclusion* to every small
//! execution instead: an early-stopped run decides exactly what the same
//! run decides on its full schedule.
//!
//! **What is enumerated.** Every family built on the tree machine, at
//! every `(n, t)` with `n ≤ 7` its resilience bound admits, under every
//! fault set shape (source alone, a relay alone, and at `t = 2` source +
//! relay and two relays). When the rule ends a run at round 2 it has read
//! two things: what the source told each processor in round 1, and what
//! each relay echoed to it in round 2. Both are one binary value per
//! message, so the three-move alphabet `{silent, 0, 1}` is *everything* a
//! Byzantine sender can do there. The *opening* of a tape is therefore
//! every `3^(n−1)` way the faulty source can address its `n − 1`
//! recipients (or, with a correct source and both source values, every
//! way the first faulty relay can echo to its `n − 1`); every other call
//! of the run follows one of the [`Continuation`]s — the opening wrapped
//! around, or one uniform story (honest, all-zero, all-one, first-flip,
//! garbage) — which is what drives the multi-value rounds after round 2,
//! where later block starts and the king tails get their chance to stop.

use shifting_gears::adversary::{enumerate_tapes, Move, TapeAdversary, SINGLE_VALUE_MOVES};
use shifting_gears::analysis::sweep_map;
use shifting_gears::core::{execute, AlgorithmSpec, ShiftComposition, ShiftPlanBuilder};
use shifting_gears::sim::{
    Outcome, Payload, ProcessId, ProcessSet, Protocol, RoundStatus, RunConfig, Value,
};

mod common;

use common::TestNet;

/// How every call outside the enumerated opening is played.
#[derive(Clone, Copy, Debug)]
enum Continuation {
    /// The opening repeats, cell by cell.
    Wrap,
    /// One uniform move.
    Fill(Move),
}

impl Continuation {
    const ALL: [Continuation; 6] = [
        Continuation::Wrap,
        Continuation::Fill(Move::Honest),
        Continuation::Fill(Move::FlipFirst),
        Continuation::Fill(Move::AllZero),
        Continuation::Fill(Move::AllOne),
        Continuation::Fill(Move::Garbage),
    ];
}

/// The full tape of a run of `rounds` rounds in which the `opening` is
/// what `faulty[0]` tells its recipients, in order, in the round the
/// echo rule reads it — round 1 if it is the source, round 2 (its echo)
/// otherwise — and every other call follows `continuation`. The engine
/// asks senders ascending, recipients ascending, round by round.
fn tape(
    n: usize,
    faulty: &[ProcessId],
    rounds: usize,
    opening: &[Move],
    continuation: Continuation,
) -> Vec<Move> {
    let per_round = faulty.len() * (n - 1);
    let opening_round = if faulty[0] == ProcessId(0) { 1 } else { 2 };
    let opening_at = (opening_round - 1) * per_round;
    (0..per_round * rounds)
        .map(|call| match call.checked_sub(opening_at) {
            Some(i) if i < opening.len() => opening[i],
            _ => match continuation {
                Continuation::Wrap => opening[call % opening.len()],
                Continuation::Fill(filler) => filler,
            },
        })
        .collect()
}

/// Something that can be executed: a spec, or a composed gear plan.
#[derive(Clone)]
enum Plan {
    Spec(AlgorithmSpec),
    Composed(ShiftComposition),
}

impl Plan {
    fn name(&self) -> String {
        match self {
            Plan::Spec(spec) => spec.name(),
            Plan::Composed(comp) => comp.name(),
        }
    }

    fn rounds(&self, n: usize, t: usize) -> usize {
        match self {
            Plan::Spec(spec) => spec.rounds(n, t),
            Plan::Composed(comp) => comp.rounds(),
        }
    }

    fn execute(&self, config: &RunConfig, adversary: &mut TapeAdversary) -> Outcome {
        match self {
            Plan::Spec(spec) => execute(*spec, config, adversary).expect("validated"),
            Plan::Composed(comp) => comp.execute(config, adversary),
        }
    }

    /// A committed dynamic gear shift shortens the fixed-length run too.
    fn is_dynamic(&self) -> bool {
        matches!(self, Plan::Spec(AlgorithmSpec::DynamicKing { .. }))
    }
}

/// Every tree-machine family that is legal at `(n, t)`. Block parameters
/// clamp to `t ≤ 2` at `n ≤ 7`, so one legal `b` per family runs the plan
/// every legal `b` runs there. (The hybrid needs `t_A(n) ≥ 3` and a
/// composed plan's A blocks `3 ≤ b ≤ t`, i.e. `n ≥ 10`: neither has a
/// cell at `n ≤ 7`; both are checked at `(10, 3)`.)
fn plans_at(n: usize, t: usize) -> Vec<Plan> {
    let mut plans: Vec<Plan> = [
        AlgorithmSpec::Exponential,
        AlgorithmSpec::ExponentialPrime,
        AlgorithmSpec::PlainExponential,
        AlgorithmSpec::AlgorithmA { b: 3 },
        AlgorithmSpec::AlgorithmB { b: 2 },
        AlgorithmSpec::AlgorithmC,
        AlgorithmSpec::Hybrid { b: 3 },
        AlgorithmSpec::KingShift { b: 3 },
        AlgorithmSpec::DynamicKing { b: 3 },
    ]
    .into_iter()
    .filter(|spec| spec.validate(n, t).is_ok())
    .map(Plan::Spec)
    .collect();
    // compose[a:3x2,king]: two A blocks — two block starts — then a tail.
    if let Ok(comp) = ShiftPlanBuilder::new(n, t)
        .a_blocks(3, 2)
        .king_tail()
        .build()
    {
        plans.push(Plan::Composed(comp));
    }
    plans
}

/// The fault-set shapes at budget `t`: the source alone, a relay alone,
/// and with two faults to spend, the source with a relay and two relays.
fn fault_sets(t: usize) -> Vec<Vec<ProcessId>> {
    let mut sets = vec![vec![ProcessId(0)], vec![ProcessId(1)]];
    if t >= 2 {
        sets.push(vec![ProcessId(0), ProcessId(1)]);
        sets.push(vec![ProcessId(1), ProcessId(2)]);
    }
    sets
}

/// The lemma for one tape: the early-stopped and the fixed-length run of
/// the same execution satisfy agreement and validity, decide alike, and
/// the early run is a round-prefix of the fixed one.
fn check_tape(
    plan: &Plan,
    n: usize,
    t: usize,
    faulty: &[ProcessId],
    tape: Vec<Move>,
    source_value: Value,
) {
    let early_config = RunConfig::new(n, t).with_source_value(source_value);
    let run = |config: &RunConfig| {
        let mut adversary =
            TapeAdversary::new(faulty.iter().copied(), tape.clone()).expect("non-empty tape");
        plan.execute(config, &mut adversary)
    };
    let early = run(&early_config);
    // A run nobody stopped *is* its fixed-length run.
    let fixed = if early.early_stopped {
        run(&early_config.fixed_length())
    } else {
        early.clone()
    };
    let label = || {
        format!(
            "{} n={n} t={t} faulty={faulty:?} v={source_value} tape={tape:?}",
            plan.name()
        )
    };

    for outcome in [&early, &fixed] {
        assert!(outcome.agreement(), "agreement violated: {}", label());
        assert!(
            outcome.validity().unwrap_or(true),
            "validity violated: {}",
            label()
        );
    }
    assert_eq!(
        early.decisions,
        fixed.decisions,
        "early stopping changed a decision: {}",
        label()
    );
    assert_eq!(early.scheduled_rounds, plan.rounds(n, t), "{}", label());
    assert!(
        early.rounds_used <= fixed.rounds_used && fixed.rounds_used <= fixed.scheduled_rounds,
        "overran the schedule: {}",
        label()
    );
    if !plan.is_dynamic() {
        assert_eq!(fixed.rounds_used, fixed.scheduled_rounds, "{}", label());
    }
    assert_eq!(
        early.metrics.per_round[..],
        fixed.metrics.per_round[..early.rounds_used],
        "not a prefix of the fixed run: {}",
        label()
    );
}

/// Plays every tape of the enumeration against one `(plan, n, t, fault
/// set)`: every opening over the first `cells` recipients, continued
/// each way in `continuations`, with both source values when the source
/// is correct (a faulty source's input is nobody's business). Returns how
/// many executions were checked.
fn check_cell(
    plan: &Plan,
    n: usize,
    t: usize,
    faulty: &[ProcessId],
    cells: usize,
    continuations: &[Continuation],
) -> usize {
    let rounds = plan.rounds(n, t);
    let source_values: &[Value] = if faulty[0] == ProcessId(0) {
        &[Value(1)]
    } else {
        &[Value(0), Value(1)]
    };
    let mut checked = 0;
    for opening in enumerate_tapes(&SINGLE_VALUE_MOVES, cells) {
        for &continuation in continuations {
            for &source_value in source_values {
                let tape = tape(n, faulty, rounds, &opening, continuation);
                check_tape(plan, n, t, faulty, tape, source_value);
                checked += 1;
            }
        }
    }
    checked
}

/// (i) The lemma at every legal `(n ≤ 7, t)`, source faulty and correct.
#[test]
fn early_stopped_runs_decide_like_fixed_runs_on_every_small_tape() {
    let mut cells = Vec::new();
    for n in 4..=7 {
        for t in 1..=2 {
            for plan in plans_at(n, t) {
                for faulty in fault_sets(t) {
                    cells.push((plan.clone(), n, t, faulty));
                }
            }
        }
    }
    // Every family must actually be represented in the range (the hybrid
    // and the composed plan excepted, see `plans_at`).
    for family in [
        "exponential",
        "exponential-prime",
        "plain-exponential",
        "algorithm-a",
        "algorithm-b",
        "algorithm-c",
        "king-shift",
        "dynamic-king",
    ] {
        assert!(
            cells
                .iter()
                .any(|(plan, ..)| plan.name().split(['(', '[']).next() == Some(family)),
            "no legal cell for {family}"
        );
    }
    // Every continuation up to n = 6; at n = 7 (729 openings a cell) the
    // wrap and the two that keep later rounds' messages well-formed.
    let checked: usize = sweep_map(cells, |(plan, n, t, faulty)| {
        let continuations = if n < 7 { 6 } else { 3 };
        check_cell(
            &plan,
            n,
            t,
            &faulty,
            n - 1,
            &Continuation::ALL[..continuations],
        )
    })
    .into_iter()
    .sum();
    assert_eq!(checked, 180_792, "the enumeration changed size");
}

/// (i), the hybrid and a composed plan (`compose[a:3x2,king]`: two block
/// starts, then a tail): their smallest legal cell is `(10, 3)`, past
/// the exhaustive range (a run costs a hundred times one at `n = 4`), so
/// the opening covers the first three of the nine recipients (the rest
/// follow the continuation), each continued every way — for a faulty
/// source, a faulty relay, and the full budget.
#[test]
fn hybrid_and_composed_plans_decide_like_their_fixed_runs_at_their_smallest_size() {
    let plans = plans_at(10, 3);
    let named = |family: &str| {
        plans
            .iter()
            .find(|plan| plan.name().starts_with(family))
            .unwrap_or_else(|| panic!("{family} is legal at (10, 3)"))
            .clone()
    };
    let mut cells = Vec::new();
    for plan in [named("hybrid"), named("compose")] {
        for faulty in [vec![0], vec![1], vec![0, 1, 2]] {
            let faulty: Vec<ProcessId> = faulty.into_iter().map(ProcessId).collect();
            cells.push((plan.clone(), faulty));
        }
    }
    let checked: usize = sweep_map(cells, |(plan, faulty)| {
        check_cell(&plan, 10, 3, &faulty, 3, &Continuation::ALL)
    })
    .into_iter()
    .sum();
    assert_eq!(checked, 2 * (1 + 2 + 1) * 27 * Continuation::ALL.len());
}

/// A correct source stops every family at the first echo, whatever the
/// faulty relays do — the rule's liveness half, over the whole opening
/// alphabet. (At `t = 1` a gear hybrid's A block *is* round 2: the box
/// seeds its king tail in that round, the prefix's verdict is not
/// forwarded into it, and the tail's own lock ends the run two rounds
/// later.)
#[test]
fn a_correct_source_stops_at_round_two_under_every_relay_opening() {
    for (n, t) in [(5, 1), (7, 2), (10, 3)] {
        for plan in plans_at(n, t) {
            let has_tail = matches!(
                plan,
                Plan::Composed(_)
                    | Plan::Spec(AlgorithmSpec::KingShift { .. })
                    | Plan::Spec(AlgorithmSpec::DynamicKing { .. })
            );
            let expect = if has_tail && t == 1 { 4 } else { 2 };
            if plan.rounds(n, t) <= expect {
                continue; // the schedule itself ends there
            }
            let faulty: Vec<ProcessId> = (1..=t).map(ProcessId).collect();
            // The first relay's echo to five recipients, wrapped over
            // every other call of every relay.
            for opening in enumerate_tapes(&SINGLE_VALUE_MOVES, 5) {
                let tape = tape(n, &faulty, 2, &opening, Continuation::Wrap);
                let mut adversary =
                    TapeAdversary::new(faulty.iter().copied(), tape).expect("non-empty tape");
                let config = RunConfig::new(n, t).with_source_value(Value(1));
                let outcome = plan.execute(&config, &mut adversary);
                assert!(
                    outcome.early_stopped && outcome.rounds_used == expect,
                    "{} n={n} t={t}: {} rounds under tape {:?}",
                    plan.name(),
                    outcome.rounds_used,
                    adversary.tape()
                );
                assert_eq!(outcome.decision(), Some(Value(1)));
            }
        }
    }
}

/// Echoes of `p`'s own root among its stored level-1 echoes.
fn matching_echoes(net: &TestNet, p: usize) -> usize {
    let tree = net.protocols[p].tree();
    tree.level(1).iter().filter(|&&v| v == tree.root()).count()
}

/// The source decided in round 1 and says so from round 1 on, whatever
/// its own tree holds — the clause the lock-step driver relies on when it
/// exempts the source slot from its ready scan. (With at most `t` faults
/// a correct source's own echoes always reach the quorum, so no run can
/// tell; the hook is read directly.)
#[test]
fn the_source_is_ready_from_round_one() {
    let (n, t) = (7, 2);
    let nobody = ProcessSet::from_members(n, []);
    let mut net = TestNet::new(AlgorithmSpec::AlgorithmA { b: 3 }, n, t, Value(1), nobody);
    let ready = |net: &TestNet, p: usize| {
        let ctx = shifting_gears::sim::ProcCtx::new(ProcessId(p));
        net.protocols[p].round_status(&ctx) == RoundStatus::ReadyToDecide
    };
    net.step(&mut common::honest_adversary());
    assert!(ready(&net, 0), "the source, before any echo");
    assert!((1..n).all(|p| !ready(&net, p)), "nobody else has a verdict");
    net.step(&mut common::honest_adversary());
    assert!((0..n).all(|p| ready(&net, p)), "one honest echo, all ready");
}

/// (iii) Tightness at `n = 3t + 1`. A lying source splits its six relays
/// three against three: every correct processor then stores exactly
/// `n − 2 − t = 3` echoes of its own root — one short — and nobody may be
/// ready, because the two halves hold different roots. One more relay on
/// the majority side and that side *is* ready (`n − 1 − t = 4`), the
/// other is not, and the run still must not stop.
#[test]
fn one_echo_short_of_the_quorum_does_not_stop() {
    let (n, t) = (7, 2);
    let status = |net: &TestNet, p: usize| {
        let ctx = shifting_gears::sim::ProcCtx::new(ProcessId(p));
        net.protocols[p].round_status(&ctx)
    };
    for ones in [3usize, 4] {
        let faulty = ProcessSet::from_members(n, [ProcessId(0)]);
        let mut net = TestNet::new(AlgorithmSpec::Exponential, n, t, Value(1), faulty);
        let mut lying_source = |round: usize, _s: ProcessId, r: ProcessId, _: Option<&Payload>| {
            if round == 1 {
                Payload::values([Value(u16::from(r.index() <= ones))])
            } else {
                Payload::Missing
            }
        };
        net.step(&mut lying_source);
        net.step(&mut lying_source);
        for p in 1..n {
            let on_one_side = p <= ones;
            let expect = if on_one_side { ones } else { n - 1 - ones };
            assert_eq!(matching_echoes(&net, p), expect, "P{p}, {ones} ones");
            let ready = expect >= n - 1 - t;
            assert_eq!(
                status(&net, p) == RoundStatus::ReadyToDecide,
                ready,
                "P{p} sees {expect} of {} echoes (quorum {})",
                n - 1,
                n - 1 - t
            );
        }
        // The lying source's honest shadow holds an input: always ready,
        // though its own tree is as split as everyone's.
        assert_eq!(status(&net, 0), RoundStatus::ReadyToDecide);
        assert_eq!(matching_echoes(&net, 1), [n - 2 - t, n - 1 - t][ones - 3]);

        // The same execution on the engine: it runs its whole schedule
        // and the halves reconcile in the last round's conversion.
        let tape: Vec<Move> = (1..n)
            .map(|r| {
                if r <= ones {
                    Move::AllOne
                } else {
                    Move::AllZero
                }
            })
            .chain(std::iter::repeat_n(Move::Silent, 2 * (n - 1)))
            .collect();
        let mut adversary = TapeAdversary::new([ProcessId(0)], tape).expect("non-empty tape");
        let config = RunConfig::new(n, t).with_source_value(Value(1));
        let outcome = execute(AlgorithmSpec::Exponential, &config, &mut adversary).unwrap();
        assert!(outcome.agreement());
        assert!(
            !outcome.early_stopped && outcome.rounds_used == t + 1,
            "{ones} ones: stopped at round {}",
            outcome.rounds_used
        );
    }
}
