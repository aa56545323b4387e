//! Trace-based tests of the shifting machinery itself: shifts fire
//! exactly at block boundaries, the hybrid's conversions follow Fig. 3's
//! A→B→C order, and preferred values survive shifts (Strong Persistence).
//!
//! Every run here is fixed-length: these are pins on what a *full*
//! schedule does, and all of them keep the source correct — the case the
//! echo rule (`sg_core::GearedProtocol`) ends at round 2, before any shift.

mod rows;

use shifting_gears::adversary::{Family, FaultSelection};
use shifting_gears::core::{execute, AlgorithmSpec, HybridSchedule, RoundAction};
use shifting_gears::sim::{ProcessId, RunConfig, TraceEvent, Value};

/// Shift events of one correct processor, as (round, conversion name).
fn shifts_of(outcome: &shifting_gears::sim::Outcome, p: ProcessId) -> Vec<(usize, String)> {
    outcome
        .trace
        .by(p)
        .filter_map(|e| match &e.event {
            TraceEvent::Shift { conversion, .. } => Some((e.round, conversion.clone())),
            _ => None,
        })
        .collect()
}

fn first_correct(outcome: &shifting_gears::sim::Outcome) -> ProcessId {
    (0..outcome.config.n)
        .map(ProcessId)
        .find(|p| !outcome.faulty.contains(*p))
        .expect("some correct processor")
}

#[test]
fn algorithm_b_shifts_exactly_at_block_ends() {
    let (n, t, b) = (13, 3, 2);
    let config = RunConfig::new(n, t)
        .with_source_value(Value(1))
        .with_trace()
        .fixed_length();
    let mut adversary = Family::DoubleTalk(FaultSelection::without_source()).strategy(0);
    let outcome = execute(AlgorithmSpec::AlgorithmB { b }, &config, adversary.as_mut()).unwrap();
    outcome.assert_correct();

    let witness = first_correct(&outcome);
    let shifts = shifts_of(&outcome, witness);
    // t=3, b=2: blocks [2, 2] -> conversions at rounds 3 and 5.
    assert_eq!(
        shifts,
        vec![(3, "resolve".to_string()), (5, "resolve".to_string())]
    );
}

#[test]
fn hybrid_conversion_sequence_follows_figure_3() {
    let (n, b) = (13, 3);
    let t = 4;
    let schedule = HybridSchedule::compute(n, b);
    let config = RunConfig::new(n, t)
        .with_source_value(Value(1))
        .with_trace()
        .fixed_length();
    let mut adversary = Family::ChainRevealer {
        selection: FaultSelection::without_source(),
        start: 2,
        block: 3,
    }
    .strategy(5);
    let outcome = execute(AlgorithmSpec::Hybrid { b }, &config, adversary.as_mut()).unwrap();
    outcome.assert_correct();

    let witness = first_correct(&outcome);
    let shifts = shifts_of(&outcome, witness);

    // A-phase shifts use resolve', B-phase shifts use resolve, C-phase
    // rounds shift with resolve every round.
    let expected_a = schedule.a_blocks.len();
    let expected_b = schedule.b_blocks.len();
    let expected_c = schedule.c_rounds - 1; // RepFirstGather doesn't shift
    assert_eq!(shifts.len(), expected_a + expected_b + expected_c);
    for (i, (round, conversion)) in shifts.iter().enumerate() {
        if i < expected_a {
            assert_eq!(conversion, "resolve'", "shift {i} at round {round}");
            assert!(*round <= schedule.k_ab);
        } else {
            assert_eq!(conversion, "resolve", "shift {i} at round {round}");
            assert!(*round > schedule.k_ab);
        }
    }
    // The last A-phase shift lands exactly on k_AB (the A→B boundary).
    assert_eq!(shifts[expected_a - 1].0, schedule.k_ab);
    // The last B-phase shift lands exactly on k_AB + k_BC (B→C boundary).
    assert_eq!(
        shifts[expected_a + expected_b - 1].0,
        schedule.k_ab + schedule.k_bc
    );
}

#[test]
fn hybrid_plan_matches_executed_phases() {
    let (n, b) = (16, 3);
    let t = 5;
    let schedule = HybridSchedule::compute(n, b);
    let plan = AlgorithmSpec::Hybrid { b }.plan(n, t).unwrap();
    // Counts: 1 initial + (k_ab − 1) A-gathers + k_bc B-gathers + C rounds.
    let gathers = plan
        .iter()
        .filter(|a| matches!(a, RoundAction::Gather { .. }))
        .count();
    let reps = plan.iter().filter(|a| a.is_rep()).count();
    assert_eq!(gathers, schedule.k_ab - 1 + schedule.k_bc);
    assert_eq!(reps, schedule.c_rounds);
}

#[test]
fn preferred_value_survives_every_shift_when_source_correct() {
    // Strong Persistence in action: with a correct source, the traced
    // preferred value after every shift equals the source's value.
    let (n, t, b) = (13, 4, 3);
    let config = RunConfig::new(n, t)
        .with_source_value(Value(1))
        .with_trace()
        .fixed_length();
    let mut adversary = Family::ChainRevealer {
        selection: FaultSelection::without_source(),
        start: 2,
        block: 2,
    }
    .strategy(13);
    let outcome = execute(AlgorithmSpec::Hybrid { b }, &config, adversary.as_mut()).unwrap();
    outcome.assert_correct();

    for p in (0..n).map(ProcessId) {
        if outcome.faulty.contains(p) {
            continue;
        }
        for e in outcome.trace.by(p) {
            if let TraceEvent::Shift { preferred, .. } = &e.event {
                assert_eq!(
                    *preferred,
                    Value(1),
                    "{p} lost the persistent value at round {}",
                    e.round
                );
            }
        }
    }
}

#[test]
fn masked_faults_stop_influencing_preferred_values() {
    // Once every correct processor has discovered a fault, its messages
    // are replaced by defaults: after global detection the adversary's
    // payload content for that sender is irrelevant. We check by running
    // two executions that differ only in what a revealed fault sends
    // *after* everyone has discovered it — outcomes must coincide.
    let (n, t, b) = (13, 3, 2);
    let run_with_late_noise = |late_value: u16| {
        let config = RunConfig::new(n, t)
            .with_source_value(Value(1))
            .with_trace()
            .fixed_length();
        struct LateNoise {
            late_value: u16,
        }
        impl shifting_gears::sim::Adversary for LateNoise {
            fn name(&self) -> String {
                "late-noise".to_string()
            }
            fn corrupt(
                &mut self,
                n: usize,
                _t: usize,
                _source: ProcessId,
            ) -> shifting_gears::sim::ProcessSet {
                shifting_gears::sim::ProcessSet::from_members(n, [ProcessId(1)])
            }
            fn row(
                &mut self,
                sender: ProcessId,
                view: &shifting_gears::sim::AdversaryView<'_>,
                row: &mut [shifting_gears::sim::Payload],
            ) {
                let len = view.expected_len(sender).max(1);
                rows::each_recipient(sender, row, |recipient| {
                    if view.round == 2 {
                        // Blatant equivocation: get globally detected.
                        shifting_gears::sim::Payload::values([Value(
                            (recipient.index() % 2) as u16,
                        )])
                    } else if view.round > 2 {
                        // Post-detection noise that must be masked away.
                        shifting_gears::sim::Payload::Values(vec![Value(self.late_value); len])
                    } else {
                        view.shadow_of(sender)
                            .cloned()
                            .unwrap_or(shifting_gears::sim::Payload::Missing)
                    }
                });
            }
        }
        let mut adversary = LateNoise { late_value };
        let outcome = execute(AlgorithmSpec::AlgorithmB { b }, &config, &mut adversary).unwrap();
        outcome.assert_correct();
        outcome
    };
    let quiet = run_with_late_noise(0);
    let loud = run_with_late_noise(1);
    assert_eq!(quiet.decisions, loud.decisions);
    // P1 must actually have been discovered by every correct processor.
    let discoverers = quiet
        .trace
        .entries()
        .iter()
        .filter(|e| {
            matches!(&e.event, TraceEvent::Discovered { suspect, .. } if *suspect == ProcessId(1))
        })
        .count();
    assert_eq!(discoverers, n - 1, "P1 not globally detected");
}
