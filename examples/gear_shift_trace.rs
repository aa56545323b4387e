//! Trace a hybrid execution round by round: watch the algorithm start in
//! Algorithm A, shift into Algorithm B, then into Algorithm C, while the
//! adversary reveals one fault per block and the correct processors'
//! fault lists grow.
//!
//! ```text
//! cargo run --example gear_shift_trace
//! ```

use shifting_gears::adversary::{Family, FaultSelection};
use shifting_gears::analysis::chart::message_profile;
use shifting_gears::core::{execute, AlgorithmSpec, HybridSchedule, RoundAction};
use shifting_gears::sim::{ProcessId, RunConfig, TraceEvent, Value};

fn main() {
    let n = 13;
    let b = 3;
    let schedule = HybridSchedule::compute(n, b);
    let t = schedule.t;
    let spec = AlgorithmSpec::Hybrid { b };
    let plan = spec.plan(n, t).expect("hybrid has a plan");

    println!(
        "Hybrid(b={b}) on n={n}, t={t}: k_AB={} (A), k_BC={} (B), {} rounds of C; \
         thresholds t_AB={}, t_AC={}\n",
        schedule.k_ab, schedule.k_bc, schedule.c_rounds, schedule.t_ab, schedule.t_ac
    );

    // One fault starts equivocating every b rounds.
    let mut adversary = Family::ChainRevealer {
        selection: FaultSelection::without_source(),
        start: 2,
        block: b,
    }
    .strategy(0xFEED);
    // The whole schedule: the source is correct, so with early stopping
    // the run would end at round 2, at the first echo, before any shift.
    let config = RunConfig::new(n, t)
        .with_source_value(Value(1))
        .with_trace()
        .fixed_length();
    let outcome = execute(spec, &config, adversary.as_mut()).expect("valid parameters");

    let witness = (0..n)
        .map(ProcessId)
        .find(|p| !outcome.faulty.contains(*p))
        .expect("some correct processor");
    println!(
        "faulty: {}; tracing correct processor {witness}\n",
        outcome.faulty
    );

    for round in 1..=outcome.rounds_used {
        let phase = if round <= schedule.k_ab {
            "A"
        } else if round <= schedule.k_ab + schedule.k_bc {
            "B"
        } else {
            "C"
        };
        let action = match plan[round - 1] {
            RoundAction::Initial => "source broadcast".to_string(),
            RoundAction::Gather { convert: None } => "gather".to_string(),
            RoundAction::Gather { convert: Some(s) } => {
                format!("gather + shift via {}", s.conversion.name())
            }
            RoundAction::RepFirstGather => "C: store intermediate vertices".to_string(),
            RoundAction::RepGather => "C: gather/reorder/shift 3→2".to_string(),
        };
        println!("round {round:>2} [{phase}] {action}");
        for entry in outcome.trace.in_round(round) {
            if entry.who != witness {
                continue;
            }
            match &entry.event {
                TraceEvent::Discovered {
                    suspect,
                    during_conversion,
                } => println!(
                    "          {witness} discovered {suspect} faulty{}",
                    if *during_conversion {
                        " (during conversion)"
                    } else {
                        ""
                    }
                ),
                TraceEvent::Shift {
                    conversion,
                    preferred,
                } => println!("          shift: preferred value = {preferred} ({conversion})"),
                TraceEvent::Preferred { value } => {
                    println!("          preferred value = {value}")
                }
                _ => {}
            }
        }
    }

    println!("\ndecisions: {:?}", outcome.decisions);
    outcome.assert_correct();
    println!("agreement + validity hold. ✓");

    // The shape of the gears: per-round largest message, log scale. The
    // A phase's exponential levels tower over B's smaller blocks and C's
    // O(n) rounds.
    println!("\n{}", message_profile(&outcome, 48));
}
