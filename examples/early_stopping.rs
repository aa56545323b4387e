//! Decision lock-in and the early-stopping head-room (DRS 1986 lineage).
//!
//! The paper's Algorithm C adapts Dolev, Reischuk & Strong's *Early
//! Stopping in Byzantine Agreement*. On a full (fixed-length) schedule
//! the detect-or-persist structure means the decision value usually
//! locks in long before the schedule ends. This example traces
//! fixed-length executions of the hybrid and Algorithm C under
//! increasing fault loads and prints when each correct processor's
//! decision locked in — the head-room an early-stopping rule can
//! harvest — and then runs the same cells with early stopping on, where
//! every family cashes it in: Dolev–Strong by quiescence, the kings by
//! their lock, the tree machine by its echo rule.
//!
//! ```text
//! cargo run --example early_stopping
//! ```

use shifting_gears::adversary::{Family, FaultSelection};
use shifting_gears::analysis::lock_in;
use shifting_gears::core::{execute, AlgorithmSpec};
use shifting_gears::sim::{Adversary, NoFaults, RunConfig, Value};

fn sweep(spec: AlgorithmSpec, n: usize, t: usize) {
    println!(
        "{} at n = {n}, t = {t} (schedule: {} rounds)",
        spec.name(),
        spec.rounds(n, t)
    );
    println!("  f   lock-in   head-room   per-processor lock-ins");
    for f in 0..=t {
        let config = RunConfig::new(n, t)
            .with_source_value(Value(1))
            .with_trace()
            .fixed_length();
        let mut none = NoFaults;
        let mut split;
        let adversary: &mut dyn Adversary = if f == 0 {
            &mut none
        } else {
            split = Family::DoubleTalk(FaultSelection::with_source().limit(f)).strategy(0);
            split.as_mut()
        };
        let outcome = execute(spec, &config, adversary).expect("valid parameters");
        assert!(outcome.agreement());
        let report = lock_in(&outcome);
        let per: Vec<String> = report
            .per_processor
            .iter()
            .map(|l| l.map_or("-".to_string(), |r| r.to_string()))
            .collect();
        println!(
            "  {:<3} {:<9} {:<11} [{}]",
            f,
            report.system_lock_in().unwrap_or(0),
            report.headroom().unwrap_or(0),
            per.join(" ")
        );
    }
    println!();
}

/// The engine's status-driven run loop harvesting the head-room for
/// real: the early-stopping families terminate as soon as every correct
/// processor is ready, so `rounds_used` undercuts the schedule whenever
/// the adversary exposes fewer than `t` faults.
fn harvested(spec: AlgorithmSpec, n: usize, t: usize) {
    println!(
        "{} at n = {n}, t = {t} (schedule: {} rounds, early stopping ON)",
        spec.name(),
        spec.rounds(n, t)
    );
    println!("  f   rounds-used   saved");
    for f in 0..=t {
        let config = RunConfig::new(n, t).with_source_value(Value(1));
        let mut none = NoFaults;
        let mut split;
        let adversary: &mut dyn Adversary = if f == 0 {
            &mut none
        } else {
            split = Family::DoubleTalk(FaultSelection::with_source().limit(f)).strategy(0);
            split.as_mut()
        };
        let outcome = execute(spec, &config, adversary).expect("valid parameters");
        assert!(outcome.agreement());
        println!(
            "  {:<3} {:<13} {}",
            f,
            outcome.rounds_used,
            outcome.rounds_saved()
        );
    }
    println!();
}

fn main() {
    // The hybrid: fault-free runs lock in at round 1 (persistence from
    // the source round); attacked runs lock in at the first A-block
    // conversion, still leaving most of the schedule as head-room.
    sweep(AlgorithmSpec::Hybrid { b: 3 }, 16, 5);

    // Algorithm C locks in at its first rep-gather round even under a
    // split-brain source — Proposition 4's detect-or-persist step.
    sweep(AlgorithmSpec::AlgorithmC, 32, 4);

    // With early stopping on (the default; RunConfig::fixed_length asks
    // for the full schedule instead) the engine stops a run as soon as
    // every correct processor is ready: the blocked tree specs one round
    // after their lock-in, at the next block's first echo (Algorithm C
    // has one block start, round 2, so a source that splits it costs the
    // whole schedule), the others by quiescence or their lock.
    harvested(AlgorithmSpec::Hybrid { b: 3 }, 16, 5);
    harvested(AlgorithmSpec::AlgorithmC, 32, 4);
    harvested(AlgorithmSpec::DolevStrong, 7, 4);
    harvested(AlgorithmSpec::OptimalKing, 16, 5);

    println!(
        "The gap between lock-in and schedule length is the early-stopping\n\
         opportunity Dolev–Reischuk–Strong (1986) formalize as min(f+2, t+1);\n\
         every family harvests it via the engine's status-driven round loop."
    );
}
