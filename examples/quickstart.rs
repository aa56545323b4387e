//! Quickstart: run the paper's hybrid algorithm on 16 processors with 5
//! Byzantine faults and inspect the outcome.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use shifting_gears::adversary::{Family, FaultSelection};
use shifting_gears::core::{execute, AlgorithmSpec, HybridSchedule};
use shifting_gears::sim::{RunConfig, Value};

fn main() {
    // A system of n = 16 processors tolerates t = ⌊(n−1)/3⌋ = 5 faults.
    let n = 16;
    let t = 5;
    let spec = AlgorithmSpec::Hybrid { b: 3 };

    // The adversary corrupts 5 processors (not the source) and plays
    // maximal consistent equivocation: one story to even-id recipients,
    // the flipped story to odd-id recipients.
    let mut adversary = Family::TwoFaced(FaultSelection::without_source()).strategy(0);

    let config = RunConfig::new(n, t).with_source_value(Value(1));
    let outcome = execute(spec, &config, adversary.as_mut()).expect("valid parameters");

    let schedule = HybridSchedule::compute(n, 3);
    println!("algorithm        : {}", spec.name());
    println!("system           : n = {n}, t = {t}, source P0 broadcasts 1");
    println!("adversary        : {}", outcome.adversary);
    println!("faulty processors: {}", outcome.faulty);
    println!(
        "phases           : {} rounds of A, {} of B, {} of C (total {})",
        schedule.k_ab,
        schedule.k_bc,
        schedule.c_rounds,
        schedule.total_rounds()
    );
    // The source is correct, so every correct processor's first echo
    // already agrees and the run stops there (`RunConfig::fixed_length`
    // runs the whole A→B→C schedule instead).
    println!(
        "rounds executed  : {}{}",
        outcome.rounds_used,
        if outcome.early_stopped {
            " (stopped early: the echoes already agree)"
        } else {
            ""
        }
    );
    println!(
        "largest message  : {} values ({} bits)",
        outcome.metrics.max_message_values(),
        outcome.metrics.max_message_bits()
    );
    println!("total traffic    : {} bits", outcome.metrics.total_bits());
    println!("agreement        : {}", outcome.agreement());
    println!("validity         : {:?}", outcome.validity());
    println!("decision         : {:?}", outcome.decision());

    assert!(outcome.agreement() && outcome.validity() == Some(true));
    println!("\nAll correct processors decided the source's value. ✓");
}
