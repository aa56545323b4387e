//! Interactive consistency and consensus, composed from the paper's
//! broadcast algorithms: every processor holds an input, `n` parallel
//! agreement instances (one per source) produce a common vector, and the
//! plurality of the vector is the consensus value.
//!
//! ```text
//! cargo run --example consensus_vector
//! ```

use shifting_gears::adversary::{Family, FaultSelection};
use shifting_gears::core::{run_consensus, AlgorithmSpec};
use shifting_gears::sim::{RunConfig, TraceEvent, Value};

fn main() {
    let n = 7;
    let t = 2;
    // Inputs: P0..P3 vote 1, P4..P6 vote 0.
    let inputs: Vec<Value> = (0..n).map(|i| Value(u16::from(i < 4))).collect();
    println!(
        "inputs    : {:?}",
        inputs.iter().map(|v| v.raw()).collect::<Vec<_>>()
    );

    let mut adversary = Family::TwoFaced(FaultSelection::without_source()).strategy(0);
    let config = RunConfig::new(n, t).with_trace();
    let outcome = run_consensus(
        AlgorithmSpec::Exponential,
        &config,
        inputs.clone(),
        adversary.as_mut(),
    );

    println!("faulty    : {}", outcome.faulty);
    println!("rounds    : {}", outcome.rounds_used);
    // Every correct processor logged its agreed vector as a trace note.
    for e in outcome.trace.entries() {
        if let TraceEvent::Note { text } = &e.event {
            if text.contains("vector") {
                println!("{} agreed on {}", e.who, text);
                break; // all identical; show one
            }
        }
    }
    println!("consensus : {:?}", outcome.decision());
    assert!(outcome.agreement());
    println!("\nAll correct processors agree on the vector and the consensus value. ✓");
}
