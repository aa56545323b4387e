//! Integration tests for the parallel-composition layers: interactive
//! consistency / consensus and multivalued broadcast, over the paper's
//! algorithms, against the adversary suite.

use shifting_gears::adversary::{quick_suite, Family, FaultSelection};
use shifting_gears::core::{run_consensus, run_multivalued, AlgorithmSpec};
use shifting_gears::sim::{RunConfig, Value, ValueDomain};

#[test]
fn consensus_over_exponential_against_quick_suite() {
    let n = 7;
    let t = 2;
    let inputs: Vec<Value> = (0..n).map(|i| Value((i % 2) as u16)).collect();
    for mut adversary in quick_suite(0xAB) {
        let config = RunConfig::new(n, t);
        let outcome = run_consensus(
            AlgorithmSpec::Exponential,
            &config,
            inputs.clone(),
            adversary.as_mut(),
        );
        assert!(
            outcome.agreement(),
            "consensus diverged under {}",
            outcome.adversary
        );
    }
}

#[test]
fn consensus_unanimous_inputs_survive_faults() {
    // All correct processors hold 1; consensus must be 1 (the plurality
    // of an agreed vector in which ≥ n−t slots are 1).
    let n = 7;
    let t = 2;
    let inputs = vec![Value(1); n];
    let mut adversary = Family::TwoFaced(FaultSelection::without_source()).strategy(0);
    let config = RunConfig::new(n, t);
    let outcome = run_consensus(
        AlgorithmSpec::Exponential,
        &config,
        inputs,
        adversary.as_mut(),
    );
    assert!(outcome.agreement());
    assert_eq!(outcome.decision(), Some(Value(1)));
}

#[test]
fn consensus_over_hybrid_base() {
    let n = 10;
    let t = 3;
    // Every *correct* processor holds 1 (the liar corrupts P1..P3, whose
    // slots may resolve arbitrarily); the agreed vector then has >= 7
    // one-slots, so the plurality is 1.
    let inputs: Vec<Value> = (0..n)
        .map(|i| Value(u16::from(!(1..=3).contains(&i))))
        .collect();
    let mut adversary = Family::RandomLiar(FaultSelection::without_source()).strategy(0x11);
    let config = RunConfig::new(n, t);
    let outcome = run_consensus(
        AlgorithmSpec::Hybrid { b: 3 },
        &config,
        inputs,
        adversary.as_mut(),
    );
    assert!(outcome.agreement());
    assert_eq!(outcome.decision(), Some(Value(1)));
}

#[test]
fn multivalued_broadcast_against_quick_suite() {
    for mut adversary in quick_suite(0xCD) {
        let config = RunConfig::new(7, 2)
            .with_domain(ValueDomain::new(8))
            .with_source_value(Value(6));
        let outcome = run_multivalued(AlgorithmSpec::Exponential, &config, adversary.as_mut());
        outcome.assert_correct();
    }
}

#[test]
fn multivalued_over_algorithm_b() {
    let config = RunConfig::new(13, 3)
        .with_domain(ValueDomain::new(16))
        .with_source_value(Value(11));
    let mut adversary = Family::TwoFaced(FaultSelection::without_source()).strategy(0);
    let outcome = run_multivalued(
        AlgorithmSpec::AlgorithmB { b: 2 },
        &config,
        adversary.as_mut(),
    );
    outcome.assert_correct();
    assert_eq!(outcome.decision(), Some(Value(11)));
}

#[test]
fn multivalued_message_cost_scales_with_bit_width() {
    // Message length multiplies by ⌈log2 |V|⌉ (plus 2 framing values per
    // instance) relative to the binary run.
    let mut binary_adv = Family::RandomLiar(FaultSelection::without_source()).strategy(1);
    let binary = shifting_gears::core::execute(
        AlgorithmSpec::Exponential,
        &RunConfig::new(7, 2).with_source_value(Value(1)),
        binary_adv.as_mut(),
    )
    .unwrap();

    let mut adv = Family::RandomLiar(FaultSelection::without_source()).strategy(1);
    let config = RunConfig::new(7, 2)
        .with_domain(ValueDomain::new(16)) // 4 bits
        .with_source_value(Value(9));
    let multi = run_multivalued(AlgorithmSpec::Exponential, &config, adv.as_mut());
    multi.assert_correct();

    let bits = 4;
    let framing = 2 * bits;
    assert_eq!(
        multi.metrics.max_message_values(),
        bits * binary.metrics.max_message_values() + framing
    );
}
