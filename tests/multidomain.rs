//! The paper treats `|V|` as an arbitrary finite constant (§2). These
//! tests run the core algorithms directly over non-binary domains — the
//! trees, conversion functions and discovery rules are all value-generic
//! — including adversaries that inject out-of-domain values.

use shifting_gears::adversary::{Family, FaultSelection};
use shifting_gears::core::{execute, AlgorithmSpec};
use shifting_gears::sim::{
    Adversary, AdversaryView, Payload, ProcessId, ProcessSet, RunConfig, Value, ValueDomain,
};

fn config(n: usize, t: usize, domain_size: u16, v: u16) -> RunConfig {
    RunConfig::new(n, t)
        .with_domain(ValueDomain::new(domain_size))
        .with_source_value(Value(v))
}

#[test]
fn exponential_agrees_over_four_valued_domain() {
    for v in [0u16, 1, 2, 3] {
        let mut adversary = Family::TwoFaced(FaultSelection::without_source()).strategy(0);
        let outcome = execute(
            AlgorithmSpec::Exponential,
            &config(7, 2, 4, v),
            adversary.as_mut(),
        )
        .unwrap();
        outcome.assert_correct();
        assert_eq!(outcome.decision(), Some(Value(v)));
    }
}

#[test]
fn shifted_families_agree_over_five_valued_domain() {
    for spec in [
        AlgorithmSpec::AlgorithmA { b: 3 },
        AlgorithmSpec::Hybrid { b: 3 },
    ] {
        let mut adversary = Family::RandomLiar(FaultSelection::with_source()).strategy(6);
        let outcome = execute(spec, &config(13, 4, 5, 4), adversary.as_mut()).unwrap();
        outcome.assert_correct();
    }
    let mut adversary = Family::RandomLiar(FaultSelection::with_source()).strategy(6);
    let outcome = execute(
        AlgorithmSpec::AlgorithmB { b: 2 },
        &config(13, 3, 5, 4),
        adversary.as_mut(),
    )
    .unwrap();
    outcome.assert_correct();
}

#[test]
fn algorithm_c_agrees_over_three_valued_domain() {
    let mut adversary = Family::TwoFaced(FaultSelection::with_source()).strategy(0);
    let outcome = execute(
        AlgorithmSpec::AlgorithmC,
        &config(18, 3, 3, 2),
        adversary.as_mut(),
    )
    .unwrap();
    outcome.assert_correct();
}

/// An adversary that sends only *out-of-domain* values — receivers must
/// sanitize them all to the default, and agreement must hold on defaults.
struct OutOfDomain;

impl Adversary for OutOfDomain {
    fn name(&self) -> String {
        "out-of-domain".to_string()
    }

    fn corrupt(&mut self, n: usize, t: usize, _source: ProcessId) -> ProcessSet {
        ProcessSet::from_members(n, (1..=t).map(ProcessId))
    }

    fn payload(
        &mut self,
        sender: ProcessId,
        _recipient: ProcessId,
        view: &AdversaryView<'_>,
    ) -> Payload {
        let len = view.expected_len(sender);
        if len == 0 {
            Payload::Missing
        } else {
            // 999 is outside every domain used in these tests.
            Payload::Values(vec![Value(999); len])
        }
    }
}

#[test]
fn out_of_domain_values_sanitize_to_default() {
    let mut adversary = OutOfDomain;
    let outcome = execute(
        AlgorithmSpec::Exponential,
        &config(7, 2, 4, 3),
        &mut adversary,
    )
    .unwrap();
    outcome.assert_correct();
    assert_eq!(outcome.decision(), Some(Value(3)));
}

#[test]
fn bits_accounting_scales_with_domain_width() {
    // Same algorithm, same traffic in values; bits scale by ⌈log2 |V|⌉.
    let run = |size: u16| {
        let mut adversary = Family::TwoFaced(FaultSelection::without_source()).strategy(0);
        execute(
            AlgorithmSpec::Exponential,
            &config(7, 2, size, 1),
            adversary.as_mut(),
        )
        .unwrap()
    };
    let narrow = run(2); // 1 bit per value
    let wide = run(9); // 4 bits per value
    assert_eq!(narrow.metrics.total_bits() * 4, wide.metrics.total_bits());
    assert_eq!(
        narrow.metrics.max_message_values(),
        wide.metrics.max_message_values()
    );
}

#[test]
fn phase_king_handles_multivalued_domain() {
    let mut adversary = Family::RandomLiar(FaultSelection::without_source()).strategy(12);
    let outcome = execute(
        AlgorithmSpec::PhaseKing,
        &config(9, 2, 4, 3),
        adversary.as_mut(),
    )
    .unwrap();
    outcome.assert_correct();
    assert_eq!(outcome.decision(), Some(Value(3)));
}

#[test]
fn dolev_strong_handles_multivalued_domain() {
    let mut adversary = Family::RandomLiar(FaultSelection::without_source()).strategy(15);
    let outcome = execute(
        AlgorithmSpec::DolevStrong,
        &config(6, 3, 10, 7),
        adversary.as_mut(),
    )
    .unwrap();
    outcome.assert_correct();
    assert_eq!(outcome.decision(), Some(Value(7)));
}

#[test]
fn optimal_king_agrees_over_four_valued_domain() {
    for v in [0u16, 1, 2, 3] {
        let mut adversary = Family::TwoFaced(FaultSelection::without_source()).strategy(0);
        let outcome = execute(
            AlgorithmSpec::OptimalKing,
            &config(10, 3, 4, v),
            adversary.as_mut(),
        )
        .unwrap();
        outcome.assert_correct();
        assert_eq!(outcome.decision(), Some(Value(v)));
    }
}

#[test]
fn optimal_king_agrees_with_faulty_source_over_wide_domain() {
    let mut adversary = Family::RandomLiar(FaultSelection::with_source()).strategy(15);
    let outcome = execute(
        AlgorithmSpec::OptimalKing,
        &config(13, 4, 7, 6),
        adversary.as_mut(),
    )
    .unwrap();
    outcome.assert_correct();
}

#[test]
fn king_shift_agrees_over_three_valued_domain() {
    for v in [0u16, 1, 2] {
        let mut adversary = Family::RandomLiar(FaultSelection::without_source()).strategy(21);
        let outcome = execute(
            AlgorithmSpec::KingShift { b: 3 },
            &config(10, 3, 3, v),
            adversary.as_mut(),
        )
        .unwrap();
        outcome.assert_correct();
        assert_eq!(outcome.decision(), Some(Value(v)));
    }
}

/// The `⊥` wire sentinel must stay distinguishable from every legitimate
/// value even at the largest supported domain.
#[test]
fn king_bot_sentinel_never_collides_with_domain_values() {
    use shifting_gears::core::optimal_king::BOT_WIRE;
    let wide = ValueDomain::new(u16::MAX); // largest constructible domain
    assert!(!wide.contains(BOT_WIRE));
}
