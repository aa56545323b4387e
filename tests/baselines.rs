//! Baseline-specific adversarial tests: authenticated Dolev–Strong (with
//! signature-forgery attempts) and Phase King.

use shifting_gears::adversary::{standard_suite, Family, FaultSelection};
use shifting_gears::core::{execute, AlgorithmSpec};
use shifting_gears::sim::{
    Adversary, AdversaryView, Payload, ProcessId, ProcessSet, RunConfig, Value,
};

#[test]
fn dolev_strong_tolerates_majority_faults() {
    // Authentication buys resilience far beyond n/3: n = 6, t = 4.
    for source_value in [Value(0), Value(1)] {
        let config = RunConfig::new(6, 4).with_source_value(source_value);
        let mut adversary = Family::RandomLiar(FaultSelection::with_source()).strategy(3);
        let outcome = execute(AlgorithmSpec::DolevStrong, &config, adversary.as_mut()).unwrap();
        outcome.assert_correct();
    }
}

#[test]
fn dolev_strong_source_equivocation_yields_agreement() {
    let config = RunConfig::new(5, 2).with_source_value(Value(1));
    let mut adversary =
        Family::EquivocatingSource(FaultSelection::with_source().limit(1)).strategy(0);
    let outcome = execute(AlgorithmSpec::DolevStrong, &config, adversary.as_mut()).unwrap();
    // Source faulty: validity vacuous, agreement mandatory.
    assert!(outcome.agreement());
}

/// An adversary that actively tries to forge signature chains: it replays
/// honest relays with truncated chains, re-signs stale values, and sends
/// structurally bogus relays. The registry must make all of it useless.
struct Forger;

impl Adversary for Forger {
    fn name(&self) -> String {
        "forger".to_string()
    }

    fn corrupt(&mut self, n: usize, _t: usize, source: ProcessId) -> ProcessSet {
        // Corrupt two non-source processors.
        ProcessSet::from_members(n, (0..n).map(ProcessId).filter(|p| *p != source).take(2))
    }

    fn payload(
        &mut self,
        sender: ProcessId,
        _recipient: ProcessId,
        view: &AdversaryView<'_>,
    ) -> Payload {
        // Try to fabricate support for value 0 without the source's
        // signature: sign it ourselves and relay.
        let forged = view.sign_as(sender, Value(0));
        let mut relays = vec![forged];
        if let Some(other) = view.faulty.iter().find(|f| *f != sender) {
            // A two-signature chain entirely of faulty signers (missing
            // the source) — must be rejected by the accept rule.
            let base = view.sign_as(other, Value(0));
            if let Some(ext) = view.extend_as(sender, &base) {
                relays.push(ext);
            }
        }
        Payload::Signed(relays)
    }
}

#[test]
fn dolev_strong_rejects_forged_chains() {
    let config = RunConfig::new(6, 3).with_source_value(Value(1));
    let mut adversary = Forger;
    let outcome = execute(AlgorithmSpec::DolevStrong, &config, &mut adversary).unwrap();
    outcome.assert_correct();
    assert_eq!(
        outcome.decision(),
        Some(Value(1)),
        "forgery influenced the decision"
    );
}

#[test]
fn phase_king_full_gauntlet_at_various_sizes() {
    for (n, t) in [(5, 1), (9, 2), (13, 3)] {
        for mut adversary in standard_suite(0xBEEF) {
            for source_value in [Value(0), Value(1)] {
                let config = RunConfig::new(n, t).with_source_value(source_value);
                let outcome =
                    execute(AlgorithmSpec::PhaseKing, &config, adversary.as_mut()).unwrap();
                outcome.assert_correct();
                assert_eq!(outcome.scheduled_rounds, 1 + 2 * (t + 1));
                assert!(outcome.rounds_used <= outcome.scheduled_rounds);
            }
        }
    }
}

#[test]
fn phase_queen_full_gauntlet_at_various_sizes() {
    for (n, t) in [(5, 1), (9, 2), (13, 3)] {
        for mut adversary in standard_suite(0xDEAD) {
            for source_value in [Value(0), Value(1)] {
                let config = RunConfig::new(n, t).with_source_value(source_value);
                let outcome =
                    execute(AlgorithmSpec::PhaseQueen, &config, adversary.as_mut()).unwrap();
                outcome.assert_correct();
            }
        }
    }
}

#[test]
fn phase_king_messages_are_constant_size() {
    let config = RunConfig::new(21, 5).with_source_value(Value(1));
    let mut adversary = Family::RandomLiar(FaultSelection::without_source()).strategy(8);
    let outcome = execute(AlgorithmSpec::PhaseKing, &config, adversary.as_mut()).unwrap();
    outcome.assert_correct();
    assert_eq!(outcome.metrics.max_message_values(), 1);
}

#[test]
fn dolev_strong_full_gauntlet() {
    for mut adversary in standard_suite(0xF00D) {
        let config = RunConfig::new(7, 3).with_source_value(Value(1));
        let outcome = execute(AlgorithmSpec::DolevStrong, &config, adversary.as_mut()).unwrap();
        outcome.assert_correct();
    }
}
