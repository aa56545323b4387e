//! Engine-level behaviour: rushing visibility, shadow instances, trace
//! plumbing, and outcome semantics.

use shifting_gears::core::AlgorithmSpec;
use shifting_gears::sim::{
    run, Adversary, AdversaryView, Payload, ProcessId, ProcessSet, RunConfig, TraceEvent, Value,
};

/// Asserts mid-run that the adversary really sees the current round's
/// honest broadcasts (rushing) and its own shadows.
struct ViewInspector {
    saw_source_broadcast: bool,
    shadow_lens: Vec<(usize, usize)>,
}

impl Adversary for ViewInspector {
    fn name(&self) -> String {
        "view-inspector".to_string()
    }

    fn corrupt(&mut self, n: usize, _t: usize, _source: ProcessId) -> ProcessSet {
        ProcessSet::from_members(n, [ProcessId(1)])
    }

    fn payload(
        &mut self,
        sender: ProcessId,
        recipient: ProcessId,
        view: &AdversaryView<'_>,
    ) -> Payload {
        if view.round == 1 && recipient == ProcessId(2) {
            // Rushing: the source's round-1 broadcast is visible before
            // we choose our payload.
            let honest = view.honest_of(view.source).expect("source broadcast");
            assert_eq!(honest.value_at(0), Some(view.source_value));
            self.saw_source_broadcast = true;
        }
        if recipient == ProcessId(2) {
            self.shadow_lens
                .push((view.round, view.expected_len(sender)));
        }
        view.shadow_of(sender).cloned().unwrap_or(Payload::Missing)
    }
}

#[test]
fn adversary_sees_rushed_broadcasts_and_shadows() {
    // Fixed-length: the shadow only relays, so the echo rule would end
    // the run at round 2, before the six-value gather.
    let config = RunConfig::new(7, 2)
        .with_source_value(Value(1))
        .fixed_length();
    let mut adversary = ViewInspector {
        saw_source_broadcast: false,
        shadow_lens: Vec::new(),
    };
    let outcome = run(
        &config,
        &mut adversary,
        AlgorithmSpec::Exponential.factory(&config),
    );
    outcome.assert_correct();
    assert!(adversary.saw_source_broadcast);
    // Exponential on n = 7: honest gather payloads carry 1 value in
    // round 2 and 6 in round 3; the shadow lengths must match.
    assert_eq!(adversary.shadow_lens, vec![(1, 0), (2, 1), (3, 6)]);
}

#[test]
fn trace_events_only_from_correct_processors() {
    let config = RunConfig::new(7, 2)
        .with_source_value(Value(1))
        .with_trace();
    let mut adversary = shifting_gears::adversary::Family::TwoFaced(
        shifting_gears::adversary::FaultSelection::without_source(),
    )
    .strategy(0);
    let outcome = run(
        &config,
        adversary.as_mut(),
        AlgorithmSpec::Exponential.factory(&config),
    );
    assert!(!outcome.trace.entries().is_empty());
    for e in outcome.trace.entries() {
        assert!(
            !outcome.faulty.contains(e.who),
            "trace entry from faulty {}",
            e.who
        );
    }
    // Every correct processor decided, and says so in the trace.
    for i in 0..7 {
        let p = ProcessId(i);
        if !outcome.faulty.contains(p) {
            assert!(outcome
                .trace
                .by(p)
                .any(|e| matches!(e.event, TraceEvent::Decided { .. })));
        }
    }
}

#[test]
fn trace_empty_when_disabled() {
    let config = RunConfig::new(4, 1).with_source_value(Value(1));
    let outcome = run(
        &config,
        &mut shifting_gears::sim::NoFaults,
        AlgorithmSpec::Exponential.factory(&config),
    );
    assert!(outcome.trace.entries().is_empty());
}

#[test]
fn validity_is_vacuous_with_faulty_source() {
    let config = RunConfig::new(7, 2).with_source_value(Value(1));
    let mut adversary = shifting_gears::adversary::Family::Silent(
        shifting_gears::adversary::FaultSelection::with_source(),
    )
    .strategy(0);
    let outcome = run(
        &config,
        adversary.as_mut(),
        AlgorithmSpec::Exponential.factory(&config),
    );
    assert!(outcome.faulty.contains(ProcessId(0)));
    assert_eq!(outcome.validity(), None);
    assert!(outcome.agreement());
    // A silent source yields the default decision everywhere.
    assert_eq!(outcome.decision(), Some(Value::DEFAULT));
}

#[test]
fn peak_tree_nodes_reflects_deepest_gather() {
    // Fixed-length: fault-free, the echo rule stops before level 2.
    let config = RunConfig::new(7, 2)
        .with_source_value(Value(1))
        .fixed_length();
    let outcome = run(
        &config,
        &mut shifting_gears::sim::NoFaults,
        AlgorithmSpec::Exponential.factory(&config),
    );
    // Levels 0..2 of the no-rep tree: 1 + 6 + 30 nodes, plus the root of
    // the rep twin (1).
    assert_eq!(outcome.metrics.peak_tree_nodes, 1 + 6 + 30 + 1);
}

#[test]
fn per_round_stats_have_one_entry_per_round() {
    let config = RunConfig::new(18, 3).with_source_value(Value(1));
    let outcome = run(
        &config,
        &mut shifting_gears::sim::NoFaults,
        AlgorithmSpec::AlgorithmC.factory(&config),
    );
    assert_eq!(outcome.metrics.per_round.len(), outcome.rounds_used);
    for (i, r) in outcome.metrics.per_round.iter().enumerate() {
        assert_eq!(r.round, i + 1);
    }
    // Round 1: only the source speaks (17 messages of 1 value).
    assert_eq!(outcome.metrics.per_round[0].honest_messages, 17);
    // Round 2 of C: everyone echoes the root (18 senders × 17 peers).
    assert_eq!(outcome.metrics.per_round[1].honest_messages, 18 * 17);
}
