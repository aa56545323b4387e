//! Shared test harness: drives `GearedProtocol` instances directly (the
//! engine's loop, but with full access to every processor's internal
//! state) so tests can check the paper's lemmas on live trees and fault
//! lists mid-execution.

use shifting_gears::core::plan::ConvertSpec;
use shifting_gears::core::{AlgorithmSpec, GearedProtocol, Params, RoundAction};
use shifting_gears::sim::{
    Inbox, Payload, ProcCtx, ProcessId, ProcessSet, Protocol, Value, ValueDomain,
};

/// Whether `p` carries a positional value vector ([`Payload::Values`] or
/// the bit-packed [`Payload::Bits`] — test adversaries must treat the two
/// identically, like real receivers do).
#[allow(dead_code)]
pub fn is_vector(p: &Payload) -> bool {
    matches!(p, Payload::Values(_) | Payload::Bits { .. })
}

/// Materializes a payload's positional values, representation-agnostic.
#[allow(dead_code)]
pub fn payload_values(p: &Payload) -> Vec<Value> {
    (0..p.num_values())
        .map(|i| p.value_at(i).expect("index in range"))
        .collect()
}

/// The domain-flipped copy of a binary vector payload.
#[allow(dead_code)]
pub fn flip_values(p: &Payload) -> Payload {
    Payload::Values(
        payload_values(p)
            .into_iter()
            .map(|v| Value(1 - v.raw()))
            .collect(),
    )
}

/// The faulty payload chosen by a test adversary closure, given the round,
/// sender, recipient and the sender's honest shadow payload.
pub type TestAdversary<'a> =
    dyn FnMut(usize, ProcessId, ProcessId, Option<&Payload>) -> Payload + 'a;

/// An inspectable in-test network of `GearedProtocol` instances.
pub struct TestNet {
    /// Fault bound (kept for diagnostics in assertion messages).
    #[allow(dead_code)]
    pub t: usize,
    /// The corrupted set.
    pub faulty: ProcessSet,
    /// All processor instances (faulty slots double as honest shadows).
    pub protocols: Vec<GearedProtocol>,
    ctxs: Vec<ProcCtx>,
    /// Rounds executed so far.
    pub round: usize,
}

#[allow(dead_code)]
impl TestNet {
    /// Builds a network running `spec` with source `P0` holding
    /// `source_value` and the given corrupted set.
    pub fn new(
        spec: AlgorithmSpec,
        n: usize,
        t: usize,
        source_value: Value,
        faulty: ProcessSet,
    ) -> TestNet {
        TestNet::build(spec, n, t, source_value, faulty, false)
    }

    /// Like [`TestNet::new`], but strips the *final* round's conversion
    /// so tests can inspect the fully gathered tree (the paper's lemmas
    /// quantify over the pre-conversion tree). Do not call `decide` on an
    /// inspectable net — convert manually instead.
    pub fn new_inspectable(
        spec: AlgorithmSpec,
        n: usize,
        t: usize,
        source_value: Value,
        faulty: ProcessSet,
    ) -> TestNet {
        TestNet::build(spec, n, t, source_value, faulty, true)
    }

    fn build(
        spec: AlgorithmSpec,
        n: usize,
        t: usize,
        source_value: Value,
        faulty: ProcessSet,
        strip_final_convert: bool,
    ) -> TestNet {
        spec.validate(n, t).expect("valid spec");
        let params = Params {
            n,
            t,
            source: ProcessId(0),
            domain: ValueDomain::binary(),
        };
        let mut plan = spec.plan(n, t).expect("tree algorithm");
        if strip_final_convert {
            if let Some(RoundAction::Gather { convert }) = plan.last_mut() {
                *convert = None::<ConvertSpec>;
            }
        }
        let modified = spec != AlgorithmSpec::PlainExponential;
        let protocols: Vec<GearedProtocol> = (0..n)
            .map(|i| {
                let me = ProcessId(i);
                let input = (me == params.source).then_some(source_value);
                GearedProtocol::new(params, me, input, modified, plan.clone())
            })
            .collect();
        let ctxs = (0..n).map(|i| ProcCtx::new(ProcessId(i))).collect();
        TestNet {
            t,
            faulty,
            protocols,
            ctxs,
            round: 0,
        }
    }

    /// Total rounds of the schedule.
    pub fn total_rounds(&self) -> usize {
        self.protocols[0].total_rounds()
    }

    /// The number of processors.
    pub fn n(&self) -> usize {
        self.protocols.len()
    }

    /// Ids of the correct processors.
    pub fn correct(&self) -> Vec<ProcessId> {
        (0..self.n())
            .map(ProcessId)
            .filter(|p| !self.faulty.contains(*p))
            .collect()
    }

    /// Executes one round, with faulty payloads chosen by `adversary`.
    pub fn step(&mut self, adversary: &mut TestAdversary<'_>) {
        let n = self.n();
        self.round += 1;
        for ctx in &mut self.ctxs {
            ctx.round = self.round;
        }
        // Everyone's would-be broadcast (shadows included).
        let broadcasts: Vec<Option<Payload>> = (0..n)
            .map(|i| self.protocols[i].outgoing(&mut self.ctxs[i]))
            .collect();
        for i in 0..n {
            let mut inbox = Inbox::empty(n);
            for j in 0..n {
                if i == j {
                    continue;
                }
                let sender = ProcessId(j);
                let payload = if self.faulty.contains(sender) {
                    adversary(self.round, sender, ProcessId(i), broadcasts[j].as_ref())
                } else {
                    broadcasts[j].clone().unwrap_or(Payload::Missing)
                };
                inbox.set(sender, payload);
            }
            self.protocols[i].deliver(&inbox, &mut self.ctxs[i]);
        }
    }

    /// Runs all remaining rounds.
    pub fn run_all(&mut self, adversary: &mut TestAdversary<'_>) {
        while self.round < self.total_rounds() {
            self.step(adversary);
        }
    }

    /// Decisions of the correct processors (faulty slots are `None`).
    pub fn decide(&mut self) -> Vec<Option<Value>> {
        (0..self.n())
            .map(|i| {
                (!self.faulty.contains(ProcessId(i)))
                    .then(|| self.protocols[i].decide(&mut self.ctxs[i]))
            })
            .collect()
    }

    /// Asserts agreement (and validity when the source is correct,
    /// against `source_value`).
    pub fn assert_correct(&mut self, source_value: Value) {
        let decisions = self.decide();
        let correct_decisions: Vec<Value> = decisions.iter().flatten().copied().collect();
        assert!(
            correct_decisions.windows(2).all(|w| w[0] == w[1]),
            "agreement violated: {decisions:?}"
        );
        if !self.faulty.contains(ProcessId(0)) {
            assert!(
                correct_decisions.iter().all(|v| *v == source_value),
                "validity violated: {decisions:?}"
            );
        }
    }
}

/// An adversary closure that behaves perfectly honestly (useful as a base
/// case and for composing).
#[allow(dead_code)]
pub fn honest_adversary() -> impl FnMut(usize, ProcessId, ProcessId, Option<&Payload>) -> Payload {
    |_round, _sender, _recipient, shadow| shadow.cloned().unwrap_or(Payload::Missing)
}
