//! Authenticated Dolev–Strong baseline (Dolev & Strong 1983, cited by the
//! paper).
//!
//! With unforgeable signatures, Byzantine broadcast tolerates any
//! `t ≤ n−2` in `t+1` rounds: the source signs and broadcasts its value;
//! a processor that first accepts a value `v` at the end of round `r` —
//! carried by a valid chain of `r` distinct signatures starting with the
//! source — appends its own signature and relays in round `r+1`. After
//! round `t+1`, a processor decides the unique accepted value, or the
//! default if it accepted none or several.
//!
//! Signatures are simulated by the engine's [`sg_sim::sig::SigRegistry`]
//! (see DESIGN.md §5, Substitutions): faulty processors can sign anything
//! as themselves but can never forge an honest signature, which is the
//! only property the proof uses.

use std::collections::BTreeSet;

use sg_sim::sig::SignedRelay;
use sg_sim::{
    Inbox, Payload, ProcCtx, ProcessId, Protocol, RoundStatus, RunConfig, TraceEvent, Value,
};

use crate::params::Params;

/// One processor's Dolev–Strong instance.
pub struct DolevStrong {
    params: Params,
    me: ProcessId,
    input: Option<Value>,
    /// Values accepted so far (the "extracted set").
    accepted: BTreeSet<Value>,
    /// Relays to broadcast next round (newly accepted, own signature
    /// already appended).
    outbox: Vec<SignedRelay>,
    /// Whether the last delivered round was *quiet*: it accepted no new
    /// value and left nothing to relay. The early-stopping quiescence
    /// rule (the `f+2` pattern: with `f` actual faults, every chain that
    /// reaches a correct processor has at most `f+1` signatures, so the
    /// first system-wide quiet round occurs by round `f+2`) reports
    /// ready from the first quiet round on.
    quiet: bool,
}

impl DolevStrong {
    /// Builds an instance for processor `me`. `input` must be `Some`
    /// exactly when `me` is the source.
    ///
    /// # Panics
    ///
    /// Panics if the input/source relationship is violated.
    pub fn new(params: Params, me: ProcessId, input: Option<Value>) -> Self {
        assert_eq!(
            input.is_some(),
            me == params.source,
            "exactly the source carries an input"
        );
        DolevStrong {
            params,
            me,
            input,
            accepted: BTreeSet::new(),
            outbox: Vec::new(),
            quiet: false,
        }
    }

    /// Whether a relay is acceptable at the end of `round`: valid chain of
    /// exactly `round` distinct signers starting with the source, not
    /// including us, and carrying a domain value.
    fn acceptable(&self, relay: &SignedRelay, round: usize, ctx: &ProcCtx) -> bool {
        if !self.params.domain.contains(relay.value) {
            return false;
        }
        if relay.chain.len() != round || relay.chain.first() != Some(&self.params.source) {
            return false;
        }
        if relay.chain.contains(&self.me) {
            return false;
        }
        let mut seen = BTreeSet::new();
        if !relay.chain.iter().all(|p| seen.insert(*p)) {
            return false;
        }
        ctx.verify(relay)
    }
}

impl Protocol for DolevStrong {
    fn total_rounds(&self) -> usize {
        self.params.t + 1
    }

    fn outgoing(&mut self, ctx: &mut ProcCtx) -> Option<Payload> {
        if ctx.round == 1 {
            return self.input.map(|v| {
                let relay = ctx.sign(v);
                Payload::Signed(vec![relay])
            });
        }
        if self.outbox.is_empty() {
            None
        } else {
            Some(Payload::Signed(std::mem::take(&mut self.outbox)))
        }
    }

    fn deliver(&mut self, inbox: &Inbox, ctx: &mut ProcCtx) {
        let round = ctx.round;
        if self.me == self.params.source {
            // The source accepted its own value implicitly in round 1 and
            // never relays further.
            if round == 1 {
                if let Some(v) = self.input {
                    self.accepted.insert(v);
                }
            }
            return;
        }
        let mut fresh: Vec<SignedRelay> = Vec::new();
        for i in 0..inbox.n() {
            let sender = ProcessId(i);
            if sender == self.me {
                continue;
            }
            if let Payload::Signed(relays) = inbox.from(sender) {
                for relay in relays {
                    ctx.charge(1 + relay.chain.len() as u64);
                    if self.acceptable(relay, round, ctx) && !self.accepted.contains(&relay.value) {
                        self.accepted.insert(relay.value);
                        ctx.emit(TraceEvent::Note {
                            text: format!("accepted value {} in round {round}", relay.value),
                        });
                        fresh.push(relay.clone());
                    }
                }
            }
        }
        // Relay newly accepted values next round (if any rounds remain).
        let fresh_any = !fresh.is_empty();
        if round < self.total_rounds() {
            for relay in fresh {
                if let Some(extended) = ctx.extend(&relay) {
                    self.outbox.push(extended);
                }
            }
        }
        // Quiescence for early stopping: nothing new arrived and nothing
        // is pending relay.
        self.quiet = !fresh_any && self.outbox.is_empty();
    }

    fn decide(&mut self, ctx: &mut ProcCtx) -> Value {
        let value = match self.input {
            Some(v) => v,
            None => {
                if self.accepted.len() == 1 {
                    *self.accepted.iter().next().expect("one element")
                } else {
                    // No value, or the (necessarily faulty) source signed
                    // several: everyone falls back to the default.
                    Value::DEFAULT
                }
            }
        };
        ctx.emit(TraceEvent::Decided { value });
        value
    }

    /// The quiescence rule. The source is always ready (it decides its
    /// own input); everyone else is ready from the first quiet round on.
    /// The engine stops only when *all* correct processors are quiet in
    /// the same round — and once they all are, no correct processor ever
    /// relays again, so (absent withheld faulty-only signature chains,
    /// which no strategy in the library banks) no acceptable chain can
    /// arrive later and every decision is final. Fixed-length runs
    /// (`RunConfig::fixed_length`) remain for adversarial studies
    /// outside that envelope.
    fn round_status(&self, _ctx: &ProcCtx) -> RoundStatus {
        if self.input.is_some() || self.quiet {
            RoundStatus::ReadyToDecide
        } else {
            RoundStatus::Continue
        }
    }

    fn reset(&mut self, id: ProcessId, config: &RunConfig) -> bool {
        self.params = Params::from_config(config);
        self.me = id;
        self.input = (id == config.source).then_some(config.source_value);
        self.accepted.clear();
        self.outbox.clear();
        self.quiet = false;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use sg_sim::sig::SigRegistry;
    use sg_sim::ValueDomain;
    use std::sync::Arc;

    fn params(n: usize, t: usize) -> Params {
        Params {
            n,
            t,
            source: ProcessId(0),
            domain: ValueDomain::binary(),
        }
    }

    fn ctx_with_sigs(me: ProcessId, reg: &Arc<Mutex<SigRegistry>>) -> ProcCtx {
        ProcCtx::new(me).with_sigs(reg.clone())
    }

    #[test]
    fn accepts_exactly_round_length_chains() {
        let reg = Arc::new(Mutex::new(SigRegistry::new()));
        let ds = DolevStrong::new(params(4, 2), ProcessId(2), None);
        let ctx = ctx_with_sigs(ProcessId(2), &reg);
        let r1 = reg.lock().originate(ProcessId(0), Value(1));
        assert!(ds.acceptable(&r1, 1, &ctx));
        assert!(!ds.acceptable(&r1, 2, &ctx));
        let r2 = reg.lock().extend(&r1, ProcessId(1)).unwrap();
        assert!(ds.acceptable(&r2, 2, &ctx));
    }

    #[test]
    fn rejects_chains_not_starting_at_source() {
        let reg = Arc::new(Mutex::new(SigRegistry::new()));
        let ds = DolevStrong::new(params(4, 2), ProcessId(2), None);
        let ctx = ctx_with_sigs(ProcessId(2), &reg);
        let bogus = reg.lock().originate(ProcessId(1), Value(1));
        assert!(!ds.acceptable(&bogus, 1, &ctx));
    }

    #[test]
    fn rejects_chains_containing_self() {
        let reg = Arc::new(Mutex::new(SigRegistry::new()));
        let ds = DolevStrong::new(params(4, 2), ProcessId(2), None);
        let ctx = ctx_with_sigs(ProcessId(2), &reg);
        let r1 = reg.lock().originate(ProcessId(0), Value(1));
        let r2 = reg.lock().extend(&r1, ProcessId(2)).unwrap();
        assert!(!ds.acceptable(&r2, 2, &ctx));
    }

    #[test]
    fn decide_prefers_unique_accepted_value() {
        let mut ds = DolevStrong::new(params(4, 2), ProcessId(1), None);
        let reg = Arc::new(Mutex::new(SigRegistry::new()));
        let mut ctx = ctx_with_sigs(ProcessId(1), &reg);
        assert_eq!(ds.decide(&mut ctx), Value::DEFAULT);
        ds.accepted.insert(Value(1));
        assert_eq!(ds.decide(&mut ctx), Value(1));
        ds.accepted.insert(Value(0));
        assert_eq!(ds.decide(&mut ctx), Value::DEFAULT);
    }
}
