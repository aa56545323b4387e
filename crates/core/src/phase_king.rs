//! Phase King baseline (Berman–Garay–Perry).
//!
//! The paper's §5 points to Berman, Garay & Perry's then-new agreement
//! algorithms as successors built on related fault-masking ideas. We
//! provide the classic *Phase King* protocol as a constant-message-size
//! baseline: after the source round, it runs `t+1` phases of two rounds
//! each; phase `k`'s designated king breaks ties. Resilience `n > 4t`
//! (i.e. `t ≤ ⌊(n−1)/4⌋`), messages of O(1) values.
//!
//! Adaptation to Byzantine *agreement* (broadcast): round 1 is the
//! source's broadcast; the received value seeds each processor's
//! consensus input, and validity follows from persistence (a unanimous
//! correct majority survives every phase).

use sg_sim::{
    Inbox, Payload, ProcCtx, ProcessId, Protocol, RoundStatus, RunConfig, TraceEvent, Value,
};

use crate::params::{phase_leader, Params};

/// One processor's Phase King instance.
///
/// Rounds: `1` (source broadcast), then for each phase `k ∈ 0..=t`:
/// round `2+2k` (everyone broadcasts its current value) and round `3+2k`
/// (the phase king — processor with id `k`, skipping the source — breaks
/// ties).
pub struct PhaseKing {
    params: Params,
    me: ProcessId,
    input: Option<Value>,
    current: Value,
    /// Plurality value and its count from the phase's first round.
    tally: Option<(Value, usize)>,
    /// Whether the last completed phase saw this processor's plurality
    /// backed by a super-majority (`count > n/2 + t`) — the condition
    /// under which it ignored the king. If *every* correct processor is
    /// super-majority-backed in the same phase they all back the same
    /// value (two values cannot each have more than `n/2` correct
    /// holders), so correct unanimity holds and, at `n > 4t`, persists
    /// through every later phase: the decision is final and the engine
    /// may stop the run.
    stable: bool,
}

impl PhaseKing {
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
        PhaseKing {
            params,
            me,
            input,
            current: Value::DEFAULT,
            tally: None,
            stable: false,
        }
    }

    /// The king of phase `k` (0-based): the `k`-th processor id, skipping
    /// the source so the source's round-1 influence is not doubled.
    fn king(&self, phase: usize) -> ProcessId {
        ProcessId(phase_leader(
            self.params.n,
            self.params.source.index(),
            phase,
        ))
    }

    /// Decomposes a round number into its role within the protocol.
    fn role(&self, round: usize) -> Role {
        if round == 1 {
            Role::SourceRound
        } else if round.is_multiple_of(2) {
            Role::Exchange
        } else {
            Role::KingRound {
                phase: (round - 3) / 2,
            }
        }
    }
}

enum Role {
    SourceRound,
    Exchange,
    KingRound { phase: usize },
}

impl Protocol for PhaseKing {
    fn total_rounds(&self) -> usize {
        1 + 2 * (self.params.t + 1)
    }

    fn outgoing(&mut self, ctx: &mut ProcCtx) -> Option<Payload> {
        match self.role(ctx.round) {
            Role::SourceRound => self.input.map(Payload::single),
            Role::Exchange => Some(Payload::single(self.current)),
            Role::KingRound { phase } => {
                let (maj, _) = self.tally.unwrap_or((Value::DEFAULT, 0));
                (self.king(phase) == self.me).then(|| Payload::single(maj))
            }
        }
    }

    fn deliver(&mut self, inbox: &Inbox, ctx: &mut ProcCtx) {
        let n = self.params.n;
        let domain = self.params.domain;
        match self.role(ctx.round) {
            Role::SourceRound => {
                self.current = match self.input {
                    Some(v) => v,
                    None => domain.sanitize(
                        inbox
                            .from(self.params.source)
                            .value_at(0)
                            .unwrap_or(Value::DEFAULT),
                    ),
                };
                ctx.charge(1);
                ctx.emit(TraceEvent::Preferred {
                    value: self.current,
                });
            }
            Role::Exchange => {
                // Tally everyone's value (own included); plurality with
                // smallest-value tie-break.
                if let Some(mut ballots) = inbox.ballots().filter(|_| domain.size() == 2) {
                    // Binary popcount fast path: everything that is not a
                    // readable 1 sanitizes to the default, so the zero
                    // count is n − ones and the smaller value wins ties.
                    ballots.clear(self.me);
                    ballots.record(self.me, self.current);
                    ctx.charge(n as u64);
                    let ones = ballots.ones.count_ones() as usize;
                    self.tally = Some(if ones > n - ones {
                        (Value(1), ones)
                    } else {
                        (Value(0), n - ones)
                    });
                } else {
                    let mut counts: Vec<(Value, usize)> = Vec::new();
                    for i in 0..n {
                        let v = if ProcessId(i) == self.me {
                            self.current
                        } else {
                            domain.sanitize(
                                inbox
                                    .from(ProcessId(i))
                                    .value_at(0)
                                    .unwrap_or(Value::DEFAULT),
                            )
                        };
                        match counts.iter_mut().find(|(u, _)| *u == v) {
                            Some((_, c)) => *c += 1,
                            None => counts.push((v, 1)),
                        }
                        ctx.charge(1);
                    }
                    counts.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
                    self.tally = counts.first().copied();
                }
            }
            Role::KingRound { phase } => {
                let king = self.king(phase);
                let (maj, count) = self.tally.take().unwrap_or((Value::DEFAULT, 0));
                let king_value = if king == self.me {
                    maj
                } else {
                    domain.sanitize(inbox.from(king).value_at(0).unwrap_or(Value::DEFAULT))
                };
                // Keep the plurality only with super-majority support.
                self.stable = count > n / 2 + self.params.t;
                self.current = if self.stable { maj } else { king_value };
                ctx.charge(1);
                ctx.emit(TraceEvent::Preferred {
                    value: self.current,
                });
            }
        }
    }

    fn decide(&mut self, ctx: &mut ProcCtx) -> Value {
        let value = match self.input {
            Some(v) => v,
            None => self.current,
        };
        ctx.emit(TraceEvent::Decided { value });
        value
    }

    /// Ready once the latest phase kept its value by super-majority (see
    /// the `stable` field's invariant); the source is always ready — it
    /// decides its own input.
    fn round_status(&self, _ctx: &ProcCtx) -> RoundStatus {
        if self.input.is_some() || self.stable {
            RoundStatus::ReadyToDecide
        } else {
            RoundStatus::Continue
        }
    }

    fn reset(&mut self, id: ProcessId, config: &RunConfig) -> bool {
        self.params = Params::from_config(config);
        self.me = id;
        self.input = (id == config.source).then_some(config.source_value);
        self.current = Value::DEFAULT;
        self.tally = None;
        self.stable = false;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sg_sim::ValueDomain;

    fn params(n: usize, t: usize) -> Params {
        Params {
            n,
            t,
            source: ProcessId(0),
            domain: ValueDomain::binary(),
        }
    }

    #[test]
    fn kings_skip_the_source_and_are_distinct() {
        let p = PhaseKing::new(params(9, 2), ProcessId(1), None);
        let kings: Vec<ProcessId> = (0..3).map(|k| p.king(k)).collect();
        assert_eq!(kings, vec![ProcessId(1), ProcessId(2), ProcessId(3)]);
    }

    #[test]
    fn round_count_is_1_plus_2_phases() {
        let p = PhaseKing::new(params(9, 2), ProcessId(1), None);
        assert_eq!(p.total_rounds(), 7);
    }

    #[test]
    fn source_round_seeds_current() {
        let mut p = PhaseKing::new(params(5, 1), ProcessId(2), None);
        let mut ctx = ProcCtx::new(ProcessId(2));
        ctx.round = 1;
        let mut inbox = Inbox::empty(5);
        inbox.set(ProcessId(0), Payload::values([Value(1)]));
        p.deliver(&inbox, &mut ctx);
        assert_eq!(p.current, Value(1));
    }

    #[test]
    fn super_majority_overrides_king() {
        let mut p = PhaseKing::new(params(5, 1), ProcessId(2), None);
        p.current = Value(1);
        let mut ctx = ProcCtx::new(ProcessId(2));
        // Exchange: everyone says 1 -> count 5 > n/2 + t = 3.
        ctx.round = 2;
        let mut inbox = Inbox::empty(5);
        for i in 0..5 {
            if i != 2 {
                inbox.set(ProcessId(i), Payload::values([Value(1)]));
            }
        }
        p.deliver(&inbox, &mut ctx);
        // King round: the king says 0, but the super-majority wins.
        ctx.round = 3;
        let mut inbox = Inbox::empty(5);
        inbox.set(p.king(0), Payload::values([Value(0)]));
        p.deliver(&inbox, &mut ctx);
        assert_eq!(p.current, Value(1));
    }

    #[test]
    fn king_breaks_weak_plurality() {
        let mut p = PhaseKing::new(params(5, 1), ProcessId(2), None);
        p.current = Value(1);
        let mut ctx = ProcCtx::new(ProcessId(2));
        ctx.round = 2;
        let mut inbox = Inbox::empty(5);
        inbox.set(ProcessId(0), Payload::values([Value(0)]));
        inbox.set(ProcessId(1), Payload::values([Value(0)]));
        inbox.set(ProcessId(3), Payload::values([Value(1)]));
        inbox.set(ProcessId(4), Payload::values([Value(0)]));
        p.deliver(&inbox, &mut ctx);
        // Plurality 0 with count 3, not > 3: king decides.
        ctx.round = 3;
        let mut inbox = Inbox::empty(5);
        inbox.set(p.king(0), Payload::values([Value(1)]));
        p.deliver(&inbox, &mut ctx);
        assert_eq!(p.current, Value(1));
    }
}
