//! Phase Queen baseline (Berman & Garay).
//!
//! The companion of [`crate::phase_king`] from the same line of work the
//! paper's §5 surveys. Phase Queen also runs `t+1` two-round phases after
//! the source round, but replaces the plurality-with-proof rule by a pure
//! *threshold* rule on binary values: keep your value only if more than
//! `n/2 + t` processors reported it, otherwise adopt the phase queen's.
//! Resilience `n > 4t`, messages of one value.
//!
//! Including both variants lets the benchmark suite compare two
//! constant-message-size designs against the paper's tree-based
//! algorithms. The queen protocol is binary-valued by construction; the
//! [`crate::multivalued`] reduction lifts it to larger domains.

use sg_sim::{
    Inbox, Payload, ProcCtx, ProcessId, Protocol, RoundStatus, RunConfig, TraceEvent, Value,
};

use crate::params::{phase_leader, Params};

/// One processor's Phase Queen instance (binary domain).
pub struct PhaseQueen {
    params: Params,
    me: ProcessId,
    input: Option<Value>,
    current: Value,
    /// Count of `1` reports in the current phase's first round.
    ones: usize,
    /// Whether the last completed phase crossed the super-threshold
    /// (`2·count > n + 2t` for either bit), overriding the queen. If
    /// every correct processor crosses it in the same phase they cross
    /// it for the same bit (each implies more than `n/2` *correct*
    /// holders), so correct unanimity holds and, at `n > 4t`, persists
    /// through every later phase: the decision is final.
    stable: bool,
}

impl PhaseQueen {
    /// Builds an instance for processor `me`. `input` must be `Some`
    /// exactly when `me` is the source.
    ///
    /// # Panics
    ///
    /// Panics if the input/source relationship is violated or the domain
    /// is not binary (lift with [`crate::multivalued`] instead).
    pub fn new(params: Params, me: ProcessId, input: Option<Value>) -> Self {
        assert_eq!(
            input.is_some(),
            me == params.source,
            "exactly the source carries an input"
        );
        assert_eq!(
            params.domain.size(),
            2,
            "Phase Queen is binary; lift with the multivalued reduction"
        );
        PhaseQueen {
            params,
            me,
            input,
            current: Value::DEFAULT,
            ones: 0,
            stable: false,
        }
    }

    /// The queen of phase `k` (0-based): the `k`-th processor id skipping
    /// the source.
    fn queen(&self, phase: usize) -> ProcessId {
        ProcessId(phase_leader(
            self.params.n,
            self.params.source.index(),
            phase,
        ))
    }
}

impl Protocol for PhaseQueen {
    fn total_rounds(&self) -> usize {
        1 + 2 * (self.params.t + 1)
    }

    fn outgoing(&mut self, ctx: &mut ProcCtx) -> Option<Payload> {
        let round = ctx.round;
        if round == 1 {
            return self.input.map(Payload::single);
        }
        if round.is_multiple_of(2) {
            // Exchange round.
            Some(Payload::single(self.current))
        } else {
            // Queen round: only the queen speaks, sending the majority
            // bit of her exchange tally. (Sending a stale value instead
            // breaks consistency: a processor that keeps its value by the
            // threshold rule needs the queen's broadcast to agree with
            // the super-majority it saw.)
            let phase = (round - 3) / 2;
            let majority = Value(u16::from(2 * self.ones > self.params.n));
            (self.queen(phase) == self.me).then(|| Payload::single(majority))
        }
    }

    fn deliver(&mut self, inbox: &Inbox, ctx: &mut ProcCtx) {
        let n = self.params.n;
        let t = self.params.t;
        let domain = self.params.domain;
        let round = ctx.round;
        if round == 1 {
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
            return;
        }
        if round.is_multiple_of(2) {
            // Tally ones (own value included).
            if let Some(mut ballots) = inbox.ballots() {
                // Binary popcount fast path (the queen domain is always
                // binary): anything unreadable sanitizes to the default
                // and never counts as a one.
                ballots.clear(self.me);
                ballots.record(self.me, self.current);
                ctx.charge(n as u64);
                self.ones = ballots.ones.count_ones() as usize;
            } else {
                self.ones = 0;
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
                    if v == Value(1) {
                        self.ones += 1;
                    }
                    ctx.charge(1);
                }
            }
        } else {
            let phase = (round - 3) / 2;
            let queen = self.queen(phase);
            let queen_value = if queen == self.me {
                Value(u16::from(2 * self.ones > n))
            } else {
                domain.sanitize(inbox.from(queen).value_at(0).unwrap_or(Value::DEFAULT))
            };
            // Threshold rule: a super-majority for either bit overrides
            // the queen; otherwise her value wins the phase. Exact
            // integer arithmetic (2·count > n + 2t) avoids floor issues.
            self.current = if 2 * self.ones > n + 2 * t {
                Value(1)
            } else if 2 * (n - self.ones) > n + 2 * t {
                Value(0)
            } else {
                queen_value
            };
            self.stable = 2 * self.ones > n + 2 * t || 2 * (n - self.ones) > n + 2 * t;
            ctx.charge(1);
            ctx.emit(TraceEvent::Preferred {
                value: self.current,
            });
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

    /// Ready once the latest phase crossed the super-threshold (see the
    /// `stable` field's invariant); the source is always ready — it
    /// decides its own input.
    fn round_status(&self, _ctx: &ProcCtx) -> RoundStatus {
        if self.input.is_some() || self.stable {
            RoundStatus::ReadyToDecide
        } else {
            RoundStatus::Continue
        }
    }

    fn reset(&mut self, id: ProcessId, config: &RunConfig) -> bool {
        if config.domain.size() != 2 {
            // Phase Queen is binary-only; let the factory surface the
            // constructor's domain assertion instead of resetting.
            return false;
        }
        self.params = Params::from_config(config);
        self.me = id;
        self.input = (id == config.source).then_some(config.source_value);
        self.current = Value::DEFAULT;
        self.ones = 0;
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
    fn round_count_matches_phase_king() {
        let q = PhaseQueen::new(params(9, 2), ProcessId(1), None);
        assert_eq!(q.total_rounds(), 7);
    }

    #[test]
    #[should_panic(expected = "binary")]
    fn non_binary_domain_rejected() {
        let p = Params {
            domain: ValueDomain::new(3),
            ..params(9, 2)
        };
        let _ = PhaseQueen::new(p, ProcessId(1), None);
    }

    #[test]
    fn threshold_overrides_queen() {
        let mut q = PhaseQueen::new(params(5, 1), ProcessId(2), None);
        q.current = Value(1);
        let mut ctx = ProcCtx::new(ProcessId(2));
        // Exchange: everyone says 1 -> ones = 5 > n/2 + t = 3.
        ctx.round = 2;
        let mut inbox = Inbox::empty(5);
        for i in 0..5 {
            if i != 2 {
                inbox.set(ProcessId(i), Payload::values([Value(1)]));
            }
        }
        q.deliver(&inbox, &mut ctx);
        ctx.round = 3;
        let mut inbox = Inbox::empty(5);
        inbox.set(q.queen(0), Payload::values([Value(0)]));
        q.deliver(&inbox, &mut ctx);
        // ones = 5 > (n + 2t)/2 = 3.5: threshold overrides the queen.
        assert_eq!(q.current, Value(1));
    }

    #[test]
    fn queen_decides_close_splits() {
        let mut q = PhaseQueen::new(params(5, 1), ProcessId(2), None);
        q.current = Value(1);
        let mut ctx = ProcCtx::new(ProcessId(2));
        ctx.round = 2;
        let mut inbox = Inbox::empty(5);
        inbox.set(ProcessId(0), Payload::values([Value(0)]));
        inbox.set(ProcessId(1), Payload::values([Value(0)]));
        inbox.set(ProcessId(3), Payload::values([Value(1)]));
        inbox.set(ProcessId(4), Payload::values([Value(0)]));
        q.deliver(&inbox, &mut ctx);
        // ones = 2, zeros = 3: neither beats n/2 + t = 3 strictly.
        ctx.round = 3;
        let mut inbox = Inbox::empty(5);
        inbox.set(q.queen(0), Payload::values([Value(1)]));
        q.deliver(&inbox, &mut ctx);
        assert_eq!(q.current, Value(1));
    }
}
