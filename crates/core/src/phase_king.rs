//! The king family as a Byzantine-*agreement* (broadcast) protocol.
//!
//! [`PhaseKing`] is the one [`Protocol`] behind `optimal-king`,
//! `phase-king` and `phase-queen`: round 1 is the source's broadcast, the
//! received value seeds each processor's [`KingCore`], and `t + 1` phases
//! of the spec's [`KingRow`] follow — three rounds each at `n > 3t`, two
//! at `n > 4t`. Validity follows from persistence (a unanimous correct
//! majority survives every phase), agreement from the one phase whose
//! king is correct.

use sg_sim::{
    Inbox, Payload, ProcCtx, ProcessId, Protocol, RoundStatus, RunConfig, TraceEvent, Value,
};

use crate::optimal_king::{KingCore, KingRow, PhaseStep};
use crate::params::Params;

/// One processor's instance of a king-family agreement protocol.
///
/// Rounds: `1` (source broadcast) followed by `t + 1` phases, for
/// `3t + 4` rounds on [`KingRow::ThreeRound`] (resilience
/// `t ≤ ⌊(n−1)/3⌋`) and `2t + 3` on [`KingRow::TwoRound`]
/// (`t ≤ ⌊(n−1)/4⌋`), with messages of O(1) values either way.
///
/// Build through [`crate::AlgorithmSpec::OptimalKing`],
/// [`crate::AlgorithmSpec::PhaseKing`] or
/// [`crate::AlgorithmSpec::PhaseQueen`]:
///
/// ```
/// use sg_core::{execute, AlgorithmSpec};
/// use sg_sim::{NoFaults, RunConfig, Value};
///
/// let config = RunConfig::new(10, 3).with_source_value(Value(1));
/// let outcome = execute(AlgorithmSpec::OptimalKing, &config, &mut NoFaults)?;
/// assert_eq!(outcome.decision(), Some(Value(1)));
/// assert_eq!(outcome.scheduled_rounds, 13); // 1 + 3·(t+1)
/// // Fault-free runs lock in the very first propose step and stop there
/// // (the expedite win; `RunConfig::fixed_length` asks for the full
/// // schedule instead).
/// assert_eq!(outcome.rounds_used, 3);
/// assert!(outcome.early_stopped);
/// # Ok::<(), sg_core::SpecError>(())
/// ```
pub struct PhaseKing {
    params: Params,
    input: Option<Value>,
    core: KingCore,
}

impl PhaseKing {
    /// Builds an instance for processor `me` running `row`'s phases.
    /// `input` must be `Some` exactly when `me` is the source.
    ///
    /// # Panics
    ///
    /// Panics if the input/source relationship is violated.
    pub fn new(params: Params, me: ProcessId, input: Option<Value>, row: KingRow) -> Self {
        assert_eq!(
            input.is_some(),
            me == params.source,
            "exactly the source carries an input"
        );
        PhaseKing {
            params,
            input,
            core: KingCore::with_row(params, me, row),
        }
    }

    /// The phase machine (inspection hook for tests).
    pub fn core(&self) -> &KingCore {
        &self.core
    }

    /// Maps an engine round to (phase, step); round 1 is the source round.
    fn locate(&self, round: usize) -> Option<(usize, PhaseStep)> {
        (round > 1).then(|| self.core.row().locate(round - 2))
    }
}

impl Protocol for PhaseKing {
    fn total_rounds(&self) -> usize {
        1 + self.core.row().steps().len() * (self.params.t + 1)
    }

    fn outgoing(&mut self, ctx: &mut ProcCtx) -> Option<Payload> {
        match self.locate(ctx.round) {
            None => self.input.map(Payload::single),
            Some((phase, step)) => self.core.outgoing(phase, step),
        }
    }

    fn deliver(&mut self, inbox: &Inbox, ctx: &mut ProcCtx) {
        match self.locate(ctx.round) {
            None => {
                let v = match self.input {
                    Some(v) => v,
                    None => self.params.domain.sanitize(
                        inbox
                            .from(self.params.source)
                            .value_at(0)
                            .unwrap_or(Value::DEFAULT),
                    ),
                };
                self.core.set_current(v);
                ctx.charge(1);
                ctx.emit(TraceEvent::Preferred { value: v });
            }
            Some((phase, step)) => self.core.deliver(phase, step, inbox, ctx),
        }
    }

    fn decide(&mut self, ctx: &mut ProcCtx) -> Value {
        let value = match self.input {
            Some(v) => v,
            None => self.core.current(),
        };
        ctx.emit(TraceEvent::Decided { value });
        value
    }

    /// Ready once the latest phase locked ([`KingCore::is_ready`]); the
    /// source is always ready — it decides its own input.
    fn round_status(&self, _ctx: &ProcCtx) -> RoundStatus {
        if self.input.is_some() || self.core.is_ready() {
            RoundStatus::ReadyToDecide
        } else {
            RoundStatus::Continue
        }
    }

    fn reset(&mut self, id: ProcessId, config: &RunConfig) -> bool {
        let params = Params::from_config(config);
        self.params = params;
        self.input = (id == config.source).then_some(config.source_value);
        self.core.reset(params, id);
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

    fn two_round(n: usize, t: usize, me: usize) -> PhaseKing {
        PhaseKing::new(params(n, t), ProcessId(me), None, KingRow::TwoRound)
    }

    /// One round's delivery to `p`: `(sender, value)` pairs, rest silent.
    fn deliver(p: &mut PhaseKing, round: usize, sent: &[(usize, u16)]) {
        let mut ctx = ProcCtx::new(ProcessId(2));
        ctx.round = round;
        let mut inbox = Inbox::empty(p.params.n);
        for &(i, v) in sent {
            inbox.set(ProcessId(i), Payload::values([Value(v)]));
        }
        p.deliver(&inbox, &mut ctx);
    }

    #[test]
    fn kings_skip_the_source_and_are_distinct() {
        let p = two_round(9, 2, 1);
        let kings: Vec<ProcessId> = (0..3).map(|k| p.core.king(k)).collect();
        assert_eq!(kings, vec![ProcessId(1), ProcessId(2), ProcessId(3)]);
    }

    #[test]
    fn round_count_is_1_plus_2_phases() {
        assert_eq!(two_round(9, 2, 1).total_rounds(), 7);
    }

    #[test]
    fn source_round_seeds_current() {
        let mut p = two_round(5, 1, 2);
        deliver(&mut p, 1, &[(0, 1)]);
        assert_eq!(p.core.current(), Value(1));
    }

    #[test]
    fn super_majority_overrides_king() {
        let mut p = two_round(5, 1, 2);
        p.core.set_current(Value(1));
        // Exchange: everyone says 1 -> count 5 > n/2 + t = 3.
        deliver(&mut p, 2, &[(0, 1), (1, 1), (3, 1), (4, 1)]);
        // The lock is taken here but published at the king round.
        assert_eq!(
            p.round_status(&ProcCtx::new(ProcessId(2))),
            RoundStatus::Continue
        );
        // King round: the king says 0, but the super-majority wins.
        deliver(&mut p, 3, &[(1, 0)]);
        assert_eq!(p.core.current(), Value(1));
        assert_eq!(
            p.round_status(&ProcCtx::new(ProcessId(2))),
            RoundStatus::ReadyToDecide
        );
    }

    #[test]
    fn king_breaks_weak_plurality() {
        let mut p = two_round(5, 1, 2);
        p.core.set_current(Value(1));
        deliver(&mut p, 2, &[(0, 0), (1, 0), (3, 1), (4, 0)]);
        // Plurality 0 with count 3, not > 3: it is not ready before the
        // king round and the king decides.
        assert_eq!(
            p.round_status(&ProcCtx::new(ProcessId(2))),
            RoundStatus::Continue
        );
        deliver(&mut p, 3, &[(1, 1)]);
        assert_eq!(p.core.current(), Value(1));
        assert_eq!(
            p.round_status(&ProcCtx::new(ProcessId(2))),
            RoundStatus::Continue
        );
    }
}
