//! Optimally resilient Phase King (three rounds per phase, `n > 3t`).
//!
//! The paper's §5 surveys the successor literature — Berman, Garay &
//! Perry's king-based protocols with constant-size messages — as the
//! natural follow-on to shifting. [`PhaseKing`](crate::phase_king::PhaseKing)
//! is the classic two-round-per-phase variant, which needs `n > 4t`. This
//! module provides the *optimally resilient* member of that family: three
//! rounds per phase (exchange, proposal exchange, king tie-break) achieve
//! `n > 3t` — the same resilience as Algorithm A and the hybrid — still
//! with O(1)-value messages.
//!
//! # Per-phase structure
//!
//! Each processor holds a current value `v`. A phase runs three rounds:
//!
//! 1. **Exchange** — broadcast `v`. If some value `w` appears at least
//!    `n − t` times among the `n` received values (own included), propose
//!    `w`; otherwise propose `⊥`. Two correct processors can never propose
//!    different non-`⊥` values: each proposal is backed by at least
//!    `n − 2t` *correct* holders, and `2(n − 2t) > n − t` when `n > 3t`,
//!    so the backing sets intersect in a correct processor.
//! 2. **Proposal exchange** — broadcast the proposal (`⊥` encoded as an
//!    out-of-domain value; receivers treat any out-of-domain content as
//!    `⊥`). Let `top` be the most frequent non-`⊥` proposal received and
//!    `c` its count. If `c ≥ n − t`, adopt `top` and *lock* (the king is
//!    ignored); if `c ≥ t + 1`, adopt `top` unlocked; otherwise fall back
//!    to the default value unlocked. Because correct non-`⊥` proposals
//!    agree, any count `≥ t + 1` identifies the *unique* correct proposal
//!    value.
//! 3. **King** — the phase king broadcasts its post-step-2 value; unlocked
//!    processors adopt it.
//!
//! If all correct processors start a phase with the same value they all
//! lock on it (persistence); if the phase king is correct the phase ends
//! with all correct processors unanimous. With `t + 1` phases under
//! distinct kings, at least one king is correct, so agreement always
//! holds; validity follows from persistence seeded by the source round.
//!
//! The phase machinery is exposed as [`KingCore`] so that the
//! shift-into-king hybrid ([`crate::king_shift`]) can drive the same
//! phases from a converted information-gathering tree instead of a source
//! broadcast — the paper's §6 open question about shifting into foreign
//! algorithms, answered affirmatively for this family.

use sg_sim::{
    Inbox, PackedBallots, Payload, ProcCtx, ProcessId, ProcessSet, Protocol, RoundStatus,
    RunConfig, TraceEvent, Value,
};

use crate::params::{phase_leader, Params};

/// The out-of-domain sentinel used on the wire for a `⊥` proposal.
///
/// Receivers do not trust the sentinel itself: *any* out-of-domain value
/// (including a garbled or missing message) is read as `⊥`, so a Byzantine
/// sender gains nothing by malforming proposals.
pub const BOT_WIRE: Value = Value(u16::MAX);

/// Which round of a phase a [`KingCore`] is executing.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PhaseStep {
    /// Round 1 of the phase: broadcast the current value.
    Exchange,
    /// Round 2: broadcast the `n − t`-supported proposal (or `⊥`).
    Propose,
    /// Round 3: the king broadcasts its value; unlocked processors adopt.
    King,
}

impl PhaseStep {
    /// The step for 0-based round-within-phase `i ∈ {0, 1, 2}`.
    ///
    /// # Panics
    ///
    /// Panics if `i > 2`.
    pub fn from_index(i: usize) -> Self {
        match i {
            0 => PhaseStep::Exchange,
            1 => PhaseStep::Propose,
            2 => PhaseStep::King,
            _ => panic!("phase steps are 0, 1, 2; got {i}"),
        }
    }
}

/// The state machine of one processor's three-round king phases.
///
/// Drive it with ([`KingCore::outgoing`], [`KingCore::deliver`]) once per
/// engine round, passing the phase number and [`PhaseStep`]. The embedding
/// protocol decides how the initial value is seeded (source broadcast in
/// [`OptimalKing`], converted tree root in the shift-into-king hybrid) and
/// how rounds map to phases.
pub struct KingCore {
    params: Params,
    me: ProcessId,
    current: Value,
    /// This processor's proposal from the exchange step (`None` = `⊥`).
    proposal: Option<Value>,
    locked: bool,
    /// Whether the latest propose step locked. Unlike `locked` (which
    /// the king step consumes and clears), this flag survives to the end
    /// of the phase: it is the early-stopping signal. If *every* correct
    /// processor locked in the same propose step they locked on the same
    /// value (correct non-`⊥` proposals agree), so correct unanimity
    /// holds and persists through every later phase — the decision is
    /// final and the engine may stop right at that propose round.
    ready: bool,
    /// Processors whose messages are masked to `⊥`/default — the paper's
    /// auxiliary fault list carried across a shift (empty unless the
    /// embedding protocol seeds it).
    masked: ProcessSet,
    /// Completed phases whose propose step did not lock — the tail-side
    /// fault-evidence stream (a failed phase means the adversary kept
    /// correct processors from a super-majority, or the phase king was
    /// faulty), surfaced for gear-shifting policies via
    /// [`KingCore::failed_phases`].
    failed_phases: usize,
}

impl KingCore {
    /// A core for processor `me` starting from the default value.
    pub fn new(params: Params, me: ProcessId) -> Self {
        KingCore {
            params,
            me,
            current: Value::DEFAULT,
            proposal: None,
            locked: false,
            ready: false,
            masked: ProcessSet::new(params.n),
            failed_phases: 0,
        }
    }

    /// Restores the core to its just-constructed state for processor
    /// `me`, reusing the masked-set storage when `n` is unchanged (the
    /// instance-pool path).
    pub fn reset(&mut self, params: Params, me: ProcessId) {
        self.params = params;
        self.me = me;
        self.current = Value::DEFAULT;
        self.proposal = None;
        self.locked = false;
        self.ready = false;
        self.failed_phases = 0;
        if self.masked.universe() == params.n {
            self.masked.clear();
        } else {
            self.masked = ProcessSet::new(params.n);
        }
    }

    /// Sets the current value (seeding at a shift boundary or after the
    /// source round).
    pub fn set_current(&mut self, v: Value) {
        self.current = v;
    }

    /// The processor's current value.
    pub fn current(&self) -> Value {
        self.current
    }

    /// Whether the processor locked its value in the current phase.
    pub fn is_locked(&self) -> bool {
        self.locked
    }

    /// The early-stopping signal: whether the latest propose step
    /// locked. Embedding protocols forward this from
    /// [`sg_sim::Protocol::round_status`]; the engine's all-correct
    /// conjunction makes it sound (see the `ready` field).
    pub fn is_ready(&self) -> bool {
        self.ready
    }

    /// Completed phases whose propose step failed to lock at this
    /// processor — the king tail's accumulated fault evidence, the
    /// counterpart of the tree prefix's detection ledger for
    /// gear-shifting policies (`sg_core::gearbox`). Fault-free phases
    /// lock immediately, so a nonzero count certifies adversary
    /// interference (a blocked super-majority or a faulty king).
    pub fn failed_phases(&self) -> usize {
        self.failed_phases
    }

    /// Masks `who`: all further messages from it are read as `⊥`/default.
    ///
    /// This is the Fault Masking Rule carried across a shift: faults
    /// globally detected by the tree algorithm stay masked in the king
    /// phases.
    pub fn mask(&mut self, who: ProcessId) {
        self.masked.insert(who);
    }

    /// The set of masked processors.
    pub fn masked(&self) -> &ProcessSet {
        &self.masked
    }

    /// The king of 0-based `phase`: the `phase`-th processor id, skipping
    /// the source (whose round-1 influence is not doubled).
    ///
    /// # Panics
    ///
    /// Panics if `phase ≥ n − 1` — there are only `n − 1` non-source kings.
    pub fn king(&self, phase: usize) -> ProcessId {
        assert!(
            phase < self.params.n - 1,
            "phase {phase} exceeds the {} available kings",
            self.params.n - 1
        );
        ProcessId(phase_leader(
            self.params.n,
            self.params.source.index(),
            phase,
        ))
    }

    /// The payload to broadcast for `step` of `phase` (`None` = silent).
    ///
    /// Built with [`Payload::single`], so binary values and the `⊥`
    /// sentinel allocate nothing on their way to the interned shared
    /// payloads.
    pub fn outgoing(&mut self, phase: usize, step: PhaseStep) -> Option<Payload> {
        match step {
            PhaseStep::Exchange => Some(Payload::single(self.current)),
            PhaseStep::Propose => Some(Payload::single(self.proposal.unwrap_or(BOT_WIRE))),
            PhaseStep::King => (self.king(phase) == self.me).then(|| Payload::single(self.current)),
        }
    }

    /// Reads the single value `sender` sent, or `None` when the message is
    /// absent, malformed, out of domain, or the sender is masked.
    fn read(&self, inbox: &Inbox, sender: ProcessId) -> Option<Value> {
        if self.masked.contains(sender) {
            return None;
        }
        let v = inbox.from(sender).value_at(0)?;
        self.params.domain.contains(v).then_some(v)
    }

    /// The engine's packed-ballot view with this core's own fault masks
    /// and self slot applied — `None` when the view is absent or the
    /// domain is not binary (fall back to per-payload reads). Masked
    /// senders are cleared from both masks, exactly mirroring
    /// [`KingCore::read`] returning `None` for them.
    fn masked_ballots(&self, inbox: &Inbox) -> Option<PackedBallots> {
        if self.params.domain.size() != 2 {
            return None;
        }
        let mut ballots = inbox.ballots()?;
        if !self.masked.is_empty() {
            for p in self.masked.iter() {
                ballots.clear(p);
            }
        }
        ballots.clear(self.me);
        Some(ballots)
    }

    /// Consumes one round's inbox for `step` of `phase`.
    pub fn deliver(&mut self, phase: usize, step: PhaseStep, inbox: &Inbox, ctx: &mut ProcCtx) {
        let n = self.params.n;
        let t = self.params.t;
        match step {
            PhaseStep::Exchange => {
                // Count every processor's value; absent/garbled messages
                // count as the default value per the paper's convention.
                if let Some(mut ballots) = self.masked_ballots(inbox) {
                    // Binary popcount fast path: ones via `count_ones`;
                    // everything else (zeros, ⊥, masked, garbled) lands
                    // on the default, so zeros = n − ones.
                    ballots.record(self.me, self.current);
                    ctx.charge(n as u64);
                    let ones = ballots.ones.count_ones() as usize;
                    self.proposal = if n - ones >= n - t {
                        Some(Value(0))
                    } else if ones >= n - t {
                        Some(Value(1))
                    } else {
                        None
                    };
                } else {
                    let mut counts = vec![0usize; self.params.domain.size() as usize];
                    for i in 0..n {
                        let v = if ProcessId(i) == self.me {
                            self.current
                        } else {
                            self.read(inbox, ProcessId(i)).unwrap_or(Value::DEFAULT)
                        };
                        counts[v.raw() as usize] += 1;
                        ctx.charge(1);
                    }
                    self.proposal = counts
                        .iter()
                        .position(|&c| c >= n - t)
                        .map(|i| Value(i as u16));
                }
            }
            PhaseStep::Propose => {
                // Count non-⊥ proposals; anything unreadable is ⊥ and
                // counts for no value. Plurality with the smaller value
                // winning ties.
                let (top, c) = if let Some(mut ballots) = self.masked_ballots(inbox) {
                    if let Some(p) = self.proposal {
                        ballots.record(self.me, p);
                    }
                    ctx.charge(n as u64);
                    let count_1 = ballots.ones.count_ones() as usize;
                    let count_0 = ballots.zeros.count_ones() as usize;
                    if count_1 > count_0 {
                        (Value(1), count_1)
                    } else {
                        (Value(0), count_0)
                    }
                } else {
                    let mut counts = vec![0usize; self.params.domain.size() as usize];
                    for i in 0..n {
                        let prop = if ProcessId(i) == self.me {
                            self.proposal
                        } else {
                            self.read(inbox, ProcessId(i))
                        };
                        if let Some(v) = prop {
                            counts[v.raw() as usize] += 1;
                        }
                        ctx.charge(1);
                    }
                    let (top_raw, &c) = counts
                        .iter()
                        .enumerate()
                        .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
                        .expect("domain has at least two values");
                    (Value(top_raw as u16), c)
                };
                if c >= n - t {
                    self.current = top;
                    self.locked = true;
                } else if c > t {
                    self.current = top;
                    self.locked = false;
                } else {
                    self.current = Value::DEFAULT;
                    self.locked = false;
                }
                self.ready = self.locked;
            }
            PhaseStep::King => {
                if !self.locked {
                    let king = self.king(phase);
                    self.current = if king == self.me {
                        self.current
                    } else {
                        self.read(inbox, king).unwrap_or(Value::DEFAULT)
                    };
                }
                if !self.ready {
                    self.failed_phases += 1;
                }
                // Phase over: reset per-phase state.
                self.proposal = None;
                self.locked = false;
                ctx.charge(1);
                ctx.emit(TraceEvent::Preferred {
                    value: self.current,
                });
            }
        }
    }
}

/// One processor's instance of the optimally resilient Phase King
/// Byzantine-agreement protocol.
///
/// Rounds: `1` (source broadcast) followed by `t + 1` phases of three
/// rounds each, for `3t + 4` rounds total. Resilience `n > 3t`
/// (`t ≤ ⌊(n−1)/3⌋`) with messages of O(1) values — the optimal-resilience
/// counterpart of [`crate::phase_king::PhaseKing`].
///
/// Build through [`crate::AlgorithmSpec::OptimalKing`]:
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
pub struct OptimalKing {
    params: Params,
    input: Option<Value>,
    core: KingCore,
}

impl OptimalKing {
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
        OptimalKing {
            params,
            input,
            core: KingCore::new(params, me),
        }
    }

    /// Maps an engine round to (phase, step); round 1 is the source round.
    fn locate(&self, round: usize) -> Option<(usize, PhaseStep)> {
        if round == 1 {
            return None;
        }
        let i = round - 2;
        Some((i / 3, PhaseStep::from_index(i % 3)))
    }
}

impl Protocol for OptimalKing {
    fn total_rounds(&self) -> usize {
        1 + 3 * (self.params.t + 1)
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

    /// Ready once the latest propose step locked ([`KingCore::is_ready`]);
    /// the source is always ready — it decides its own input.
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

    fn deliver_exchange(core: &mut KingCore, values: &[Value]) {
        // Build an inbox where processor i sends values[i]; the core's own
        // slot is ignored (it uses its local state).
        let n = values.len();
        let mut inbox = Inbox::empty(n);
        for (i, &v) in values.iter().enumerate() {
            if ProcessId(i) != core.me {
                inbox.set(ProcessId(i), Payload::values([v]));
            }
        }
        let mut ctx = ProcCtx::new(core.me);
        core.deliver(0, PhaseStep::Exchange, &inbox, &mut ctx);
    }

    #[test]
    fn kings_are_distinct_and_skip_source() {
        let core = KingCore::new(params(7, 2), ProcessId(3));
        let kings: Vec<ProcessId> = (0..3).map(|k| core.king(k)).collect();
        assert_eq!(kings, vec![ProcessId(1), ProcessId(2), ProcessId(3)]);
    }

    #[test]
    #[should_panic(expected = "available kings")]
    fn king_phase_out_of_range_panics() {
        let core = KingCore::new(params(4, 1), ProcessId(1));
        let _ = core.king(3);
    }

    #[test]
    fn unanimous_exchange_proposes_that_value() {
        let mut core = KingCore::new(params(7, 2), ProcessId(1));
        core.set_current(Value(1));
        deliver_exchange(&mut core, &[Value(1); 7]);
        assert_eq!(core.proposal, Some(Value(1)));
    }

    #[test]
    fn split_exchange_proposes_bot() {
        let mut core = KingCore::new(params(7, 2), ProcessId(1));
        core.set_current(Value(1));
        // 4 ones (including own), 3 zeros: below n - t = 5.
        deliver_exchange(
            &mut core,
            &[
                Value(0),
                Value(1),
                Value(1),
                Value(1),
                Value(0),
                Value(0),
                Value(1),
            ],
        );
        assert_eq!(core.proposal, None);
    }

    #[test]
    fn garbled_exchange_values_count_as_default() {
        let mut core = KingCore::new(params(4, 1), ProcessId(1));
        core.set_current(Value(0));
        // Out-of-domain junk from 2 and a missing message from 3 both
        // count as the default 0, joining our own 0 and the source's 0.
        let mut inbox = Inbox::empty(4);
        inbox.set(ProcessId(0), Payload::values([Value(0)]));
        inbox.set(ProcessId(2), Payload::values([Value(999)]));
        let mut ctx = ProcCtx::new(ProcessId(1));
        core.deliver(0, PhaseStep::Exchange, &inbox, &mut ctx);
        assert_eq!(core.proposal, Some(Value(0)));
    }

    #[test]
    fn strong_proposal_count_locks() {
        let mut core = KingCore::new(params(4, 1), ProcessId(1));
        core.proposal = Some(Value(1));
        let mut inbox = Inbox::empty(4);
        for i in [0usize, 2, 3] {
            inbox.set(ProcessId(i), Payload::values([Value(1)]));
        }
        let mut ctx = ProcCtx::new(ProcessId(1));
        core.deliver(0, PhaseStep::Propose, &inbox, &mut ctx);
        assert!(core.is_locked());
        assert_eq!(core.current(), Value(1));
    }

    #[test]
    fn weak_proposal_count_adopts_unlocked() {
        let mut core = KingCore::new(params(4, 1), ProcessId(1));
        core.proposal = Some(Value(1));
        // Only one other proposal for 1 (count 2 = t + 1), rest ⊥.
        let mut inbox = Inbox::empty(4);
        inbox.set(ProcessId(0), Payload::values([Value(1)]));
        inbox.set(ProcessId(2), Payload::values([BOT_WIRE]));
        let mut ctx = ProcCtx::new(ProcessId(1));
        core.deliver(0, PhaseStep::Propose, &inbox, &mut ctx);
        assert!(!core.is_locked());
        assert_eq!(core.current(), Value(1));
    }

    #[test]
    fn all_bot_proposals_fall_back_to_default() {
        let mut core = KingCore::new(params(4, 1), ProcessId(1));
        core.proposal = None;
        core.set_current(Value(1));
        let inbox = Inbox::empty(4);
        let mut ctx = ProcCtx::new(ProcessId(1));
        core.deliver(0, PhaseStep::Propose, &inbox, &mut ctx);
        assert!(!core.is_locked());
        assert_eq!(core.current(), Value::DEFAULT);
    }

    #[test]
    fn unlocked_adopts_king_locked_ignores() {
        let p = params(4, 1);
        let mut unlocked = KingCore::new(p, ProcessId(2));
        unlocked.set_current(Value(0));
        unlocked.locked = false;
        let mut locked = KingCore::new(p, ProcessId(3));
        locked.set_current(Value(0));
        locked.locked = true;

        let king = unlocked.king(0);
        let mut inbox = Inbox::empty(4);
        inbox.set(king, Payload::values([Value(1)]));
        let mut ctx = ProcCtx::new(ProcessId(2));
        unlocked.deliver(0, PhaseStep::King, &inbox, &mut ctx);
        let mut ctx = ProcCtx::new(ProcessId(3));
        locked.deliver(0, PhaseStep::King, &inbox, &mut ctx);

        assert_eq!(unlocked.current(), Value(1));
        assert_eq!(locked.current(), Value(0));
    }

    #[test]
    fn masked_sender_reads_as_bot() {
        let mut core = KingCore::new(params(4, 1), ProcessId(1));
        core.mask(ProcessId(2));
        core.proposal = Some(Value(1));
        let mut inbox = Inbox::empty(4);
        inbox.set(ProcessId(0), Payload::values([Value(1)]));
        inbox.set(ProcessId(2), Payload::values([Value(1)]));
        inbox.set(ProcessId(3), Payload::values([BOT_WIRE]));
        let mut ctx = ProcCtx::new(ProcessId(1));
        core.deliver(0, PhaseStep::Propose, &inbox, &mut ctx);
        // Count for 1 is 2 (own + P0): the masked P2 does not count, so
        // the core adopts unlocked rather than locking with count 3.
        assert_eq!(core.current(), Value(1));
        assert!(!core.is_locked());
    }

    #[test]
    fn total_rounds_is_3t_plus_4() {
        let p = OptimalKing::new(params(7, 2), ProcessId(1), None);
        assert_eq!(p.total_rounds(), 10);
    }

    #[test]
    fn source_round_seeds_core() {
        let mut p = OptimalKing::new(params(4, 1), ProcessId(2), None);
        let mut ctx = ProcCtx::new(ProcessId(2));
        ctx.round = 1;
        let mut inbox = Inbox::empty(4);
        inbox.set(ProcessId(0), Payload::values([Value(1)]));
        p.deliver(&inbox, &mut ctx);
        assert_eq!(p.core.current(), Value(1));
    }

    #[test]
    fn only_king_speaks_in_king_round() {
        let mut p = OptimalKing::new(params(4, 1), ProcessId(2), None);
        let mut ctx = ProcCtx::new(ProcessId(2));
        // Round 4 is phase 0's king step; the phase-0 king is P1.
        ctx.round = 4;
        assert_eq!(p.outgoing(&mut ctx), None);
        let mut k = OptimalKing::new(params(4, 1), ProcessId(1), None);
        let mut ctx = ProcCtx::new(ProcessId(1));
        ctx.round = 4;
        assert!(k.outgoing(&mut ctx).is_some());
    }
}
