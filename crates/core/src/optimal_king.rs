//! The king family's phase machine (Berman, Garay & Perry).
//!
//! The paper's §5 names the king protocols — constant-size messages, a
//! leader tie-break per phase — as the natural successors to shifting.
//! The family is one rule, stated once here and run by [`KingCore`]: per
//! phase, an all-to-all exchange of current values, a threshold that lets
//! a processor *lock* the value it saw a super-majority for, and a round
//! in which the phase's leader (the *king*) speaks and every unlocked
//! processor adopts what it says. [`KingRow`] is the rule table:
//!
//! | row | resilience | rounds of a phase | a value is strong at | lock |
//! |---|---|---|---|---|
//! | [`KingRow::ThreeRound`] | `n > 3t` | exchange → propose → king | `n − t`: it is *proposed* | `n − t` equal proposals (adopt at `t + 1`) |
//! | [`KingRow::TwoRound`] | `n > 4t` | exchange → king | `⌊n/2⌋ + t + 1` | at once, in the exchange |
//!
//! The two-round phase is the three-round phase without its propose
//! round: the exchange tally adopts the plurality and locks it when it is
//! strong, after which "the king broadcasts its value, unlocked
//! processors adopt it" is the same step in both rows.
//!
//! # The three-round phase
//!
//! 1. **Exchange** — broadcast the current value `v`. If some value `w`
//!    appears at least `n − t` times among the `n` received values (own
//!    included), propose `w`; otherwise propose `⊥`. Two correct
//!    processors can never propose different non-`⊥` values: each
//!    proposal is backed by at least `n − 2t` *correct* holders, and
//!    `2(n − 2t) > n − t` when `n > 3t`, so the backing sets intersect in
//!    a correct processor.
//! 2. **Propose** — broadcast the proposal (`⊥` encoded as an
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
//! # The two-round phase
//!
//! The exchange tally's plurality `w` becomes the current value, locked
//! when its count exceeds `n/2 + t`: then more than `n/2` *correct*
//! processors hold `w`, so no other value can be locked by anyone, a
//! correct king's own plurality is `w`, and at `n > 4t` unanimity persists
//! through every later phase. What the king broadcasts is therefore its
//! tally plurality, not the value it entered the phase with — a stale
//! value would let a locked processor and the king's followers part ways.
//!
//! On a binary domain this row is both `phase-king` and `phase-queen`:
//! Berman & Garay's queen keeps bit `b` on `2·count(b) > n + 2t`, which is
//! `count(b) ≥ ⌊n/2⌋ + t + 1`, and the queen too broadcasts her tally
//! majority (enforced by: `tests/king_fingerprints.rs`).
//!
//! The machine is exposed as [`KingCore`] so that the gear box
//! ([`crate::gearbox`]) can drive the same phases from a converted
//! information-gathering tree instead of a source broadcast — the paper's
//! §6 open question about shifting into foreign algorithms, answered
//! affirmatively for this family. [`crate::PhaseKing`] is the broadcast
//! protocol around it; `crate::phase_batch` is the same rule over lane
//! words.

use sg_sim::{Inbox, PackedBallots, Payload, ProcCtx, ProcessId, ProcessSet, TraceEvent, Value};

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
    /// Broadcast the current value.
    Exchange,
    /// Broadcast the `n − t`-supported proposal (or `⊥`); three-round
    /// phases only.
    Propose,
    /// The king broadcasts its value; unlocked processors adopt.
    King,
}

/// One row of the king family's rule table (see the module docs).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum KingRow {
    /// `n > 3t`: exchange → propose → king, thresholds `n − t` / `t + 1`
    /// (`optimal-king`, and every king tail of a gear shift).
    ThreeRound,
    /// `n > 4t`: exchange → king, threshold `⌊n/2⌋ + t + 1`
    /// (`phase-king`, `phase-queen`).
    TwoRound,
}

impl KingRow {
    /// The rounds of one phase, in order.
    pub fn steps(self) -> &'static [PhaseStep] {
        match self {
            KingRow::ThreeRound => &[PhaseStep::Exchange, PhaseStep::Propose, PhaseStep::King],
            KingRow::TwoRound => &[PhaseStep::Exchange, PhaseStep::King],
        }
    }

    /// The exchange count — always more than `n/2` — at which a value is
    /// *strong*: proposed by the three-round row, locked by the two-round
    /// row.
    pub fn strong_at(self, n: usize, t: usize) -> usize {
        match self {
            KingRow::ThreeRound => n - t,
            KingRow::TwoRound => n / 2 + t + 1,
        }
    }

    /// The (phase, step) of round `i`, 0-based, of a run of phases.
    pub fn locate(self, i: usize) -> (usize, PhaseStep) {
        // Per row, so that each divisor is a constant: every kernel hook
        // asks this every round.
        match self {
            KingRow::ThreeRound => (i / 3, self.steps()[i % 3]),
            KingRow::TwoRound => (i / 2, self.steps()[i % 2]),
        }
    }
}

/// The state machine of one processor's king phases.
///
/// Drive it with ([`KingCore::outgoing`], [`KingCore::deliver`]) once per
/// engine round, passing the phase number and [`PhaseStep`]
/// ([`KingRow::locate`] maps a round to them). The embedding protocol
/// decides how the initial value is seeded (source broadcast in
/// [`crate::PhaseKing`], converted tree root in the gear box) and where
/// the phases start.
pub struct KingCore {
    params: Params,
    me: ProcessId,
    row: KingRow,
    current: Value,
    /// This processor's proposal from the exchange step (`None` = `⊥`).
    proposal: Option<Value>,
    locked: bool,
    /// Whether the latest phase locked. Unlike `locked` (which the king
    /// step consumes and clears), this flag survives to the end of the
    /// phase: it is the early-stopping signal. If *every* correct
    /// processor locked in the same phase they locked on the same value
    /// (correct non-`⊥` proposals agree; two values cannot each have more
    /// than `n/2` correct holders), so correct unanimity holds and
    /// persists through every later phase — the decision is final and the
    /// engine may stop. Published at the propose round of a three-round
    /// phase and at the king round of a two-round phase.
    ready: bool,
    /// Processors whose messages are masked to `⊥`/default — the paper's
    /// auxiliary fault list carried across a shift (empty unless the
    /// embedding protocol seeds it).
    masked: ProcessSet,
}

impl KingCore {
    /// A three-round core for processor `me` starting from the default
    /// value.
    pub fn new(params: Params, me: ProcessId) -> Self {
        KingCore::with_row(params, me, KingRow::ThreeRound)
    }

    /// A core running `row`'s phases.
    pub fn with_row(params: Params, me: ProcessId, row: KingRow) -> Self {
        KingCore {
            params,
            me,
            row,
            current: Value::DEFAULT,
            proposal: None,
            locked: false,
            ready: false,
            masked: ProcessSet::new(params.n),
        }
    }

    /// Restores the core to its just-constructed state for processor
    /// `me` (the row stays), reusing the masked-set storage when `n` is
    /// unchanged (the instance-pool path).
    pub fn reset(&mut self, params: Params, me: ProcessId) {
        self.params = params;
        self.me = me;
        self.current = Value::DEFAULT;
        self.proposal = None;
        self.locked = false;
        self.ready = false;
        if self.masked.universe() == params.n {
            self.masked.clear();
        } else {
            self.masked = ProcessSet::new(params.n);
        }
    }

    /// The rule row this core runs.
    pub fn row(&self) -> KingRow {
        self.row
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

    /// The early-stopping signal: whether the latest phase locked.
    /// Embedding protocols forward this from
    /// [`sg_sim::Protocol::round_status`]; the engine's all-correct
    /// conjunction makes it sound (see the `ready` field).
    pub fn is_ready(&self) -> bool {
        self.ready
    }

    /// Masks `who`: all further messages from it are read as `⊥`/default.
    ///
    /// This is the Fault Masking Rule carried across a shift: faults
    /// globally detected by the tree algorithm stay masked in the king
    /// phases.
    pub fn mask(&mut self, who: ProcessId) {
        self.masked.insert(who);
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
    /// Built with [`Payload::single`], so binary values allocate nothing
    /// (the `⊥` sentinel is a one-element vector).
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

    /// Tallies one round's single-value broadcasts over all `n` slots,
    /// `own` standing in the self slot: the plurality value (the smaller
    /// one on a tie) and its count. A slot that cannot be read counts as
    /// `unreadable` — the default value in an exchange (the paper's
    /// convention for absent and garbled messages), `None` in a propose
    /// round, where it is `⊥` and counts for no value.
    fn tally(
        &self,
        inbox: &Inbox,
        own: Option<Value>,
        unreadable: Option<Value>,
        ctx: &mut ProcCtx,
    ) -> (Value, usize) {
        let n = self.params.n;
        if let Some(mut ballots) = self.masked_ballots(inbox) {
            // Binary popcount fast path: with a default, everything that
            // is not a readable 1 lands on it, so zeros = n − ones.
            if let Some(v) = own {
                ballots.record(self.me, v);
            }
            ctx.charge(n as u64);
            let ones = ballots.ones.count_ones() as usize;
            let zeros = match unreadable {
                Some(_) => n - ones,
                None => ballots.zeros.count_ones() as usize,
            };
            return if ones > zeros {
                (Value(1), ones)
            } else {
                (Value(0), zeros)
            };
        }
        let mut counts = vec![0usize; self.params.domain.size() as usize];
        for i in 0..n {
            let sent = if ProcessId(i) == self.me {
                own
            } else {
                self.read(inbox, ProcessId(i))
            };
            if let Some(v) = sent.or(unreadable) {
                counts[v.raw() as usize] += 1;
            }
            ctx.charge(1);
        }
        let (top, &c) = counts
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
            .expect("domain has at least two values");
        (Value(top as u16), c)
    }

    /// Consumes one round's inbox for `step` of `phase`.
    pub fn deliver(&mut self, phase: usize, step: PhaseStep, inbox: &Inbox, ctx: &mut ProcCtx) {
        let (n, t) = (self.params.n, self.params.t);
        match step {
            PhaseStep::Exchange => {
                let (top, c) = self.tally(inbox, Some(self.current), Some(Value::DEFAULT), ctx);
                let strong = c >= self.row.strong_at(n, t);
                match self.row {
                    KingRow::ThreeRound => self.proposal = strong.then_some(top),
                    KingRow::TwoRound => {
                        self.current = top;
                        self.locked = strong;
                    }
                }
            }
            PhaseStep::Propose => {
                let (top, c) = self.tally(inbox, self.proposal, None, ctx);
                self.locked = c >= n - t;
                self.current = if c > t { top } else { Value::DEFAULT };
                self.ready = self.locked;
            }
            PhaseStep::King => {
                if self.row == KingRow::TwoRound {
                    // The lock was taken at the exchange tally; it is
                    // published here, a round later (ROADMAP item 1(a)).
                    self.ready = self.locked;
                }
                if !self.locked {
                    let king = self.king(phase);
                    if king != self.me {
                        self.current = self.read(inbox, king).unwrap_or(Value::DEFAULT);
                    }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phase_king::PhaseKing;
    use sg_sim::{Protocol, ValueDomain};

    fn three_round(n: usize, t: usize, me: usize) -> PhaseKing {
        PhaseKing::new(params(n, t), ProcessId(me), None, KingRow::ThreeRound)
    }

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
        assert!(core.locked);
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
        assert!(!core.locked);
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
        assert!(!core.locked);
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
        assert!(!core.locked);
    }

    #[test]
    fn total_rounds_is_3t_plus_4() {
        assert_eq!(three_round(7, 2, 1).total_rounds(), 10);
    }

    #[test]
    fn source_round_seeds_core() {
        let mut p = three_round(4, 1, 2);
        let mut ctx = ProcCtx::new(ProcessId(2));
        ctx.round = 1;
        let mut inbox = Inbox::empty(4);
        inbox.set(ProcessId(0), Payload::values([Value(1)]));
        p.deliver(&inbox, &mut ctx);
        assert_eq!(p.core().current(), Value(1));
    }

    #[test]
    fn only_king_speaks_in_king_round() {
        let mut p = three_round(4, 1, 2);
        let mut ctx = ProcCtx::new(ProcessId(2));
        // Round 4 is phase 0's king step; the phase-0 king is P1.
        ctx.round = 4;
        assert_eq!(p.outgoing(&mut ctx), None);
        let mut k = three_round(4, 1, 1);
        let mut ctx = ProcCtx::new(ProcessId(1));
        ctx.round = 4;
        assert!(k.outgoing(&mut ctx).is_some());
    }
}
