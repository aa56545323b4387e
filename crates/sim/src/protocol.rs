//! The protocol interface and per-processor execution context.
//!
//! Every algorithm in the paper fits the same synchronous skeleton: each
//! round, a processor may broadcast one payload; the network then delivers
//! every peer's payload at once; after the final round the processor
//! decides. [`Protocol`] captures exactly that skeleton, and the engine in
//! [`crate::engine`] drives it.

use std::sync::Arc;

use parking_lot::Mutex;

use crate::engine::RunConfig;
use crate::id::ProcessId;
use crate::payload::Payload;
use crate::sig::{SigRegistry, SignedRelay};
use crate::trace::{Trace, TraceEntry, TraceEvent};
use crate::value::Value;

/// What a processor reports to the engine at the end of a round: whether
/// its decision is already final or the protocol must keep running.
///
/// The engine's early-stopping rule (see [`crate::engine`]) terminates a
/// run before its static schedule ends once **every correct** processor
/// reports [`RoundStatus::ReadyToDecide`] — faulty processors never gate
/// termination. A processor should report ready only when its
/// [`Protocol::decide`] value can no longer change *given that every other
/// correct processor is simultaneously ready*; the engine evaluates the
/// conjunction omnisciently, so per-processor hooks may rely on that
/// global context (e.g. "I locked this phase" is sound because all-locked
/// implies unanimity-forever in the king family).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum RoundStatus {
    /// The protocol must run its next scheduled round.
    #[default]
    Continue,
    /// This processor's decision is final; it can stop whenever every
    /// other correct processor is also ready.
    ReadyToDecide,
}

/// What a processor asks the engine to do next — the dynamic-schedule
/// counterpart of [`RoundStatus`], consulted once per round through
/// [`Protocol::next_action`].
///
/// The engine no longer drives a fixed `1..=total_rounds()` loop: after
/// every round it polls each *correct* processor and
///
/// * runs another round while any correct processor answers
///   [`GearAction::Round`];
/// * commits a gear shift — calling [`Protocol::shift_gear`] on **every**
///   instance, shadows of faulty processors included, so the schedule
///   stays common — when every correct processor answers
///   [`GearAction::ShiftGear`] in the same round;
/// * ends the run when every correct processor answers
///   [`GearAction::Finished`] (or when round `total_rounds()` completes,
///   the engine's hard schedule ceiling).
///
/// The default implementation replays the static schedule exactly
/// (`Round` until round `total_rounds()`, then `Finished`), so existing
/// protocols keep working unchanged — the same opt-in pattern as
/// [`Protocol::reset`] and [`Protocol::round_status`]. Like
/// `round_status`, the all-correct conjunction is evaluated omnisciently
/// by the engine: a processor may propose a shift from purely local
/// evidence because the shift only commits if every correct processor
/// simultaneously proposes it, and a non-committed proposal has no
/// effect (the current segment simply continues).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum GearAction {
    /// Run the next scheduled round of the current segment.
    #[default]
    Round,
    /// Local fault evidence justifies shifting into the protocol's next
    /// gear segment now; the engine commits the shift only on a
    /// unanimous correct-processor proposal.
    ShiftGear,
    /// The (possibly dynamically shortened) schedule is exhausted;
    /// nothing is left to run.
    Finished,
}

/// Bit-packed view of one round's single-value binary broadcasts, one bit
/// per sender: `ones` has sender `j`'s bit set iff `j`'s payload reads
/// `Value(1)` at position 0, `zeros` likewise for `Value(0)`. A sender in
/// neither mask sent nothing readable (missing, out-of-domain, or a `⊥`
/// sentinel) — exactly the cases receivers treat as `⊥`/default.
///
/// [`Inbox::ballots`] derives it for binary-domain rounds at `n ≤ 64`,
/// when a receiver asks, and receivers read it with word operations
/// instead of touching `n` payloads. It has two readers: the king family
/// tallies every round's majorities and thresholds with `count_ones()`,
/// and the tree machine (`sg_core::GearedProtocol`) stores its echo
/// rounds — the rounds in which every sender contributes one slot — from
/// `ones`. The masks are a *view* of the inbox contents, never an extra
/// source of truth: every protocol falls back to the payload slots when
/// they are absent, and the two paths are bit-identical (pinned against
/// `sg_sim::reference`, whose inboxes have no view, by
/// `tests/engine_identity.rs`; the view against the slots by
/// `tests/packed_ballots.rs`).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct PackedBallots {
    /// Senders whose payload reads `Value(1)` at position 0.
    pub ones: u64,
    /// Senders whose payload reads `Value(0)` at position 0.
    pub zeros: u64,
}

impl PackedBallots {
    /// Removes `sender` from both masks.
    #[inline]
    pub fn clear(&mut self, sender: ProcessId) {
        let m = !(1u64 << sender.index());
        self.ones &= m;
        self.zeros &= m;
    }

    /// Records `sender` as having sent the binary value `v`.
    ///
    /// # Panics
    ///
    /// Debug-asserts `v ∈ {0, 1}`.
    #[inline]
    pub fn record(&mut self, sender: ProcessId, v: Value) {
        debug_assert!(v.raw() <= 1, "ballots are binary");
        let m = 1u64 << sender.index();
        if v.raw() == 1 {
            self.ones |= m;
        } else {
            self.zeros |= m;
        }
    }
}

/// What a payload counts as in a [`PackedBallots`] view: its value at
/// position 0, if binary.
fn ballot(payload: &Payload) -> Option<Value> {
    payload.value_at(0).filter(|v| v.raw() <= 1)
}

/// [`Inbox::route`]: the slot reads the round's broadcast table.
pub(crate) const SENT: u32 = u32::MAX;
/// [`Inbox::route`]: the edge is cut this round; the slot reads missing.
pub(crate) const CUT: u32 = u32::MAX - 1;
/// [`Inbox::me`] of an inbox that belongs to no receiver.
const NOBODY: usize = usize::MAX;

/// One round's worth of received messages, indexed by sender.
///
/// The inbox owns the round: the broadcast table (moved in from every
/// [`Protocol::outgoing`]) and the faulty senders' rows (each overwritten
/// in place by one [`crate::Adversary::row`] call). An honest broadcast is stored
/// once however many recipients read it — EIG messages grow as `O(n^b)`
/// values — and nothing is reference-counted: the engine hands the same
/// inbox to every recipient and changes only who is reading.
///
/// [`Inbox::from`] resolves a slot by position: the receiver's own slot
/// is [`Payload::Missing`] (processors in this model never message
/// themselves; their own contribution is already in their local state), a
/// faulty sender's slot is its row's entry for the receiver, a cut edge
/// is missing, and every other slot is the sender's broadcast.
///
/// For the packed view ([`Inbox::ballots`]) the engine also stores the
/// round's base masks over the broadcast table, once per round; what
/// differs per receiver is added only when a receiver asks.
#[derive(Clone, Debug)]
pub struct Inbox {
    /// The round's broadcasts, by sender.
    pub(crate) sent: Vec<Option<Payload>>,
    /// Faulty senders' rows: `lies[k * n + r]` is what the `k`-th row's
    /// sender told recipient `r`. The sender's own slot is never read.
    pub(crate) lies: Vec<Payload>,
    /// The faulty senders, ascending: `liars[k]` sent row `k` of `lies`.
    pub(crate) liars: Vec<usize>,
    /// Per sender: [`SENT`], [`CUT`], or its row index in `lies`.
    pub(crate) route: Vec<u32>,
    /// The receiver, or [`NOBODY`].
    pub(crate) me: usize,
    /// Whether the round has a packed view: set by the engine for
    /// binary-domain rounds at `n ≤ 64`, cleared by [`Inbox::set`].
    pub(crate) pack: bool,
    /// Whether honest slots differ per receiver (cut edges): then the
    /// view is read off every slot, and `base` is empty.
    pub(crate) edge_faults: bool,
    /// The masks of the broadcast table's senders: what every receiver
    /// reads from an honest sender whose edge is not cut.
    pub(crate) base: PackedBallots,
}

impl Inbox {
    /// An inbox of `n` missing payloads, read by nobody in particular.
    pub fn empty(n: usize) -> Self {
        Inbox {
            sent: vec![None; n],
            lies: Vec::new(),
            liars: Vec::new(),
            route: vec![SENT; n],
            me: NOBODY,
            pack: false,
            edge_faults: false,
            base: PackedBallots::default(),
        }
    }

    /// System size.
    pub fn n(&self) -> usize {
        self.sent.len()
    }

    /// The payload received from `sender`.
    #[inline]
    pub fn from(&self, sender: ProcessId) -> &Payload {
        static MISSING: Payload = Payload::Missing;
        let q = sender.index();
        match self.route[q] {
            _ if q == self.me => &MISSING,
            SENT => self.sent[q].as_ref().unwrap_or(&MISSING),
            CUT => &MISSING,
            row => &self.lies[row as usize * self.sent.len() + self.me],
        }
    }

    /// Replaces the payload from `sender` (used by tests and by fault
    /// masking before interpretation). Drops any packed-ballot view,
    /// which would otherwise go stale.
    ///
    /// Setting the reader's own slot (on a clone of a delivered inbox)
    /// first resolves every slot into the broadcast table, so the inbox
    /// then reads the same for everyone and that slot holds `payload`.
    pub fn set(&mut self, sender: ProcessId, payload: Payload) {
        if sender.index() == self.me {
            self.sent = (0..self.n())
                .map(|q| Some(self.from(ProcessId(q)).clone()))
                .collect();
            self.lies.clear();
            self.route.fill(SENT);
            self.me = NOBODY;
        }
        self.sent[sender.index()] = Some(payload);
        self.route[sender.index()] = SENT;
        self.pack = false;
    }

    /// The bit-packed single-value view of this round for its receiver,
    /// in a binary-domain round at `n ≤ 64` as the engine delivered it:
    /// what every slot reads at position 0, which is all a king tally or
    /// a tree echo round reads. `None` means receivers must read the
    /// payload slots; so does an inbox after [`Inbox::set`].
    ///
    /// The view is built when asked: the engine's base masks over the
    /// broadcast table plus this receiver's entries of the faulty rows —
    /// or, under cut edges, every slot as [`Inbox::from`] reads it — with
    /// the receiver's own bit cleared. The masks therefore describe
    /// exactly what [`Inbox::from`]`(j).value_at(0)` reads for every
    /// sender `j`, and a round whose receivers never ask costs one pass
    /// over the broadcast table.
    pub fn ballots(&self) -> Option<PackedBallots> {
        if !self.pack {
            return None;
        }
        let n = self.n();
        let mut ballots = self.base;
        if self.edge_faults {
            for j in (0..n).map(ProcessId) {
                if let Some(v) = ballot(self.from(j)) {
                    ballots.record(j, v);
                }
            }
        } else {
            for (k, &j) in self.liars.iter().enumerate() {
                if let Some(v) = ballot(&self.lies[k * n + self.me]) {
                    ballots.record(ProcessId(j), v);
                }
            }
        }
        ballots.clear(ProcessId(self.me));
        Some(ballots)
    }

    /// Sets the masks of the round's broadcast table (see
    /// [`Inbox::ballots`]): once per round, after the table is written.
    /// `pack` off leaves the round without a packed view; under
    /// `edge_faults` the masks stay empty, since every slot is read.
    pub(crate) fn pack_ballots(&mut self, pack: bool, edge_faults: bool) {
        self.pack = pack;
        self.edge_faults = edge_faults;
        self.base = PackedBallots::default();
        if pack && !edge_faults {
            for (j, payload) in self.sent.iter().enumerate() {
                if let Some(v) = payload.as_ref().and_then(ballot) {
                    self.base.record(ProcessId(j), v);
                }
            }
        }
    }
}

/// Per-processor execution context: identity, round clock, local-work
/// accounting, tracing, and (for authenticated baselines) signing.
///
/// Beside the event log the context keeps two plain folds of the events
/// it is handed, kept whether or not tracing is on: the last
/// preferred-value snapshot (a `Preferred` event or a `Shift`'s
/// post-shift value) with the round its trailing streak of equal
/// snapshots began, and the count of `Discovered` events. The engine
/// reduces them into [`crate::Outcome::lock_in`] and
/// [`crate::Outcome::discoveries`], so a run samples both without
/// recording or walking a log.
#[derive(Clone, Debug)]
pub struct ProcCtx {
    /// This processor's identity.
    pub me: ProcessId,
    /// Current 1-based round (0 before the first round / at decision time).
    pub round: usize,
    ops: u64,
    trace_enabled: bool,
    trace: Vec<TraceEntry>,
    /// The last snapshot and the round of the first snapshot of the
    /// trailing run equal to it.
    snapshot: Option<(Value, usize)>,
    /// `Discovered` events so far.
    discoveries: u64,
    sigs: Option<Arc<Mutex<SigRegistry>>>,
}

impl ProcCtx {
    /// Creates a context for processor `me`.
    pub fn new(me: ProcessId) -> Self {
        ProcCtx {
            me,
            round: 0,
            ops: 0,
            trace_enabled: false,
            trace: Vec::new(),
            snapshot: None,
            discoveries: 0,
            sigs: None,
        }
    }

    /// Enables event tracing.
    pub fn with_trace(mut self) -> Self {
        self.trace_enabled = true;
        self
    }

    /// Attaches the shared signature registry (authenticated baselines).
    pub fn with_sigs(mut self, sigs: Arc<Mutex<SigRegistry>>) -> Self {
        self.sigs = Some(sigs);
        self
    }

    /// Re-initializes this context for a new run, keeping the trace
    /// buffer's capacity. Used by the engine's arena so back-to-back runs
    /// reuse context storage instead of allocating `n` fresh contexts.
    pub(crate) fn reset(
        &mut self,
        me: ProcessId,
        trace_enabled: bool,
        sigs: Option<Arc<Mutex<SigRegistry>>>,
    ) {
        self.me = me;
        self.round = 0;
        self.ops = 0;
        self.trace_enabled = trace_enabled;
        self.trace.clear();
        self.snapshot = None;
        self.discoveries = 0;
        self.sigs = sigs;
    }

    /// Charges `n` units of local computation (tree stores, majority
    /// scans, resolve visits, discovery checks…).
    #[inline]
    pub fn charge(&mut self, n: u64) {
        self.ops += n;
    }

    /// Total local computation charged so far.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Emits a trace event: folds a `Preferred` or `Shift` snapshot or a
    /// `Discovered` event (see [`ProcCtx`]) and records the event when
    /// tracing is enabled.
    #[inline]
    pub fn emit(&mut self, event: TraceEvent) {
        match event {
            TraceEvent::Preferred { value }
            | TraceEvent::Shift {
                preferred: value, ..
            } => self.fold_snapshot(value),
            TraceEvent::Discovered { .. } => self.discoveries += 1,
            _ => {}
        }
        self.record(event);
    }

    /// Emits a gear shift by the conversion named `conversion`, after
    /// which the preferred value is `preferred`: the `Shift` event, with
    /// its name copied to the heap only when tracing is enabled, so an
    /// untraced shift allocates nothing.
    #[inline]
    pub fn shift(&mut self, conversion: &str, preferred: Value) {
        self.fold_snapshot(preferred);
        if self.trace_enabled {
            self.record(TraceEvent::Shift {
                conversion: conversion.to_string(),
                preferred,
            });
        }
    }

    #[inline]
    fn record(&mut self, event: TraceEvent) {
        if self.trace_enabled {
            self.trace.push(TraceEntry {
                who: self.me,
                round: self.round,
                event,
            });
        }
    }

    #[inline]
    fn fold_snapshot(&mut self, value: Value) {
        if self.snapshot.map(|(last, _)| last) != Some(value) {
            self.snapshot = Some((value, self.round));
        }
    }

    /// This processor's lock-in round, given its decision and the rounds
    /// the run used: the round its trailing streak of snapshots began if
    /// the last snapshot equals `decision`, else `rounds_used` (the value
    /// settles only when the schedule ends); `None` if it emitted no
    /// snapshot. The same round as the trace walk
    /// `sg_analysis::lock_in` makes over this processor's events.
    pub(crate) fn lock_in(&self, decision: Value, rounds_used: usize) -> Option<usize> {
        self.snapshot
            .map(|(last, from)| if last == decision { from } else { rounds_used })
    }

    /// `Discovered` events emitted in this run.
    pub(crate) fn discoveries(&self) -> u64 {
        self.discoveries
    }

    /// Number of trace entries currently buffered.
    pub(crate) fn trace_len(&self) -> usize {
        self.trace.len()
    }

    /// Drains accumulated trace entries into `sink`.
    pub fn drain_trace_into(&mut self, sink: &mut Trace) {
        for e in self.trace.drain(..) {
            sink.push(e);
        }
    }

    /// Signs `value` as this processor, starting a fresh chain.
    ///
    /// # Panics
    ///
    /// Panics if no signature registry is attached (unauthenticated runs).
    pub fn sign(&mut self, value: Value) -> SignedRelay {
        let sigs = self.sigs.as_ref().expect("signature registry attached");
        sigs.lock().originate(self.me, value)
    }

    /// Extends `relay` with this processor's signature, if `relay` is valid.
    ///
    /// # Panics
    ///
    /// Panics if no signature registry is attached.
    pub fn extend(&mut self, relay: &SignedRelay) -> Option<SignedRelay> {
        let sigs = self.sigs.as_ref().expect("signature registry attached");
        sigs.lock().extend(relay, self.me)
    }

    /// Verifies a relay against the shared registry.
    ///
    /// # Panics
    ///
    /// Panics if no signature registry is attached.
    pub fn verify(&self, relay: &SignedRelay) -> bool {
        let sigs = self.sigs.as_ref().expect("signature registry attached");
        sigs.lock().is_valid(relay)
    }
}

/// A Byzantine-agreement protocol as run by one processor.
///
/// The engine drives the same schedule for every processor:
///
/// 1. round by round: call [`Protocol::outgoing`] on every processor,
///    deliver the combined [`Inbox`] via [`Protocol::deliver`], then
///    consult [`Protocol::round_status`] (early stopping) and
///    [`Protocol::next_action`] (dynamic gear dispatch) to decide
///    whether to run another round, commit a gear shift, or end the run
///    — never exceeding the [`Protocol::total_rounds`] ceiling;
/// 2. after the last executed round, call [`Protocol::decide`] once.
///
/// Implementations must be deterministic functions of their inputs — the
/// paper's model has no randomness — so that shadow copies of faulty
/// processors (used to show adversaries what an honest processor *would*
/// send) stay consistent.
pub trait Protocol {
    /// The worst-case number of communication rounds this protocol runs:
    /// the exact schedule for fixed-schedule protocols (the default
    /// [`Protocol::next_action`] replays it), and the longest schedule
    /// any gear sequence can produce for dynamic ones. The engine never
    /// issues a round beyond it.
    fn total_rounds(&self) -> usize;

    /// The payload this processor broadcasts in round `ctx.round`.
    ///
    /// `None` means the processor is silent this round (e.g. the source
    /// after round 1 in tree-without-repetition algorithms).
    fn outgoing(&mut self, ctx: &mut ProcCtx) -> Option<Payload>;

    /// Delivers the full round's inbox.
    fn deliver(&mut self, inbox: &Inbox, ctx: &mut ProcCtx);

    /// Irreversibly decides after the final round.
    fn decide(&mut self, ctx: &mut ProcCtx) -> Value;

    /// Current number of live principal-data-structure nodes, for peak
    /// space accounting. Default 0 for protocols without trees.
    fn space_nodes(&self) -> u64 {
        0
    }

    /// This processor's termination status at the end of the round in
    /// `ctx.round`, consulted by the engine *after* the round's
    /// deliveries. The default — always [`RoundStatus::Continue`] — keeps
    /// external implementations valid and simply opts the protocol out of
    /// early stopping (it runs its full static schedule), mirroring the
    /// [`Protocol::reset`] pattern.
    ///
    /// Implementations must be deterministic functions of delivered state
    /// so that pooled/fresh and packed/fallback runs remain bit-identical,
    /// and must only report ready when the decision is provably final
    /// under the engine's all-correct-ready rule (see [`RoundStatus`]).
    fn round_status(&self, _ctx: &ProcCtx) -> RoundStatus {
        RoundStatus::Continue
    }

    /// The schedule dispatch hook, consulted by the engine *after* the
    /// round's deliveries (and after [`Protocol::round_status`]): what
    /// this processor wants the engine to do next. The default replays
    /// the static schedule — [`GearAction::Round`] while `ctx.round` is
    /// below [`Protocol::total_rounds`], [`GearAction::Finished`] once it
    /// is reached — so external implementations keep their fixed-length
    /// behaviour bit-exactly (the `reset`/`round_status` opt-in pattern).
    ///
    /// Dynamic protocols override this to shorten the schedule at
    /// runtime: answer [`GearAction::ShiftGear`] at a segment boundary
    /// when local fault evidence justifies shifting, and
    /// [`GearAction::Finished`] once the (possibly truncated) dynamic
    /// schedule is complete. Implementations must be deterministic
    /// functions of delivered state, must never extend the schedule past
    /// `total_rounds()` (the engine enforces that ceiling), and must keep
    /// `Finished` monotone — once returned, every later round returns it
    /// too.
    fn next_action(&self, ctx: &ProcCtx) -> GearAction {
        if ctx.round >= self.total_rounds() {
            GearAction::Finished
        } else {
            GearAction::Round
        }
    }

    /// Commits a gear shift proposed unanimously through
    /// [`Protocol::next_action`]. The engine calls this on **every**
    /// instance — correct processors and the honest shadows of faulty
    /// ones alike — immediately after the round whose deliveries produced
    /// the unanimous [`GearAction::ShiftGear`] vote, so all instances
    /// move to the new segment in lockstep. The default is a no-op
    /// (static protocols never see it).
    fn shift_gear(&mut self, _ctx: &mut ProcCtx) {}

    /// Restores this instance to the state a freshly constructed instance
    /// for processor `id` under `config` would have, returning `true` on
    /// success. The engine's instance pool calls this to recycle protocol
    /// instances across runs instead of consulting the factory; a `false`
    /// return (the default, so external implementations keep working
    /// unchanged) is a pool miss and the factory builds a replacement.
    ///
    /// Implementations may assume the *shape* of the instance matches the
    /// new run — same algorithm, same `(n, t)` — because the pool is
    /// keyed by [`crate::PoolKey`]; everything else (identity, source,
    /// source value, domain) must be re-derived from the arguments.
    /// `tests/instance_pool.rs` pins down that pooled-reset runs are
    /// bit-identical to fresh-instance runs.
    fn reset(&mut self, _id: ProcessId, _config: &RunConfig) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inbox_indexes_by_sender() {
        let mut inbox = Inbox::empty(3);
        inbox.set(ProcessId(1), Payload::values([Value(1)]));
        assert!(inbox.from(ProcessId(0)).is_missing());
        assert_eq!(inbox.from(ProcessId(1)).num_values(), 1);
        assert_eq!(inbox.n(), 3);
    }

    #[test]
    fn set_overrides_the_readers_own_slot_of_a_delivered_inbox() {
        // As delivered to processor 1: sender 0 broadcast, sender 2 is a
        // faulty row (told 1 `Value(7)`), sender 3's edge is cut.
        let mut delivered = Inbox::empty(4);
        delivered.sent[0] = Some(Payload::values([Value(1)]));
        delivered.lies = (0..4)
            .map(|r| Payload::values([Value(r as u16 + 6)]))
            .collect();
        delivered.route[2] = 0;
        delivered.route[3] = CUT;
        delivered.me = 1;
        assert!(delivered.from(ProcessId(1)).is_missing());

        let mut inbox = delivered.clone();
        inbox.set(ProcessId(1), Payload::values([Value(5)]));
        let read = |q| inbox.from(ProcessId(q)).value_at(0);
        assert_eq!(read(0), Some(Value(1)));
        assert_eq!(read(1), Some(Value(5)));
        assert_eq!(read(2), Some(Value(7)));
        assert!(inbox.from(ProcessId(3)).is_missing());
    }

    #[test]
    fn ctx_charges_accumulate() {
        let mut ctx = ProcCtx::new(ProcessId(0));
        ctx.charge(3);
        ctx.charge(4);
        assert_eq!(ctx.ops(), 7);
    }

    #[test]
    fn trace_disabled_by_default() {
        let mut ctx = ProcCtx::new(ProcessId(0));
        ctx.emit(TraceEvent::Note {
            text: "x".to_string(),
        });
        let mut sink = Trace::new();
        ctx.drain_trace_into(&mut sink);
        assert!(sink.entries().is_empty());
    }

    #[test]
    fn trace_enabled_records() {
        let mut ctx = ProcCtx::new(ProcessId(2)).with_trace();
        ctx.round = 5;
        ctx.emit(TraceEvent::Decided { value: Value(1) });
        let mut sink = Trace::new();
        ctx.drain_trace_into(&mut sink);
        assert_eq!(sink.entries().len(), 1);
        assert_eq!(sink.entries()[0].who, ProcessId(2));
        assert_eq!(sink.entries()[0].round, 5);
    }

    #[test]
    fn signing_through_ctx() {
        let reg = Arc::new(Mutex::new(SigRegistry::new()));
        let mut ctx = ProcCtx::new(ProcessId(0)).with_sigs(reg.clone());
        let relay = ctx.sign(Value(1));
        assert!(ctx.verify(&relay));
        let mut ctx2 = ProcCtx::new(ProcessId(1)).with_sigs(reg);
        let extended = ctx2.extend(&relay).unwrap();
        assert_eq!(extended.chain.len(), 2);
    }
}
