//! The gear box: one scheduler for every tree prefix and the king tail
//! that may follow it.
//!
//! Every composition of a tree prefix with a king tail is one round
//! dispatch: drive the tree machine through a prefix plan, seed a
//! [`KingCore`] at the boundary, then hand the remaining rounds to its
//! three-round phases. [`GearBox`] is that dispatch and the one
//! [`Protocol`] behind `king-shift`, `dynamic-king` and every
//! [`crate::ShiftComposition`] — all three are segment lists that
//! [`crate::plan::compile`] turns into its plan, and
//! [`GearBox::new`] is the one constructor from that compiled form.
//! A composition without a King segment has no tail: the box then
//! simply runs the prefix.
//!
//! # Dynamic gear shifting
//!
//! One spec shifts at runtime, `dynamic-king`: its compiled plan carries
//! a list of [`Checkpoint`]s — the interior boundaries of its A-block
//! prefix — and at each one the box weighs the block that just closed
//! against its worst-case detection guarantee (§4.4's ledger: `b − 2`
//! new global detections per Algorithm A block). A block that
//! *under-delivers* detections is evidence the adversary has fewer
//! active faults than the remaining worst-case plan was sized for, so
//! the box votes to shift straight into its king tail
//! ([`sg_sim::GearAction::ShiftGear`]); a full ledger (`|L_p| ≥ t`)
//! votes likewise — every fault is already masked. The engine commits
//! the shift only when **every correct processor** votes it in the same
//! round (the same omniscient conjunction as status-driven early
//! stopping), then calls [`Protocol::shift_gear`] on every instance so
//! the schedule stays common.
//!
//! Why this is sound at any checkpoint, in the paper's own terms:
//! shifting into an optimally resilient king tail is **unconditional**
//! at `t ≤ t_A(n)` (see [`crate::compose`]) — Phase King reaches
//! agreement from arbitrary seed values, and validity rides the
//! Persistence Lemma through the prefix exactly as in the static
//! A→King hybrid. The evidence rule therefore only affects *speed*,
//! never safety: a non-committed vote simply continues the static plan,
//! and a committed shift lands in the planned tail early. Every
//! checkpoint sits inside a prefix that the planned tail follows, so a
//! shift only ever truncates the prefix, and the worst case is the
//! static schedule. A box with no checkpoints is the static dispatch.

use sg_sim::{
    GearAction, Inbox, Payload, ProcCtx, ProcessId, Protocol, RoundStatus, RunConfig, TraceEvent,
    Value,
};

use crate::geared::GearedProtocol;
use crate::optimal_king::{KingCore, PhaseStep};
use crate::params::Params;
use crate::plan::RoundAction;

/// One dynamic shift checkpoint: a prefix block boundary at which a
/// [`GearBox`] may vote to shift into its king tail.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Checkpoint {
    /// The engine round whose delivery closes the block (a conversion
    /// round of the prefix plan, strictly before the static prefix end).
    pub round: usize,
    /// The closed block's guaranteed worst-case detection capacity
    /// (`b − 2` for an Algorithm A block, `b − 1` for a B block): the
    /// vote shifts when the block discovered fewer new faults than this.
    pub capacity: usize,
}

/// The trace label of the prefix → king-tail seeding event
/// ([`TraceEvent::Shift`]), the same for every gear box.
const KING_TAIL: &str = "phase-king tail";

/// The unified tree-prefix → king-tail round dispatcher, built by
/// [`crate::AlgorithmSpec::build`] (`king-shift`, `dynamic-king`) and
/// [`crate::ShiftComposition::build`]. See the module docs for the
/// dynamic-shifting rules; with no checkpoints the box replays its static
/// plan exactly. The king tail runs `t + 1` three-round phases, and the
/// evidence rule's full ledger is `t`, the prefix's fault bound.
pub struct GearBox {
    input: Option<Value>,
    geared: GearedProtocol,
    /// The planned king tail's core; `None` when the plan ends in the
    /// tree.
    king: Option<KingCore>,
    /// Effective prefix length: the plan length until a dynamic shift
    /// truncates it.
    prefix_rounds: usize,
    seeded: bool,
    checkpoints: Vec<Checkpoint>,
    /// `|L_p|` at the previous checkpoint — the evidence baseline.
    ledger_baseline: usize,
    /// Whether the checkpoint just delivered voted to shift.
    vote_shift: bool,
    t: usize,
}

impl GearBox {
    /// Processor `me`'s gear box for a compiled plan — the
    /// `(plan, king_tail, checkpoints)` that [`crate::plan::compile`]
    /// returns: the plan on the modified tree machine, then `t + 1`
    /// phases of optimally resilient Phase King when `king_tail` is set.
    /// `input` must be `Some` exactly for the source.
    ///
    /// # Panics
    ///
    /// Panics if there are checkpoints but no king tail to shift into,
    /// or a checkpoint falls outside the prefix.
    pub fn new(
        params: Params,
        me: ProcessId,
        input: Option<Value>,
        (plan, king_tail, checkpoints): (Vec<RoundAction>, bool, Vec<Checkpoint>),
    ) -> Self {
        assert!(
            king_tail || checkpoints.is_empty(),
            "checkpoints need a planned king tail"
        );
        assert!(
            checkpoints.iter().all(|c| c.round < plan.len()),
            "checkpoints must fall strictly inside the prefix"
        );
        GearBox {
            input,
            prefix_rounds: plan.len(),
            geared: GearedProtocol::new(params, me, input, true, plan),
            king: king_tail.then(|| KingCore::new(params, me)),
            seeded: false,
            checkpoints,
            ledger_baseline: 0,
            vote_shift: false,
            t: params.t,
        }
    }

    /// The tree-machine prefix (inspection hook).
    pub fn prefix(&self) -> &GearedProtocol {
        &self.geared
    }

    /// The effective prefix length: static until a dynamic shift
    /// truncates it to the shift round.
    pub fn prefix_rounds(&self) -> usize {
        self.prefix_rounds
    }

    /// The dynamic shift checkpoints (empty for static dispatch).
    pub fn checkpoints(&self) -> &[Checkpoint] {
        &self.checkpoints
    }

    /// The worst-case schedule length: the static plan, prefix and
    /// tail. Shifts only ever truncate the prefix.
    pub fn worst_case_rounds(&self) -> usize {
        scheduled_rounds(self.geared.plan().len(), self.king.is_some(), self.t)
    }

    /// The king core and its (phase, step) for the post-prefix engine
    /// round `round`.
    fn tail(&mut self, round: usize) -> (&mut KingCore, usize, PhaseStep) {
        debug_assert!(round > self.prefix_rounds);
        let king = self
            .king
            .as_mut()
            .expect("tail rounds only exist with a king core");
        let (phase, step) = king.row().locate(round - self.prefix_rounds - 1);
        (king, phase, step)
    }

    /// The prefix → tail boundary: seed the king core from the converted
    /// tree root and carry the fault list across as masks (the paper's
    /// auxiliary-structure rule).
    fn seed_tail(&mut self, ctx: &mut ProcCtx) {
        let preferred = self.geared.preferred();
        let king = self
            .king
            .as_mut()
            .expect("seeding requires a king tail core");
        king.set_current(preferred);
        for p in self.geared.fault_list().iter() {
            king.mask(p);
        }
        self.seeded = true;
        ctx.emit_with(|| TraceEvent::Shift {
            conversion: KING_TAIL.to_string(),
            preferred,
        });
    }
}

impl Protocol for GearBox {
    fn total_rounds(&self) -> usize {
        self.worst_case_rounds()
    }

    /// The box's payload for the round in `ctx.round`.
    fn outgoing(&mut self, ctx: &mut ProcCtx) -> Option<Payload> {
        if ctx.round <= self.prefix_rounds {
            self.geared.outgoing(ctx)
        } else {
            let (king, phase, step) = self.tail(ctx.round);
            king.outgoing(phase, step)
        }
    }

    /// Consumes one round's inbox, evaluating the dynamic shift vote at
    /// checkpoints and seeding the tail at the static boundary.
    fn deliver(&mut self, inbox: &Inbox, ctx: &mut ProcCtx) {
        self.vote_shift = false;
        if ctx.round <= self.prefix_rounds {
            self.geared.deliver(inbox, ctx);
            if ctx.round == self.prefix_rounds {
                if self.king.is_some() && !self.seeded {
                    self.seed_tail(ctx);
                }
            } else if let Some(cp) = self.checkpoints.iter().find(|c| c.round == ctx.round) {
                // The evidence rule: a block that under-delivered against
                // its worst-case detection guarantee, or a full ledger,
                // votes to shift into the tail now.
                let ledger = self.geared.fault_list().len();
                let newly = ledger.saturating_sub(self.ledger_baseline);
                self.vote_shift = newly < cp.capacity || ledger >= self.t;
                self.ledger_baseline = ledger;
            }
        } else {
            let (king, phase, step) = self.tail(ctx.round);
            king.deliver(phase, step, inbox, ctx);
        }
    }

    /// The decision: the source's own input; otherwise the tail's final
    /// value when the tail ran, or the prefix's converted root.
    fn decide(&mut self, ctx: &mut ProcCtx) -> Value {
        let value = match self.input {
            Some(v) => v,
            None => {
                if self.seeded {
                    self.king
                        .as_ref()
                        .expect("seeded boxes have a king core")
                        .current()
                } else {
                    self.geared.preferred()
                }
            }
        };
        ctx.emit(TraceEvent::Decided { value });
        value
    }

    /// Live principal-structure nodes (the prefix tree dominates).
    fn space_nodes(&self) -> u64 {
        self.geared.space_nodes()
    }

    /// Forwards the active segment's status: the tree prefix's echo rule
    /// (see [`GearedProtocol`]) while the tail is unseeded — a stop there
    /// decides [`GearedProtocol::preferred`], which is what
    /// `decide` falls back to — and [`KingCore::is_ready`] once
    /// the tail runs. The prefix's verdict is never forwarded into a
    /// seeded tail: its root is no longer what the box decides.
    fn round_status(&self, ctx: &ProcCtx) -> RoundStatus {
        if !self.seeded {
            return self.geared.round_status(ctx);
        }
        let king_ready = self.king.as_ref().is_some_and(KingCore::is_ready);
        if self.input.is_some() || king_ready {
            RoundStatus::ReadyToDecide
        } else {
            RoundStatus::Continue
        }
    }

    /// The schedule vote (see [`sg_sim::Protocol::next_action`]):
    /// `Finished` past the current schedule's end, `ShiftGear` when the
    /// checkpoint just delivered voted to shift, `Round` otherwise.
    fn next_action(&self, ctx: &ProcCtx) -> GearAction {
        if ctx.round >= scheduled_rounds(self.prefix_rounds, self.king.is_some(), self.t) {
            GearAction::Finished
        } else if self.vote_shift {
            GearAction::ShiftGear
        } else {
            GearAction::Round
        }
    }

    /// Commits an engine-mediated dynamic shift: truncates the prefix at
    /// the current round and seeds the king tail. Called on every
    /// instance — including honest shadows whose own vote may have
    /// differed — so the post-shift schedule is common.
    fn shift_gear(&mut self, ctx: &mut ProcCtx) {
        if self.seeded {
            return;
        }
        self.prefix_rounds = ctx.round;
        self.vote_shift = false;
        self.seed_tail(ctx);
    }

    /// Restores the box (and its prefix machine and tail core) to the
    /// freshly-constructed state for processor `id` under `config` — the
    /// instance-pool path. The plan shape, checkpoints and phase count
    /// are fixed by the pool key.
    fn reset(&mut self, id: ProcessId, config: &RunConfig) -> bool {
        let params = Params::from_config(config);
        if !self.geared.reset(id, config) {
            return false;
        }
        self.input = (id == config.source).then_some(config.source_value);
        if let Some(king) = self.king.as_mut() {
            king.reset(params, id);
        }
        self.prefix_rounds = self.geared.plan().len();
        self.seeded = false;
        self.vote_shift = false;
        self.ledger_baseline = 0;
        true
    }
}

/// The rounds a compiled plan schedules: its tree prefix, plus `t + 1`
/// three-round king phases when a King segment follows it. The one
/// formula behind [`GearBox::worst_case_rounds`] (the engine's schedule
/// ceiling), [`crate::AlgorithmSpec::rounds`] and
/// [`crate::ShiftComposition::rounds`] (the reported round budgets), so
/// they cannot drift apart.
pub(crate) fn scheduled_rounds(prefix: usize, king_tail: bool, t: usize) -> usize {
    prefix + if king_tail { 3 * (t + 1) } else { 0 }
}

/// How many Algorithm A blocks `dynamic-king`'s worst-case prefix runs
/// at `(t, b)`: enough for the §4.4 detection ledger (`1` for the faulty
/// source plus `b − 2` per block) to reach `t`, so the never-shift path
/// enters its tail with every fault guaranteed detected.
pub fn dynamic_king_blocks(t: usize, b: usize) -> usize {
    let capacity = b.min(t).saturating_sub(2);
    if capacity == 0 {
        1
    } else {
        t.saturating_sub(1).div_ceil(capacity).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::ConvertSpec;
    use crate::AlgorithmSpec;
    use sg_eigtree::Conversion;
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
    fn block_count_covers_the_ledger() {
        // t = 5, b = 3: capacity 1 per block, 4 blocks to detect t−1 = 4
        // beyond the source's +1.
        assert_eq!(dynamic_king_blocks(5, 3), 4);
        assert_eq!(dynamic_king_blocks(5, 4), 2);
        assert_eq!(dynamic_king_blocks(5, 5), 2);
        // Degenerate small t: one block, king-shift's shape.
        assert_eq!(dynamic_king_blocks(1, 3), 1);
        assert_eq!(dynamic_king_blocks(2, 3), 1);
        let rounds = |n, t| AlgorithmSpec::DynamicKing { b: 3 }.rounds(n, t);
        assert_eq!(rounds(16, 5), 1 + 4 * 3 + 18);
        assert_eq!(rounds(4, 1), 1 + 1 + 6);
    }

    #[test]
    fn checkpoints_sit_at_interior_block_boundaries() {
        let p = AlgorithmSpec::DynamicKing { b: 3 }
            .gear_box(params(16, 5), ProcessId(1), None)
            .expect("a king-tail spec");
        let rounds: Vec<usize> = p.checkpoints().iter().map(|c| c.round).collect();
        assert_eq!(rounds, vec![4, 7, 10]);
        assert!(p.checkpoints().iter().all(|c| c.capacity == 1));
        assert_eq!(p.total_rounds(), 31);
        assert_eq!(p.prefix_rounds(), 13);
    }

    #[test]
    fn static_box_has_no_votes() {
        let plan = vec![
            RoundAction::Initial,
            RoundAction::Gather { convert: None },
            RoundAction::Gather { convert: None },
            RoundAction::Gather {
                convert: Some(ConvertSpec {
                    conversion: Conversion::ResolvePrime { t: 3 },
                    discovery: true,
                }),
            },
        ];
        let gear = GearBox::new(params(10, 3), ProcessId(1), None, (plan, true, Vec::new()));
        let mut ctx = ProcCtx::new(ProcessId(1));
        ctx.round = 2;
        assert_eq!(gear.next_action(&ctx), GearAction::Round);
        ctx.round = gear.worst_case_rounds();
        assert_eq!(gear.next_action(&ctx), GearAction::Finished);
        assert_eq!(gear.worst_case_rounds(), 4 + 12);
    }

    /// A runtime shift lands in the planned tail: a plan without one has
    /// nothing to shift into.
    #[test]
    #[should_panic(expected = "need a planned king tail")]
    fn checkpoints_without_a_tail_rejected() {
        let plan = vec![RoundAction::Initial, RoundAction::Gather { convert: None }];
        let checkpoint = Checkpoint {
            round: 1,
            capacity: 1,
        };
        let _ = GearBox::new(
            params(10, 3),
            ProcessId(1),
            None,
            (plan, false, vec![checkpoint]),
        );
    }
}
