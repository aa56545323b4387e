//! Shifting into Phase King — the paper's §6 open question, answered for
//! one foreign family.
//!
//! §5 reports (via Waarts) that one can shift into the Moses–Waarts
//! algorithms, and conjectures the same for Berman, Garay & Perry's
//! king-based protocols; §6 leaves open a general characterization of when
//! shifting between algorithms is safe. This module demonstrates a
//! concrete affirmative instance: a hybrid that runs one block of
//! **Algorithm A**, applies the paper's shift operator
//! (`tree(s) := resolve'(s)`, auxiliary fault lists carried across), and
//! finishes with the optimally resilient **Phase King** of
//! [`crate::optimal_king`] seeded from the converted preferred values.
//!
//! Why the shift is safe, in the paper's own terms:
//!
//! * **Agreement** needs nothing from the A prefix: Phase King reaches
//!   agreement from *arbitrary* seed values whenever `n > 3t`, the same
//!   resilience as Algorithm A — so the target algorithm's guarantee is
//!   unconditional.
//! * **Validity** is exactly the paper's persistence argument: a correct
//!   source makes all correct processors prefer its value after round 1;
//!   the Persistence Lemma keeps that unanimity through the A block and
//!   its `resolve'` conversion; and Phase King's locking rule preserves
//!   unanimity through every phase (its own persistence property).
//! * **Fault masking** carries across the shift like the paper's auxiliary
//!   data structures: processors globally detected during the A block stay
//!   masked in the king phases, so their messages read as `⊥`/default.
//!
//! Unlike the A→B→C hybrid, this shift buys *robustness of composition*
//! rather than speed — the king tail costs `3(t+1)` rounds but only
//! O(1)-value messages, so the composition trades the paper's `O(n^b)`
//! message blow-up for rounds while keeping full `⌊(n−1)/3⌋` resilience
//! and keeping the A block's large-message phase to a single block.

use sg_sim::{ProcessId, Value};

use sg_eigtree::Conversion;

use crate::gearbox::{GearBox, GearPlan};
use crate::geared::GearedProtocol;
use crate::optimal_king::KingCore;
use crate::params::Params;
use crate::plan::{ConvertSpec, RoundAction};

/// The number of communication rounds `KingShift` runs at parameters
/// `(t, b)`: round 1, one A block of `min(b, t)` gather rounds, then
/// `t + 1` three-round king phases.
pub fn king_shift_rounds(t: usize, b: usize) -> usize {
    1 + b.min(t) + 3 * (t + 1)
}

/// The A→King hybrid: one statically planned shift, run by a [`GearBox`].
///
/// Build through [`crate::AlgorithmSpec::KingShift`]:
///
/// ```
/// use sg_core::{execute, AlgorithmSpec};
/// use sg_sim::{NoFaults, RunConfig, Value};
///
/// let config = RunConfig::new(10, 3).with_source_value(Value(1));
/// let outcome = execute(AlgorithmSpec::KingShift { b: 3 }, &config, &mut NoFaults)?;
/// assert_eq!(outcome.decision(), Some(Value(1)));
/// assert_eq!(outcome.scheduled_rounds, 16); // 1 + b + 3·(t+1)
/// // With a correct source the A block's first echo already agrees and
/// // the run stops there, before the tail is seeded (the tree machine's
/// // echo rule); on the full schedule the tail runs all its phases.
/// assert_eq!(outcome.rounds_used, 2);
/// let full = execute(AlgorithmSpec::KingShift { b: 3 }, &config.fixed_length(), &mut NoFaults)?;
/// assert_eq!((full.rounds_used, full.decision()), (16, Some(Value(1))));
/// # Ok::<(), sg_core::SpecError>(())
/// ```
pub struct KingShift;

impl KingShift {
    /// Builds processor `me`'s gear box with block parameter `b`.
    ///
    /// `input` must be `Some` exactly when `me` is the source.
    ///
    /// # Panics
    ///
    /// Panics if the input/source relationship is violated or `b < 3`
    /// (Algorithm A blocks need at least three gather rounds to make
    /// progress, §4.2).
    pub fn build(params: Params, me: ProcessId, input: Option<Value>, b: usize) -> GearBox {
        assert!(b >= 3, "Algorithm A blocks require b >= 3, got {b}");
        let t = params.t;
        let gather_rounds = b.min(t);
        let mut plan = vec![RoundAction::Initial];
        for i in 0..gather_rounds {
            plan.push(RoundAction::Gather {
                convert: (i == gather_rounds - 1).then_some(ConvertSpec {
                    conversion: Conversion::ResolvePrime { t },
                    discovery: true,
                }),
            });
        }
        let geared = GearedProtocol::new(
            params,
            me,
            input,
            format!("king-shift-prefix(b={b})"),
            true,
            plan,
        );
        // One statically planned shift, no dynamic checkpoints: the
        // gear box replays the fixed A-block → king-tail schedule.
        GearBox::new(
            input,
            geared,
            Some(KingCore::new(params, me)),
            GearPlan {
                static_tail: true,
                phases: t + 1,
                tail_label: "resolve' -> phase-king",
                checkpoints: Vec::new(),
                t,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sg_sim::{Inbox, Payload, ProcCtx, Protocol, ValueDomain};

    fn params(n: usize, t: usize) -> Params {
        Params {
            n,
            t,
            source: ProcessId(0),
            domain: ValueDomain::binary(),
        }
    }

    #[test]
    fn round_budget_is_prefix_plus_king_phases() {
        let p = KingShift::build(params(16, 5), ProcessId(1), None, 3);
        assert_eq!(p.total_rounds(), 1 + 3 + 3 * 6);
        assert_eq!(p.total_rounds(), king_shift_rounds(5, 3));
    }

    #[test]
    fn block_parameter_is_clamped_to_t() {
        let p = KingShift::build(params(4, 1), ProcessId(1), None, 3);
        // t = 1: the A block is a single gather round.
        assert_eq!(p.prefix_rounds(), 2);
        assert_eq!(p.total_rounds(), king_shift_rounds(1, 3));
    }

    #[test]
    #[should_panic(expected = "b >= 3")]
    fn small_block_parameter_rejected() {
        let _ = KingShift::build(params(16, 5), ProcessId(1), None, 2);
    }

    #[test]
    fn prefix_rounds_delegate_to_geared() {
        let mut p = KingShift::build(params(4, 1), ProcessId(1), None, 3);
        let mut ctx = ProcCtx::new(ProcessId(1));
        ctx.round = 1;
        assert_eq!(p.outgoing(&mut ctx), None);
        let mut inbox = Inbox::empty(4);
        inbox.set(ProcessId(0), Payload::values([Value(1)]));
        p.deliver(&inbox, &mut ctx);
        assert_eq!(p.prefix().preferred(), Value(1));
    }

    #[test]
    fn shift_seeds_core_with_converted_preferred() {
        let mut p = KingShift::build(params(4, 1), ProcessId(1), None, 3);
        let mut ctx = ProcCtx::new(ProcessId(1));
        ctx.round = 1;
        let mut inbox = Inbox::empty(4);
        inbox.set(ProcessId(0), Payload::values([Value(1)]));
        p.deliver(&inbox, &mut ctx);
        // Round 2 closes the (single-round) A block: everyone echoes 1.
        ctx.round = 2;
        let _ = p.outgoing(&mut ctx);
        let mut inbox = Inbox::empty(4);
        for i in 2..4 {
            inbox.set(ProcessId(i), Payload::values([Value(1)]));
        }
        p.deliver(&inbox, &mut ctx);
        // Round 3 opens the tail: the seeded core exchanges the converted
        // root (an unseeded one would send the default 0).
        ctx.round = 3;
        assert_eq!(p.outgoing(&mut ctx), Some(Payload::values([Value(1)])));
    }
}
