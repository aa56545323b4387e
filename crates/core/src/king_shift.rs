//! Shifting into Phase King — the paper's §6 open question, answered for
//! one foreign family.
//!
//! §5 reports (via Waarts) that one can shift into the Moses–Waarts
//! algorithms, and conjectures the same for Berman, Garay & Perry's
//! king-based protocols; §6 leaves open a general characterization of when
//! shifting between algorithms is safe. [`crate::AlgorithmSpec::KingShift`]
//! is a concrete affirmative instance: a hybrid that runs one block of
//! **Algorithm A**, applies the paper's shift operator
//! (`tree(s) := resolve'(s)`, auxiliary fault lists carried across), and
//! finishes with the optimally resilient **Phase King** of
//! [`crate::optimal_king`] seeded from the converted preferred values.
//! Its segment list is `A(min(b, t)) → King`
//! ([`crate::AlgorithmSpec::segments`]), run by a [`crate::GearBox`].
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

#[cfg(test)]
mod tests {
    use crate::{AlgorithmSpec, GearBox, Params};
    use sg_sim::{Inbox, Payload, ProcCtx, ProcessId, Protocol, Value, ValueDomain};

    fn params(n: usize, t: usize) -> Params {
        Params {
            n,
            t,
            source: ProcessId(0),
            domain: ValueDomain::binary(),
        }
    }

    /// Processor 1's `king-shift(b)` gear box.
    fn king_shift(n: usize, t: usize, b: usize) -> GearBox {
        AlgorithmSpec::KingShift { b }
            .gear_box(params(n, t), ProcessId(1), None)
            .expect("a king-tail spec")
    }

    #[test]
    fn round_budget_is_prefix_plus_king_phases() {
        let p = king_shift(16, 5, 3);
        assert_eq!(p.total_rounds(), 1 + 3 + 3 * 6);
        assert_eq!(
            p.total_rounds(),
            AlgorithmSpec::KingShift { b: 3 }.rounds(16, 5)
        );
    }

    #[test]
    fn block_parameter_is_clamped_to_t() {
        let p = king_shift(4, 1, 3);
        // t = 1: the A block is a single gather round.
        assert_eq!(p.prefix_rounds(), 2);
        assert_eq!(
            p.total_rounds(),
            AlgorithmSpec::KingShift { b: 3 }.rounds(4, 1)
        );
    }

    #[test]
    #[should_panic(expected = "b >= 3")]
    fn small_block_parameter_rejected() {
        let _ = AlgorithmSpec::KingShift { b: 2 }.build(params(16, 5), ProcessId(1), None);
    }

    #[test]
    fn prefix_rounds_delegate_to_geared() {
        let mut p = king_shift(4, 1, 3);
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
        let mut p = king_shift(4, 1, 3);
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
