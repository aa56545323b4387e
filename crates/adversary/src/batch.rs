//! Vectorized fault injection for the lock-step batch engine.
//!
//! [`BatchFamily`] implements [`sg_sim::BatchAdversary`] for the seven
//! binary-domain [`Family`] variants whose payload rules depend only on
//! the variant's parameters and the current round's broadcast view —
//! never on per-call mutable state. [`BatchFamily::new`] reads them off
//! the variant (clamping `block` and `period` to ≥ 1, as the scalar
//! strategy does) and declines the other eleven, which run on the scalar
//! engine: `partition` cuts honest edges, `tape` and `replay` answer by
//! call order, `stale-shadow` replays its stash, and `two-faced`,
//! `equivocating-source`, `stealth`, `double-talk`, `staggered-split`,
//! `collusion` and `frontier-breaker` have no vector form until a
//! workload asks for one. Every rule has the same two halves:
//! a member relays its honest *shadow* until its turn comes, then tells
//! its family's story. Both go into [`LiarRows`], one row of lane words
//! per recipient, and members that tell the same story in the same
//! lanes share one row: `equivocate`'s split and `adaptive`'s flipped
//! value depend on the recipient alone, so they are written once per
//! distinct lane mask however many liars tell them, and the engine
//! tallies each as multiplicity × word. A shadow, an omission's drops
//! and a random draw differ per sender: each is its sender's own
//! one-member story.
//!
//! | family | turn | story from then on | rows from then on | spent from |
//! |---|---|---|---|---|
//! | `silent` | at once | nothing | none | round 1 |
//! | `crash(r)` | round `r` | nothing | none | round `r − 1` |
//! | `omission(p,ph)` | at once | the shadow, minus the periodic edge drops | one per member | never |
//! | `equivocate(split,s)` | round `s` | `0` below / `1` above the split | one per lane mask, shared | round `s − 1` |
//! | `adaptive(schedule)` | `schedule[rank]`, or never | the flipped source value | one per lane mask, shared | round `schedule[rank] − 1`, or never |
//! | `random-liar` | at once | the first-draw kernel, per (lane, edge), drawn only for recipients the kernel reads | one per member | round 1 |
//! | `chain-revealer(s,b)` | round `s + rank·b` | the first-draw kernel, per (lane, edge), drawn only for recipients the kernel reads | one per member | round `s + rank·b − 1` |
//!
//! (`rank` is the member's position in the fault set, ascending id.
//! Before its turn a member relays its shadow, a row of its own; a
//! member that sends nothing in a round opens no row. `adaptive`'s ranks
//! turn at different rounds, and a turned member joins the row of the
//! others that lie in its lanes.)
//!
//! A member is *spent* ([`LiarRows::spend`]) from the round before its
//! turn, and from round 1 if that is earlier: from then on no round
//! relays its shadow, so its state is never read again. The kernel stops
//! updating it, and no story tells it anything — a spent recipient's
//! row words stay empty, and a random liar draws nothing for it. An
//! omission member is never spent: its story is its shadow.
//!
//! A random liar also draws nothing for a correct recipient whose rules
//! the liars cannot swing this round: it asks the view for the round's
//! readers ([`LaneView::readers`], which the kernel answers at most once
//! a round) and skips the rest as it skips the spent. Shadows and shared
//! stories are word copies, cheaper than the question, and never ask.
//!
//! All seven choose their fault set through a seed-free
//! [`FaultSelection`], so one `select` call is every lane's
//! ([`BatchAdversary::corrupt`], once per batch), and all seven classify
//! payloads into lane masks in one [`BatchAdversary::lies`] call per
//! round. `corrupt` keeps the set as a member word, and each round walks
//! its set bits: ascending id is rank order. No scalar strategy is built
//! for the lanes: the rules need only the family's parameters and the
//! lanes' seeds. No faults at all is `silent` over a selection that
//! corrupts nobody.
//!
//! # The first-draw kernel
//!
//! A scalar random lie of one value is `StdRng::seed_from_u64(seed ^
//! edge).gen_range(0..size)`: a fresh generator per (round, sender,
//! recipient), of which only the first output is ever read. The shim's
//! generator is xoshiro256** seeded by four SplitMix64 words, and its
//! first output is a function of `s[1]` alone — so the draw is the
//! output scrambler over the *second* SplitMix64 word of `seed ^ edge`
//! ([`first_draw`], three multiplies and no state), then the range
//! reduction ([`edge_draw`]). The scalar strategies call `edge_draw` for
//! one-value payloads, so both engines read one mixer.
//!
//! The vector path evaluates the mixer for every lane of an edge in one
//! branch-free loop (each lane has its own seed, the edge key is
//! hoisted). On a binary domain the reduction `(first · 2) >> 64` is
//! `first >> 63`: the loop shifts each lane's sign bit into the `one`
//! word, highest lane first, and `zero` is its complement — no widening
//! multiply, no compare. Wider domains reduce with `edge_draw` and
//! classify `1` and `0`.
//!
//! The committed fingerprints have always depended on the shim's
//! stream; this only makes the dependence explicit, and the shim's
//! `stream_is_pinned` plus `util`'s `first_draw_matches_the_generator`
//! and `sign_bit_is_the_binary_draw` hold both ends.

use sg_sim::batch::{BatchAdversary, LaneView, LiarRows};
use sg_sim::{ProcessId, ProcessSet, MAX_BATCH_RUNS};

use crate::family::Family;
use crate::selection::FaultSelection;
use crate::util::{edge_draw, edge_mix, first_draw};

/// The lock-step form of a [`Family`] over one batch of lanes. It owns
/// no strategy: every lane's lies follow from the family's parameters
/// and, for the seeded families, that lane's seed — exactly what the
/// lane's scalar strategy would send.
pub struct BatchFamily<'a> {
    family: &'a Family,
    selection: &'a FaultSelection,
    /// One per lane, in lane order: the seeds the lanes' scalar
    /// strategies would be built with.
    seeds: &'a [u64],
    /// The fault set [`BatchAdversary::corrupt`] chose, as a slot mask:
    /// its set bits in ascending order are the members in rank order.
    members: u64,
}

impl<'a> BatchFamily<'a> {
    /// The vector rules of `family` over one lane per seed, or `None`
    /// for a family without a vector shape: `partition` cuts honest
    /// edges, `tape` and `replay` answer by call order, `stale-shadow`
    /// replays its stash, and the other seven have no vector form until
    /// a workload asks for one.
    pub fn new(family: &'a Family, seeds: &'a [u64]) -> Option<Self> {
        /// No faults is silence over a selection that corrupts nobody.
        static NOBODY: FaultSelection = FaultSelection::without_source().limit(0);
        let selection = match family {
            Family::NoFaults => &NOBODY,
            Family::RandomLiar(selection)
            | Family::Silent(selection)
            | Family::ChainRevealer { selection, .. }
            | Family::Crash { selection, .. }
            | Family::Omission { selection, .. }
            | Family::Equivocate { selection, .. }
            | Family::Adaptive { selection, .. } => selection,
            _ => return None,
        };
        Some(BatchFamily {
            family,
            selection,
            seeds,
            members: 0,
        })
    }

    /// The round from which the rank-`rank` member tells its story
    /// instead of relaying its shadow; `None` if it never turns.
    fn turn(&self, rank: usize) -> Option<usize> {
        match self.family {
            Family::Crash { round, .. } => Some(*round),
            Family::Equivocate { start, .. } => Some(*start),
            Family::Adaptive { schedule, .. } => schedule.get(rank).copied(),
            Family::ChainRevealer { start, block, .. } => Some(start + rank * (*block).max(1)),
            _ => Some(0),
        }
    }

    /// The members in rank order: `(rank, slot)` for each set bit of
    /// `members`, ascending.
    fn ranked(&self) -> impl Iterator<Item = (usize, usize)> {
        let mut w = self.members;
        std::iter::from_fn(move || {
            (w != 0).then(|| {
                let f = w.trailing_zeros() as usize;
                w &= w - 1;
                f
            })
        })
        .enumerate()
    }

    /// The members spent in `round`: those whose turn is at or before
    /// `round + 1`, so that no later round relays their shadow — every
    /// member but an omission's, whose story *is* its shadow.
    fn spent(&self, round: usize) -> u64 {
        if matches!(self.family, Family::Omission { .. }) {
            return 0;
        }
        self.ranked()
            .filter(|&(rank, _)| self.turn(rank).is_some_and(|turn| turn <= round + 1))
            .fold(0, |spent, (_, f)| spent | 1 << f)
    }

    /// Copies a faulty sender's honest-shadow classification to every
    /// recipient, for the lanes in `mask` — the vector form of
    /// `shadow_or_missing` (lanes outside `present` stay missing, `⊥`
    /// shadows land in neither row) — skipping the recipients `dropped`
    /// names and the spent ones. A shadow is `f`'s own: a one-member
    /// story, opened only if it delivers something.
    fn shadow(
        view: &LaneView<'_>,
        f: usize,
        mask: u64,
        dropped: impl Fn(usize) -> bool,
        rows: &mut LiarRows,
    ) {
        let one = view.one[f] & view.present[f] & mask;
        let zero = view.zero[f] & view.present[f] & mask;
        if one == 0 && zero == 0 {
            return;
        }
        let spent = rows.spent();
        let (row_one, row_zero) = rows.slot(f);
        for r in 0..view.n {
            if r == f || (spent >> r) & 1 == 1 || dropped(r) {
                continue;
            }
            row_one[r] |= one;
            row_zero[r] |= zero;
        }
    }

    /// Tells `story(r)` to every recipient `r` from all of `members` at
    /// once, in the lanes of `mask`, classified like the scalar
    /// `Payload::value_at(0)` match: one shared row. The story depends on
    /// the recipient alone, so a member's own position holds what the
    /// other members tell it — unless it is spent, as every spent
    /// position stays empty.
    fn constant(
        view: &LaneView<'_>,
        members: u64,
        mask: u64,
        story: impl Fn(usize) -> u16,
        rows: &mut LiarRows,
    ) {
        let spent = rows.spent();
        let (row_one, row_zero) = rows.story(members);
        for r in (0..view.n).filter(|&r| (spent >> r) & 1 == 0) {
            match story(r) {
                1 => row_one[r] = mask,
                0 => row_zero[r] = mask,
                _ => {}
            }
        }
    }

    /// Sends every lane's own draw from `f` to every recipient, for the
    /// lanes in `mask` (see the module docs, "The first-draw kernel"),
    /// as `f`'s own one-member story. All lanes of an edge are drawn —
    /// the loop has no branch to mispredict and the draw is a handful of
    /// multiplies — and the assembled words are masked once. A spent
    /// recipient is drawn nothing, and neither is one outside the
    /// round's readers ([`LaneView::readers`]): nothing reads its words.
    /// A liar with no recipient left to draw for opens no story.
    fn random(view: &LaneView<'_>, f: usize, mask: u64, seeds: &[u64], rows: &mut LiarRows) {
        let size = view.domain.size();
        let slots = !0 >> (MAX_BATCH_RUNS - view.n);
        let mut drawn = (view.readers)() & !rows.spent() & !(1 << f) & slots;
        if drawn == 0 {
            return;
        }
        let (row_one, row_zero) = rows.slot(f);
        while drawn != 0 {
            let r = drawn.trailing_zeros() as usize;
            drawn &= drawn - 1;
            let edge = edge_mix(view.round, ProcessId(f), ProcessId(r));
            let (mut one, mut zero) = (0u64, 0u64);
            if size == 2 {
                // Highest lane first: lane `k`'s sign bit ends at bit `k`,
                // where `(first >> 63) << k` puts it, for one shift less.
                for &seed in seeds.iter().rev() {
                    one = (one << 1) | (first_draw(seed, edge) >> 63);
                }
                zero = !one;
            } else {
                for (lane, &seed) in seeds.iter().enumerate() {
                    let v = edge_draw(seed, edge, size);
                    one |= u64::from(v == 1) << lane;
                    zero |= u64::from(v == 0) << lane;
                }
            }
            row_one[r] |= one & mask;
            row_zero[r] |= zero & mask;
        }
    }
}

impl BatchAdversary for BatchFamily<'_> {
    fn lanes(&self) -> usize {
        self.seeds.len()
    }

    fn corrupt(&mut self, n: usize, t: usize, source: ProcessId, set: &mut ProcessSet) {
        assert!(n <= MAX_BATCH_RUNS, "a member mask holds at most 64 slots");
        // One seed-free selection: each lane's scalar `corrupt` would
        // return this same set. It is fixed for the batch, so the rounds
        // read it as one word.
        set.clone_from(&self.selection.select(n, t, source));
        self.members = set.iter().fold(0, |m, f| m | 1 << f.index());
    }

    fn lies(&mut self, view: &LaneView<'_>, rows: &mut LiarRows) {
        debug_assert_eq!(
            self.members,
            view.faulty.iter().fold(0, |m, f| m | 1 << f.index()),
            "lies over the set `corrupt` chose"
        );
        // First the spent members: no row below tells them anything.
        rows.spend(self.spent(view.round));
        // A story replaces the shadow at its length (single values on
        // the narrow path), so it exists in the lanes in which the
        // shadow does — except that a turned adaptive source lies
        // unconditionally in round 1.
        let lanes = |f: usize| {
            let unconditional = matches!(self.family, Family::Adaptive { .. })
                && view.round == 1
                && f == view.source.index();
            if unconditional {
                view.active
            } else {
                view.present[f] & view.active
            }
        };
        // The turned members of a constant story, told together below.
        let mut turned = 0u64;
        for (rank, f) in self.ranked() {
            if self.turn(rank).is_none_or(|turn| view.round < turn) {
                Self::shadow(view, f, view.active, |_| false, rows);
                continue;
            }
            let mask = lanes(f);
            if mask == 0 {
                continue;
            }
            match self.family {
                Family::Omission { period, phase, .. } => {
                    let (period, phase) = ((*period).max(1), *phase);
                    let dropped = |r: usize| (view.round + f + r + phase).is_multiple_of(period);
                    Self::shadow(view, f, mask, dropped, rows);
                }
                Family::Equivocate { .. } | Family::Adaptive { .. } => turned |= 1 << f,
                Family::RandomLiar(_) | Family::ChainRevealer { .. } => {
                    Self::random(view, f, mask, self.seeds, rows);
                }
                // No faults, silence and a crash tell nothing.
                _ => {}
            }
        }
        // One shared story per distinct lane mask of the turned members.
        while turned != 0 {
            let mask = lanes(turned.trailing_zeros() as usize);
            let mut members = 0u64;
            let mut w = turned;
            while w != 0 {
                let f = w.trailing_zeros() as usize;
                w &= w - 1;
                if lanes(f) == mask {
                    members |= 1 << f;
                }
            }
            turned &= !members;
            match self.family {
                Family::Equivocate { split, .. } => {
                    Self::constant(view, members, mask, |r| u16::from(r >= *split), rows);
                }
                Family::Adaptive { .. } => {
                    let flipped =
                        (u32::from(view.source_value.raw()) + 1) % u32::from(view.domain.size());
                    Self::constant(view, members, mask, |_| flipped as u16, rows);
                }
                _ => unreachable!("only constant stories are told together"),
            }
        }
    }
}
