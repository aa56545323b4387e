//! Vectorized fault injection for the lock-step batch engine.
//!
//! [`BatchFamily`] implements [`sg_sim::BatchAdversary`] for the seven
//! binary-domain named families whose payload rules depend only on
//! constructor parameters and the current round's broadcast view —
//! never on per-call mutable state. Every rule has the same two halves:
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
//! | family | turn | story from then on | rows from then on |
//! |---|---|---|---|
//! | `silent` | at once | nothing | none |
//! | `crash(r)` | round `r` | nothing | none |
//! | `omission(p,ph)` | at once | the shadow, minus the periodic edge drops | one per member |
//! | `equivocate(split,s)` | round `s` | `0` below / `1` above the split | one per lane mask, shared |
//! | `adaptive(schedule)` | `schedule[rank]`, or never | the flipped source value | one per lane mask, shared |
//! | `random-liar` | at once | the first-draw kernel, per (lane, edge) | one per member |
//! | `chain-revealer(s,b)` | round `s + rank·b` | the first-draw kernel, per (lane, edge) | one per member |
//!
//! (`rank` is the member's position in the fault set, ascending id.
//! Before its turn a member relays its shadow, a row of its own; a
//! member that sends nothing in a round opens no row. `adaptive`'s ranks
//! turn at different rounds, and a turned member joins the row of the
//! others that lie in its lanes.)
//!
//! All seven choose their fault set through a seed-free
//! [`FaultSelection`], so one `select` call is every lane's
//! ([`BatchAdversary::corrupt`], once per batch), and all seven classify
//! payloads into lane masks in one [`BatchAdversary::lies`] call per
//! round. No scalar strategy is built for the lanes: the rules need only
//! the family's parameters and the lanes' seeds. No faults at all is
//! `silent` over a selection that corrupts nobody.
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
use sg_sim::{ProcessId, ProcessSet};

use crate::selection::FaultSelection;
use crate::util::{edge_draw, edge_mix, first_draw};

/// Which vector-capable family a [`BatchFamily`] plays, with the same
/// parameters as the scalar constructor it mirrors (borrowed: a family
/// is rebuilt per 64-run chunk and owns nothing).
#[derive(Clone, Copy, Debug)]
pub enum VectorFamily<'a> {
    /// [`crate::Silent`]: never sends.
    Silent,
    /// [`crate::Crash`]: honest shadow until `crash_round`, then silent.
    Crash {
        /// First round (1-based) of permanent silence.
        crash_round: usize,
    },
    /// [`crate::RandomLiar`]: per-edge uniform in-domain lies, one seed
    /// per lane (lane order).
    RandomLiar {
        /// Per-lane RNG seeds, the ones the scalar strategy of each lane
        /// would be built with.
        seeds: &'a [u64],
    },
    /// [`crate::ChainRevealer`]: the rank-`k` member is honest until
    /// round `reveal_start + k·stride`, then lies like
    /// [`VectorFamily::RandomLiar`].
    ChainRevealer {
        /// Per-lane RNG seeds, as for [`VectorFamily::RandomLiar`].
        seeds: &'a [u64],
        /// Round (1-based) the rank-0 member reveals itself.
        reveal_start: usize,
        /// Rounds between reveals (clamped to ≥ 1, like the scalar
        /// constructor).
        stride: usize,
    },
    /// [`crate::Omission`]: periodic per-(round, edge) drops.
    Omission {
        /// Drop period (clamped to ≥ 1, like the scalar constructor).
        period: usize,
        /// Drop phase offset.
        phase: usize,
    },
    /// [`crate::Equivocate`]: zeros below the split, ones above, from
    /// round `start` on.
    Equivocate {
        /// Recipients with ids `< split` hear the all-zeros story.
        split: usize,
        /// First equivocating round (1-based).
        start: usize,
    },
    /// [`crate::Adaptive`]: the rank-`k` member turns at `schedule[k]`.
    Adaptive {
        /// Activation rounds by fault-set rank (ascending id order).
        schedule: &'a [usize],
    },
}

impl VectorFamily<'_> {
    /// The round from which the rank-`rank` member tells its story
    /// instead of relaying its shadow; `None` if it never turns.
    fn turn(&self, rank: usize) -> Option<usize> {
        match *self {
            VectorFamily::Silent
            | VectorFamily::Omission { .. }
            | VectorFamily::RandomLiar { .. } => Some(0),
            VectorFamily::Crash { crash_round } => Some(crash_round),
            VectorFamily::Equivocate { start, .. } => Some(start),
            VectorFamily::Adaptive { schedule } => schedule.get(rank).copied(),
            VectorFamily::ChainRevealer {
                reveal_start,
                stride,
                ..
            } => Some(reveal_start + rank * stride),
        }
    }
}

/// A batch-aware adversary for one of the [`VectorFamily`] strategies
/// over `lanes` runs. It owns no strategy: every lane's lies follow
/// from the family's parameters and, for the seeded families, that
/// lane's seed — exactly what the lane's scalar strategy would send.
pub struct BatchFamily<'a> {
    family: VectorFamily<'a>,
    selection: &'a FaultSelection,
    lanes: usize,
}

impl<'a> BatchFamily<'a> {
    /// The vector rules of `family` over `selection` for `lanes` runs.
    ///
    /// # Panics
    ///
    /// Panics if a seeded family does not carry one seed per lane.
    pub fn new(family: VectorFamily<'a>, selection: &'a FaultSelection, lanes: usize) -> Self {
        let family = match family {
            VectorFamily::Omission { period, phase } => VectorFamily::Omission {
                period: period.max(1),
                phase,
            },
            VectorFamily::ChainRevealer {
                seeds,
                reveal_start,
                stride,
            } => VectorFamily::ChainRevealer {
                seeds,
                reveal_start,
                stride: stride.max(1),
            },
            other => other,
        };
        if let VectorFamily::RandomLiar { seeds } | VectorFamily::ChainRevealer { seeds, .. } =
            family
        {
            assert_eq!(seeds.len(), lanes, "one seed per lane");
        }
        BatchFamily {
            family,
            selection,
            lanes,
        }
    }

    /// Copies a faulty sender's honest-shadow classification to every
    /// recipient, for the lanes in `mask` — the vector form of
    /// `shadow_or_missing` (lanes outside `present` stay missing, `⊥`
    /// shadows land in neither row) — skipping the recipients `dropped`
    /// names. A shadow is `f`'s own: a one-member story, opened only if
    /// it delivers something.
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
        let (row_one, row_zero) = rows.slot(f);
        for r in 0..view.n {
            if r == f || dropped(r) {
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
    /// other members tell it.
    fn constant(
        view: &LaneView<'_>,
        members: u64,
        mask: u64,
        story: impl Fn(usize) -> u16,
        rows: &mut LiarRows,
    ) {
        let (row_one, row_zero) = rows.story(members);
        for r in 0..view.n {
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
    /// multiplies — and the assembled words are masked once.
    fn random(view: &LaneView<'_>, f: usize, mask: u64, seeds: &[u64], rows: &mut LiarRows) {
        let size = view.domain.size();
        let (row_one, row_zero) = rows.slot(f);
        for r in 0..view.n {
            if r == f {
                continue;
            }
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
        self.lanes
    }

    fn corrupt(&mut self, n: usize, t: usize, source: ProcessId, set: &mut ProcessSet) {
        // One seed-free selection: each lane's scalar `corrupt` would
        // return this same set.
        set.clone_from(&self.selection.select(n, t, source));
    }

    fn lies(&mut self, view: &LaneView<'_>, rows: &mut LiarRows) {
        let set = view.faulty;
        // A story replaces the shadow at its length (single values on
        // the narrow path), so it exists in the lanes in which the
        // shadow does — except that a turned adaptive source lies
        // unconditionally in round 1.
        let lanes = |f: usize| {
            let unconditional = matches!(self.family, VectorFamily::Adaptive { .. })
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
        for (rank, f) in set.iter().enumerate() {
            let f = f.index();
            if self.family.turn(rank).is_none_or(|turn| view.round < turn) {
                Self::shadow(view, f, view.active, |_| false, rows);
                continue;
            }
            let mask = lanes(f);
            if mask == 0 {
                continue;
            }
            match self.family {
                VectorFamily::Silent | VectorFamily::Crash { .. } => {}
                VectorFamily::Omission { period, phase } => {
                    let dropped = |r: usize| (view.round + f + r + phase).is_multiple_of(period);
                    Self::shadow(view, f, mask, dropped, rows);
                }
                VectorFamily::Equivocate { .. } | VectorFamily::Adaptive { .. } => {
                    turned |= 1 << f;
                }
                VectorFamily::RandomLiar { seeds } | VectorFamily::ChainRevealer { seeds, .. } => {
                    Self::random(view, f, mask, seeds, rows);
                }
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
                VectorFamily::Equivocate { split, .. } => {
                    Self::constant(view, members, mask, |r| u16::from(r >= split), rows);
                }
                VectorFamily::Adaptive { .. } => {
                    let flipped =
                        (u32::from(view.source_value.raw()) + 1) % u32::from(view.domain.size());
                    Self::constant(view, members, mask, |_| flipped as u16, rows);
                }
                _ => unreachable!("only constant stories are told together"),
            }
        }
    }
}
