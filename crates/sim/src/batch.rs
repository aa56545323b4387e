//! Lock-step batch execution: up to 64 runs per instruction.
//!
//! The scalar engine already packs one *round* into words — a binary
//! broadcast is a [`PackedBallots`](crate::PackedBallots) bit per sender.
//! This module lifts the same trick one level: all seeds of one sweep cell
//! execute **lock-step** in a structure-of-arrays layout, where a binary
//! broadcast becomes one `u64` per processor-slot spanning up to
//! [`MAX_BATCH_RUNS`] runs, majority tallies become full-width bitwise
//! ops across runs, and per-run divergence (runs that stop early at
//! different rounds) is carried by an active-run mask.
//!
//! The division of labour mirrors the scalar engine:
//!
//! * this module owns the *substrate* — the [`BatchArena`] scratch space,
//!   the bit-plane counters ([`LaneCounts`]), and the [`run_batch_with`]
//!   driver that feeds each round's faulty-slot payloads from a
//!   [`BatchAdversary`];
//! * the *protocol semantics* live behind the [`BatchKernel`] trait,
//!   implemented in `sg-core` for the king family (everything else runs
//!   on the scalar engine: the input selects the path).
//!
//! # The adversary side
//!
//! Fault injection is batch-aware too, with one entry point:
//! [`run_batch_with`] takes a [`BatchAdversary`], which chooses **one
//! fault set for the whole batch** in one [`BatchAdversary::corrupt`]
//! call and classifies all faulty payloads of a round directly into lane
//! masks in one [`BatchAdversary::lies`] call — no per-lane payload, view
//! or scalar strategy exists. A family whose lies follow call order
//! rather than a rule over lanes (a `tape` or trace-replay family) has
//! no such vector shape, so its runs take the scalar engine instead: the
//! input selects the path.
//!
//! Per-run outputs are bit-identical to the scalar path by construction:
//! the adversary's lies are the scalar strategy's payloads classified,
//! tallies reproduce [`crate::PackedBallots`] classification exactly (first
//! value, `{0, 1}` only), and retired runs are frozen by the active mask
//! rather than removed, so late rounds cannot disturb them.
//!
//! # The delivered network
//!
//! A correct processor *broadcasts*: every recipient hears the same
//! value. So of the `n × n` deliveries of a round only those of faulty
//! senders can differ per recipient, and [`BatchNet`] stores exactly
//! that: one **honest word** per slot (`one[j] & present[j] &
//! !faulty[j]` — what slot `j` sends to everyone, in the lanes in which
//! it is correct) plus the round's **story rows** ([`LiarRows`]). A
//! story is one per-recipient row of lane words, told alike by every
//! slot of its member mask: the `equivocate` liars that lie in the same
//! lanes share one story, a relayed shadow or a random liar is a
//! one-member story, and a silent liar tells none. Nothing dense is ever
//! built, and a lie is written once per story, not once per liar.
//!
//! The tallies follow the same split. `Σ_j honest[j]` does not depend on
//! the recipient, so it is summed once per round (the *common* tally)
//! and [`BatchNet::tally_one`] / [`BatchNet::tally_zero`] give recipient
//! `i` its full count as common + `own & faulty[i]` + `Σ_s (|s| − [i ∈
//! s]) × row_s[i]` over the stories `s` — one [`LaneCounts::add_times`]
//! per story (a ripple add per set bit of the multiplicity), not one add
//! per liar. This is sound because the common tally already holds `i`'s
//! own vote wherever `i` is correct: a kernel's `own` word is what it
//! classified for slot `i` in [`BatchKernel::outgoing`], so `own &
//! !faulty[i] == honest[i]` (the self-slot identity, debug-asserted on
//! every tally), and `own & faulty[i]` supplies the lanes in which `i`
//! is a faulty shadow that still counts itself. A story row holds bits
//! only in lanes in which its members are faulty — where their honest
//! words are clear — so no lane counts a sender twice, and a member
//! never counts its own story, so a one-member story's word at its
//! sender's own position is never read.
//!
//! Three facts let a kernel compute only what a correct processor reads.
//! A faulty slot's state feeds nothing but its own shadow, so once the
//! adversary relays that shadow no more its state is dead: the
//! adversary names such slots **spent** ([`LiarRows::spend`]), leaves
//! their row positions empty, and a kernel skips them
//! ([`BatchNet::spent`]). A correct recipient's tally is the common
//! tally plus its story words, since its own vote is already in the
//! common one: two correct recipients that get the same word from every
//! story have equal tallies ([`BatchNet::hears_alike`]), and a kernel
//! whose rules read only tallies computes them once per hearing, not
//! once per recipient. Stories make such classes common: a shared
//! `equivocate` or `adaptive` story splits the correct recipients into
//! a few runs of alike slots, and a round without stories makes them
//! all one. And the story words can move a correct recipient's tally
//! only so far: each of the `L` fault-set members tells it at most one
//! first value a round, so its count of ones lies in `[common_one,
//! common_one + L]`, its count of zeros in `[common_zero, common_zero +
//! L]`, and the two rise by at most `L` together. Where every rule a
//! kernel applies answers alike over that whole box in every active
//! lane, no lie can change what the recipient does: the kernel leaves
//! it out of the round's **readers** ([`BatchKernel::readers`]), and an
//! adversary that draws its lies draws none for it
//! ([`LaneView::readers`]). A lie is a pure function of its lane's seed
//! and its edge, so a lie never drawn is one that nothing reads, and
//! every run stays bit-identical. The question is asked lazily, at most
//! once a round, since answering it costs the kernel a pass.
//!
//! # What a lane pays for
//!
//! A batch has one fault set, and a kernel's speech is lane-uniform: a
//! slot speaks in every lane or in none ([`BatchKernel::outgoing`],
//! asserted every round). So the driver's bookkeeping is the same in
//! every lane and is done once, a word or a slot pass at a time. The
//! honest sends are one running total, like the op charge, and a lane
//! keeps the totals it retires with. The common tallies are one
//! carry-save sum ([`LaneCounts::sum`]). One walk over the snapshots
//! settles every lane's lock-in round. Only what differs per lane —
//! kernel state, story rows, the tallies that read them — is held per
//! lane, as bits of a word.

use std::cell::OnceCell;

use crate::engine::RunConfig;
use crate::id::{ProcessId, ProcessSet};
use crate::value::{Value, ValueDomain};

/// Maximum runs per lock-step batch: one bit lane per run in a `u64`.
pub const MAX_BATCH_RUNS: usize = 64;

/// Bit planes for per-lane tallies: 7 planes count up to 127, enough for
/// any sender count at `n ≤ 64`.
const COUNT_PLANES: usize = 7;

/// The tally counter: one count per lane, up to 127, in bit-plane form —
/// plane `p` holds bit `p` of each lane's count. Adding a lane mask is a
/// ripple-carry increment of every set lane at once; comparisons walk the
/// planes MSB-first.
///
/// # Examples
///
/// ```
/// use sg_sim::batch::LaneCounts;
///
/// let mut c = LaneCounts::default();
/// c.add(0b1011); // lanes 0,1,3 += 1
/// c.add(0b0011); // lanes 0,1   += 1
/// assert_eq!(c.ge(2), 0b0011);
/// assert_eq!(c.ge(1), 0b1011);
/// assert_eq!(c.ge(0), !0);
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct LaneCounts {
    planes: [u64; COUNT_PLANES],
}

/// One carry-save step: the `(carry, sum)` planes of `a + b + c`.
#[inline]
fn carry_save(a: u64, b: u64, c: u64) -> (u64, u64) {
    let u = a ^ b;
    ((a & b) | (u & c), u ^ c)
}

// The tally methods are `#[inline]`: kernels in other crates call them
// per recipient, and a method of a non-generic type is not inlined
// across crates otherwise.
impl LaneCounts {
    /// The per-lane count of `words` that hold each lane: a Harley–Seal
    /// carry-save tree, eight words a step into running ones, twos and
    /// fours planes with only the eights rippled in, and the remainder
    /// added plainly — about two operations a word, where a ripple add
    /// per word is a branchy walk up the planes.
    ///
    /// # Examples
    ///
    /// ```
    /// use sg_sim::batch::LaneCounts;
    ///
    /// let c = LaneCounts::sum(&[0b011, 0b110, 0b010, 0b010]);
    /// assert_eq!((c.lane(0), c.lane(1), c.lane(2)), (1, 4, 1));
    /// assert_eq!(LaneCounts::sum(&[!0; 64]).ge(64), !0);
    /// ```
    pub fn sum(words: &[u64]) -> Self {
        debug_assert!(words.len() < 1 << COUNT_PLANES, "lane counter overflow");
        let mut count = LaneCounts::default();
        let (mut ones, mut twos, mut fours) = (0u64, 0u64, 0u64);
        let mut steps = words.chunks_exact(8);
        for w in &mut steps {
            let (twos_a, o) = carry_save(ones, w[0], w[1]);
            let (twos_b, o) = carry_save(o, w[2], w[3]);
            let (fours_a, t) = carry_save(twos, twos_a, twos_b);
            let (twos_a, o) = carry_save(o, w[4], w[5]);
            let (twos_b, o) = carry_save(o, w[6], w[7]);
            let (fours_b, t) = carry_save(t, twos_a, twos_b);
            let (eights, f) = carry_save(fours, fours_a, fours_b);
            (ones, twos, fours) = (o, t, f);
            count.add_at(3, eights);
        }
        // Only the eights have touched the counter: the low planes are
        // the running ones, twos and fours as they stand.
        count.planes[..3].copy_from_slice(&[ones, twos, fours]);
        for &w in steps.remainder() {
            count.add(w);
        }
        count
    }

    /// Adds 1 to every lane set in `mask`.
    #[inline]
    pub fn add(&mut self, mask: u64) {
        self.add_at(0, mask);
    }

    /// Adds `k` to every lane set in `mask`: one ripple add per set bit
    /// of `k`, so a story told by 21 liars costs 3 adds, not 21.
    ///
    /// # Examples
    ///
    /// ```
    /// use sg_sim::batch::LaneCounts;
    ///
    /// let mut c = LaneCounts::default();
    /// c.add(0b110); // lanes 1,2 += 1
    /// c.add_times(21, 0b011); // lanes 0,1 += 21
    /// assert_eq!((c.lane(0), c.lane(1), c.lane(2)), (21, 22, 1));
    /// c.add_times(0, !0); // adds nothing
    /// assert_eq!(c.ge(22), 0b010);
    /// ```
    #[inline]
    pub fn add_times(&mut self, k: usize, mask: u64) {
        debug_assert!(k < 1 << COUNT_PLANES, "lane counter overflow");
        if k == 1 {
            // A one-member story: the plain add, with its first plane
            // known.
            return self.add(mask);
        }
        let mut k = k;
        while k != 0 {
            let plane = k.trailing_zeros() as usize;
            k &= k - 1;
            self.add_at(plane, mask);
        }
    }

    /// Adds `2^from` to every lane set in `mask`: a ripple-carry
    /// increment that starts at plane `from`.
    #[inline]
    fn add_at(&mut self, from: usize, mask: u64) {
        let mut carry = mask;
        for plane in self.planes[from..].iter_mut() {
            if carry == 0 {
                break;
            }
            let sum = *plane ^ carry;
            carry &= *plane;
            *plane = sum;
        }
        debug_assert_eq!(carry, 0, "lane counter overflow");
    }

    /// Lanes whose count is `>= c`.
    #[inline]
    pub fn ge(&self, c: usize) -> u64 {
        debug_assert!(c < (1 << COUNT_PLANES));
        let mut gt = 0u64;
        let mut eq = !0u64;
        for p in (0..COUNT_PLANES).rev() {
            if (c >> p) & 1 == 1 {
                eq &= self.planes[p];
            } else {
                gt |= eq & self.planes[p];
            }
        }
        gt | eq
    }

    /// Lanes where `self > other`.
    #[inline]
    pub fn gt(&self, other: &Self) -> u64 {
        let mut gt = 0u64;
        let mut eq = !0u64;
        for p in (0..COUNT_PLANES).rev() {
            gt |= eq & self.planes[p] & !other.planes[p];
            eq &= !(self.planes[p] ^ other.planes[p]);
        }
        gt
    }

    /// Adopts `new`'s counts in lanes set in `active`, freezing the rest
    /// — the [`BatchKernel`] state-commit rule lifted to counters, for
    /// kernels that carry a tally across rounds.
    #[inline]
    pub fn commit(&mut self, new: &Self, active: u64) {
        for (old, new) in self.planes.iter_mut().zip(new.planes.iter()) {
            *old = (new & active) | (*old & !active);
        }
    }

    /// The count in one lane.
    pub fn lane(&self, lane: usize) -> usize {
        let mut c = 0usize;
        for (p, plane) in self.planes.iter().enumerate() {
            c |= (((plane >> lane) & 1) as usize) << p;
        }
        c
    }
}

/// The stories the liars of one round tell — the sink of
/// [`BatchAdversary::lies`]. A story is one row of `n` lane words per
/// value (`one[r]` / `zero[r]`: the lanes in which each member tells
/// recipient `r` first value `1` / `0`), shared by the slots of its
/// member mask; storage is story-major and a slot tells at most one
/// story a round. [`LiarRows::story`] opens a shared story,
/// [`LiarRows::slot`] a slot's own one-member story; a liar that opens
/// neither tells nothing (its faulty lanes deliver nothing).
///
/// A row word at a member's own position is what the *other* members
/// tell that member: a one-member story's is never read. Rows must hold
/// bits only in lanes in which every member is faulty — see the module
/// docs, "The delivered network". [`LiarRows::spend`] names the round's
/// *spent* slots, whose row positions are never read either.
///
/// # Examples
///
/// ```
/// use sg_sim::batch::LiarRows;
///
/// let mut rows = LiarRows::new(4);
/// // Slots 1 and 3 tell recipients 0 and 1 a `0`, the rest a `1`, in
/// // lanes 0b11.
/// let (one, zero) = rows.story(0b1010);
/// zero[..2].fill(0b11);
/// one[2..].fill(0b11);
/// // Slot 2 relays its own row.
/// rows.slot(2).0[0] = 0b01;
/// assert_eq!(rows.len(), 2);
/// assert_eq!((rows.story_of(3), rows.story_of(2), rows.story_of(0)), (Some(0), Some(1), None));
/// assert_eq!(rows.rows(0).1, &[0b11, 0b11, 0, 0]);
/// // Slot 1's shadow is never relayed again.
/// rows.spend(0b0010);
/// assert_eq!(rows.spent(), 0b0010);
/// ```
pub struct LiarRows {
    /// System size: the length of every row.
    n: usize,
    /// Per story: the slots that tell it.
    members: Vec<u64>,
    /// Per story: its member count.
    weight: Vec<usize>,
    /// Story-major rows with stride `n`: `one[s * n + r]` holds the lanes
    /// in which story `s` tells recipient `r` first value `1`.
    one: Vec<u64>,
    /// Likewise for first value `0`.
    zero: Vec<u64>,
    /// The slots that tell some story this round.
    told: u64,
    /// `story_of[f]`: the story slot `f` tells, where `told` has `f`;
    /// stale elsewhere.
    story_of: [u8; MAX_BATCH_RUNS],
    /// The slots spent this round (see [`LiarRows::spend`]).
    spent: u64,
}

impl LiarRows {
    /// An empty sink for rows of `n` words.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds [`MAX_BATCH_RUNS`]: a member mask is a `u64`.
    pub fn new(n: usize) -> Self {
        let mut rows = LiarRows {
            n: 0,
            members: Vec::new(),
            weight: Vec::new(),
            one: Vec::new(),
            zero: Vec::new(),
            told: 0,
            story_of: [0; MAX_BATCH_RUNS],
            spent: 0,
        };
        rows.reset(n);
        rows
    }

    /// Forgets every story and sets the row length to `n`; buffers keep
    /// their capacity.
    fn reset(&mut self, n: usize) {
        assert!(n <= MAX_BATCH_RUNS, "a member mask holds at most 64 slots");
        self.n = n;
        self.clear();
    }

    /// Forgets every story and every spent slot, keeping the row length
    /// and the buffers' capacity.
    pub fn clear(&mut self) {
        self.members.clear();
        self.weight.clear();
        self.one.clear();
        self.zero.clear();
        self.told = 0;
        self.spent = 0;
    }

    /// Marks the slots of `slots` spent for this round: faulty in every
    /// lane, and relaying their honest shadow in no later round. Such a
    /// slot's state feeds only that shadow, so nothing reads it again: a
    /// kernel need not update it, and a story need not tell it anything
    /// (its row positions stay empty and are never read).
    ///
    /// # Panics
    ///
    /// Panics if `slots` names a slot outside `0..n`.
    pub fn spend(&mut self, slots: u64) {
        assert!(
            self.n == MAX_BATCH_RUNS || slots >> self.n == 0,
            "spent slots are some of the n slots"
        );
        self.spent |= slots;
    }

    /// The slots spent this round, as a slot mask.
    #[inline]
    pub fn spent(&self) -> u64 {
        self.spent
    }

    /// Opens a story told by every slot of `members` and returns its
    /// cleared `(one, zero)` rows.
    ///
    /// # Panics
    ///
    /// Panics if `members` is empty, names a slot outside `0..n`, or
    /// names a slot that already tells a story this round.
    pub fn story(&mut self, members: u64) -> (&mut [u64], &mut [u64]) {
        let n = self.n;
        assert!(
            members != 0 && (n == MAX_BATCH_RUNS || members >> n == 0),
            "a story's members are some of the n slots"
        );
        assert_eq!(members & self.told, 0, "a slot tells one story a round");
        let s = self.members.len();
        self.members.push(members);
        self.weight.push(members.count_ones() as usize);
        self.told |= members;
        let mut w = members;
        while w != 0 {
            self.story_of[w.trailing_zeros() as usize] = s as u8;
            w &= w - 1;
        }
        self.one.resize((s + 1) * n, 0);
        self.zero.resize((s + 1) * n, 0);
        self.rows_mut(s)
    }

    /// Slot `f`'s own one-member story: opened cleared on first use,
    /// the same rows on every later call this round.
    ///
    /// # Panics
    ///
    /// Panics if `f` is outside `0..n` or already tells a story shared
    /// with other slots.
    pub fn slot(&mut self, f: usize) -> (&mut [u64], &mut [u64]) {
        assert!(f < self.n, "slot {f} of {}", self.n);
        match self.story_of(f) {
            None => self.story(1u64 << f),
            Some(s) => {
                assert_eq!(self.members[s], 1u64 << f, "slot {f} tells a shared story");
                self.rows_mut(s)
            }
        }
    }

    fn rows_mut(&mut self, s: usize) -> (&mut [u64], &mut [u64]) {
        let at = s * self.n..(s + 1) * self.n;
        (&mut self.one[at.clone()], &mut self.zero[at])
    }

    /// Number of stories told this round.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether no slot tells a story this round.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The member mask of story `s`.
    pub fn members(&self, s: usize) -> u64 {
        self.members[s]
    }

    /// The `(one, zero)` rows of story `s`.
    pub fn rows(&self, s: usize) -> (&[u64], &[u64]) {
        let at = s * self.n..(s + 1) * self.n;
        (&self.one[at.clone()], &self.zero[at])
    }

    /// The story slot `f` tells this round, if any.
    #[inline]
    pub fn story_of(&self, f: usize) -> Option<usize> {
        let told = f < MAX_BATCH_RUNS && (self.told >> f) & 1 == 1;
        told.then(|| usize::from(self.story_of[f]))
    }
}

impl Default for LiarRows {
    fn default() -> Self {
        LiarRows::new(0)
    }
}

/// The delivered network of one round, classified for binary tallies
/// (see the module docs, "The delivered network"). [`BatchNet::one`]`(j,
/// i)` is the lane mask of runs in which the *first value* of the payload
/// delivered from sender `j` to recipient `i` is `Value(1)`, and
/// [`BatchNet::zero`] likewise for `Value(0)`. Lanes set in neither
/// received `⊥`, an out-of-domain value, or nothing — exactly the
/// three-way classification [`PackedBallots`](crate::PackedBallots)
/// records and the per-payload fallback reproduces.
///
/// Self slots (`i == j`) always read clear, mirroring the scalar
/// engine's `clear(me)`; kernels substitute their own local state, which
/// is the `own` argument of the tallies.
pub struct BatchNet<'a> {
    /// System size.
    n: usize,
    /// `honest_one[j]`: lanes in which slot `j` is correct and broadcasts
    /// first value `1` — delivered to every recipient alike.
    honest_one: &'a [u64],
    /// Likewise for first value `0`.
    honest_zero: &'a [u64],
    /// `faulty[j]`: lanes in which slot `j` is faulty.
    faulty: &'a [u64],
    /// The liars' deliveries, one row per story.
    stories: &'a LiarRows,
    /// `Σ_j honest_one[j]`: what every recipient counts before the liars.
    common_one: LaneCounts,
    /// `Σ_j honest_zero[j]`.
    common_zero: LaneCounts,
    /// The lanes this round delivers to (tallies are meaningful, and the
    /// self-slot identity asserted, only there).
    active: u64,
}

impl<'a> BatchNet<'a> {
    /// Assembles the round's network: one honest word per slot, so `n`
    /// of them, and their common tallies, which the driver sums once
    /// before the liars speak ([`LaneCounts::sum`]: the one pass over
    /// all `n` senders a round pays).
    fn new(
        honest_one: &'a [u64],
        honest_zero: &'a [u64],
        common: (LaneCounts, LaneCounts),
        faulty: &'a [u64],
        stories: &'a LiarRows,
        active: u64,
    ) -> Self {
        debug_assert_eq!(stories.n, honest_one.len(), "story rows of n words");
        debug_assert!(
            (0..stories.n)
                .filter(|&f| (stories.spent >> f) & 1 == 1)
                .all(|f| faulty[f] & active == active),
            "a spent slot is faulty in every active lane"
        );
        BatchNet {
            n: honest_one.len(),
            honest_one,
            honest_zero,
            faulty,
            stories,
            common_one: common.0,
            common_zero: common.1,
            active,
        }
    }

    /// The slots spent this round ([`LiarRows::spend`]): faulty, and
    /// never read again, so a kernel may leave their state as it is.
    #[inline]
    pub fn spent(&self) -> u64 {
        self.stories.spent
    }

    /// Whether recipients `a` and `b` hear alike: both are correct in
    /// every active lane, and every story tells them the same `one` and
    /// the same `zero` word. Then their tallies are equal in every active
    /// lane — a correct recipient's own vote is its honest word, already
    /// in the common tally — so a rule that reads only tallies gives
    /// both the same outputs.
    pub fn hears_alike(&self, a: usize, b: usize) -> bool {
        if (self.faulty[a] | self.faulty[b]) & self.active != 0 {
            return false;
        }
        let stories = self.stories;
        stories
            .one
            .chunks_exact(self.n)
            .zip(stories.zero.chunks_exact(self.n))
            .all(|(one, zero)| one[a] == one[b] && zero[a] == zero[b])
    }

    /// Lane mask of runs delivering first value `1` from `j` to `i`.
    #[inline]
    pub fn one(&self, j: usize, i: usize) -> u64 {
        self.delivered(self.honest_one, &self.stories.one, j, i)
    }

    /// Lane mask of runs delivering first value `0` from `j` to `i`.
    #[inline]
    pub fn zero(&self, j: usize, i: usize) -> u64 {
        self.delivered(self.honest_zero, &self.stories.zero, j, i)
    }

    #[inline]
    fn delivered(&self, honest: &[u64], rows: &[u64], j: usize, i: usize) -> u64 {
        if i == j {
            return 0;
        }
        match self.stories.story_of(j) {
            None => honest[j],
            Some(s) => honest[j] | rows[s * self.n + i],
        }
    }

    /// Per-lane count of first-value-`1` deliveries to recipient `i`,
    /// with `own` — slot `i`'s own broadcast word this round — standing
    /// in the self slot: `Σ_{j ≠ i} one(j, i) + own`, in one counter add
    /// plus one [`LaneCounts::add_times`] per story.
    #[inline]
    pub fn tally_one(&self, i: usize, own: u64) -> LaneCounts {
        self.tally(&self.common_one, self.honest_one, &self.stories.one, i, own)
    }

    /// Per-lane count of first-value-`0` deliveries to recipient `i`; see
    /// [`BatchNet::tally_one`].
    #[inline]
    pub fn tally_zero(&self, i: usize, own: u64) -> LaneCounts {
        self.tally(
            &self.common_zero,
            self.honest_zero,
            &self.stories.zero,
            i,
            own,
        )
    }

    #[inline]
    fn tally(
        &self,
        common: &LaneCounts,
        honest: &[u64],
        rows: &[u64],
        i: usize,
        own: u64,
    ) -> LaneCounts {
        debug_assert_eq!(
            own & !self.faulty[i] & self.active,
            honest[i] & self.active,
            "self-slot identity: `own` must be slot {i}'s classified broadcast"
        );
        let mut count = *common;
        count.add(own & self.faulty[i]);
        let stories = self.stories;
        for ((&members, &weight), row) in stories
            .members
            .iter()
            .zip(&stories.weight)
            .zip(rows.chunks_exact(self.n))
        {
            // A member does not count its own story.
            let k = weight - ((members >> i) & 1) as usize;
            count.add_times(k, row[i]);
        }
        count
    }
}

/// The lane-mask view a [`BatchAdversary`] sees in one round — the
/// batch counterpart of the scalar [`AdversaryView`](crate::AdversaryView).
/// Broadcast classification is per slot: `present[j]` holds the lanes in
/// which slot `j` sent at all this round, `one[j]`/`zero[j]` the lanes in
/// which the sent value reads `1`/`0` (present lanes in neither sent
/// `⊥`). Faulty slots are classified too — their masks describe what the
/// honest *shadow* of that processor would have sent, exactly the
/// `shadow_of` table of the scalar view.
pub struct LaneView<'a> {
    /// Current 1-based round.
    pub round: usize,
    /// System size.
    pub n: usize,
    /// The distinguished source processor.
    pub source: ProcessId,
    /// The source's input value.
    pub source_value: Value,
    /// The agreement domain.
    pub domain: ValueDomain,
    /// Per-slot lane masks: lanes in which the slot broadcasts this round.
    pub present: &'a [u64],
    /// Per-slot lane masks: lanes in which the broadcast value reads `1`.
    pub one: &'a [u64],
    /// Per-slot lane masks: lanes in which the broadcast value reads `0`.
    pub zero: &'a [u64],
    /// The batch's fault set, the same in every lane.
    pub faulty: &'a ProcessSet,
    /// Lanes the adversary must fill this round; all other lanes are
    /// retired and must be left untouched.
    pub active: u64,
    /// The round's readers, as a slot mask: the recipients whose tallies
    /// a story word can still move ([`BatchKernel::readers`]; every
    /// fault-set member is one). A row position outside it is never
    /// read and may stay empty. The call is lazy — the driver asks the
    /// kernel at most once a round, and only if some story calls it — so
    /// a story whose words cost nothing to write need not call it.
    pub readers: &'a dyn Fn() -> u64,
}

/// Batch-aware fault injection: the adversary side of [`run_batch_with`].
///
/// One value of this trait drives *all* lanes of a batch over one fault
/// set and classifies a whole round of faulty payloads into lane masks
/// in one [`BatchAdversary::lies`] call — `sg-adversary`'s `BatchFamily`
/// for the named families. A strategy whose fault set varies by seed has
/// no such form and runs on the scalar engine.
pub trait BatchAdversary {
    /// Number of lanes (runs) this adversary drives, `1..=`[`MAX_BATCH_RUNS`].
    fn lanes(&self) -> usize;

    /// Chooses the batch's fault set — every lane's, for they share it —
    /// by overwriting `set` in place: it arrives holding the caller's
    /// previous batch's set ([`Clone::clone_from`] reuses its buffer).
    /// Called once per batch, before the first round; the driver checks
    /// the set's universe and marks its members faulty in every lane.
    fn corrupt(&mut self, n: usize, t: usize, source: ProcessId, set: &mut ProcessSet);

    /// Classifies every faulty slot's payload to every recipient
    /// directly into story rows ([`LiarRows`], which arrives empty): a
    /// faulty slot `f` whose payload to each recipient `r` is the same
    /// as that of the other members of a story writes it once, into that
    /// story's `one[r]` / `zero[r]`; a slot with a story of its own
    /// writes into [`LiarRows::slot`]; a slot that delivers nothing
    /// opens no story. Rows may hold bits only in lanes of `view.active`
    /// and only for members of `view.faulty`: a correct slot's broadcast
    /// is delivered as sent. Lanes set in neither row deliver `⊥` or
    /// nothing — the same three-way classification as [`BatchNet`].
    ///
    /// A faulty slot whose shadow no later round relays may be named
    /// *spent* through [`LiarRows::spend`]: its state is then never read
    /// again, so the kernel stops updating it and no row word at its
    /// position is read. Spending a slot that a later round still
    /// relays corrupts that relay.
    ///
    /// Row positions of recipients outside [`LaneView::readers`] are not
    /// read this round either, and may stay empty: a lie that costs work
    /// to produce need not be produced for them.
    fn lies(&mut self, view: &LaneView<'_>, rows: &mut LiarRows);
}

/// Protocol semantics for lock-step batch execution: the per-round hooks
/// a family implements so [`run_batch_with`] can drive up to 64 of its
/// runs with full-width bitwise ops. All lane-mask state updates must
/// freeze lanes outside `active` (`new = (active & computed) | (!active
/// & old)`) so early-stopped runs keep their retirement-time state.
pub trait BatchKernel {
    /// Rounds in the schedule; a lane that does not stop early runs all
    /// of them.
    fn total_rounds(&self) -> usize;

    /// Resets all lane state for a fresh batch of `lanes` runs.
    fn reset(&mut self, lanes: usize);

    /// Local-computation charge per processor for `round` — must equal
    /// the scalar protocol's per-slot `ctx.charge` total, which the king
    /// family keeps uniform across slots.
    fn charge(&self, round: usize) -> u64;

    /// Whether `round` emits a preferred-value snapshot (the events the
    /// stability analysis replays to compute lock-in rounds).
    fn snapshot_round(&self, round: usize) -> bool;

    /// Classifies every slot's broadcast for `round` into lane masks,
    /// which arrive cleared: `present[j]` — lanes in which slot `j` sends
    /// at all; `one`/`zero` — lanes in which the sent value is `1`/`0`
    /// (present lanes in neither send `⊥`). Slots are classified
    /// independently of fault status: the engine routes a faulty slot's
    /// broadcast to the shadow table, exactly like the scalar path.
    ///
    /// Speech is **lane-uniform**: each `present[j]` is `0` or `!0` — who
    /// speaks depends on the round alone, never on the lane or on what a
    /// slot heard (a liar tells its story in the lanes its shadow is
    /// present in, and a spent slot's state is stale). The driver counts
    /// a round's honest sends once for every lane on that promise, and
    /// asserts it every round.
    fn outgoing(&mut self, round: usize, present: &mut [u64], one: &mut [u64], zero: &mut [u64]);

    /// Applies one delivered round to all lane state, updating only
    /// lanes in `active`. A slot in [`BatchNet::spent`] may be skipped:
    /// nothing reads its state again.
    fn deliver(&mut self, round: usize, net: &BatchNet<'_>, active: u64);

    /// The round's readers, as a slot mask: the recipients whose
    /// [`BatchKernel::deliver`] this round may read a story word in some
    /// lane of `active`, asked before the liars speak. `common_one` and
    /// `common_zero` are the round's common tallies (what every correct
    /// recipient counts before the story words, see [`BatchNet`]) and
    /// `members` is the fault set; story rows may leave every other
    /// position empty ([`LaneView::readers`]).
    ///
    /// Every member must be named: a faulty recipient's shadow reads
    /// what it is told, and later rounds relay that shadow. A correct
    /// recipient may be left out where its rules answer alike whatever
    /// the `members.count_ones()` liars tell it — over the box of counts
    /// of the module docs, "The delivered network" — or where it reads
    /// no story word at all. Naming every slot is always sound.
    fn readers(
        &self,
        round: usize,
        common_one: &LaneCounts,
        common_zero: &LaneCounts,
        members: u64,
        active: u64,
    ) -> u64;

    /// Per slot, the lanes in which it currently reports
    /// ready-to-decide (at least `n` words).
    fn ready(&self) -> &[u64];

    /// Per slot, the lanes in which its current preferred value is `1`
    /// (at least `n` words).
    fn current(&self) -> &[u64];

    /// Lanes in which `slot` would decide `1` if the run ended now.
    fn decision_one(&self, slot: usize) -> u64;
}

/// The recorded preferred-value snapshots of a batch, flat: snapshot `s`
/// is its round, which lanes actually emitted a preference event in it
/// (retired lanes must not see it), and each slot's preferred-value lane
/// mask at that point. [`Snapshots::settle`] walks them once for every
/// lane; [`Snapshots::lock_in`] then reads a lane's round.
struct Snapshots {
    round: Vec<usize>,
    lanes: Vec<u64>,
    /// `current[s * n + i]`: slot `i`'s preferred-value mask at snapshot `s`.
    current: Vec<u64>,
    /// `bad[s]`: lanes in which some correct slot's preference at `s`
    /// differs from its decision; filled by [`Snapshots::settle`], as
    /// are the words below.
    bad: Vec<u64>,
    /// Lanes with at least one correct slot.
    some_correct: u64,
    /// Lanes that emitted at least one snapshot.
    any: u64,
    /// Lanes whose snapshots end in an agreeing suffix.
    agreeing: u64,
    /// `since[lane]`: the round that lane's agreeing suffix starts at;
    /// read only where `agreeing` holds the lane.
    since: [usize; MAX_BATCH_RUNS],
}

impl Default for Snapshots {
    fn default() -> Self {
        Snapshots {
            round: Vec::new(),
            lanes: Vec::new(),
            current: Vec::new(),
            bad: Vec::new(),
            some_correct: 0,
            any: 0,
            agreeing: 0,
            since: [0; MAX_BATCH_RUNS],
        }
    }
}

impl Snapshots {
    fn clear(&mut self) {
        self.round.clear();
        self.lanes.clear();
        self.current.clear();
        self.bad.clear();
    }

    fn push(&mut self, round: usize, lanes: u64, current: impl Iterator<Item = u64>) {
        self.round.push(round);
        self.lanes.push(lanes);
        self.current.extend(current);
    }

    /// Reduces every snapshot to one word against the final `decisions`
    /// (stride `n = decisions.len()`), over correct slots only, and walks
    /// the words once for every lane at once: a lane's agreeing suffix
    /// closes at a snapshot that is bad in it and opens at the next one
    /// that is not, which writes that snapshot's round into `since`.
    fn settle(&mut self, decisions: &[u64], faulty: &[u64]) {
        let n = decisions.len();
        self.some_correct = faulty.iter().fold(0, |some, f| some | !f);
        (self.any, self.agreeing) = (0, 0);
        self.bad.clear();
        for (s, current) in self.current.chunks_exact(n).enumerate() {
            let bad = (0..n).fold(0, |bad, i| bad | ((current[i] ^ decisions[i]) & !faulty[i]));
            self.bad.push(bad);
            let lanes = self.lanes[s];
            self.any |= lanes;
            self.agreeing &= !(bad & lanes);
            let mut opened = lanes & !bad & !self.agreeing;
            self.agreeing |= opened;
            while opened != 0 {
                self.since[opened.trailing_zeros() as usize] = self.round[s];
                opened &= opened - 1;
            }
        }
    }

    /// The lock-in round of `lane`, after [`Snapshots::settle`]: the
    /// first round of the longest suffix of its snapshots in which
    /// *every* correct slot already prefers its decision (`rounds_used`
    /// if the last one does not) — which is the maximum, over correct
    /// slots, of each slot's own agreeing-suffix start, the stability
    /// analysis' per-processor scan. 0 for a lane that emitted no
    /// snapshot or has no correct slot to lock in.
    fn lock_in(&self, lane: usize, rounds_used: usize) -> usize {
        let bit = 1u64 << lane;
        if self.some_correct & self.any & bit == 0 {
            0
        } else if self.agreeing & bit != 0 {
            self.since[lane]
        } else {
            rounds_used
        }
    }
}

/// Per-run results of a lock-step batch, in lane order. Field semantics
/// match the scalar [`Outcome`](crate::Outcome)-derived sweep sample
/// exactly.
#[derive(Clone, Copy, Default, Debug)]
pub struct BatchRunResult {
    /// Whether all correct processors decided the same value.
    pub agreement: bool,
    /// Rounds actually executed.
    pub rounds_used: usize,
    /// Whether the run stopped before its static schedule.
    pub early_stopped: bool,
    /// System lock-in round (0 when tracing is off, matching the scalar
    /// path's empty-trace analysis).
    pub lock_in: usize,
    /// Total honest bits put on the wire.
    pub total_bits: u64,
    /// Maximum local computation charged to any one processor.
    pub max_local_ops: u64,
}

/// Reusable scratch for [`run_batch_with`] — the batch-path sibling of
/// the scalar [`RunArena`](crate::RunArena). Holding one per worker
/// thread keeps the steady-state round loop allocation-free.
#[derive(Default)]
pub struct BatchArena {
    // Per-slot broadcast classification for the current round.
    present: Vec<u64>,
    one: Vec<u64>,
    zero: Vec<u64>,
    // The delivered network (see `BatchNet`): honest words per slot, and
    // the liars' story rows.
    honest_one: Vec<u64>,
    honest_zero: Vec<u64>,
    stories: LiarRows,
    // Faulty lane mask per slot, and the batch's fault set.
    faulty: Vec<u64>,
    fault_set: ProcessSet,
    // Preferred-value snapshots, walked once for every lane's lock-in
    // round, and the final decisions they are walked against.
    snapshots: Snapshots,
    decisions: Vec<u64>,
    // Per-lane accounting. Honest sends and the per-slot charge are the
    // same in every active lane each round (speech is lane-uniform), so
    // each is one running total, and a lane keeps the totals it retires
    // with; the rest is per lane.
    sends: Vec<u64>,
    ops: Vec<u64>,
    rounds_used: Vec<usize>,
    early_stopped: Vec<bool>,
    results: Vec<BatchRunResult>,
}

impl BatchArena {
    /// A fresh arena; buffers grow on first use and are recycled after.
    pub fn new() -> Self {
        BatchArena::default()
    }

    /// The per-run results of the most recent [`run_batch_with`] call,
    /// in lane (seed) order.
    pub fn results(&self) -> &[BatchRunResult] {
        &self.results
    }

    fn reset(&mut self, n: usize, lanes: usize) {
        for buf in [
            &mut self.present,
            &mut self.one,
            &mut self.zero,
            &mut self.honest_one,
            &mut self.honest_zero,
            &mut self.faulty,
        ] {
            buf.clear();
            buf.resize(n, 0);
        }
        self.stories.reset(n);
        self.snapshots.clear();
        self.decisions.clear();
        for buf in [&mut self.sends, &mut self.ops] {
            buf.clear();
            buf.resize(lanes, 0);
        }
        self.rounds_used.clear();
        self.rounds_used.resize(lanes, 0);
        self.early_stopped.clear();
        self.early_stopped.resize(lanes, false);
        self.results.clear();
        self.results.resize(lanes, BatchRunResult::default());
    }
}

/// Executes up to [`MAX_BATCH_RUNS`] runs of one configuration in
/// lock-step, their faults injected at word width by `adversary`.
/// Results land in [`BatchArena::results`], in lane order.
///
/// # Panics
///
/// Panics if the adversary drives zero or more than [`MAX_BATCH_RUNS`]
/// lanes, or corrupts the wrong universe, or if the kernel's speech is
/// not lane-uniform (see [`BatchKernel::outgoing`]).
pub fn run_batch_with(
    arena: &mut BatchArena,
    config: &RunConfig,
    kernel: &mut dyn BatchKernel,
    adversary: &mut dyn BatchAdversary,
) {
    let n = config.n;
    let lanes = adversary.lanes();
    assert!(
        (1..=MAX_BATCH_RUNS).contains(&lanes),
        "1..=64 lanes per batch"
    );
    assert!(
        n <= MAX_BATCH_RUNS,
        "at most 64 slots: a story's member mask is a word"
    );
    arena.reset(n, lanes);
    let mut active: u64 = if lanes == MAX_BATCH_RUNS {
        !0
    } else {
        (1u64 << lanes) - 1
    };

    // Choose the fault set up front, exactly once per batch — the
    // once-per-run contract the scalar engine honours — and mark its
    // members faulty in every lane.
    adversary.corrupt(n, config.t, config.source, &mut arena.fault_set);
    assert_eq!(
        arena.fault_set.universe(),
        n,
        "adversary corrupted the wrong universe"
    );
    let mut members = 0u64;
    for p in arena.fault_set.iter() {
        arena.faulty[p.index()] = active;
        members |= 1 << p.index();
    }

    let total_rounds = kernel.total_rounds();
    kernel.reset(lanes);
    let early = config.early_stopping;
    let src = config.source.index();
    // Every active lane is charged alike and hears the same correct
    // slots speak each round, so one running total of each serves them
    // all; a lane keeps the totals it retires with.
    let (mut ops, mut sends) = (0u64, 0u64);

    let mut round = 0usize;
    while active != 0 && round < total_rounds {
        round += 1;
        for buf in [&mut arena.present, &mut arena.one, &mut arena.zero] {
            buf.iter_mut().for_each(|w| *w = 0);
        }
        kernel.outgoing(round, &mut arena.present, &mut arena.one, &mut arena.zero);

        // One slot pass. Speech is lane-uniform: a word other than 0 or
        // !0 differs from its own rotation. A correct slot's classified
        // outgoing reaches every recipient unchanged — one honest word
        // per slot, beside the adversary's per-recipient story rows —
        // and a member's reaches nobody. Every payload is one value of
        // one bit, fanned out to n − 1 recipients at finalize.
        let mut mixed = 0u64;
        let (present, one, zero) = (&arena.present[..n], &arena.one[..n], &arena.zero[..n]);
        let (honest_one, honest_zero) = (&mut arena.honest_one[..n], &mut arena.honest_zero[..n]);
        for j in 0..n {
            mixed |= present[j] ^ present[j].rotate_left(1);
            let sent = if (members >> j) & 1 == 0 {
                present[j]
            } else {
                0
            };
            sends += sent & 1;
            honest_one[j] = one[j] & sent;
            honest_zero[j] = zero[j] & sent;
        }
        assert_eq!(mixed, 0, "a slot speaks in every lane or in none");
        ops += kernel.charge(round);

        // The common tallies, summed once: the read question and every
        // recipient's tally start from them.
        let common = (
            LaneCounts::sum(&arena.honest_one[..n]),
            LaneCounts::sum(&arena.honest_zero[..n]),
        );

        // One call tells every faulty slot's stories for all active
        // lanes at once; the kernel's read question is put to it lazily,
        // so a round in which no story asks pays nothing for it.
        arena.stories.clear();
        let answer = OnceCell::new();
        let readers = || {
            *answer.get_or_init(|| {
                let read = kernel.readers(round, &common.0, &common.1, members, active);
                debug_assert_eq!(read & members, members, "every member is a reader");
                read
            })
        };
        let view = LaneView {
            round,
            n,
            source: config.source,
            source_value: config.source_value,
            domain: config.domain,
            present: &arena.present,
            one: &arena.one,
            zero: &arena.zero,
            faulty: &arena.fault_set,
            active,
            readers: &readers,
        };
        adversary.lies(&view, &mut arena.stories);

        let net = BatchNet::new(
            &arena.honest_one,
            &arena.honest_zero,
            common,
            &arena.faulty,
            &arena.stories,
            active,
        );
        kernel.deliver(round, &net, active);

        if config.trace && kernel.snapshot_round(round) {
            let current = kernel.current()[..n].iter().copied();
            arena.snapshots.push(round, active, current);
        }

        // Early stop: retire lanes in which every correct processor is
        // ready. The source processor holds the input and is always
        // ready; faulty slots are exempt per lane.
        if early && round < total_rounds {
            let mut stop = active;
            for (i, (&ready, &faulty)) in kernel.ready()[..n].iter().zip(&arena.faulty).enumerate()
            {
                if i != src {
                    stop &= ready | faulty;
                }
            }
            let mut w = stop;
            while w != 0 {
                let lane = w.trailing_zeros() as usize;
                w &= w - 1;
                arena.rounds_used[lane] = round;
                arena.early_stopped[lane] = true;
                arena.ops[lane] = ops;
                arena.sends[lane] = sends;
            }
            active &= !stop;
        }
    }
    {
        let mut w = active;
        while w != 0 {
            let lane = w.trailing_zeros() as usize;
            w &= w - 1;
            arena.rounds_used[lane] = total_rounds;
            arena.ops[lane] = ops;
            arena.sends[lane] = sends;
        }
    }

    // Finalize at word width, then read out per lane: agreement is "no
    // two correct slots decide differently", and one walk of the
    // snapshots settles every lane's lock-in round.
    arena
        .decisions
        .extend((0..n).map(|i| kernel.decision_one(i)));
    let (mut decides_one, mut decides_zero) = (0u64, 0u64);
    for i in 0..n {
        decides_one |= arena.decisions[i] & !arena.faulty[i];
        decides_zero |= !arena.decisions[i] & !arena.faulty[i];
    }
    arena.snapshots.settle(&arena.decisions, &arena.faulty);
    for lane in 0..lanes {
        arena.results[lane] = BatchRunResult {
            agreement: (decides_one & decides_zero) >> lane & 1 == 0,
            rounds_used: arena.rounds_used[lane],
            early_stopped: arena.early_stopped[lane],
            // No snapshots without tracing, so 0 then.
            lock_in: arena.snapshots.lock_in(lane, arena.rounds_used[lane]),
            total_bits: arena.sends[lane] * (n as u64 - 1),
            max_local_ops: arena.ops[lane],
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_counts_add_and_compare() {
        let mut a = LaneCounts::default();
        for _ in 0..11 {
            a.add(0b01);
        }
        for _ in 0..7 {
            a.add(0b10);
        }
        assert_eq!(a.lane(0), 11);
        assert_eq!(a.lane(1), 7);
        assert_eq!(a.ge(8), 0b01);
        assert_eq!(a.ge(7), 0b11);
        assert_eq!(a.ge(12) & 0b11, 0);

        let mut b = LaneCounts::default();
        for _ in 0..9 {
            b.add(0b11);
        }
        // lane 0: 11 > 9, lane 1: 7 < 9.
        assert_eq!(a.gt(&b) & 0b11, 0b01);
        assert_eq!(b.gt(&a) & 0b11, 0b10);
        assert_eq!(a.gt(&a), 0);
    }

    #[test]
    fn lane_counts_ge_zero_is_universal() {
        let c = LaneCounts::default();
        assert_eq!(c.ge(0), !0);
        assert_eq!(c.ge(1), 0);
    }

    /// The common tallies of `honest_one` and `honest_zero`, as the
    /// driver sums them.
    fn sums(honest_one: &[u64], honest_zero: &[u64]) -> (LaneCounts, LaneCounts) {
        (LaneCounts::sum(honest_one), LaneCounts::sum(honest_zero))
    }

    /// SplitMix64: the tests' only source of randomness.
    struct Mix(u64);

    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, bound: usize) -> usize {
            (self.next() % bound as u64) as usize
        }

        /// A word with about one bit in `2^thinning` set.
        fn sparse(&mut self, thinning: usize) -> u64 {
            (0..thinning).fold(!0, |w, _| w & self.next())
        }
    }

    #[test]
    fn add_times_equals_repeated_adds() {
        let mut rng = Mix(11);
        for k in 0..=64 {
            for _ in 0..8 {
                let mask = match rng.below(3) {
                    0 => !0,
                    1 => rng.next(),
                    _ => rng.sparse(3),
                };
                // Random prior counts, low enough that k more fit.
                let mut prior = LaneCounts::default();
                for _ in 0..rng.below(128 - k) {
                    prior.add(rng.next());
                }
                let mut repeated = prior;
                for _ in 0..k {
                    repeated.add(mask);
                }
                let mut times = prior;
                times.add_times(k, mask);
                for lane in 0..MAX_BATCH_RUNS {
                    assert_eq!(times.lane(lane), repeated.lane(lane), "k={k} lane={lane}");
                }
            }
        }
    }

    #[test]
    fn tallies_equal_the_dense_per_sender_sum() {
        let mut rng = Mix(17);
        let (mut shared, mut own, mut mute) = (0, 0, 0);
        for _ in 0..200 {
            let n = 2 + rng.below(63);
            // Up to n/3 liars: some faulty in every lane (what one fault
            // set per batch writes), some in a few lanes only (the net
            // does not assume lane-uniform words).
            let mut faulty = vec![0u64; n];
            for _ in 0..rng.below(n / 3 + 1) {
                faulty[rng.below(n)] = match rng.below(3) {
                    0 => !0,
                    1 => rng.next(),
                    _ => rng.sparse(3),
                };
            }
            // Every slot's own classification, fault-blind as a kernel's
            // `outgoing` is: absent lanes, and present lanes reading ⊥.
            let present: Vec<u64> = (0..n).map(|_| rng.next() | rng.next()).collect();
            let one: Vec<u64> = (0..n).map(|j| rng.next() & present[j]).collect();
            let zero: Vec<u64> = (0..n).map(|j| rng.next() & present[j] & !one[j]).collect();
            let honest_one: Vec<u64> = (0..n).map(|j| one[j] & !faulty[j]).collect();
            let honest_zero: Vec<u64> = (0..n).map(|j| zero[j] & !faulty[j]).collect();
            // The dense network as `run_batch_with` used to merge it, per
            // sender: the honest word, plus whatever the sender's story
            // tells below.
            let mut dense_one = vec![0u64; n * n];
            let mut dense_zero = vec![0u64; n * n];
            for j in 0..n {
                for i in (0..n).filter(|&i| i != j) {
                    dense_one[j * n + i] = honest_one[j];
                    dense_zero[j * n + i] = honest_zero[j];
                }
            }
            // The liars in random order, cut into groups of 1 to 4: a
            // group shares one story (lying in the lanes all its members
            // are faulty in), tells a one-member story, or tells nothing.
            let mut liars: Vec<usize> = (0..n).filter(|&j| faulty[j] != 0).collect();
            for k in (1..liars.len()).rev() {
                liars.swap(k, rng.below(k + 1));
            }
            let mut stories = LiarRows::new(n);
            let mut rest = &liars[..];
            while !rest.is_empty() {
                let size = 1 + rng.below(rest.len().min(4));
                let (group, tail) = rest.split_at(size);
                rest = tail;
                if rng.below(5) == 0 {
                    mute += size;
                    continue;
                }
                let members = group.iter().fold(0u64, |m, &f| m | 1 << f);
                let lanes = group.iter().fold(!0u64, |l, &f| l & faulty[f]);
                let (row_one, row_zero) = if size == 1 {
                    own += 1;
                    stories.slot(group[0])
                } else {
                    shared += 1;
                    stories.story(members)
                };
                for i in 0..n {
                    if size == 1 && i == group[0] {
                        // A one-member story's own position: garbage,
                        // which nobody may read.
                        row_one[i] = rng.next();
                        row_zero[i] = rng.next();
                        continue;
                    }
                    // What every member other than `i` tells `i`.
                    row_one[i] = rng.next() & lanes;
                    row_zero[i] = rng.next() & lanes & !row_one[i];
                    for &f in group.iter().filter(|&&f| f != i) {
                        dense_one[f * n + i] |= row_one[i];
                        dense_zero[f * n + i] |= row_zero[i];
                    }
                }
            }
            let net = BatchNet::new(
                &honest_one,
                &honest_zero,
                sums(&honest_one, &honest_zero),
                &faulty,
                &stories,
                !0,
            );
            for i in 0..n {
                let got_one = net.tally_one(i, one[i]);
                let got_zero = net.tally_zero(i, zero[i]);
                for lane in 0..MAX_BATCH_RUNS {
                    let count = |dense: &[u64], own: u64| {
                        (0..n)
                            .filter(|&j| {
                                (if j == i { own } else { dense[j * n + i] }) >> lane & 1 == 1
                            })
                            .count()
                    };
                    assert_eq!(got_one.lane(lane), count(&dense_one, one[i]), "n={n} i={i}");
                    assert_eq!(
                        got_zero.lane(lane),
                        count(&dense_zero, zero[i]),
                        "n={n} i={i}"
                    );
                }
                for j in 0..n {
                    assert_eq!(net.one(j, i), dense_one[j * n + i], "n={n} {j}->{i}");
                    assert_eq!(net.zero(j, i), dense_zero[j * n + i], "n={n} {j}->{i}");
                }
            }
        }
        // Every kind of liar was exercised.
        assert!(
            shared > 100 && own > 100 && mute > 50,
            "{shared} {own} {mute}"
        );
    }

    /// Recipients whose tallies `hears_alike` may share, over lane-varying
    /// words: slots 9 and 10 tell one story, slot 11 its own; slot 8 is
    /// faulty in one active lane only, slot 7 in a retired lane only.
    /// Recipients 0, 1, 7 and 8 are told the same words by both stories,
    /// 2 and 3 the same `one` words as they but another `zero` word.
    #[test]
    fn recipients_hear_alike_when_correct_and_told_the_same_words() {
        let mut rng = Mix(31);
        let n = 12;
        for _ in 0..50 {
            // Lane 0 retired, lane 1 active, the rest at random.
            let active = (rng.next() | 0b10) & !0b01;
            let mut faulty = vec![0u64; n];
            faulty[9..].fill(!0);
            faulty[8] = 0b10;
            faulty[7] = 0b01;
            let honest_one: Vec<u64> = (0..n).map(|j| rng.next() & !faulty[j]).collect();
            let honest_zero: Vec<u64> = (0..n)
                .map(|j| rng.next() & !honest_one[j] & !faulty[j])
                .collect();
            // Words that vary from lane to lane; `other_zero` differs
            // from `zero` in some active lane.
            let (one, zero) = (rng.next() & !0b10, rng.next());
            let other_zero = zero ^ (rng.next() & active | 0b10);
            let mut stories = LiarRows::new(n);
            let (row_one, row_zero) = stories.story(0b0110_0000_0000);
            for r in 0..n {
                (row_one[r], row_zero[r]) = match r {
                    0 | 1 | 7 | 8 => (one, zero & !one),
                    2 | 3 => (one, other_zero & !one),
                    _ => (rng.next(), rng.next()),
                };
            }
            let told = rng.next();
            let (row_one, row_zero) = stories.slot(11);
            row_one.fill(told);
            row_zero.fill(!told);
            let net = BatchNet::new(
                &honest_one,
                &honest_zero,
                sums(&honest_one, &honest_zero),
                &faulty,
                &stories,
                active,
            );

            // Equal rows from every story: alike, and the tallies agree in
            // every active lane.
            for (a, b) in [(0, 1), (1, 0), (2, 3), (0, 0)] {
                assert!(net.hears_alike(a, b), "{a} ~ {b}");
                let (one_a, one_b) = (
                    net.tally_one(a, honest_one[a]),
                    net.tally_one(b, honest_one[b]),
                );
                let (zero_a, zero_b) = (
                    net.tally_zero(a, honest_zero[a]),
                    net.tally_zero(b, honest_zero[b]),
                );
                for lane in (0..MAX_BATCH_RUNS).filter(|&l| active >> l & 1 == 1) {
                    assert_eq!(one_a.lane(lane), one_b.lane(lane), "{a} ~ {b} lane {lane}");
                    assert_eq!(
                        zero_a.lane(lane),
                        zero_b.lane(lane),
                        "{a} ~ {b} lane {lane}"
                    );
                }
            }
            // Equal `one` rows, a differing `zero` row: not alike.
            assert!(!net.hears_alike(1, 2) && !net.hears_alike(3, 0));
            // Faulty in one active lane, told the same words: never alike,
            // whichever side it is on; nor is a story's member.
            for faulty_slot in [8, 9] {
                assert!(!net.hears_alike(0, faulty_slot) && !net.hears_alike(faulty_slot, 0));
            }
            assert!(!net.hears_alike(8, 8));
            // Faulty in a retired lane only: correct wherever it counts.
            assert!(net.hears_alike(0, 7) && net.hears_alike(7, 1));
        }
    }

    #[test]
    fn spent_slots_are_reported_until_the_rows_are_cleared() {
        let mut rows = LiarRows::new(12);
        rows.slot(11).0[3] = 1;
        rows.spend(0b0010_0000_0000);
        rows.spend(0b1000_0000_0000);
        assert_eq!(rows.spent(), 0b1010_0000_0000);
        let faulty = [0, 0, 0, 0, 0, 0, 0, 0, 0, !0, 0, !0];
        let honest = [0; 12];
        let net = BatchNet::new(&honest, &honest, sums(&honest, &honest), &faulty, &rows, !0);
        assert_eq!(net.spent(), 0b1010_0000_0000);
        rows.clear();
        assert_eq!(rows.spent(), 0);
        // A fresh round spends afresh.
        rows.spend(0b0010_0000_0000);
        assert_eq!(rows.spent(), 0b0010_0000_0000);
    }

    #[test]
    #[should_panic(expected = "spent slots are some of the n slots")]
    fn a_spent_slot_outside_the_system_is_refused() {
        LiarRows::new(8).spend(1 << 8);
    }

    #[test]
    fn a_slot_tells_one_story_a_round() {
        let mut rows = LiarRows::new(8);
        rows.story(0b0110).0[3] = 1;
        rows.slot(5).1[0] = 2;
        // `slot` finds the story it opened, `story_of` either one.
        assert_eq!(rows.slot(5).1[0], 2);
        assert_eq!(
            (rows.len(), rows.story_of(2), rows.story_of(5)),
            (2, Some(0), Some(1))
        );
        assert_eq!((rows.story_of(0), rows.story_of(100)), (None, None));
        rows.clear();
        assert!(rows.is_empty());
        assert_eq!(rows.story_of(2), None);
        // A story reopened after a clear starts cleared.
        assert_eq!(rows.story(0b0110).0, &[0; 8]);
    }

    #[test]
    #[should_panic(expected = "tells a shared story")]
    fn a_shared_story_is_no_slot_of_its_own() {
        let mut rows = LiarRows::new(8);
        rows.story(0b0110);
        rows.slot(1);
    }

    #[test]
    #[should_panic(expected = "slot 8 of 8")]
    fn a_slot_outside_the_system_is_refused() {
        LiarRows::new(8).slot(8);
    }

    #[test]
    #[should_panic(expected = "a slot tells one story a round")]
    fn stories_do_not_overlap() {
        let mut rows = LiarRows::new(8);
        rows.story(0b0110);
        rows.story(0b1000_0100);
    }

    #[test]
    fn lane_counts_sum_equals_repeated_adds() {
        let mut rng = Mix(29);
        for len in 0..=64 {
            for kind in 0..4 {
                let words: Vec<u64> = (0..len)
                    .map(|_| match kind {
                        0 => !0,
                        1 => 0,
                        2 => rng.next(),
                        _ => rng.sparse(3),
                    })
                    .collect();
                let mut repeated = LaneCounts::default();
                words.iter().for_each(|&w| repeated.add(w));
                let sum = LaneCounts::sum(&words);
                assert_eq!(sum.planes, repeated.planes, "len={len} kind={kind}");
                for lane in 0..MAX_BATCH_RUNS {
                    assert_eq!(sum.lane(lane), repeated.lane(lane), "len={len} lane={lane}");
                }
            }
        }
        // 64 all-ones words read 64 in every lane: the top plane alone.
        let full = LaneCounts::sum(&[!0; 64]);
        assert_eq!(full.planes, [0, 0, 0, 0, 0, 0, !0]);
        assert_eq!((full.lane(17), full.ge(64), full.ge(65)), (64, !0, 0));
    }

    /// Slot 0 speaks in lane 0 alone from round 2 on; nobody is faulty.
    struct Patchy;

    impl BatchKernel for Patchy {
        fn total_rounds(&self) -> usize {
            3
        }

        fn reset(&mut self, _lanes: usize) {}

        fn charge(&self, _round: usize) -> u64 {
            1
        }

        fn snapshot_round(&self, _round: usize) -> bool {
            false
        }

        fn outgoing(&mut self, round: usize, present: &mut [u64], one: &mut [u64], _: &mut [u64]) {
            present.fill(!0);
            present[0] = if round == 1 { !0 } else { 0b1 };
            one.copy_from_slice(present);
        }

        fn deliver(&mut self, _round: usize, _net: &BatchNet<'_>, _active: u64) {}

        fn readers(&self, _: usize, _: &LaneCounts, _: &LaneCounts, _: u64, _: u64) -> u64 {
            !0
        }

        fn ready(&self) -> &[u64] {
            &[0; 4]
        }

        fn current(&self) -> &[u64] {
            &[0; 4]
        }

        fn decision_one(&self, _slot: usize) -> u64 {
            0
        }
    }

    struct Nobody;

    impl BatchAdversary for Nobody {
        fn lanes(&self) -> usize {
            MAX_BATCH_RUNS
        }

        fn corrupt(&mut self, n: usize, _t: usize, _source: ProcessId, set: &mut ProcessSet) {
            *set = ProcessSet::new(n);
        }

        fn lies(&mut self, _view: &LaneView<'_>, _rows: &mut LiarRows) {}
    }

    #[test]
    #[should_panic(expected = "a slot speaks in every lane or in none")]
    fn speech_that_differs_by_lane_is_refused() {
        let config = RunConfig::new(4, 1).fixed_length();
        run_batch_with(&mut BatchArena::new(), &config, &mut Patchy, &mut Nobody);
    }

    /// [`Snapshots::lock_in`] walked for one lane alone, over the words
    /// [`Snapshots::settle`] wrote: the oracle of the all-lanes walk.
    fn lock_in_lane_by_lane(snaps: &Snapshots, bit: u64, rounds_used: usize) -> usize {
        if snaps.some_correct & bit == 0 {
            return 0;
        }
        let mut any = false;
        let mut candidate: Option<usize> = None;
        for s in 0..snaps.round.len() {
            if snaps.lanes[s] & bit == 0 {
                continue;
            }
            any = true;
            if snaps.bad[s] & bit != 0 {
                candidate = None;
            } else if candidate.is_none() {
                candidate = Some(snaps.round[s]);
            }
        }
        if any {
            candidate.unwrap_or(rounds_used)
        } else {
            0
        }
    }

    /// The lock-in round as the stability analysis defines it, slot by
    /// slot: each correct processor's candidate is the first round of
    /// the suffix of its own preference events that already shows its
    /// decision, and the system locks in when the last one does.
    fn lock_in_per_slot(
        snaps: &Snapshots,
        decisions: &[u64],
        faulty: &[u64],
        bit: u64,
        rounds_used: usize,
    ) -> usize {
        let n = decisions.len();
        let mut lock_in = 0;
        for i in (0..n).filter(|&i| faulty[i] & bit == 0) {
            let d = decisions[i] & bit != 0;
            let mut candidate = None;
            let mut any = false;
            for s in 0..snaps.round.len() {
                if snaps.lanes[s] & bit == 0 {
                    continue;
                }
                any = true;
                if (snaps.current[s * n + i] & bit != 0) != d {
                    candidate = None;
                } else if candidate.is_none() {
                    candidate = Some(snaps.round[s]);
                }
            }
            if any {
                lock_in = lock_in.max(candidate.unwrap_or(rounds_used));
            }
        }
        lock_in
    }

    #[test]
    fn word_width_lock_in_walk_equals_the_per_slot_walk() {
        let mut rng = Mix(43);
        let mut snaps = Snapshots::default();
        let (mut settled, mut unsettled, mut silent, mut reopened) = (0, 0, 0, 0);
        for _ in 0..200 {
            let n = 1 + rng.below(24);
            let decisions: Vec<u64> = (0..n).map(|_| rng.next()).collect();
            let mut faulty: Vec<u64> = (0..n).map(|_| rng.sparse(2)).collect();
            // Lane 5 has no correct slot; lane 6 never snapshots.
            faulty.iter_mut().for_each(|f| *f |= 1 << 5);
            snaps.clear();
            let mut round = 0;
            let mut live = !(1u64 << 6);
            for s in 0..rng.below(12) {
                round += 1 + rng.below(3);
                // Lanes retire for good; a snapshot may name any subset
                // of the live ones (the walk assumes nothing more).
                live &= !rng.sparse(4);
                let lanes = live & (rng.next() | rng.next());
                // Preferences drift towards the decisions.
                let noise = 1 + s / 2;
                let current: Vec<u64> = decisions.iter().map(|d| d ^ rng.sparse(noise)).collect();
                snaps.push(round, lanes, current.into_iter());
            }
            snaps.settle(&decisions, &faulty);
            for lane in 0..MAX_BATCH_RUNS {
                let bit = 1u64 << lane;
                let rounds_used = round + rng.below(2);
                // The all-lanes walk, the one-lane walk over the same
                // words, and the stability analysis' per-slot walk.
                let got = snaps.lock_in(lane, rounds_used);
                let lane_by_lane = lock_in_lane_by_lane(&snaps, bit, rounds_used);
                let want = lock_in_per_slot(&snaps, &decisions, &faulty, bit, rounds_used);
                assert_eq!(got, want, "n={n} lane={lane}");
                assert_eq!(lane_by_lane, want, "n={n} lane={lane}");
                match got {
                    0 => silent += 1,
                    r if r == rounds_used => unsettled += 1,
                    _ => settled += 1,
                }
                if lane == 5 || lane == 6 {
                    assert_eq!(got, 0);
                }
                // A suffix that opened, closed and opened again: `since`
                // must be rewritten at the reopening, and a stale round
                // from an earlier batch on the same arena never read.
                let walk: Vec<bool> = (0..snaps.round.len())
                    .filter(|&s| snaps.lanes[s] & bit != 0)
                    .map(|s| snaps.bad[s] & bit != 0)
                    .collect();
                let closed = walk.windows(2).any(|w| !w[0] && w[1]);
                if got != 0 && got != rounds_used && closed {
                    reopened += 1;
                }
            }
        }
        // The cases are not all one kind.
        assert!(settled > 1000 && unsettled > 1000 && silent > 400);
        assert!(reopened > 400, "{reopened}");
    }
}
