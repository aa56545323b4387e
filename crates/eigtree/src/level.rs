//! Bit-sliced level storage: one `u64` plane per value bit.
//!
//! A level of `len` slots is stored as planes of `⌈len/64⌉` words each:
//! bit `i % 64` of word `i / 64` of plane `b` is bit `b` of slot `i`'s
//! value. A binary level — every run on the binary domain — holds exactly
//! one plane. The number of planes is chosen by the data: writing a value
//! that needs more bits adds planes, so a wide domain's levels carry
//! `⌈log₂(max + 1)⌉` of them and no setting picks the layout. A converted
//! level may also carry a `⊥` plane after the value planes (set bit:
//! the slot holds `⊥`, its value bits are zero).
//!
//! The rules of the tree machine read a node's children as a contiguous
//! slot range ([`crate::Shape`]'s canonical order), so they become word
//! operations on that range:
//!
//! * [`Planes::count`] of a value is a popcount of the AND over planes of
//!   each plane or its complement, as the value's bit says;
//! * the strict-majority candidate takes each bit by majority over its
//!   plane — a value held by more than half the slots decides every one
//!   of its bits that way — and the candidate is then verified by a
//!   count, so [`Planes::majority`] equals the slot-by-slot strict
//!   majority whatever the data;
//! * on one-plane data (every binary run) a node's counts of 0s, 1s and
//!   `⊥`s are popcounts of its child window ([`Binary`]'s tally), which
//!   settle the majority and `resolve'`'s unique `t + 1` rule at once;
//!   wider data walks the range's slots for `resolve'`.

use std::ops::Range;

use sg_sim::Value;

use crate::resolve::Res;

/// Every value of `V`: slots hold bits, not `Value`s, so
/// [`Planes::iter`] hands out references into this table.
static VALUES: [Value; 1 << 16] = {
    let mut table = [Value::DEFAULT; 1 << 16];
    let mut raw = 0;
    while raw < table.len() {
        table[raw] = Value(raw as u16);
        raw += 1;
    }
    table
};

/// Bits needed to store `v` (at least one plane).
fn planes_for(v: Value) -> usize {
    (u16::BITS - v.raw().leading_zeros()).max(1) as usize
}

/// The low `len` bits, all of them from 64 on.
#[inline]
pub(crate) fn low_bits(len: usize) -> u64 {
    if len >= 64 {
        u64::MAX
    } else {
        (1 << len) - 1
    }
}

/// The `width ≤ 64` bits of `words` starting at bit `lo`, as one word
/// (bit 0 is slot `lo`): a node's children, whatever word they start in.
#[inline]
fn window(words: &[u64], lo: usize, width: usize) -> u64 {
    let (w, b) = (lo / 64, lo % 64);
    let mut bits = words[w] >> b;
    if b + width > 64 {
        bits |= words[w + 1] << (64 - b);
    }
    bits & low_bits(width)
}

/// Set bits per byte value.
static BYTE_ONES: [u8; 256] = {
    let mut table = [0u8; 256];
    let mut b = 0;
    while b < 256 {
        table[b] = (b as u32).count_ones() as u8;
        b += 1;
    }
    table
};

/// The set bits of a window `width` wide: two table reads when it is at
/// most 16 wide (every child window of a tree at `n ≤ 17`). Builds for
/// baseline x86-64 have no popcount instruction, and `count_ones` there
/// is a dozen dependent operations.
#[inline]
fn ones16(bits: u64, width: usize) -> usize {
    if width <= 16 {
        usize::from(BYTE_ONES[(bits & 0xFF) as usize] + BYTE_ONES[(bits >> 8 & 0xFF) as usize])
    } else {
        bits.count_ones() as usize
    }
}

/// Transposes the 8 × 8 bit matrix in `x` (bit `8r + c` ↔ bit `8c + r`)
/// in three rounds of swaps: 1 × 1 blocks inside 2 × 2 ones, then 2 × 2
/// inside 4 × 4, then the two off-diagonal 4 × 4 blocks.
#[inline]
fn transpose8(mut x: u64) -> u64 {
    let t = (x ^ (x >> 7)) & 0x00AA_00AA_00AA_00AA;
    x ^= t ^ (t << 7);
    let t = (x ^ (x >> 14)) & 0x0000_CCCC_0000_CCCC;
    x ^= t ^ (t << 14);
    let t = (x ^ (x >> 28)) & 0x0000_0000_F0F0_F0F0;
    x ^ t ^ (t << 28)
}

/// The first `count ≤ 64` columns of at most 64 `rows` (the rest
/// clear): bit `q` of column `b` is bit `b` of row `q`. Built from 8 × 8
/// blocks, so the work is proportional to the rows and columns there
/// are, not to 64 × 64.
pub(crate) fn columns(rows: &[u64], count: usize) -> [u64; 64] {
    let mut cols = [0u64; 64];
    for (g, group) in rows.chunks(8).enumerate() {
        for c in 0..count.min(64).div_ceil(8) {
            let block = group
                .iter()
                .enumerate()
                .fold(0, |x, (k, row)| x | (row >> (8 * c) & 0xFF) << (8 * k));
            let block = transpose8(block);
            for (j, col) in cols[8 * c..8 * c + 8].iter_mut().enumerate() {
                *col |= (block >> (8 * j) & 0xFF) << (8 * g);
            }
        }
    }
    cols
}

/// `bits` with the bits set in `gone` squeezed out, the rest shifted
/// down in order: bit `j` of the result is the `j`-th bit of `bits` at a
/// position outside `gone`.
#[inline]
pub(crate) fn squeeze(mut bits: u64, mut gone: u64) -> u64 {
    while gone != 0 {
        let e = 63 - gone.leading_zeros();
        let below = bits & ((1u64 << e) - 1);
        bits = below | (bits >> e >> 1) << e;
        gone &= !(1u64 << e);
    }
    bits
}

/// Appends bit runs to plane 0 of a freshly reset level, in slot order.
pub(crate) struct BitWriter<'a> {
    words: &'a mut [u64],
    at: usize,
}

impl<'a> BitWriter<'a> {
    /// A writer at slot 0 of `level`'s value plane 0.
    pub(crate) fn new(level: &'a mut Planes) -> Self {
        BitWriter {
            words: level.plane_mut(0),
            at: 0,
        }
    }

    /// Writes the low `width ≤ 64` bits of `bits` (higher bits clear) as
    /// the next `width` slots.
    #[inline]
    pub(crate) fn push(&mut self, bits: u64, width: usize) {
        let (w, b) = (self.at / 64, self.at % 64);
        self.words[w] |= bits << b;
        if b + width > 64 {
            self.words[w + 1] |= bits >> (64 - b);
        }
        self.at += width;
    }
}

/// `range` cut into windows of at most 64 slots: `(start, width)`. A
/// node of at most 64 children is one window.
#[inline]
fn windows(range: Range<usize>) -> impl Iterator<Item = (usize, usize)> {
    (range.start..range.end)
        .step_by(64)
        .map(move |start| (start, (range.end - start).min(64)))
}

/// A one-plane level read as words: its value plane and its `⊥` plane.
#[derive(Clone, Copy)]
pub(crate) struct Binary<'a> {
    ones: &'a [u64],
    bottom: Option<&'a [u64]>,
}

impl Binary<'_> {
    /// How many of the `width ≤ 64` slots from `lo` hold 0, 1 and `⊥`.
    #[inline]
    pub(crate) fn tally(&self, lo: usize, width: usize) -> [usize; 3] {
        let bottoms = match self.bottom {
            Some(bottom) => ones16(window(bottom, lo, width), width),
            None => 0,
        };
        let ones = ones16(window(self.ones, lo, width), width);
        [width - ones - bottoms, ones, bottoms]
    }
}

/// One level of values (or of converted results), bit-sliced.
///
/// Bits past `len` are always zero, so a plane's words can go on the wire
/// as they are.
///
/// # Examples
///
/// ```
/// use sg_eigtree::IgTree;
/// use sg_sim::{ProcessId, Value};
///
/// let mut tree = IgTree::new(5, ProcessId(0));
/// tree.set_root(Value(1));
/// tree.append_level(|_, sender| Value(u16::from(sender != ProcessId(2))));
/// let level = tree.level(1);
/// assert_eq!(level.len(), 4);
/// assert_eq!(level.count(Value(1)), 3);
/// assert_eq!(level.planes(), 1);
/// assert_eq!(level.plane(0), &[0b1101]);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Planes {
    len: usize,
    /// Words per plane, `⌈len/64⌉`.
    stride: usize,
    /// Value planes, one per value bit (at least one).
    bits: usize,
    /// Whether a `⊥` plane follows the value planes.
    bottom: bool,
    words: Vec<u64>,
}

/// Levels are equal when they hold the same values slot by slot, however
/// many planes each carries.
impl PartialEq for Planes {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.results().eq(other.results())
    }
}

impl Eq for Planes {}

impl Planes {
    /// A level of `len` default values with room for `bits` value planes
    /// (and a `⊥` plane if `bottom`), allocated at exact capacity.
    pub(crate) fn zeroed(len: usize, bits: usize, bottom: bool) -> Self {
        let mut level = Planes {
            words: Vec::with_capacity((bits + usize::from(bottom)) * len.div_ceil(64)),
            ..Planes::default()
        };
        level.reset(len, bits, bottom);
        level
    }

    /// Refills the level in place with `len` default values, reusing the
    /// buffer.
    pub(crate) fn reset(&mut self, len: usize, bits: usize, bottom: bool) {
        self.len = len;
        self.stride = len.div_ceil(64);
        self.bits = bits.max(1);
        self.bottom = bottom;
        self.words.clear();
        self.words
            .resize((self.bits + usize::from(bottom)) * self.stride, 0);
    }

    /// The buffer's capacity in words (for recycling decisions).
    pub(crate) fn capacity_words(&self) -> usize {
        self.words.capacity()
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the level has no slots.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of value planes, one for binary data.
    pub fn planes(&self) -> usize {
        self.bits
    }

    /// Value plane `b`, one bit per slot.
    pub fn plane(&self, b: usize) -> &[u64] {
        &self.words[b * self.stride..(b + 1) * self.stride]
    }

    pub(crate) fn plane_mut(&mut self, b: usize) -> &mut [u64] {
        &mut self.words[b * self.stride..(b + 1) * self.stride]
    }

    /// The binary view of a one-plane level (with its `⊥` plane, if
    /// any); `None` for wider data.
    #[inline]
    pub(crate) fn binary(&self) -> Option<Binary<'_>> {
        (self.bits == 1).then(|| Binary {
            ones: self.plane(0),
            bottom: self.bottom_plane(),
        })
    }

    /// The `⊥` plane, if the level has one.
    #[inline]
    fn bottom_plane(&self) -> Option<&[u64]> {
        self.bottom.then(|| self.plane(self.bits))
    }

    /// The value at slot `i` (`⊥` reads as the default).
    pub fn get(&self, i: usize) -> Value {
        debug_assert!(i < self.len);
        let (w, bit) = (i / 64, i % 64);
        let raw = (0..self.bits).fold(0u16, |v, b| {
            v | ((self.words[b * self.stride + w] >> bit & 1) as u16) << b
        });
        Value(raw)
    }

    /// The converted result at slot `i`.
    pub fn res(&self, i: usize) -> Res {
        match self.bottom_plane() {
            Some(bottom) if bottom[i / 64] >> (i % 64) & 1 == 1 => Res::Bottom,
            _ => Res::Val(self.get(i)),
        }
    }

    /// The values, slot by slot.
    pub fn values(&self) -> impl Iterator<Item = Value> + '_ {
        (0..self.len).map(|i| self.get(i))
    }

    /// The values, slot by slot, by reference (as a slice's `iter`).
    pub fn iter(&self) -> impl Iterator<Item = &'static Value> + '_ {
        self.values().map(|v| &VALUES[usize::from(v.raw())])
    }

    /// The converted results, slot by slot.
    pub fn results(&self) -> impl Iterator<Item = Res> + '_ {
        (0..self.len).map(|i| self.res(i))
    }

    /// The values as a vector (diagnostics and wide-domain payloads).
    pub fn to_vec(&self) -> Vec<Value> {
        self.values().collect()
    }

    /// Adds value planes until there are `bits`, keeping every slot's
    /// value (the `⊥` plane, if any, stays last).
    fn grow(&mut self, bits: usize) {
        let extra = (bits - self.bits) * self.stride;
        let at = self.bits * self.stride;
        self.words.splice(at..at, std::iter::repeat_n(0, extra));
        self.bits = bits;
    }

    /// Stores `v` at slot `i`, adding planes if `v` needs them.
    #[inline]
    pub(crate) fn set(&mut self, i: usize, v: Value) {
        if self.bits == 1 && !self.bottom && v.raw() <= 1 {
            let (word, bit) = (&mut self.words[i / 64], 1u64 << (i % 64));
            *word = *word & !bit | u64::from(v.raw()) << (i % 64);
            return;
        }
        self.put(i, Res::Val(v));
    }

    /// Stores a result at slot `i`; `⊥` needs a `⊥` plane.
    pub(crate) fn put(&mut self, i: usize, r: Res) {
        let (w, bit) = (i / 64, 1u64 << (i % 64));
        let raw = match r {
            Res::Val(v) => {
                let need = planes_for(v);
                if need > self.bits {
                    self.grow(need);
                }
                v.raw()
            }
            Res::Bottom => 0,
        };
        for b in 0..self.bits {
            let word = &mut self.words[b * self.stride + w];
            if raw >> b & 1 == 1 {
                *word |= bit;
            } else {
                *word &= !bit;
            }
        }
        if self.bottom {
            let word = &mut self.words[self.bits * self.stride + w];
            if r == Res::Bottom {
                *word |= bit;
            } else {
                *word &= !bit;
            }
        } else {
            assert!(r != Res::Bottom, "⊥ stored in a level without a ⊥ plane");
        }
    }

    /// Fills a freshly reset level slot by slot, in order: `result(i)` is
    /// slot `i`'s result. 0s and 1s (and `⊥`s) are gathered into a word and
    /// written once per 64 slots; wider values go through the planes.
    pub(crate) fn fill_with(&mut self, mut result: impl FnMut(usize) -> Res) {
        for w in 0..self.stride {
            let (mut ones, mut bottoms) = (0u64, 0u64);
            for bit in 0..(self.len - w * 64).min(64) {
                match result(w * 64 + bit) {
                    Res::Val(Value(0)) => {}
                    Res::Val(Value(1)) => ones |= 1 << bit,
                    Res::Bottom => bottoms |= 1 << bit,
                    r => self.put(w * 64 + bit, r),
                }
            }
            self.words[w] |= ones;
            if bottoms != 0 {
                assert!(self.bottom, "⊥ stored in a level without a ⊥ plane");
                self.words[self.bits * self.stride + w] |= bottoms;
            }
        }
    }

    /// Fills value plane 0 from `words` (bits past `len` must be clear).
    pub(crate) fn copy_plane0(&mut self, words: &[u64]) {
        self.plane_mut(0).copy_from_slice(words);
    }

    /// Stores the default value at every slot whose bit is set in
    /// `slots(w)` for word `w`.
    pub(crate) fn clear_slots(&mut self, slots: impl Fn(usize) -> u64) {
        for w in 0..self.stride {
            let keep = !slots(w);
            for b in 0..self.bits {
                self.words[b * self.stride + w] &= keep;
            }
        }
    }

    /// The window `(lo, width)` of value plane `b`.
    #[inline]
    fn plane_window(&self, b: usize, lo: usize, width: usize) -> u64 {
        window(
            &self.words[b * self.stride..(b + 1) * self.stride],
            lo,
            width,
        )
    }

    /// The window `(lo, width)` of the `⊥` plane (all clear without one).
    #[inline]
    fn bottom_window(&self, lo: usize, width: usize) -> u64 {
        self.bottom_plane()
            .map_or(0, |bottom| window(bottom, lo, width))
    }

    /// The mask of the slots in window `(lo, width)` holding `r`.
    #[inline]
    fn eq_window(&self, lo: usize, width: usize, r: Res) -> u64 {
        match r {
            Res::Bottom => self.bottom_window(lo, width),
            Res::Val(v) if planes_for(v) > self.bits => 0,
            Res::Val(v) => (0..self.bits).fold(
                low_bits(width) & !self.bottom_window(lo, width),
                |mask, b| {
                    let bits = self.plane_window(b, lo, width);
                    mask & if v.raw() >> b & 1 == 1 { bits } else { !bits }
                },
            ),
        }
    }

    /// How many slots in `range` hold `r`.
    pub(crate) fn count_in(&self, range: Range<usize>, r: Res) -> usize {
        if (1..=64).contains(&range.len()) {
            return self.eq_window(range.start, range.len(), r).count_ones() as usize;
        }
        windows(range)
            .map(|(lo, width)| self.eq_window(lo, width, r).count_ones() as usize)
            .sum()
    }

    /// How many slots hold `v`.
    pub fn count(&self, v: Value) -> usize {
        self.count_in(0..self.len, Res::Val(v))
    }

    /// The slots in `range` that do not hold `r`, ascending.
    pub(crate) fn others_in(
        &self,
        range: Range<usize>,
        r: Res,
    ) -> impl Iterator<Item = usize> + '_ {
        windows(range).flat_map(move |(lo, width)| {
            let mut others = !self.eq_window(lo, width, r) & low_bits(width);
            std::iter::from_fn(move || {
                (others != 0).then(|| {
                    let bit = others.trailing_zeros() as usize;
                    others &= others - 1;
                    lo + bit
                })
            })
        })
    }

    /// How many slots in `range` have their bit set in value plane `b`
    /// (`b == planes` reads the `⊥` plane).
    fn ones_in(&self, b: usize, range: Range<usize>) -> usize {
        windows(range)
            .map(|(lo, width)| self.plane_window(b, lo, width).count_ones() as usize)
            .sum()
    }

    /// The strict majority result in `range` (held by more than half its
    /// slots) and its count, if one exists; `⊥` is one more result.
    #[inline]
    pub(crate) fn majority(&self, range: Range<usize>) -> Option<(Res, usize)> {
        let width = range.len();
        if width == 0 {
            return None;
        }
        if let Some(binary) = self.binary().filter(|_| width <= 64) {
            let [zeros, ones, bottoms] = binary.tally(range.start, width);
            return [
                (Res::Val(Value(0)), zeros),
                (Res::Val(Value(1)), ones),
                (Res::Bottom, bottoms),
            ]
            .into_iter()
            .find(|&(_, count)| 2 * count > width);
        }
        let candidate = if self.bottom && 2 * self.ones_in(self.bits, range.clone()) > width {
            Res::Bottom
        } else {
            Res::Val(Value((0..self.bits).fold(0u16, |v, b| {
                v | u16::from(2 * self.ones_in(b, range.clone()) > width) << b
            })))
        };
        let support = self.count_in(range, candidate);
        (2 * support > width).then_some((candidate, support))
    }

    /// `resolve'`'s node rule over `range`: the unique value with at
    /// least `t + 1` slots, else `⊥`.
    #[inline]
    pub(crate) fn unique_supported(&self, range: Range<usize>, t: usize) -> Res {
        // Each distinct value is counted once, at its first slot.
        let mut winner = Res::Bottom;
        for j in range.clone() {
            let r = self.res(j);
            if r == Res::Bottom || self.count_in(range.start..j, r) > 0 {
                continue;
            }
            if self.count_in(range.clone(), r) > t {
                if winner != Res::Bottom {
                    return Res::Bottom;
                }
                winner = r;
            }
        }
        winner
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn level(vals: &[u16]) -> Planes {
        let mut l = Planes::zeroed(vals.len(), 1, false);
        for (i, &v) in vals.iter().enumerate() {
            l.set(i, Value(v));
        }
        l
    }

    #[test]
    fn columns_transpose_the_rows() {
        let rows: Vec<u64> = (0..13u64)
            .map(|q| (q + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        let cols = columns(&rows, 64);
        for (b, col) in cols.iter().enumerate() {
            for (q, row) in rows.iter().enumerate() {
                assert_eq!(col >> q & 1, row >> b & 1, "column {b}, row {q}");
            }
            assert_eq!(col >> 13, 0);
        }
    }

    #[test]
    fn windows_cut_ranges_at_64_slots() {
        assert_eq!(
            windows(60..130).collect::<Vec<_>>(),
            vec![(60, 64), (124, 6)]
        );
        assert_eq!(windows(3..3).count(), 0);
        let words = [u64::MAX << 60, 0b1011];
        assert_eq!(window(&words, 60, 7), 0b011_1111);
        assert_eq!(window(&words, 0, 64), u64::MAX << 60);
    }

    #[test]
    fn planes_grow_with_the_data() {
        let mut l = level(&[1, 0, 1]);
        assert_eq!(l.planes(), 1);
        l.set(1, Value(6));
        assert_eq!(l.planes(), 3);
        assert_eq!(l.to_vec(), vec![Value(1), Value(6), Value(1)]);
        assert_eq!(l, level(&[1, 6, 1]));
        assert_ne!(l, level(&[1, 6, 0]));
    }

    #[test]
    fn bottom_plane_reads_back() {
        let mut l = Planes::zeroed(4, 1, true);
        for i in [0, 1, 3] {
            l.set(i, Value(1));
        }
        l.put(2, Res::Bottom);
        assert_eq!(
            l.results().collect::<Vec<_>>(),
            vec![
                Res::Val(Value(1)),
                Res::Val(Value(1)),
                Res::Bottom,
                Res::Val(Value(1))
            ]
        );
        assert_eq!(l.majority(0..4), Some((Res::Val(Value(1)), 3)));
        assert_eq!(l.count_in(0..4, Res::Val(Value(0))), 0);
    }

    #[test]
    fn majority_over_wide_values() {
        let l = level(&[5, 3, 5, 5, 2]);
        assert_eq!(l.majority(0..5), Some((Res::Val(Value(5)), 3)));
        assert_eq!(l.majority(1..5), None);
        assert_eq!(l.unique_supported(0..5, 1), Res::Val(Value(5)));
        assert_eq!(l.unique_supported(0..5, 2), Res::Val(Value(5)));
        assert_eq!(l.unique_supported(0..5, 3), Res::Bottom);
        assert_eq!(
            l.others_in(0..5, Res::Val(Value(5))).collect::<Vec<_>>(),
            vec![1, 4]
        );
    }
}
