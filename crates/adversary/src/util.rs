//! Shared helpers for adversary strategies.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use sg_sim::{AdversaryView, Payload, ProcessId, SmallWords, Value, ValueDomain};

/// The stream key of one (round, sender, recipient) decision, XORed
/// into a strategy's seed: every edge of every round draws from its own
/// stream, so lies do not depend on call order.
#[inline]
pub fn edge_mix(round: usize, sender: ProcessId, recipient: ProcessId) -> u64 {
    (round as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (sender.index() as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9)
        ^ (recipient.index() as u64).wrapping_mul(0x94D0_49BB_1331_11EB)
}

/// The first output of `StdRng::seed_from_u64(seed ^ edge)`, computed
/// without building the generator — the one definition of the mixer
/// every random one-value lie reads.
///
/// `seed_from_u64` fills xoshiro256**'s state with four consecutive
/// SplitMix64 words and the generator's first output reads only `s[1]`,
/// so the first draw is the output scrambler over the *second*
/// SplitMix64 word (state advanced by 2γ). Three multiplies, no state,
/// no call through a trait object.
#[inline]
pub fn first_draw(seed: u64, edge: u64) -> u64 {
    let mut z = (seed ^ edge).wrapping_add(0x9E37_79B9_7F4A_7C15_u64.wrapping_mul(2));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    z.wrapping_mul(5).rotate_left(7).wrapping_mul(9)
}

/// The one-value lie of stream `seed ^ edge` ([`edge_mix`]) in a domain
/// of `size` values: the value `StdRng::seed_from_u64(seed ^ edge)
/// .gen_range(0..size)` returns — [`first_draw`] reduced to the range by
/// the same multiply-shift `gen_range` uses. Every single-value random
/// lie of the scalar strategies and of the vector path at `|V| > 2` is
/// this function; at `|V| = 2` the reduction `(first · 2) >> 64` is
/// `first >> 63`, the sign bit the vector path reads directly
/// (`sign_bit_is_the_binary_draw`). `first_draw_matches_the_generator`
/// pins it to the generator.
#[inline]
pub fn edge_draw(seed: u64, edge: u64, size: u16) -> u16 {
    ((u128::from(first_draw(seed, edge)) * u128::from(size)) >> 64) as u16
}

/// Writes the lie of `len ≥ 1` uniformly random in-domain values from
/// `sender` to `recipient` into `slot`, keyed by `seed` and the edge
/// alone. A one-value lie is [`edge_draw`], as a [`Payload::single`]
/// (the one-value broadcasts of the king-family protocols). A longer
/// (tree-level) lie takes one generator draw per slot, in slot order. In
/// a binary domain each draw is the sign bit of one `next_u64` — what
/// `gen_range(0..2)` returns — written 64 to a word straight into the
/// slot's words (inline up to 256 slots, an exact-size heap buffer
/// beyond, as [`Payload::packed`] stores them); other domains build a
/// value vector of `gen_range` draws.
#[inline]
pub(crate) fn random_lie(
    spare: &mut Spare,
    slot: &mut Payload,
    seed: u64,
    (sender, recipient): (ProcessId, ProcessId),
    view: &AdversaryView<'_>,
    len: usize,
) {
    let edge = edge_mix(view.round, sender, recipient);
    if len == 1 && view.domain.size() == 2 {
        spare.bits(slot, 1)[0] = first_draw(seed, edge) >> 63;
    } else {
        drawn_lie(spare, slot, seed ^ edge, view.domain.size(), len);
    }
}

/// [`random_lie`] past a one-bit lie, from the stream `key`.
#[inline(never)]
fn drawn_lie(spare: &mut Spare, slot: &mut Payload, key: u64, size: u16, len: usize) {
    if size == 2 {
        sign_words(&mut StdRng::seed_from_u64(key), len, spare.bits(slot, len));
    } else if len == 1 {
        spare.single(slot, Value(edge_draw(key, 0, size)));
    } else {
        let mut rng = StdRng::seed_from_u64(key);
        spare.values(slot, (0..len).map(|_| Value(rng.gen_range(0..size))));
    }
}

/// Fills `words` with the sign bits of `len` consecutive draws of `rng`:
/// draw `i` at bit `i % 64` of word `i / 64`, every bit at or past `len`
/// clear.
fn sign_words(rng: &mut StdRng, len: usize, words: &mut [u64]) {
    const SIGN: u64 = 1 << 63;
    for (w, word) in words.iter_mut().enumerate() {
        let draws = (len - 64 * w).min(64);
        // Each draw enters at the top and moves down one bit per later
        // draw, so after `draws` of them draw `i` sits at bit
        // `64 − draws + i`.
        let mut acc = 0u64;
        for _ in 0..draws {
            acc = (acc >> 1) | (rng.next_u64() & SIGN);
        }
        *word = acc >> (64 - draws);
    }
}

/// The heap word buffers that lie slots gave up, and the in-place writes
/// that keep them: a slot's buffer is reused when the next lie has its
/// representation, and otherwise set aside here for the next slot that
/// needs a heap buffer. Rows rewritten every round then allocate nothing
/// once warm, even when a slot is silent or short for a round. Buffers
/// only — nothing here is ever read as data.
#[derive(Clone, Debug, Default)]
pub(crate) struct Spare(Vec<Vec<u64>>);

impl Spare {
    /// Overwrites `slot` with `payload`, keeping the heap words it held.
    #[inline]
    fn put(&mut self, slot: &mut Payload, payload: Payload) {
        match std::mem::replace(slot, payload) {
            Payload::Bits {
                words: SmallWords::Heap(words),
                ..
            } => self.0.push(words),
            Payload::Missing | Payload::Bits { .. } => {}
            held => drop(held),
        }
    }

    /// Silence: `slot` becomes missing. A missing slot is left untouched.
    #[inline]
    pub(crate) fn silence(&mut self, slot: &mut Payload) {
        if !slot.is_missing() {
            self.put(slot, Payload::Missing);
        }
    }

    /// Makes `slot` a `len`-slot bit vector stored as [`Payload::packed`]
    /// stores one — inline up to 256 slots, an exact-size heap buffer
    /// beyond — and returns its words for the caller to overwrite whole,
    /// leaving every bit at or past `len` clear.
    #[inline]
    pub(crate) fn bits<'s>(&mut self, slot: &'s mut Payload, len: usize) -> &'s mut [u64] {
        let count = len.div_ceil(64);
        if count > SmallWords::INLINE {
            return self.heap_bits(slot, len, count);
        }
        if !matches!(
            slot,
            Payload::Bits {
                words: SmallWords::Inline(_),
                ..
            }
        ) {
            self.put(
                slot,
                Payload::Bits {
                    words: SmallWords::Inline([0; SmallWords::INLINE]),
                    len: 0,
                },
            );
        }
        match slot {
            Payload::Bits {
                words: SmallWords::Inline(w),
                len: slots,
            } => {
                *slots = len as u32;
                *w = [0; SmallWords::INLINE];
                &mut w[..count]
            }
            _ => unreachable!("the slot was just made an inline bit vector"),
        }
    }

    /// [`Spare::bits`] past the inline words: the slot's own heap buffer,
    /// else a spare one, else a new one, resized to `count` words.
    #[inline(never)]
    fn heap_bits<'s>(&mut self, slot: &'s mut Payload, len: usize, count: usize) -> &'s mut [u64] {
        if !matches!(
            slot,
            Payload::Bits {
                words: SmallWords::Heap(_),
                ..
            }
        ) {
            let words = SmallWords::Heap(self.0.pop().unwrap_or_default());
            self.put(slot, Payload::Bits { words, len: 0 });
        }
        match slot {
            Payload::Bits {
                words: SmallWords::Heap(w),
                len: slots,
            } => {
                *slots = len as u32;
                w.resize(count, 0);
                w
            }
            _ => unreachable!("the slot was just made a heap bit vector"),
        }
    }

    /// Makes `slot` the value vector `values`, reusing the vector it
    /// holds.
    #[inline]
    pub(crate) fn values(&mut self, slot: &mut Payload, values: impl Iterator<Item = Value>) {
        if let Payload::Values(v) = slot {
            v.clear();
            v.extend(values);
        } else {
            self.put(slot, Payload::Values(values.collect()));
        }
    }

    /// Writes [`Payload::single`]`(v)` into `slot`.
    #[inline]
    pub(crate) fn single(&mut self, slot: &mut Payload, v: Value) {
        if v.raw() <= 1 {
            self.bits(slot, 1)[0] = u64::from(v.raw());
        } else {
            self.values(slot, std::iter::once(v));
        }
    }

    /// Writes `len` copies of `v` into `slot`: a single value (a bit,
    /// for the one-value broadcasts of the king-family protocols) when
    /// `len` is 1, a [`Spare::vector`] otherwise.
    #[inline]
    pub(crate) fn repeated(
        &mut self,
        slot: &mut Payload,
        domain: ValueDomain,
        v: Value,
        len: usize,
    ) {
        if len == 1 {
            self.single(slot, v);
        } else {
            self.vector(slot, domain, len, |_| v);
        }
    }

    /// Writes the `len` values `value(0), value(1), …` into `slot`: as
    /// bits when the domain is binary and every value is 0 or 1, as a
    /// value vector otherwise (a `⊥` sentinel, garbage, a wider domain).
    fn vector(
        &mut self,
        slot: &mut Payload,
        domain: ValueDomain,
        len: usize,
        mut value: impl FnMut(usize) -> Value,
    ) {
        if domain.size() == 2 {
            let words = self.bits(slot, len);
            words.fill(0);
            let binary = (0..len).all(|i| {
                let v = value(i).raw();
                words[i / 64] |= u64::from(v & 1) << (i % 64);
                v <= 1
            });
            if binary {
                return;
            }
        }
        self.values(slot, (0..len).map(value));
    }

    /// Copies `shadow` into `slot` — missing when there is none — reusing
    /// the slot's buffer: a shadow relay.
    #[inline]
    pub(crate) fn relay(&mut self, slot: &mut Payload, shadow: Option<&Payload>) {
        match shadow {
            None | Some(Payload::Missing) => self.silence(slot),
            Some(Payload::Bits { words, len }) => {
                let to = self.bits(slot, *len as usize);
                to.copy_from_slice(&words.words()[..to.len()]);
            }
            Some(Payload::Values(v)) => self.values(slot, v.iter().copied()),
            Some(signed) => self.put(slot, signed.clone()),
        }
    }

    /// Writes `f` applied to every value of `shadow` into `slot`, as a
    /// [`Spare::vector`]; any other shadow is relayed as it is.
    /// Representation-agnostic: bit-packed and vector shadows corrupt
    /// identically.
    pub(crate) fn map<F>(
        &mut self,
        slot: &mut Payload,
        domain: ValueDomain,
        shadow: Option<&Payload>,
        mut f: F,
    ) where
        F: FnMut(usize, Value) -> Value,
    {
        match shadow {
            Some(p @ (Payload::Values(_) | Payload::Bits { .. })) => {
                self.vector(slot, domain, p.num_values(), |i| {
                    f(i, p.value_at(i).expect("index in range"))
                });
            }
            other => self.relay(slot, other),
        }
    }
}

/// Flips a value within the domain: `v ↦ (v+1) mod |V|`.
///
/// Out-of-domain inputs (protocols may legitimately broadcast sentinel
/// values, e.g. an encoded `⊥` proposal) are flipped into the domain too —
/// an adversary is free to turn a `⊥` into a real value.
pub fn flip(view: &AdversaryView<'_>, v: Value) -> Value {
    Value(((u32::from(v.raw()) + 1) % u32::from(view.domain.size())) as u16)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The RNG of one edge decision: a lie longer than one value draws
    /// from it slot by slot.
    fn call_rng(seed: u64, round: usize, sender: ProcessId, recipient: ProcessId) -> StdRng {
        StdRng::seed_from_u64(seed ^ edge_mix(round, sender, recipient))
    }

    #[test]
    fn call_rng_is_deterministic_and_distinct() {
        let mut a = call_rng(7, 3, ProcessId(1), ProcessId(2));
        let mut b = call_rng(7, 3, ProcessId(1), ProcessId(2));
        let mut c = call_rng(7, 3, ProcessId(1), ProcessId(3));
        let (x, y, z): (u64, u64, u64) = (a.gen(), b.gen(), c.gen());
        assert_eq!(x, y);
        assert_ne!(x, z);
    }

    #[test]
    fn word_written_lies_are_the_generators_draws() {
        // The oracle is the build the word writer replaced: one
        // `gen_range(0..2)` per slot, packed by `Payload::packed`.
        let faulty = sg_sim::ProcessSet::new(2);
        let view = AdversaryView {
            round: 3,
            total_rounds: 4,
            n: 2,
            t: 0,
            source: ProcessId(0),
            source_value: Value(1),
            domain: sg_sim::ValueDomain::binary(),
            faulty: &faulty,
            honest_broadcast: &[],
            shadow_broadcast: &[],
            sigs: None,
        };
        let fillers = [
            Payload::Values(vec![Value(1); 7]),
            Payload::packed((0..5).map(|_| Value(1))),
            Payload::packed((0..700).map(|_| Value(1))),
            Payload::Signed(Vec::new()),
            Payload::Missing,
        ];
        let (sender, recipient) = (ProcessId(1), ProcessId(0));
        let mut spare = Spare::default();
        for seed in [0, 7, u64::MAX] {
            for len in 2..=1_400 {
                let mut rng = call_rng(seed, view.round, sender, recipient);
                let want = Payload::packed((0..len).map(|_| Value(rng.gen_range(0..2))));
                let mut slot = fillers[len % fillers.len()].clone();
                random_lie(&mut spare, &mut slot, seed, (sender, recipient), &view, len);
                let (
                    Payload::Bits { words, len: got },
                    Payload::Bits {
                        words: want_words,
                        len: want_len,
                    },
                ) = (&slot, &want)
                else {
                    panic!("len {len}: a binary lie is bit-packed");
                };
                assert_eq!(
                    (got, words),
                    (want_len, want_words),
                    "seed {seed} len {len}"
                );
            }
        }
    }

    #[test]
    fn first_draw_matches_the_generator() {
        let mut pick = StdRng::seed_from_u64(0xD1CE);
        for _ in 0..10_000 {
            let seed: u64 = pick.gen();
            let round = pick.gen_range(1usize..40);
            let sender = ProcessId(pick.gen_range(0usize..64));
            let recipient = ProcessId(pick.gen_range(0usize..64));
            let size = pick.gen_range(2u16..7);
            let expected: u16 = call_rng(seed, round, sender, recipient).gen_range(0..size);
            let edge = edge_mix(round, sender, recipient);
            assert_eq!(
                edge_draw(seed, edge, size),
                expected,
                "seed {seed:#x} round {round} {sender:?}->{recipient:?} size {size}"
            );
        }
    }

    #[test]
    fn sign_bit_is_the_binary_draw() {
        /// SplitMix64, independent of the generator under test.
        fn mix(state: &mut u64) -> u64 {
            *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = *state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        let mut state = 0x5EED;
        let mut pairs: Vec<(u64, u64)> = (0..100_000)
            .map(|_| (mix(&mut state), mix(&mut state)))
            .collect();
        // The stream key's extremes: `seed ^ edge` all zeros, all ones.
        pairs.extend([(0, 0), (!0, !0), (0, !0), (!0, 0), (0x1234, 0x1234)]);
        for (seed, edge) in pairs {
            assert_eq!(
                first_draw(seed, edge) >> 63,
                u64::from(edge_draw(seed, edge, 2)),
                "seed {seed:#x} edge {edge:#x}"
            );
        }
    }
}
