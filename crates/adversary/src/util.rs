//! Shared helpers for adversary strategies.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sg_sim::{AdversaryView, Payload, ProcessId, Value};

/// The stream key of one (round, sender, recipient) decision, XORed
/// into a strategy's seed: every edge of every round draws from its own
/// stream, so lies do not depend on call order.
#[inline]
pub fn edge_mix(round: usize, sender: ProcessId, recipient: ProcessId) -> u64 {
    (round as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (sender.index() as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9)
        ^ (recipient.index() as u64).wrapping_mul(0x94D0_49BB_1331_11EB)
}

/// The RNG of one edge decision, for lies longer than one value.
fn call_rng(seed: u64, round: usize, sender: ProcessId, recipient: ProcessId) -> StdRng {
    StdRng::seed_from_u64(seed ^ edge_mix(round, sender, recipient))
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

/// `len ≥ 1` uniformly random in-domain values from `sender` to
/// `recipient`, keyed by `seed` and the edge alone. The one-value
/// broadcasts of the king-family protocols are a [`Payload::single`] of
/// [`edge_draw`]; longer (tree-level) lies take one generator draw per
/// slot in slot order whatever the representation — bit-packed in binary
/// domains (a 1320-slot lie is 168 bytes instead of 2.6 kB, once per
/// faulty sender per recipient per round), a value vector otherwise.
pub fn random_payload(
    seed: u64,
    sender: ProcessId,
    recipient: ProcessId,
    view: &AdversaryView<'_>,
    len: usize,
) -> Payload {
    let size = view.domain.size();
    if len == 1 {
        let edge = edge_mix(view.round, sender, recipient);
        return Payload::single(Value(edge_draw(seed, edge, size)));
    }
    let mut rng = call_rng(seed, view.round, sender, recipient);
    let draws = (0..len).map(|_| Value(rng.gen_range(0..size)));
    if size == 2 {
        Payload::packed(draws)
    } else {
        Payload::Values(draws.collect())
    }
}

/// The sender's honest shadow payload, or [`Payload::Missing`] if it
/// would be silent this round.
pub fn shadow_or_missing(view: &AdversaryView<'_>, sender: ProcessId) -> Payload {
    view.shadow_of(sender).cloned().unwrap_or(Payload::Missing)
}

/// `len` copies of `v` as a payload: a zero-allocation [`Payload::single`]
/// for the one-value broadcasts of the king-family protocols, the usual
/// value vector otherwise.
pub fn repeated(v: Value, len: usize) -> Payload {
    if len == 1 {
        Payload::single(v)
    } else {
        Payload::Values(vec![v; len])
    }
}

/// Applies `f` to every value of the sender's shadow payload; missing
/// shadows stay missing. Representation-agnostic: bit-packed and
/// vector shadows corrupt identically.
pub fn map_shadow<F>(view: &AdversaryView<'_>, sender: ProcessId, mut f: F) -> Payload
where
    F: FnMut(usize, Value) -> Value,
{
    match view.shadow_of(sender) {
        Some(p @ (Payload::Values(_) | Payload::Bits { .. })) => Payload::Values(
            (0..p.num_values())
                .map(|i| f(i, p.value_at(i).expect("index in range")))
                .collect(),
        ),
        Some(other) => other.clone(),
        None => Payload::Missing,
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
