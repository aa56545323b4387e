//! Shared helpers for adversary strategies.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sg_sim::{AdversaryView, Payload, ProcessId, Value};

/// A deterministic RNG for one (round, sender, recipient) decision,
/// independent of call order.
pub fn call_rng(seed: u64, round: usize, sender: ProcessId, recipient: ProcessId) -> StdRng {
    let mix = seed
        ^ (round as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (sender.index() as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9)
        ^ (recipient.index() as u64).wrapping_mul(0x94D0_49BB_1331_11EB);
    StdRng::seed_from_u64(mix)
}

/// A uniformly random in-domain value.
fn random_value(rng: &mut StdRng, view: &AdversaryView<'_>) -> Value {
    Value(rng.gen_range(0..view.domain.size()))
}

/// `len ≥ 1` uniformly random in-domain values, one [`random_value`] draw
/// per slot in slot order whatever the representation: a
/// [`Payload::single`] for the one-value broadcasts of the king-family
/// protocols, bit-packed in binary domains (a 1320-slot tree-level lie is
/// 168 bytes instead of 2.6 kB, once per faulty sender per recipient per
/// round), a value vector otherwise.
pub fn random_payload(rng: &mut StdRng, view: &AdversaryView<'_>, len: usize) -> Payload {
    if len == 1 {
        return Payload::single(random_value(rng, view));
    }
    let draws = (0..len).map(|_| random_value(rng, view));
    if view.domain.size() == 2 {
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
}
