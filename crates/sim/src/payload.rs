//! Message payloads.
//!
//! Because every correct processor's information-gathering tree has the
//! same shape in any given round, a round's broadcast is fully described by
//! a vector of values in canonical tree order. A Byzantine sender may send
//! any vector (of any length), a signed-relay bundle for the authenticated
//! baseline, or nothing at all.

use crate::sig::SignedRelay;
use crate::value::Value;

/// Words kept inline by [`SmallWords`] before spilling to the heap:
/// `4 × 64 = 256` bit slots, which covers every king-family payload and
/// the first few levels of the no-repetition tree at realistic `n`.
const INLINE_WORDS: usize = 4;

/// Bit storage for [`Payload::Bits`]: a short inline word array with a
/// heap spill for vectors longer than 256 slots.
///
/// Building a payload of at most [`SmallWords`]' inline capacity performs
/// **no heap allocation** — the property the engine's zero-allocation
/// round loop relies on for binary-domain broadcasts.
#[derive(Clone, PartialEq, Eq, Debug, serde::Serialize, serde::Deserialize)]
pub enum SmallWords {
    /// Up to 256 bits stored inline.
    Inline([u64; INLINE_WORDS]),
    /// Longer bit vectors, one `u64` per 64 slots.
    Heap(Vec<u64>),
}

impl SmallWords {
    /// The backing words.
    fn words(&self) -> &[u64] {
        match self {
            SmallWords::Inline(w) => w,
            SmallWords::Heap(w) => w,
        }
    }

    /// Sets bit `idx`.
    fn set(&mut self, idx: usize) {
        let words = match self {
            SmallWords::Inline(w) => &mut w[..],
            SmallWords::Heap(w) => &mut w[..],
        };
        words[idx / 64] |= 1u64 << (idx % 64);
    }

    /// Reads bit `idx` (callers bound-check against the payload length).
    fn get(&self, idx: usize) -> bool {
        self.words()[idx / 64] >> (idx % 64) & 1 == 1
    }
}

/// A message payload as delivered by the network.
///
/// Honest processors in the paper's protocols broadcast value vectors in
/// canonical order; receivers interpret them positionally. Anything a
/// receiver cannot interpret (wrong length, illegitimate values, absent
/// message) is replaced by default values per §3 of the paper — receivers
/// apply that policy, not the network.
///
/// # Examples
///
/// ```
/// use sg_sim::{Payload, Value};
///
/// let p = Payload::values([Value(1), Value(0)]);
/// assert_eq!(p.num_values(), 2);
/// assert_eq!(p.value_at(0), Some(Value(1)));
/// assert_eq!(p.value_at(5), None);
/// assert_eq!(Payload::Missing.value_at(0), None);
/// ```
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize, Default)]
pub enum Payload {
    /// A vector of values in canonical tree order.
    Values(Vec<Value>),
    /// A bit-packed vector of *binary* values in canonical tree order:
    /// slot `i` carries `Value(1)` iff bit `i` is set. Semantically
    /// identical to the equivalent [`Payload::Values`] under every
    /// accessor, but stores one bit per tree slot and — below
    /// [`SmallWords`]' inline capacity — allocates nothing to build.
    /// Receivers cannot tell the two apart: every accessor and `==` are
    /// representation-independent.
    Bits {
        /// The packed bits, one per slot.
        words: SmallWords,
        /// Number of slots carried.
        len: u32,
    },
    /// Signed relay bundle, used only by the authenticated
    /// Dolev–Strong baseline.
    Signed(Vec<SignedRelay>),
    /// No message (or one so garbled the receiver discards it wholesale).
    #[default]
    Missing,
}

impl Payload {
    /// Convenience constructor for a value-vector payload.
    pub fn values<I: IntoIterator<Item = Value>>(vals: I) -> Self {
        Payload::Values(vals.into_iter().collect())
    }

    /// A single-value payload without the one-element `Vec` for binary
    /// values, which pack into an inline [`Payload::Bits`]; anything
    /// else (the `⊥` sentinel, wide-domain values) falls back to a
    /// one-element [`Payload::Values`]. Net effect: binary broadcasts
    /// allocate nothing; `⊥` broadcasts cost one allocation.
    pub fn single(v: Value) -> Self {
        if v.raw() <= 1 {
            let mut words = SmallWords::Inline([0; INLINE_WORDS]);
            if v.raw() == 1 {
                words.set(0);
            }
            Payload::Bits { words, len: 1 }
        } else {
            Payload::Values(vec![v])
        }
    }

    /// Packs a vector of binary values into a [`Payload::Bits`]: inline
    /// (allocation-free) up to 256 slots, heap words beyond.
    ///
    /// # Panics
    ///
    /// Panics if any value is outside `{0, 1}` — bit packing is the
    /// binary-domain fast path only.
    pub fn packed<I: IntoIterator<Item = Value>>(vals: I) -> Self {
        let mut inline = [0u64; INLINE_WORDS];
        let mut heap: Vec<u64> = Vec::new();
        let mut len = 0usize;
        for v in vals {
            assert!(v.raw() <= 1, "bit packing holds binary values only");
            if heap.is_empty() && len == INLINE_WORDS * 64 {
                heap.extend_from_slice(&inline);
            }
            if heap.is_empty() {
                inline[len / 64] |= u64::from(v.raw()) << (len % 64);
            } else {
                if len.is_multiple_of(64) {
                    heap.push(0);
                }
                let last = heap.len() - 1;
                heap[last] |= u64::from(v.raw()) << (len % 64);
            }
            len += 1;
        }
        let words = if heap.is_empty() {
            SmallWords::Inline(inline)
        } else {
            SmallWords::Heap(heap)
        };
        Payload::Bits {
            words,
            len: len as u32,
        }
    }

    /// A payload of `len` default values — what a masked faulty processor
    /// is deemed to have sent under the Fault Masking Rule.
    pub fn defaults(len: usize) -> Self {
        Payload::Values(vec![Value::DEFAULT; len])
    }

    /// Number of values carried (0 for [`Payload::Missing`] and signed bundles).
    pub fn num_values(&self) -> usize {
        match self {
            Payload::Values(v) => v.len(),
            Payload::Bits { len, .. } => *len as usize,
            Payload::Signed(_) | Payload::Missing => 0,
        }
    }

    /// The value at position `idx`, if this payload carries one there.
    ///
    /// Receivers treat `None` as "inappropriate message" and substitute the
    /// default value, per §3.
    pub fn value_at(&self, idx: usize) -> Option<Value> {
        match self {
            Payload::Values(v) => v.get(idx).copied(),
            Payload::Bits { words, len } => {
                (idx < *len as usize).then(|| Value(u16::from(words.get(idx))))
            }
            Payload::Signed(_) | Payload::Missing => None,
        }
    }

    /// Cost of this payload in bits given `bits_per_value` for the domain.
    ///
    /// Signed relays are costed by the authenticated baseline itself (a
    /// relay carries a value plus a signature chain); see
    /// [`SignedRelay::bits`].
    pub fn bits(&self, bits_per_value: u64) -> u64 {
        match self {
            Payload::Values(v) => v.len() as u64 * bits_per_value,
            Payload::Bits { len, .. } => u64::from(*len) * bits_per_value,
            Payload::Signed(relays) => relays.iter().map(|r| r.bits(bits_per_value)).sum(),
            Payload::Missing => 0,
        }
    }

    /// Whether this payload is [`Payload::Missing`].
    pub fn is_missing(&self) -> bool {
        matches!(self, Payload::Missing)
    }
}

/// Payload equality is *semantic*: a [`Payload::Bits`] equals the
/// [`Payload::Values`] carrying the same value sequence (receivers cannot
/// tell them apart through any accessor), and bit vectors compare by
/// content whether stored inline or on the heap.
impl PartialEq for Payload {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Payload::Values(a), Payload::Values(b)) => a == b,
            (Payload::Signed(a), Payload::Signed(b)) => a == b,
            (Payload::Missing, Payload::Missing) => true,
            (a @ (Payload::Values(_) | Payload::Bits { .. }), b) => {
                matches!(b, Payload::Values(_) | Payload::Bits { .. })
                    && a.num_values() == b.num_values()
                    && (0..a.num_values()).all(|i| a.value_at(i) == b.value_at(i))
            }
            _ => false,
        }
    }
}

impl Eq for Payload {}

#[cfg(test)]
mod tests {
    use super::*;

    /// The out-of-domain value the king protocols send for a `⊥` proposal.
    const BOT_SENTINEL: u16 = u16::MAX;

    #[test]
    fn defaults_are_all_zero() {
        let p = Payload::defaults(3);
        assert_eq!(p, Payload::values([Value(0), Value(0), Value(0)]));
    }

    #[test]
    fn bits_scale_with_length_and_width() {
        let p = Payload::defaults(10);
        assert_eq!(p.bits(1), 10);
        assert_eq!(p.bits(3), 30);
        assert_eq!(Payload::Missing.bits(8), 0);
    }

    #[test]
    fn value_at_out_of_range_is_none() {
        let p = Payload::values([Value(1)]);
        assert_eq!(p.value_at(0), Some(Value(1)));
        assert_eq!(p.value_at(1), None);
    }

    #[test]
    fn equality_is_representation_independent() {
        assert_eq!(Payload::single(Value(1)), Payload::values([Value(1)]));
        assert_eq!(
            Payload::packed([Value(0), Value(1)]),
            Payload::values([Value(0), Value(1)])
        );
        assert_ne!(Payload::single(Value(0)), Payload::values([Value(1)]));
        assert_ne!(Payload::single(Value(0)), Payload::Missing);
        assert_ne!(
            Payload::packed([Value(1)]),
            Payload::values([Value(1), Value(1)])
        );
    }

    #[test]
    fn single_matches_values_semantics() {
        for raw in [0u16, 1, 7, BOT_SENTINEL] {
            let single = Payload::single(Value(raw));
            let vector = Payload::values([Value(raw)]);
            assert_eq!(single.num_values(), 1);
            assert_eq!(single.value_at(0), vector.value_at(0), "raw={raw}");
            assert_eq!(single.value_at(1), None);
            assert_eq!(single.bits(3), vector.bits(3));
        }
    }

    #[test]
    fn single_payloads_equal_their_values_twins() {
        // The ⊥ sentinel `u16::MAX` too, which is not bit-packed.
        for raw in [0u16, 1, BOT_SENTINEL] {
            let single = Payload::single(Value(raw));
            assert_eq!(single, Payload::values([Value(raw)]), "raw={raw}");
        }
        assert!(matches!(
            Payload::single(Value(1)),
            Payload::Bits { len: 1, .. }
        ));
    }

    #[test]
    fn packed_roundtrips_positionally() {
        let pattern: Vec<Value> = (0..200).map(|i| Value(u16::from(i % 3 == 0))).collect();
        let packed = Payload::packed(pattern.clone());
        assert_eq!(packed.num_values(), 200);
        for (i, v) in pattern.iter().enumerate() {
            assert_eq!(packed.value_at(i), Some(*v), "slot {i}");
        }
        assert_eq!(packed.value_at(200), None);
        assert_eq!(packed.bits(1), 200);
    }

    #[test]
    fn packed_spills_to_heap_past_inline_capacity() {
        let long: Vec<Value> = (0..300).map(|i| Value(u16::from(i % 2 == 1))).collect();
        let packed = Payload::packed(long.clone());
        let Payload::Bits { words, len } = &packed else {
            panic!("expected bits");
        };
        assert_eq!(*len, 300);
        assert!(matches!(words, SmallWords::Heap(_)));
        for (i, v) in long.iter().enumerate() {
            assert_eq!(packed.value_at(i), Some(*v), "slot {i}");
        }
    }

    #[test]
    #[should_panic(expected = "binary values only")]
    fn packed_rejects_non_binary_values() {
        let _ = Payload::packed([Value(2)]);
    }
}
