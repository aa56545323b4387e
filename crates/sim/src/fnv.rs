//! 64-bit FNV-1a, the one hash the workspace folds identities with:
//! instance-pool keys ([`crate::PoolKey`]) here, and in `sg-analysis` the
//! sweep fingerprints, journal cell keys and engine epochs. Every value
//! any of those ever produced is pinned somewhere, so the fold is written
//! once, and all three steps below are exact FNV-1a: the byte step, the
//! word step, and a [`CompiledRow`], a fixed row of words compiled once
//! and folded as many times as it repeats.

/// The FNV-1a offset basis: the hash of no bytes.
pub const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The FNV-1a 64-bit prime.
const PRIME: u64 = 0x0000_0100_0000_01B3;

/// `PRIME^k` for `k = 0..=8`: what `k` zero bytes multiply a hash by.
const ZERO_TAIL: [u64; 9] = {
    let mut pow = [1u64; 9];
    let mut k = 1;
    while k < pow.len() {
        pow[k] = pow[k - 1].wrapping_mul(PRIME);
        k += 1;
    }
    pow
};

/// Folds `bytes` into `h`, one byte at a time.
#[inline]
pub fn mix_bytes(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(PRIME))
}

/// Folds the eight little-endian bytes of `v` into `h`: exactly
/// `mix_bytes(h, &v.to_le_bytes())`, at the cost of `v`'s significant
/// bytes only.
///
/// A zero byte's XOR is the identity, `(h ^ 0)·P = h·P`, so the zero
/// bytes above `v`'s highest set byte collapse into one multiply by
/// `P^k`. Wrapping multiplication is associative mod 2⁶⁴, which makes
/// the collapse exact, not an approximation.
#[inline]
pub fn mix_word(h: u64, v: u64) -> u64 {
    let len = (71 - v.leading_zeros()) / 8;
    let mut h = h;
    let mut rest = v;
    for _ in 0..len {
        h = (h ^ (rest & 0xFF)).wrapping_mul(PRIME);
        rest >>= 8;
    }
    h.wrapping_mul(ZERO_TAIL[(8 - len) as usize])
}

/// Words in a [`CompiledRow`]: a sweep sample's four fingerprinted
/// quantities.
pub const ROW_WORDS: usize = 4;

/// The FNV-1a steps of one fixed row of [`ROW_WORDS`] words, compiled
/// once so that a run of equal rows folds at the cost of the row's
/// significant bytes only: [`CompiledRow::fold`]`(h, k)` is exactly
/// `k` times [`mix_bytes`] over the row's `8 · ROW_WORDS` little-endian
/// bytes.
///
/// A zero byte's XOR is the identity, so every zero byte — inside a
/// word, above its highest set byte, or a whole zero word — is one more
/// multiply by the prime, which merges into the multiplier of the step
/// before it. What is left is one xor-multiply per non-zero byte; the
/// zero bytes before the row's first non-zero one (`lead`) merge, across
/// a run, into the previous repeat's last step (`wrap`). Exact for the
/// reason [`mix_word`] is: multiplication is associative mod 2⁶⁴.
#[derive(Clone, Copy, Debug)]
pub struct CompiledRow {
    /// `P^z` for the `z` zero bytes before the first non-zero byte.
    lead: u64,
    /// The last step's multiplier times `lead`: where one repeat ends
    /// and the next begins.
    wrap: u64,
    /// The non-zero bytes, in fold order.
    bytes: [u8; 8 * ROW_WORDS],
    /// Each byte's multiplier: the prime to the power of one plus the
    /// zero bytes that follow it in the row.
    muls: [u64; 8 * ROW_WORDS],
    /// How many steps are in use.
    len: usize,
}

impl CompiledRow {
    /// Compiles `words`, folded in order as their little-endian bytes.
    pub fn new(words: [u64; ROW_WORDS]) -> CompiledRow {
        let mut row = CompiledRow {
            lead: 1,
            wrap: 1,
            bytes: [0; 8 * ROW_WORDS],
            muls: [0; 8 * ROW_WORDS],
            len: 0,
        };
        for word in words {
            let significant = (71 - word.leading_zeros()) as usize / 8;
            let mut rest = word;
            for _ in 0..significant {
                match (rest & 0xFF) as u8 {
                    0 => row.zeros(1),
                    byte => {
                        row.bytes[row.len] = byte;
                        row.muls[row.len] = PRIME;
                        row.len += 1;
                    }
                }
                rest >>= 8;
            }
            row.zeros(8 - significant);
        }
        row.wrap = row.last().wrapping_mul(row.lead);
        row
    }

    /// Merges `k` zero bytes into the latest multiplier.
    fn zeros(&mut self, k: usize) {
        let pow = ZERO_TAIL[k];
        match self.len {
            0 => self.lead = self.lead.wrapping_mul(pow),
            len => self.muls[len - 1] = self.muls[len - 1].wrapping_mul(pow),
        }
    }

    /// The last step's multiplier (1 when the row is all zeros).
    fn last(&self) -> u64 {
        self.len.checked_sub(1).map_or(1, |last| self.muls[last])
    }

    /// Folds the row into `h` `times` times over.
    #[inline]
    pub fn fold(&self, h: u64, times: usize) -> u64 {
        if times == 0 {
            return h;
        }
        let Some(last) = self.len.checked_sub(1) else {
            // An all-zero row: `lead` is the prime to the `8 · ROW_WORDS`.
            return (0..times).fold(h, |h, _| h.wrapping_mul(self.lead));
        };
        let body = || self.bytes[..last].iter().zip(&self.muls[..last]);
        let mut h = h.wrapping_mul(self.lead);
        for k in 1..=times {
            h = body().fold(h, |h, (&byte, &mul)| {
                (h ^ u64::from(byte)).wrapping_mul(mul)
            });
            let mul = if k == times {
                self.muls[last]
            } else {
                self.wrap
            };
            h = (h ^ u64::from(self.bytes[last])).wrapping_mul(mul);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-serial definition, kept apart from the code under test.
    fn reference(mut h: u64, v: u64) -> u64 {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
        h
    }

    /// Words of every byte width: 0, `u64::MAX`, each power of 256 and
    /// its neighbours, and splitmix64 draws shifted to every width and
    /// with zero bytes inside.
    fn words() -> Vec<u64> {
        let mut words = vec![0, u64::MAX];
        for k in 0..8 {
            let power = 1u64 << (8 * k);
            words.extend([power - 1, power, power + 1]);
        }
        words.push(u64::MAX - 1);
        // splitmix64: random words of every width.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..2000 {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            words.extend([z, z >> (z % 64), z & 0xFF00_FF00]);
        }
        words
    }

    #[test]
    fn the_word_step_is_the_byte_serial_fold() {
        let words = words();
        for h in [OFFSET, 0, u64::MAX, 0x1234_5678_9ABC_DEF0] {
            for &v in &words {
                assert_eq!(mix_word(h, v), reference(h, v), "h={h:#x} v={v:#x}");
                assert_eq!(mix_bytes(h, &v.to_le_bytes()), reference(h, v));
            }
        }
    }

    #[test]
    fn a_compiled_row_is_the_byte_serial_fold_repeated() {
        let words = words();
        let mut rows: Vec<[u64; ROW_WORDS]> = vec![
            [0; ROW_WORDS],
            [u64::MAX; ROW_WORDS],
            [0, 0, 0, 1],
            [1, 0, 0, 0],
            [0, 0x0100, 0, 0],
            // A king row: lock-in, no discoveries, bits, ops.
            [3, 0, 2_709_504, 1_203],
        ];
        // Rows over every width, zero words among them.
        for k in 0..words.len() {
            let pick = |j: usize| words[(k * 7 + j * 13) % words.len()];
            rows.push([pick(0), pick(1), pick(2), pick(3)]);
            rows.push([0, pick(1), 0, pick(3)]);
            rows.push([pick(0), 0, pick(2), 0]);
        }
        for h in [OFFSET, 0, u64::MAX, 0x1234_5678_9ABC_DEF0] {
            for row in &rows {
                let compiled = CompiledRow::new(*row);
                let mut want = h;
                for times in 0..6 {
                    assert_eq!(
                        compiled.fold(h, times),
                        want,
                        "h={h:#x} row={row:x?} ×{times}"
                    );
                    want = row.iter().fold(want, |h, &v| reference(h, v));
                }
            }
        }
    }
}
