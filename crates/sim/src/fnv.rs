//! 64-bit FNV-1a, the one hash the workspace folds identities with:
//! instance-pool keys ([`crate::PoolKey`]) here, and in `sg-analysis` the
//! sweep fingerprints, journal cell keys and engine epochs. Every value
//! any of those ever produced is pinned somewhere, so the fold is written
//! once, and both steps below are exact FNV-1a.

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

    #[test]
    fn the_word_step_is_the_byte_serial_fold() {
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
        for h in [OFFSET, 0, u64::MAX, 0x1234_5678_9ABC_DEF0] {
            for &v in &words {
                assert_eq!(mix_word(h, v), reference(h, v), "h={h:#x} v={v:#x}");
                assert_eq!(mix_bytes(h, &v.to_le_bytes()), reference(h, v));
            }
        }
    }
}
