//! Offline shim for `rand`.
//!
//! Provides the subset of the `rand` 0.8 API this workspace uses —
//! [`rngs::StdRng`], [`SeedableRng::seed_from_u64`], [`Rng::gen`] and
//! [`Rng::gen_range`] — on top of a deterministic xoshiro256** core
//! seeded through SplitMix64 (the same construction the real `rand`
//! documents for `seed_from_u64`). The stream is stable across runs and
//! platforms, which is exactly what the adversary strategies need:
//! `seed` fully determines behaviour.

#![forbid(unsafe_code)]

use std::ops::Range;

/// Seedable random number generators.
pub trait SeedableRng: Sized {
    /// Creates a generator from a 64-bit seed via SplitMix64 expansion.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Values that can be produced uniformly by an RNG (stand-in for the
/// `Standard` distribution).
pub trait Standard: Sized {
    /// Draws one value from `rng`.
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

/// The raw 64-bit generator interface.
pub trait RngCore {
    /// The next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;
}

/// Types usable as `gen_range` bounds.
pub trait SampleUniform: Copy {
    /// Uniform draw from `[lo, hi)`; callers guarantee `lo < hi`.
    fn sample_half_open<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self;
}

macro_rules! impl_uniform_uint {
    ($($ty:ty),*) => {$(
        impl SampleUniform for $ty {
            fn sample_half_open<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self {
                let span = (hi as u128) - (lo as u128);
                // Debiased via 128-bit multiply-shift (Lemire's method).
                let x = rng.next_u64() as u128;
                lo + ((x * span) >> 64) as $ty
            }
        }
        impl Standard for $ty {
            fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $ty
            }
        }
    )*};
}

impl_uniform_uint!(u8, u16, u32, u64, usize);

impl Standard for bool {
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// High-level convenience methods, blanket-implemented for every core.
pub trait Rng: RngCore {
    /// Draws a uniformly random value of type `T`.
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::from_rng(self)
    }

    /// Draws uniformly from a half-open range.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn gen_range<T: SampleUniform + PartialOrd>(&mut self, range: Range<T>) -> T
    where
        Self: Sized,
    {
        assert!(range.start < range.end, "gen_range called with empty range");
        T::sample_half_open(range.start, range.end, self)
    }
}

impl<R: RngCore> Rng for R {}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Concrete RNG types.
pub mod rngs {
    use super::{splitmix64, RngCore, SeedableRng};

    /// The shim's standard generator: xoshiro256** with SplitMix64
    /// seeding. Deterministic and platform-independent.
    #[derive(Clone, Debug)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            StdRng {
                s: [
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                ],
            }
        }
    }

    impl RngCore for StdRng {
        #[inline]
        fn next_u64(&mut self) -> u64 {
            let out = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, RngCore, SeedableRng};

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..16 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        assert_ne!(a.gen::<u64>(), b.gen::<u64>());
    }

    /// The stream is part of every committed fingerprint: adversary lies
    /// are draws from it (and `sg-adversary`'s `edge_draw` re-derives
    /// its first output without this crate). A change here — a different
    /// generator, seeding or range reduction, or the real `rand`, whose
    /// `StdRng` is ChaCha12 — must fail in this test, not as a mystery
    /// fingerprint drift three crates away.
    #[test]
    fn stream_is_pinned() {
        let mut rng = StdRng::seed_from_u64(42);
        let raw: [u64; 8] = std::array::from_fn(|_| rng.next_u64());
        assert_eq!(
            raw,
            [
                0x1578_0b2e_0c2e_c716,
                0x6104_d986_6d11_3a7e,
                0xae17_5332_39e4_99a1,
                0xecb8_ad47_03b3_60a1,
                0xfde6_dc7f_e2ec_5e64,
                0xc50d_a531_0179_5238,
                0xb821_5485_5a65_ddb2,
                0xd99a_2743_ebe6_0087,
            ]
        );
        let binary: [u16; 8] = std::array::from_fn(|_| rng.gen_range(0u16..2));
        assert_eq!(binary, [1, 1, 1, 0, 1, 0, 1, 1]);
        let ternary: [u16; 8] = std::array::from_fn(|_| rng.gen_range(0u16..3));
        assert_eq!(ternary, [1, 2, 2, 2, 0, 0, 1, 1]);
        let offset: [usize; 8] = std::array::from_fn(|_| rng.gen_range(10usize..12));
        assert_eq!(offset, [10, 10, 10, 11, 11, 10, 10, 11]);
    }

    #[test]
    fn gen_range_stays_in_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let v: u16 = rng.gen_range(0u16..5);
            assert!(v < 5);
            let w = rng.gen_range(10usize..12);
            assert!((10..12).contains(&w));
        }
    }
}
