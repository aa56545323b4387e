//! Protocol parameters and the resilience bounds of the paper's three
//! algorithm families.

use sg_sim::{ProcessId, RunConfig, ValueDomain};

/// Static parameters shared by every processor running a protocol.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Params {
    /// System size.
    pub n: usize,
    /// Fault bound the instance is built for (used by discovery
    /// thresholds and `resolve'`).
    pub t: usize,
    /// The distinguished source.
    pub source: ProcessId,
    /// The agreement value domain.
    pub domain: ValueDomain,
}

impl Params {
    /// Extracts protocol parameters from an engine configuration.
    pub fn from_config(config: &RunConfig) -> Self {
        Params {
            n: config.n,
            t: config.t,
            source: config.source,
            domain: config.domain,
        }
    }
}

/// The leader (king or queen) of 0-based `phase` in every phase-leader
/// family, scalar and lock-step alike: the `phase`-th processor id,
/// skipping the source so its round-1 influence is not doubled.
pub(crate) fn phase_leader(n: usize, source: usize, phase: usize) -> usize {
    let leader = phase + usize::from(phase >= source);
    debug_assert!(leader < n, "phase {phase} exceeds the {} leaders", n - 1);
    leader
}

/// Algorithm A's (and the Exponential Algorithm's and the hybrid's)
/// resilience: `t_A = ⌊(n−1)/3⌋` (paper §4).
pub fn t_a(n: usize) -> usize {
    (n.saturating_sub(1)) / 3
}

/// Algorithm B's resilience: `t_B = ⌊(n−1)/4⌋` (paper §4.1).
pub fn t_b(n: usize) -> usize {
    (n.saturating_sub(1)) / 4
}

/// Algorithm C's resilience — the largest `t` satisfying both proof
/// obligations of Proposition 4:
///
/// * `n − 2t > n/2` (the round-2 branch, with `|L_p| = 0`), i.e. `4t < n`;
/// * `n − t − (t−1)² > n/2` (the later-round branch, with `|L_p| ≥ 1`),
///   i.e. `2(t−1)² < n − 2t`.
///
/// Asymptotically this is the paper's `√(n/2)`; for small `n` the `4t < n`
/// constraint binds.
pub fn t_c(n: usize) -> usize {
    let mut best = 0usize;
    for t in 1..n {
        let fits_quarter = 4 * t < n;
        let lhs = 2 * (t - 1) * (t - 1);
        let fits_sqrt = n > 2 * t && lhs < n - 2 * t;
        if fits_quarter && fits_sqrt {
            best = t;
        } else if !fits_quarter {
            break;
        }
    }
    best
}

/// Integer square root (floor).
pub fn isqrt(x: usize) -> usize {
    if x < 2 {
        return x;
    }
    let mut r = (x as f64).sqrt() as usize;
    while (r + 1) * (r + 1) <= x {
        r += 1;
    }
    while r * r > x {
        r -= 1;
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The closed form is the skip-the-source enumeration, wherever the
    /// source sits.
    #[test]
    fn phase_leader_enumerates_the_non_source_ids_in_order() {
        for n in 2..=9 {
            for source in 0..n {
                let expected: Vec<usize> = (0..n).filter(|&id| id != source).collect();
                let leaders: Vec<usize> = (0..n - 1).map(|k| phase_leader(n, source, k)).collect();
                assert_eq!(leaders, expected, "n={n} source={source}");
            }
        }
    }

    #[test]
    fn linear_resiliences() {
        assert_eq!(t_a(4), 1);
        assert_eq!(t_a(16), 5);
        assert_eq!(t_a(31), 10);
        assert_eq!(t_b(5), 1);
        assert_eq!(t_b(21), 5);
        assert_eq!(t_b(41), 10);
    }

    #[test]
    fn t_c_matches_sqrt_half_n_for_large_n() {
        for &(n, want) in &[(18, 3), (32, 4), (50, 5), (72, 6), (98, 7)] {
            assert_eq!(t_c(n), want, "n={n}");
            assert_eq!(isqrt(n / 2), want, "sqrt check n={n}");
        }
    }

    #[test]
    fn t_c_small_n_bound_by_quarter() {
        assert_eq!(t_c(4), 0);
        assert_eq!(t_c(5), 1);
        assert_eq!(t_c(8), 1);
        assert_eq!(t_c(9), 2);
    }

    #[test]
    fn t_c_satisfies_proof_inequalities() {
        for n in 5..200 {
            let t = t_c(n);
            if t == 0 {
                continue;
            }
            assert!(4 * t < n, "n={n} t={t}");
            assert!(2 * (t - 1) * (t - 1) < n - 2 * t, "n={n} t={t}");
        }
    }

    #[test]
    fn isqrt_exact() {
        for x in 0..1000usize {
            let r = isqrt(x);
            assert!(r * r <= x && (r + 1) * (r + 1) > x, "x={x} r={r}");
        }
    }
}
