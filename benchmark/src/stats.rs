//! Order statistics, the pass estimator, and seed derivation.

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn parse(s: &str) -> Option<Better> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }
}

/// The nearest-rank percentile: the smallest value with at least the
/// share `q` of the sample at or below it (`q` in (0, 1]). No
/// interpolation, so the result is always a value that was measured.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// The estimator of a timed metric over a run's passes: the best pass.
/// Interference on a shared VM only ever makes a pass slower, so the
/// least disturbed pass is the steadiest witness of what the code can
/// do; README.md has the measurements behind the choice.
pub fn best(values: &[f64], better: Better) -> f64 {
    let pick = match better {
        Better::Lower => f64::min,
        Better::Higher => f64::max,
    };
    values
        .iter()
        .copied()
        .reduce(pick)
        .expect("at least one pass")
}

/// `count` base seeds derived from the run's `--seed` (splitmix64), so
/// nearby seeds give unrelated plans.
pub fn base_seeds(seed: u64, count: usize) -> Vec<u64> {
    let mut state = seed;
    (0..count)
        .map(|_| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&v, 0.5), 3.0);
        assert_eq!(percentile(&v, 0.25), 2.0);
        assert_eq!(percentile(&v, 0.9), 5.0);
        assert_eq!(percentile(&v, 1.0), 5.0);
        assert_eq!(percentile(&v, 0.01), 1.0);
        // Even count: the lower middle, never an interpolated value.
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn best_pass_follows_the_metric_direction() {
        let passes = [10.0, 14.0, 9.5, 19.0, 12.0];
        assert_eq!(best(&passes, Better::Lower), 9.5);
        assert_eq!(best(&passes, Better::Higher), 19.0);
        assert_eq!(best(&[3.0], Better::Higher), 3.0);
    }

    #[test]
    fn base_seeds_are_deterministic_and_distinct() {
        let a = base_seeds(42, 12);
        assert_eq!(a, base_seeds(42, 12));
        assert_eq!(
            a[..4],
            base_seeds(42, 4)[..],
            "a prefix, whatever the count"
        );
        let mut unique = a.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), 12);
        assert!(base_seeds(43, 12).iter().all(|s| !a.contains(s)));
        // splitmix64's first output for state 0.
        assert_eq!(base_seeds(0, 1), [0xE220_A839_7B1D_CDAF]);
    }
}
