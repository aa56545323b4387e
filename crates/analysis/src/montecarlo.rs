//! Monte-Carlo sweeps: distributions over randomized adversaries.
//!
//! The paper's bounds are worst-case; this module measures the *typical*
//! case by running many seeded executions and summarizing the spread.
//! Round counts are fixed by the schedules, but lock-in rounds, fault
//! discoveries, and traffic all depend on what the adversary does — their
//! distributions quantify how far typical executions sit from the
//! worst-case bounds the paper proves.

use sg_adversary::FaultSelection;
use sg_core::AlgorithmSpec;
use sg_sim::{Outcome, TraceEvent};

use crate::stability::lock_in;
use crate::sweep::{AdversaryFamily, SweepConfig, SweepPlan};

/// Summary statistics of a sample of non-negative integers.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Summary {
    /// Number of samples.
    pub samples: usize,
    /// Smallest observation.
    pub min: u64,
    /// Largest observation.
    pub max: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub stddev: f64,
}

impl Summary {
    /// Summarizes `values` in one streaming pass (Welford's online
    /// moments), so callers can feed iterators of any size without an
    /// intermediate buffer.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty — an empty experiment is a bug, not a
    /// statistic.
    pub fn of<I: IntoIterator<Item = u64>>(values: I) -> Summary {
        let mut samples = 0usize;
        let mut min = u64::MAX;
        let mut max = 0u64;
        let mut mean = 0.0f64;
        let mut m2 = 0.0f64;
        for v in values {
            samples += 1;
            min = min.min(v);
            max = max.max(v);
            let x = v as f64;
            let delta = x - mean;
            mean += delta / samples as f64;
            m2 += delta * (x - mean);
        }
        assert!(samples > 0, "cannot summarize an empty sample");
        Summary {
            samples,
            min,
            max,
            mean,
            stddev: (m2 / samples as f64).sqrt(),
        }
    }

    /// Renders as `min/mean±stddev/max`.
    pub fn render(&self) -> String {
        format!(
            "{}/{:.1}±{:.1}/{}",
            self.min, self.mean, self.stddev, self.max
        )
    }
}

/// One execution's sampled quantities.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Sample {
    /// System-wide decision lock-in round (see [`crate::stability`]).
    pub lock_in: u64,
    /// Number of (discoverer, suspect) fault-discovery events among
    /// correct processors.
    pub discoveries: u64,
    /// Total honest traffic in bits.
    pub total_bits: u64,
    /// Largest per-processor local-computation charge.
    pub max_local_ops: u64,
    /// Rounds actually executed (`Outcome::rounds_used`): equals the
    /// static schedule unless the run early-stopped.
    pub rounds: u64,
    /// Whether the run terminated before its static schedule ended.
    pub early_stopped: bool,
}

/// Extracts a [`Sample`] from a traced outcome.
pub fn sample_of(outcome: &Outcome) -> Sample {
    let discoveries = outcome
        .trace
        .entries()
        .iter()
        .filter(|e| matches!(e.event, TraceEvent::Discovered { .. }))
        .count() as u64;
    Sample {
        lock_in: lock_in(outcome).system_lock_in().unwrap_or(0) as u64,
        discoveries,
        total_bits: outcome.metrics.total_bits(),
        max_local_ops: outcome.metrics.max_local_ops(),
        rounds: outcome.rounds_used as u64,
        early_stopped: outcome.early_stopped,
    }
}

/// Distribution of [`Sample`]s for `spec` over `seeds` random-liar
/// executions (faulty set includes the source, so validity is stressed
/// where it is vacuous and agreement everywhere).
///
/// Runs on the parallel sweep engine ([`crate::sweep`]); the single-cell
/// plan's seed stream starts at 0, so run `i` sees adversary seed `i` —
/// the exact seeds the original sequential loop used — and the returned
/// samples are in seed order regardless of worker count.
///
/// # Panics
///
/// Panics if any execution violates agreement, or `seeds` is 0.
pub fn random_liar_sweep(spec: AlgorithmSpec, n: usize, t: usize, seeds: u64) -> Vec<Sample> {
    assert!(seeds > 0, "need at least one seed");
    let plan = SweepPlan::new(
        vec![SweepConfig::traced(spec, n, t)],
        vec![AdversaryFamily::random_liar(FaultSelection::with_source())],
        seeds,
    );
    let mut report = plan.run();
    report.cells.swap_remove(0).samples
}

/// Summaries (lock-in, discoveries, bits, ops, rounds) of a sample set.
pub fn summarize(samples: &[Sample]) -> [Summary; 5] {
    [
        Summary::of(samples.iter().map(|s| s.lock_in)),
        Summary::of(samples.iter().map(|s| s.discoveries)),
        Summary::of(samples.iter().map(|s| s.total_bits)),
        Summary::of(samples.iter().map(|s| s.max_local_ops)),
        Summary::of(samples.iter().map(|s| s.rounds)),
    ]
}

/// Fraction of `samples` whose run terminated before its schedule ended
/// (0.0 for an empty slice).
pub fn early_stop_rate(samples: &[Sample]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().filter(|s| s.early_stopped).count() as f64 / samples.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_statistics_are_exact() {
        let s = Summary::of([2u64, 4, 4, 4, 5, 5, 7, 9]);
        assert_eq!(s.samples, 8);
        assert_eq!(s.min, 2);
        assert_eq!(s.max, 9);
        assert!((s.mean - 5.0).abs() < 1e-9);
        assert!((s.stddev - 2.0).abs() < 1e-9);
        assert_eq!(s.render(), "2/5.0±2.0/9");
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn empty_summary_panics() {
        let _ = Summary::of(Vec::<u64>::new());
    }

    #[test]
    fn random_liar_sweep_is_deterministic_per_seed() {
        let a = random_liar_sweep(AlgorithmSpec::Exponential, 7, 2, 4);
        let b = random_liar_sweep(AlgorithmSpec::Exponential, 7, 2, 4);
        assert_eq!(a, b);
        assert_eq!(a.len(), 4);
    }

    #[test]
    fn hybrid_lock_in_distribution_sits_inside_schedule() {
        let samples = random_liar_sweep(AlgorithmSpec::Hybrid { b: 3 }, 13, 4, 6);
        let [lock, disc, bits, ops, rounds] = summarize(&samples);
        let schedule = AlgorithmSpec::Hybrid { b: 3 }.rounds(13, 4) as u64;
        assert!(lock.max <= schedule);
        assert!(disc.max >= disc.min);
        assert!(bits.min > 0);
        assert!(ops.min > 0);
        // The source lies at random, so nobody stops on the first echo;
        // the first A block (b = 3) reconciles the correct processors and
        // every run ends at the second block's first echo.
        assert_eq!((rounds.min, rounds.max), (5, 5));
        assert!(rounds.max < schedule);
        assert!((early_stop_rate(&samples) - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn early_stop_rate_counts_expedited_runs() {
        assert!((early_stop_rate(&[]) - 0.0).abs() < f64::EPSILON);
        let samples = random_liar_sweep(AlgorithmSpec::OptimalKing, 7, 2, 4);
        // Source-faulty random liars still let correct processors lock
        // quickly at n = 7, t = 2; at minimum the rate is well-defined.
        let rate = early_stop_rate(&samples);
        assert!((0.0..=1.0).contains(&rate));
        let [.., rounds] = summarize(&samples);
        assert!(rounds.max <= AlgorithmSpec::OptimalKing.rounds(7, 2) as u64);
    }
}
