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
        let mut moments = Moments::EMPTY;
        for v in values {
            moments.push(v);
        }
        moments.finish()
    }

    /// Renders as `min/mean±stddev/max`.
    pub fn render(&self) -> String {
        format!(
            "{}/{:.1}±{:.1}/{}",
            self.min, self.mean, self.stddev, self.max
        )
    }
}

/// Welford's online moments of one column, the one place the
/// recurrence is written: [`Summary::of`] steps one, [`summarize`] five
/// side by side.
///
/// A value equal to the running mean skips the two float updates. Its
/// `delta` is `+0.0` (`x − x` rounds to `+0.0`), so the textbook step
/// would add `+0.0 / k = +0.0` to `mean` and `+0.0 · (x − mean) = +0.0`
/// to `m2`. Adding a zero changes no bit of a value that is not `-0.0`,
/// and neither accumulator can be `-0.0`: both start at `+0.0`, and a
/// sum is `-0.0` only when both addends are. So the skip is exact, and
/// a column of equal values (every run of an early-stopped cell with a
/// correct source) pays for its division once. `samples`, `min` and
/// `max` still update: distinct `u64`s above 2^53 can round to one
/// `f64`, and then `delta` is `0.0` while `min` or `max` moves.
#[derive(Clone, Copy)]
struct Moments {
    samples: usize,
    min: u64,
    max: u64,
    mean: f64,
    m2: f64,
}

impl Moments {
    const EMPTY: Moments = Moments {
        samples: 0,
        min: u64::MAX,
        max: 0,
        mean: 0.0,
        m2: 0.0,
    };

    #[inline]
    fn push(&mut self, v: u64) {
        self.samples += 1;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        let x = v as f64;
        let delta = x - self.mean;
        if delta != 0.0 {
            self.mean += delta / self.samples as f64;
            self.m2 += delta * (x - self.mean);
        }
    }

    fn finish(self) -> Summary {
        assert!(self.samples > 0, "cannot summarize an empty sample");
        Summary {
            samples: self.samples,
            min: self.min,
            max: self.max,
            mean: self.mean,
            stddev: (self.m2 / self.samples as f64).sqrt(),
        }
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

/// Summaries (lock-in, discoveries, bits, ops, rounds) of a sample set,
/// in one pass over `samples`.
///
/// The five Welford recurrences step side by side, each column in its
/// own operation order (`delta`, `mean += delta / k`,
/// `m2 += delta·(x − mean)`), so every `f64` is bit-identical to five
/// [`Summary::of`] calls while the five dependency chains overlap
/// instead of running back to back. A value equal to its column's
/// running mean skips the float updates, which would add `+0.0` and
/// change no bit (the argument is on `Moments`): a cell whose samples
/// repeat one row pays for one division per column, not one per row.
///
/// # Panics
///
/// Panics if `samples` is empty, like [`Summary::of`].
pub fn summarize(samples: &[Sample]) -> [Summary; 5] {
    let mut columns = [Moments::EMPTY; 5];
    for s in samples {
        let values = [
            s.lock_in,
            s.discoveries,
            s.total_bits,
            s.max_local_ops,
            s.rounds,
        ];
        for (column, v) in columns.iter_mut().zip(values) {
            column.push(v);
        }
    }
    columns.map(Moments::finish)
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
    fn one_pass_summaries_are_five_summaries_bit_for_bit() {
        let sample = |v: [u64; 5]| Sample {
            lock_in: v[0],
            discoveries: v[1],
            total_bits: v[2],
            max_local_ops: v[3],
            rounds: v[4],
            early_stopped: true,
        };
        let big = 1u64 << 53;
        let sets: Vec<Vec<Sample>> = vec![
            vec![sample([3, 0, 411, 25, 3])],
            vec![sample([7, 7, 7, 7, 7]); 64],
            (0..64)
                .map(|k| sample([big + k, big * 3 + k * k, u64::MAX - k, big - 1, k << 40]))
                .collect(),
            (0..200u64)
                .map(|k| {
                    let mixed = k.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (k % 64);
                    sample([k % 5, mixed, 1 << (k % 64), k * k * k, mixed ^ k])
                })
                .collect(),
        ];
        for samples in &sets {
            let columns: [fn(&Sample) -> u64; 5] = [
                |s| s.lock_in,
                |s| s.discoveries,
                |s| s.total_bits,
                |s| s.max_local_ops,
                |s| s.rounds,
            ];
            for (got, column) in summarize(samples).iter().zip(columns) {
                let want = Summary::of(samples.iter().map(column));
                assert_eq!(
                    (got.samples, got.min, got.max),
                    (want.samples, want.min, want.max)
                );
                assert_eq!(got.mean.to_bits(), want.mean.to_bits());
                assert_eq!(got.stddev.to_bits(), want.stddev.to_bits());
            }
        }
    }

    /// The recurrence without the zero-delta skip, step for step as the
    /// textbook writes it: `(samples, min, max, mean, stddev)`.
    fn textbook_welford(values: &[u64]) -> (usize, u64, u64, f64, f64) {
        let (mut min, mut max, mut mean, mut m2) = (u64::MAX, 0, 0.0f64, 0.0f64);
        for (k, &v) in values.iter().enumerate() {
            min = min.min(v);
            max = max.max(v);
            let x = v as f64;
            let delta = x - mean;
            mean += delta / (k + 1) as f64;
            m2 += delta * (x - mean);
        }
        let stddev = (m2 / values.len() as f64).sqrt();
        (values.len(), min, max, mean, stddev)
    }

    #[test]
    fn skipping_zero_deltas_is_the_textbook_recurrence_bit_for_bit() {
        let sample = |v: [u64; 5]| Sample {
            lock_in: v[0],
            discoveries: v[1],
            total_bits: v[2],
            max_local_ops: v[3],
            rounds: v[4],
            early_stopped: true,
        };
        let big = 1u64 << 53;
        let sets: Vec<Vec<Sample>> = vec![
            // Constant columns, one of them zero: every row after the
            // first has a zero delta.
            vec![sample([3, 0, 2_709_504, 1_203, 3]); 64],
            vec![sample([0; 5]); 17],
            // Runs that start mid-stream, after the mean has moved off
            // the values: the first repeat's delta is not zero, a later
            // one may be.
            (0..96u64)
                .map(|k| {
                    let run = if k < 5 { k * 7 } else { 40 + (k / 30) };
                    sample([run, k.min(9), 1_000 + run * run, 5, 3 + (k >= 50) as u64])
                })
                .collect(),
            // At and above 2^53, distinct integers share one f64: 2^53
            // and 2^53 + 1 both read 2^53, so their deltas are zero while
            // min and max move.
            (0..64u64)
                .map(|k| {
                    let odd = k % 2;
                    sample([
                        big + odd,
                        big - 1 + k % 3,
                        u64::MAX - odd,
                        (big << 1) + k % 2,
                        big,
                    ])
                })
                .collect(),
            (0..200u64)
                .map(|k| {
                    let mixed = k.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (k % 64);
                    sample([k % 5, mixed, 1 << (k % 64), k * k * k, mixed ^ k])
                })
                .collect(),
        ];
        let columns: [fn(&Sample) -> u64; 5] = [
            |s| s.lock_in,
            |s| s.discoveries,
            |s| s.total_bits,
            |s| s.max_local_ops,
            |s| s.rounds,
        ];
        for (set, samples) in sets.iter().enumerate() {
            let mut skipped = 0;
            for (got, column) in summarize(samples).iter().zip(columns) {
                let values: Vec<u64> = samples.iter().map(column).collect();
                let one = Summary::of(values.iter().copied());
                let (count, min, max, mean, stddev) = textbook_welford(&values);
                for got in [got, &one] {
                    assert_eq!((got.samples, got.min, got.max), (count, min, max));
                    assert_eq!(got.mean.to_bits(), mean.to_bits(), "{values:?}");
                    assert_eq!(got.stddev.to_bits(), stddev.to_bits(), "{values:?}");
                }
                // Count the rows that took the skip, so the sets above
                // are known to exercise it.
                let mut mean = 0.0f64;
                for (k, &v) in values.iter().enumerate() {
                    let delta = v as f64 - mean;
                    if delta == 0.0 {
                        skipped += 1;
                    }
                    mean += delta / (k + 1) as f64;
                }
            }
            // Every set but the mixed one takes the skip.
            assert!(set == 4 || skipped > 5, "set {set}: {skipped} zero deltas");
        }
        // The 2^53 set: the column whose values read as one f64 still
        // reports its two integers.
        let [lock, ..] = summarize(&sets[3]);
        assert_eq!((lock.min, lock.max), (big, big + 1));
        assert_eq!(lock.mean.to_bits(), (big as f64).to_bits());
        assert_eq!(lock.stddev.to_bits(), 0.0f64.to_bits());
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
