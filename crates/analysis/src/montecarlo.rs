//! Monte-Carlo sweeps: distributions over randomized adversaries.
//!
//! The paper's bounds are worst-case; this module measures the *typical*
//! case by running many seeded executions and summarizing the spread.
//! Round counts are fixed by the schedules, but lock-in rounds, fault
//! discoveries, and traffic all depend on what the adversary does — their
//! distributions quantify how far typical executions sit from the
//! worst-case bounds the paper proves.

use sg_sim::{Outcome, TraceEvent};

use crate::stability::lock_in;

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
        let mut samples = 0;
        for v in values {
            samples += 1;
            moments.push(v, samples);
        }
        moments.finish(samples)
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
/// side by side. The sample count is the caller's, so `summarize`'s
/// five columns keep one between them.
///
/// A value equal to the running mean skips the two float updates. Its
/// `delta` is `+0.0` (`x − x` rounds to `+0.0`), so the textbook step
/// would add `+0.0 / k = +0.0` to `mean` and `+0.0 · (x − mean) = +0.0`
/// to `m2`. Adding a zero changes no bit of a value that is not `-0.0`,
/// and neither accumulator can be `-0.0`: both start at `+0.0`, and a
/// sum is `-0.0` only when both addends are. So the skip is exact, and
/// a column of equal values (every run of an early-stopped cell with a
/// correct source) pays for its division once. The count, `min` and
/// `max` still update: distinct `u64`s above 2^53 can round to one
/// `f64`, and then `delta` is `0.0` while `min` or `max` moves.
///
/// The same argument lets a run of one repeated value skip whole steps
/// ([`summarize`]): once the value has been pushed and the mean equals
/// it, every further copy has a zero delta and cannot move `min` or
/// `max`, so all it changes is the count. The first value pushed always
/// leaves the mean equal to it (`0 + (x − 0) / 1 = x`).
#[derive(Clone, Copy)]
struct Moments {
    min: u64,
    max: u64,
    mean: f64,
    m2: f64,
}

impl Moments {
    const EMPTY: Moments = Moments {
        min: u64::MAX,
        max: 0,
        mean: 0.0,
        m2: 0.0,
    };

    /// Steps in `v`, the column's `samples`-th value. The count is the
    /// caller's: [`summarize`]'s five columns share one.
    #[inline]
    fn push(&mut self, v: u64, samples: usize) {
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        let x = v as f64;
        let delta = x - self.mean;
        if delta != 0.0 {
            self.mean += delta / samples as f64;
            self.m2 += delta * (x - self.mean);
        }
    }

    fn finish(self, samples: usize) -> Summary {
        assert!(samples > 0, "cannot summarize an empty sample");
        Summary {
            samples,
            min: self.min,
            max: self.max,
            mean: self.mean,
            stddev: (self.m2 / samples as f64).sqrt(),
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

/// How many of `samples`' first rows equal the first one: the cell's
/// leading run, which [`summarize`] and [`crate::Fingerprint::mix_cell`]
/// reduce at once. A correct-source king cell is one row repeated, so
/// its leading run is the whole cell.
pub(crate) fn leading_run(samples: &[Sample]) -> usize {
    samples.first().map_or(0, |first| {
        samples.iter().take_while(|s| *s == first).count()
    })
}

/// Summaries (lock-in, discoveries, bits, ops, rounds) of a sample set,
/// in one pass over `samples`, one step for the cell's leading run.
///
/// The five Welford recurrences step side by side, each column in its
/// own operation order (`delta`, `mean += delta / k`,
/// `m2 += delta·(x − mean)`), so every `f64` is bit-identical to five
/// [`Summary::of`] calls while the five dependency chains overlap
/// instead of running back to back.
///
/// The cell's leading run of equal rows takes one step and then only
/// counts: the mean of one value is that value, so after the first row
/// every column's mean equals it, and by the zero-delta argument on
/// `Moments` each further copy changes nothing but the count. A cell
/// that repeats one row 64 times, as a correct-source king cell does,
/// costs one step, not 64. Later rows step one by one: a later run's
/// value equals its column's running mean only by coincidence, so it
/// could not skip, and reading runs there (`chunk_by`) made the row
/// loop of a cell with varied rows slower.
///
/// # Panics
///
/// Panics if `samples` is empty, like [`Summary::of`].
pub fn summarize(samples: &[Sample]) -> [Summary; 5] {
    let mut columns = [Moments::EMPTY; 5];
    let lead = leading_run(samples);
    if let Some(first) = samples.first() {
        for (column, v) in columns.iter_mut().zip(columns_of(first)) {
            column.push(v, 1);
        }
    }
    let mut count = lead;
    for s in &samples[lead..] {
        count += 1;
        for (column, v) in columns.iter_mut().zip(columns_of(s)) {
            column.push(v, count);
        }
    }
    columns.map(|column| column.finish(count))
}

/// A sample's five summarized quantities, in [`summarize`]'s order.
fn columns_of(s: &Sample) -> [u64; 5] {
    [
        s.lock_in,
        s.discoveries,
        s.total_bits,
        s.max_local_ops,
        s.rounds,
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
    use crate::sweep::{AdversaryFamily, SweepConfig, SweepPlan};
    use sg_adversary::FaultSelection;
    use sg_core::AlgorithmSpec;

    /// `seeds` random-liar runs of `spec` at `(n, t)`, the source among
    /// the liars, in seed order: one cell at base seed 0, so run `i`
    /// sees adversary seed `i`.
    fn random_liar_samples(spec: AlgorithmSpec, n: usize, t: usize, seeds: u64) -> Vec<Sample> {
        let plan = SweepPlan::new(
            vec![SweepConfig::traced(spec, n, t)],
            vec![AdversaryFamily::random_liar(FaultSelection::with_source())],
            seeds,
        );
        plan.run().cells.swap_remove(0).samples
    }

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

    /// Cells whose rows come in runs of equal samples, leading runs
    /// long and short: the shapes [`summarize`] and
    /// [`crate::Fingerprint::mix_cell`] must reduce exactly.
    fn run_shaped_cells() -> Vec<Vec<Sample>> {
        let sample = |v: [u64; 5]| Sample {
            lock_in: v[0],
            discoveries: v[1],
            total_bits: v[2],
            max_local_ops: v[3],
            rounds: v[4],
            early_stopped: v[4] < 5,
        };
        let big = 1u64 << 53;
        let king = sample([3, 0, 2_709_504, 1_203, 3]);
        let run = |row: Sample, len: usize| vec![row; len];
        vec![
            // A one-row cell.
            vec![king],
            // A king cell: one row 64 times, the mean exact from the
            // first push.
            run(king, 64),
            // A leading run of all-zero rows, then other rows.
            [run(sample([0; 5]), 17), run(king, 3), vec![sample([0; 5])]].concat(),
            // Runs that start after the mean moved off their values: 1
            // then 3s walks the mean towards 3 without reaching it, so
            // no run after the first could skip its rows.
            [
                run(sample([1, 0, 10, 7, 3]), 1),
                run(sample([3, 0, 30, 7, 3]), 40),
                run(sample([2, 0, 20, 7, 9]), 3),
                run(sample([3, 0, 30, 7, 3]), 20),
            ]
            .concat(),
            // Above 2^53 distinct integers share one f64: a run whose
            // value reads as the mean still moves min and max.
            [
                run(sample([big, big + 1, u64::MAX, big << 1, big]), 20),
                run(sample([big + 1, big, u64::MAX - 1, (big << 1) + 1, big]), 7),
                run(sample([big, big + 3, u64::MAX - 2, big << 1, big + 2]), 2),
            ]
            .concat(),
            // Alternating rows: runs of one, then runs of two.
            (0..33u64)
                .map(|k| sample([k % 2, 0, 400 + k % 2, 25, 3]))
                .collect(),
            (0..34u64)
                .map(|k| sample([(k / 2) % 2, k / 2 % 2, 400, 25 + (k / 2) % 2, 3]))
                .collect(),
        ]
    }

    #[test]
    fn run_length_summaries_are_the_textbook_recurrence_bit_for_bit() {
        let columns: [fn(&Sample) -> u64; 5] = [
            |s| s.lock_in,
            |s| s.discoveries,
            |s| s.total_bits,
            |s| s.max_local_ops,
            |s| s.rounds,
        ];
        for samples in run_shaped_cells() {
            for (got, column) in summarize(&samples).iter().zip(columns) {
                let values: Vec<u64> = samples.iter().map(column).collect();
                let (count, min, max, mean, stddev) = textbook_welford(&values);
                assert_eq!((got.samples, got.min, got.max), (count, min, max));
                assert_eq!(got.mean.to_bits(), mean.to_bits(), "{values:?}");
                assert_eq!(got.stddev.to_bits(), stddev.to_bits(), "{values:?}");
            }
        }
    }

    #[test]
    fn a_cells_fingerprint_folds_its_runs_as_its_rows() {
        for samples in run_shaped_cells() {
            let mut per_row = crate::Fingerprint::new();
            for s in &samples {
                per_row.mix_sample(s);
            }
            let cell = crate::CellReport {
                spec_name: "optimal-king".into(),
                n: 16,
                t: 5,
                adversary: "crash".into(),
                first_seed: 0,
                early_stop_rate: early_stop_rate(&samples),
                summaries: summarize(&samples),
                samples,
            };
            let mut per_run = crate::Fingerprint::new();
            per_run.mix_cell(&cell);
            assert_eq!(per_run, per_row, "{:?}", cell.samples);
        }
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn empty_summary_panics() {
        let _ = Summary::of(Vec::<u64>::new());
    }

    #[test]
    fn random_liar_sweep_is_deterministic_per_seed() {
        let a = random_liar_samples(AlgorithmSpec::Exponential, 7, 2, 4);
        let b = random_liar_samples(AlgorithmSpec::Exponential, 7, 2, 4);
        assert_eq!(a, b);
        assert_eq!(a.len(), 4);
    }

    #[test]
    fn hybrid_lock_in_distribution_sits_inside_schedule() {
        let samples = random_liar_samples(AlgorithmSpec::Hybrid { b: 3 }, 13, 4, 6);
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
        let samples = random_liar_samples(AlgorithmSpec::OptimalKing, 7, 2, 4);
        // Source-faulty random liars still let correct processors lock
        // quickly at n = 7, t = 2; at minimum the rate is well-defined.
        let rate = early_stop_rate(&samples);
        assert!((0.0..=1.0).contains(&rate));
        let [.., rounds] = summarize(&samples);
        assert!(rounds.max <= AlgorithmSpec::OptimalKing.rounds(7, 2) as u64);
    }
}
