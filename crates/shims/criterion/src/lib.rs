//! Offline shim for `criterion`.
//!
//! Implements the API subset the `sg-bench` benches use — benchmark
//! groups, `bench_function` / `bench_with_input`, `iter` / `iter_custom`,
//! `BenchmarkId`, `black_box`, and the `criterion_group!` / `criterion_main!` macros —
//! with a deliberately simple measurement loop: a short warm-up, then a
//! timed run long enough to report a stable mean (no statistics, no
//! HTML reports). Results print as `group/id  time: <mean> (<iters>
//! iters)`. Swapping in real criterion restores full statistics with no
//! source changes to the benches.

#![forbid(unsafe_code)]

use std::fmt::Write as _;
use std::hint;
use std::time::{Duration, Instant};

/// Opaque-to-the-optimizer value sink, mirroring `criterion::black_box`.
pub fn black_box<T>(x: T) -> T {
    hint::black_box(x)
}

/// A benchmark identifier (`name`, or `name/parameter`).
#[derive(Clone, Debug)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// An id with a function name and a parameter component.
    pub fn new(name: impl Into<String>, parameter: impl std::fmt::Display) -> Self {
        let mut id = name.into();
        let _ = write!(id, "/{parameter}");
        BenchmarkId { id }
    }

    /// An id carrying only a parameter component.
    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

impl std::fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.id)
    }
}

/// Anything usable as a benchmark name.
pub trait IntoBenchmarkId {
    /// The rendered id.
    fn into_id(self) -> String;
}

impl IntoBenchmarkId for BenchmarkId {
    fn into_id(self) -> String {
        self.id
    }
}

impl IntoBenchmarkId for &str {
    fn into_id(self) -> String {
        self.to_string()
    }
}

impl IntoBenchmarkId for String {
    fn into_id(self) -> String {
        self
    }
}

/// The per-benchmark timing driver handed to bench closures.
pub struct Bencher {
    /// Measured mean time per iteration, filled in by [`Bencher::iter`].
    mean: Duration,
    iters: u64,
    budget: Duration,
}

impl Bencher {
    /// Times `routine`, storing the mean iteration time.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // Warm-up and calibration: run until ~10ms or 5 iterations.
        let calib_start = Instant::now();
        let mut calib_iters = 0u64;
        while calib_iters < 5 || calib_start.elapsed() < Duration::from_millis(10) {
            black_box(routine());
            calib_iters += 1;
            if calib_iters >= 1_000_000 {
                break;
            }
        }
        let per_iter = calib_start.elapsed() / calib_iters as u32;
        // Timed run sized to the budget.
        let target = self
            .budget
            .as_nanos()
            .checked_div(per_iter.as_nanos().max(1))
            .unwrap_or(1)
            .clamp(1, 1_000_000) as u64;
        let start = Instant::now();
        for _ in 0..target {
            black_box(routine());
        }
        let elapsed = start.elapsed();
        self.mean = elapsed / target as u32;
        self.iters = target;
    }

    /// Times a routine that keeps its own clock, mirroring criterion's
    /// `iter_custom`: handed an iteration count, it returns how long the
    /// measured part of those iterations took — for benchmarks whose
    /// iterations include work that must stay untimed. The run is sized
    /// to the budget by wall time, untimed work included.
    pub fn iter_custom<R: FnMut(u64) -> Duration>(&mut self, mut routine: R) {
        const CALIBRATION_ITERS: u64 = 5;
        let calib_start = Instant::now();
        routine(CALIBRATION_ITERS);
        let per_iter = calib_start.elapsed() / CALIBRATION_ITERS as u32;
        let target = self
            .budget
            .as_nanos()
            .checked_div(per_iter.as_nanos().max(1))
            .unwrap_or(1)
            .clamp(1, 1_000_000) as u64;
        self.mean = routine(target) / target as u32;
        self.iters = target;
    }
}

/// A named group of benchmarks.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    budget: Duration,
}

impl BenchmarkGroup<'_> {
    /// Accepted for API compatibility; the shim sizes runs by time
    /// budget, not sample count.
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Sets the per-benchmark measurement budget.
    pub fn measurement_time(&mut self, budget: Duration) -> &mut Self {
        self.budget = budget;
        self
    }

    /// Runs one benchmark.
    pub fn bench_function<F>(&mut self, id: impl IntoBenchmarkId, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut bencher = Bencher {
            mean: Duration::ZERO,
            iters: 0,
            budget: self.budget,
        };
        f(&mut bencher);
        self.criterion.report(&self.name, &id.into_id(), &bencher);
        self
    }

    /// Runs one benchmark parameterized by `input`.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: impl IntoBenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        self.bench_function(id.into_id(), |bencher| f(bencher, input))
    }

    /// Finishes the group (printing happens eagerly; this is a no-op).
    pub fn finish(self) {}
}

/// The benchmark harness entry point.
pub struct Criterion {
    budget: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            budget: Duration::from_millis(300),
        }
    }
}

impl Criterion {
    /// Accepted for CLI compatibility; the shim ignores argv filters.
    pub fn configure_from_args(self) -> Self {
        self
    }

    /// Opens a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let budget = self.budget;
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            budget,
        }
    }

    /// Runs a stand-alone benchmark outside any group.
    pub fn bench_function<F>(&mut self, id: impl IntoBenchmarkId, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        self.benchmark_group("").bench_function(id, f);
        self
    }

    fn report(&self, group: &str, id: &str, bencher: &Bencher) {
        let label = if group.is_empty() {
            id.to_string()
        } else {
            format!("{group}/{id}")
        };
        println!(
            "{label:<56} time: {:>12?}  ({} iters)",
            bencher.mean, bencher.iters
        );
    }
}

/// Declares a benchmark group runner, mirroring `criterion_group!`.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default().configure_from_args();
            $( $target(&mut criterion); )+
        }
    };
    ($name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $config.configure_from_args();
            $( $target(&mut criterion); )+
        }
    };
}

/// Declares the bench `main`, mirroring `criterion_main!`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_ids_render() {
        assert_eq!(BenchmarkId::new("f", 3).to_string(), "f/3");
        assert_eq!(BenchmarkId::from_parameter("n9").to_string(), "n9");
    }

    #[test]
    fn bencher_measures_something() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("shim");
        group.measurement_time(Duration::from_millis(5));
        group.bench_function("noop", |b| b.iter(|| black_box(1 + 1)));
        group.finish();
    }
}
