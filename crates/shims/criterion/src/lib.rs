//! Offline shim for `criterion`.
//!
//! Implements the API subset the `sg-bench` benches use — benchmark
//! groups, `bench_function` / `bench_with_input`, `iter` / `iter_custom`,
//! `BenchmarkId`, `black_box`, and the `criterion_group!` / `criterion_main!` macros —
//! with a deliberately simple measurement loop: a short warm-up, then a
//! timed run long enough to report a stable mean (no statistics, no
//! HTML reports). Results print as `group/id  time: <mean> (<iters>
//! iters)`. As in criterion, the first argument that is not a flag
//! filters by substring (`cargo bench --bench run_loop -- scalar_layers`);
//! a bench it filters out runs its closure once, untimed and unreported,
//! so state the closure writes for later asserts is still written.
//! Swapping in real criterion restores full statistics with no source
//! changes to the benches.

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
    /// False for a bench the filter leaves out: its routine runs once.
    timed: bool,
}

impl Bencher {
    /// Times `routine`, storing the mean iteration time.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        if !self.timed {
            black_box(routine());
            return;
        }
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
        if !self.timed {
            routine(1);
            return;
        }
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

    /// Runs one benchmark: timed and reported if the filter takes its
    /// `group/id`, else its routine once.
    pub fn bench_function<F>(&mut self, id: impl IntoBenchmarkId, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into_id();
        let label = if self.name.is_empty() {
            id
        } else {
            format!("{}/{id}", self.name)
        };
        let timed = self
            .criterion
            .filter
            .as_ref()
            .is_none_or(|filter| label.contains(filter.as_str()));
        let mut bencher = Bencher {
            mean: Duration::ZERO,
            iters: 0,
            budget: self.budget,
            timed,
        };
        f(&mut bencher);
        if timed {
            println!(
                "{label:<56} time: {:>12?}  ({} iters)",
                bencher.mean, bencher.iters
            );
        }
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
    /// Only benches whose `group/id` contains it are timed.
    filter: Option<String>,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            budget: Duration::from_millis(300),
            filter: None,
        }
    }
}

impl Criterion {
    /// Takes the bench filter from argv: the first argument that is not
    /// a flag (`cargo bench` adds `--bench`).
    pub fn configure_from_args(self) -> Self {
        self.with_filter(std::env::args().skip(1).find(|arg| !arg.starts_with('-')))
    }

    fn with_filter(self, filter: Option<String>) -> Self {
        Criterion { filter, ..self }
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

    #[test]
    fn a_filter_times_matching_ids_and_runs_the_rest_once() {
        let mut c = Criterion::default().with_filter(Some("shim/kept".to_string()));
        let mut group = c.benchmark_group("shim");
        group.measurement_time(Duration::from_millis(5));
        let (mut kept, mut skipped, mut skipped_custom) = (0u64, 0u64, 0u64);
        group.bench_function("kept", |b| b.iter(|| kept += 1));
        group.bench_function("skipped", |b| b.iter(|| skipped += 1));
        group.bench_function("skipped-custom", |b| {
            b.iter_custom(|iters| {
                skipped_custom += iters;
                Duration::ZERO
            })
        });
        group.finish();
        assert!(kept > 5, "a matching bench is timed: {kept} calls");
        assert_eq!((skipped, skipped_custom), (1, 1), "others run once");
    }
}
