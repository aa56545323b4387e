//! Offline shim for `rayon`.
//!
//! The build environment cannot fetch crates.io, so this crate implements
//! the slice of the rayon API that `sg_analysis::sweep` consumes:
//!
//! * [`ThreadPoolBuilder`] / [`ThreadPool::install`] — thread-count
//!   scoping (the pool is virtual: worker threads are spawned per
//!   terminal operation with `std::thread::scope`, not kept alive);
//! * [`prelude::IntoParallelIterator`] / parallel `map` / `collect` /
//!   `for_each` — executed by a shared LIFO work queue drained by the
//!   scoped workers.
//!
//! Ordering guarantee (the one the sweep engine's determinism proof
//! rests on): `collect` returns results **in input order** regardless of
//! which worker ran which item, and `install(1)` degrades to a plain
//! sequential loop on the calling thread, which allocates nothing but
//! the result vector. Workers are spawned per call, so this shim is
//! intended for coarse-grained tasks (one task = one simulator execution
//! or more), which is the only way the sweep engine uses it.

#![forbid(unsafe_code)]

use std::cell::Cell;
use std::sync::Mutex;
use std::thread;

thread_local! {
    /// Thread count installed by [`ThreadPool::install`]; 0 = default.
    static INSTALLED_THREADS: Cell<usize> = const { Cell::new(0) };
}

/// The number of threads terminal operations on this thread will use.
pub fn current_num_threads() -> usize {
    let installed = INSTALLED_THREADS.with(Cell::get);
    if installed > 0 {
        installed
    } else {
        thread::available_parallelism().map_or(1, usize::from)
    }
}

/// Error type for [`ThreadPoolBuilder::build`] (the shim never fails).
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("thread pool build error")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Builder mirroring `rayon::ThreadPoolBuilder`.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    /// A builder with default settings.
    pub fn new() -> Self {
        ThreadPoolBuilder::default()
    }

    /// Sets the thread count; 0 means "hardware default".
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    /// Builds the (virtual) pool.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        Ok(ThreadPool {
            num_threads: self.num_threads,
        })
    }
}

/// A virtual thread pool: holds a thread-count setting that [`install`]
/// scopes onto the calling thread; workers are spawned per operation.
///
/// [`install`]: ThreadPool::install
#[derive(Debug)]
pub struct ThreadPool {
    num_threads: usize,
}

impl ThreadPool {
    /// The thread count terminal operations inside `install` will use.
    pub fn current_num_threads(&self) -> usize {
        if self.num_threads > 0 {
            self.num_threads
        } else {
            thread::available_parallelism().map_or(1, usize::from)
        }
    }

    /// Runs `op` with this pool's thread count installed.
    pub fn install<R>(&self, op: impl FnOnce() -> R) -> R {
        INSTALLED_THREADS.with(|cell| {
            let prev = cell.get();
            cell.set(self.current_num_threads());
            let out = op();
            cell.set(prev);
            out
        })
    }
}

/// Runs `f` over `items` on the currently installed thread count,
/// returning results in input order. One thread maps in place on the
/// calling thread; more share a LIFO queue of `(index, item)` pairs and
/// the results are re-sorted by index, so drain order never shows in
/// the output.
fn run<T: Send, R: Send>(items: Vec<T>, f: &(impl Fn(T) -> R + Sync)) -> Vec<R> {
    let threads = current_num_threads().min(items.len());
    if threads <= 1 {
        return items.into_iter().map(f).collect();
    }
    let n = items.len();
    let queue: Mutex<Vec<(usize, T)>> = Mutex::new(items.into_iter().enumerate().rev().collect());
    let results: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(n));
    thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let item = queue.lock().unwrap_or_else(|e| e.into_inner()).pop();
                let Some((i, item)) = item else { break };
                let out = f(item);
                results
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .push((i, out));
            });
        }
    });
    let mut out = results.into_inner().unwrap_or_else(|e| e.into_inner());
    out.sort_unstable_by_key(|(i, _)| *i);
    out.into_iter().map(|(_, r)| r).collect()
}

/// Parallel iterator types and traits.
pub mod iter {
    use super::run;
    use std::ops::Range;

    /// A materialized parallel iterator: its items, not yet mapped.
    pub struct ParIter<T: Send> {
        items: Vec<T>,
    }

    /// A parallel iterator's items and the one function that maps them,
    /// shared by reference with every worker (nothing is boxed).
    pub struct Map<T: Send, F> {
        items: Vec<T>,
        f: F,
    }

    /// Conversion into a parallel iterator.
    pub trait IntoParallelIterator {
        /// Item type.
        type Item: Send;
        /// Converts `self`.
        fn into_par_iter(self) -> ParIter<Self::Item>;
    }

    impl<T: Send> IntoParallelIterator for Vec<T> {
        type Item = T;
        fn into_par_iter(self) -> ParIter<T> {
            ParIter { items: self }
        }
    }

    impl IntoParallelIterator for Range<usize> {
        type Item = usize;
        fn into_par_iter(self) -> ParIter<usize> {
            self.collect::<Vec<usize>>().into_par_iter()
        }
    }

    /// Collection from a parallel iterator (ordered).
    pub trait FromParallelIterator<T: Send> {
        /// Builds the collection from ordered results.
        fn from_par_iter(results: Vec<T>) -> Self;
    }

    impl<T: Send> FromParallelIterator<T> for Vec<T> {
        fn from_par_iter(results: Vec<T>) -> Self {
            results
        }
    }

    impl<T: Send> ParIter<T> {
        /// Maps each item through `f` (runs on the workers).
        pub fn map<R, F>(self, f: F) -> Map<T, F>
        where
            R: Send,
            F: Fn(T) -> R + Sync,
        {
            Map {
                items: self.items,
                f,
            }
        }

        /// Collects the items in input order.
        pub fn collect<C: FromParallelIterator<T>>(self) -> C {
            C::from_par_iter(self.items)
        }

        /// Runs `f` on each item for its side effects.
        pub fn for_each<F: Fn(T) + Sync>(self, f: F) {
            let _: Vec<()> = self.map(f).collect();
        }

        /// Number of items in the pipeline.
        pub fn len(&self) -> usize {
            self.items.len()
        }

        /// Whether the pipeline is empty.
        pub fn is_empty(&self) -> bool {
            self.items.is_empty()
        }
    }

    impl<T: Send, R: Send, F: Fn(T) -> R + Sync> Map<T, F> {
        /// Executes the pipeline, collecting results in input order.
        pub fn collect<C: FromParallelIterator<R>>(self) -> C {
            C::from_par_iter(run(self.items, &self.f))
        }
    }
}

/// Glob-import surface mirroring `rayon::prelude`.
pub mod prelude {
    pub use crate::iter::{FromParallelIterator, IntoParallelIterator};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    #[test]
    fn collect_preserves_input_order() {
        let out: Vec<usize> = (0..64usize)
            .collect::<Vec<_>>()
            .into_par_iter()
            .map(|i| i * 2)
            .collect();
        assert_eq!(out, (0..64).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn install_scopes_thread_count() {
        let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        assert_eq!(pool.install(current_num_threads), 3);
        let nested = ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        pool.install(|| assert_eq!(nested.install(current_num_threads), 1));
    }

    #[test]
    fn single_thread_runs_inline() {
        let pool = ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        let caller = std::thread::current().id();
        let ids: Vec<std::thread::ThreadId> = pool.install(|| {
            (0..8usize)
                .into_par_iter()
                .map(|_| std::thread::current().id())
                .collect()
        });
        assert!(ids.iter().all(|id| *id == caller));
    }

    #[test]
    fn parallel_equals_serial() {
        let serial: Vec<u64> = (0..100u64).map(|i| i * i).collect();
        let par: Vec<u64> = ThreadPoolBuilder::new()
            .num_threads(8)
            .build()
            .unwrap()
            .install(|| {
                (0..100usize)
                    .into_par_iter()
                    .map(|i| (i as u64) * (i as u64))
                    .collect()
            });
        assert_eq!(serial, par);
    }
}
