//! # sg-bench — benchmark harness
//!
//! Two entry points:
//!
//! * `cargo run --release -p sg-bench --bin repro [-- --exp <id>]` —
//!   regenerates every table and figure of the paper as
//!   paper-predicted-vs-measured tables (`--markdown` for markdown; the
//!   committed `BENCH_rounds_vs_f.md` is `--exp rounds-vs-f`'s);
//! * `cargo bench -p sg-bench --bench run_loop` — per-layer Criterion
//!   timings of the run loop, the tree machine and the serving path
//!   (end-to-end numbers come from `benchmark/run.sh`).
//!
//! This crate holds the helpers the benches share.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use sg_adversary::{Family, FaultSelection};
use sg_core::AlgorithmSpec;
use sg_sim::{Outcome, RunConfig, Value};

/// Runs one execution of `spec` under the standard stress adversary, on
/// its full schedule ([`RunConfig::fixed_length`]: the adversary spares
/// the source, so with early stopping every tree family would end at
/// round 2 and there would be no gather, discovery or conversion left to
/// time) — the workload of the `ablation_masking` bench.
///
/// # Panics
///
/// Panics if the parameters are invalid for `spec` or the execution
/// violates agreement/validity.
pub fn stress_run(spec: AlgorithmSpec, n: usize, t: usize, seed: u64) -> Outcome {
    let config = RunConfig::new(n, t)
        .with_source_value(Value(1))
        .fixed_length();
    let mut adversary = Family::ChainRevealer {
        selection: FaultSelection::without_source(),
        start: 2,
        block: 2,
    }
    .strategy(seed);
    let outcome = sg_core::execute(spec, &config, adversary.as_mut())
        .unwrap_or_else(|e| panic!("{}: {e}", spec.name()));
    outcome.assert_correct();
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stress_run_produces_correct_outcome() {
        let outcome = stress_run(AlgorithmSpec::Exponential, 7, 2, 5);
        assert!(outcome.agreement());
        assert_eq!(outcome.rounds_used, 3);
    }
}
