//! # sg-analysis — bounds, the Coan model, and the experiment harness
//!
//! The quantitative half of the reproduction: closed-form predictions for
//! every bound the paper states (Proposition 1, Theorems 2–4, the Main
//! Theorem), an analytical model of Coan's families for the §1/§4
//! trade-off comparison, and the experiment harness that regenerates
//! every table and figure as *paper-predicted vs. measured* tables (see
//! `cargo run -p sg-bench --bin repro -- --markdown` and the committed
//! `BENCH_rounds_vs_f.md`).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bounds;
pub mod chart;
pub mod coan;
pub mod experiments;
pub mod journal;
pub mod montecarlo;
pub mod scenario;
pub mod stability;
pub mod sweep;
pub mod table;
pub mod wire;

pub use experiments::{all_experiments, measure, plan_figures, Measured, Scale, TREE_PAPER_CELLS};
pub use journal::{epoch_for, JournalSweep, ENGINE_VERSION_TAG};
pub use montecarlo::{early_stop_rate, sample_of, summarize, Sample, Summary};
pub use scenario::{Scenario, ScenarioError, Verdict, SCENARIO_SCHEMA};
pub use stability::{lock_in, StabilityReport};
pub use sweep::{
    set_jobs, sweep_map, AdversaryFamily, CellCursor, CellReport, Fingerprint, SweepConfig,
    SweepPlan, SweepReport, SweepScratch,
};
pub use table::{fmt_count, Table};

/// Integer square root (floor) over `u128`, used by the `O(n^2.5)` bound.
pub fn isqrt_u128(x: u128) -> u128 {
    if x < 2 {
        return x;
    }
    let mut r = (x as f64).sqrt() as u128;
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
    #[test]
    fn isqrt_u128_exact() {
        for x in 0..500u128 {
            let r = super::isqrt_u128(x);
            assert!(r * r <= x && (r + 1) * (r + 1) > x);
        }
    }
}
