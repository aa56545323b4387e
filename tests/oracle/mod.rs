//! The differential-testing harness: one plan, every way the repo can
//! execute it, one answer.
//!
//! `sg_sim::reference` is the oracle — fresh instances, fresh strategy
//! instances, one complete inbox per recipient, nothing pooled or packed.
//! [`assert_engines_agree`] holds the production paths to it on full
//! [`SweepReport`] equality (all six `Sample` fields, summaries and
//! `early_stop_rate` included — `rounds` and `early_stopped` are invisible
//! to the fingerprint, so fingerprint equality alone would let a kernel
//! mis-report them).

#![allow(dead_code)]

use shifting_gears::analysis::{
    early_stop_rate, sample_of, summarize, AdversaryFamily, CellReport, SweepPlan, SweepReport,
    SweepScratch,
};
use shifting_gears::sim::{reference, RunConfig};

/// Runs `plan` the way a daemon worker does: cell by cell, each through
/// a cursor advanced one ≤ 64-seed chunk at a time, all in one scratch.
pub fn via_cursors(plan: &SweepPlan) -> SweepReport {
    let mut scratch = SweepScratch::default();
    let cells = (0..plan.cell_count())
        .map(|cell| {
            let mut cursor = plan.cell_cursor(cell);
            while !cursor.is_done() {
                cursor.advance(&mut scratch);
            }
            cursor.finish()
        })
        .collect();
    SweepReport {
        total_runs: plan.total_runs(),
        cells,
    }
}

/// Builds `plan`'s report seed by seed on the reference engine, from the
/// plan's public description alone: no chunking, no kernel, no pool.
pub fn via_reference(plan: &SweepPlan) -> SweepReport {
    let mut cells = Vec::new();
    for (ci, cell) in plan.configs.iter().enumerate() {
        let mut config = RunConfig::new(cell.n, cell.t).with_source_value(cell.source_value);
        if cell.trace {
            config = config.with_trace();
        }
        if cell.spec.needs_authentication() {
            config = config.with_authentication();
        }
        config.early_stopping = plan.early_stopping;
        cell.spec
            .validate(cell.n, cell.t)
            .unwrap_or_else(|e| panic!("{}: {e}", cell.spec.name()));
        for (ai, family) in plan.adversaries.iter().enumerate() {
            let samples: Vec<_> = (0..plan.seeds_per_cell)
                .map(|si| {
                    let mut adversary = family.instantiate(plan.seed_for(ci, ai, si));
                    let outcome =
                        reference::run(&config, adversary.as_mut(), cell.spec.factory(&config));
                    assert!(outcome.agreement(), "reference run violated agreement");
                    sample_of(&outcome)
                })
                .collect();
            cells.push(CellReport {
                spec_name: cell.spec.name(),
                n: cell.n,
                t: cell.t,
                adversary: family.name().to_string(),
                first_seed: plan.seed_for(ci, ai, 0),
                early_stop_rate: early_stop_rate(&samples),
                summaries: summarize(&samples),
                samples,
            });
        }
    }
    SweepReport {
        total_runs: plan.total_runs(),
        cells,
    }
}

/// `plan` with every family re-wrapped as a closure family of the same
/// name: no wire shape, so no chunk runs lock-step and every run takes
/// the scalar engine with a strategy the factory rebuilds for its seed —
/// the per-run factory rebuild, selected by input as any user-built
/// family selects it.
pub fn closure_built(plan: &SweepPlan) -> SweepPlan {
    let mut closure_built = plan.clone();
    for family in &mut closure_built.adversaries {
        let named = family.clone();
        *family = AdversaryFamily::new(named.name().to_string(), move |seed| {
            named.instantiate(seed)
        });
    }
    closure_built
}

/// Asserts that `SweepPlan::run_with_jobs`, the cursor-driven daemon
/// walk, the closure-built plan and the reference engine all produce one
/// report for `plan`, and returns it.
pub fn assert_engines_agree(plan: &SweepPlan) -> SweepReport {
    let oracle = via_reference(plan);
    let production = plan.run_with_jobs(1);
    assert_eq!(production, oracle, "SweepPlan::run != reference");
    assert_eq!(via_cursors(plan), oracle, "cursor walk != reference");
    assert_eq!(
        closure_built(plan).run_with_jobs(1),
        oracle,
        "closure-built plan != reference"
    );
    oracle
}
