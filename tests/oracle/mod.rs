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
    early_stop_rate, sample_of, summarize, CellReport, Sample, SweepConfig, SweepPlan, SweepReport,
    SweepScratch,
};
use shifting_gears::core::execute_into;
use shifting_gears::sim::{reference, Adversary, Outcome, RunArena, RunConfig};

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

/// The engine configuration of one run of `cell`, as the sweep builds it
/// but for one field: the sweep's scalar path clears `RunConfig::trace`
/// and reads the lock-in and discoveries off the engine's folds, while
/// this keeps the cell's `trace`, so every run here records its log and
/// is sampled by `sample_of`'s walk of it. The reports compared are two
/// computations of those numbers, not one (`execute_into` adds
/// authentication where the spec needs it).
fn run_config(cell: &SweepConfig, early_stopping: bool) -> RunConfig {
    let mut config = RunConfig::new(cell.n, cell.t).with_source_value(cell.source_value);
    if cell.trace {
        config = config.with_trace();
    }
    config.early_stopping = early_stopping;
    config
}

/// [`run_config`] with authentication added where the spec needs it: the
/// reference engine adds nothing itself.
fn reference_config(cell: &SweepConfig, early_stopping: bool) -> RunConfig {
    let config = run_config(cell, early_stopping);
    if cell.spec.needs_authentication() {
        config.with_authentication()
    } else {
        config
    }
}

/// One run of `cell` on the reference engine: fresh instances, nothing
/// pooled or packed.
fn reference_sample(
    cell: &SweepConfig,
    config: &RunConfig,
    adversary: &mut dyn Adversary,
) -> Sample {
    let outcome = reference::run(config, adversary, cell.spec.factory(config));
    assert!(outcome.agreement(), "reference run violated agreement");
    sample_of(&outcome)
}

/// Cell `(ci, ai)`'s report from its run-order samples.
fn cell_report(plan: &SweepPlan, ci: usize, ai: usize, samples: Vec<Sample>) -> CellReport {
    let cell = &plan.configs[ci];
    CellReport {
        spec_name: cell.spec.name(),
        n: cell.n,
        t: cell.t,
        adversary: plan.adversaries[ai].name().to_string(),
        first_seed: plan.seed_for(ci, ai, 0),
        early_stop_rate: early_stop_rate(&samples),
        summaries: summarize(&samples),
        samples,
    }
}

/// Builds `plan`'s report seed by seed on the reference engine, from the
/// plan's public description alone: no chunking, no kernel, no pool.
pub fn via_reference(plan: &SweepPlan) -> SweepReport {
    let mut cells = Vec::new();
    for (ci, cell) in plan.configs.iter().enumerate() {
        let config = reference_config(cell, plan.early_stopping);
        cell.spec
            .validate(cell.n, cell.t)
            .unwrap_or_else(|e| panic!("{}: {e}", cell.spec.name()));
        for (ai, family) in plan.adversaries.iter().enumerate() {
            let samples = (0..plan.seeds_per_cell)
                .map(|si| {
                    let mut adversary = family.instantiate(plan.seed_for(ci, ai, si));
                    reference_sample(cell, &config, adversary.as_mut())
                })
                .collect();
            cells.push(cell_report(plan, ci, ai, samples));
        }
    }
    SweepReport {
        total_runs: plan.total_runs(),
        cells,
    }
}

/// Builds `plan`'s report seed by seed on the production scalar engine:
/// every cell, the lock-step-eligible king cells included, through
/// `sg_core::execute_into` on one arena and one outcome, each family's
/// strategy recycled by `reseed` from cell to cell as the sweep's scalar
/// path recycles it.
pub fn via_scalar(plan: &SweepPlan) -> SweepReport {
    let mut arena = RunArena::default();
    let mut out = Outcome::default();
    let mut strategies: Vec<Option<Box<dyn Adversary>>> =
        plan.adversaries.iter().map(|_| None).collect();
    let mut cells = Vec::new();
    for (ci, cell) in plan.configs.iter().enumerate() {
        let config = run_config(cell, plan.early_stopping);
        for (ai, family) in plan.adversaries.iter().enumerate() {
            let samples = (0..plan.seeds_per_cell)
                .map(|si| {
                    let seed = plan.seed_for(ci, ai, si);
                    let mut adversary = strategies[ai]
                        .take()
                        .and_then(|mut warm| warm.reseed(seed).then_some(warm))
                        .unwrap_or_else(|| family.instantiate(seed));
                    execute_into(&mut arena, cell.spec, &config, adversary.as_mut(), &mut out)
                        .unwrap_or_else(|e| panic!("{}: {e}", cell.spec.name()));
                    strategies[ai] = Some(adversary);
                    sample_of(&out)
                })
                .collect();
            cells.push(cell_report(plan, ci, ai, samples));
        }
    }
    SweepReport {
        total_runs: plan.total_runs(),
        cells,
    }
}

/// Asserts that `SweepPlan::run_with_jobs`, the cursor-driven daemon
/// walk, the scalar engine and the reference engine all produce one
/// report for `plan`, and returns it.
pub fn assert_engines_agree(plan: &SweepPlan) -> SweepReport {
    let oracle = via_reference(plan);
    let production = plan.run_with_jobs(1);
    assert_eq!(production, oracle, "SweepPlan::run != reference");
    assert_eq!(via_cursors(plan), oracle, "cursor walk != reference");
    assert_eq!(via_scalar(plan), oracle, "scalar engine != reference");
    oracle
}

/// Runs seeds `0..seeds` of `cell`, in order, through the production
/// scalar engine on one arena and one outcome, each seed under a
/// strategy `make` builds for it, and asserts that every sample equals
/// the reference engine's under a second strategy `make` builds for the
/// same seed; returns the samples. This is the check for adversaries a
/// [`shifting_gears::adversary::Family`] cannot express, such as a fault
/// set that changes with the seed: a worker's arena carries one seed's
/// round tables into the next.
pub fn assert_seeds_match_reference(
    cell: &SweepConfig,
    early_stopping: bool,
    seeds: u64,
    make: impl Fn(u64) -> Box<dyn Adversary>,
) -> Vec<Sample> {
    let config = run_config(cell, early_stopping);
    let oracle_config = reference_config(cell, early_stopping);
    let mut arena = RunArena::default();
    let mut out = Outcome::default();
    (0..seeds)
        .map(|seed| {
            execute_into(
                &mut arena,
                cell.spec,
                &config,
                make(seed).as_mut(),
                &mut out,
            )
            .unwrap_or_else(|e| panic!("{}: {e}", cell.spec.name()));
            assert!(out.agreement(), "seed {seed} violated agreement");
            let sample = sample_of(&out);
            let oracle = reference_sample(cell, &oracle_config, make(seed).as_mut());
            assert_eq!(
                sample,
                oracle,
                "{} seed {seed}: scalar != reference",
                cell.spec.name()
            );
            sample
        })
        .collect()
}
