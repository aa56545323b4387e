//! Sweep-engine throughput: serial vs. parallel execution of the same
//! seeded Monte-Carlo grid (the canary cell of
//! `tests/sweep_determinism.rs`, in miniature), plus the raw `sweep_map`
//! executor.
//!
//! On a multi-core host the `jobs_hw` rows should approach
//! `jobs_1 / cores`; on a single-core host they bound the engine's
//! scheduling overhead instead.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sg_adversary::FaultSelection;
use sg_analysis::sweep::sweep_map_with_jobs;
use sg_analysis::{AdversaryFamily, SweepConfig, SweepPlan};
use sg_bench::stress_run;
use sg_core::AlgorithmSpec;

fn bench_plan(seeds: u64) -> SweepPlan {
    SweepPlan::new(
        vec![SweepConfig::traced(AlgorithmSpec::OptimalKing, 16, 5)],
        vec![AdversaryFamily::random_liar(
            FaultSelection::without_source(),
        )],
        seeds,
    )
}

fn bench_sweep_plan(c: &mut Criterion) {
    let hw = std::thread::available_parallelism().map_or(1, usize::from);
    let mut group = c.benchmark_group("sweep_plan_optimal_king_n16_t5");
    group.sample_size(10);
    for seeds in [32u64, 128] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("seeds{seeds}_jobs_1")),
            &seeds,
            |bencher, &seeds| {
                bencher.iter(|| bench_plan(seeds).run_with_jobs(1));
            },
        );
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("seeds{seeds}_jobs_hw{hw}")),
            &seeds,
            |bencher, &seeds| {
                bencher.iter(|| bench_plan(seeds).run_with_jobs(hw));
            },
        );
    }
    group.finish();
}

fn bench_sweep_map(c: &mut Criterion) {
    let hw = std::thread::available_parallelism().map_or(1, usize::from);
    let mut group = c.benchmark_group("sweep_map_stress_runs");
    group.sample_size(10);
    for jobs in [1usize, hw] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("hybrid_n13_x32_jobs{jobs}")),
            &jobs,
            |bencher, &jobs| {
                bencher.iter(|| {
                    sweep_map_with_jobs((0..32u64).collect(), jobs, |seed| {
                        stress_run(AlgorithmSpec::Hybrid { b: 3 }, 13, 4, seed).rounds_used
                    })
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_sweep_plan, bench_sweep_map);
criterion_main!(benches);
