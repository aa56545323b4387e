//! Single-run hot-loop throughput, isolating the two layers of the
//! instance-pooled, bit-packed run loop:
//!
//! * `instances/*` — fresh-instance (`run_into` without a pool key) vs
//!   pooled-instance (with one) executions of the benchmark sweep's
//!   cell, so the cost of boxing `n` protocol instances per run is
//!   visible on its own;
//! * `engine/*` — the production engine (pooled instances, arena, packed
//!   ballots) vs `sg_sim::reference` (fresh everything, per-payload
//!   tallies) on an optimal-king n = 31 run, so what the fast paths buy
//!   together is measured against the oracle they are held to;
//! * `rounds/*` — the `f_actual = 0` cell run status-driven (the
//!   default) vs `RunConfig::fixed_length`, so the expedite win of the
//!   early-stopping run loop is measured on its own;
//! * `batch/*` — 64 seeds of the cell run one by one through the scalar
//!   loop vs lock-step through `run_batch_with` under a vector
//!   `BatchFamily` (one bit lane per run), so the cross-run
//!   data-parallel layer is measured on its own; and
//!   `batch/full-schedule-n64/*`, a 64-lane × 64-slot batch held to its
//!   full schedule by the benchmark's matched equivocation, so the
//!   per-round cost of the lock-step driver and kernel tallies is too;
//! * `batch-adversary/*` — the same 64-lane batch under four vector
//!   families (`crash`, `random-liar`, `random-liar+src` led by the
//!   source, `chain-revealer`), so the fault-materialization layer is
//!   measured family by family; its
//!   `draw/*` triple isolates one faulty sender's random row (64 lanes
//!   × 30 recipients) drawn by building a generator per (lane, edge)
//!   and calling it through `dyn RngCore`, by `edge_draw` (the scalar
//!   strategies' first-draw kernel), and by the sign bit of `first_draw`
//!   assembled into lane words (the vector path's binary kernel);
//! * `lie_row/*` — one faulty sender's row of random lies at
//!   `algorithm-a(b=3) (13, 4)`'s level sizes (1, 12, 132, 1 320 slots),
//!   so the scalar engine's lie generation is timed without a run around
//!   it;
//! * `eigtree/*` — the tree machine's primitives on the shapes the
//!   benchmark's `eigtree.*` per-layer probes use (n=13, four gathered
//!   levels, 13 345 nodes; Algorithm C's gather cycle at n=32), so that
//!   layer can be iterated on without the full benchmark;
//! * `run_loop_tree_paper/*` — the seven `tree-paper` specs, one run
//!   each under a chain-revealer sparing the source: `fixed-length/*`
//!   keeps the per-round cost of append / discover / convert visible
//!   end to end (the benchmark's `tree-paper` workload, which runs early,
//!   ends every run at round 2 and no longer exercises it);
//!   `early-stop/*` beside it is what that workload pays per run;
//! * `scalar_layers/*` — one warm scalar run, as a sweep makes it, taken
//!   apart by contrasts on public entry points, with no probe code in the
//!   engine: per cell, `reseed` (recycling the family's strategy alone),
//!   `traced` and `untraced` (`reseed` plus `execute_into` with and
//!   without the event log, early mode), and `sample_of` (the walk of the
//!   traced run's log alone). The cells are `exponential (7, 2)` and
//!   `algorithm-a(b=3) (13, 4)` under `no-faults` and `random-liar`, and
//!   `optimal-king` at n = 4, 7 and 13 under `stale-shadow` (a family
//!   with no vector shape, so the king runs scalar); a family's run
//!   against the same cell's `no-faults` run is its fault injection;
//! * `ablation_masking/*` — the Exponential Algorithm with fault
//!   discovery and masking against the plain PSL-style baseline without
//!   them, on the full schedule: the wall-clock price of the machinery
//!   that makes shifting possible, which no benchmark probe times;
//! * `journal/*` and `codec/*` — the benchmark's `journal-incremental`
//!   job taken apart: opening a 288-entry store, answering 36 cells
//!   from it, one append; and one 64-sample cell through the tree codec
//!   (`to_json().to_string()`, `Json::parse` + `from_json`) vs the text
//!   codec (`write_text`, `from_text`) that journal lines and cell
//!   frames use when the input is canonical;
//! * `cell_text/*` — `write_text` and `from_text`, each on a run-heavy
//!   cell (one row repeated 64 times, as every cell of every benchmark
//!   workload is), a varied one and one whose rows nearly all differ, so
//!   the equal-row fast paths of the codec are measured on both sides of
//!   the property they key on, which the benchmark's tree-codec
//!   `analysis.*` probes are not;
//! * `reduce/*` — a finished cell's reduction, `summarize` and the
//!   fingerprint fold (`Fingerprint::mix_cell`), on the same three cells
//!   and on one whose 64 rows all differ: the leading-run paths against
//!   the row-by-row loop they fall back to;
//! * `serve/*` — the benchmark's `serve-stream` workload taken apart
//!   the same way: a 1-worker daemon on a unix socket, `ping-rtt` on it
//!   idle, then — with a second closed-loop client keeping it busy —
//!   `accept` (submit written → `accepted` read, the benchmark's
//!   `serve.accept_us`) and `job-36x64` (submit → verified summary of
//!   the `king-expedite` grid, against `journal/*`'s in-process cells).
//!
//! The `instances/*` and `engine/*` variants execute identical work —
//! `tests/instance_pool.rs` and `tests/engine_identity.rs` pin down that
//! their outcomes are bit-identical — so those ratios are pure hot-loop
//! overhead; the
//! `rounds/*` pair executes *fewer rounds* by design (identical
//! decisions, pinned by `tests/early_stopping.rs`), and its ratio is the
//! expedite speedup itself.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{RngCore, SampleUniform, SeedableRng};
use serde::json::Value as Json;
use serde::{FromJson, ToJson};
use sg_adversary::{edge_draw, edge_mix, first_draw, BatchFamily, Family, FaultSelection};
use sg_analysis::{
    sample_of, summarize, AdversaryFamily, CellReport, Fingerprint, SweepConfig, SweepPlan,
    TREE_PAPER_CELLS,
};
use sg_bench::stress_run;
use sg_core::{batch_kernel, execute_into, AlgorithmSpec};
use sg_eigtree::{
    convert, discover_during_conversion, discover_ig, Conversion, FaultList, IgTree, RepTree,
};
use sg_journal::{CellKey, EngineEpoch, Journal};
use sg_sim::{
    run_batch_with, run_into, AdversaryView, BatchArena, Outcome, Payload, ProcessId, ProcessSet,
    RunArena, RunConfig, Value, ValueDomain, MAX_BATCH_RUNS,
};

const SEED: u64 = 7;

fn bench_config() -> (AlgorithmSpec, RunConfig) {
    // The canary cell (tests/sweep_determinism.rs): optimal-king n=16
    // t=5 under random liars.
    let spec = AlgorithmSpec::OptimalKing;
    let config = RunConfig::new(16, 5)
        .with_source_value(Value(1))
        .with_trace();
    (spec, config)
}

fn bench_instance_pool(c: &mut Criterion) {
    let (spec, config) = bench_config();
    let key = spec.pool_key(&config);
    let factory = spec.factory(&config);
    let mut group = c.benchmark_group("run_loop_optimal_king_n16_t5");
    group.sample_size(20);
    let mut out = Outcome::buffer();

    let mut arena = RunArena::new();
    group.bench_function("instances/fresh", |b| {
        b.iter(|| {
            let mut adversary = Family::RandomLiar(FaultSelection::without_source()).strategy(SEED);
            run_into(
                &mut arena,
                &config,
                adversary.as_mut(),
                None,
                &factory,
                &mut out,
            )
        });
    });

    let mut arena = RunArena::new();
    group.bench_function("instances/pooled", |b| {
        b.iter(|| {
            let mut adversary = Family::RandomLiar(FaultSelection::without_source()).strategy(SEED);
            run_into(
                &mut arena,
                &config,
                adversary.as_mut(),
                Some(key),
                &factory,
                &mut out,
            )
        });
    });
    group.finish();
}

/// Every scalar fast path at once against the oracle: one optimal-king
/// run at n = 31 (the largest king size the benchmark sweeps below the
/// 64-sender ballot word) on the production engine and on
/// `sg_sim::reference`.
fn bench_engine_vs_reference(c: &mut Criterion) {
    let spec = AlgorithmSpec::OptimalKing;
    let config = RunConfig::new(31, 10)
        .with_source_value(Value(1))
        .with_trace();
    let key = spec.pool_key(&config);
    let factory = spec.factory(&config);
    let mut group = c.benchmark_group("run_loop_optimal_king_n31_t10");
    group.sample_size(20);

    let mut arena = RunArena::new();
    let mut out = Outcome::buffer();
    group.bench_function("engine/production", |b| {
        b.iter(|| {
            let mut adversary = Family::RandomLiar(FaultSelection::without_source()).strategy(SEED);
            run_into(
                &mut arena,
                &config,
                adversary.as_mut(),
                Some(key),
                &factory,
                &mut out,
            )
        });
    });

    group.bench_function("engine/reference", |b| {
        b.iter(|| {
            let mut adversary = Family::RandomLiar(FaultSelection::without_source()).strategy(SEED);
            black_box(sg_sim::reference::run(
                &config,
                adversary.as_mut(),
                &factory,
            ))
        });
    });
    group.finish();
}

/// The early-stopping layer in isolation: the benchmark cell at
/// `f_actual = 0` (every selected liar is disabled by `limit(0)`, so all
/// processors are correct), run status-driven vs fixed-length. The
/// status-driven run locks in the first king phase's propose step and
/// stops at round 3 of 19 — the `min(f+2, t+1)`-style expedite win the
/// paper's title promises, measured as wall time.
fn bench_early_stopping(c: &mut Criterion) {
    let (spec, config) = bench_config();
    let key = spec.pool_key(&config);
    let factory = spec.factory(&config);
    let mut group = c.benchmark_group("run_loop_optimal_king_n16_t5");
    group.sample_size(20);
    let mut out = Outcome::buffer();

    let mut arena = RunArena::new();
    let fixed = config.fixed_length();
    group.bench_function("rounds/fixed-length-f0", |b| {
        b.iter(|| {
            let mut adversary =
                Family::RandomLiar(FaultSelection::without_source().limit(0)).strategy(SEED);
            run_into(
                &mut arena,
                &fixed,
                adversary.as_mut(),
                Some(key),
                &factory,
                &mut out,
            )
        });
    });

    let mut arena = RunArena::new();
    group.bench_function("rounds/early-stop-f0", |b| {
        b.iter(|| {
            let mut adversary =
                Family::RandomLiar(FaultSelection::without_source().limit(0)).strategy(SEED);
            run_into(
                &mut arena,
                &config,
                adversary.as_mut(),
                Some(key),
                &factory,
                &mut out,
            )
        });
    });
    group.finish();
}

/// The tree machine end to end, per spec: on the full schedule — where
/// gathering, discovery and block conversions are the whole cost — and
/// with early stopping on, where the echo rule ends the run at round 2
/// (`sg_core::GearedProtocol`) and set-up is.
fn bench_tree_paper(c: &mut Criterion) {
    let mut group = c.benchmark_group("run_loop_tree_paper");
    group.sample_size(10);
    let mut out = Outcome::buffer();
    let mut arena = RunArena::new();
    let mut bench = |label: String, spec: AlgorithmSpec, config: RunConfig| {
        let key = spec.pool_key(&config);
        let factory = spec.factory(&config);
        group.bench_function(label, |b| {
            b.iter(|| {
                let mut adversary = Family::ChainRevealer {
                    selection: FaultSelection::without_source(),
                    start: 2,
                    block: 2,
                }
                .strategy(SEED);
                run_into(
                    &mut arena,
                    &config,
                    adversary.as_mut(),
                    Some(key),
                    &factory,
                    &mut out,
                )
            });
        });
    };
    for (spec, n) in TREE_PAPER_CELLS {
        let config = RunConfig::new(n, spec.max_resilience(n)).with_source_value(Value(1));
        bench(
            format!("fixed-length/{}", spec.name()),
            spec,
            config.fixed_length(),
        );
        bench(format!("early-stop/{}", spec.name()), spec, config);
    }
    group.finish();
}

/// One warm scalar run of each cell, and its layers: the strategy's
/// `reseed`, the run with and without its event log, and the log's walk
/// by `sample_of`. Every iteration of a run variant reseeds the strategy
/// to the next seed first, as the sweep's scalar path does, so the runs
/// differ from seed to seed as a cell's do.
fn bench_scalar_layers(c: &mut Criterion) {
    let mut group = c.benchmark_group("scalar_layers");
    group.sample_size(20);
    let honest = FaultSelection::without_source;
    let cells = [
        (AlgorithmSpec::Exponential, 7, Family::NoFaults),
        (AlgorithmSpec::Exponential, 7, Family::RandomLiar(honest())),
        (AlgorithmSpec::AlgorithmA { b: 3 }, 13, Family::NoFaults),
        (
            AlgorithmSpec::AlgorithmA { b: 3 },
            13,
            Family::RandomLiar(honest()),
        ),
        (AlgorithmSpec::OptimalKing, 4, Family::StaleShadow(honest())),
        (AlgorithmSpec::OptimalKing, 7, Family::StaleShadow(honest())),
        (
            AlgorithmSpec::OptimalKing,
            13,
            Family::StaleShadow(honest()),
        ),
    ];
    let mut arena = RunArena::new();
    let mut out = Outcome::buffer();
    for (spec, n, family) in cells {
        let traced = RunConfig::new(n, spec.max_resilience(n))
            .with_source_value(Value(1))
            .with_trace();
        let label = format!("{}-n{n}/{}", spec.name(), family.name());
        let mut adversary = family.strategy(SEED);
        let mut seed = SEED;
        let mut reseed = |adversary: &mut Box<dyn sg_sim::Adversary>| {
            seed += 1;
            if !adversary.reseed(seed) {
                *adversary = family.strategy(seed);
            }
        };
        group.bench_function(format!("{label}/reseed"), |b| {
            b.iter(|| reseed(&mut adversary));
        });
        for (mode, trace) in [("traced", true), ("untraced", false)] {
            let config = RunConfig { trace, ..traced };
            group.bench_function(format!("{label}/{mode}"), |b| {
                b.iter(|| {
                    reseed(&mut adversary);
                    execute_into(&mut arena, spec, &config, adversary.as_mut(), &mut out)
                        .expect("a valid cell");
                });
            });
        }
        execute_into(&mut arena, spec, &traced, adversary.as_mut(), &mut out)
            .expect("a valid cell");
        group.bench_function(format!("{label}/sample_of"), |b| {
            b.iter(|| sample_of(black_box(&out)));
        });
    }
    group.finish();
}

/// Fault discovery and masking priced end to end: the modified
/// Exponential Algorithm against the plain one at identical parameters,
/// under the stress adversary on the full schedule.
fn bench_masking(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_masking");
    group.sample_size(10);
    for (n, t) in [(7, 2), (10, 3)] {
        for spec in [AlgorithmSpec::PlainExponential, AlgorithmSpec::Exponential] {
            group.bench_function(format!("{}/n{n}_t{t}", spec.name()), |b| {
                b.iter(|| stress_run(spec, n, t, 29));
            });
        }
    }
    group.finish();
}

/// The lock-step batch layer in isolation: the same 64 seeds of the
/// benchmark cell executed scalar (one pooled `run_into` per seed, a
/// `random-liar` strategy each) vs lock-step (one `run_batch_with` call,
/// one bit lane per run, every lane's lies drawn at word width by one
/// `BatchFamily`). `tests/engine_identity.rs` pins their samples
/// bit-identical.
fn bench_batch_runs(c: &mut Criterion) {
    let (spec, config) = bench_config();
    let key = spec.pool_key(&config);
    let factory = spec.factory(&config);
    let mut group = c.benchmark_group("run_loop_optimal_king_n16_t5");
    group.sample_size(20);
    let mut out = Outcome::buffer();

    let mut arena = RunArena::new();
    group.bench_function("batch/scalar-64", |b| {
        b.iter(|| {
            for seed in 0..MAX_BATCH_RUNS as u64 {
                let mut adversary =
                    Family::RandomLiar(FaultSelection::without_source()).strategy(seed);
                run_into(
                    &mut arena,
                    &config,
                    adversary.as_mut(),
                    Some(key),
                    &factory,
                    &mut out,
                );
            }
        });
    });

    let mut batch_arena = BatchArena::new();
    let family = Family::RandomLiar(FaultSelection::without_source());
    let seeds: Vec<u64> = (0..MAX_BATCH_RUNS as u64).collect();
    group.bench_function("batch/lock-step-64", |b| {
        b.iter(|| {
            let mut kernel = batch_kernel(&spec, &config).expect("eligible cell");
            let mut batch = BatchFamily::new(&family, &seeds).expect("a vector shape");
            run_batch_with(&mut batch_arena, &config, kernel.as_mut(), &mut batch);
        });
    });
    group.finish();

    // The round loop itself: 64 lanes × 64 slots at maximum resilience
    // under the benchmark's matched equivocation (a faulty source splits
    // the correct processors to the last phase) — 66 and 33 rounds of
    // mask-only lies, warm kernel and arena. Time / (64 × rounds) is
    // the per-run-round cost of `king-fullround`'s largest cells.
    let mut group = c.benchmark_group("run_loop_n64_matched_equivocation");
    group.sample_size(20);
    let family = Family::Equivocate {
        selection: FaultSelection::with_source(),
        split: 43,
        start: 1,
    };
    for spec in [AlgorithmSpec::OptimalKing, AlgorithmSpec::PhaseKing] {
        let config = RunConfig::new(64, spec.max_resilience(64))
            .with_source_value(Value(1))
            .with_trace();
        let mut kernel = batch_kernel(&spec, &config).expect("eligible cell");
        group.bench_function(format!("batch/full-schedule-n64/{}", spec.name()), |b| {
            b.iter(|| {
                let mut batch = BatchFamily::new(&family, &seeds).expect("a vector shape");
                run_batch_with(&mut batch_arena, &config, kernel.as_mut(), &mut batch);
            });
        });
        let full = kernel.total_rounds() - 1;
        assert!(batch_arena.results().iter().all(|r| r.rounds_used >= full));
    }
    group.finish();
}

/// The batch-adversary layer in isolation: the identical 64-lane batch
/// through `run_batch_with` under vectorized `BatchFamily`s (one
/// selection and one mask computation cover all 64 lanes, and no
/// strategy is built). `crash` is deterministic, so its lies are pure
/// mask algebra; `random-liar` and `chain-revealer` draw per (lane,
/// edge) from the `first_draw` mixer the scalar strategies read too, as
/// a sign bit straight into lane words — but only for recipients whose
/// rules the liars can still swing. Under a correct source there are
/// none, so those two time the skipped draw; `random-liar+src`, led by
/// the source, splits the correct slots and times the draw itself. The
/// `draw/*` triple below takes that draw apart.
/// `tests/engine_identity.rs` pins every family to the scalar reference.
fn bench_batch_adversaries(c: &mut Criterion) {
    let (spec, config) = bench_config();
    let mut group = c.benchmark_group("run_loop_optimal_king_n16_t5");
    group.sample_size(20);

    let selection = FaultSelection::without_source;
    let seeds: Vec<u64> = (0..MAX_BATCH_RUNS as u64).collect();
    let families = [
        (
            "crash",
            Family::Crash {
                selection: selection(),
                round: 2,
            },
        ),
        ("random-liar", Family::RandomLiar(selection())),
        (
            "random-liar+src",
            Family::RandomLiar(FaultSelection::with_source()),
        ),
        (
            "chain-revealer",
            Family::ChainRevealer {
                selection: selection(),
                start: 2,
                block: 2,
            },
        ),
    ];
    let mut batch_arena = BatchArena::new();
    for (name, family) in &families {
        group.bench_function(format!("batch-adversary/{name}-vector"), |b| {
            b.iter(|| {
                let mut kernel = batch_kernel(&spec, &config).expect("eligible cell");
                let mut batch = BatchFamily::new(family, &seeds).expect("a vector shape");
                run_batch_with(&mut batch_arena, &config, kernel.as_mut(), &mut batch);
            });
        });
    }

    // One faulty sender's random row at n = 31: 64 lanes × 30 recipients
    // of binary draws, counted so the work cannot be optimized away.
    let sender = ProcessId(1);
    let recipients = || (0..31).filter(|&r| r != 1).map(ProcessId);
    group.bench_function("batch-adversary/draw/generator-per-edge", |b| {
        b.iter(|| {
            let mut ones = 0u32;
            for r in recipients() {
                let edge = edge_mix(3, sender, r);
                for &seed in black_box(&seeds) {
                    // Through `dyn`, as the shim's `gen_range` drew before
                    // it went generic: the full state must be built.
                    let mut rng = StdRng::seed_from_u64(seed ^ edge);
                    let rng: &mut dyn RngCore = black_box(&mut rng);
                    ones += u32::from(u16::sample_half_open(0, 2, rng));
                }
            }
            ones
        });
    });
    group.bench_function("batch-adversary/draw/first-draw-kernel", |b| {
        b.iter(|| {
            let mut ones = 0u32;
            for r in recipients() {
                let edge = edge_mix(3, sender, r);
                for &seed in black_box(&seeds) {
                    ones += u32::from(edge_draw(seed, edge, 2));
                }
            }
            ones
        });
    });
    group.bench_function("batch-adversary/draw/sign-bit-kernel", |b| {
        b.iter(|| {
            let mut ones = 0u32;
            for r in recipients() {
                let edge = edge_mix(3, sender, r);
                let mut one = 0u64;
                for &seed in black_box(&seeds).iter().rev() {
                    one = (one << 1) | (first_draw(seed, edge) >> 63);
                }
                ones += one.count_ones();
            }
            ones
        });
    });
    group.finish();
}

/// One faulty row of random lies, the adversary's whole share of a
/// round for one sender: `algorithm-a(b=3) (13, 4)`'s faulty `P1`
/// telling each of its 12 recipients a lie as long as the level it would
/// relay — 1, 12, 132 and 1 320 slots, the cell's level sizes. `fresh`
/// writes the row into a new row of missing payloads, as
/// `sg_sim::reference` asks it every round; `row` is the engine's
/// `Adversary::row` call, writing the same lies into the slots of the
/// row it keeps across rounds, in place.
fn bench_lie_row(c: &mut Criterion) {
    let mut group = c.benchmark_group("lie_row");
    group.sample_size(20);
    let (n, sender) = (13, ProcessId(1));
    let faulty = ProcessSet::from_members(n, (0..4).map(ProcessId));
    let mut adversary = Family::RandomLiar(FaultSelection::with_source()).strategy(SEED);
    adversary.corrupt(n, 4, ProcessId(0));
    for len in [1, 12, 132, 1_320] {
        let mut shadow = vec![None; n];
        shadow[sender.index()] = Some(Payload::packed((0..len).map(|i| Value(i as u16 % 2))));
        let view = AdversaryView {
            round: 4,
            total_rounds: 8,
            n,
            t: 4,
            source: ProcessId(0),
            source_value: Value(1),
            domain: ValueDomain::binary(),
            faulty: &faulty,
            honest_broadcast: &[],
            shadow_broadcast: &shadow,
            sigs: None,
        };
        group.bench_function(format!("fresh/{len}"), |b| {
            b.iter(|| {
                let mut row = vec![Payload::Missing; n];
                adversary.row(sender, &view, &mut row);
                black_box(row)
            });
        });
        let mut row = vec![Payload::Missing; n];
        group.bench_function(format!("row/{len}"), |b| {
            b.iter(|| {
                adversary.row(sender, &view, &mut row);
                black_box(&row);
            });
        });
    }
    group.finish();
}

/// A seeded minority of wrong values (one slot in eight), so conversion
/// and discovery see dissent without any node losing its majority — the
/// input of the benchmark's `eigtree.*` probes.
fn minority_lie(salt: usize, slot: usize, sender: ProcessId) -> Value {
    let h = (SEED ^ (salt as u64) << 40 ^ (slot as u64) << 8 ^ sender.index() as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15);
    Value(u16::from(h >> 61 != 0))
}

fn gather(levels: usize) -> IgTree {
    let mut tree = IgTree::new(13, ProcessId(0));
    tree.set_root(Value(1));
    for _ in 0..levels {
        tree.append_level(|parent, sender| minority_lie(0, parent, sender));
    }
    tree
}

fn bench_eigtree(c: &mut Criterion) {
    const T: usize = 4;
    let mut group = c.benchmark_group("eigtree");
    group.sample_size(20);
    group.bench_function("n13/append", |b| b.iter(|| gather(4)));

    let tree = gather(4);
    let mut known = FaultList::new(13);
    known.insert(ProcessId(5), 2);
    for (name, snapshot) in [("empty-list", FaultList::new(13)), ("one-listed", known)] {
        group.bench_function(format!("n13/discover_ig/{name}"), |b| {
            b.iter(|| discover_ig(&tree, T, &snapshot));
        });
    }
    for conversion in [Conversion::Resolve, Conversion::ResolvePrime { t: T }] {
        group.bench_function(format!("n13/convert/{}", conversion.name()), |b| {
            b.iter(|| convert(&tree, conversion));
        });
    }
    let converted = convert(&tree, Conversion::ResolvePrime { t: T });
    group.bench_function("n13/discover_during_conversion", |b| {
        b.iter(|| discover_during_conversion(&tree, &converted, T, &FaultList::new(13)));
    });

    // One Algorithm C round: store, discover, reorder, convert.
    let mut rep = RepTree::new(32, ProcessId(0));
    rep.set_root(Value(1));
    rep.store_intermediates(|q| minority_lie(1, 0, q));
    let snapshot = FaultList::new(32);
    group.bench_function("n32/rep_gather_cycle", |b| {
        b.iter(|| {
            rep.store_leaves(|w, r| minority_lie(2, w, r));
            let report = rep.discover_intermediates(T, &snapshot);
            rep.reorder();
            rep.convert_to_intermediates();
            report
        });
    });
    group.finish();
}

/// The benchmark's `king-expedite` grid: 36 cells × 64 seeds.
fn expedite_grid(base_seed: u64) -> SweepPlan {
    let honest_source = FaultSelection::without_source;
    let configs = [
        AlgorithmSpec::OptimalKing,
        AlgorithmSpec::PhaseKing,
        AlgorithmSpec::PhaseQueen,
    ]
    .iter()
    .flat_map(|&spec| [7, 16, 31].map(|n| SweepConfig::traced(spec, n, spec.max_resilience(n))))
    .collect();
    SweepPlan::new(
        configs,
        vec![
            AdversaryFamily::random_liar(honest_source()),
            AdversaryFamily::crash(honest_source(), 2),
            AdversaryFamily::silent(honest_source()),
            AdversaryFamily::chain_revealer(honest_source(), 2, 2),
        ],
        64,
    )
    .with_base_seed(base_seed)
}

fn bench_journal(c: &mut Criterion) {
    let dir = std::env::temp_dir().join(format!("sg-bench-journal-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let grids: Vec<SweepPlan> = (0..8).map(|k| expedite_grid(SEED + 1000 * k)).collect();
    {
        let mut journal = Journal::open(&dir).expect("scratch journal");
        for grid in &grids {
            grid.run_with_journal(&mut journal, 1);
        }
    }
    let mut group = c.benchmark_group("journal");
    group.sample_size(20);
    group.bench_function("open-288-entries", |b| {
        b.iter(|| Journal::open(&dir).expect("reopen").len());
    });
    let mut journal = Journal::open(&dir).expect("reopen");
    let epoch = grids[3].epoch();
    group.bench_function("warm-36-hits", |b| {
        b.iter(|| {
            let keys = grids[3].cell_keys();
            keys.iter()
                .enumerate()
                .filter(|&(cell, &key)| {
                    matches!(
                        grids[3].cached_cell(&journal, epoch, cell, key),
                        Ok(Some(_))
                    )
                })
                .count()
        });
    });
    let cell = grids[0].run_with_jobs(1).cells.swap_remove(0).to_json();
    let mut key = 0;
    group.bench_function("append", |b| {
        b.iter(|| {
            key += 1;
            journal.append(CellKey(key), EngineEpoch(0), &cell)
        });
    });
    group.finish();
    drop(journal);
    std::fs::remove_dir_all(&dir).ok();
}

fn bench_cell_codec(c: &mut Criterion) {
    // The cell of the benchmark's `analysis.*_us_per_cell` probes.
    let cell = SweepPlan::new(
        vec![SweepConfig::traced(AlgorithmSpec::OptimalKing, 31, 10)],
        vec![AdversaryFamily::random_liar(
            FaultSelection::without_source(),
        )],
        64,
    )
    .with_base_seed(SEED)
    .run_with_jobs(1)
    .cells
    .swap_remove(0);
    let text = cell.to_json().to_string();
    let mut group = c.benchmark_group("codec");
    group.bench_function("cell-tree-encode", |b| {
        b.iter(|| cell.to_json().to_string());
    });
    let mut out = String::new();
    group.bench_function("cell-text-encode", |b| {
        b.iter(|| {
            out.clear();
            cell.write_text(&mut out);
            out.len()
        });
    });
    assert_eq!(out, text);
    group.bench_function("cell-tree-decode", |b| {
        b.iter(|| CellReport::from_json(&Json::parse(black_box(&text)).expect("json")));
    });
    group.bench_function("cell-text-decode", |b| {
        b.iter(|| CellReport::from_text(black_box(&text)));
    });
    assert_eq!(CellReport::from_text(&text), Some(cell));
    group.finish();
}

/// Three 64-sample cells, by how many rows equal the row before them
/// (the property the equal-row fast paths key on): `run-heavy`, a
/// `king-expedite` crash cell at `optimal-king` n = 16 (63 of 63, as in
/// every benchmark workload's cells); `varied`, random liars led by the
/// source at the same size (43 of 63); and `distinct`, the same liars at
/// `exponential` n = 10 (2 of 63).
fn equal_row_cells() -> [(&'static str, CellReport); 3] {
    let cell = |spec: AlgorithmSpec, n: usize, family: AdversaryFamily| {
        SweepPlan::new(
            vec![SweepConfig::traced(spec, n, spec.max_resilience(n))],
            vec![family],
            64,
        )
        .with_base_seed(SEED)
        .run_with_jobs(1)
        .cells
        .swap_remove(0)
    };
    let liars = || AdversaryFamily::random_liar(FaultSelection::with_source());
    [
        (
            "run-heavy",
            cell(
                AlgorithmSpec::OptimalKing,
                16,
                AdversaryFamily::crash(FaultSelection::without_source(), 2),
            ),
        ),
        ("varied", cell(AlgorithmSpec::OptimalKing, 16, liars())),
        ("distinct", cell(AlgorithmSpec::Exponential, 10, liars())),
    ]
}

/// The text codec layer by layer on [`equal_row_cells`].
fn bench_cell_text(c: &mut Criterion) {
    let mut group = c.benchmark_group("cell_text");
    for (name, cell) in &equal_row_cells() {
        let mut text = String::new();
        group.bench_function(format!("write_text/{name}"), |b| {
            b.iter(|| {
                text.clear();
                cell.write_text(&mut text);
                text.len()
            });
        });
        group.bench_function(format!("from_text/{name}"), |b| {
            b.iter(|| CellReport::from_text(black_box(&text)));
        });
        assert_eq!(CellReport::from_text(&text).as_ref(), Some(cell));
    }
    group.finish();
}

/// A finished cell's reduction: `summarize` and the fingerprint fold
/// (`Fingerprint::mix_cell`), each one step for a cell's leading run of
/// equal rows, on [`equal_row_cells`] and on `all-distinct`, the
/// `distinct` cell with row `k`'s bits raised by `k` so that no row
/// equals its neighbour: there every row takes the row-by-row loop, and
/// no fingerprint steps are compiled.
fn bench_reduce(c: &mut Criterion) {
    let [run_heavy, varied, (_, distinct)] = equal_row_cells();
    let mut all_distinct = distinct.clone();
    for (k, s) in all_distinct.samples.iter_mut().enumerate() {
        s.total_bits += k as u64;
    }
    let runs = |cell: &CellReport| cell.samples.chunk_by(|a, b| a == b).count();
    assert_eq!((runs(&run_heavy.1), runs(&all_distinct)), (1, 64));
    let cells = [
        run_heavy,
        varied,
        ("distinct", distinct),
        ("all-distinct", all_distinct),
    ];
    let mut group = c.benchmark_group("reduce");
    for (name, cell) in &cells {
        group.bench_function(format!("summarize/{name}"), |b| {
            b.iter(|| summarize(black_box(&cell.samples)));
        });
        group.bench_function(format!("mix_cell/{name}"), |b| {
            b.iter(|| {
                let mut fingerprint = Fingerprint::new();
                fingerprint.mix_cell(black_box(cell));
                fingerprint.value()
            });
        });
    }
    group.finish();
}

/// The `serve-stream` set-up: one worker, a unix socket, two clients.
#[cfg(unix)]
fn bench_serve(c: &mut Criterion) {
    use sg_serve::{serve, Bind, Client, ServeOptions};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::{Duration, Instant};

    let socket = std::env::temp_dir().join(format!("sg-bench-serve-{}.sock", std::process::id()));
    let options = ServeOptions {
        workers: 1,
        ..ServeOptions::default()
    };
    let daemon = serve(&Bind::Unix(socket.clone()), options).expect("bind daemon");
    let addr = format!("unix:{}", socket.display());
    let connect = || Client::connect(&addr, Duration::from_secs(5)).expect("connect");
    let grids: Vec<SweepPlan> = (0..4).map(|k| expedite_grid(SEED + 1000 * k)).collect();

    let mut group = c.benchmark_group("serve");
    let mut client = connect();
    group.bench_function("ping-rtt", |b| b.iter(|| client.ping().expect("pong")));

    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut neighbour = connect();
            for grid in grids.iter().cycle() {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                neighbour.submit_and_collect(grid).expect("neighbour job");
            }
        });
        let mut grid = grids.iter().cycle();
        group.bench_function("accept", |b| {
            b.iter_custom(|iters| {
                let mut accepting = Duration::ZERO;
                for _ in 0..iters {
                    let submitted = Instant::now();
                    let job = client.submit(grid.next().unwrap()).expect("submit");
                    accepting += submitted.elapsed();
                    client.collect(job, |_, _| {}).expect("collect");
                }
                accepting
            });
        });
        group.bench_function("job-36x64", |b| {
            b.iter(|| {
                client
                    .submit_and_collect(grid.next().unwrap())
                    .expect("job")
                    .fingerprint
            });
        });
        stop.store(true, Ordering::Relaxed);
    });
    group.finish();
    daemon.shutdown();
    std::fs::remove_file(&socket).ok();
}

#[cfg(not(unix))]
fn bench_serve(_: &mut Criterion) {}

criterion_group!(
    benches,
    bench_instance_pool,
    bench_engine_vs_reference,
    bench_early_stopping,
    bench_tree_paper,
    bench_scalar_layers,
    bench_masking,
    bench_batch_runs,
    bench_batch_adversaries,
    bench_lie_row,
    bench_eigtree,
    bench_journal,
    bench_cell_codec,
    bench_cell_text,
    bench_reduce,
    bench_serve
);
criterion_main!(benches);
