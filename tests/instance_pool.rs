//! Instance-pool correctness: pooled-reset runs are bit-identical to
//! fresh-instance runs.
//!
//! The engine's instance pool recycles protocol instances across runs via
//! `Protocol::reset` instead of consulting the factory. The contract is
//! that pooling is *unobservable* in the output: every `Outcome` field —
//! decisions, fault sets, metrics, traces, round counts — matches the
//! reference engine's fresh-everything execution exactly, for every
//! protocol family and under every adversary. The property test below
//! drives eight resettable families (Phase King, Phase Queen, Optimal
//! King, King-Shift, Dynamic King, the plan-driven tree machine,
//! Dolev–Strong, and a shift composition with a king tail) through a
//! cold pooled run and a warm (reset) pooled run, and additionally
//! asserts the warm run never touched the factory. A second leg runs
//! Phase King, Optimal King, King-Shift, the tree machine (Exponential
//! and the Hybrid) and Dolev–Strong over a non-binary domain. The
//! reference reads every payload where the engine reads packed ballots,
//! so the same comparison pins the bit-packed view too.

use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;
use shifting_gears::adversary::{Family, FaultSelection};
use shifting_gears::analysis::TREE_PAPER_CELLS;
use shifting_gears::core::{AlgorithmSpec, Params, ShiftPlanBuilder};
use shifting_gears::sim::{
    reference, run_into, run_pooled, Adversary, Outcome, PoolKey, ProcessId, Protocol, RunArena,
    RunConfig, Value, ValueDomain,
};

/// One `run_into` execution in `arena`, returned in a fresh buffer.
/// `key: None` builds every instance fresh; `Some` recycles through the
/// arena's instance pool.
fn run_in(
    arena: &mut RunArena,
    config: &RunConfig,
    adversary: &mut dyn Adversary,
    key: Option<PoolKey>,
    mk: impl Fn(ProcessId) -> Box<dyn Protocol>,
) -> Outcome {
    let mut out = Outcome::buffer();
    run_into(arena, config, adversary, key, mk, &mut out);
    out
}

/// Outcome equality over every observable field.
fn assert_same_outcome(label: &str, fresh: &Outcome, pooled: &Outcome) {
    assert_eq!(fresh.decisions, pooled.decisions, "{label}: decisions");
    assert_eq!(fresh.faulty, pooled.faulty, "{label}: fault set");
    assert_eq!(fresh.metrics, pooled.metrics, "{label}: metrics");
    assert_eq!(fresh.trace, pooled.trace, "{label}: trace");
    assert_eq!(fresh.rounds_used, pooled.rounds_used, "{label}: rounds");
    assert_eq!(fresh.early_stopped, pooled.early_stopped, "{label}: early");
}

/// One comparison: the reference engine's run vs a cold pooled run vs a
/// warm (instance-reset) pooled run of the same configuration, with the
/// factory-call count of the warm run pinned to zero.
fn check_pool_identity(
    label: &str,
    config: &RunConfig,
    key: PoolKey,
    mk_adversary: &dyn Fn() -> Box<dyn Adversary>,
    factory: &dyn Fn(ProcessId) -> Box<dyn Protocol>,
) {
    let fresh = reference::run(config, mk_adversary().as_mut(), factory);

    let calls = AtomicUsize::new(0);
    let counting = |me: ProcessId| {
        calls.fetch_add(1, Ordering::SeqCst);
        factory(me)
    };
    let mut arena = RunArena::new();
    let cold = run_in(
        &mut arena,
        config,
        mk_adversary().as_mut(),
        Some(key),
        counting,
    );
    assert_eq!(
        calls.swap(0, Ordering::SeqCst),
        config.n,
        "{label}: cold pooled run builds every instance"
    );
    let warm = run_in(
        &mut arena,
        config,
        mk_adversary().as_mut(),
        Some(key),
        counting,
    );
    assert_eq!(
        calls.load(Ordering::SeqCst),
        0,
        "{label}: warm pooled run must reset, not rebuild"
    );

    assert_same_outcome(label, &fresh, &cold);
    assert_same_outcome(label, &fresh, &warm);
}

/// The adversary sample: stateless, seeded-random, and staged-reveal
/// strategies, with and without a corrupted source.
fn adversary(idx: usize, seed: u64) -> Box<dyn Adversary> {
    match idx {
        0 => Box::new(shifting_gears::sim::NoFaults),
        1 => Family::RandomLiar(FaultSelection::with_source()).strategy(seed),
        2 => Family::TwoFaced(FaultSelection::without_source()).strategy(0),
        _ => Family::ChainRevealer {
            selection: FaultSelection::without_source(),
            start: 2,
            block: 2,
        }
        .strategy(seed),
    }
}

/// Drives one spec-shaped case, over `domain` with the source holding
/// `value`, through [`check_pool_identity`].
fn check_spec(
    spec: AlgorithmSpec,
    (n, t): (usize, usize),
    (domain, value): (ValueDomain, Value),
    adv_idx: usize,
    seed: u64,
) {
    let mut config = RunConfig::new(n, t)
        .with_domain(domain)
        .with_source_value(value)
        .with_trace();
    if spec.needs_authentication() {
        config = config.with_authentication();
    }
    let key = spec.pool_key(&config);
    let factory = spec.factory(&config);
    check_pool_identity(
        &spec.name(),
        &config,
        key,
        &|| adversary(adv_idx, seed),
        &factory,
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Eight resettable protocol families, six specs of them again over
    /// non-binary domains, a sample of adversaries and seeds: pooled-reset
    /// outcomes are bit-identical to fresh-instance outcomes and the warm
    /// run never consults the factory.
    #[test]
    fn pooled_reset_runs_match_fresh_runs(seed in 0u64..1_000, adv_idx in 0usize..4) {
        // The seven spec-built families, binary.
        let binary = (ValueDomain::binary(), Value(1));
        check_spec(AlgorithmSpec::PhaseKing, (9, 2), binary, adv_idx, seed);
        check_spec(AlgorithmSpec::PhaseQueen, (9, 2), binary, adv_idx, seed);
        check_spec(AlgorithmSpec::OptimalKing, (7, 2), binary, adv_idx, seed);
        check_spec(AlgorithmSpec::KingShift { b: 3 }, (10, 3), binary, adv_idx, seed);
        check_spec(AlgorithmSpec::DynamicKing { b: 3 }, (10, 3), binary, adv_idx, seed);
        check_spec(AlgorithmSpec::Exponential, (7, 2), binary, adv_idx, seed);
        check_spec(AlgorithmSpec::DolevStrong, (5, 3), binary, adv_idx, seed);

        // The same machines over a non-binary domain (Phase Queen is
        // binary only).
        let five = (ValueDomain::new(5), Value(3));
        check_spec(AlgorithmSpec::PhaseKing, (9, 2), five, adv_idx, seed);
        check_spec(AlgorithmSpec::OptimalKing, (7, 1), five, adv_idx, seed);
        check_spec(AlgorithmSpec::Exponential, (9, 2), five, adv_idx, seed);
        check_spec(AlgorithmSpec::Hybrid { b: 3 }, (10, 3), five, adv_idx, seed);
        check_spec(AlgorithmSpec::KingShift { b: 3 }, (10, 3), five, adv_idx, seed);
        let ten = (ValueDomain::new(10), Value(7));
        check_spec(AlgorithmSpec::DolevStrong, (5, 3), ten, adv_idx, seed);

        // A shift composition with a king tail.
        let composition = ShiftPlanBuilder::new(10, 3)
            .a_blocks(3, 1)
            .king_tail()
            .build()
            .expect("king tail closes any prefix");
        let co_config = RunConfig::new(10, 3).with_source_value(Value(1)).with_trace();
        let co_params = Params::from_config(&co_config);
        check_pool_identity(
            "compose",
            &co_config,
            composition.pool_key(&co_config),
            &|| adversary(adv_idx, seed),
            &|me| {
                let input = (me == co_config.source).then_some(co_config.source_value);
                Box::new(composition.build(co_params, me, input))
            },
        );
    }
}

/// Panic recovery is *targeted*: when the serve worker quarantines a
/// poisoned key with `RunArena::evict_instances`, only that key's
/// entries go — a sibling key warmed in the same arena must keep its
/// instances and answer the next run with zero factory calls. (This is
/// the regression test for the old behavior of rebuilding the whole
/// arena after a panicked job, which froze out every unrelated grid's
/// warmth.)
#[test]
fn evicting_one_pool_key_leaves_sibling_keys_warm() {
    let config_a = RunConfig::new(7, 2)
        .with_source_value(Value(1))
        .with_trace();
    let config_b = RunConfig::new(9, 2)
        .with_source_value(Value(1))
        .with_trace();
    let spec_a = AlgorithmSpec::OptimalKing;
    let spec_b = AlgorithmSpec::PhaseKing;
    let key_a = spec_a.pool_key(&config_a);
    let key_b = spec_b.pool_key(&config_b);
    let factory_a = spec_a.factory(&config_a);
    let factory_b = spec_b.factory(&config_b);
    let mut arena = RunArena::new();

    let calls_a = AtomicUsize::new(0);
    let calls_b = AtomicUsize::new(0);
    let counting_a = |me: ProcessId| {
        calls_a.fetch_add(1, Ordering::SeqCst);
        factory_a(me)
    };
    let counting_b = |me: ProcessId| {
        calls_b.fetch_add(1, Ordering::SeqCst);
        factory_b(me)
    };
    let adv = || Box::new(shifting_gears::sim::NoFaults) as Box<dyn Adversary>;

    // Warm both keys.
    run_in(
        &mut arena,
        &config_a,
        adv().as_mut(),
        Some(key_a),
        counting_a,
    );
    run_in(
        &mut arena,
        &config_b,
        adv().as_mut(),
        Some(key_b),
        counting_b,
    );
    assert_eq!(calls_a.swap(0, Ordering::SeqCst), config_a.n);
    assert_eq!(calls_b.swap(0, Ordering::SeqCst), config_b.n);
    assert_eq!(arena.pooled_instance_sets(), 2);

    // Quarantine key A (what the serve worker does after a panic in an
    // A-cell), then run both again.
    arena.evict_instances(key_a);
    assert_eq!(arena.pooled_instance_sets(), 1);
    let rerun_a = run_in(
        &mut arena,
        &config_a,
        adv().as_mut(),
        Some(key_a),
        counting_a,
    );
    let rerun_b = run_in(
        &mut arena,
        &config_b,
        adv().as_mut(),
        Some(key_b),
        counting_b,
    );

    assert_eq!(
        calls_a.load(Ordering::SeqCst),
        config_a.n,
        "the evicted key must rebuild from the factory"
    );
    assert_eq!(
        calls_b.load(Ordering::SeqCst),
        0,
        "the sibling key must stay warm across the eviction"
    );

    // And the outcomes are still the fresh-run outcomes, bit for bit.
    let fresh_a = reference::run(&config_a, adv().as_mut(), &factory_a);
    let fresh_b = reference::run(&config_b, adv().as_mut(), &factory_b);
    assert_same_outcome("evicted key", &fresh_a, &rerun_a);
    assert_same_outcome("surviving key", &fresh_b, &rerun_b);
}

/// The pool is selected by input: a run given no [`PoolKey`] rebuilds
/// every instance through the factory — in an arena whose pool is warm
/// for that very spec — and outcomes still match pooled runs exactly.
#[test]
fn disabling_the_pool_rebuilds_instances_without_changing_outcomes() {
    let config = RunConfig::new(7, 2)
        .with_source_value(Value(1))
        .with_trace();
    let spec = AlgorithmSpec::OptimalKing;
    let key = spec.pool_key(&config);
    let factory = spec.factory(&config);
    let liar = || Family::RandomLiar(FaultSelection::with_source()).strategy(11);
    let mut arena = RunArena::new();

    let pooled_a = run_in(&mut arena, &config, liar().as_mut(), Some(key), &factory);
    let pooled_b = run_in(&mut arena, &config, liar().as_mut(), Some(key), &factory);

    let calls = AtomicUsize::new(0);
    let unpooled = run_in(&mut arena, &config, liar().as_mut(), None, |me| {
        calls.fetch_add(1, Ordering::SeqCst);
        factory(me)
    });

    assert_eq!(
        calls.load(Ordering::SeqCst),
        config.n,
        "a keyless run must rebuild every instance"
    );
    assert_same_outcome("keyless", &pooled_a, &pooled_b);
    assert_same_outcome("keyless", &pooled_a, &unpooled);
}

/// The tree machine's echo verdict is run state, not instance state: an
/// arena warmed by a run that every processor left *ready* (fault-free,
/// stopped at the first echo) must hand the next run instances that are
/// not — here a source that splits its relays three against three, which
/// no correct processor may stop on. A verdict that survived
/// `Protocol::reset` would end that run at round 1, before anyone has
/// echoed anything.
#[test]
fn an_echo_verdict_does_not_survive_reset() {
    let config = RunConfig::new(7, 2).with_source_value(Value(1));
    let split_source = || {
        Family::Equivocate {
            selection: FaultSelection::with_source().limit(1),
            split: 4,
            start: 1,
        }
        .strategy(0)
    };
    for spec in [
        AlgorithmSpec::Exponential,
        AlgorithmSpec::AlgorithmA { b: 3 },
        AlgorithmSpec::KingShift { b: 3 },
    ] {
        let key = spec.pool_key(&config);
        let factory = spec.factory(&config);
        let mut arena = RunArena::new();
        let warmup = run_in(
            &mut arena,
            &config,
            &mut shifting_gears::sim::NoFaults,
            Some(key),
            &factory,
        );
        assert_eq!(warmup.rounds_used, 2, "{}: warm-up stops", spec.name());

        let calls = AtomicUsize::new(0);
        let warm = run_in(
            &mut arena,
            &config,
            split_source().as_mut(),
            Some(key),
            |me| {
                calls.fetch_add(1, Ordering::SeqCst);
                factory(me)
            },
        );
        assert_eq!(calls.load(Ordering::SeqCst), 0, "{}: reset", spec.name());
        assert!(warm.rounds_used > 2, "{}: stopped on a split", spec.name());
        let fresh = reference::run(&config, split_source().as_mut(), &factory);
        assert_same_outcome(&spec.name(), &fresh, &warm);
    }
}

/// One arena, consecutive runs whose fault sets and sizes change: `t`
/// faults, then none, then a disjoint set, then one holding the source,
/// with `n` going 10 → 32 → 10. The arena sets up only what a run's own
/// fault set will read, so this is the bug class that can introduce: a
/// payload row, inbox slot or fault index left by an earlier run and read
/// by a later one. Random lies differ per (seed, sender, recipient), so a
/// stale one cannot pass for a fresh one; every run is held to the
/// reference engine, which keeps nothing.
#[test]
fn one_arena_survives_changing_fault_sets_and_sizes() {
    let ids = |members: &[usize]| FaultSelection::explicit(members.iter().map(|&i| ProcessId(i)));
    let steps = [
        (10, FaultSelection::without_source()),
        (10, FaultSelection::without_source().limit(0)),
        (10, ids(&[7, 8, 9])),
        (10, FaultSelection::with_source()),
        (32, ids(&[5, 30, 31])),
        (32, FaultSelection::without_source().limit(0)),
        (10, ids(&[4, 5, 6])),
    ];
    for spec in [
        AlgorithmSpec::KingShift { b: 3 },
        AlgorithmSpec::OptimalKing,
    ] {
        for fixed in [false, true] {
            let mut arena = RunArena::new();
            let mut out = Outcome::buffer();
            for (step, (n, selection)) in steps.iter().enumerate() {
                let mut config = RunConfig::new(*n, 3)
                    .with_source_value(Value(1))
                    .with_trace();
                config.early_stopping = !fixed;
                let liar = || Family::RandomLiar(selection.clone()).strategy(40 + step as u64);
                let factory = spec.factory(&config);
                let key = Some(spec.pool_key(&config));
                run_into(
                    &mut arena,
                    &config,
                    liar().as_mut(),
                    key,
                    &factory,
                    &mut out,
                );
                let fresh = reference::run(&config, liar().as_mut(), &factory);
                let label = format!("{} fixed={fixed} step {step}", spec.name());
                assert_same_outcome(&label, &fresh, &out);
            }
        }
    }
}

/// The pool holds a sweep worker's whole rotation: `tree-paper` cycles
/// through its seven cells, every one of them on the scalar engine. Seven
/// keys in turn must all stay warm — a pool smaller than the rotation
/// evicts every key before it comes back, and each run rebuilds all `n`
/// instances.
#[test]
fn a_seven_key_rotation_stays_warm() {
    let calls = AtomicUsize::new(0);
    let rotation = || {
        for (spec, n) in TREE_PAPER_CELLS {
            let config = RunConfig::new(n, spec.max_resilience(n));
            let factory = spec.factory(&config);
            let key = spec.pool_key(&config);
            run_pooled(&config, &mut shifting_gears::sim::NoFaults, key, |me| {
                calls.fetch_add(1, Ordering::SeqCst);
                factory(me)
            })
            .assert_correct();
        }
        calls.swap(0, Ordering::SeqCst)
    };
    let instances: usize = TREE_PAPER_CELLS.iter().map(|&(_, n)| n).sum();
    assert_eq!(rotation(), instances, "the cold rotation builds");
    assert_eq!(rotation(), 0, "the warm rotation must reset, not rebuild");
}
