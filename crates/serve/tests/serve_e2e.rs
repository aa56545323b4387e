//! End-to-end determinism: grids submitted through a live daemon must
//! reproduce the batch path bit for bit.

use std::time::Duration;

use sg_adversary::{Family, FaultSelection};
use sg_analysis::{AdversaryFamily, SweepConfig, SweepPlan};
use sg_core::AlgorithmSpec;
use sg_serve::{serve, Bind, Client, ErrorCode, Frame, Request, RetryPolicy, ServeOptions};

mod chaos;

use chaos::{ChaosProxy, ChaosSpec, Fault, Schedule};

/// A small two-spec plan. The random liars include the source: with a
/// correct source every run of a cell stops early on the same row, and a
/// report that no seed moves cannot tell a daemon that serves another
/// seed's results. `hybrid (10, 3)` runs on the scalar engine, so its
/// lies are rows the strategy writes in place.
fn quick_plan() -> SweepPlan {
    SweepPlan::new(
        vec![
            SweepConfig::traced(AlgorithmSpec::OptimalKing, 7, 2),
            SweepConfig::traced(AlgorithmSpec::Hybrid { b: 3 }, 10, 3),
        ],
        vec![
            AdversaryFamily::random_liar(FaultSelection::with_source()),
            AdversaryFamily::no_faults(),
        ],
        10,
    )
}

#[test]
fn quick_plan_fingerprint_moves_with_the_base_seed() {
    let fingerprint = |base| {
        quick_plan()
            .with_base_seed(base)
            .run_with_jobs(1)
            .fingerprint()
    };
    assert_ne!(fingerprint(0), fingerprint(1));
}

fn start(workers: usize) -> (sg_serve::ServerHandle, String) {
    let handle = serve(
        &Bind::Tcp("127.0.0.1:0".to_string()),
        ServeOptions {
            workers,
            ..ServeOptions::default()
        },
    )
    .expect("bind daemon");
    let addr = handle.tcp_addr().expect("tcp addr").to_string();
    (handle, addr)
}

fn connect(addr: &str) -> Client {
    Client::connect(addr, Duration::from_secs(10)).expect("connect")
}

#[test]
fn streamed_report_is_bit_identical_to_batch() {
    let plan = quick_plan();
    let batch = plan.run_with_jobs(2);

    let (handle, addr) = start(2);
    let mut client = connect(&addr);
    let mut seen = Vec::new();
    let job = client.submit(&plan).expect("submit");
    assert_eq!(job.cells, plan.cell_count());
    assert_eq!(job.total_runs, plan.total_runs());
    let streamed = client
        .collect(job, |index, _| seen.push(index))
        .expect("collect");

    // Cells streamed in grid order, every one of them.
    assert_eq!(seen, (0..plan.cell_count()).collect::<Vec<_>>());
    // The whole report — samples, summaries, statistics — is the batch
    // report, byte for byte; the fingerprint follows.
    assert_eq!(streamed.report, batch);
    assert_eq!(streamed.fingerprint, batch.fingerprint());
    handle.shutdown();
}

#[test]
fn two_interleaved_jobs_each_match_their_solo_runs() {
    // One worker forces the scheduler to genuinely interleave the two
    // jobs' cells rather than running them on disjoint threads.
    let (handle, addr) = start(1);

    let plan_a = quick_plan();
    let plan_b = SweepPlan::new(
        vec![SweepConfig::traced(AlgorithmSpec::PhaseQueen, 9, 2)],
        vec![
            AdversaryFamily::chain_revealer(FaultSelection::without_source(), 2, 2),
            AdversaryFamily::random_liar(FaultSelection::with_source()),
        ],
        12,
    )
    .with_base_seed(99);
    let solo_a = plan_a.run_with_jobs(1);
    let solo_b = plan_b.run_with_jobs(1);

    // Submit both before collecting either, so the daemon holds both
    // active at once and round-robins their cells on the single worker.
    let mut client_a = connect(&addr);
    let mut client_b = connect(&addr);
    let job_a = client_a.submit(&plan_a).expect("submit a");
    let job_b = client_b.submit(&plan_b).expect("submit b");

    let streamed_b = client_b.collect(job_b, |_, _| {}).expect("collect b");
    let streamed_a = client_a.collect(job_a, |_, _| {}).expect("collect a");

    assert_eq!(streamed_a.report, solo_a);
    assert_eq!(streamed_b.report, solo_b);
    assert_eq!(streamed_a.fingerprint, solo_a.fingerprint());
    assert_eq!(streamed_b.fingerprint, solo_b.fingerprint());
    handle.shutdown();
}

/// Early stopping is a field of the job, not a mode of the daemon: one
/// two-worker daemon runs the canary cell (`optimal-king n=16 t=5` under
/// random liars, 1000 seeds) fixed-length and early-stopping *at the same
/// time* and returns each mode's pinned fingerprint. Journals follow the
/// plan's epoch on both sides of the wire: the daemon's never serves one
/// mode's cell to the other, and a client writing its streamed cells
/// through warm-hits only the mode it submitted.
#[test]
fn one_daemon_serves_a_fixed_and_an_early_job_at_once() {
    let early = SweepPlan::new(
        vec![SweepConfig::traced(AlgorithmSpec::OptimalKing, 16, 5)],
        vec![AdversaryFamily::random_liar(
            FaultSelection::without_source(),
        )],
        1000,
    );
    let fixed = early.clone().fixed_length();
    let pinned = [
        (&early, 0xd5c0_db8c_0396_4e75),
        (&fixed, 0x40c1_8433_ac71_1905),
    ];

    let dir = std::env::temp_dir().join(format!("sg-serve-modes-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let handle = serve(
        &Bind::Tcp("127.0.0.1:0".to_string()),
        ServeOptions {
            workers: 2,
            journal: Some(dir.join("daemon")),
            ..ServeOptions::default()
        },
    )
    .expect("bind daemon");
    let addr = handle.tcp_addr().expect("tcp addr").to_string();

    // Both jobs are accepted before either is collected, and each client
    // appends what it is streamed under its plan's epoch — what `sg submit
    // --journal` does.
    let mut clients = [connect(&addr), connect(&addr)];
    let jobs = [
        clients[0].submit(&early).expect("submit early"),
        clients[1].submit(&fixed).expect("submit fixed"),
    ];
    for (i, (plan, fingerprint)) in pinned.into_iter().enumerate() {
        let mut journal = sg_journal::Journal::open(dir.join(format!("client-{i}"))).unwrap();
        let streamed = clients[i]
            .collect(jobs[i], |cell, report| {
                let key = plan.cell_key(cell);
                journal
                    .append(key, plan.epoch(), &serde::ToJson::to_json(report))
                    .unwrap();
            })
            .expect("collect");
        assert_eq!(streamed.fingerprint, fingerprint, "job {i}");
        assert_eq!(
            streamed.cached_cells, 0,
            "job {i}: the other mode's cell is not a hit"
        );

        let other = pinned[1 - i].0;
        assert_eq!(other.run_with_journal(&mut journal, 1).hits, 0, "job {i}");
        let own = plan.run_with_journal(&mut journal, 1);
        assert_eq!(
            (own.hits, own.report.fingerprint()),
            (1, fingerprint),
            "job {i}"
        );
    }

    // The daemon's own journal now holds the cell once per epoch.
    for (plan, fingerprint) in pinned {
        let again = clients[0].submit_and_collect(plan).expect("resubmit");
        assert_eq!((again.cached_cells, again.fingerprint), (1, fingerprint));
    }
    handle.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn one_connection_can_run_jobs_back_to_back() {
    let (handle, addr) = start(2);
    let mut client = connect(&addr);
    let plan = quick_plan();
    let first = client.submit_and_collect(&plan).expect("first");
    let second = client.submit_and_collect(&plan).expect("second");
    assert_eq!(first.report, second.report);
    assert!(second.job > first.job);
    client.ping().expect("still alive");
    handle.shutdown();
}

/// The four-plan mix the chaos test submits: genuinely different shapes
/// and sizes, so concurrent jobs stress interleaving rather than marching
/// in lockstep. The random liars include the source: with a correct
/// source every run of every cell stops early on the same row, and a
/// fingerprint that no seed moves cannot tell one job's results from
/// another's.
fn plan_mix(seeds_per_cell: u64, base_seed: u64) -> Vec<SweepPlan> {
    let families = || {
        vec![
            AdversaryFamily::no_faults(),
            AdversaryFamily::random_liar(FaultSelection::with_source()),
            AdversaryFamily::crash(FaultSelection::without_source().limit(1), 2),
        ]
    };
    [
        vec![SweepConfig::traced(AlgorithmSpec::OptimalKing, 7, 2)],
        vec![SweepConfig::traced(AlgorithmSpec::PhaseKing, 9, 2)],
        vec![
            SweepConfig::traced(AlgorithmSpec::Hybrid { b: 3 }, 10, 3),
            SweepConfig::traced(AlgorithmSpec::PhaseQueen, 9, 2),
        ],
        vec![SweepConfig::traced(AlgorithmSpec::OptimalKing, 16, 5)],
    ]
    .into_iter()
    .enumerate()
    .map(|(i, configs)| {
        SweepPlan::new(configs, families(), seeds_per_cell)
            .with_base_seed(base_seed.wrapping_add(i as u64))
    })
    .collect()
}

#[test]
fn the_plan_mix_is_deterministic_and_varied() {
    let a = plan_mix(8, 42);
    let b = plan_mix(8, 42);
    let c = plan_mix(8, 43);
    assert_eq!(a.len(), b.len());
    for ((x, y), z) in a.iter().zip(&b).zip(&c) {
        let fingerprint = x.run_with_jobs(1).fingerprint();
        assert_eq!(
            fingerprint,
            y.run_with_jobs(1).fingerprint(),
            "same mix, same fingerprints"
        );
        assert_ne!(
            fingerprint,
            z.run_with_jobs(1).fingerprint(),
            "another base seed, another fingerprint"
        );
    }
    let sizes: Vec<usize> = a.iter().map(|p| p.configs[0].n).collect();
    assert!(sizes.contains(&7) && sizes.contains(&16), "mixed sizes");
}

/// Seeds the chaos test's plans and every connection's retry jitter.
const CHAOS_BASE_SEED: u64 = 42;

/// The load test's network: occasional delays, split writes and read
/// stalls, and nothing that loses or cuts a line, so every job that
/// goes through it completes.
const GENTLE: ChaosSpec = ChaosSpec {
    seed: 11,
    drop_per_mille: 0,
    delay_per_mille: 30,
    split_per_mille: 60,
    stall_per_mille: 10,
    truncate_per_mille: 0,
    delay_ms: 5,
    stall_ms: 25,
};

#[test]
fn schedules_are_deterministic_and_distinct() {
    let faults = |conn, dir| {
        let mut s = Schedule::new(GENTLE, conn, dir);
        (0..200).map(|_| s.next()).collect::<Vec<_>>()
    };
    assert_eq!(faults(0, 0), faults(0, 0), "same coordinates replay");
    assert_ne!(faults(0, 0), faults(1, 0), "connections differ");
    assert_ne!(faults(0, 0), faults(0, 1), "directions differ");
    let all = faults(0, 0);
    assert!(all.contains(&Fault::Forward));
    assert!(all.iter().any(|f| *f != Fault::Forward));
}

#[test]
fn gentle_schedule_never_kills_connections() {
    for conn in 0..8 {
        for dir in 0..2 {
            let mut s = Schedule::new(GENTLE, conn, dir);
            for _ in 0..10_000 {
                let fault = s.next();
                assert!(
                    !matches!(fault, Fault::Truncate | Fault::Drop),
                    "gentle spec produced {fault:?}"
                );
            }
        }
    }
}

/// One connection's life: submit four plans from the mix in rotation
/// and stream each to its end, returning the fingerprints served.
fn drive_connection(addr: &str, conn: usize, plans: &[SweepPlan]) -> Vec<u64> {
    let policy = RetryPolicy {
        attempts: 8,
        ..RetryPolicy::deterministic(CHAOS_BASE_SEED ^ (conn as u64).wrapping_mul(0x9E37))
    };
    let mut client = Client::connect(addr, Duration::from_secs(5)).expect("connect");
    (0..4)
        .map(|j| {
            let plan = &plans[(conn + j) % plans.len()];
            let handle = client
                .submit_with_retry(plan, None, &policy)
                .unwrap_or_else(|e| panic!("connection {conn}, job {j}: submit: {e:?}"));
            let streamed = client
                .collect(handle, |_, _| {})
                .unwrap_or_else(|e| panic!("connection {conn}, job {j}: collect: {e:?}"));
            streamed.fingerprint
        })
        .collect()
}

#[test]
fn load_harness_under_gentle_chaos_keeps_fingerprints_exact() {
    // Six connections of four jobs each against one two-worker daemon
    // that holds at most six jobs; every odd connection goes through the
    // GENTLE proxy, which delays, splits and stalls lines but never drops
    // or cuts one. A connection has one job in flight, but the daemon
    // frees a job's slot just after sending its summary, so a submit can
    // race that release and be rejected with a retry hint; the retry
    // policy takes it. No job has a deadline. So all 24 jobs complete,
    // each with the batch path's fingerprint: the determinism contract
    // the rest of this file pins, under cross-load and a faulty wire.
    // Rejection and deadlines as outcomes are pinned in wire_protocol.rs.
    let plans = plan_mix(24, CHAOS_BASE_SEED);
    let batch: Vec<u64> = plans
        .iter()
        .map(|plan| plan.run_with_jobs(1).fingerprint())
        .collect();
    let handle = serve(
        &Bind::Tcp("127.0.0.1:0".to_string()),
        ServeOptions {
            workers: 2,
            max_jobs: 6,
            ..ServeOptions::default()
        },
    )
    .expect("bind daemon");
    let direct = handle.tcp_addr().expect("tcp addr");
    let proxy = ChaosProxy::spawn(direct, GENTLE).expect("bind chaos proxy");

    let served: Vec<Vec<u64>> = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..6)
            .map(|conn| {
                let addr = if conn % 2 == 1 { proxy.addr() } else { direct }.to_string();
                let plans = &plans;
                scope.spawn(move || drive_connection(&addr, conn, plans))
            })
            .collect();
        threads
            .into_iter()
            .map(|thread| thread.join().expect("connection thread"))
            .collect()
    });
    drop(proxy);
    handle.shutdown();

    let expected: Vec<Vec<u64>> = (0..6)
        .map(|conn| (0..4).map(|j| batch[(conn + j) % plans.len()]).collect())
        .collect();
    assert_eq!(
        served, expected,
        "6 connections × 4 jobs, all served exactly"
    );
}

#[cfg(unix)]
#[test]
fn unix_socket_transport_works() {
    let dir = std::env::temp_dir().join(format!("sg-serve-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let sock = dir.join("daemon.sock");
    let handle = serve(&Bind::Unix(sock.clone()), ServeOptions::default()).expect("bind unix");
    let mut client = connect(&format!("unix:{}", sock.display()));
    client.ping().expect("ping over unix socket");
    let plan = quick_plan();
    let streamed = client.submit_and_collect(&plan).expect("submit over unix");
    assert_eq!(streamed.report, plan.run_with_jobs(1));
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn widened_families_and_trace_plans_travel_the_wire_bit_exactly() {
    // The widened fault vocabulary (link cuts, omission patterns,
    // equivocation schedules, adaptive corruption) plus a recorded-trace
    // replay family, submitted through a live daemon: the streamed
    // report must be the batch report bit for bit, which means every one
    // of these families round-trips `sg-serve/1` and replays
    // deterministically inside the server's pooled workers.
    let sel = FaultSelection::without_source();
    let (scenario, _) = sg_analysis::scenario::record(
        &SweepConfig::traced(AlgorithmSpec::OptimalKing, 7, 2),
        sg_adversary::Family::Equivocate {
            selection: FaultSelection::with_source(),
            split: 3,
            start: 1,
        }
        .strategy(0),
    )
    .expect("recordable strategy");
    let plan = SweepPlan::new(
        vec![SweepConfig::traced(AlgorithmSpec::OptimalKing, 7, 2)],
        vec![
            Family::Partition {
                selection: sel.clone().limit(1),
                split: 1,
                from: 2,
                to: 3,
            }
            .into(),
            Family::Omission {
                selection: sel.clone(),
                period: 2,
                phase: 0,
            }
            .into(),
            AdversaryFamily::equivocate(sel.clone(), 3, 1),
            Family::Adaptive {
                selection: sel,
                schedule: vec![2, 4],
            }
            .into(),
            Family::replay(scenario.trace)
                .map(AdversaryFamily::from)
                .expect("recorded trace validates"),
        ],
        8,
    );
    let batch = plan.run_with_jobs(2);

    let (handle, addr) = start(2);
    let mut client = connect(&addr);
    let streamed = client.submit_and_collect(&plan).expect("submit");
    assert_eq!(streamed.report, batch);
    assert_eq!(streamed.fingerprint, batch.fingerprint());
    handle.shutdown();
}

/// `sizes × KING × four families`, 64 seeds a cell: the benchmark's
/// `king-expedite` shape — cells of a few microseconds, many to a turn.
fn king_grid(sizes: &[usize]) -> SweepPlan {
    let honest = FaultSelection::without_source;
    let configs = [
        AlgorithmSpec::OptimalKing,
        AlgorithmSpec::PhaseKing,
        AlgorithmSpec::PhaseQueen,
    ]
    .iter()
    .flat_map(|&spec| {
        sizes
            .iter()
            .map(move |&n| SweepConfig::traced(spec, n, spec.max_resilience(n)))
    })
    .collect();
    SweepPlan::new(
        configs,
        vec![
            AdversaryFamily::random_liar(honest()),
            AdversaryFamily::crash(honest(), 2),
            AdversaryFamily::silent(honest()),
            AdversaryFamily::chain_revealer(honest(), 2, 2),
        ],
        64,
    )
}

/// Reads one job's frames up to its terminal one, holding the cell
/// frames to grid order from index `next`; returns how many it read and
/// the terminal frame.
fn drain(client: &mut Client, mut next: usize) -> (usize, Frame) {
    let from = next;
    loop {
        match client.next_frame().expect("frame") {
            Frame::Cell { index, .. } => {
                assert_eq!(index, next, "cell frames leave in grid order");
                next += 1;
            }
            terminal => return (next - from, terminal),
        }
    }
}

/// A worker reports per turn, not per cell; none of what a client sees
/// may depend on where the turns fall. Three jobs of different shapes —
/// many tiny cells, a few mixed ones, one cell far longer than a turn —
/// held active together on 1, 2 and 4 workers: each streams in grid
/// order and reassembles to the in-process report.
#[test]
fn turns_ship_every_shape_in_grid_order_at_any_worker_count() {
    let honest = FaultSelection::without_source;
    let plans = [
        king_grid(&[7, 16, 31]),
        SweepPlan::new(
            sg_analysis::TREE_PAPER_CELLS
                .iter()
                .map(|&(spec, n)| SweepConfig::traced(spec, n, spec.max_resilience(n)))
                .collect(),
            vec![
                AdversaryFamily::random_liar(honest()),
                AdversaryFamily::chain_revealer(honest(), 2, 2),
            ],
            4,
        )
        .with_base_seed(5),
        SweepPlan::new(
            vec![SweepConfig::traced(AlgorithmSpec::OptimalKing, 16, 5)],
            vec![AdversaryFamily::random_liar(honest())],
            4096,
        ),
    ];
    assert_eq!(
        plans.each_ref().map(SweepPlan::cell_count),
        [36, 14, 1],
        "the three shapes"
    );
    let solo = plans.each_ref().map(|plan| plan.run_with_jobs(1));

    for workers in [1, 2, 4] {
        let (handle, addr) = start(workers);
        let mut clients = [connect(&addr), connect(&addr), connect(&addr)];
        // All three accepted before any is collected.
        let jobs: Vec<_> = clients
            .iter_mut()
            .zip(&plans)
            .map(|(client, plan)| client.submit(plan).expect("submit"))
            .collect();
        for (i, client) in clients.iter_mut().enumerate() {
            let mut order = Vec::new();
            let streamed = client
                .collect(jobs[i], |index, _| order.push(index))
                .expect("collect");
            assert_eq!(
                order,
                (0..plans[i].cell_count()).collect::<Vec<_>>(),
                "{workers} workers, job {i}"
            );
            assert_eq!(streamed.report, solo[i], "{workers} workers, job {i}");
            assert_eq!(streamed.fingerprint, solo[i].fingerprint());
        }
        handle.shutdown();
    }
}

/// Batching is for small cells only: a cell longer than a turn ships the
/// moment it finishes, not when its job does. Shown by order, not by
/// clock — the client cancels only after it has *read* the first cell
/// frame, and the job must still have had cells left to cancel.
#[test]
fn a_cell_longer_than_a_turn_is_streamed_before_its_job_ends() {
    // Sixteen fixed-length tree cells of tens of milliseconds each.
    let plan = SweepPlan::new(
        vec![SweepConfig::traced(AlgorithmSpec::Hybrid { b: 3 }, 10, 3); 4],
        vec![
            AdversaryFamily::random_liar(FaultSelection::without_source()),
            AdversaryFamily::chain_revealer(FaultSelection::without_source(), 2, 2),
            AdversaryFamily::crash(FaultSelection::without_source(), 2),
            AdversaryFamily::no_faults(),
        ],
        320,
    )
    .fixed_length();
    for workers in [1, 2, 4] {
        let (handle, addr) = start(workers);
        let mut client = connect(&addr);
        let job = client.submit(&plan).expect("submit");
        let first = client.next_frame().expect("first cell");
        assert!(matches!(first, Frame::Cell { index: 0, .. }), "{first:?}");
        client.cancel(job.job).expect("cancel");
        let (more, terminal) = drain(&mut client, 1);
        assert_eq!(
            terminal,
            Frame::Cancelled {
                job: job.job,
                cells_streamed: 1 + more
            },
            "{workers} workers"
        );
        assert!(
            1 + more < plan.cell_count(),
            "{workers} workers: the whole job was held back"
        );
        handle.shutdown();
    }
}

/// A cancel or a deadline that lands while a worker is mid-turn — cells
/// finished but not yet reported — still ends the job in exactly one
/// terminal frame, after every cell frame, counting exactly the cell
/// frames the client was sent. (The worker-panic case is
/// `tests/serve_executor.rs`'s, which has the corpus tape it needs.)
#[test]
fn aborts_landing_mid_turn_end_in_one_terminal_frame_that_counts_what_arrived() {
    for workers in [1, 2, 4] {
        let (handle, addr) = start(workers);
        let mut client = connect(&addr);
        // 180 and 720 cells of microseconds each: dozens to a turn, so an
        // abort a round trip behind the submit finds a turn in progress.
        for sizes in [[7; 15].as_slice(), [7; 60].as_slice()] {
            let plan = king_grid(sizes);
            let fingerprint = plan.run_with_jobs(1).fingerprint_hex();
            // The other legal ending: the job outran the abort, whole.
            let ran_out = |received: usize, terminal: &Frame| match terminal {
                Frame::Summary {
                    cells,
                    report_fingerprint,
                    ..
                } => {
                    assert_eq!((*cells, received), (plan.cell_count(), plan.cell_count()));
                    assert_eq!(report_fingerprint, &fingerprint);
                    true
                }
                _ => false,
            };

            let job = client.submit(&plan).expect("submit");
            client.cancel(job.job).expect("cancel");
            let (received, terminal) = drain(&mut client, 0);
            let outran = ran_out(received, &terminal);
            if !outran {
                assert_eq!(
                    terminal,
                    Frame::Cancelled {
                        job: job.job,
                        cells_streamed: received
                    },
                    "{workers} workers"
                );
            }
            // Nothing follows the terminal frame — except, when the job
            // outran the cancel and was already forgotten, the cancel's
            // own `unknown-job` answer.
            client.send(&Request::Ping).expect("ping");
            let mut next = client.next_frame().expect("frame");
            if outran
                && matches!(&next, Frame::Error { code, .. } if *code == ErrorCode::UnknownJob)
            {
                next = client.next_frame().expect("frame");
            }
            assert!(
                matches!(next, Frame::Pong { .. }),
                "{workers} workers: {next:?} after the terminal frame"
            );

            let job = client
                .submit_with_deadline(&plan, Some(1))
                .expect("submit with deadline");
            let (received, terminal) = drain(&mut client, 0);
            if !ran_out(received, &terminal) {
                let Frame::Error {
                    code,
                    detail,
                    job: id,
                } = terminal
                else {
                    panic!("{workers} workers: {terminal:?}");
                };
                assert_eq!((code, id), (ErrorCode::DeadlineExceeded, Some(job.job)));
                let counted = format!("after {received} of {} cells", plan.cell_count());
                assert!(detail.contains(&counted), "{detail} vs {counted}");
            }
            client.ping().expect("nothing follows the terminal frame");
        }
        handle.shutdown();
    }
}
