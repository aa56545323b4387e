//! The daemon runs on the one chunk executor: a worker panic there fails
//! one job and leaves the worker's scratch fit for bit-exact work, and
//! cancellation still lands mid-cell.
//!
//! One single-worker daemon takes three jobs in a row, so every job
//! after the first runs on whatever the previous one left in the
//! worker's [`SweepScratch`](shifting_gears::analysis::SweepScratch).

use std::path::PathBuf;
use std::time::Duration;

use serde::json::Value as Json;
use serde::FromJson;
use shifting_gears::adversary::{Family, FaultSelection};
use shifting_gears::analysis::{AdversaryFamily, Scenario, SweepConfig, SweepPlan};
use shifting_gears::core::AlgorithmSpec;
use shifting_gears::serve::{serve, Bind, Client, ErrorCode, ServeError, ServeOptions};

/// The committed over-budget tape that breaks Exponential's agreement at
/// `n = 4`, as a sweep grid: every run of it trips the executor's
/// agreement assertion.
fn violation_plan() -> SweepPlan {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/corpus/violation_exponential_n4_overbudget.json");
    let text = std::fs::read_to_string(&path).expect("readable corpus file");
    let scenario =
        Scenario::from_json(&Json::parse(&text).expect("corpus JSON")).expect("a scenario");
    assert!(
        !scenario.verdict.agreement,
        "corpus file must be a violation"
    );
    let family = Family::replay(scenario.trace)
        .map(AdversaryFamily::from)
        .expect("valid trace");
    SweepPlan::new(vec![scenario.config], vec![family], 3)
}

#[test]
fn a_worker_panic_fails_one_job_and_the_next_is_bit_exact() {
    let options = ServeOptions {
        workers: 1,
        ..ServeOptions::default()
    };
    let handle = serve(&Bind::Tcp("127.0.0.1:0".to_string()), options).expect("bind daemon");
    let addr = handle.tcp_addr().expect("tcp addr").to_string();
    let mut client = Client::connect(&addr, Duration::from_secs(5)).expect("connect");

    // 1. A recorded violation is a worker panic: one `job-failed` error
    // frame naming the broken property, and the daemon lives on.
    match client.submit_and_collect(&violation_plan()) {
        Err(ServeError::Server { code, detail }) => {
            assert_eq!(code, ErrorCode::JobFailed, "detail: {detail}");
            assert!(detail.contains("violated agreement"), "detail: {detail}");
        }
        other => panic!("expected job-failed, got {other:?}"),
    }
    client.ping().expect("daemon alive after the panic");

    // 2. The same worker, the same scratch: a grid taking every route
    // through the chunk executor — lock-step kernel, scalar gear shift,
    // scalar tree spec — over two full chunks
    // and a 2-seed tail per cell must equal the in-process report.
    let selection = FaultSelection::without_source().limit(2);
    let grid = SweepPlan::new(
        vec![
            SweepConfig::traced(AlgorithmSpec::OptimalKing, 10, 3),
            SweepConfig::traced(AlgorithmSpec::DynamicKing { b: 3 }, 10, 3),
            SweepConfig::traced(AlgorithmSpec::Exponential, 7, 2),
        ],
        vec![
            AdversaryFamily::random_liar(selection.clone()),
            AdversaryFamily::crash(selection, 2),
        ],
        130,
    );
    let streamed = client.submit_and_collect(&grid).expect("grid after panic");
    assert_eq!(streamed.report, grid.run_with_jobs(1));

    // 3. Cancellation is checked between chunks: two 640-seed cells of a
    // scalar-only tree spec (ten chunks each, tens of milliseconds even
    // optimized) cannot both have streamed when a cancel sent right
    // behind the submit lands.
    let slow = SweepPlan::new(
        vec![SweepConfig::traced(AlgorithmSpec::Hybrid { b: 3 }, 10, 3)],
        vec![
            AdversaryFamily::random_liar(FaultSelection::without_source()),
            AdversaryFamily::no_faults(),
        ],
        640,
    );
    let job = client.submit(&slow).expect("submit slow job");
    client.cancel(job.job).expect("cancel");
    match client.collect(job, |_, _| {}) {
        Err(ServeError::Cancelled { cells_streamed, .. }) => {
            assert!(cells_streamed < slow.cell_count());
        }
        other => panic!("expected cancellation, got {other:?}"),
    }
    client.ping().expect("daemon alive after the cancel");
    handle.shutdown();
}

/// A worker reports per turn; a panic must not take the turn's finished
/// cells down with it. Cell 0 of this grid is sound (and microseconds
/// long), cell 1 replays the violation tape: the one worker finishes the
/// first, panics in the second, and the client still receives cell 0 —
/// bit-exact — before the job's single `job-failed` frame.
#[test]
fn a_panic_mid_turn_ships_the_turns_cells_before_the_one_error_frame() {
    let mut plan = violation_plan();
    plan.adversaries.insert(0, AdversaryFamily::no_faults());
    let mut sound = plan.clone();
    sound.adversaries.truncate(1);
    let sound = sound.run_with_jobs(1);

    let options = ServeOptions {
        workers: 1,
        ..ServeOptions::default()
    };
    let handle = serve(&Bind::Tcp("127.0.0.1:0".to_string()), options).expect("bind daemon");
    let addr = handle.tcp_addr().expect("tcp addr").to_string();
    let mut client = Client::connect(&addr, Duration::from_secs(5)).expect("connect");

    let job = client.submit(&plan).expect("submit");
    let mut received = Vec::new();
    match client.collect(job, |index, cell| received.push((index, cell.clone()))) {
        Err(ServeError::Server { code, detail }) => {
            assert_eq!(code, ErrorCode::JobFailed, "detail: {detail}");
        }
        other => panic!("expected job-failed, got {other:?}"),
    }
    assert_eq!(received, vec![(0, sound.cells[0].clone())]);
    client.ping().expect("nothing follows the terminal frame");
    handle.shutdown();
}
