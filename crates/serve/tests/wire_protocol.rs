//! Protocol robustness: malformed input gets structured errors and the
//! daemon keeps serving; cancellation stops the cell stream.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use serde::json::Value as Json;
use serde::FromJson;
use sg_adversary::{Family, FaultSelection, Move};
use sg_analysis::{AdversaryFamily, SweepConfig, SweepPlan};
use sg_core::AlgorithmSpec;
use sg_serve::{
    serve, Bind, Client, ErrorCode, Frame, RejectCode, Request, RetryPolicy, ServeError,
    ServeOptions,
};
use sg_sim::ProcessId;

mod chaos;

use chaos::{ChaosProxy, ChaosSpec};

fn start() -> (sg_serve::ServerHandle, String) {
    start_with(ServeOptions {
        workers: 1,
        ..ServeOptions::default()
    })
}

fn start_with(options: ServeOptions) -> (sg_serve::ServerHandle, String) {
    let handle = serve(&Bind::Tcp("127.0.0.1:0".to_string()), options).expect("bind daemon");
    let addr = handle.tcp_addr().expect("tcp addr").to_string();
    (handle, addr)
}

/// A raw NDJSON connection, for speaking deliberately broken frames.
struct Raw {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Raw {
    fn connect(addr: &str) -> Raw {
        let writer = TcpStream::connect(addr).expect("connect");
        let reader = BufReader::new(writer.try_clone().expect("clone"));
        Raw { reader, writer }
    }

    fn send_line(&mut self, line: &str) {
        writeln!(self.writer, "{line}").expect("send");
        self.writer.flush().expect("flush");
    }

    fn read_frame(&mut self) -> Frame {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read");
        assert!(!line.is_empty(), "server closed unexpectedly");
        Frame::from_json(&Json::parse(line.trim()).expect("frame json")).expect("frame decode")
    }
}

#[test]
fn malformed_lines_get_structured_errors_and_the_daemon_survives() {
    let (handle, addr) = start();
    let mut raw = Raw::connect(&addr);

    // Truncated frame (cut off mid-document), binary garbage, valid
    // JSON that is not a request, unknown op, wrong proto: each answers
    // with a structured error naming the failure class...
    for (line, want) in [
        (
            "{\"op\":\"submit\",\"plan\":{\"configs\"",
            ErrorCode::BadJson,
        ),
        ("\u{1}\u{2}garbage", ErrorCode::BadJson),
        ("[1,2,3]", ErrorCode::BadRequest),
        ("{\"op\":\"warp\"}", ErrorCode::BadRequest),
        ("{\"op\":\"submit\"}", ErrorCode::BadRequest),
        ("{\"op\":\"cancel\",\"job\":-3}", ErrorCode::BadRequest),
        (
            "{\"op\":\"ping\",\"proto\":\"sg-serve/99\"}",
            ErrorCode::UnsupportedProto,
        ),
    ] {
        raw.send_line(line);
        match raw.read_frame() {
            Frame::Error { code, detail, .. } => {
                assert_eq!(code, want, "for line {line:?} ({detail})")
            }
            other => panic!("expected error for {line:?}, got {other:?}"),
        }
    }

    // ...and the connection (and daemon) keep working afterwards. A
    // journal-less daemon pongs zero lifetime journal counters.
    raw.send_line("{\"op\":\"ping\"}");
    assert_eq!(
        raw.read_frame(),
        Frame::Pong {
            journal_hits: 0,
            journal_misses: 0,
        }
    );

    let mut fresh = Client::connect(&addr, Duration::from_secs(5)).expect("fresh connection");
    fresh.ping().expect("daemon still serving");
    handle.shutdown();
}

#[test]
fn rejected_plans_and_unknown_jobs_are_structured_errors() {
    let (handle, addr) = start();
    let mut client = Client::connect(&addr, Duration::from_secs(5)).expect("connect");

    // An (n, t) the algorithm cannot run is rejected at submit time.
    let invalid = SweepPlan::new(
        vec![SweepConfig::traced(AlgorithmSpec::OptimalKing, 7, 3)],
        vec![AdversaryFamily::no_faults()],
        5,
    );
    match client.submit(&invalid) {
        Err(ServeError::Server { code, .. }) => assert_eq!(code, ErrorCode::Rejected),
        other => panic!("expected rejection, got {other:?}"),
    }

    // Cancelling a job that does not exist on this connection.
    client.cancel(12345).expect("send cancel");
    match client.next_frame().expect("frame") {
        Frame::Error { code, job, .. } => {
            assert_eq!(code, ErrorCode::UnknownJob);
            assert_eq!(job, Some(12345));
        }
        other => panic!("expected unknown-job, got {other:?}"),
    }
    handle.shutdown();
}

#[test]
fn families_naming_a_processor_outside_the_system_are_bad_requests() {
    let (handle, addr) = start();
    let mut client = Client::connect(&addr, Duration::from_secs(5)).expect("connect");
    let king = |n| SweepConfig::traced(AlgorithmSpec::OptimalKing, n, (n - 1) / 3);
    let outside = [
        (
            vec![king(16)],
            AdversaryFamily::random_liar(FaultSelection::explicit([ProcessId(99)])),
            "n = 16",
        ),
        (
            vec![king(16)],
            Family::tape(vec![ProcessId(16)], vec![Move::AllOne])
                .map(AdversaryFamily::from)
                .expect("a tape"),
            "n = 16",
        ),
        // Inside the first config's system, outside the second's.
        (
            vec![king(16), king(7)],
            AdversaryFamily::equivocate(FaultSelection::explicit([ProcessId(9)]), 3, 1),
            "n = 7",
        ),
    ];
    for (configs, family, names) in outside {
        let name = family.name().to_string();
        match client.submit(&SweepPlan::new(configs, vec![family], 2)) {
            Err(ServeError::Server { code, detail }) => {
                assert_eq!(code, ErrorCode::BadRequest, "{name}: {detail}");
                assert!(detail.contains(names), "{name}: {detail}");
            }
            other => panic!("{name}: expected bad-request, got {other:?}"),
        }
    }
    // The last processor of the system is inside it.
    let edge = SweepPlan::new(
        vec![king(16)],
        vec![AdversaryFamily::random_liar(FaultSelection::explicit([
            ProcessId(15),
        ]))],
        2,
    );
    let streamed = client
        .submit_and_collect(&edge)
        .expect("a fitting plan runs");
    assert_eq!(streamed.report, edge.run_with_jobs(1));
    handle.shutdown();
}

/// An equivocating source whose selection leaves the source correct is a
/// run like any other: its members relay their shadows, and the plan is
/// answered with a summary, not a worker panic.
#[test]
fn an_equivocating_source_without_the_source_is_answered_with_a_summary() {
    let (handle, addr) = start();
    let mut client = Client::connect(&addr, Duration::from_secs(5)).expect("connect");
    let plan = SweepPlan::new(
        vec![
            SweepConfig::traced(AlgorithmSpec::OptimalKing, 7, 2),
            SweepConfig::traced(AlgorithmSpec::Hybrid { b: 3 }, 10, 3),
        ],
        vec![
            Family::EquivocatingSource(FaultSelection::with_source().limit(0)).into(),
            Family::EquivocatingSource(FaultSelection::explicit([ProcessId(2), ProcessId(5)]))
                .into(),
        ],
        3,
    );
    let streamed = client
        .submit_and_collect(&plan)
        .expect("a summary, not a worker panic");
    assert_eq!(streamed.report, plan.run_with_jobs(1));
    handle.shutdown();
}

#[test]
fn cancellation_mid_grid_stops_the_cell_stream() {
    let (handle, addr) = start();
    let mut client = Client::connect(&addr, Duration::from_secs(5)).expect("connect");

    // Many cells, enough seeds each that the single worker is still
    // mid-grid when the cancel lands right after the first cell frame.
    let job = client.submit(&slow_plan()).expect("submit");
    assert_eq!(job.cells, 9);

    // Wait for the first streamed cell, then cancel.
    let first = client.next_frame().expect("first cell");
    assert!(
        matches!(first, Frame::Cell { index: 0, .. }),
        "expected cell 0, got {first:?}"
    );
    client.cancel(job.job).expect("cancel");

    // The stream must end with a cancelled frame after at most a few
    // more in-flight cells — nowhere near all 9.
    let mut extra_cells = 0usize;
    loop {
        match client.next_frame().expect("frame") {
            Frame::Cell { .. } => extra_cells += 1,
            Frame::Cancelled {
                job: id,
                cells_streamed,
            } => {
                assert_eq!(id, job.job);
                assert_eq!(cells_streamed, 1 + extra_cells);
                break;
            }
            Frame::Summary { .. } => panic!("job ran to completion despite cancel"),
            other => panic!("unexpected frame {other:?}"),
        }
    }
    assert!(
        extra_cells < job.cells - 1,
        "cancel stopped nothing: {extra_cells} cells streamed after it"
    );

    // The connection is still good for new work.
    client.ping().expect("ping after cancel");
    let small = SweepPlan::new(
        vec![SweepConfig::traced(AlgorithmSpec::OptimalKing, 7, 2)],
        vec![AdversaryFamily::no_faults()],
        3,
    );
    let streamed = client.submit_and_collect(&small).expect("post-cancel job");
    assert_eq!(streamed.report, small.run_with_jobs(1));
    handle.shutdown();
}

#[test]
fn shutdown_closes_streaming_clients_instead_of_stranding_them() {
    let (handle, addr) = start();
    let mut streaming = Client::connect(&addr, Duration::from_secs(5)).expect("connect");

    // A slow grid keeps the single worker busy well past the shutdown.
    let job = streaming.submit(&slow_plan()).expect("submit");

    // Another client shuts the daemon down while the first is
    // mid-stream: the first must see its connection close (an error
    // from collect), not block forever waiting for cells.
    let mut other = Client::connect(&addr, Duration::from_secs(5)).expect("second connection");
    other.shutdown_server().expect("bye");

    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let drain = std::thread::spawn(move || {
        let outcome = streaming.collect(job, |_, _| {});
        let _ = done_tx.send(());
        outcome
    });
    done_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("streaming client still blocked 30s after daemon shutdown");
    assert!(
        drain.join().expect("drain thread").is_err(),
        "a shut-down daemon cannot have completed the slow grid"
    );
    handle.shutdown();
}

#[test]
fn shutdown_op_stops_the_daemon() {
    let (handle, addr) = start();
    let mut client = Client::connect(&addr, Duration::from_secs(5)).expect("connect");
    client.shutdown_server().expect("bye");
    // New connections are refused (or die unanswered) once stopped;
    // allow a moment for the accept loop to wind down.
    std::thread::sleep(Duration::from_millis(100));
    let mut alive = false;
    if let Ok(mut probe) = Client::connect(&addr, Duration::from_millis(200)) {
        alive = probe.ping().is_ok();
    }
    assert!(!alive, "daemon still answering after shutdown");
    handle.shutdown();
}

/// A grid slow enough that a single worker is still mid-stream when the
/// test reacts to its first frames — by construction, not by engine
/// speed: every spec is a tree machine with no lock-step kernel and the
/// plan is fixed-length (under the echo rule these correct-source runs
/// would all stop at round 2, a few microseconds each), so each of the
/// 3600 runs is a scalar execution gathering a whole EIG tree (tens to
/// hundreds of microseconds optimized, about a millisecond unoptimized)
/// whatever the king kernels do. The cheap Exponential cells come first
/// so the stream starts promptly.
fn slow_plan() -> SweepPlan {
    SweepPlan::new(
        vec![
            SweepConfig::traced(AlgorithmSpec::Exponential, 7, 2),
            SweepConfig::traced(AlgorithmSpec::Hybrid { b: 3 }, 10, 3),
            SweepConfig::traced(AlgorithmSpec::AlgorithmB { b: 2 }, 13, 3),
        ],
        vec![
            AdversaryFamily::random_liar(FaultSelection::without_source()),
            AdversaryFamily::chain_revealer(FaultSelection::without_source(), 2, 2),
            AdversaryFamily::no_faults(),
        ],
        400,
    )
    .fixed_length()
}

fn tiny_plan() -> SweepPlan {
    SweepPlan::new(
        vec![SweepConfig::traced(AlgorithmSpec::OptimalKing, 7, 2)],
        vec![AdversaryFamily::no_faults()],
        3,
    )
}

fn quick_plan() -> SweepPlan {
    SweepPlan::new(
        vec![
            SweepConfig::traced(AlgorithmSpec::OptimalKing, 7, 2),
            SweepConfig::traced(AlgorithmSpec::Hybrid { b: 3 }, 10, 3),
        ],
        vec![
            AdversaryFamily::random_liar(FaultSelection::without_source()),
            AdversaryFamily::no_faults(),
        ],
        10,
    )
}

#[test]
fn saturated_daemon_rejects_promptly_with_a_retry_hint() {
    // One job slot: the second submit must bounce immediately — while
    // the first job is still streaming — with code `saturated` and a
    // deterministic retry hint, and succeed on bounded retry once the
    // slot frees up.
    let (handle, addr) = start_with(ServeOptions {
        workers: 1,
        max_jobs: 1,
        ..ServeOptions::default()
    });
    let mut busy = Client::connect(&addr, Duration::from_secs(5)).expect("connect busy");
    let mut turned_away = Client::connect(&addr, Duration::from_secs(5)).expect("connect second");

    let job = busy.submit(&slow_plan()).expect("first job fits");
    match turned_away.submit(&tiny_plan()) {
        Err(ServeError::Rejected {
            code,
            retry_after_ms,
            ..
        }) => {
            assert_eq!(code, RejectCode::Saturated);
            assert!(
                retry_after_ms.is_some_and(|ms| (10..=2_000).contains(&ms)),
                "retry hint missing or wild: {retry_after_ms:?}"
            );
        }
        other => panic!("expected saturated rejection, got {other:?}"),
    }

    // Free the slot and let the bounded retry loop land the job.
    busy.cancel(job.job).expect("cancel");
    match busy.collect(job, |_, _| {}) {
        Err(ServeError::Cancelled { .. }) => {}
        other => panic!("expected cancellation, got {other:?}"),
    }
    let policy = RetryPolicy {
        attempts: 10,
        ..RetryPolicy::deterministic(7)
    };
    let retried = turned_away
        .submit_with_retry(&tiny_plan(), None, &policy)
        .expect("retry after slot freed");
    let streamed = turned_away.collect(retried, |_, _| {}).expect("collect");
    assert_eq!(streamed.report, tiny_plan().run_with_jobs(1));
    handle.shutdown();
}

#[test]
fn queued_runs_cap_bounds_the_backlog() {
    let (handle, addr) = start_with(ServeOptions {
        workers: 1,
        max_queued_runs: 100,
        ..ServeOptions::default()
    });
    let mut client = Client::connect(&addr, Duration::from_secs(5)).expect("connect");

    // slow_plan() is 9 cells × 400 seeds = 3600 runs ≫ 100: too much
    // backlog even for an idle daemon.
    match client.submit(&slow_plan()) {
        Err(ServeError::Rejected { code, .. }) => assert_eq!(code, RejectCode::Saturated),
        other => panic!("expected saturated rejection, got {other:?}"),
    }
    // 3 runs fit, and the rejection cost nothing: the budget is intact.
    let streamed = client.submit_and_collect(&tiny_plan()).expect("small job");
    assert_eq!(streamed.report, tiny_plan().run_with_jobs(1));
    handle.shutdown();
}

#[test]
fn per_connection_inflight_cap_is_enforced() {
    let (handle, addr) = start_with(ServeOptions {
        workers: 1,
        max_jobs_per_conn: 1,
        ..ServeOptions::default()
    });
    let mut client = Client::connect(&addr, Duration::from_secs(5)).expect("connect");
    let job = client.submit(&slow_plan()).expect("first job");
    match client.submit(&tiny_plan()) {
        Err(ServeError::Rejected { code, detail, .. }) => {
            assert_eq!(code, RejectCode::Saturated);
            assert!(detail.contains("connection"), "detail was: {detail}");
        }
        other => panic!("expected per-connection rejection, got {other:?}"),
    }
    client.cancel(job.job).expect("cancel");
    assert!(matches!(
        client.collect(job, |_, _| {}),
        Err(ServeError::Cancelled { .. })
    ));
    // With the stream finished the slot is back.
    client
        .submit_and_collect(&tiny_plan())
        .expect("after slot freed");
    handle.shutdown();
}

#[test]
fn deadline_exceeded_mid_grid_leaves_streamed_cells_valid() {
    let (handle, addr) = start();
    let mut client = Client::connect(&addr, Duration::from_secs(5)).expect("connect");
    // 3600 scalar tree-machine runs — about half a second of optimized
    // work, seconds unoptimized — against a 60 ms budget: the deadline
    // always lands mid-grid.
    let plan = slow_plan();
    let batch = plan.run_with_jobs(1);

    let job = client
        .submit_with_deadline(&plan, Some(60))
        .expect("submit with deadline");
    let mut streamed_cells = Vec::new();
    match client.collect(job, |index, cell| {
        streamed_cells.push((index, cell.clone()))
    }) {
        Err(ServeError::Server { code, detail }) => {
            assert_eq!(code, ErrorCode::DeadlineExceeded, "detail: {detail}");
        }
        Ok(_) => panic!("a 60 ms deadline cannot cover the slow grid"),
        other => panic!("expected deadline-exceeded, got {other:?}"),
    }
    assert!(
        streamed_cells.len() < plan.cell_count(),
        "every cell streamed despite the deadline"
    );
    // The partial prefix is the batch prefix, bit for bit.
    for (index, cell) in &streamed_cells {
        assert_eq!(cell, &batch.cells[*index], "cell {index} diverged");
    }

    // The connection survives the error and takes new work.
    client.ping().expect("ping after deadline");
    let streamed = client.submit_and_collect(&tiny_plan()).expect("next job");
    assert_eq!(streamed.report, tiny_plan().run_with_jobs(1));
    handle.shutdown();
}

#[test]
fn drain_finishes_running_jobs_and_rejects_new_submits() {
    let (handle, addr) = start();
    let mut running = Client::connect(&addr, Duration::from_secs(5)).expect("connect running");
    let mut admin = Client::connect(&addr, Duration::from_secs(5)).expect("connect admin");

    // Slow enough that the drain demonstrably lands mid-job.
    let plan = slow_plan();
    let job = running.submit(&plan).expect("submit before drain");

    admin.send(&Request::Drain).expect("send drain");
    match admin.next_frame().expect("drain ack") {
        Frame::Draining { active_jobs } => assert_eq!(active_jobs, 1),
        other => panic!("expected draining ack, got {other:?}"),
    }
    // Submit-after-drain: structured rejection, not a hang or a kill.
    match admin.submit(&tiny_plan()) {
        Err(ServeError::Rejected {
            code,
            retry_after_ms,
            ..
        }) => {
            assert_eq!(code, RejectCode::Draining);
            assert_eq!(retry_after_ms, None, "draining is not a retry-later");
        }
        other => panic!("expected draining rejection, got {other:?}"),
    }

    // The running job still completes, bit-exact.
    let streamed = running
        .collect(job, |_, _| {})
        .expect("drain lets it finish");
    assert_eq!(streamed.report, plan.run_with_jobs(1));

    // With the last job done the daemon stops: bye on the stream, then
    // no new connections.
    match running.next_frame() {
        Ok(Frame::Bye) | Err(ServeError::Io(_)) => {}
        other => panic!("expected bye/EOF after drain completes, got {other:?}"),
    }
    std::thread::sleep(Duration::from_millis(100));
    let mut alive = false;
    if let Ok(mut probe) = Client::connect(&addr, Duration::from_millis(200)) {
        alive = probe.ping().is_ok();
    }
    assert!(!alive, "daemon still answering after drain completed");
    handle.shutdown();
}

#[test]
fn drain_on_an_idle_daemon_stops_it_immediately() {
    let (handle, addr) = start();
    let mut client = Client::connect(&addr, Duration::from_secs(5)).expect("connect");
    client.send(&Request::Drain).expect("send drain");
    match client.next_frame().expect("ack") {
        Frame::Draining { active_jobs } => assert_eq!(active_jobs, 0),
        other => panic!("expected draining ack, got {other:?}"),
    }
    match client.next_frame() {
        Ok(Frame::Bye) | Err(ServeError::Io(_)) => {}
        other => panic!("expected bye after idle drain, got {other:?}"),
    }
    handle.shutdown();
}

#[test]
fn truncated_frames_mid_job_kill_one_connection_not_the_daemon() {
    let (handle, addr) = start();
    // A proxy that truncates *every* line mid-bytes and tears the
    // connection down: whatever reaches the daemon is malformed JSON,
    // and whatever comes back dies on the wire.
    let spec = ChaosSpec {
        seed: 3,
        drop_per_mille: 5,
        delay_per_mille: 40,
        split_per_mille: 80,
        stall_per_mille: 15,
        truncate_per_mille: 1_000,
        delay_ms: 10,
        stall_ms: 50,
    };
    let proxy =
        ChaosProxy::spawn(addr.parse().expect("daemon addr"), spec).expect("spawn chaos proxy");

    let mut doomed = Client::connect(&proxy.addr().to_string(), Duration::from_secs(5))
        .expect("connect via proxy");
    match doomed.submit(&tiny_plan()) {
        Err(ServeError::Io(_) | ServeError::Protocol(_)) => {}
        other => panic!("a fully-truncating wire cannot deliver an accept: {other:?}"),
    }

    // The daemon shrugged it off: a direct client still gets bit-exact
    // results.
    let mut direct = Client::connect(&addr, Duration::from_secs(5)).expect("direct connect");
    let streamed = direct.submit_and_collect(&tiny_plan()).expect("direct job");
    assert_eq!(
        streamed.fingerprint,
        tiny_plan().run_with_jobs(1).fingerprint()
    );
    handle.shutdown();
}

/// Shrinks a socket's receive buffer to the kernel minimum, so a
/// non-reading peer jams the sender after a few KB instead of the
/// multi-megabyte loopback default — the slow-loris test's way of
/// making the stall happen fast.
#[cfg(unix)]
fn clamp_recv_buffer(stream: &TcpStream) {
    use std::os::fd::AsRawFd;
    extern "C" {
        fn setsockopt(
            fd: i32,
            level: i32,
            name: i32,
            value: *const core::ffi::c_void,
            len: u32,
        ) -> i32;
    }
    const SOL_SOCKET: i32 = 1;
    const SO_RCVBUF: i32 = 8;
    let bytes: i32 = 4096;
    let rc = unsafe {
        setsockopt(
            stream.as_raw_fd(),
            SOL_SOCKET,
            SO_RCVBUF,
            (&raw const bytes).cast(),
            std::mem::size_of::<i32>() as u32,
        )
    };
    assert_eq!(rc, 0, "setsockopt(SO_RCVBUF)");
}

#[cfg(unix)]
#[test]
fn slow_loris_reader_is_shed_without_stalling_the_daemon() {
    // A client that submits a many-celled grid and never reads a byte:
    // once the socket fills and stays full, the daemon must shed that
    // connection — not block on it forever, not kill other jobs.
    let (handle, addr) = start_with(ServeOptions {
        workers: 1,
        // The product knob under test: a bounded kernel send buffer, so
        // a stalled reader jams the write after tens of KB instead of
        // the multi-megabyte auto-tuned loopback default.
        send_buffer: 16 * 1024,
        ..ServeOptions::default()
    });
    // Cell frames carry per-run samples, so 500 seeds make each frame
    // ~12 KB — a handful of cells overwhelm the capped send buffer plus
    // the clamped receive buffer below, so the daemon's write genuinely
    // blocks until its send timeout sheds the connection.
    let mut specs = Vec::new();
    for _ in 0..8 {
        specs.push(SweepConfig::traced(AlgorithmSpec::OptimalKing, 7, 2));
    }
    let many_cells = SweepPlan::new(
        specs,
        vec![
            AdversaryFamily::no_faults(),
            AdversaryFamily::random_liar(FaultSelection::without_source()),
            AdversaryFamily::crash(FaultSelection::without_source().limit(1), 2),
            AdversaryFamily::silent(FaultSelection::without_source().limit(1)),
        ],
        500,
    );
    let mut loris = Raw::connect(&addr);
    clamp_recv_buffer(&loris.writer);
    loris.send_line(
        &serde::ToJson::to_json(&Request::Submit {
            plan: many_cells,
            deadline_ms: None,
        })
        .to_string(),
    );
    // Never read. Meanwhile, an ordinary client must still get full
    // service on the same single worker.
    let mut client = Client::connect(&addr, Duration::from_secs(5)).expect("connect");
    let streamed = client.submit_and_collect(&quick_plan()).expect("other job");
    assert_eq!(streamed.report, quick_plan().run_with_jobs(1));

    // Probe for the shed by *writing*: pings keep succeeding while the
    // connection lives, and start failing once the daemon shuts the
    // socket down. Crucially we never read — reading would drain the
    // buffers and keep the connection healthy.
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    loop {
        std::thread::sleep(Duration::from_millis(200));
        let alive = writeln!(loris.writer, "{{\"op\":\"ping\"}}")
            .and_then(|()| loris.writer.flush())
            .is_ok();
        if !alive {
            break; // shed: the socket is dead
        }
        assert!(
            std::time::Instant::now() < deadline,
            "slow-loris connection was never shed"
        );
    }

    // Draining what the kernel already buffered ends in EOF (or a
    // reset), never in a complete stream.
    loris
        .writer
        .set_read_timeout(Some(Duration::from_secs(2)))
        .expect("set timeout");
    let mut line = String::new();
    let mut saw_summary = false;
    loop {
        line.clear();
        match loris.reader.read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => saw_summary |= line.contains("\"frame\":\"summary\""),
        }
    }
    assert!(
        !saw_summary,
        "the stalled connection received the whole stream — nothing was shed"
    );
    handle.shutdown();
}

/// This process's resident set, from `/proc/self/status`, in kB.
#[cfg(target_os = "linux")]
fn vm_rss_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmRSS:"))
        .expect("VmRSS line");
    line.split_whitespace().nth(1).unwrap().parse().unwrap()
}

/// What bounds the memory a stalled reader can pin, now that no write
/// queue does: the kernel send buffer (`send_buffer`, 16 kB here) plus
/// what the workers finish for that connection within one grace period —
/// parked in its event queue while its event thread sits in the blocked
/// write — which is at most the connection's admitted jobs, and those
/// admission caps (`max_queued_runs`: here the stalled 200 000-run grid
/// and its neighbour, ~40 bytes of samples per run in memory and half
/// that again as frame text — about 12 MB if every run finished). A
/// write that is accepted in part gets one more grace period for the
/// rest, so the shed comes within two of them; it cancels the jobs and
/// frees all of it.
#[cfg(target_os = "linux")]
#[test]
fn a_stalled_reader_costs_bounded_memory_and_its_budget_comes_back() {
    const SHED_GRACE_MS: u64 = 500; // server.rs's constant, private there
    const RSS_BOUND_KB: u64 = 32 * 1024;

    // 400 fixed-length cells of 500 runs: ~12 kB a frame, 5 MB in all.
    let stalled_plan = SweepPlan::new(
        vec![SweepConfig::traced(AlgorithmSpec::OptimalKing, 7, 2); 100],
        vec![
            AdversaryFamily::no_faults(),
            AdversaryFamily::random_liar(FaultSelection::without_source()),
            AdversaryFamily::crash(FaultSelection::without_source().limit(1), 2),
            AdversaryFamily::silent(FaultSelection::without_source().limit(1)),
        ],
        500,
    )
    .fixed_length();
    // The neighbour: 24 cells, each longer than a worker's turn in any
    // build, so by the time the one worker — a turn here, a turn there —
    // has finished it, the stalled grid has had at least 24 turns of
    // ≥ 12 kB each, several times what the capped send buffer and the
    // clamped receive buffer hold between them.
    let neighbour_plan = SweepPlan::new(
        vec![SweepConfig::traced(AlgorithmSpec::PhaseKing, 16, 3); 6],
        vec![
            AdversaryFamily::random_liar(FaultSelection::without_source()),
            AdversaryFamily::no_faults(),
            AdversaryFamily::crash(FaultSelection::without_source().limit(1), 2),
            AdversaryFamily::silent(FaultSelection::without_source().limit(1)),
        ],
        500,
    );
    let (handle, addr) = start_with(ServeOptions {
        workers: 1,
        send_buffer: 16 * 1024,
        max_jobs: 2,
        max_queued_runs: stalled_plan.total_runs() + neighbour_plan.total_runs(),
        ..ServeOptions::default()
    });
    let submit_line = |plan: &SweepPlan| {
        serde::ToJson::to_json(&Request::Submit {
            plan: plan.clone(),
            deadline_ms: None,
        })
        .to_string()
    };

    let rss_before = vm_rss_kb();
    let mut loris = Raw::connect(&addr);
    clamp_recv_buffer(&loris.writer);
    loris.send_line(&submit_line(&stalled_plan));
    // Never read. The neighbour's concurrent job is bit-exact regardless.
    let mut neighbour = Client::connect(&addr, Duration::from_secs(5)).expect("connect");
    let streamed = neighbour
        .submit_and_collect(&neighbour_plan)
        .expect("neighbour job");
    assert_eq!(streamed.report, neighbour_plan.run());
    let jammed = std::time::Instant::now();

    // The daemon's write to the loris is blocked by now (see the
    // neighbour's sizing), so the shed is at most one grace period away.
    // Probe for it by writing — reading would un-jam the socket.
    let limit = Duration::from_millis(SHED_GRACE_MS + 1_000);
    loop {
        std::thread::sleep(Duration::from_millis(25));
        let alive = writeln!(loris.writer, "{{\"op\":\"ping\"}}")
            .and_then(|()| loris.writer.flush())
            .is_ok();
        if !alive {
            break;
        }
        assert!(
            jammed.elapsed() < limit,
            "stalled connection still alive {limit:?} after its socket jammed"
        );
    }
    let grew_kb = vm_rss_kb().saturating_sub(rss_before);
    assert!(
        grew_kb < RSS_BOUND_KB,
        "the stalled reader cost {grew_kb} kB of resident memory (bound {RSS_BOUND_KB} kB)"
    );

    // The shed cancelled the stalled job and released its budget: a fresh
    // connection is admitted `max_jobs` submits that together need every
    // run of `max_queued_runs` — possible only from zero and zero. (The
    // worker leaves the cancelled job at its next chunk boundary, hence
    // the bounded retry.)
    let mut fresh = Client::connect(&addr, Duration::from_secs(5)).expect("fresh connection");
    let policy = RetryPolicy {
        attempts: 10,
        ..RetryPolicy::deterministic(11)
    };
    let big = fresh
        .submit_with_retry(&stalled_plan, None, &policy)
        .expect("the stalled job's runs are back in the budget");
    let small = fresh
        .submit(&neighbour_plan)
        .expect("and so is its job slot");
    // Walking away cancels both.
    drop((fresh, big, small));
    handle.shutdown();
}

#[test]
fn disconnect_during_stream_keeps_the_daemon_serving() {
    let (handle, addr) = start();
    let mut vanishing = Client::connect(&addr, Duration::from_secs(5)).expect("connect");
    vanishing.submit(&slow_plan()).expect("submit");
    drop(vanishing); // walk away mid-stream

    let mut client = Client::connect(&addr, Duration::from_secs(5)).expect("reconnect");
    client.ping().expect("daemon alive after abandonment");
    let streamed = client.submit_and_collect(&tiny_plan()).expect("next job");
    assert_eq!(
        streamed.fingerprint,
        tiny_plan().run_with_jobs(1).fingerprint()
    );
    handle.shutdown();
}

#[test]
fn dynamic_king_grids_round_trip_through_the_daemon() {
    // The dynamic-spec wire encoding end to end: a dynamic-king grid
    // submitted over sg-serve/1 must stream back cells whose fingerprint
    // is bit-identical to the batch path — the same determinism contract
    // every static spec honours, now covering runtime gear shifts.
    let plan = SweepPlan::new(
        vec![SweepConfig::traced(
            AlgorithmSpec::DynamicKing { b: 3 },
            10,
            3,
        )],
        vec![
            AdversaryFamily::crash(FaultSelection::without_source().limit(1), 2),
            AdversaryFamily::random_liar(FaultSelection::without_source()),
            AdversaryFamily::no_faults(),
        ],
        8,
    );
    let batch = plan.run_with_jobs(2);

    let (handle, addr) = start();
    let mut client = Client::connect(&addr, Duration::from_secs(5)).expect("connect");
    let streamed = client.submit_and_collect(&plan).expect("dynamic-king job");
    assert_eq!(
        streamed.fingerprint,
        batch.fingerprint(),
        "daemon-path dynamic-king sweep diverged from the batch path"
    );
    assert_eq!(streamed.report, batch);
    assert!(streamed
        .report
        .cells
        .iter()
        .all(|c| c.spec_name == "dynamic-king(b=3)"));
    // The expedite shows up on the wire: the quiet families' cells
    // stream rounds well below the worst-case schedule.
    let schedule = AlgorithmSpec::DynamicKing { b: 3 }.rounds(10, 3) as f64;
    assert!(streamed.report.cells[0].summaries[4].mean < schedule);
    handle.shutdown();
}

#[test]
fn frames_leave_the_daemon_in_the_tree_writers_bytes() {
    // The daemon writes cell frames without building a tree; what
    // reaches the socket must still be, byte for byte, the tree
    // writer's line — and the reader's strict scan must read its own
    // writer back to the frame the tree decodes.
    use serde::ToJson;

    let (handle, addr) = start();
    let mut raw = Raw::connect(&addr);
    raw.send_line(
        &Request::Submit {
            plan: quick_plan(),
            deadline_ms: None,
        }
        .to_json()
        .to_string(),
    );
    let mut cells = 0;
    loop {
        let mut line = String::new();
        raw.reader.read_line(&mut line).expect("read");
        let line = line.strip_suffix('\n').expect("one frame per line");
        let frame = Frame::from_json(&Json::parse(line).expect("frame json")).expect("frame");
        assert_eq!(frame.to_json().to_string(), line);
        let mut rewritten = String::new();
        frame.write_text(&mut rewritten);
        assert_eq!(rewritten, line);
        match frame {
            Frame::Cell { .. } => {
                cells += 1;
                assert_eq!(Frame::cell_from_text(line), Some(frame));
            }
            Frame::Summary { .. } => break,
            other => assert_eq!(Frame::cell_from_text(line), None, "{other:?}"),
        }
    }
    assert_eq!(cells, quick_plan().cell_count());
    handle.shutdown();
}

#[test]
fn hand_written_cell_frames_still_collect() {
    // The strict scan is an accelerator selected by the input: a peer
    // that spells its cell frames any other valid way — spaces,
    // reordered keys, the legacy 4-element samples and 4 summaries — is
    // read through the tree codec, within the same job as canonical
    // frames.
    use sg_analysis::{CellReport, Fingerprint};
    use std::net::TcpListener;

    let canonical = tiny_plan().run_with_jobs(1).cells.swap_remove(0);
    let legacy_cell = "{ \"summaries\": [\
        {\"samples\":2,\"min\":1,\"max\":1,\"mean\":1.0,\"stddev\":0.0},\
        {\"samples\":2,\"min\":0,\"max\":0,\"mean\":0,\"stddev\":0.0},\
        {\"samples\":2,\"min\":60,\"max\":60,\"mean\":6e1,\"stddev\":0.0},\
        {\"samples\":2,\"min\":30,\"max\":30,\"mean\":30.0,\"stddev\":0.0}],\
        \"samples\": [[1,0,60,30], [1, 0, 60, 30]], \"first_seed\": 0,\
        \"adversary\": \"no\\u002dfaults\", \"t\": 2, \"n\": 07, \"spec_name\": \"optimal-king\" }";
    let legacy = CellReport::from_json(&Json::parse(legacy_cell).unwrap()).unwrap();
    assert_eq!(CellReport::from_text(legacy_cell), None);
    let mut fingerprint = Fingerprint::new();
    fingerprint.mix_cell(&legacy);
    fingerprint.mix_cell(&canonical);

    let mut second = String::new();
    Frame::Cell {
        job: 9,
        index: 1,
        cell: Box::new(canonical.clone()),
    }
    .write_text(&mut second);
    let script = [
        "{\"frame\":\"accepted\",\"job\":9,\"cells\":2,\"total_runs\":5}".to_string(),
        format!("{{ \"cell\": {legacy_cell}, \"index\": 0, \"job\": 9, \"frame\": \"cell\" }}"),
        second,
        format!(
            "{{\"frame\":\"summary\",\"job\":9,\"cells\":2,\"total_runs\":5,\
             \"report_fingerprint\":\"{}\",\"wall_ms\":0.5}}",
            fingerprint.hex()
        ),
    ];

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().unwrap().to_string();
    let peer = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        let mut submit = String::new();
        BufReader::new(stream.try_clone().unwrap())
            .read_line(&mut submit)
            .expect("submit");
        for line in script {
            writeln!(stream, "{line}").expect("write");
        }
    });
    let mut client = Client::connect(&addr, Duration::from_secs(5)).expect("connect");
    let streamed = client.submit_and_collect(&tiny_plan()).expect("collect");
    assert_eq!(streamed.report.cells, vec![legacy, canonical]);
    assert_eq!(streamed.fingerprint, fingerprint.value());
    peer.join().expect("scripted peer");
}
