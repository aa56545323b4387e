//! Regenerates every table and figure of the paper.
//!
//! ```text
//! repro                    # all experiments, full scale, text tables
//! repro --quick            # all experiments, small parameters
//! repro --markdown         # emit GitHub-flavoured markdown (EXPERIMENTS.md)
//! repro --csv              # emit CSV (one block per experiment)
//! repro --jobs 8           # size the sweep engine's worker pool
//! repro --exp sweep --no-early-stop
//!                          # the benchmark sweep as a fixed-length plan
//!                          # (full static schedules); must reproduce
//!                          # BENCH_sweep_fixed.json's fingerprint
//! repro --exp t3           # one experiment: p1|t1|t2|t3|t4|tradeoff|dominance|
//!                          #   detect|stability|early-stopping|king|compose|
//!                          #   rounds-vs-f|plans|sweep
//! repro --exp rounds-vs-f  # the static-vs-dynamic gear table across the
//!                          # actual-fault budget; writes the committed
//!                          # BENCH_rounds_vs_f.md artifact
//! repro --exp sweep        # the benchmark sweep: phase-king n=16 t=5
//!                          # Monte-Carlo, timed, machine-readable trajectory
//!                          # in BENCH_sweep.json (schema sg-bench-sweep/6,
//!                          # including the cold→warm journal delta)
//! repro --exp sweep --via-server
//!                          # same grid, but submitted to an in-process
//!                          # sg-serve daemon over localhost TCP — the
//!                          # fingerprint must match the batch path
//! repro --exp sweep --expect-fingerprint <hex>
//!                          # exit non-zero unless the sweep reproduces
//!                          # the given report fingerprint
//! repro --exp serve-load [--chaos]
//!                          # the serving-path load benchmark: concurrent
//!                          # connections (half through a fault-injecting
//!                          # proxy with --chaos) hammering one daemon;
//!                          # writes BENCH_serve.json (sg-serve-load/1)
//!                          # and exits non-zero on any fingerprint
//!                          # mismatch
//! ```
//!
//! Unrecognised arguments exit 2 with the usage line.

use std::env;
use std::time::Instant;

use sg_adversary::FaultSelection;
use sg_analysis::experiments::{
    experiment_compositions, experiment_detect, experiment_dominance, experiment_early_stopping,
    experiment_king, experiment_p1, experiment_rounds_vs_f, experiment_stability, experiment_t1,
    experiment_t2, experiment_t3, experiment_t4, experiment_tradeoff, plan_figures, Scale,
};
use sg_analysis::{AdversaryFamily, SweepConfig, SweepPlan, SweepReport, Table};
use sg_core::AlgorithmSpec;

/// Counting global allocator behind `--features count-allocs`: the
/// `allocs_per_run` field of BENCH_sweep.json is the measured per-run
/// allocation count of a steady-state sequential sweep pass, `null`
/// without the feature.
#[cfg(feature = "count-allocs")]
mod alloc_count {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    static ALLOCS: AtomicU64 = AtomicU64::new(0);

    /// The system allocator with an allocation counter bolted on
    /// (reallocations count as one allocation; frees are not counted).
    pub struct CountingAllocator;

    // SAFETY: delegates every operation verbatim to `System`; the only
    // addition is a relaxed counter increment on the allocating paths.
    unsafe impl GlobalAlloc for CountingAllocator {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            System.alloc(layout)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            System.realloc(ptr, layout, new_size)
        }
    }

    #[global_allocator]
    static COUNTING: CountingAllocator = CountingAllocator;

    /// Allocations performed so far by this process.
    pub fn allocations() -> u64 {
        ALLOCS.load(Ordering::Relaxed)
    }
}

/// Peak resident-set proxy in kB: `VmHWM` from `/proc/self/status` where
/// available (Linux), otherwise `getrusage(RUSAGE_SELF).ru_maxrss` via
/// the libc shim below, otherwise 0.
fn peak_rss_kb() -> u64 {
    let vm_hwm = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                line.strip_prefix("VmHWM:")?
                    .trim()
                    .trim_end_matches(" kB")
                    .trim()
                    .parse()
                    .ok()
            })
        })
        .unwrap_or(0);
    if vm_hwm > 0 {
        vm_hwm
    } else {
        rusage_max_rss_kb()
    }
}

/// `getrusage`-based max-RSS fallback for Unix systems without
/// `/proc/self/status` (macOS, BSDs). Returns 0 off Unix or on error.
#[cfg(unix)]
fn rusage_max_rss_kb() -> u64 {
    // struct rusage: two timevals (4 longs) then ru_maxrss and 13 more
    // longs; glibc pads to 18 longs total. A generous zeroed buffer
    // keeps this safe across libc layouts that append fields.
    const RUSAGE_LONGS: usize = 36;
    const RU_MAXRSS_INDEX: usize = 4;
    const RUSAGE_SELF: i32 = 0;
    extern "C" {
        fn getrusage(who: i32, usage: *mut i64) -> i32;
    }
    let mut usage = [0i64; RUSAGE_LONGS];
    // SAFETY: RUSAGE_SELF with a buffer at least as large as any libc's
    // struct rusage; getrusage only writes within the struct.
    let rc = unsafe { getrusage(RUSAGE_SELF, usage.as_mut_ptr()) };
    if rc != 0 {
        return 0;
    }
    let max_rss = usage[RU_MAXRSS_INDEX].max(0) as u64;
    // Linux reports kilobytes; macOS reports bytes.
    if cfg!(target_os = "macos") {
        max_rss / 1024
    } else {
        max_rss
    }
}

#[cfg(not(unix))]
fn rusage_max_rss_kb() -> u64 {
    0
}

/// How `--exp sweep` executes the benchmark grid.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Transport {
    /// `SweepPlan::run` in this process (the default).
    Batch,
    /// Submitted to an in-process `sg-serve` daemon over localhost TCP
    /// and reassembled from the streamed cell frames (`--via-server`) —
    /// exercising the full service path: wire encoding, scheduling,
    /// streaming, fingerprinting.
    Server,
}

impl Transport {
    fn as_str(self) -> &'static str {
        match self {
            Transport::Batch => "batch",
            Transport::Server => "server",
        }
    }
}

/// Runs `plan` through an ephemeral in-process daemon and returns the
/// reassembled report (bit-identical to the batch path by the serving
/// layer's determinism contract).
fn run_via_server(plan: &SweepPlan, jobs: usize) -> SweepReport {
    let handle = sg_serve::serve(
        &sg_serve::Bind::Tcp("127.0.0.1:0".to_string()),
        sg_serve::ServeOptions {
            workers: jobs,
            ..Default::default()
        },
    )
    .expect("bind in-process sg-serve daemon");
    let addr = handle.tcp_addr().expect("tcp addr").to_string();
    let mut client = sg_serve::Client::connect(&addr, std::time::Duration::from_secs(10))
        .expect("connect to in-process daemon");
    let streamed = client
        .submit_and_collect(plan)
        .unwrap_or_else(|e| panic!("server-path sweep failed: {e}"));
    handle.shutdown();
    streamed.report
}

/// Per-run allocation count of a steady-state sequential pass over
/// `plan` (the timed pass above already warmed every pool), as a JSON
/// value: a number with `--features count-allocs`, `null` without.
#[cfg(feature = "count-allocs")]
fn allocs_per_run_json(plan: &SweepPlan) -> String {
    let before = alloc_count::allocations();
    let report = plan.run_with_jobs(1);
    let delta = alloc_count::allocations() - before;
    format!("{:.1}", delta as f64 / report.total_runs as f64)
}

#[cfg(not(feature = "count-allocs"))]
fn allocs_per_run_json(_plan: &SweepPlan) -> String {
    "null".to_string()
}

/// The serving-path load benchmark behind `--exp serve-load` and
/// `BENCH_serve.json`: concurrent connections driving the mixed-plan
/// hammer ([`sg_serve::run_load`]) against one in-process daemon,
/// optionally with every other connection routed through the
/// fault-injecting chaos proxy (`--chaos`). Every job that completes
/// must reproduce its plan's batch-path fingerprint; any mismatch is a
/// non-zero exit, which is the CI gate.
fn experiment_serve_load(scale: Scale, jobs: usize, chaos: bool) {
    let seeds_per_cell: u64 = match scale {
        Scale::Quick => 24,
        Scale::Full => 96,
    };
    let report = sg_serve::run_load(&sg_serve::LoadOptions {
        connections: 6,
        jobs_per_connection: 4,
        seeds_per_cell,
        workers: if jobs == 0 { 2 } else { jobs },
        chaos: if chaos {
            Some(sg_serve::ChaosSpec::gentle(11))
        } else {
            None
        },
        ..sg_serve::LoadOptions::default()
    });

    println!(
        "BENCH-SERVE — {} of {} jobs completed across {} connection(s){}: \
         {:.0} runs/sec, frame latency p50 {:.3} ms / p99 {:.3} ms \
         (rejected {}, deadline {}, faulted {})",
        report.jobs_completed,
        report.jobs_submitted,
        report.connections,
        if chaos { " with chaos proxy" } else { "" },
        report.runs_per_sec,
        report.frame_latency_p50_ms,
        report.frame_latency_p99_ms,
        report.jobs_rejected,
        report.jobs_deadline,
        report.jobs_faulted,
    );
    let json = report.to_json_string();
    print!("{json}");
    match std::fs::write("BENCH_serve.json", &json) {
        Ok(()) => println!("wrote BENCH_serve.json"),
        Err(e) => eprintln!("cannot write BENCH_serve.json: {e}"),
    }
    if report.fingerprint_mismatches > 0 {
        eprintln!(
            "FINGERPRINT MISMATCH: {} completed job(s) diverged from the batch path",
            report.fingerprint_mismatches
        );
        std::process::exit(1);
    }
    if report.jobs_completed == 0 {
        eprintln!("no job completed — the load harness proved nothing");
        std::process::exit(1);
    }
}

/// The benchmark sweep behind `--exp sweep` and `BENCH_sweep.json`: the
/// phase-king n=16, t=5 Monte-Carlo grid under seeded random liars,
/// executed in-process or through the service path (`--via-server`).
fn experiment_sweep(
    scale: Scale,
    jobs: usize,
    transport: Transport,
    early_stopping: bool,
    expect: Option<u64>,
) {
    let (n, t) = (16, 5);
    let seeds: u64 = match scale {
        Scale::Quick => 100,
        Scale::Full => 1_000,
    };
    let mut plan = SweepPlan::new(
        vec![SweepConfig::traced(AlgorithmSpec::OptimalKing, n, t)],
        vec![AdversaryFamily::random_liar(
            FaultSelection::without_source(),
        )],
        seeds,
    );
    plan.early_stopping = early_stopping;
    let started = Instant::now();
    let report = match transport {
        Transport::Batch => plan.run_with_jobs(jobs),
        Transport::Server => run_via_server(&plan, jobs),
    };
    let wall = started.elapsed();
    let runs_per_sec = report.total_runs as f64 / wall.as_secs_f64().max(1e-9);
    let fingerprint = report.fingerprint();

    print!("{}", report.render());
    println!(
        "BENCH-SWEEP — optimal-king n={n} t={t} via {}: {} runs in {:.1} ms on {jobs} worker(s) — {:.0} runs/sec",
        transport.as_str(),
        report.total_runs,
        wall.as_secs_f64() * 1e3,
        runs_per_sec,
    );

    // The cold→warm journal delta: a scratch journal is populated by one
    // write-through pass (which must reproduce the cold fingerprint),
    // then the identical grid is answered entirely from the store. The
    // warm rate is the headline number of the incremental-sweep story,
    // so it is committed alongside the cold rate.
    let scratch = env::temp_dir().join(format!("sg-bench-journal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    let (cache_hit_cells, warm_runs_per_sec) = {
        let mut journal = sg_journal::Journal::open(&scratch).expect("scratch journal");
        let populate = plan.run_with_journal(&mut journal, jobs);
        assert_eq!(
            populate.report.fingerprint(),
            fingerprint,
            "journal populate pass diverged from the cold report"
        );
        let warm_started = Instant::now();
        let warm = plan.run_with_journal(&mut journal, jobs);
        let warm_wall = warm_started.elapsed();
        assert_eq!(
            warm.report.fingerprint(),
            fingerprint,
            "warm journal pass diverged from the cold report"
        );
        assert_eq!(
            warm.hits,
            plan.cell_count(),
            "a repeat of the same grid must hit every cell"
        );
        let rate = report.total_runs as f64 / warm_wall.as_secs_f64().max(1e-9);
        (warm.hits, rate)
    };
    let _ = std::fs::remove_dir_all(&scratch);
    println!(
        "BENCH-SWEEP — journal warm pass: {cache_hit_cells} of {} cell(s) from cache — {:.0} runs/sec ({:.1}x cold)",
        plan.cell_count(),
        warm_runs_per_sec,
        warm_runs_per_sec / runs_per_sec.max(1e-9),
    );

    let allocs_per_run = allocs_per_run_json(&plan);
    // The expedite trajectory: the grid is a single cell, whose report
    // already carries the rounds summary and early-stop rate.
    let cell = &report.cells[0];
    let mean_rounds = cell.summaries[4].mean;
    let early_stop_rate = cell.early_stop_rate;
    println!(
        "BENCH-SWEEP — early_stopping {} — mean rounds {:.2} of {} scheduled, early-stop rate {:.0}%",
        if early_stopping { "on" } else { "off" },
        mean_rounds,
        AlgorithmSpec::OptimalKing.rounds(n, t),
        early_stop_rate * 100.0,
    );
    let json = format!(
        "{{\n  \"schema\": \"sg-bench-sweep/6\",\n  \"experiment\": \"phase-king-montecarlo\",\n  \
         \"spec\": \"optimal-king\",\n  \"n\": {n},\n  \"t\": {t},\n  \
         \"adversary\": \"random-liar\",\n  \"runs\": {},\n  \"jobs\": {jobs},\n  \
         \"instance_pool\": true,\n  \"early_stopping\": {early_stopping},\n  \
         \"batch_runs\": true,\n  \
         \"transport\": \"{}\",\n  \
         \"wall_ms\": {:.3},\n  \"runs_per_sec\": {:.3},\n  \"peak_rss_kb\": {},\n  \
         \"allocs_per_run\": {allocs_per_run},\n  \
         \"journal\": \"on\",\n  \"cache_hit_cells\": {cache_hit_cells},\n  \
         \"warm_runs_per_sec\": {warm_runs_per_sec:.3},\n  \
         \"mean_rounds\": {mean_rounds:.3},\n  \"early_stop_rate\": {early_stop_rate:.3},\n  \
         \"report_fingerprint\": \"{fingerprint:016x}\"\n}}\n",
        report.total_runs,
        transport.as_str(),
        wall.as_secs_f64() * 1e3,
        runs_per_sec,
        peak_rss_kb(),
    );
    match std::fs::write("BENCH_sweep.json", &json) {
        Ok(()) => println!("wrote BENCH_sweep.json"),
        Err(e) => eprintln!("cannot write BENCH_sweep.json: {e}"),
    }

    if let Some(expected) = expect {
        match sg_analysis::Fingerprint::cross_check(expected, fingerprint) {
            Ok(line) => println!("{line}"),
            Err(report) => {
                eprintln!("{report}");
                std::process::exit(1);
            }
        }
    }
}

/// The argument summary printed with every usage error.
const USAGE: &str =
    "usage: repro [--quick] [--markdown | --csv] [--jobs <N>] [--exp <id>]\n       \
                     [--no-early-stop] [--via-server] [--expect-fingerprint <hex>] [--chaos]";

fn usage_error(detail: &str) -> ! {
    eprintln!("{detail}\n{USAGE}");
    std::process::exit(2);
}

fn main() {
    let (mut quick, mut markdown, mut csv, mut chaos) = (false, false, false, false);
    let mut early_stopping = true;
    let mut transport = Transport::Batch;
    let mut jobs = 0usize;
    let mut expect: Option<u64> = None;
    let mut which: Option<String> = None;
    let mut args = env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| usage_error(&format!("{arg} expects a value")))
        };
        match arg.as_str() {
            "--quick" => quick = true,
            "--markdown" => markdown = true,
            "--csv" => csv = true,
            "--chaos" => chaos = true,
            "--no-early-stop" => early_stopping = false,
            "--via-server" => transport = Transport::Server,
            "--jobs" => {
                let v = value();
                jobs = v.parse().unwrap_or_else(|_| {
                    usage_error(&format!("--jobs expects a number, got '{v}'"))
                });
            }
            "--expect-fingerprint" => {
                let v = value();
                expect = Some(sg_analysis::Fingerprint::parse_hex(&v).unwrap_or_else(|| {
                    usage_error(&format!(
                        "--expect-fingerprint expects a 16-digit hex fingerprint, got '{v}'"
                    ))
                }));
            }
            "--exp" => which = Some(value()),
            other => usage_error(&format!("unrecognised argument '{other}'")),
        }
    }
    if !early_stopping && which.as_deref() != Some("sweep") {
        usage_error("--no-early-stop applies to --exp sweep");
    }
    let scale = if quick { Scale::Quick } else { Scale::Full };
    sg_analysis::set_jobs(jobs);
    let effective_jobs = sg_analysis::sweep::jobs();

    let print = |table: Table| {
        if csv {
            println!("# {}", table.title);
            println!("{}", table.to_csv());
        } else if markdown {
            println!("{}", table.to_markdown());
        } else {
            println!("{table}");
        }
    };

    let run_one = |id: &str| match id {
        "p1" => print(experiment_p1(scale)),
        "t2" => print(experiment_t2(scale)),
        "t3" => print(experiment_t3(scale)),
        "t4" => print(experiment_t4(scale)),
        "t1" => print(experiment_t1(scale)),
        "tradeoff" => print(experiment_tradeoff(scale)),
        "dominance" => print(experiment_dominance(scale)),
        "detect" => print(experiment_detect(scale)),
        "stability" => print(experiment_stability(scale)),
        "early-stopping" => print(experiment_early_stopping(scale)),
        "king" => print(experiment_king(scale)),
        "compose" => print(experiment_compositions(scale)),
        "rounds-vs-f" => {
            // The committed rounds-vs-f artifact: static vs dynamic gear
            // plans across the actual-fault budget, CI-uploaded alongside
            // the sweep trajectory files.
            let table = experiment_rounds_vs_f(scale);
            match std::fs::write("BENCH_rounds_vs_f.md", table.to_markdown()) {
                Ok(()) => println!("wrote BENCH_rounds_vs_f.md"),
                Err(e) => eprintln!("cannot write BENCH_rounds_vs_f.md: {e}"),
            }
            print(table);
        }
        "sweep" => experiment_sweep(scale, effective_jobs, transport, early_stopping, expect),
        "serve-load" => experiment_serve_load(scale, jobs, chaos),
        "plans" => {
            if markdown {
                println!("### EXP-F2/F3 — executable round plans (Figures 2 and 3)\n");
                println!("```text\n{}```\n", plan_figures());
            } else {
                println!("{}", plan_figures());
            }
        }
        other => {
            eprintln!("unknown experiment '{other}'");
            eprintln!(
                "known: p1 t1 t2 t3 t4 tradeoff dominance detect stability \
                 early-stopping king compose rounds-vs-f plans sweep serve-load"
            );
            std::process::exit(2);
        }
    };

    match which {
        Some(id) => run_one(&id),
        None => {
            for id in [
                "p1",
                "t2",
                "t3",
                "t4",
                "t1",
                "tradeoff",
                "dominance",
                "detect",
                "stability",
                "early-stopping",
                "king",
                "compose",
                "rounds-vs-f",
                "plans",
            ] {
                run_one(id);
            }
        }
    }
}
