//! The serving-path load harness: N concurrent clients, mixed grids,
//! optional chaos, and a latency/throughput report.
//!
//! [`run_load`] is what `repro --exp serve-load` and `sg hammer` both
//! drive: it starts one in-process daemon under admission control,
//! hammers it from [`LoadOptions::connections`] client threads running
//! a deterministic mix of grid sizes (optionally routing every other
//! connection through a [`ChaosProxy`]), and checks that **every job
//! that completes reproduces its batch `report_fingerprint`
//! bit-exactly** — overload and a hostile network may slow or kill
//! jobs, never corrupt them.
//!
//! The resulting [`LoadReport`] serializes to the committed
//! `BENCH_serve.json` (schema `sg-serve-load/1`), giving the serving
//! path the same ratcheting perf trajectory the sweep path has:
//!
//! ```text
//! {"schema":"sg-serve-load/1","connections":4,…,
//!  "jobs":{"submitted":16,"completed":14,"rejected":1,"deadline":0,"faulted":1},
//!  "fingerprint_mismatches":0,
//!  "runs_completed":33600,"wall_ms":412.7,"runs_per_sec":81414.1,
//!  "frames":42,"frame_latency_ms":{"p50":8.1,"p99":40.2,"max":55.0}}
//! ```
//!
//! Frame latency is measured on the *clean* (non-chaos) connections
//! only — submit→`accepted`, `accepted`→first cell, then successive
//! cell gaps — so the number tracks daemon scheduling under cross-load
//! rather than the proxy's injected sleeps. Chaos connections
//! contribute to the fault and fingerprint columns instead.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

use sg_adversary::FaultSelection;
use sg_analysis::{AdversaryFamily, SweepConfig, SweepPlan};
use sg_core::AlgorithmSpec;

use crate::chaos::{ChaosProxy, ChaosSpec};
use crate::client::{Client, RetryPolicy, ServeError};
use crate::server::{serve, Bind, ServeOptions};
use crate::wire::ErrorCode;

/// What [`run_load`] should do.
#[derive(Clone, Copy, Debug)]
pub struct LoadOptions {
    /// Concurrent client connections.
    pub connections: usize,
    /// Jobs each connection submits, one after another.
    pub jobs_per_connection: usize,
    /// Seeds per cell in every plan of the mix (the scale knob).
    pub seeds_per_cell: u64,
    /// Daemon worker threads.
    pub workers: usize,
    /// Daemon-wide active-job cap (0 = unlimited).
    pub max_jobs: usize,
    /// Daemon-wide queued-runs cap (0 = unlimited).
    pub max_queued_runs: u64,
    /// Per-job `deadline_ms` submitted with every job, if any.
    pub deadline_ms: Option<u64>,
    /// Submit/connect retry attempts per job.
    pub retry_attempts: u32,
    /// Route every other connection through a chaos proxy.
    pub chaos: Option<ChaosSpec>,
    /// Seeds the plans and every retry-jitter stream.
    pub base_seed: u64,
}

impl Default for LoadOptions {
    fn default() -> Self {
        LoadOptions {
            connections: 4,
            jobs_per_connection: 4,
            seeds_per_cell: 48,
            workers: 2,
            max_jobs: 6,
            max_queued_runs: 0,
            deadline_ms: None,
            retry_attempts: 8,
            chaos: None,
            base_seed: 42,
        }
    }
}

/// Aggregated outcome of one [`run_load`] — the `sg-serve-load/1`
/// artifact.
#[derive(Clone, Debug)]
pub struct LoadReport {
    /// Connections driven.
    pub connections: usize,
    /// Jobs per connection.
    pub jobs_per_connection: usize,
    /// Seeds per cell in the plan mix.
    pub seeds_per_cell: u64,
    /// Daemon workers.
    pub workers: usize,
    /// Whether a chaos proxy was in the path.
    pub chaos: bool,
    /// Jobs submitted (retries of the same job count once).
    pub jobs_submitted: u64,
    /// Jobs that streamed to a bit-exact summary.
    pub jobs_completed: u64,
    /// Jobs that gave up after bounded `saturated`/`draining` retries.
    pub jobs_rejected: u64,
    /// Jobs ended by `deadline-exceeded`.
    pub jobs_deadline: u64,
    /// Jobs killed by transport faults (chaos) or server failure.
    pub jobs_faulted: u64,
    /// Completed jobs whose fingerprint diverged from the batch path —
    /// **must be zero**; the CI gate fails otherwise.
    pub fingerprint_mismatches: u64,
    /// Runs inside completed jobs.
    pub runs_completed: u64,
    /// Wall time of the whole client phase, milliseconds.
    pub wall_ms: f64,
    /// `runs_completed / wall`, the serving-path throughput.
    pub runs_per_sec: f64,
    /// Frame-latency samples collected on clean connections.
    pub frames: u64,
    /// Median frame latency, milliseconds.
    pub frame_latency_p50_ms: f64,
    /// 99th-percentile frame latency, milliseconds.
    pub frame_latency_p99_ms: f64,
    /// Worst observed frame latency, milliseconds.
    pub frame_latency_max_ms: f64,
}

impl LoadReport {
    /// Renders the committed `BENCH_serve.json` document.
    pub fn to_json_string(&self) -> String {
        format!(
            concat!(
                "{{\n",
                "  \"schema\": \"sg-serve-load/1\",\n",
                "  \"connections\": {},\n",
                "  \"jobs_per_connection\": {},\n",
                "  \"seeds_per_cell\": {},\n",
                "  \"workers\": {},\n",
                "  \"chaos\": {},\n",
                "  \"jobs\": {{\"submitted\": {}, \"completed\": {}, \"rejected\": {}, ",
                "\"deadline\": {}, \"faulted\": {}}},\n",
                "  \"fingerprint_mismatches\": {},\n",
                "  \"runs_completed\": {},\n",
                "  \"wall_ms\": {:.3},\n",
                "  \"runs_per_sec\": {:.1},\n",
                "  \"frames\": {},\n",
                "  \"frame_latency_ms\": {{\"p50\": {:.3}, \"p99\": {:.3}, \"max\": {:.3}}}\n",
                "}}\n"
            ),
            self.connections,
            self.jobs_per_connection,
            self.seeds_per_cell,
            self.workers,
            self.chaos,
            self.jobs_submitted,
            self.jobs_completed,
            self.jobs_rejected,
            self.jobs_deadline,
            self.jobs_faulted,
            self.fingerprint_mismatches,
            self.runs_completed,
            self.wall_ms,
            self.runs_per_sec,
            self.frames,
            self.frame_latency_p50_ms,
            self.frame_latency_p99_ms,
            self.frame_latency_max_ms,
        )
    }
}

/// The deterministic grid mix: four plans of genuinely different shapes
/// and sizes, so concurrent jobs stress interleaving rather than
/// marching in lockstep.
fn plan_mix(seeds_per_cell: u64, base_seed: u64) -> Vec<SweepPlan> {
    let families = || {
        vec![
            AdversaryFamily::no_faults(),
            AdversaryFamily::random_liar(FaultSelection::without_source()),
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

/// Per-connection tallies, merged after the join.
#[derive(Default)]
struct ConnStats {
    submitted: u64,
    completed: u64,
    rejected: u64,
    deadline: u64,
    faulted: u64,
    mismatches: u64,
    runs: u64,
    latencies_ms: Vec<f64>,
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// One connection thread's whole life: submit the plan rotation,
/// stream every job, reconnect (bounded) after transport faults.
fn drive_connection(
    addr: SocketAddr,
    conn_index: usize,
    plans: &[SweepPlan],
    batch_fingerprints: &[u64],
    options: &LoadOptions,
    measure_latency: bool,
) -> ConnStats {
    let mut stats = ConnStats::default();
    let policy = RetryPolicy {
        attempts: options.retry_attempts.max(1),
        ..RetryPolicy::deterministic(options.base_seed ^ (conn_index as u64).wrapping_mul(0x9E37))
    };
    let addr_str = addr.to_string();
    let mut client: Option<Client> = None;
    for j in 0..options.jobs_per_connection {
        let which = (conn_index + j) % plans.len();
        let plan = &plans[which];
        stats.submitted += 1;
        // (Re)connect lazily: a chaos fault may have killed the socket
        // mid-previous-job.
        if client.is_none() {
            match Client::connect_with_retry(&addr_str, &policy) {
                Ok(c) => client = Some(c),
                Err(_) => {
                    stats.faulted += 1;
                    continue;
                }
            }
        }
        let c = client.as_mut().expect("connected client");
        let submitted_at = Instant::now();
        let handle = match c.submit_with_retry(plan, options.deadline_ms, &policy) {
            Ok(handle) => handle,
            Err(ServeError::Rejected { .. }) => {
                stats.rejected += 1;
                continue;
            }
            Err(ServeError::Server { .. }) => {
                stats.faulted += 1;
                continue;
            }
            Err(_) => {
                stats.faulted += 1;
                client = None;
                continue;
            }
        };
        let mut previous = submitted_at;
        let mut laps: Vec<f64> = Vec::new();
        // submit→accepted is the first latency sample; then cell gaps.
        laps.push(previous.elapsed().as_secs_f64() * 1e3);
        let outcome = c.collect(handle, |_, _| {
            let now = Instant::now();
            laps.push(now.duration_since(previous).as_secs_f64() * 1e3);
            previous = now;
        });
        match outcome {
            Ok(streamed) => {
                stats.completed += 1;
                stats.runs += handle.total_runs;
                if streamed.fingerprint != batch_fingerprints[which] {
                    stats.mismatches += 1;
                }
                if measure_latency {
                    stats.latencies_ms.extend(laps);
                }
            }
            Err(ServeError::Server {
                code: ErrorCode::DeadlineExceeded,
                ..
            }) => {
                stats.deadline += 1;
            }
            Err(ServeError::Server { .. } | ServeError::Cancelled { .. }) => {
                stats.faulted += 1;
            }
            Err(_) => {
                stats.faulted += 1;
                client = None;
            }
        }
    }
    stats
}

/// Runs the whole load experiment: daemon up, optional chaos proxy,
/// client fleet, aggregation. See the module docs for what the numbers
/// mean.
///
/// # Panics
///
/// Panics if the in-process daemon or proxy cannot bind localhost.
pub fn run_load(options: &LoadOptions) -> LoadReport {
    let plans = plan_mix(options.seeds_per_cell, options.base_seed);
    let batch_fingerprints: Vec<u64> = plans
        .iter()
        .map(|plan| plan.run_with_jobs(1).fingerprint())
        .collect();

    let handle = serve(
        &Bind::Tcp("127.0.0.1:0".to_string()),
        ServeOptions {
            workers: options.workers,
            max_jobs: options.max_jobs,
            max_queued_runs: options.max_queued_runs,
            ..ServeOptions::default()
        },
    )
    .expect("bind load daemon");
    let direct = handle.tcp_addr().expect("daemon tcp addr");
    let proxy = options
        .chaos
        .map(|spec| ChaosProxy::spawn(direct, spec).expect("bind chaos proxy"));

    let started = Instant::now();
    let plans = Arc::new(plans);
    let batch_fingerprints = Arc::new(batch_fingerprints);
    let options_copy = *options;
    let threads: Vec<_> = (0..options.connections.max(1))
        .map(|i| {
            // Odd connections go through the proxy (when chaos is on);
            // even ones stay clean and carry the latency measurement.
            let through_chaos = proxy.is_some() && i % 2 == 1;
            let addr = match (&proxy, through_chaos) {
                (Some(p), true) => p.addr(),
                _ => direct,
            };
            let plans = Arc::clone(&plans);
            let fps = Arc::clone(&batch_fingerprints);
            std::thread::Builder::new()
                .name(format!("sg-hammer-{i}"))
                .spawn(move || {
                    drive_connection(addr, i, &plans, &fps, &options_copy, !through_chaos)
                })
                .expect("spawn load connection")
        })
        .collect();

    let mut total = ConnStats::default();
    for thread in threads {
        let stats = thread.join().expect("load connection thread");
        total.submitted += stats.submitted;
        total.completed += stats.completed;
        total.rejected += stats.rejected;
        total.deadline += stats.deadline;
        total.faulted += stats.faulted;
        total.mismatches += stats.mismatches;
        total.runs += stats.runs;
        total.latencies_ms.extend(stats.latencies_ms);
    }
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    drop(proxy);
    handle.shutdown();

    total
        .latencies_ms
        .sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    LoadReport {
        connections: options.connections.max(1),
        jobs_per_connection: options.jobs_per_connection,
        seeds_per_cell: options.seeds_per_cell,
        workers: options.workers,
        chaos: options.chaos.is_some(),
        jobs_submitted: total.submitted,
        jobs_completed: total.completed,
        jobs_rejected: total.rejected,
        jobs_deadline: total.deadline,
        jobs_faulted: total.faulted,
        fingerprint_mismatches: total.mismatches,
        runs_completed: total.runs,
        wall_ms,
        runs_per_sec: if wall_ms > 0.0 {
            total.runs as f64 / (wall_ms / 1e3)
        } else {
            0.0
        },
        frames: total.latencies_ms.len() as u64,
        frame_latency_p50_ms: percentile(&total.latencies_ms, 50.0),
        frame_latency_p99_ms: percentile(&total.latencies_ms, 99.0),
        frame_latency_max_ms: total.latencies_ms.last().copied().unwrap_or(0.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let sorted = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        assert_eq!(percentile(&sorted, 50.0), 5.0);
        assert_eq!(percentile(&sorted, 99.0), 10.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[3.5], 99.0), 3.5);
    }

    #[test]
    fn the_plan_mix_is_deterministic_and_varied() {
        let a = plan_mix(8, 42);
        let b = plan_mix(8, 42);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(
                x.run_with_jobs(1).fingerprint(),
                y.run_with_jobs(1).fingerprint(),
                "same mix, same fingerprints"
            );
        }
        let sizes: Vec<usize> = a.iter().map(|p| p.configs[0].n).collect();
        assert!(sizes.contains(&7) && sizes.contains(&16), "mixed sizes");
    }
}
