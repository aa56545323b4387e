//! The load generator: a closed loop. Each client sends its next job
//! only after the previous one is verified, so a slow system receives
//! less load; the client count is the workload's (one, or two for
//! `serve-stream`).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use crate::stats::percentile;
use crate::sut::Cost;
use crate::trace::Tracer;
use crate::workloads::Client;

/// What one closed loop measured.
#[derive(Default)]
pub struct LoopStats {
    /// Clients that ran the loop: the jobs in flight at any moment.
    pub clients: usize,
    /// Latency of every job, failed ones included, in milliseconds, less
    /// the time jobs declared untimed.
    pub job_ms: Vec<f64>,
    /// Runs (and their simulated costs) of the verified jobs.
    pub cost: Cost,
    /// One message per failed job.
    pub failures: Vec<String>,
}

impl LoopStats {
    /// The loop's latency figure: the favourable decile of its jobs.
    /// Interference on a shared VM comes in bursts of milliseconds to
    /// minutes and only ever slows a job, so the fastest tenth says what
    /// the code costs and the median says how busy the neighbours were;
    /// README.md has the measurements.
    pub fn job_ms_p10(&self) -> f64 {
        percentile(&self.job_ms, 0.1)
    }

    /// The throughput the closed loop sustains at that latency (Little's
    /// law): `clients` jobs in flight, each answering for its runs.
    pub fn runs_per_s(&self) -> f64 {
        let verified = self.job_ms.len() - self.failures.len();
        if verified == 0 {
            return 0.0;
        }
        let runs_per_job = self.cost.runs as f64 / verified as f64;
        self.clients as f64 * runs_per_job / (self.job_ms_p10() / 1e3)
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    let text = payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied())
        .unwrap_or("non-string payload");
    format!("panic: {text}")
}

/// One client's loop: jobs back to back until `seconds` of timed work
/// have passed. Panics are caught per job and count as failures.
fn client_loop(
    client: &mut dyn Client,
    seconds: f64,
    mut tracer: Option<&mut Tracer>,
) -> LoopStats {
    let mut stats = LoopStats::default();
    let mut untimed = Duration::ZERO;
    let started = Instant::now();
    let mut i = 0;
    while (started.elapsed() - untimed).as_secs_f64() < seconds {
        let job_started = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| match tracer.as_deref_mut() {
            Some(tracer) => client.job(i, Some(&mut tracer.job(i as u64))),
            None => client.job(i, None),
        }));
        let mut elapsed = job_started.elapsed();
        match result.unwrap_or_else(|payload| Err(panic_message(payload))) {
            Ok(done) => {
                elapsed -= done.untimed;
                untimed += done.untimed;
                stats.cost.add(done.cost);
            }
            Err(failure) => stats.failures.push(format!("job {i}: {failure}")),
        }
        stats.job_ms.push(elapsed.as_secs_f64() * 1e3);
        i += 1;
    }
    stats
}

/// Runs every client's closed loop for `seconds` — inline for a single
/// client (so the thread-local pools the warm-up filled stay in use),
/// one thread each otherwise — and merges what they measured. With
/// `trace_from`, jobs record spans on a clock starting there.
pub fn closed_loop(
    clients: &mut [Box<dyn Client>],
    seconds: f64,
    trace_from: Option<Instant>,
) -> (LoopStats, Option<Tracer>) {
    let run = |client: &mut Box<dyn Client>| {
        let mut tracer = trace_from.map(Tracer::new);
        let stats = client_loop(client.as_mut(), seconds, tracer.as_mut());
        (stats, tracer)
    };
    let mut results = if let [only] = clients {
        vec![run(only)]
    } else {
        let run = &run;
        std::thread::scope(|scope| {
            let handles: Vec<_> = clients
                .iter_mut()
                .map(|client| scope.spawn(move || run(client)))
                .collect();
            handles
                .into_iter()
                .map(|handle| handle.join().expect("client loops catch their panics"))
                .collect()
        })
    };
    let (mut stats, mut tracer) = results.remove(0);
    stats.clients = clients.len();
    for (other, other_tracer) in results {
        stats.job_ms.extend(other.job_ms);
        stats.cost.add(other.cost);
        stats.failures.extend(other.failures);
        if let (Some(tracer), Some(other_tracer)) = (tracer.as_mut(), other_tracer) {
            tracer.absorb(other_tracer);
        }
    }
    (stats, tracer)
}
