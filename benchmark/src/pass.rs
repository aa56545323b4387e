//! One pass, in a child process of its own: set-up, one untimed warm-up
//! job per base seed, then the closed loop. The driver spawns one child
//! per pass, so every pass pays (and reports) set-up, and peak memory is
//! the pass's alone. A *traced* pass also records spans and runs the
//! per-layer probes; end-to-end metrics never come from it.

use std::path::{Path, PathBuf};
use std::time::Instant;

use serde::json::Value as Json;

use crate::load::{closed_loop, LoopStats};
use crate::probes::{self, Effort};
use crate::stats::{median, percentile};
use crate::sut::{self, Cost};
use crate::trace::Tracer;
use crate::workloads::{self, Workload, VARIANTS};

/// Laps of a traced pass: untraced reference laps and traced laps, in
/// alternation.
const TRACED_LAPS: usize = 6;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Cut the probes down to one repetition (`--smoke`).
    pub smoke: bool,
    pub out: PathBuf,
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Set-up: the canary, the workload's plans and references, and the
/// warm-up jobs, whose reports give the simulated costs.
fn set_up(args: &Args) -> Result<(Workload, Cost), String> {
    let canary = sut::canary();
    if canary != sut::CANARY_FINGERPRINT {
        return Err(format!(
            "canary cell fingerprints to {canary:016x}, not {:016x}: \
             this build is not the engine the benchmark describes",
            sut::CANARY_FINGERPRINT
        ));
    }
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let mut workload = workloads::setup(&args.workload, args.seed, &args.out)?;
    let mut cost = Cost::default();
    for client in &mut workload.clients {
        for i in 0..VARIANTS {
            let done = client
                .job(i, None)
                .map_err(|failure| format!("warm-up job {i}: {failure}"))?;
            cost.add(done.cost);
        }
    }
    Ok((workload, cost))
}

/// Runs the pass `args` describes; `started` is when the process began.
/// The returned object is the child's one line of output.
pub fn run(args: &Args, started: Instant) -> Result<Json, String> {
    let (mut workload, cost) = set_up(args)?;
    let setup_s = started.elapsed().as_secs_f64();
    let mut fields: Vec<(String, Json)> = vec![("workload".into(), args.workload.as_str().into())];

    if args.trace {
        // Untraced and traced laps in alternation, so that the overhead
        // of tracing is measured between neighbours in time, not between
        // a cold start and a warm finish.
        let origin = Instant::now();
        let (mut reference, mut traced) = (LoopStats::default(), LoopStats::default());
        let mut tracer = Tracer::new(origin);
        for lap in 0..TRACED_LAPS {
            let trace_from = (lap % 2 == 1).then_some(origin);
            let seconds = args.seconds / TRACED_LAPS as f64;
            let (stats, spans) = closed_loop(&mut workload.clients, seconds, trace_from);
            let side = if let Some(spans) = spans {
                tracer.absorb(spans);
                &mut traced
            } else {
                &mut reference
            };
            side.job_ms.extend(stats.job_ms);
            side.failures.extend(stats.failures);
        }
        drop(workload);
        let path = trace_path(&args.out, &args.workload);
        std::fs::write(&path, tracer.to_json().to_string())
            .map_err(|e| format!("{}: {e}", path.display()))?;

        let effort = if args.smoke {
            Effort {
                reps: 1,
                loop_seconds: 0.2,
            }
        } else {
            Effort {
                reps: 5,
                loop_seconds: 1.0,
            }
        };
        let mut layers = probes::run(args.seed, &args.out.join("probes"), &effort)?;
        let mut insert = |name: &str, value: f64| layers.insert(name.to_string(), value);
        insert("tail.job_ms_p50", median(&reference.job_ms));
        insert("tail.job_ms_p90", percentile(&reference.job_ms, 0.9));
        insert("tail.job_ms_max", percentile(&reference.job_ms, 1.0));
        insert("tail.samples", reference.job_ms.len() as f64);
        insert("trace.coverage_pct", tracer.coverage_pct());
        insert(
            "trace.overhead_pct",
            (median(&traced.job_ms) / median(&reference.job_ms) - 1.0) * 100.0,
        );
        fields.extend(counts(&[&reference, &traced]));
        fields.push(("layers".into(), object(layers)));
    } else {
        let (timed, _) = closed_loop(&mut workload.clients, args.seconds, None);
        drop(workload);
        let runs = cost.runs as f64;
        let metrics = [
            ("runs_per_s", timed.runs_per_s()),
            ("job_ms_p10", timed.job_ms_p10()),
            ("rounds_mean", cost.rounds as f64 / runs),
            ("kbits_per_run", cost.bits as f64 / runs / 1e3),
            ("local_kops_per_run", cost.local_ops as f64 / runs / 1e3),
            ("setup_s", setup_s),
            ("peak_rss_mb", peak_rss_mb()?),
        ];
        fields.extend(counts(&[&timed]));
        let metrics = metrics.into_iter().map(|(k, v)| (k.to_string(), v));
        fields.push(("metrics".into(), object(metrics)));
    }
    Ok(Json::Obj(fields))
}

/// The jobs the loops attempted and the ones that failed, with why.
fn counts(loops: &[&LoopStats]) -> Vec<(String, Json)> {
    let attempted: usize = loops.iter().map(|l| l.job_ms.len()).sum();
    let failures: Vec<String> = loops.iter().flat_map(|l| l.failures.clone()).collect();
    vec![
        ("jobs_attempted".into(), attempted.into()),
        ("jobs_failed".into(), failures.len().into()),
        (
            "failures".into(),
            Json::Arr(failures.iter().map(|f| f.as_str().into()).collect()),
        ),
    ]
}

fn object(values: impl IntoIterator<Item = (String, f64)>) -> Json {
    Json::Obj(values.into_iter().map(|(k, v)| (k, Json::Num(v))).collect())
}

/// Where the traced pass of `workload` leaves its spans.
pub fn trace_path(out: &Path, workload: &str) -> PathBuf {
    out.join(format!("trace-{workload}.json"))
}
