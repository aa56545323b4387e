//! Per-layer probes: each layer (= crate) measured from outside, by
//! timing calls into its public functions and by contrasting plans
//! through the one entry point. They run in the traced pass of every
//! workload, after the workload's own loops, and never feed an
//! end-to-end metric. README.md has the layer → end-to-end table.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use crate::load::closed_loop;
use crate::stats::{base_seeds, median, percentile};
use crate::sut;
use crate::trace::Tracer;
use crate::workloads::{self, REJECTED};

/// Runs per probe cell: enough that a cell's fixed cost vanishes.
const CELL_RUNS: u64 = 4096;

/// How much work the probes do.
pub struct Effort {
    /// Repetitions whose median a timing reports.
    pub reps: usize,
    /// Seconds of each short closed loop.
    pub loop_seconds: f64,
}

/// Per-layer metric values by name.
pub type Layers = BTreeMap<String, f64>;

/// Median seconds of `reps` calls of `f`, after one untimed call.
fn time(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let seconds: Vec<f64> = (0..reps)
        .map(|_| {
            let started = Instant::now();
            f();
            started.elapsed().as_secs_f64()
        })
        .collect();
    median(&seconds)
}

/// Mean seconds of one call of `f` over `calls` back-to-back calls, for
/// calls too short to time singly.
fn time_each(calls: u64, mut f: impl FnMut()) -> f64 {
    let started = Instant::now();
    for _ in 0..calls {
        f();
    }
    started.elapsed().as_secs_f64() / calls as f64
}

/// Runs every probe. `Err` is a failed check — a probe whose result is
/// wrong — not a slow one.
pub fn run(seed: u64, out: &Path, effort: &Effort) -> Result<Layers, String> {
    std::fs::create_dir_all(out).map_err(|e| format!("{}: {e}", out.display()))?;
    let base = base_seeds(seed, 1)[0];
    let mut layers = Layers::new();
    contrasts(base, effort, &mut layers);
    core(base, effort, &mut layers)?;
    eigtree(base, effort, &mut layers);
    codec(base, &mut layers)?;
    journal(seed, out, effort, &mut layers)?;
    serve(seed, out, effort, &mut layers)?;
    Ok(layers)
}

/// `sim`, `adversary` and `analysis` by contrast: the same optimal-king
/// (31,10) cell with one thing changed, through `run_with_jobs(1)`.
fn contrasts(base: u64, effort: &Effort, layers: &mut Layers) {
    let free = sut::fault_free_cell(CELL_RUNS, base);
    let seconds = |plan: &sut::Plan| {
        let started = Instant::now();
        let cost = sut::run(plan, 1).cost;
        (started.elapsed().as_secs_f64(), cost)
    };
    // `other` against the fault-free cell, timed in alternation so that
    // drift cancels: (median of the differences, median fault-free
    // seconds, rounds per run of `other`). The contrasts are small next
    // to the cell, so they get three times the repetitions.
    let against_free = |other: &sut::Plan| {
        seconds(other);
        let (mut differences, mut frees) = (Vec::new(), Vec::new());
        let mut rounds = 0.0;
        for _ in 0..3 * effort.reps {
            let (free_s, _) = seconds(&free);
            let (other_s, cost) = seconds(other);
            differences.push(other_s - free_s);
            frees.push(free_s);
            rounds = cost.rounds as f64 / cost.runs as f64;
        }
        (median(&differences), median(&frees), rounds)
    };
    let runs = CELL_RUNS as f64;

    let (extra, free_s, full_rounds) = against_free(&sut::full_schedule_cell(CELL_RUNS, base));
    let (_, free_cost) = seconds(&free);
    let free_rounds = free_cost.rounds as f64 / runs;
    layers.insert("sim.lockstep_ns_per_run".into(), free_s / runs * 1e9);
    layers.insert(
        "sim.lockstep_ns_per_run_round".into(),
        extra / ((full_rounds - free_rounds) * runs) * 1e9,
    );

    for (name, family) in sut::probe_families() {
        let (extra, free_s, _) = against_free(&sut::probe_cell(family.clone(), CELL_RUNS, base));
        layers.insert(format!("adversary.ns_per_run.{name}"), extra / runs * 1e9);
        if name == "random-liar" {
            // How many bare lock-step runs one run's lies cost.
            layers.insert("adversary.random_liar_vs_lockstep".into(), extra / free_s);
            let calls = 1000 * effort.reps as u64;
            layers.insert(
                "adversary.instantiate_ns".into(),
                sut::time_instantiate(&family, calls) * 1e9,
            );
            layers.insert(
                "adversary.corrupt_ns".into(),
                sut::time_corrupt(&family, calls) * 1e9,
            );
        }
    }

    // The same runs cut into 64 cells: what a cell costs beyond its runs.
    let (extra, _, _) = against_free(&sut::many_cells(64, CELL_RUNS, base));
    layers.insert("analysis.us_per_cell".into(), extra / 63.0 * 1e6);

    // The rayon shim spawns its threads per call, so a second worker
    // starts with cold thread-local pools: informational.
    let plan = sut::king_fullround(base);
    let inline = time(effort.reps, || {
        sut::run(&plan, 1);
    });
    let two = time(effort.reps, || {
        sut::run(&plan, 2);
    });
    layers.insert("analysis.jobs2_ratio".into(), two / inline);
}

/// `core`: per-cell timings of the decomposed `tree-paper` and
/// `king-fullround` plans, summed per spec.
fn core(base: u64, effort: &Effort, layers: &mut Layers) -> Result<(), String> {
    // Per cell: (spec, n, median seconds, cost), the fold checked
    // against the monolithic plan on every repetition.
    let decomposed = |plan: &sut::Plan| {
        let reference = sut::run(plan, 2).fingerprint;
        let cells = sut::cells(plan);
        let mut seconds = vec![Vec::new(); cells.len()];
        let mut costs = vec![sut::Cost::default(); cells.len()];
        for _ in 0..effort.reps {
            let mut fold = sut::Fold::new();
            for (k, cell) in cells.iter().enumerate() {
                let started = Instant::now();
                costs[k] = fold.run_cell(&cell.plan);
                seconds[k].push(started.elapsed().as_secs_f64());
            }
            if fold.fingerprint() != reference {
                return Err(format!(
                    "decomposed cells fold to {:016x}, the plan to {reference:016x}",
                    fold.fingerprint()
                ));
            }
        }
        Ok(cells
            .into_iter()
            .zip(seconds.iter().map(|s| median(s)).zip(costs))
            .map(|(cell, (seconds, cost))| (cell.spec, cell.n, seconds, cost))
            .collect::<Vec<_>>())
    };

    let tree = decomposed(&sut::tree_paper(base))?;
    for (short, _, _) in sut::TREE_SPECS {
        let (mut seconds, mut cost) = (0.0, sut::Cost::default());
        for (_, _, s, c) in tree.iter().filter(|(spec, ..)| spec == short) {
            seconds += s;
            cost.add(*c);
        }
        layers.insert(
            format!("core.us_per_run.{short}"),
            seconds / cost.runs as f64 * 1e6,
        );
        if matches!(short, "king-shift" | "dynamic-king") {
            layers.insert(
                format!("core.rounds_mean.{short}"),
                cost.rounds as f64 / cost.runs as f64,
            );
        }
    }

    // Seconds per run-round over each king spec's n=64 cells (most of
    // whose run-rounds are the matched cell's full schedule).
    let mut kings: BTreeMap<String, (f64, u64)> = BTreeMap::new();
    for (spec, n, seconds, cost) in decomposed(&sut::king_fullround(base))? {
        if n == 64 {
            let entry = kings.entry(spec).or_default();
            entry.0 += seconds;
            entry.1 += cost.rounds;
        }
    }
    for (spec, (seconds, run_rounds)) in kings {
        layers.insert(
            format!("core.ns_per_run_round.{spec}"),
            seconds / run_rounds as f64 * 1e9,
        );
    }
    Ok(())
}

fn eigtree(base: u64, effort: &Effort, layers: &mut Layers) {
    sut::time_eigtree(base);
    let samples: Vec<[f64; 4]> = (0..effort.reps as u64)
        .map(|k| sut::time_eigtree(base ^ k))
        .collect();
    for (k, name) in ["append", "convert", "convert_prime", "discover"]
        .iter()
        .enumerate()
    {
        let seconds: Vec<f64> = samples.iter().map(|s| s[k]).collect();
        layers.insert(
            format!("eigtree.{name}_ns_per_node"),
            median(&seconds) * 1e9,
        );
    }
}

/// `analysis`, the direct calls: reduction and the wire codec on one
/// 64-sample cell.
fn codec(base: u64, layers: &mut Layers) -> Result<(), String> {
    let cell = sut::CodecCell::new(base);
    if !cell.decode() {
        return Err("a cell's wire text does not decode back to the cell".to_string());
    }
    let summarize = time_each(1000, || {
        std::hint::black_box(cell.summarize());
    });
    let fingerprint = time_each(1000, || {
        std::hint::black_box(cell.fingerprint());
    });
    let encode = time_each(200, || {
        std::hint::black_box(cell.encode());
    });
    let decode = time_each(200, || {
        std::hint::black_box(cell.decode());
    });
    layers.insert("analysis.summarize_us_per_cell".into(), summarize * 1e6);
    layers.insert(
        "analysis.fingerprint_ns_per_sample".into(),
        fingerprint / cell.samples() as f64 * 1e9,
    );
    layers.insert("analysis.encode_us_per_cell".into(), encode * 1e6);
    layers.insert("analysis.decode_us_per_cell".into(), decode * 1e6);
    layers.insert("analysis.cell_json_bytes".into(), cell.json_bytes() as f64);
    Ok(())
}

fn failed(what: &str, failures: &[String]) -> Result<(), String> {
    match failures.first() {
        None => Ok(()),
        Some(first) => Err(format!("{what} probe: {first}")),
    }
}

/// `journal`: the spans of a few traced `journal-incremental` jobs, and
/// direct appends to a scratch store.
fn journal(seed: u64, out: &Path, effort: &Effort, layers: &mut Layers) -> Result<(), String> {
    let mut workload = workloads::setup("journal-incremental", seed, out)?;
    let client = workload.clients[0].as_mut();
    layers.extend(client.facts().into_iter().map(|(k, v)| (k.to_string(), v)));
    let mut tracer = Tracer::new(Instant::now());
    let mut failures = Vec::new();
    // Always variant 0, so its delta can be timed in-process below.
    for job in 0..effort.reps as u64 + 1 {
        if let Err(failure) = client.job(0, Some(&mut tracer.job(job))) {
            failures.push(failure);
        }
    }
    failed("journal", &failures)?;
    let span = |name: &str| median(&tracer.seconds_of(name)[1..]);
    let (stored, deltas) = workloads::journal_plans(seed);
    let (stored, delta) = (&stored[0], &deltas[0]);
    let in_process = time(effort.reps, || {
        sut::run(delta, 1);
    });
    layers.insert("journal.open_ms".into(), span("journal.open") * 1e3);
    layers.insert(
        "journal.hit_us_per_cell".into(),
        span("journal.warm") / sut::cell_count(stored) as f64 * 1e6,
    );
    layers.insert(
        "journal.miss_us_per_cell".into(),
        (span("journal.delta") - in_process) / sut::cell_count(delta) as f64 * 1e6,
    );

    let scratch = out.join(format!("journal-scratch-{}", std::process::id()));
    std::fs::remove_dir_all(&scratch).ok();
    let appended = sut::Store::open(&scratch)
        .and_then(|mut store| store.time_appends(&sut::CodecCell::new(seed), 200));
    std::fs::remove_dir_all(&scratch).ok();
    layers.insert("journal.append_us".into(), appended? * 1e6);
    Ok(())
}

/// `serve`: pings, then a short traced `serve-stream` loop against a
/// short `king-expedite` loop over the same plans.
fn serve(seed: u64, out: &Path, effort: &Effort, layers: &mut Layers) -> Result<(), String> {
    let mut in_process = workloads::setup("king-expedite", seed, out)?;
    let (direct, _) = closed_loop(&mut in_process.clients, effort.loop_seconds / 2.0, None);
    failed("king-expedite", &direct.failures)?;

    let mut workload = workloads::setup("serve-stream", seed, out)?;
    let daemon = workload
        .daemon
        .as_ref()
        .expect("serve-stream runs a daemon");
    let mut connection = daemon.connect()?;
    let mut pings = Vec::new();
    for _ in 0..100 * effort.reps {
        let started = Instant::now();
        connection.ping()?;
        pings.push(started.elapsed().as_secs_f64());
    }
    drop(connection);
    let (served, tracer) = closed_loop(
        &mut workload.clients,
        effort.loop_seconds,
        Some(Instant::now()),
    );
    let tracer = tracer.expect("the loop was traced");
    // A refusal is reported (the driver holds it to zero), anything else
    // ends the probe.
    let (rejected, broken): (Vec<String>, Vec<String>) = served
        .failures
        .iter()
        .cloned()
        .partition(|failure| failure.contains(REJECTED));
    layers.insert("serve.rejected".into(), rejected.len() as f64);
    failed("serve", &broken)?;

    let span = |name: &str| median(&tracer.seconds_of(name));
    let runs_per_job = served.cost.runs as f64 / served.job_ms.len() as f64;
    layers.insert("serve.ping_rtt_us".into(), median(&pings) * 1e6);
    layers.insert("serve.accept_us".into(), span("serve.submit") * 1e6);
    layers.insert("serve.first_cell_ms".into(), span("serve.first_cell") * 1e3);
    layers.insert(
        "serve.us_per_run".into(),
        span("serve.server") / runs_per_job * 1e6,
    );
    layers.insert(
        "serve.server_share".into(),
        span("serve.server") / span("job"),
    );
    layers.insert(
        "serve.transport_tax".into(),
        direct.runs_per_s() / served.runs_per_s(),
    );
    layers.insert("serve.job_ms_p99".into(), percentile(&served.job_ms, 0.99));
    Ok(())
}
