//! The driver process: spawns one child per pass, interleaving the
//! workloads round-robin so a burst of interference lands on all of them
//! alike, reduces the passes to one value per metric, and prints, checks
//! and stores the result.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, Stdio};

use serde::json::Value as Json;

use crate::catalog::{failed_share, Catalog, Metric, FAILED_SHARE};
use crate::stats::{best, median, Better};

/// Timed passes per workload.
const PASSES: usize = 5;

/// The seed of a run that names none.
pub const DEFAULT_SEED: u64 = 1987;

pub struct Options {
    /// One workload, or all of them.
    pub workload: Option<String>,
    pub seed: u64,
    /// Timed seconds per workload, shared among its passes.
    pub seconds: Option<f64>,
    /// `Some(false)`: timed passes only; `Some(true)`: the traced pass
    /// only; `None`: both.
    pub trace: Option<bool>,
    /// Two passes of 0.3 s and single-repetition probes: checks every
    /// code path quickly, measures nothing.
    pub smoke: bool,
    pub out: PathBuf,
}

/// One metric of one workload, reduced over the passes that measured it.
pub struct Stat {
    pub value: f64,
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub passes: usize,
}

impl Stat {
    fn over(values: &[f64], metric: &Metric) -> Stat {
        Stat {
            value: best(values, metric.better),
            median: median(values),
            min: best(values, Better::Lower),
            max: best(values, Better::Higher),
            passes: values.len(),
        }
    }

    fn single(value: f64) -> Stat {
        Stat {
            value,
            median: value,
            min: value,
            max: value,
            passes: 1,
        }
    }

    fn to_json(&self, unit: &str) -> Json {
        Json::Obj(vec![
            ("value".into(), Json::Num(self.value)),
            ("unit".into(), unit.into()),
            ("median".into(), Json::Num(self.median)),
            ("min".into(), Json::Num(self.min)),
            ("max".into(), Json::Num(self.max)),
            ("passes".into(), self.passes.into()),
        ])
    }
}

/// Runs one pass in a child process and parses its line of output.
fn spawn_pass(
    options: &Options,
    workload: &str,
    seconds: f64,
    trace: bool,
) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command
        .arg("pass")
        .args(["--workload", workload])
        .args(["--seed", &options.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .arg("--out")
        .arg(&options.out)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if trace {
        command.arg("--trace");
    }
    if options.smoke {
        command.arg("--smoke");
    }
    let output = command.output().map_err(|e| format!("spawn pass: {e}"))?;
    if !output.status.success() {
        return Err(format!("{workload} pass exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    Json::parse(line).map_err(|e| format!("{workload} pass printed no result ({e}): {line}"))
}

fn count(pass: &Json, key: &str) -> Result<u64, String> {
    pass.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("pass output lacks '{key}'"))
}

fn value(pass: &Json, section: &str, name: &str) -> Result<f64, String> {
    pass.get(section)
        .and_then(|s| s.get(name))
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("pass output lacks {section}.{name}"))
}

/// What a run established about one workload.
#[derive(Default)]
struct Measured {
    end_to_end: Vec<(Metric, Stat)>,
    per_layer: Vec<(Metric, Stat)>,
    attempted: u64,
    failed: u64,
    /// Failed checks, in words. Empty at a healthy commit.
    complaints: Vec<String>,
}

impl Measured {
    fn absorb_counts(&mut self, pass: &Json) -> Result<(), String> {
        self.attempted += count(pass, "jobs_attempted")?;
        self.failed += count(pass, "jobs_failed")?;
        let failures = pass.get("failures").and_then(Json::as_arr).unwrap_or(&[]);
        self.complaints
            .extend(failures.iter().filter_map(Json::as_str).map(str::to_string));
        Ok(())
    }

    fn timed(&mut self, catalog: &Catalog, passes: &[Json]) -> Result<(), String> {
        for pass in passes {
            self.absorb_counts(pass)?;
        }
        for metric in &catalog.end_to_end {
            let values = passes
                .iter()
                .map(|pass| value(pass, "metrics", &metric.name))
                .collect::<Result<Vec<f64>, String>>()?;
            let stat = Stat::over(&values, metric);
            if metric.exact() && stat.min != stat.max {
                self.complaints.push(format!(
                    "{} differs between passes of one seed: {} .. {}",
                    metric.name, stat.min, stat.max
                ));
            }
            self.end_to_end.push((metric.clone(), stat));
        }
        let share = self.failed as f64 / self.attempted as f64;
        self.end_to_end.push((failed_share(), Stat::single(share)));
        Ok(())
    }

    fn traced(&mut self, catalog: &Catalog, pass: &Json) -> Result<(), String> {
        self.absorb_counts(pass)?;
        for metric in &catalog.per_layer {
            let stat = Stat::single(value(pass, "layers", &metric.name)?);
            self.per_layer.push((metric.clone(), stat));
        }
        if value(pass, "layers", "serve.rejected")? != 0.0 {
            self.complaints
                .push("the daemon refused jobs of a closed loop".to_string());
        }
        Ok(())
    }

    fn to_json(&self) -> Json {
        let section = |stats: &[(Metric, Stat)]| {
            Json::Obj(
                stats
                    .iter()
                    .map(|(metric, stat)| (metric.name.clone(), stat.to_json(&metric.unit)))
                    .collect(),
            )
        };
        Json::Obj(vec![
            ("end_to_end".into(), section(&self.end_to_end)),
            ("per_layer".into(), section(&self.per_layer)),
            ("jobs_attempted".into(), self.attempted.into()),
            ("jobs_failed".into(), self.failed.into()),
        ])
    }

    /// The result line the benchmark contract asks for: the end-to-end
    /// metrics of a timed run, the per-layer metrics of a traced one.
    fn result_line(&self, traced: bool) -> Json {
        let stats = if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let metrics = stats
            .iter()
            // `failed` carries failed_share.
            .filter(|(metric, _)| metric.name != FAILED_SHARE)
            .map(|(metric, stat)| {
                let entry = vec![
                    ("value".to_string(), Json::Num(stat.value)),
                    ("unit".to_string(), metric.unit.as_str().into()),
                ];
                (metric.name.clone(), Json::Obj(entry))
            })
            .collect();
        Json::Obj(vec![
            ("correct".into(), self.complaints.is_empty().into()),
            ("attempted".into(), self.attempted.into()),
            ("failed".into(), self.failed.into()),
            ("metrics".into(), Json::Obj(metrics)),
        ])
    }
}

/// First line of `program args..`'s output, or "unknown".
fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|output| output.status.success())
        .and_then(|output| String::from_utf8(output.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Runs the benchmark; `Ok(true)` when every check passed.
pub fn run(options: &Options) -> Result<bool, String> {
    let catalog = Catalog::load()?;
    let workloads: Vec<String> = match &options.workload {
        Some(name) if catalog.workloads.contains(name) => vec![name.clone()],
        Some(name) => {
            return Err(format!(
                "unknown workload '{name}' (one of: {})",
                catalog.workloads.join(", ")
            ))
        }
        None => catalog.workloads.clone(),
    };
    let (passes, pass_seconds) = if options.smoke {
        (2, 0.3)
    } else {
        let seconds = options.seconds.unwrap_or(catalog.run_seconds);
        (PASSES, seconds / PASSES as f64)
    };
    std::fs::create_dir_all(&options.out).map_err(|e| format!("{}: {e}", options.out.display()))?;

    let mut measured: BTreeMap<&str, Measured> = BTreeMap::new();
    if options.trace != Some(true) {
        let mut outputs: BTreeMap<&str, Vec<Json>> = BTreeMap::new();
        for pass in 0..passes {
            for workload in &workloads {
                eprintln!("pass {}/{passes} {workload}", pass + 1);
                let output = spawn_pass(options, workload, pass_seconds, false)?;
                outputs.entry(workload).or_default().push(output);
            }
        }
        for (workload, outputs) in outputs {
            measured
                .entry(workload)
                .or_default()
                .timed(&catalog, &outputs)?;
        }
    }
    if options.trace != Some(false) {
        for workload in &workloads {
            eprintln!("traced pass {workload}");
            let output = spawn_pass(options, workload, pass_seconds, true)?;
            measured
                .entry(workload)
                .or_default()
                .traced(&catalog, &output)?;
        }
    }

    for workload in &workloads {
        let of = &measured[workload.as_str()];
        for (metric, stat) in of.end_to_end.iter().chain(&of.per_layer) {
            println!("{workload} {} {} {}", metric.name, metric.unit, stat.value);
        }
        println!("{workload} jobs_attempted count {}", of.attempted);
        println!("{workload} jobs_failed count {}", of.failed);
        for complaint in &of.complaints {
            eprintln!("FAILED CHECK {workload}: {complaint}");
        }
    }

    let parallelism = std::thread::available_parallelism().map_or(0, usize::from);
    let results = Json::Obj(vec![
        ("schema".into(), "sg-benchmark/1".into()),
        ("seed".into(), options.seed.into()),
        (
            "commit".into(),
            tool_line("git", &["rev-parse", "HEAD"]).into(),
        ),
        ("rustc".into(), tool_line("rustc", &["-V"]).into()),
        ("nproc".into(), tool_line("nproc", &[]).into()),
        ("available_parallelism".into(), parallelism.into()),
        ("pass_seconds".into(), Json::Num(pass_seconds)),
        ("passes".into(), passes.into()),
        (
            "workloads".into(),
            Json::Obj(
                workloads
                    .iter()
                    .map(|w| (w.clone(), measured[w.as_str()].to_json()))
                    .collect(),
            ),
        ),
    ]);
    let path = options.out.join("results.json");
    std::fs::write(&path, format!("{results}\n"))
        .map_err(|e| format!("{}: {e}", path.display()))?;

    if let ([workload], Some(traced)) = (&workloads[..], options.trace) {
        println!("{}", measured[workload.as_str()].result_line(traced));
    }
    Ok(measured.values().all(|of| of.complaints.is_empty()))
}
