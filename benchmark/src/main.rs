//! `bench`: the repository's benchmark. `run` drives the timed passes
//! and the traced pass (`run.sh` builds, then calls it), `pass` is one
//! pass in a child process, `compare` applies the bounds to two result
//! files. README.md describes the workloads, metrics and estimator.

mod catalog;
mod compare;
mod driver;
mod load;
mod pass;
mod probes;
mod stats;
mod sut;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage:
  bench run [--workload <name>] [--seed <n>] [--seconds <s>] [--trace <0|1>] [--smoke] [--out <dir>]
  bench compare <a.json> <b.json>";

/// The arguments not yet claimed by a flag.
struct Flags(Vec<String>);

impl Flags {
    fn switch(&mut self, flag: &str) -> bool {
        let at = self.0.iter().position(|arg| arg == flag);
        at.map(|at| self.0.remove(at)).is_some()
    }

    fn value<T: std::str::FromStr>(&mut self, flag: &str) -> Result<Option<T>, String> {
        let Some(at) = self.0.iter().position(|arg| arg == flag) else {
            return Ok(None);
        };
        if at + 1 >= self.0.len() {
            return Err(format!("{flag} needs a value"));
        }
        let text = self.0.remove(at + 1);
        self.0.remove(at);
        match text.parse() {
            Ok(value) => Ok(Some(value)),
            Err(_) => Err(format!("{flag}: cannot read '{text}'")),
        }
    }

    fn done(self) -> Result<(), String> {
        match self.0.first() {
            None => Ok(()),
            Some(stray) => Err(format!("unexpected argument '{stray}'\n{USAGE}")),
        }
    }
}

fn positive(seconds: Option<f64>) -> Result<Option<f64>, String> {
    match seconds {
        Some(s) if !(s > 0.0 && s.is_finite()) => Err("--seconds must be positive".to_string()),
        other => Ok(other),
    }
}

/// Runs the command line; `Ok(false)` is a completed run with a failed
/// check or a regression.
fn dispatch(started: Instant) -> Result<bool, String> {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        return Err(USAGE.to_string());
    }
    let command = args.remove(0);
    let mut flags = Flags(args);
    match command.as_str() {
        "run" => {
            let trace = match flags.value::<u8>("--trace")? {
                None => None,
                Some(0) => Some(false),
                Some(1) => Some(true),
                Some(_) => return Err("--trace takes 0 or 1".to_string()),
            };
            let options = driver::Options {
                workload: flags.value("--workload")?,
                seed: flags.value("--seed")?.unwrap_or(driver::DEFAULT_SEED),
                seconds: positive(flags.value("--seconds")?)?,
                trace,
                smoke: flags.switch("--smoke"),
                out: flags
                    .value("--out")?
                    .unwrap_or_else(|| PathBuf::from("benchmark/out")),
            };
            flags.done()?;
            driver::run(&options)
        }
        "pass" => {
            let missing = |flag: &str| format!("pass needs {flag}");
            let args = pass::Args {
                workload: flags
                    .value("--workload")?
                    .ok_or_else(|| missing("--workload"))?,
                seed: flags.value("--seed")?.ok_or_else(|| missing("--seed"))?,
                seconds: positive(flags.value("--seconds")?)?
                    .ok_or_else(|| missing("--seconds"))?,
                trace: flags.switch("--trace"),
                smoke: flags.switch("--smoke"),
                out: flags.value("--out")?.ok_or_else(|| missing("--out"))?,
            };
            flags.done()?;
            println!("{}", pass::run(&args, started)?);
            Ok(true)
        }
        "compare" => match &flags.0[..] {
            [a, b] => compare::run(a, b),
            _ => Err(USAGE.to_string()),
        },
        _ => Err(USAGE.to_string()),
    }
}

fn main() -> ExitCode {
    let started = Instant::now();
    match dispatch(started) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("bench: {message}");
            ExitCode::from(2)
        }
    }
}
