//! `sg` — command-line driver for the shifting-gears reproduction.
//!
//! ```text
//! sg run --alg hybrid --b 3 --n 16 --adversary two-faced [--t 5]
//!        [--value 1] [--seed 7] [--source-faulty] [--trace]
//! sg plan --alg algorithm-b --b 3 --t 5 [--n 21]
//! sg compose --n 16 --spec a:3x2,b:3x1,c:4 [--t 5] [--run] [--adversary <name>]
//! sg gauntlet --alg optimal-king --n 10 [--t 3] [--b 3]
//! sg stability --alg hybrid --n 16 [--b 3] [--seed 7]
//! sg sweep --alg phase-king --n 16 [--t 5] [--seeds 100] [--adversary random-liar]
//!          [--expect-fingerprint <hex>] [--journal <dir>]
//! sg record --alg optimal-king --n 7 --adversary equivocate [--seed 3] [--out scenario.json]
//! sg replay tests/corpus/*.json [--quiet]
//! sg serve [--port 7411 | --addr 127.0.0.1:7411 | --socket /path] [--workers N]
//!          [--max-jobs N] [--max-queued-runs N] [--conn-jobs N]
//!          [--send-buffer <bytes>] [--journal <dir>]
//! sg submit [--addr …] --alg optimal-king --n 16 [--t 5] [--seeds 100]
//!           [--deadline-ms <ms>] [--retry-attempts <k>]
//!           [--expect-fingerprint <hex>] [--journal <dir>] [--shutdown]
//! sg journal stat|compact <dir>
//! sg ping [--addr …] [--timeout-ms <ms>] [--attempts <k>]
//! sg hammer [--connections N] [--jobs-per-conn K] [--seeds S] [--chaos gentle|hostile]
//! sg bounds --n 31
//! sg list
//! ```
//!
//! Every subcommand accepts `--jobs N` to size the sweep engine's worker
//! pool (default: all hardware threads); the executing ones (`run`,
//! `compose`, `gauntlet`, `stability`, `sweep`, `submit`) accept
//! `--no-early-stop` to run every execution for its full static schedule
//! (by default the engine terminates a run once every correct processor
//! is ready to decide — the paper's expedite behaviour). That is the
//! one engine option, and it is part of the run asked for: a `submit`
//! carries it in its plan, so one daemon serves both modes. Note
//! `--no-early-stop` does not freeze *dynamic* specs (`dynamic-king`):
//! their gear shifts are part of the schedule itself, not an engine
//! observation. Unrecognised flags exit 2 with the usage text. `serve`
//! runs the long-lived sweep daemon (wire protocol `sg-serve/1`, see
//! `sg_serve::wire`); `submit` sends the same grid `sweep` runs locally
//! and must produce a bit-identical fingerprint — CI's serve-e2e job
//! holds the two paths to that contract. The sweep grids take `--f <k>`
//! to cap the *actual* fault count below `t` (the rounds-vs-f
//! workloads) and speak the full wire vocabulary of adversary families —
//! including the link/schedule families (`partition`, `omission`,
//! `equivocate`, `adaptive`) and
//! `trace` (replaying a recorded `sg-trace/1`/`sg-scenario/1` file via
//! `--trace-file`). `record` captures one run as an `sg-scenario/1`
//! JSON artifact; `replay` re-executes such artifacts and fails on any
//! verdict drift — CI's scenario-corpus job runs it over
//! `tests/corpus/`.
//!
//! `--journal <dir>` plugs the content-addressed result journal
//! (`sg-journal/1`, see `sg_journal`) into all three execution paths:
//! `sweep` runs incrementally (cells already stored under the plan's
//! engine epoch are read back, only the delta is computed and
//! appended), `serve` streams cached cells instantly and schedules only
//! the delta, and `submit` writes streamed cells through to a local
//! journal under the same epoch the daemon derives from the plan. Warm
//! or cold, the report is bit-identical — a journal can only save work,
//! never change answers — and `sg journal stat|compact` inspects or
//! rewrites the store.
//!
//! The daemon runs under admission control (`--max-jobs`,
//! `--max-queued-runs`, per-connection `--conn-jobs`, slow-reader
//! `--send-buffer`) and drains on SIGTERM; `submit` maps the resulting
//! `rejected`/`draining`/`deadline-exceeded` answers to distinct exit
//! codes (3/4/5) with one structured stderr line each; `hammer` is the
//! load harness (`sg_serve::load`) as a subcommand — N connections,
//! mixed grids, optional `--chaos`, `sg-serve-load/1` JSON on stdout.

use std::collections::HashMap;
use std::process::exit;

use serde::json::Value as Json;
use serde::{FromJson, ToJson};
use shifting_gears::adversary::{
    standard_suite, Adaptive, AdversaryTrace, ChainRevealer, Crash, DoubleTalk, Equivocate,
    EquivocatingSource, FaultSelection, Omission, Partition, RandomLiar, Silent, StaggeredSplit,
    Stealth, TwoFaced,
};
use shifting_gears::analysis::{lock_in, scenario, Scenario, ENGINE_VERSION_TAG};
use shifting_gears::core::schedule::{algorithm_a_rounds_exact, algorithm_b_rounds_exact};
use shifting_gears::core::{
    execute, render_plan, t_a, t_b, t_c, AlgorithmSpec, HybridSchedule, ShiftPlanBuilder,
};
use shifting_gears::sim::{Adversary, NoFaults, RunConfig, TraceEvent, Value};

fn usage() -> ! {
    eprintln!(
        "usage:\n  \
         sg run --alg <name> --n <n> [--t <t>] [--b <b>] [--adversary <name>]\n         \
         [--value <v>] [--seed <s>] [--source-faulty] [--trace]\n  \
         sg plan --alg <name> --t <t> [--b <b>] [--n <n>]\n  \
         sg compose --n <n> --spec a:3x2,b:3x1,c:4 [--t <t>] [--run] [--adversary <name>]\n  \
         sg gauntlet --alg <name> --n <n> [--t <t>] [--b <b>]\n  \
         sg stability --alg <name> --n <n> [--t <t>] [--b <b>] [--seed <s>]\n  \
         sg sweep --alg <name> --n <n> [--t <t>] [--b <b>] [--seeds <k>]\n           \
         [--adversary random-liar|chain-revealer|crash|silent|partition|\n            \
         omission|equivocate|adaptive|trace|none]\n           \
         [--f <k>] [--source-faulty] [--base-seed <s>]\n           \
         [--split <k>] [--from <r>] [--to <r>] [--period <k>] [--phase <k>]\n           \
         [--start <r>] [--schedule <r,r,..>] [--trace-file <path>]\n           \
         [--expect-fingerprint <hex>] [--journal <dir>]\n  \
         sg record --alg <name> --n <n> [--t <t>] [--b <b>] [--adversary <name>]\n           \
         [--value <v>] [--seed <s>] [--source-faulty] [--out <path>]\n  \
         sg replay <scenario.json>.. [--quiet]\n  \
         sg serve [--port <p> | --addr <host:port> | --socket <path>]\n           \
         [--workers <N>] [--max-jobs <N>]\n           \
         [--max-queued-runs <N>] [--conn-jobs <N>]\n           \
         [--send-buffer <bytes>] [--journal <dir>]\n  \
         sg submit [--addr <host:port> | --socket <path>] [--timeout <secs>]\n           \
         <sweep grid flags> [--deadline-ms <ms>] [--retry-attempts <k>]\n           \
         [--expect-fingerprint <hex>] [--journal <dir>] [--shutdown]\n           \
         (exit 3 = saturated, 4 = draining, 5 = deadline-exceeded)\n  \
         sg journal stat|compact <dir>\n  \
         sg ping [--addr <host:port> | --socket <path>]\n           \
         [--timeout-ms <ms>] [--attempts <k>]\n  \
         sg hammer [--connections <N>] [--jobs-per-conn <K>] [--seeds <S>]\n           \
         [--workers <N>] [--max-jobs <N>] [--deadline-ms <ms>]\n           \
         [--chaos gentle|hostile] [--seed <s>]\n  \
         sg bounds --n <n>\n  \
         sg list\n\
         global: --jobs <N> sizes the sweep worker pool; --no-early-stop (run,\n        \
         compose, gauntlet, stability, sweep, submit) runs full fixed-length\n        \
         schedules; unrecognised flags exit 2"
    );
    exit(2);
}

/// The flags `cmd` accepts besides the global `--jobs`, as
/// space-separated `(valued, switches)` name lists; `None` for an unknown
/// subcommand.
fn accepted_flags(cmd: &str) -> Option<(String, &'static str)> {
    const GRID: &str = "alg n t b seeds adversary f base-seed split from to period phase start \
                        schedule trace-file expect-fingerprint journal";
    const ENDPOINT: &str = "addr socket port";
    const ADMISSION: &str = "workers max-jobs max-queued-runs";
    let spec = "alg n t b seed";
    Some(match cmd {
        "run" => (
            format!("{spec} adversary value"),
            "source-faulty trace no-early-stop",
        ),
        "plan" => (spec.to_string(), ""),
        "compose" => ("n t spec seed adversary".to_string(), "run no-early-stop"),
        "gauntlet" | "stability" => (spec.to_string(), "no-early-stop"),
        "sweep" => (GRID.to_string(), "source-faulty no-early-stop"),
        "record" => (format!("{spec} adversary value out"), "source-faulty"),
        "serve" => (
            format!("{ENDPOINT} {ADMISSION} conn-jobs send-buffer journal"),
            "",
        ),
        "submit" => (
            format!("{GRID} {ENDPOINT} timeout deadline-ms retry-attempts"),
            "source-faulty no-early-stop shutdown",
        ),
        "ping" => (format!("{ENDPOINT} timeout timeout-ms attempts"), ""),
        "hammer" => (
            format!(
                "{ADMISSION} connections jobs-per-conn seeds deadline-ms retry-attempts chaos seed"
            ),
            "",
        ),
        "bounds" => ("n".to_string(), ""),
        "list" => (String::new(), ""),
        _ => return None,
    })
}

/// Splits `args` into valued flags and switches, rejecting anything
/// `cmd` does not accept: a stale flag must fail loudly, not silently
/// run the default path.
fn parse_flags(cmd: &str, args: &[String]) -> (HashMap<String, String>, Vec<String>) {
    let Some((valued, switches)) = accepted_flags(cmd) else {
        usage()
    };
    let listed = |names: &str, name: &str| names.split_whitespace().any(|known| known == name);
    let mut flags = HashMap::new();
    let mut toggles = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let Some(name) = args[i].strip_prefix("--") else {
            eprintln!("unexpected argument '{}'", args[i]);
            usage();
        };
        if listed(switches, name) {
            toggles.push(name.to_string());
            i += 1;
        } else if name == "jobs" || listed(&valued, name) {
            let Some(value) = args.get(i + 1) else {
                eprintln!("--{name} expects a value");
                usage();
            };
            flags.insert(name.to_string(), value.clone());
            i += 2;
        } else {
            eprintln!("unknown flag '--{name}' for `sg {cmd}`");
            usage();
        }
    }
    (flags, toggles)
}

/// `--no-early-stop`: the run executes its full static schedule.
fn run_mode(mut config: RunConfig, toggles: &[String]) -> RunConfig {
    config.early_stopping = !toggles.iter().any(|t| t == "no-early-stop");
    config
}

fn parse_usize(flags: &HashMap<String, String>, key: &str) -> Option<usize> {
    flags.get(key).map(|v| {
        v.parse().unwrap_or_else(|_| {
            eprintln!("--{key} expects a number, got '{v}'");
            usage();
        })
    })
}

fn algorithm(name: &str, b: usize) -> AlgorithmSpec {
    match name {
        "plain-exponential" => AlgorithmSpec::PlainExponential,
        "exponential" => AlgorithmSpec::Exponential,
        "exponential-prime" => AlgorithmSpec::ExponentialPrime,
        "algorithm-a" | "a" => AlgorithmSpec::AlgorithmA { b },
        "algorithm-b" | "b" => AlgorithmSpec::AlgorithmB { b },
        "algorithm-c" | "c" => AlgorithmSpec::AlgorithmC,
        "hybrid" => AlgorithmSpec::Hybrid { b },
        "phase-king" => AlgorithmSpec::PhaseKing,
        "optimal-king" => AlgorithmSpec::OptimalKing,
        "king-shift" => AlgorithmSpec::KingShift { b },
        "dynamic-king" => AlgorithmSpec::DynamicKing { b },
        "phase-queen" => AlgorithmSpec::PhaseQueen,
        "dolev-strong" => AlgorithmSpec::DolevStrong,
        other => {
            eprintln!("unknown algorithm '{other}' (try `sg list`)");
            exit(2);
        }
    }
}

fn adversary(name: &str, source_faulty: bool, seed: u64) -> Box<dyn Adversary> {
    let sel = if source_faulty {
        FaultSelection::with_source()
    } else {
        FaultSelection::without_source()
    };
    match name {
        "none" => Box::new(NoFaults),
        "silent" => Box::new(Silent::new(sel)),
        "crash" => Box::new(Crash::new(sel, 2)),
        "random-liar" => Box::new(RandomLiar::new(sel, seed)),
        "two-faced" => Box::new(TwoFaced::new(sel)),
        "equivocating-source" => Box::new(EquivocatingSource::new(FaultSelection::with_source())),
        "stealth" => Box::new(Stealth::new(sel)),
        "chain-revealer" => Box::new(ChainRevealer::new(sel, 2, 2, seed)),
        "double-talk" => Box::new(DoubleTalk::new(sel)),
        // The wire-portable link/schedule families at their suite shapes;
        // `sweep` exposes the tuning knobs (--split, --period, ...).
        "partition" => Box::new(Partition::new(sel.limit(1), 1, 2, 3)),
        "omission" => Box::new(Omission::new(sel, 2, 0)),
        "equivocate" => Box::new(Equivocate::new(sel, 3, 1)),
        "adaptive" => Box::new(Adaptive::new(sel, vec![2, 4])),
        other => {
            eprintln!("unknown adversary '{other}' (try `sg list`)");
            exit(2);
        }
    }
}

fn cmd_list() {
    println!("algorithms:");
    for a in [
        "plain-exponential",
        "exponential",
        "exponential-prime",
        "algorithm-a (needs --b)",
        "algorithm-b (needs --b)",
        "algorithm-c",
        "hybrid (needs --b)",
        "phase-king",
        "optimal-king",
        "king-shift (needs --b)",
        "dynamic-king (needs --b)",
        "phase-queen",
        "dolev-strong",
    ] {
        println!("  {a}");
    }
    println!("adversaries:");
    for a in [
        "none",
        "silent",
        "crash",
        "random-liar",
        "two-faced",
        "equivocating-source",
        "stealth",
        "chain-revealer",
        "double-talk",
        "partition",
        "omission",
        "equivocate",
        "adaptive",
    ] {
        println!("  {a}");
    }
}

fn cmd_bounds(n: usize) {
    println!("resilience at n = {n}:");
    println!("  exponential / algorithm A / hybrid : t <= {}", t_a(n));
    println!("  algorithm B / phase king           : t <= {}", t_b(n));
    println!("  algorithm C                        : t <= {}", t_c(n));
    println!(
        "  dolev-strong (authenticated)       : t <= {}",
        n.saturating_sub(2)
    );
    let ta = t_a(n);
    if ta >= 3 {
        println!("\nround counts (t at each algorithm's maximum):");
        println!("  b   A(b)   B(b)   hybrid(b)   [exponential/C: t+1]");
        for b in 3..=ta {
            let a = algorithm_a_rounds_exact(ta, b);
            let bb = if b < t_b(n) && t_b(n) >= 2 {
                algorithm_b_rounds_exact(t_b(n), b).to_string()
            } else {
                "-".to_string()
            };
            let h = HybridSchedule::compute(n, b).total_rounds();
            println!("  {b:<3} {a:<6} {bb:<6} {h}");
        }
    }
}

fn cmd_plan(flags: &HashMap<String, String>) {
    let alg = flags
        .get("alg")
        .map(String::as_str)
        .unwrap_or_else(|| usage());
    let b = parse_usize(flags, "b").unwrap_or(3);
    let t = parse_usize(flags, "t").unwrap_or_else(|| usage());
    let n = parse_usize(flags, "n").unwrap_or(3 * t + 1);
    let spec = algorithm(alg, b);
    match spec.plan(n, t) {
        Some(plan) => print!(
            "{}",
            render_plan(&format!("{} (n={n}, t={t})", spec.name()), &plan)
        ),
        None => println!(
            "{} is not plan-driven; it runs {} rounds",
            spec.name(),
            spec.rounds(n, t)
        ),
    }
}

fn cmd_run(flags: &HashMap<String, String>, toggles: &[String]) {
    let alg = flags
        .get("alg")
        .map(String::as_str)
        .unwrap_or_else(|| usage());
    let n = parse_usize(flags, "n").unwrap_or_else(|| usage());
    let b = parse_usize(flags, "b").unwrap_or(3);
    let spec = algorithm(alg, b);
    let t = parse_usize(flags, "t").unwrap_or_else(|| spec.max_resilience(n));
    let seed = parse_usize(flags, "seed").unwrap_or(7) as u64;
    let value = parse_usize(flags, "value").unwrap_or(1) as u16;
    let source_faulty = toggles.iter().any(|t| t == "source-faulty");
    let trace = toggles.iter().any(|t| t == "trace");
    let adv_name = flags
        .get("adversary")
        .map(String::as_str)
        .unwrap_or("chain-revealer");

    let mut config = run_mode(
        RunConfig::new(n, t).with_source_value(Value(value)),
        toggles,
    );
    if trace {
        config = config.with_trace();
    }
    let mut adv = adversary(adv_name, source_faulty, seed);
    let outcome = match execute(spec, &config, adv.as_mut()) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("cannot run: {e}");
            exit(1);
        }
    };

    println!("algorithm : {}", spec.name());
    println!("system    : n={n} t={t} source=P0 value={value}");
    println!(
        "adversary : {} corrupting {}",
        outcome.adversary, outcome.faulty
    );
    println!(
        "rounds    : {} of {} scheduled{}",
        outcome.rounds_used,
        outcome.scheduled_rounds,
        if outcome.early_stopped {
            " (early stop)"
        } else {
            ""
        }
    );
    println!(
        "messages  : total {} ({} bits), largest {} values",
        outcome.metrics.total_messages(),
        outcome.metrics.total_bits(),
        outcome.metrics.max_message_values()
    );
    println!("local ops : max {}", outcome.metrics.max_local_ops());
    println!("agreement : {}", outcome.agreement());
    println!("validity  : {:?}", outcome.validity());
    println!("decision  : {:?}", outcome.decision());
    if trace {
        println!("\ntrace (discoveries and shifts):");
        for e in outcome.trace.entries() {
            match &e.event {
                TraceEvent::Discovered {
                    suspect,
                    during_conversion,
                } => println!(
                    "  round {:>2}  {} discovered {suspect}{}",
                    e.round,
                    e.who,
                    if *during_conversion {
                        " (conversion)"
                    } else {
                        ""
                    }
                ),
                TraceEvent::Shift {
                    conversion,
                    preferred,
                } => {
                    println!(
                        "  round {:>2}  {} shifted via {conversion}, prefers {preferred}",
                        e.round, e.who
                    );
                }
                _ => {}
            }
        }
    }
    if !outcome.agreement() {
        exit(1);
    }
}

/// Parses a composition DSL like `a:3x2,b:3x1,c:4,king` into a builder.
///
/// Segments: `a:<b>x<blocks>`, `b:<b>x<blocks>` (the `x<blocks>` suffix
/// defaults to 1), `c:<rounds>`, `king`.
fn parse_composition(n: usize, t: usize, spec: &str) -> ShiftPlanBuilder {
    let mut builder = ShiftPlanBuilder::new(n, t);
    for part in spec.split(',') {
        let part = part.trim();
        if part == "king" {
            builder = builder.king_tail();
            continue;
        }
        let Some((kind, rest)) = part.split_once(':') else {
            eprintln!(
                "bad segment '{part}' (want a:<b>x<blocks>, b:<b>x<blocks>, c:<rounds>, king)"
            );
            exit(2);
        };
        let parse = |s: &str| -> usize {
            s.parse().unwrap_or_else(|_| {
                eprintln!("bad number '{s}' in segment '{part}'");
                exit(2);
            })
        };
        let (b, blocks) = match rest.split_once('x') {
            Some((b, blocks)) => (parse(b), parse(blocks)),
            None => (parse(rest), 1),
        };
        builder = match kind {
            "a" => builder.a_blocks(b, blocks),
            "b" => builder.b_blocks(b, blocks),
            "c" => builder.c_tail(b),
            other => {
                eprintln!("unknown segment kind '{other}'");
                exit(2);
            }
        };
    }
    builder
}

fn cmd_compose(flags: &HashMap<String, String>, toggles: &[String]) {
    let n = parse_usize(flags, "n").unwrap_or_else(|| usage());
    let t = parse_usize(flags, "t").unwrap_or_else(|| t_a(n));
    let spec = flags
        .get("spec")
        .map(String::as_str)
        .unwrap_or_else(|| usage());
    let builder = parse_composition(n, t, spec);
    let composition = match builder.build() {
        Ok(c) => c,
        Err(e) => {
            println!("REJECTED: {e}");
            exit(1);
        }
    };
    println!("composition : {}", composition.name());
    println!("system      : n={n} t={t}");
    println!("rounds      : {}", composition.rounds());
    println!("verdict     : safe (all §4.4 entry and terminal conditions hold)");
    if toggles.iter().any(|t| t == "run") {
        let seed = parse_usize(flags, "seed").unwrap_or(7) as u64;
        let adv_name = flags
            .get("adversary")
            .map(String::as_str)
            .unwrap_or("chain-revealer");
        let config = run_mode(RunConfig::new(n, t).with_source_value(Value(1)), toggles);
        let mut adv = adversary(adv_name, false, seed);
        let outcome = composition.execute(&config, adv.as_mut());
        println!(
            "adversary   : {} corrupting {}",
            outcome.adversary, outcome.faulty
        );
        println!("agreement   : {}", outcome.agreement());
        println!("validity    : {:?}", outcome.validity());
        println!("decision    : {:?}", outcome.decision());
        if !outcome.agreement() {
            exit(1);
        }
    }
}

fn cmd_gauntlet(flags: &HashMap<String, String>, toggles: &[String]) {
    let alg = flags
        .get("alg")
        .map(String::as_str)
        .unwrap_or_else(|| usage());
    let n = parse_usize(flags, "n").unwrap_or_else(|| usage());
    let b = parse_usize(flags, "b").unwrap_or(3);
    let spec = algorithm(alg, b);
    let t = parse_usize(flags, "t").unwrap_or_else(|| spec.max_resilience(n));
    let seed = parse_usize(flags, "seed").unwrap_or(7) as u64;
    println!(
        "gauntlet: {} at n={n}, t={t}, both source values, full adversary suite",
        spec.name()
    );
    let mut failures = 0usize;
    for mut adv in standard_suite(seed) {
        for value in [Value(0), Value(1)] {
            let config = run_mode(RunConfig::new(n, t).with_source_value(value), toggles);
            match execute(spec, &config, adv.as_mut()) {
                Ok(outcome) => {
                    let ok = outcome.agreement() && outcome.validity().unwrap_or(true);
                    if !ok {
                        failures += 1;
                    }
                    println!(
                        "  {:<40} value={} rounds={:<3} {}",
                        outcome.adversary,
                        value,
                        outcome.rounds_used,
                        if ok { "ok" } else { "VIOLATION" }
                    );
                }
                Err(e) => {
                    eprintln!("cannot run: {e}");
                    exit(1);
                }
            }
        }
    }
    if failures > 0 {
        println!("{failures} violations");
        exit(1);
    }
    println!("all executions reached agreement with validity");
}

fn cmd_stability(flags: &HashMap<String, String>, toggles: &[String]) {
    let alg = flags
        .get("alg")
        .map(String::as_str)
        .unwrap_or_else(|| usage());
    let n = parse_usize(flags, "n").unwrap_or_else(|| usage());
    let b = parse_usize(flags, "b").unwrap_or(3);
    let spec = algorithm(alg, b);
    let t = parse_usize(flags, "t").unwrap_or_else(|| spec.max_resilience(n));
    let seed = parse_usize(flags, "seed").unwrap_or(7) as u64;
    println!(
        "decision lock-in for {} at n={n}, t={t} (staggered split-brain adversary):",
        spec.name()
    );
    println!("  f   rounds  lock-in  head-room");
    for f in 0..=t {
        let config = run_mode(RunConfig::new(n, t), toggles)
            .with_source_value(Value(1))
            .with_trace();
        let _ = seed;
        let mut none = NoFaults;
        let mut split;
        let adv: &mut dyn Adversary = if f == 0 {
            &mut none
        } else {
            split = StaggeredSplit::new(FaultSelection::with_source().limit(f), 2, b);
            &mut split
        };
        let outcome = match execute(spec, &config, adv) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("cannot run: {e}");
                exit(1);
            }
        };
        let report = lock_in(&outcome);
        println!(
            "  {:<3} {:<7} {:<8} {}",
            f,
            outcome.rounds_used,
            report.system_lock_in().unwrap_or(0),
            report.headroom().unwrap_or(0)
        );
    }
}

/// Builds the single-cell sweep grid described by the shared
/// `sweep`/`submit` flags (`--alg --n [--t] [--b] [--seeds]
/// [--adversary] [--base-seed] [--source-faulty] [--no-early-stop]`).
fn sweep_plan_from_flags(
    flags: &HashMap<String, String>,
    toggles: &[String],
) -> shifting_gears::analysis::SweepPlan {
    use shifting_gears::analysis::{AdversaryFamily, SweepConfig, SweepPlan};

    let alg = flags
        .get("alg")
        .map(String::as_str)
        .unwrap_or_else(|| usage());
    let n = parse_usize(flags, "n").unwrap_or_else(|| usage());
    let b = parse_usize(flags, "b").unwrap_or(3);
    let spec = algorithm(alg, b);
    let t = parse_usize(flags, "t").unwrap_or_else(|| spec.max_resilience(n));
    let seeds = parse_usize(flags, "seeds").unwrap_or(100) as u64;
    if seeds == 0 {
        eprintln!("--seeds must be at least 1");
        exit(2);
    }
    let source_faulty = toggles.iter().any(|t| t == "source-faulty");
    let mut sel = if source_faulty {
        FaultSelection::with_source()
    } else {
        FaultSelection::without_source()
    };
    // The actual-fault-budget knob: corrupt only f <= t processors, the
    // regime where early stopping pays (rounds-vs-f sweeps).
    if let Some(f) = parse_usize(flags, "f") {
        sel = sel.limit(f);
    }
    let adv_name = flags
        .get("adversary")
        .map(String::as_str)
        .unwrap_or("random-liar");
    let family = match adv_name {
        "none" => AdversaryFamily::no_faults(),
        "random-liar" => AdversaryFamily::random_liar(sel),
        "chain-revealer" => AdversaryFamily::chain_revealer(sel, 2, 2),
        "crash" => AdversaryFamily::crash(sel, 2),
        "silent" => AdversaryFamily::silent(sel),
        "partition" => AdversaryFamily::partition(
            sel.limit(parse_usize(flags, "f").unwrap_or(1)),
            parse_usize(flags, "split").unwrap_or(1),
            parse_usize(flags, "from").unwrap_or(2),
            parse_usize(flags, "to").unwrap_or(3),
        ),
        "omission" => AdversaryFamily::omission(
            sel,
            parse_usize(flags, "period").unwrap_or(2),
            parse_usize(flags, "phase").unwrap_or(0),
        ),
        "equivocate" => AdversaryFamily::equivocate(
            sel,
            parse_usize(flags, "split").unwrap_or((n / 2).max(1)),
            parse_usize(flags, "start").unwrap_or(1),
        ),
        "adaptive" => AdversaryFamily::adaptive(sel, parse_schedule(flags)),
        "trace" => {
            let path = flags
                .get("trace-file")
                .map(String::as_str)
                .unwrap_or_else(|| {
                    eprintln!("--adversary trace needs --trace-file <path>");
                    exit(2);
                });
            let trace = load_trace(path);
            if trace.n != n || trace.t != t {
                eprintln!(
                    "trace in '{path}' was recorded at (n={}, t={}), grid is (n={n}, t={t})",
                    trace.n, trace.t
                );
                exit(2);
            }
            AdversaryFamily::replay(trace).unwrap_or_else(|e| {
                eprintln!("trace in '{path}' does not validate: {e}");
                exit(2);
            })
        }
        other => {
            eprintln!(
                "sweep supports adversaries none|random-liar|chain-revealer|crash|silent|\
                 partition|omission|equivocate|adaptive|trace, got '{other}'"
            );
            exit(2);
        }
    };
    let base_seed = parse_usize(flags, "base-seed").unwrap_or(0) as u64;
    let mut plan = SweepPlan::new(vec![SweepConfig::traced(spec, n, t)], vec![family], seeds)
        .with_base_seed(base_seed);
    plan.early_stopping = !toggles.iter().any(|t| t == "no-early-stop");
    plan
}

/// Parses `--schedule r,r,..` — one activation round per corrupted rank
/// for the adaptive family; defaults to the standard suite's `2,4`.
fn parse_schedule(flags: &HashMap<String, String>) -> Vec<usize> {
    let Some(raw) = flags.get("schedule") else {
        return vec![2, 4];
    };
    raw.split(',')
        .map(|part| {
            part.trim().parse().unwrap_or_else(|_| {
                eprintln!("--schedule expects comma-separated round numbers, got '{raw}'");
                exit(2);
            })
        })
        .collect()
}

/// Reads and parses a JSON file, exiting with a diagnostic on failure.
fn read_json(path: &str) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read '{path}': {e}");
        exit(2);
    });
    Json::parse(&text).unwrap_or_else(|e| {
        eprintln!("'{path}' is not valid JSON: {e}");
        exit(2);
    })
}

/// Extracts the adversary trace from an `sg-trace/1` or `sg-scenario/1`
/// JSON file (the scenario form carries a trace inside it).
fn load_trace(path: &str) -> AdversaryTrace {
    let json = read_json(path);
    let schema = json.get("schema").and_then(Json::as_str).unwrap_or("");
    let parsed = if schema == scenario::SCENARIO_SCHEMA {
        Scenario::from_json(&json).map(|s| s.trace)
    } else {
        AdversaryTrace::from_json(&json)
    };
    parsed.unwrap_or_else(|e| {
        eprintln!("cannot parse trace from '{path}': {e}");
        exit(2);
    })
}

/// Enforces `--expect-fingerprint`: on mismatch, reports and exits
/// non-zero so `&&` chains in CI cannot silently pass.
fn check_expected_fingerprint(flags: &HashMap<String, String>, actual: u64) {
    use shifting_gears::analysis::Fingerprint;

    let Some(expected) = flags.get("expect-fingerprint") else {
        return;
    };
    let Some(expected) = Fingerprint::parse_hex(expected) else {
        eprintln!("--expect-fingerprint expects a 16-digit hex fingerprint, got '{expected}'");
        exit(2);
    };
    match Fingerprint::cross_check(expected, actual) {
        Ok(line) => println!("{line}"),
        Err(report) => {
            eprintln!("{report}");
            exit(1);
        }
    }
}

/// Opens the result journal at `path`, exiting with the structured
/// error (locked by a live writer, unreadable directory, …) on failure.
fn open_journal(path: &str) -> shifting_gears::journal::Journal {
    match shifting_gears::journal::Journal::open(path) {
        Ok(journal) => {
            for warning in journal.warnings() {
                eprintln!("{warning}");
            }
            journal
        }
        Err(e) => {
            eprintln!("cannot open journal '{path}': {e}");
            exit(1);
        }
    }
}

fn cmd_sweep(flags: &HashMap<String, String>, toggles: &[String]) {
    let plan = sweep_plan_from_flags(flags, toggles);
    let started = std::time::Instant::now();
    let (report, cached) = match flags.get("journal") {
        None => (plan.run(), None),
        Some(path) => {
            let mut journal = open_journal(path);
            let warm = plan.run_with_journal(&mut journal, shifting_gears::analysis::sweep::jobs());
            for warning in &warm.warnings {
                eprintln!("{warning}");
            }
            (warm.report, Some((warm.hits, warm.computed)))
        }
    };
    let wall = started.elapsed();
    print!("{}", report.render());
    println!(
        "{} runs in {:.1} ms on {} worker(s) — {:.0} runs/sec",
        report.total_runs,
        wall.as_secs_f64() * 1e3,
        shifting_gears::analysis::sweep::jobs(),
        report.total_runs as f64 / wall.as_secs_f64().max(1e-9),
    );
    if let Some((hits, computed)) = cached {
        println!(
            "journal: {hits} cell(s) cached, {computed} computed (epoch {})",
            plan.epoch()
        );
    }
    println!("report fingerprint: {}", report.fingerprint_hex());
    check_expected_fingerprint(flags, report.fingerprint());
}

/// `sg record`: one run of a named strategy under the recording wrapper,
/// written out as `sg-scenario/1` JSON (to `--out`, or stdout).
fn cmd_record(flags: &HashMap<String, String>, toggles: &[String]) {
    use shifting_gears::analysis::SweepConfig;

    let alg = flags
        .get("alg")
        .map(String::as_str)
        .unwrap_or_else(|| usage());
    let n = parse_usize(flags, "n").unwrap_or_else(|| usage());
    let b = parse_usize(flags, "b").unwrap_or(3);
    let spec = algorithm(alg, b);
    let t = parse_usize(flags, "t").unwrap_or_else(|| spec.max_resilience(n));
    let seed = parse_usize(flags, "seed").unwrap_or(0) as u64;
    let source_faulty = toggles.iter().any(|t| t == "source-faulty");
    let name = flags
        .get("adversary")
        .map(String::as_str)
        .unwrap_or("random-liar");
    let adversary = adversary(name, source_faulty, seed);
    let mut config = SweepConfig::traced(spec, n, t);
    if let Some(v) = parse_usize(flags, "value") {
        let Ok(v) = u16::try_from(v) else {
            eprintln!("--value must fit in 16 bits, got {v}");
            exit(2);
        };
        config.source_value = Value(v);
    }
    let (recorded, _) = match scenario::record(&config, adversary) {
        Ok(pair) => pair,
        Err(e) => {
            eprintln!("cannot record: {e}");
            exit(1);
        }
    };
    let text = recorded.to_json().to_string();
    let v = &recorded.verdict;
    match flags.get("out") {
        Some(path) => {
            if let Err(e) = std::fs::write(path, text.as_bytes()) {
                eprintln!("cannot write '{path}': {e}");
                exit(1);
            }
            println!(
                "recorded {} on {alg} (n={n}, t={t}): agreement={}, rounds={}{} -> {path}",
                recorded.trace.family,
                v.agreement,
                v.rounds_used,
                if v.early_stopped { " (early)" } else { "" },
            );
        }
        None => println!("{text}"),
    }
}

/// `sg replay`: re-execute recorded scenarios and check each verdict
/// reproduces bit-exactly. Exits non-zero on any parse failure, replay
/// desync, or verdict drift — the CI corpus gate.
fn cmd_replay(args: &[String]) {
    let mut files = Vec::new();
    let mut quiet = false;
    for a in args {
        match a.as_str() {
            "--quiet" => quiet = true,
            other if other.starts_with("--") => {
                eprintln!("unknown replay flag '{other}'");
                usage();
            }
            path => files.push(path.to_string()),
        }
    }
    if files.is_empty() {
        eprintln!("replay needs at least one scenario file");
        usage();
    }
    let mut failures = 0usize;
    for path in &files {
        let json = read_json(path);
        let outcome = match Scenario::from_json(&json) {
            Err(e) => Err(format!("parse error: {e}")),
            Ok(recorded) => match scenario::replay(&recorded) {
                Err(e) => Err(format!("replay error: {e}")),
                Ok(fresh) if fresh == recorded.verdict => Ok((recorded, fresh)),
                Ok(fresh) => Err(format!(
                    "verdict drift: recorded {:?}, replayed {:?}",
                    recorded.verdict, fresh
                )),
            },
        };
        match outcome {
            Ok((recorded, fresh)) => {
                if !quiet {
                    println!(
                        "ok   {path}: {} (agreement={}, rounds={}{})",
                        recorded.trace.family,
                        fresh.agreement,
                        fresh.rounds_used,
                        if fresh.early_stopped {
                            ", early-stopped"
                        } else {
                            ""
                        },
                    );
                }
            }
            Err(msg) => {
                failures += 1;
                eprintln!("FAIL {path}: {msg}");
            }
        }
    }
    println!("{} scenario(s) replayed, {failures} failed", files.len());
    if failures > 0 {
        exit(1);
    }
}

/// The default daemon address shared by `serve`, `submit`, and `ping`.
const DEFAULT_ADDR: &str = "127.0.0.1:7411";

fn serve_addr(flags: &HashMap<String, String>) -> String {
    if let Some(socket) = flags.get("socket") {
        return format!("unix:{socket}");
    }
    if let Some(port) = parse_usize(flags, "port") {
        return format!("127.0.0.1:{port}");
    }
    flags
        .get("addr")
        .cloned()
        .unwrap_or_else(|| DEFAULT_ADDR.to_string())
}

fn connect_client(flags: &HashMap<String, String>) -> shifting_gears::serve::Client {
    use shifting_gears::serve::Client;

    let addr = serve_addr(flags);
    let timeout = parse_usize(flags, "timeout").unwrap_or(10) as u64;
    match Client::connect(&addr, std::time::Duration::from_secs(timeout)) {
        Ok(client) => client,
        Err(e) => {
            eprintln!("cannot reach daemon at {addr}: {e}");
            exit(1);
        }
    }
}

/// Arranges for SIGTERM to drain the daemon (finish running jobs,
/// reject new submits, then `bye`) instead of killing it mid-job. The
/// handler only flips an atomic; a watcher thread does the real work —
/// the only async-signal-safe shape.
#[cfg(unix)]
fn install_sigterm_drain(drainer: shifting_gears::serve::Drainer) {
    use std::sync::atomic::{AtomicBool, Ordering};

    static TERM: AtomicBool = AtomicBool::new(false);
    extern "C" fn on_term(_signum: i32) {
        TERM.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, on_term as extern "C" fn(i32) as usize);
    }
    let _ = std::thread::Builder::new()
        .name("sg-serve-sigterm".to_string())
        .spawn(move || loop {
            if TERM.load(Ordering::SeqCst) {
                // Log before initiating: an idle daemon stops inside
                // `drain()`, and main may exit before this thread gets
                // another word in.
                eprintln!("SIGTERM: draining");
                let active = drainer.drain();
                eprintln!("SIGTERM: drain begun ({active} active job(s))");
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(50));
        });
}

fn cmd_serve(flags: &HashMap<String, String>) {
    use shifting_gears::serve::{serve, Bind, ServeOptions};

    let bind = Bind::parse(&serve_addr(flags));
    let defaults = ServeOptions::default();
    let options = ServeOptions {
        workers: parse_usize(flags, "workers").unwrap_or(0),
        max_jobs: parse_usize(flags, "max-jobs").unwrap_or(defaults.max_jobs),
        max_queued_runs: parse_usize(flags, "max-queued-runs")
            .map_or(defaults.max_queued_runs, |n| n as u64),
        max_jobs_per_conn: parse_usize(flags, "conn-jobs").unwrap_or(defaults.max_jobs_per_conn),
        send_buffer: parse_usize(flags, "send-buffer").unwrap_or(defaults.send_buffer),
        journal: flags.get("journal").map(std::path::PathBuf::from),
    };
    let handle = match serve(&bind, options) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("cannot bind {bind:?}: {e}");
            exit(1);
        }
    };
    #[cfg(unix)]
    install_sigterm_drain(handle.drainer());
    match handle.tcp_addr() {
        Some(addr) => println!("sg-serve listening on {addr} (sg-serve/1)"),
        None => println!("sg-serve listening on {} (sg-serve/1)", serve_addr(flags)),
    }
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    handle.wait();
    println!("sg-serve stopped");
}

/// `sg submit` exit codes scripts can branch on: the daemon was full,
/// the daemon is going away, the job blew its own deadline.
const EXIT_SATURATED: i32 = 3;
const EXIT_DRAINING: i32 = 4;
const EXIT_DEADLINE: i32 = 5;

fn cmd_submit(flags: &HashMap<String, String>, toggles: &[String]) {
    use shifting_gears::serve::{ErrorCode, RejectCode, RetryPolicy, ServeError};

    let mut client = connect_client(flags);
    if toggles.iter().any(|t| t == "shutdown") {
        match client.shutdown_server() {
            Ok(()) => {
                println!("daemon acknowledged shutdown");
                return;
            }
            Err(e) => {
                eprintln!("shutdown failed: {e}");
                exit(1);
            }
        }
    }
    let plan = sweep_plan_from_flags(flags, toggles);
    let deadline_ms = parse_usize(flags, "deadline-ms").map(|ms| ms as u64);
    let mut policy = RetryPolicy::deterministic(plan.base_seed);
    policy.attempts = parse_usize(flags, "retry-attempts").map_or(1, |n| n as u32);
    let handle = match client.submit_with_retry(&plan, deadline_ms, &policy) {
        Ok(handle) => handle,
        Err(ServeError::Rejected {
            code,
            detail,
            retry_after_ms,
        }) => {
            // One structured line + a distinct exit code per reason, so
            // scripts can branch without parsing prose.
            let hint = retry_after_ms.map_or(String::new(), |ms| format!(" retry_after_ms={ms}"));
            eprintln!(
                "submit rejected: code={}{hint} attempts={} detail=\"{detail}\"",
                code.as_str(),
                policy.attempts.max(1),
            );
            exit(match code {
                RejectCode::Saturated => EXIT_SATURATED,
                RejectCode::Draining => EXIT_DRAINING,
            });
        }
        Err(e) => {
            eprintln!("submit failed: {e}");
            exit(1);
        }
    };
    println!(
        "job {} accepted: {} cell(s), {} runs",
        handle.job, handle.cells, handle.total_runs
    );
    // `--journal` makes the client write-through: every streamed cell is
    // appended to a local journal under the plan's epoch — the one the
    // daemon computed it under — so a later `sg sweep --journal` (or a
    // journal-backed daemon fed the same directory) starts warm.
    let mut journal = flags.get("journal").map(|path| open_journal(path));
    let epoch = plan.epoch();
    let keys = plan.cell_keys();
    let mut text = String::new();
    let streamed = match client.collect(handle, |index, cell| {
        print!("{}", cell.render_line());
        if let Some(journal) = journal.as_mut() {
            if let Some(key) = keys[index] {
                text.clear();
                cell.write_text(&mut text);
                if let Err(e) = journal.append_text(key, epoch, &text) {
                    eprintln!("journal append failed: {e}");
                }
            }
        }
    }) {
        Ok(streamed) => streamed,
        Err(ServeError::Cancelled {
            job,
            cells_streamed,
        }) => {
            eprintln!("job {job} cancelled after {cells_streamed} cell(s)");
            exit(1);
        }
        Err(ServeError::Server {
            code: ErrorCode::DeadlineExceeded,
            detail,
        }) => {
            eprintln!(
                "submit failed: code=deadline-exceeded job={} detail=\"{detail}\"",
                handle.job
            );
            exit(EXIT_DEADLINE);
        }
        Err(e) => {
            eprintln!("stream failed: {e}");
            exit(1);
        }
    };
    println!(
        "job {} complete: {} runs in {:.1} ms (server wall) — report fingerprint: {:016x}",
        streamed.job, streamed.report.total_runs, streamed.wall_ms, streamed.fingerprint
    );
    if streamed.cached_cells > 0 {
        println!(
            "daemon journal: {} of {} cell(s) served from cache",
            streamed.cached_cells,
            streamed.report.cells.len()
        );
    }
    check_expected_fingerprint(flags, streamed.fingerprint);
}

/// `sg journal stat|compact <dir>`: inspect or compact a result journal.
fn cmd_journal(args: &[String]) {
    let (Some(op), Some(path)) = (args.first(), args.get(1)) else {
        eprintln!("journal needs an operation and a directory: sg journal stat|compact <dir>");
        usage();
    };
    let mut journal = open_journal(path);
    match op.as_str() {
        "stat" => {
            let stats = match journal.stat() {
                Ok(stats) => stats,
                Err(e) => {
                    eprintln!("cannot stat '{path}': {e}");
                    exit(1);
                }
            };
            println!("journal {path} ({}):", shifting_gears::journal::SCHEMA);
            println!("  segments      : {}", stats.segments);
            println!("  live entries  : {}", stats.entries);
            println!("  engine epochs : {}", stats.epochs);
            println!("  superseded    : {}", stats.superseded);
            println!("  corrupt lines : {}", stats.corrupt_lines);
            println!("  bytes on disk : {}", stats.bytes);
            let epoch = |early| shifting_gears::analysis::epoch_for(ENGINE_VERSION_TAG, early);
            println!(
                "  this build    : epoch {} (early stopping), {} (fixed length)",
                epoch(true),
                epoch(false)
            );
        }
        "compact" => match journal.compact() {
            Ok(report) => println!(
                "compacted {path}: {} segment(s) removed, {} entries kept, {} line(s) dropped",
                report.segments_removed, report.entries_kept, report.lines_dropped
            ),
            Err(e) => {
                eprintln!("cannot compact '{path}': {e}");
                exit(1);
            }
        },
        other => {
            eprintln!("unknown journal operation '{other}' (stat|compact)");
            usage();
        }
    }
}

fn cmd_ping(flags: &HashMap<String, String>) {
    use shifting_gears::serve::{Client, RetryPolicy};

    let addr = serve_addr(flags);
    // With --attempts / --timeout-ms the probe is *bounded*: at most
    // `attempts` connect tries with jittered backoff capped at
    // `timeout-ms` per delay, then a clear failure and exit 1. That is
    // what CI's wait-for-startup gate loops on. Without either flag the
    // legacy 10 s patient connect stays.
    let attempts = parse_usize(flags, "attempts");
    let timeout_ms = parse_usize(flags, "timeout-ms");
    let mut client = if attempts.is_some() || timeout_ms.is_some() {
        let policy = RetryPolicy {
            attempts: attempts.unwrap_or(5) as u32,
            base_ms: 40,
            max_ms: timeout_ms.unwrap_or(1_000) as u64,
            seed: 0x5047,
        };
        match Client::connect_with_retry(&addr, &policy) {
            Ok(client) => client,
            Err(e) => {
                eprintln!(
                    "daemon at {addr} unreachable after {} attempt(s): {e}",
                    policy.attempts.max(1)
                );
                exit(1);
            }
        }
    } else {
        connect_client(flags)
    };
    match client.ping_stats() {
        Ok((hits, misses)) => {
            println!("pong from {addr} (journal: {hits} hit(s), {misses} miss(es))")
        }
        Err(e) => {
            eprintln!("ping failed: {e}");
            exit(1);
        }
    }
}

fn cmd_hammer(flags: &HashMap<String, String>) {
    use shifting_gears::serve::{run_load, ChaosSpec, LoadOptions};

    let defaults = LoadOptions::default();
    let seed = parse_usize(flags, "seed").map_or(defaults.base_seed, |s| s as u64);
    let chaos = flags.get("chaos").map(|mode| match mode.as_str() {
        "gentle" => ChaosSpec::gentle(seed),
        "hostile" => ChaosSpec::hostile(seed),
        other => {
            eprintln!("--chaos expects gentle|hostile, got '{other}'");
            exit(2);
        }
    });
    let options = LoadOptions {
        connections: parse_usize(flags, "connections").unwrap_or(defaults.connections),
        jobs_per_connection: parse_usize(flags, "jobs-per-conn")
            .unwrap_or(defaults.jobs_per_connection),
        seeds_per_cell: parse_usize(flags, "seeds").map_or(defaults.seeds_per_cell, |s| s as u64),
        workers: parse_usize(flags, "workers").unwrap_or(defaults.workers),
        max_jobs: parse_usize(flags, "max-jobs").unwrap_or(defaults.max_jobs),
        max_queued_runs: parse_usize(flags, "max-queued-runs")
            .map_or(defaults.max_queued_runs, |n| n as u64),
        deadline_ms: parse_usize(flags, "deadline-ms").map(|ms| ms as u64),
        retry_attempts: parse_usize(flags, "retry-attempts")
            .map_or(defaults.retry_attempts, |n| n as u32),
        chaos,
        base_seed: seed,
    };
    let report = run_load(&options);
    print!("{}", report.to_json_string());
    if report.fingerprint_mismatches > 0 {
        eprintln!(
            "{} completed job(s) diverged from the batch fingerprint",
            report.fingerprint_mismatches
        );
        exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { usage() };
    // `replay` and `journal` take positional operands, which
    // parse_flags rejects.
    if cmd == "replay" {
        cmd_replay(&args[1..]);
        return;
    }
    if cmd == "journal" {
        cmd_journal(&args[1..]);
        return;
    }
    let (flags, toggles) = parse_flags(cmd, &args[1..]);
    if let Some(jobs) = parse_usize(&flags, "jobs") {
        shifting_gears::analysis::set_jobs(jobs);
    }
    match cmd.as_str() {
        "run" => cmd_run(&flags, &toggles),
        "plan" => cmd_plan(&flags),
        "compose" => cmd_compose(&flags, &toggles),
        "gauntlet" => cmd_gauntlet(&flags, &toggles),
        "stability" => cmd_stability(&flags, &toggles),
        "sweep" => cmd_sweep(&flags, &toggles),
        "record" => cmd_record(&flags, &toggles),
        "serve" => cmd_serve(&flags),
        "submit" => cmd_submit(&flags, &toggles),
        "ping" => cmd_ping(&flags),
        "hammer" => cmd_hammer(&flags),
        "bounds" => cmd_bounds(parse_usize(&flags, "n").unwrap_or_else(|| usage())),
        "list" => cmd_list(),
        _ => unreachable!("parse_flags rejects unknown subcommands"),
    }
}
