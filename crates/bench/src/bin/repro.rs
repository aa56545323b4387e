//! Regenerates every table and figure of the paper.
//!
//! ```text
//! repro                    # all experiments, full scale, text tables
//! repro --quick            # all experiments, small parameters
//! repro --markdown         # emit GitHub-flavoured markdown (EXPERIMENTS.md)
//! repro --csv              # emit CSV (one block per experiment)
//! repro --jobs 8           # size the sweep engine's worker pool
//! repro --exp t3           # one experiment: p1|t1|t2|t3|t4|tradeoff|dominance|
//!                          #   detect|stability|early-stopping|king|compose|
//!                          #   rounds-vs-f|plans|serve-load
//! repro --exp rounds-vs-f  # the static-vs-dynamic gear table and the tree
//!                          # family's rows across the actual-fault
//!                          # budget, source correct and faulty; writes
//!                          # the committed BENCH_rounds_vs_f.md artifact
//! repro --exp serve-load [--chaos]
//!                          # the serving-path load benchmark: concurrent
//!                          # connections (half through a fault-injecting
//!                          # proxy with --chaos) hammering one daemon;
//!                          # writes BENCH_serve.json (sg-serve-load/1)
//!                          # and exits non-zero on any fingerprint
//!                          # mismatch
//! ```
//!
//! Throughput, latency and the paper's three costs are measured by
//! `bash benchmark/run.sh` (see `BENCHMARK.json`), not here.
//!
//! Unrecognised arguments and unknown experiment ids exit 2 with the
//! usage line.

use std::env;

use sg_analysis::experiments::{
    experiment_compositions, experiment_detect, experiment_dominance, experiment_early_stopping,
    experiment_king, experiment_p1, experiment_rounds_vs_f, experiment_rounds_vs_f_trees,
    experiment_stability, experiment_t1, experiment_t2, experiment_t3, experiment_t4,
    experiment_tradeoff, plan_figures, Scale,
};
use sg_analysis::Table;

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

/// The argument summary printed with every usage error.
const USAGE: &str =
    "usage: repro [--quick] [--markdown | --csv] [--jobs <N>] [--exp <id>] [--chaos]";

fn usage_error(detail: &str) -> ! {
    eprintln!("{detail}\n{USAGE}");
    std::process::exit(2);
}

fn main() {
    let (mut quick, mut markdown, mut csv, mut chaos) = (false, false, false, false);
    let mut jobs = 0usize;
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
            "--jobs" => {
                let v = value();
                jobs = v.parse().unwrap_or_else(|_| {
                    usage_error(&format!("--jobs expects a number, got '{v}'"))
                });
            }
            "--exp" => which = Some(value()),
            other => usage_error(&format!("unrecognised argument '{other}'")),
        }
    }
    let scale = if quick { Scale::Quick } else { Scale::Full };
    sg_analysis::set_jobs(jobs);

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
            // plans, then the tree family, across the actual-fault budget.
            let tables = [
                experiment_rounds_vs_f(scale),
                experiment_rounds_vs_f_trees(scale),
            ];
            let markdown = tables.each_ref().map(Table::to_markdown).join("\n");
            match std::fs::write("BENCH_rounds_vs_f.md", markdown) {
                Ok(()) => println!("wrote BENCH_rounds_vs_f.md"),
                Err(e) => eprintln!("cannot write BENCH_rounds_vs_f.md: {e}"),
            }
            tables.into_iter().for_each(print);
        }
        "serve-load" => experiment_serve_load(scale, jobs, chaos),
        "plans" => {
            if markdown {
                println!("### EXP-F2/F3 — executable round plans (Figures 2 and 3)\n");
                println!("```text\n{}```\n", plan_figures());
            } else {
                println!("{}", plan_figures());
            }
        }
        other => usage_error(&format!(
            "unknown experiment '{other}'\nknown: p1 t1 t2 t3 t4 tradeoff dominance detect \
             stability early-stopping king compose rounds-vs-f plans serve-load"
        )),
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
