//! Drives the built `bench` binary the way `run.sh` does, in `--smoke`
//! mode (2 passes × 0.3 s, single-repetition probes): every workload,
//! every check and every metric name, none of the statistics.

use std::path::Path;
use std::process::{Command, Output};

use serde::json::Value as Json;

/// Scratch directory, relative to the package root the tests run in
/// (and ignored by git): unix socket addresses must stay short.
const OUT: &str = "out/smoke-test";

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bench"))
        .args(args)
        .output()
        .expect("the bench binary runs")
}

fn catalog() -> Json {
    let text =
        std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))
            .expect("BENCHMARK.json is at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(catalog: &Json, list: &str) -> Vec<String> {
    let items = catalog.get(list).and_then(Json::as_arr).expect(list);
    items
        .iter()
        .map(|item| {
            item.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

#[test]
fn smoke_run_reports_every_metric_of_every_workload() {
    let out = format!("{OUT}/all");
    let run = bench(&["run", "--smoke", "--seed", "7", "--out", &out]);
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );

    let catalog = catalog();
    let mut metrics = names(&catalog, "end_to_end");
    metrics.push("failed_share".to_string());
    metrics.extend(names(&catalog, "per_layer"));
    let workloads = names(&catalog, "workloads");
    assert_eq!(workloads.len(), 5);
    for workload in &workloads {
        for metric in &metrics {
            let row = format!("{workload} {metric} ");
            assert!(
                stdout.lines().any(|line| line.starts_with(&row)),
                "no row '{row}'"
            );
        }
        assert!(stdout.contains(&format!("{workload} failed_share ratio 0\n")));
        let trace =
            std::fs::read_to_string(format!("{out}/trace-{workload}.json")).expect("trace file");
        let spans = Json::parse(&trace).expect("trace parses");
        assert!(spans.as_arr().is_some_and(|spans| !spans.is_empty()));
    }

    // The stored results agree with themselves under the compare rule,
    // and hold the facts a reader needs to repeat the run.
    let results = format!("{out}/results.json");
    let doc =
        Json::parse(&std::fs::read_to_string(&results).expect("results.json")).expect("parses");
    for key in [
        "seed",
        "commit",
        "rustc",
        "nproc",
        "available_parallelism",
        "pass_seconds",
        "passes",
    ] {
        assert!(doc.get(key).is_some(), "results.json lacks '{key}'");
    }
    let same = bench(&["compare", &results, &results]);
    assert!(
        same.status.success(),
        "{}",
        String::from_utf8_lossy(&same.stdout)
    );
    assert!(String::from_utf8_lossy(&same.stdout).ends_with(" 0 regression(s)\n"));
}

#[test]
fn one_workload_with_trace_flag_ends_in_the_contract_line() {
    let out = format!("{OUT}/one");
    let run = bench(&[
        "run",
        "--workload",
        "king-fullround",
        "--seed",
        "3",
        "--seconds",
        "1",
        "--trace",
        "0",
        "--smoke",
        "--out",
        &out,
    ]);
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
    let stdout = String::from_utf8_lossy(&run.stdout);
    let line = Json::parse(stdout.lines().last().expect("output")).expect("the last line is JSON");
    let Json::Obj(fields) = &line else {
        panic!("the result line is an object");
    };
    let keys: Vec<&str> = fields.iter().map(|(key, _)| key.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(line.get("failed").and_then(Json::as_u64), Some(0));
    assert!(line.get("attempted").and_then(Json::as_u64) >= Some(1));
    let Some(Json::Obj(metrics)) = line.get("metrics") else {
        panic!("metrics is an object");
    };
    let reported: Vec<&str> = metrics.iter().map(|(name, _)| name.as_str()).collect();
    assert_eq!(reported, names(&catalog(), "end_to_end"));
    let rounds = line
        .get("metrics")
        .and_then(|m| m.get("rounds_mean"))
        .and_then(|m| m.get("value"));
    let rounds = rounds.and_then(Json::as_f64).expect("rounds_mean");
    assert!(
        (rounds - 15.074).abs() < 0.001,
        "king-fullround runs full schedules: {rounds}"
    );
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    let run = bench(&["run", "--workload", "no-such-workload", "--out", OUT]);
    assert_eq!(run.status.code(), Some(2));
    assert!(run.stdout.is_empty());
    let stray = bench(&["run", "--bogus"]);
    assert_eq!(stray.status.code(), Some(2));
}
