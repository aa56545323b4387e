//! End-to-end tests of the `sg` command-line driver.

use std::process::Command;

fn sg(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_sg"))
        .args(args)
        .output()
        .expect("spawn sg");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).to_string(),
        String::from_utf8_lossy(&out.stderr).to_string(),
    )
}

#[test]
fn run_hybrid_reports_agreement() {
    let (ok, stdout, _) = sg(&[
        "run",
        "--alg",
        "hybrid",
        "--b",
        "3",
        "--n",
        "13",
        "--adversary",
        "two-faced",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("agreement : true"));
    assert!(stdout.contains("decision  : Some(Value(1))"));
}

#[test]
fn run_with_trace_shows_discoveries() {
    let (ok, stdout, _) = sg(&[
        "run",
        "--alg",
        "algorithm-a",
        "--b",
        "3",
        "--n",
        "13",
        "--adversary",
        "chain-revealer",
        "--trace",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("discovered"));
    assert!(stdout.contains("shifted via resolve'"));
}

#[test]
fn plan_prints_figure_2_structure() {
    let (ok, stdout, _) = sg(&["plan", "--alg", "algorithm-b", "--b", "3", "--t", "5"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("tree(s) := resolve(s)"));
    assert!(stdout.contains("round  1"));
}

#[test]
fn bounds_lists_resiliences() {
    let (ok, stdout, _) = sg(&["bounds", "--n", "31"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("t <= 10"));
    assert!(stdout.contains("t <= 7"));
    assert!(stdout.contains("t <= 4"));
}

#[test]
fn list_names_all_algorithms() {
    let (ok, stdout, _) = sg(&["list"]);
    assert!(ok, "{stdout}");
    for name in [
        "hybrid",
        "algorithm-c",
        "phase-queen",
        "dynamic-king",
        "dolev-strong",
        "two-faced",
    ] {
        assert!(stdout.contains(name), "missing {name}");
    }
}

#[test]
fn invalid_algorithm_fails_with_hint() {
    let (ok, _, stderr) = sg(&["run", "--alg", "nonsense", "--n", "7"]);
    assert!(!ok);
    assert!(stderr.contains("unknown algorithm"));
}

#[test]
fn over_resilience_run_is_rejected() {
    let (ok, _, stderr) = sg(&["run", "--alg", "exponential", "--n", "4", "--t", "2"]);
    assert!(!ok);
    assert!(stderr.contains("cannot run"));
}

#[test]
fn compose_validates_and_runs() {
    let (ok, stdout, _) = sg(&["compose", "--n", "16", "--spec", "a:3x2,b:3x1,c:4", "--run"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("verdict     : safe"));
    assert!(stdout.contains("agreement   : true"));
}

#[test]
fn compose_rejects_unsafe_shift_with_reason() {
    let (ok, stdout, _) = sg(&["compose", "--n", "16", "--spec", "b:3x3,c:4"]);
    assert!(!ok);
    assert!(stdout.contains("REJECTED"), "{stdout}");
    assert!(stdout.contains("Corollary 1"), "{stdout}");
}

#[test]
fn compose_king_tail_spec_parses() {
    let (ok, stdout, _) = sg(&["compose", "--n", "10", "--spec", "a:3,king"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("King"));
}

#[test]
fn compose_bad_segment_syntax_errors() {
    let (ok, _, stderr) = sg(&["compose", "--n", "16", "--spec", "q:3"]);
    assert!(!ok);
    assert!(stderr.contains("unknown segment kind"), "{stderr}");
}

#[test]
fn gauntlet_reports_per_adversary_lines() {
    let (ok, stdout, _) = sg(&["gauntlet", "--alg", "optimal-king", "--n", "7"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("all executions reached agreement"));
    assert!(stdout.contains("two-faced"));
}

#[test]
fn stability_prints_lock_in_sweep() {
    let (ok, stdout, _) = sg(&["stability", "--alg", "algorithm-c", "--n", "18"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("head-room"));
    // One row per fault count 0..=t plus the header.
    let rows = stdout
        .lines()
        .filter(|l| l.trim_start().starts_with(char::is_numeric))
        .count();
    assert!(rows >= 3, "{stdout}");
}

#[test]
fn run_dynamic_king_from_cli() {
    let (ok, stdout, _) = sg(&[
        "run",
        "--alg",
        "dynamic-king",
        "--b",
        "3",
        "--n",
        "16",
        "--adversary",
        "crash",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("agreement : true"));
    assert!(stdout.contains("(early stop)"), "{stdout}");
}

#[test]
fn run_king_shift_from_cli() {
    let (ok, stdout, _) = sg(&[
        "run",
        "--alg",
        "king-shift",
        "--b",
        "3",
        "--n",
        "10",
        "--adversary",
        "double-talk",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("agreement : true"));
}

#[test]
fn record_then_replay_round_trips_through_the_cli() {
    let dir = std::env::temp_dir().join(format!("sg-cli-record-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join("scenario.json");
    let path = path.to_str().expect("utf-8 path");

    let (ok, stdout, stderr) = sg(&[
        "record",
        "--alg",
        "optimal-king",
        "--n",
        "7",
        "--adversary",
        "equivocate",
        "--seed",
        "3",
        "--out",
        path,
    ]);
    assert!(ok, "record failed: {stdout}{stderr}");
    assert!(stdout.contains("recorded equivocate"), "{stdout}");

    let (ok, stdout, stderr) = sg(&["replay", path]);
    assert!(ok, "replay failed: {stdout}{stderr}");
    assert!(
        stdout.contains("1 scenario(s) replayed, 0 failed"),
        "{stdout}"
    );

    // A damaged artifact must fail the replay gate, not pass silently.
    let text = std::fs::read_to_string(path).expect("readable scenario");
    std::fs::write(
        path,
        text.replace("\"agreement\":true", "\"agreement\":false"),
    )
    .expect("write damaged scenario");
    let (ok, _, stderr) = sg(&["replay", path]);
    assert!(!ok, "damaged scenario must fail");
    assert!(stderr.contains("verdict drift"), "{stderr}");

    let _ = std::fs::remove_dir_all(&dir);
}

/// Running `sg` with no subcommand prints the usage text and exits
/// non-zero, and that text documents *every* public flag the binary
/// parses — the help audit. A flag added to a subcommand without a
/// usage() mention fails this list, which is kept in sync by hand with
/// the `flags.get`/`parse_usize`/toggle lookups in `src/bin/sg.rs`.
#[test]
fn usage_documents_every_public_flag() {
    let (ok, _, stderr) = sg(&[]);
    assert!(!ok, "bare `sg` must exit non-zero");
    assert!(stderr.contains("usage:"), "{stderr}");
    for flag in [
        // run / plan / compose / gauntlet / stability
        "--alg",
        "--n",
        "--t",
        "--b",
        "--adversary",
        "--value",
        "--seed",
        "--source-faulty",
        "--trace",
        "--spec",
        "--run",
        // sweep grids (also accepted by submit)
        "--seeds",
        "--f",
        "--base-seed",
        "--split",
        "--from",
        "--to",
        "--period",
        "--phase",
        "--start",
        "--schedule",
        "--trace-file",
        "--expect-fingerprint",
        // record / replay
        "--out",
        "--quiet",
        // serve / submit / ping / hammer
        "--port",
        "--addr",
        "--socket",
        "--workers",
        "--max-jobs",
        "--max-queued-runs",
        "--conn-jobs",
        "--write-queue",
        "--send-buffer",
        "--timeout",
        "--deadline-ms",
        "--retry-attempts",
        "--shutdown",
        "--timeout-ms",
        "--attempts",
        "--connections",
        "--jobs-per-conn",
        "--chaos",
        // global engine toggles
        "--jobs",
        "--no-early-stop",
        "--no-instance-pool",
        "--no-batch",
    ] {
        assert!(stderr.contains(flag), "usage text is missing {flag}");
    }
}

/// The `--no-batch` escape hatch must reproduce the batched sweep's
/// fingerprint bit for bit — the CLI surface of the contract
/// `tests/batch_identity.rs` pins at the library layer.
#[test]
fn sweep_no_batch_reproduces_the_fingerprint() {
    let grid = [
        "sweep",
        "--alg",
        "optimal-king",
        "--n",
        "7",
        "--seeds",
        "70",
        "--adversary",
        "random-liar",
        "--jobs",
        "1",
    ];
    let (ok, batched, stderr) = sg(&grid);
    assert!(ok, "{batched}{stderr}");
    let mut no_batch = grid.to_vec();
    no_batch.push("--no-batch");
    let (ok, scalar, stderr) = sg(&no_batch);
    assert!(ok, "{scalar}{stderr}");
    let fingerprint_of = |out: &str| {
        out.lines()
            .find(|l| l.contains("report fingerprint:"))
            .map(str::to_string)
            .expect("fingerprint line")
    };
    assert_eq!(fingerprint_of(&batched), fingerprint_of(&scalar));
}

#[test]
fn sweep_accepts_the_widened_adversary_vocabulary() {
    for adversary in ["partition", "omission", "equivocate", "adaptive"] {
        let (ok, stdout, stderr) = sg(&[
            "sweep",
            "--alg",
            "optimal-king",
            "--n",
            "7",
            "--seeds",
            "5",
            "--adversary",
            adversary,
        ]);
        assert!(ok, "sweep --adversary {adversary} failed: {stdout}{stderr}");
        assert!(stdout.contains("report fingerprint:"), "{stdout}");
    }
}
