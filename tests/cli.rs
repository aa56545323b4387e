//! End-to-end tests of the `sg` command-line driver.

use std::process::Command;

/// Runs `sg` and returns its exit code, stdout and stderr.
fn sg_code(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_sg"))
        .args(args)
        .output()
        .expect("spawn sg");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).to_string(),
        String::from_utf8_lossy(&out.stderr).to_string(),
    )
}

fn sg(args: &[&str]) -> (bool, String, String) {
    let (code, stdout, stderr) = sg_code(args);
    (code == Some(0), stdout, stderr)
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
        // The full schedule: with the source correct the echo rule ends
        // the run at round 2, before anything is discovered or shifted.
        "--no-early-stop",
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

/// The lock-in sweep plays one deterministic staggered split whatever
/// the seed, so `stability` takes no `--seed`: passing one is an unknown
/// flag, not a silently ignored one.
#[test]
fn stability_rejects_a_seed() {
    let args = [
        "stability",
        "--alg",
        "algorithm-c",
        "--n",
        "18",
        "--seed",
        "7",
    ];
    let (code, stdout, stderr) = sg_code(&args);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(
        stderr.contains("unknown flag '--seed' for `sg stability`"),
        "{stderr}"
    );
    assert!(stdout.is_empty(), "{stdout}");
}

/// `cmd_plan` compiles a spec's schedule, which no seed enters, so `plan`
/// takes no `--seed`: passing one is an unknown flag.
#[test]
fn plan_rejects_a_seed() {
    let args = [
        "plan",
        "--alg",
        "algorithm-b",
        "--b",
        "3",
        "--t",
        "5",
        "--seed",
        "7",
    ];
    let (code, stdout, stderr) = sg_code(&args);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(
        stderr.contains("unknown flag '--seed' for `sg plan`"),
        "{stderr}"
    );
    assert!(stdout.is_empty(), "{stdout}");
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

/// Every committed `sg-scenario/1` artifact, survivals and recorded
/// agreement violations alike, replays to its recorded verdict through
/// the CLI: `sg replay` exits non-zero on a parse failure, a replay
/// desync or verdict drift. `tests/scenario_corpus.rs` is the library
/// path over the same files.
#[test]
fn the_committed_corpus_replays_from_the_cli() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut paths: Vec<String> = std::fs::read_dir(&dir)
        .expect("tests/corpus")
        .map(|entry| entry.expect("corpus entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "json"))
        .map(|path| path.to_str().expect("utf-8 path").to_string())
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "no scenarios in {}", dir.display());
    let mut args = vec!["replay"];
    args.extend(paths.iter().map(String::as_str));
    let (ok, stdout, stderr) = sg(&args);
    assert!(ok, "{stdout}{stderr}");
    assert!(
        stdout.contains(&format!("{} scenario(s) replayed, 0 failed", paths.len())),
        "{stdout}"
    );
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
        // serve / submit / ping
        "--port",
        "--addr",
        "--socket",
        "--workers",
        "--max-jobs",
        "--max-queued-runs",
        "--conn-jobs",
        "--send-buffer",
        "--timeout",
        "--deadline-ms",
        "--retry-attempts",
        "--shutdown",
        "--timeout-ms",
        "--attempts",
        // global: the worker pool, and the one engine option
        "--jobs",
        "--no-early-stop",
    ] {
        assert!(stderr.contains(flag), "usage text is missing {flag}");
    }
}

/// A flag `sg` does not know must fail loudly — usage text, exit 2 —
/// never fall through to the default path: a script still passing one of
/// the deleted engine escape hatches would otherwise "pass" a cross-check
/// it no longer performs. Flags are checked per subcommand, so one that
/// exists elsewhere is as unknown as one that exists nowhere.
#[test]
fn unrecognised_flags_exit_2_with_usage() {
    let sweep = ["sweep", "--alg", "optimal-king", "--n", "7", "--seeds", "5"];
    let (ok, stdout, stderr) = sg(&sweep);
    assert!(ok, "{stdout}{stderr}");
    for stale in [
        "--no-batch",
        "--no-batch-adversary",
        "--no-instance-pool",
        "--trace",
    ] {
        let mut args = sweep.to_vec();
        args.push(stale);
        let (code, stdout, stderr) = sg_code(&args);
        assert_eq!(code, Some(2), "{stale}: {stderr}");
        assert!(
            stderr.contains(&format!("unknown flag '{stale}'")),
            "{stderr}"
        );
        assert!(stderr.contains("usage:"), "{stderr}");
        assert!(stdout.is_empty(), "{stale} must not run the sweep");
    }
    // The daemon has no mode of its own any more: the flag belongs to the
    // job, so `serve` rejects it too.
    let (ok, _, stderr) = sg(&["serve", "--no-early-stop"]);
    assert!(!ok);
    assert!(
        stderr.contains("unknown flag '--no-early-stop' for `sg serve`"),
        "{stderr}"
    );
    // The write queue is gone (the connection's event thread writes the
    // socket itself, under a send timeout), and its knob with it.
    let (code, _, stderr) = sg_code(&["serve", "--write-queue", "4"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(
        stderr.contains("unknown flag '--write-queue' for `sg serve`"),
        "{stderr}"
    );
    // A valued flag at the end of the line is missing its value.
    let (ok, _, stderr) = sg(&["bounds", "--n"]);
    assert!(!ok);
    assert!(stderr.contains("--n expects a value"), "{stderr}");
    // The load harness is gone, and its subcommand with it.
    let (code, stdout, stderr) = sg_code(&["hammer"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");
    assert!(stdout.is_empty(), "{stdout}");
}

/// The daemon-side subcommands, one known-good invocation each, against
/// one daemon: `serve`, `ping`, `submit` in both modes *concurrently* —
/// `--no-early-stop` travels in the plan, so the canary cell returns its
/// fixed-length fingerprint from the same process that returns the
/// early-stopping one — each writing through to a client journal that
/// `sweep --journal` then hits only in its own mode; `journal stat`, and
/// `submit --shutdown`.
#[test]
fn one_daemon_serves_both_modes_from_the_cli() {
    let dir = std::env::temp_dir().join(format!("sg-cli-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = |name: &str| dir.join(name).to_str().expect("utf-8 path").to_string();
    let socket = path("sg.sock");

    /// Reaps the daemon even when an assertion below unwinds.
    struct Daemon(std::process::Child);
    impl Drop for Daemon {
        fn drop(&mut self) {
            let _ = self.0.kill();
            let _ = self.0.wait();
        }
    }
    let mut daemon = Daemon(
        Command::new(env!("CARGO_BIN_EXE_sg"))
            .args(["serve", "--socket", &socket, "--workers", "2"])
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .spawn()
            .expect("spawn daemon"),
    );
    let (ok, stdout, stderr) = sg(&[
        "ping",
        "--socket",
        &socket,
        "--attempts",
        "40",
        "--timeout-ms",
        "500",
    ]);
    assert!(ok, "daemon never came up: {stdout}{stderr}");

    let canary = [
        "--alg",
        "optimal-king",
        "--n",
        "16",
        "--t",
        "5",
        "--seeds",
        "1000",
    ];
    let submit = |mode: &[&str], fingerprint: &str, journal: &str| {
        let mut args = vec!["submit", "--socket", &socket];
        args.extend(canary);
        args.extend(mode);
        args.extend(["--expect-fingerprint", fingerprint, "--journal", journal]);
        sg(&args)
    };
    let (early_journal, fixed_journal) = (path("early"), path("fixed"));
    let (early, fixed) = std::thread::scope(|scope| {
        let early = scope.spawn(|| submit(&[], "d5c0db8c03964e75", &early_journal));
        let fixed =
            scope.spawn(|| submit(&["--no-early-stop"], "40c18433ac711905", &fixed_journal));
        (early.join().unwrap(), fixed.join().unwrap())
    });
    assert!(early.0, "early submit: {}{}", early.1, early.2);
    assert!(fixed.0, "fixed submit: {}{}", fixed.1, fixed.2);

    // Each client journal holds its cell under its own mode's epoch only.
    for (journal, own, other) in [
        (&early_journal, &[][..], &["--no-early-stop"][..]),
        (&fixed_journal, &["--no-early-stop"][..], &[][..]),
    ] {
        for (mode, expect) in [
            (own, "journal: 1 cell(s) cached, 0 computed"),
            (other, "journal: 0 cell(s) cached, 1 computed"),
        ] {
            let mut args = vec!["sweep", "--journal", journal.as_str()];
            args.extend(canary);
            args.extend(mode);
            let (ok, stdout, stderr) = sg(&args);
            assert!(ok, "{stdout}{stderr}");
            assert!(stdout.contains(expect), "{mode:?} on {journal}: {stdout}");
        }
    }
    let (ok, stdout, _) = sg(&["journal", "stat", &early_journal]);
    assert!(ok && stdout.contains("engine epochs : 2"), "{stdout}");

    let (ok, stdout, stderr) = sg(&["submit", "--socket", &socket, "--shutdown"]);
    assert!(ok, "{stdout}{stderr}");
    let status = daemon.0.wait().expect("daemon exits after shutdown");
    assert!(status.success(), "daemon exit: {status}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs `sg sweep` on `cell` at `--jobs 1` and `--jobs 2`, each held to
/// `fingerprint` by `--expect-fingerprint`, and returns both outputs.
fn sweep_pinned(cell: &[&str], fingerprint: &str) -> Vec<String> {
    ["1", "2"]
        .into_iter()
        .map(|jobs| {
            let mut args = vec!["sweep"];
            args.extend(cell);
            args.extend(["--jobs", jobs, "--expect-fingerprint", fingerprint]);
            let (ok, stdout, stderr) = sg(&args);
            assert!(ok, "{args:?}: {stdout}{stderr}");
            assert!(
                stdout.contains(&format!("report fingerprint: {fingerprint}")),
                "{args:?}: {stdout}"
            );
            stdout
        })
        .collect()
}

/// An early-stopped tree cell (hybrid b=3 n=16 t=5, 16 seeds of random
/// liars sparing the source): every run ends at round 2, at the first
/// echo (`sg_core::GearedProtocol`'s echo rule).
#[test]
fn the_early_stopped_tree_cell_is_pinned() {
    let cell = ["--alg", "hybrid", "--b", "3", "--n", "16", "--seeds", "16"];
    for stdout in sweep_pinned(&cell, "4ce856001797a525") {
        let every_run_at_round_2 = stdout.lines().any(|line| {
            line.split_once("rounds 2/2.0±0.0/2 ")
                .is_some_and(|(_, rest)| rest.contains("early-stop 100%"))
        });
        assert!(every_run_at_round_2, "{stdout}");
    }
}

/// The same hybrid cell with the source among the random liars: 53-55
/// discoveries a run, and early mode ends at round 5, so a later block's
/// echo round runs with a non-empty fault list. The echo rounds' reads,
/// discovery and quorum all reach its fingerprint, in both modes.
#[test]
fn the_lying_source_tree_cell_is_pinned_in_both_modes() {
    let cell = [
        "--alg",
        "hybrid",
        "--b",
        "3",
        "--n",
        "16",
        "--seeds",
        "16",
        "--source-faulty",
    ];
    sweep_pinned(&cell, "9e14525963f8907e");
    sweep_pinned(
        &[&cell[..], &["--no-early-stop"]].concat(),
        "9773cd8e9fe8c55b",
    );
}

/// The contested-shadow cell (optimal-king n=31 t=10, 256 seeds of
/// chain-revealer with the source faulty): members relay their shadows
/// until their turns, so a member whose shadow nobody reads again sits
/// beside members that still relay. Pinned in both modes.
#[test]
fn the_contested_shadow_cell_is_pinned_in_both_modes() {
    let cell = [
        "--alg",
        "optimal-king",
        "--n",
        "31",
        "--adversary",
        "chain-revealer",
        "--source-faulty",
        "--seeds",
        "256",
    ];
    sweep_pinned(&cell, "3b2c9114ecaeaf25");
    sweep_pinned(
        &[&cell[..], &["--no-early-stop"]].concat(),
        "d975f8efecc96325",
    );
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
