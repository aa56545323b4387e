//! End-to-end tests of the `repro` binary's command line.

use std::process::Command;

fn repro(args: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
    cmd.args(args);
    cmd
}

/// The legacy one-cell benchmark path is gone: its experiment id and its
/// three flags are usage errors, not silently accepted no-ops.
#[test]
fn the_deleted_sweep_path_exits_2_with_the_usage_line() {
    for args in [
        &["--exp", "sweep"][..],
        &["--no-early-stop"],
        &["--via-server"],
        &["--expect-fingerprint", "0"],
    ] {
        let out = repro(args).output().expect("spawn repro");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: repro"), "{args:?}: {stderr}");
    }
}

/// `--exp rounds-vs-f` regenerates the committed table byte for byte,
/// into the directory it is run from.
#[test]
fn rounds_vs_f_regenerates_the_committed_table() {
    let dir = std::env::temp_dir().join(format!("sg-repro-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let out = repro(&["--exp", "rounds-vs-f"])
        .current_dir(&dir)
        .output()
        .expect("spawn repro");
    let written = std::fs::read_to_string(dir.join("BENCH_rounds_vs_f.md"));
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        written.expect("repro wrote the table"),
        include_str!("../../../BENCH_rounds_vs_f.md"),
    );
}
