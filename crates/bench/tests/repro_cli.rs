//! End-to-end tests of the `repro` binary's command line.

use std::process::Command;

/// The committed `repro --exp rounds-vs-f` table.
const ROUNDS_VS_F: &str = include_str!("../../../BENCH_rounds_vs_f.md");

fn repro(args: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
    cmd.args(args);
    cmd
}

/// The legacy one-cell benchmark path and the serving-path load harness
/// are gone: their experiment ids and their flags are usage errors, not
/// silently accepted no-ops.
#[test]
fn the_deleted_sweep_path_exits_2_with_the_usage_line() {
    for args in [
        &["--exp", "sweep"][..],
        &["--no-early-stop"],
        &["--via-server"],
        &["--expect-fingerprint", "0"],
        &["--exp", "serve-load"],
        &["--chaos"],
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
    assert_eq!(written.expect("repro wrote the table"), ROUNDS_VS_F);
}

/// The expedite acceptance criterion, on the table above: under a correct
/// source every one of the seven tree specs ends at round 2 at every f,
/// under all three families (EXP-RF-TREE's 28 'correct' rows).
#[test]
fn a_correct_source_stops_every_tree_spec_at_round_2() {
    // The rows whose sixth `|` field (awk's $6, the source column of
    // EXP-RF-TREE) says "correct".
    let rows: Vec<Vec<&str>> = ROUNDS_VS_F
        .lines()
        .map(|line| line.split('|').collect::<Vec<_>>())
        .filter(|fields| fields.get(5).is_some_and(|f| f.contains("correct")))
        .collect();
    assert_eq!(rows.len(), 28, "table parse failed:\n{ROUNDS_VS_F}");
    for fields in rows {
        let rounds = fields.get(7..10).unwrap_or_default();
        assert!(
            rounds.len() == 3 && rounds.iter().all(|r| r.trim() == "2"),
            "a correct source no longer stops this at round 2: {}",
            fields.join("|")
        );
    }
}
