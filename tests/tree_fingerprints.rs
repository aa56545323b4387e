//! Committed fingerprints of the tree family — the paper's own
//! algorithms and its gear shifts on the scalar engine — in both engine
//! modes.
//!
//! The two fingerprints pinned elsewhere (`tests/sweep_determinism.rs`)
//! are both `optimal-king`; nothing else pins the tree machine. Every
//! decision, every discovery, every bit on the wire and every charged
//! `ops` unit of the seven `tree-paper` configurations under both
//! `tree-paper` adversaries is held here.
//!
//! **Fixed-length table.** The ten pure-tree cell pins (Exponential, A,
//! B, C, the hybrid) were captured on the commit *before* the
//! table-driven rewrite of `sg-eigtree`'s hot loops, when the tree
//! machine had no status hook and so ran its full schedule in either
//! mode. They are byte-identical to that capture and now run
//! `.fixed_length()`: that they still hold is the proof the echo rule
//! (`sg_core::GearedProtocol`) moved nothing on the fixed path. The four gear
//! cells (`king-shift`, `dynamic-king`) and [`FIXED_REPORT`] were
//! re-pinned with the echo rule: their old values were early-mode values
//! (the king tails stopped at their lock), and in early mode those runs
//! now end at round 2, so the fixed table pins their *full* schedules
//! instead — values the parent commit reproduces under `fixed_length()`.
//!
//! **Early table.** The same 14 cells with early stopping on. The source
//! is correct in every one, so every run ends at the first echo: round 2,
//! and the ops are those of two rounds.
//!
//! **Lying-source table.** Neither table above can see an echo round
//! change. Under a correct source no lie can move an echo-round sample:
//! the echoes' quorum holds, and at most `t` liars cannot trigger
//! discovery of the source. A faulty source does not help chain-revealer
//! either, which stays honest in round 1 — `algorithm-a`, `king-shift`
//! and `dynamic-king` all print `412a9e3b2967a325` under
//! `--source-faulty` in early mode. So the third table runs the seven
//! cells under random lies *with the source among the liars*, in both
//! modes: the source is discovered at the first echo, early mode runs
//! past round 2, and a later block's echo round reads a non-empty
//! `L_p`. It was captured on the commit before the tree machine read its
//! echo rounds off the engine's packed ballots, and holds that reading
//! to the per-slot one it replaced.

use shifting_gears::adversary::FaultSelection;
use shifting_gears::analysis::{
    AdversaryFamily, Fingerprint, SweepConfig, SweepPlan, SweepReport, TREE_PAPER_CELLS,
};

/// A cell's fingerprint and its Σ `max_local_ops`.
type Pin = (u64, u64);

/// Fixed-length cell pins, [`TREE_PAPER_CELLS`] order, under random-liar then under
/// chain-revealer(2,2).
const FIXED: [[Pin; 2]; 7] = [
    [(0xb516_3617_58a5_df8f, 9328), (0x0baa_aeb3_11cc_3a85, 7096)],
    [
        (0x716d_6944_80d6_c315, 76084),
        (0x8896_0a36_10f2_ade5, 80704),
    ],
    [
        (0xb310_e856_89f9_cb81, 57508),
        (0x628e_0616_e4f1_0d19, 51508),
    ],
    [
        (0x61da_f940_9031_f81d, 43780),
        (0xb718_9063_a379_e6cd, 43524),
    ],
    [
        (0xc3a3_7994_3b52_7a95, 101996),
        (0xa69d_b9f1_cb0b_f8e5, 108780),
    ],
    [
        (0x184e_9fd0_3ca5_b2e5, 29776),
        (0x964f_6d86_bbd2_b400, 25684),
    ],
    [
        (0x184e_9fd0_3ca5_b2e5, 29776),
        (0x1f17_62c8_43c0_d657, 82432),
    ],
];

/// Fingerprint and Σ `max_local_ops` of the whole fixed-length report.
const FIXED_REPORT: Pin = (0x8139_f7e6_e3d1_c858, 747976);

/// Early-mode cell pins, same layout: every run stops at round 2, before
/// a lie can leave a mark on any fingerprinted field — so a cell's two
/// families pin alike, and so do the three specs that open with an
/// Algorithm A block at `n = 13`.
const EARLY: [[Pin; 2]; 7] = [
    [(0xf407_ccac_927a_c8a5, 76); 2],
    [(0x9476_f826_7153_8325, 100); 2],
    [(0x6586_3c6c_7211_5325, 132); 2],
    [(0x2fca_dd60_cb1e_2ebd, 260); 2],
    [(0x0db6_275b_4ece_05a5, 124); 2],
    [(0x9476_f826_7153_8325, 100); 2],
    [(0x9476_f826_7153_8325, 100); 2],
];

/// Fingerprint and Σ `max_local_ops` of the whole early-mode report.
const EARLY_REPORT: Pin = (0x2a32_c4df_2345_45d5, 1784);

/// Lying-source cell pins, [`TREE_PAPER_CELLS`] order, random lies with
/// the source among the liars: early mode, then fixed-length.
const LYING: [[Pin; 2]; 7] = [
    [(0x3019_6b8d_f8d4_8fce, 8356), (0x3019_6b8d_f8d4_8fce, 8356)],
    [
        (0xf143_5da7_e5ca_37ac, 28060),
        (0x240a_30f5_3c38_a310, 74812),
    ],
    [
        (0x673a_a833_891e_e762, 44548),
        (0x1bd0_dd43_05df_55a2, 47492),
    ],
    [
        (0x1c6a_0dfa_bcf9_e2e9, 43656),
        (0x1c6a_0dfa_bcf9_e2e9, 43656),
    ],
    [
        (0xba8e_5b81_a174_f56d, 59224),
        (0x8b5b_e0f6_fe8b_5e05, 102056),
    ],
    [
        (0xc9f5_97d0_cc79_bbc8, 28068),
        (0xa340_9c32_bb4e_64bf, 28504),
    ],
    [
        (0x8db3_5a4f_c5fc_d92d, 29388),
        (0x03c0_1bcc_3bcb_7485, 29824),
    ],
];

/// Fingerprint and Σ `max_local_ops` of the whole lying-source report:
/// early mode, then fixed-length.
const LYING_REPORT: [Pin; 2] = [
    (0x0d74_6258_a8e1_a0a5, 241300),
    (0x03cb_0924_4d74_97ca, 334700),
];

fn plan_under(families: Vec<AdversaryFamily>) -> SweepPlan {
    SweepPlan::new(
        TREE_PAPER_CELLS
            .iter()
            .map(|&(spec, n)| SweepConfig::traced(spec, n, spec.max_resilience(n)))
            .collect(),
        families,
        4,
    )
    .with_base_seed(1987)
}

fn plan() -> SweepPlan {
    let honest_source = FaultSelection::without_source;
    plan_under(vec![
        AdversaryFamily::random_liar(honest_source()),
        AdversaryFamily::chain_revealer(honest_source(), 2, 2),
    ])
}

fn lying_plan() -> SweepPlan {
    plan_under(vec![AdversaryFamily::random_liar(
        FaultSelection::with_source(),
    )])
}

/// Holds `report` to a pin table. Every drifted cell is reported at
/// once, in the form the table takes; cells arrive config-major,
/// adversary-minor.
fn assert_pinned(mode: &str, report: &SweepReport, cells: &[Pin], whole: Pin) {
    assert_eq!(report.cells.len(), cells.len());
    let mut total_ops = 0u64;
    let mut drift = Vec::new();
    for (i, cell) in report.cells.iter().enumerate() {
        let mut fp = Fingerprint::new();
        fp.mix_cell(cell);
        let ops: u64 = cell.samples.iter().map(|s| s.max_local_ops).sum();
        total_ops += ops;
        if (fp.value(), ops) != cells[i] {
            drift.push(format!(
                "{} n={} {}: ({:#018x}, {ops})",
                cell.spec_name,
                cell.n,
                cell.adversary,
                fp.value()
            ));
        }
    }
    if (report.fingerprint(), total_ops) != whole {
        drift.push(format!(
            "whole report: ({:#018x}, {total_ops})",
            report.fingerprint()
        ));
    }
    assert!(
        drift.is_empty(),
        "tree family drifted ({mode}):\n{}",
        drift.join("\n")
    );
}

#[test]
fn tree_family_fingerprints_are_pinned() {
    let fixed = plan().fixed_length().run_with_jobs(1);
    // Only a committed gear shift (part of `dynamic-king`'s schedule,
    // not an engine observation) may end a fixed-length run early.
    assert!(fixed
        .cells
        .iter()
        .filter(|c| !c.spec_name.starts_with("dynamic-king"))
        .all(|c| c.samples.iter().all(|s| !s.early_stopped)));
    assert_pinned("fixed-length", &fixed, FIXED.as_flattened(), FIXED_REPORT);
}

/// A correct source ends every tree-family run at the first echo.
#[test]
fn early_stopped_tree_family_fingerprints_are_pinned() {
    let early = plan().run_with_jobs(1);
    for cell in &early.cells {
        assert!(
            cell.samples
                .iter()
                .all(|s| s.rounds == 2 && s.early_stopped),
            "{} n={} {}: a run outlived the first echo",
            cell.spec_name,
            cell.n,
            cell.adversary
        );
    }
    assert_pinned("early stopping", &early, EARLY.as_flattened(), EARLY_REPORT);
}

/// A lying source is discovered at the first echo: the echo rounds' reads,
/// discovery and quorum all leave a mark here.
#[test]
fn lying_source_tree_family_fingerprints_are_pinned() {
    let early = lying_plan().run_with_jobs(1);
    let fixed = lying_plan().fixed_length().run_with_jobs(1);
    assert!(
        early
            .cells
            .iter()
            .all(|c| c.samples.iter().any(|s| s.rounds > 2)),
        "a lying source no longer keeps some run past the first echo"
    );
    assert_pinned(
        "lying source, early stopping",
        &early,
        &LYING.map(|cell| cell[0]),
        LYING_REPORT[0],
    );
    assert_pinned(
        "lying source, fixed-length",
        &fixed,
        &LYING.map(|cell| cell[1]),
        LYING_REPORT[1],
    );
}

/// The shared label table must not make a second thread's trees differ
/// from the first's.
#[test]
fn tree_family_fingerprint_is_jobs_invariant() {
    assert_eq!(
        plan().fixed_length().run_with_jobs(2).fingerprint(),
        FIXED_REPORT.0
    );
    assert_eq!(plan().run_with_jobs(2).fingerprint(), EARLY_REPORT.0);
}
