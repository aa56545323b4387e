//! Committed fingerprints of the tree family — the paper's own
//! algorithms and its gear shifts on the scalar engine.
//!
//! The two fingerprints pinned elsewhere (`tests/sweep_determinism.rs`)
//! are both `optimal-king`; nothing pinned the tree machine. These values were captured on the commit *before* the
//! table-driven rewrite of `sg-eigtree`'s hot loops and must survive any
//! change to how the tree is enumerated, stored, or delivered: every
//! decision, every discovery, every bit on the wire and every charged
//! `ops` unit of the seven `tree-paper` configurations under both
//! `tree-paper` adversaries.

use shifting_gears::adversary::FaultSelection;
use shifting_gears::analysis::{AdversaryFamily, Fingerprint, SweepConfig, SweepPlan};
use shifting_gears::core::AlgorithmSpec;

/// A cell's fingerprint and its Σ `max_local_ops`.
type Pin = (u64, u64);

/// `(spec, n)` of the benchmark's `tree-paper` workload, each at its
/// maximum resilience, with the cell pins under random-liar, then under
/// chain-revealer(2,2).
const PINS: [(AlgorithmSpec, usize, [Pin; 2]); 7] = [
    (
        AlgorithmSpec::Exponential,
        10,
        [(0xb516_3617_58a5_df8f, 9328), (0x0baa_aeb3_11cc_3a85, 7096)],
    ),
    (
        AlgorithmSpec::AlgorithmA { b: 3 },
        13,
        [
            (0x716d_6944_80d6_c315, 76084),
            (0x8896_0a36_10f2_ade5, 80704),
        ],
    ),
    (
        AlgorithmSpec::AlgorithmB { b: 3 },
        17,
        [
            (0xb310_e856_89f9_cb81, 57508),
            (0x628e_0616_e4f1_0d19, 51508),
        ],
    ),
    (
        AlgorithmSpec::AlgorithmC,
        32,
        [
            (0x61da_f940_9031_f81d, 43780),
            (0xb718_9063_a379_e6cd, 43524),
        ],
    ),
    (
        AlgorithmSpec::Hybrid { b: 3 },
        16,
        [
            (0xc3a3_7994_3b52_7a95, 101996),
            (0xa69d_b9f1_cb0b_f8e5, 108780),
        ],
    ),
    (
        AlgorithmSpec::KingShift { b: 3 },
        13,
        [
            (0x5c17_fdb3_109e_355d, 29340),
            (0x598c_b366_1568_8a24, 25248),
        ],
    ),
    (
        AlgorithmSpec::DynamicKing { b: 3 },
        13,
        [
            (0x5c17_fdb3_109e_355d, 29340),
            (0xb4fd_12c1_7ece_1b00, 81996),
        ],
    ),
];

/// Fingerprint and Σ `max_local_ops` of the whole 14-cell report.
const REPORT_PIN: Pin = (0xb5a5_db96_0b77_5eb3, 746232);

fn plan() -> SweepPlan {
    let honest_source = FaultSelection::without_source;
    SweepPlan::new(
        PINS.iter()
            .map(|&(spec, n, _)| SweepConfig::traced(spec, n, spec.max_resilience(n)))
            .collect(),
        vec![
            AdversaryFamily::random_liar(honest_source()),
            AdversaryFamily::chain_revealer(honest_source(), 2, 2),
        ],
        4,
    )
    .with_base_seed(1987)
}

#[test]
fn tree_family_fingerprints_are_pinned() {
    let report = plan().run_with_jobs(1);
    assert_eq!(report.cells.len(), 14);
    let mut total_ops = 0u64;
    // Every drifted cell is reported at once, in the form the pin table
    // takes. Cells arrive config-major, adversary-minor.
    let mut drift = Vec::new();
    for (i, cell) in report.cells.iter().enumerate() {
        let mut fp = Fingerprint::new();
        fp.mix_cell(cell);
        let ops: u64 = cell.samples.iter().map(|s| s.max_local_ops).sum();
        total_ops += ops;
        if (fp.value(), ops) != PINS[i / 2].2[i % 2] {
            drift.push(format!(
                "{} n={} {}: ({:#018x}, {ops})",
                cell.spec_name,
                cell.n,
                cell.adversary,
                fp.value()
            ));
        }
    }
    if (report.fingerprint(), total_ops) != REPORT_PIN {
        drift.push(format!(
            "whole report: ({:#018x}, {total_ops})",
            report.fingerprint()
        ));
    }
    assert!(
        drift.is_empty(),
        "tree family drifted:\n{}",
        drift.join("\n")
    );
}

/// The shared label table must not make a second thread's trees differ
/// from the first's.
#[test]
fn tree_family_fingerprint_is_jobs_invariant() {
    assert_eq!(plan().run_with_jobs(2).fingerprint(), REPORT_PIN.0);
}
