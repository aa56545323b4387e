//! Committed fingerprints of the king family — `optimal-king`,
//! `phase-king`, `phase-queen` — in both engine modes.
//!
//! The two fingerprints pinned in `tests/sweep_determinism.rs` are one
//! `optimal-king` cell at `n = 16`; the phase pair was held only to
//! itself (`tests/{engine_identity, batch_identity}.rs` compare the lane
//! kernel with the scalar protocol, so a drift common to both would pass).
//! Every decision, every round count, every bit on the wire and every
//! charged `ops` unit of the nine cells below is held here, under three
//! adversaries: the `king-fullround` equivocating source matched to `n`
//! (full schedules), a random liar sparing the source (every early-mode
//! run stops at its first lock) and a random liar that may corrupt the
//! source (split starts, locks at differing phases). 65 seeds a cell: one
//! full 64-lane batch on the lane kernel and a one-seed tail on the
//! scalar protocol, so one pin holds both representations.
//!
//! The pins were captured on the commit *before* the six phase loops
//! were collapsed into two (`sg_core::optimal_king`'s `KingCore`,
//! `sg_core::phase_batch`'s `PhaseKernel`) and have not moved since.
//!
//! **`phase-queen` ≡ `phase-king` on a binary domain.** Both keep their
//! value on `ones ≥ ⌊n/2⌋ + t + 1 ∨ ones < n − ⌊n/2⌋ − t`, both leaders
//! broadcast their exchange-tally majority, and `phase-queen` accepts
//! nothing but a binary domain: [`queen_pins_equal_king_pins`] is the
//! licence under which `AlgorithmSpec::PhaseQueen` builds `phase-king`'s
//! rule row instead of a protocol of its own.

use shifting_gears::adversary::{Family, FaultSelection};
use shifting_gears::analysis::{AdversaryFamily, Fingerprint, SweepConfig, SweepPlan, SweepReport};
use shifting_gears::core::AlgorithmSpec;

/// A cell's fingerprint and its Σ `max_local_ops`.
type Pin = (u64, u64);

/// One system size's pins: spec-major ([`SPECS`] order), then the three
/// adversaries of [`plan`].
type Table = [[Pin; 3]; 3];

const SPECS: [AlgorithmSpec; 3] = [
    AlgorithmSpec::OptimalKing,
    AlgorithmSpec::PhaseKing,
    AlgorithmSpec::PhaseQueen,
];

/// System sizes with the recipient split that keeps correct processors
/// divided through the whole king schedule (`benchmark/src/sut.rs`,
/// `matched_split`).
const SIZES: [(usize, usize); 3] = [(16, 11), (31, 21), (64, 43)];

/// Early-mode pins, [`SIZES`] order.
const EARLY: [Table; 3] = [
    [
        [
            (0xe28f_86cf_430f_89e9, 12870),
            (0x2ce3_ca09_1987_9f43, 2145),
            (0x032c_5cdc_870d_6d87, 11847),
        ],
        [
            (0x3e5a_3040_036d_68dc, 4485),
            (0x5d14_b553_ddb3_a424, 1170),
            (0x7ce2_edbb_8911_ce9f, 4366),
        ],
        [
            (0x3e5a_3040_036d_68dc, 4485),
            (0x5d14_b553_ddb3_a424, 1170),
            (0x7ce2_edbb_8911_ce9f, 4366),
        ],
    ],
    [
        [
            (0xc6e5_1981_65d1_7c75, 45045),
            (0x169c_f99e_e9e4_cc4a, 4095),
            (0xb7e8_ab55_8464_e90a, 43470),
        ],
        [
            (0xa9a6_a468_9cd6_3382, 16705),
            (0x8c25_c591_5b3a_5115, 2145),
            (0xbee9_f365_5d8f_defa, 16545),
        ],
        [
            (0xa9a6_a468_9cd6_3382, 16705),
            (0x8c25_c591_5b3a_5115, 2145),
            (0xbee9_f365_5d8f_defa, 16545),
        ],
    ],
    [
        [
            (0x76ee_31fa_41d9_dc23, 184470),
            (0x744e_1d77_8652_ecd7, 8385),
            (0x76ee_31fa_41d9_dc23, 184470),
        ],
        [
            (0x62b5_3682_40aa_cdaa, 67665),
            (0x9fed_6c9a_b9f3_c6a4, 4290),
            (0x62b5_3682_40aa_cdaa, 67665),
        ],
        [
            (0x62b5_3682_40aa_cdaa, 67665),
            (0x9fed_6c9a_b9f3_c6a4, 4290),
            (0x62b5_3682_40aa_cdaa, 67665),
        ],
    ],
];

/// Fixed-length pins, same layout.
const FIXED: [Table; 3] = [
    [
        [
            (0x72f0_2dff_76cf_0359, 12935),
            (0x7356_42e5_fe32_ed88, 12935),
            (0x7821_1c06_5d65_5128, 12935),
        ],
        [
            (0x3e5a_3040_036d_68dc, 4485),
            (0x4774_8752_568f_4bf6, 4485),
            (0xf9b9_7d0a_88a5_57d8, 4485),
        ],
        [
            (0x3e5a_3040_036d_68dc, 4485),
            (0x4774_8752_568f_4bf6, 4485),
            (0xf9b9_7d0a_88a5_57d8, 4485),
        ],
    ],
    [
        [
            (0x83ef_d6ae_d414_3008, 45110),
            (0xe81e_40f2_54b9_7b5e, 45110),
            (0x552a_9e02_e1e7_1232, 45110),
        ],
        [
            (0xa9a6_a468_9cd6_3382, 16705),
            (0xe32b_cb62_18b1_a8f0, 16705),
            (0x8b1d_01f0_1417_5800, 16705),
        ],
        [
            (0xa9a6_a468_9cd6_3382, 16705),
            (0xe32b_cb62_18b1_a8f0, 16705),
            (0x8b1d_01f0_1417_5800, 16705),
        ],
    ],
    [
        [
            (0xf7f9_2d7a_c8c8_af2e, 184535),
            (0x71b0_7e33_56e8_b4c3, 184535),
            (0xf7f9_2d7a_c8c8_af2e, 184535),
        ],
        [
            (0x62b5_3682_40aa_cdaa, 67665),
            (0xc8aa_73c5_779d_1c48, 67665),
            (0x62b5_3682_40aa_cdaa, 67665),
        ],
        [
            (0x62b5_3682_40aa_cdaa, 67665),
            (0xc8aa_73c5_779d_1c48, 67665),
            (0x62b5_3682_40aa_cdaa, 67665),
        ],
    ],
];

/// One spec per plan: a cell's seed stream depends on its config index,
/// and `phase-queen` must draw `phase-king`'s seeds to be compared with it.
fn plan(spec: AlgorithmSpec, n: usize, split: usize) -> SweepPlan {
    SweepPlan::new(
        vec![SweepConfig::traced(spec, n, spec.max_resilience(n))],
        vec![
            AdversaryFamily::equivocate(FaultSelection::with_source(), split, 1),
            AdversaryFamily::random_liar(FaultSelection::without_source()),
            AdversaryFamily::random_liar(FaultSelection::with_source()),
        ],
        65,
    )
    .with_base_seed(1987)
}

/// A one-spec report's cells as pins, in adversary order.
fn pins<const A: usize>(report: &SweepReport) -> [Pin; A] {
    assert_eq!(report.cells.len(), A);
    let mut row = [(0, 0); A];
    for (pin, cell) in row.iter_mut().zip(&report.cells) {
        let mut fp = Fingerprint::new();
        fp.mix_cell(cell);
        let ops = cell.samples.iter().map(|s| s.max_local_ops).sum();
        *pin = (fp.value(), ops);
    }
    row
}

/// Holds every size to `want`; on drift prints the whole table in the
/// form the constant takes.
fn assert_pinned(mode: &str, run: impl Fn(SweepPlan) -> SweepReport, want: &[Table; 3]) {
    let got: Vec<Table> = SIZES
        .iter()
        .map(|&(n, split)| SPECS.map(|spec| pins(&run(plan(spec, n, split)))))
        .collect();
    assert!(
        got == want,
        "king family drifted ({mode}):\n{}",
        got.iter()
            .map(|table| format!("{table:#018x?},"))
            .collect::<String>()
    );
}

#[test]
fn king_family_fingerprints_are_pinned() {
    assert_pinned("early stopping", |p| p.run_with_jobs(1), &EARLY);
}

#[test]
fn fixed_length_king_family_fingerprints_are_pinned() {
    assert_pinned(
        "fixed-length",
        |p| p.fixed_length().run_with_jobs(1),
        &FIXED,
    );
}

/// The licence for deleting the queen: in every pinned cell, in both
/// modes, `phase-queen` is `phase-king`.
#[test]
fn queen_pins_equal_king_pins() {
    for table in EARLY.iter().chain(&FIXED) {
        assert_eq!(table[1], table[2]);
    }
}

/// The schedules the pins cover: a correct source stops every early-mode
/// run at its first lock, the matched equivocating source denies every
/// lock before the last phase's, and a fixed-length run never stops
/// early.
#[test]
fn pinned_cells_cover_expedited_and_full_schedules() {
    for (n, split) in SIZES {
        for spec in SPECS {
            let total = spec.rounds(n, spec.max_resilience(n)) as u64;
            let fixed = plan(spec, n, split).fixed_length().run_with_jobs(1);
            assert!(fixed
                .cells
                .iter()
                .flat_map(|c| &c.samples)
                .all(|s| s.rounds == total && !s.early_stopped));
            let early = plan(spec, n, split).run_with_jobs(1);
            let rounds = |cell: usize| early.cells[cell].samples.iter().map(|s| s.rounds);
            assert!(rounds(0).all(|r| r >= total - 1));
            assert!(rounds(1).all(|r| r == 3));
        }
    }
}

/// One system size's shared-story pins: spec-major ([`SHARED_SPECS`]
/// order), then the two adversaries of [`shared_plan`].
type SharedTable = [[Pin; 2]; 2];

const SHARED_SPECS: [AlgorithmSpec; 2] = [AlgorithmSpec::OptimalKing, AlgorithmSpec::PhaseKing];

const SHARED_SIZES: [usize; 2] = [16, 31];

/// The other lies the lane engine tells as one story shared by several
/// liars, beside the matched equivocation above: `adaptive` with the
/// source in the fault set (its ranks turn at rounds 1 and 3, the rest
/// never, so members holding one lie join at different rounds) and a
/// non-matched `equivocate` sparing the source that turns at round 2,
/// after a round in which every member relays its shadow.
/// `tests/engine_identity.rs` holds both to the reference engine; these
/// literals hold both engines to a fixed answer. 65 seeds a cell, as
/// above: one 64-lane batch and a scalar tail.
///
/// In fixed mode neither lie moves a sample — the adaptive source flips
/// its input to every recipient alike, and the equivocators spare a
/// source whose value stays strong — so all four fixed cells print the
/// fixed-length pins of the random liar sparing the source.
/// `crates/adversary/tests/batch_masks.rs` compares the lies themselves.
///
/// Captured on the commit before liars that tell the same lie were
/// given one shared row.
const SHARED_EARLY: [SharedTable; 2] = [
    [
        [(0x2f2f_f027_1cff_9ea8, 2145), (0x2ce3_ca09_1987_9f43, 2145)],
        [(0x6a97_3c0b_50aa_fc75, 1170), (0x5d14_b553_ddb3_a424, 1170)],
    ],
    [
        [(0x1a6a_7b1f_3683_f36b, 4095), (0x169c_f99e_e9e4_cc4a, 4095)],
        [(0x1760_260a_e575_d46b, 2145), (0x8c25_c591_5b3a_5115, 2145)],
    ],
];

/// Fixed-length shared-story pins, same layout.
const SHARED_FIXED: [SharedTable; 2] = [
    [
        [
            (0x7356_42e5_fe32_ed88, 12935),
            (0x7356_42e5_fe32_ed88, 12935),
        ],
        [(0x4774_8752_568f_4bf6, 4485), (0x4774_8752_568f_4bf6, 4485)],
    ],
    [
        [
            (0xe81e_40f2_54b9_7b5e, 45110),
            (0xe81e_40f2_54b9_7b5e, 45110),
        ],
        [
            (0xe32b_cb62_18b1_a8f0, 16705),
            (0xe32b_cb62_18b1_a8f0, 16705),
        ],
    ],
];

fn shared_plan(spec: AlgorithmSpec, n: usize) -> SweepPlan {
    SweepPlan::new(
        vec![SweepConfig::traced(spec, n, spec.max_resilience(n))],
        vec![
            Family::Adaptive {
                selection: FaultSelection::with_source(),
                schedule: vec![1, 3],
            }
            .into(),
            AdversaryFamily::equivocate(FaultSelection::without_source(), 3, 2),
        ],
        65,
    )
    .with_base_seed(1987)
}

/// [`assert_pinned`] for the shared-story table.
fn assert_shared_pinned(
    mode: &str,
    run: impl Fn(SweepPlan) -> SweepReport,
    want: &[SharedTable; 2],
) {
    let got: Vec<SharedTable> = SHARED_SIZES
        .iter()
        .map(|&n| SHARED_SPECS.map(|spec| pins(&run(shared_plan(spec, n)))))
        .collect();
    assert!(
        got == want,
        "shared-story king cells drifted ({mode}):\n{}",
        got.iter()
            .map(|table| format!("{table:#018x?},"))
            .collect::<String>()
    );
}

#[test]
fn shared_story_king_fingerprints_are_pinned() {
    assert_shared_pinned("early stopping", |p| p.run_with_jobs(1), &SHARED_EARLY);
    assert_shared_pinned(
        "fixed-length",
        |p| p.fixed_length().run_with_jobs(1),
        &SHARED_FIXED,
    );
}
