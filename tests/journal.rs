//! The result journal is *unobservable* in sweep output: a warm
//! journal-backed run must be bit-identical to a cold one, in both
//! engine modes and on both execution paths (local `run_with_journal`, the
//! `sg-serve/1` daemon), and any damage to the store must degrade to
//! recomputation — "absent, never wrong" — with a structured warning,
//! never a panic or a wrong cell.
//!
//! Warm-against-cold tests compare inside one build only, so a
//! drift in how keys, epochs or cell texts are derived would pass them
//! and silently turn every store on disk into misses ("absent, never
//! wrong" hides it). The `pinned_*` tests hold those derivations to
//! literals captured from the byte-serial FNV fold and the five-pass
//! `summarize`, before either was rewritten at word speed: any rewrite
//! must reproduce them exactly, or a store written by an older build
//! stops answering.

use std::fs;
use std::path::PathBuf;

use proptest::prelude::*;
use shifting_gears::adversary::FaultSelection;
use shifting_gears::analysis::{
    epoch_for, AdversaryFamily, Fingerprint, SweepConfig, SweepPlan, SweepReport,
    ENGINE_VERSION_TAG,
};
use shifting_gears::core::AlgorithmSpec;
use shifting_gears::journal::{CellKey, EngineEpoch, Journal};

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sg-journal-it-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// The store's segment files, in load order.
fn segments(dir: &std::path::Path) -> Vec<PathBuf> {
    let mut segments: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "ndjson"))
        .collect();
    segments.sort();
    segments
}

/// A small mixed grid: one cell with a lock-step batch kernel, one
/// scalar-fallback cell, two adversary families — 4 cells.
fn grid(seeds: u64) -> SweepPlan {
    SweepPlan::new(
        vec![
            SweepConfig::traced(AlgorithmSpec::OptimalKing, 10, 3),
            SweepConfig::traced(AlgorithmSpec::DynamicKing { b: 3 }, 10, 2),
        ],
        vec![
            AdversaryFamily::random_liar(FaultSelection::without_source().limit(2)),
            AdversaryFamily::crash(FaultSelection::without_source().limit(2), 2),
        ],
        seeds,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// (a) Warm vs cold bit-identity in both modes at 1/8 workers. The
    /// first journal pass computes everything (and must already match
    /// the journal-free report); the second pass answers every cell from
    /// the store and must still match, byte for byte.
    #[test]
    fn warm_and_cold_reports_are_bit_identical(
        fixed in any::<bool>(),
        eight_jobs in any::<bool>(),
    ) {
        let jobs = if eight_jobs { 8 } else { 1 };
        let plan = if fixed { grid(10).fixed_length() } else { grid(10) };
        let cold = plan.run_with_jobs(jobs);

        let dir = tmpdir("warm-cold");
        let mut journal = Journal::open(&dir).unwrap();
        let first = plan.run_with_journal(&mut journal, jobs);
        prop_assert_eq!(first.hits, 0);
        prop_assert_eq!(first.computed, plan.cell_count());
        prop_assert_eq!(&first.report, &cold);

        let second = plan.run_with_journal(&mut journal, jobs);
        prop_assert_eq!(second.hits, plan.cell_count());
        prop_assert_eq!(second.computed, 0);
        prop_assert!(second.warnings.is_empty(), "{:?}", second.warnings);
        prop_assert_eq!(&second.report, &cold);
        prop_assert_eq!(second.report.fingerprint(), cold.fingerprint());
        drop(journal);
        fs::remove_dir_all(&dir).unwrap();
    }

}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// (c) Damaged storage degrades to a miss, never to a wrong answer:
    /// whatever line of the segment is truncated, bit-flipped anywhere
    /// (header, key, epoch or body; a low bit or the high bit, which
    /// leaves the file invalid UTF-8), merged with its successor, or
    /// replaced with garbage, the next journal-backed run still produces
    /// the cold report — recomputing the damaged cells — and surfaces a
    /// structured warning instead of panicking or failing the open.
    #[test]
    fn damaged_segments_demote_to_recomputation(
        line_sel in 0usize..4,
        damage in 0usize..6,
        position in any::<u32>(),
    ) {
        let plan = grid(6);
        let cold = plan.run_with_jobs(1);
        let dir = tmpdir("damage");
        {
            let mut journal = Journal::open(&dir).unwrap();
            plan.run_with_journal(&mut journal, 1);
        }
        let segment = segments(&dir).remove(0);
        let bytes = fs::read(&segment).unwrap();
        let mut lines: Vec<Vec<u8>> = bytes
            .strip_suffix(b"\n")
            .unwrap()
            .split(|&b| b == b'\n')
            .map(<[u8]>::to_vec)
            .collect();
        let mut target = line_sel % lines.len();
        let at = position as usize % lines[target].len();
        match damage {
            // Crash mid-append: the line stops partway through.
            0 => lines[target].truncate(at),
            // One flipped bit, anywhere in the line.
            1 => lines[target][at] ^= 0x40,
            2 => lines[target][at] ^= 0x80,
            3 => lines[target][at] ^= 1 << (position >> 29),
            // The newline is lost: the line and its successor merge.
            4 => {
                target %= lines.len() - 1;
                let next = lines.remove(target + 1);
                lines[target].extend_from_slice(&next);
            }
            // The line is not even JSON.
            _ => lines[target] = b"not json at all".to_vec(),
        }
        let mut damaged = lines.join(&b'\n');
        damaged.push(b'\n');
        prop_assume!(damaged != bytes);
        fs::write(&segment, damaged).unwrap();

        let mut journal = Journal::open(&dir).expect("damage never fails the open");
        let warm = plan.run_with_journal(&mut journal, 1);
        prop_assert_eq!(&warm.report, &cold, "damage must never change bytes");
        prop_assert_eq!(warm.hits + warm.computed, plan.cell_count());
        // A flipped digit can leave a line that still parses; then the
        // shape check or nothing at all notices, and either is fine as
        // long as the bytes above held. Every other damage recomputes.
        if damage != 3 {
            prop_assert!(
                warm.computed >= 1,
                "at least the damaged cell is recomputed"
            );
            // The damage surfaced somewhere structured: either the loader
            // flagged the broken line, or the lookup flagged the payload.
            prop_assert!(
                !journal.warnings().is_empty() || !warm.warnings.is_empty(),
                "damage of kind {damage} to line {target} was silent"
            );
        }
        drop(journal);
        fs::remove_dir_all(&dir).unwrap();
    }
}

/// (b) The one engine toggle left — the plan's early-stopping flag —
/// moves the epoch, and a moved epoch yields *zero* hits: entries written
/// by the early-stopping plan are invisible to its fixed-length twin
/// (same cell keys, different epoch), so neither mode can ever replay the
/// other's bytes.
#[test]
fn flipping_any_engine_toggle_yields_zero_hits() {
    let plan = grid(6);
    let flipped = grid(6).fixed_length();
    assert_ne!(
        plan.epoch(),
        flipped.epoch(),
        "the mode must move the epoch"
    );
    assert_eq!(plan.epoch(), grid(9).epoch(), "the grid must not");
    assert_eq!(plan.cell_key(0), flipped.cell_key(0));

    let dir = tmpdir("epoch-miss");
    let mut journal = Journal::open(&dir).unwrap();
    plan.run_with_journal(&mut journal, 1);
    let fixed = flipped.run_with_journal(&mut journal, 1);
    assert_eq!(fixed.hits, 0, "moved epoch must miss every cell");
    assert_eq!(fixed.computed, plan.cell_count());
    assert_eq!(fixed.report, flipped.run_with_jobs(1));
    for mode in [&plan, &flipped] {
        let again = mode.run_with_journal(&mut journal, 1);
        assert_eq!(
            again.hits,
            plan.cell_count(),
            "both epochs now coexist in the store"
        );
        assert_eq!(again.report, mode.run_with_jobs(1));
    }
    drop(journal);
    fs::remove_dir_all(&dir).unwrap();
}

/// (b), across builds: the echo rule changed what an early-stopping tree
/// or gear cell *is* (a correct source now ends it at round 2), and the
/// tag moved `sg-engine/10` → `/11` with it. A store written by a `/10`
/// build holds the old full-schedule cells under the same keys; this
/// build must not see them — 0 hits, every cell recomputed, and the
/// report the current engine's, not the stale bytes.
#[test]
fn a_store_written_before_the_echo_rule_answers_zero_hits() {
    assert_eq!(ENGINE_VERSION_TAG, "sg-engine/11");
    let plan = SweepPlan::new(
        vec![
            SweepConfig::traced(AlgorithmSpec::Exponential, 10, 3),
            SweepConfig::traced(AlgorithmSpec::KingShift { b: 3 }, 10, 3),
        ],
        vec![AdversaryFamily::random_liar(
            FaultSelection::without_source(),
        )],
        6,
    );
    // What a /10 build stored for these keys in its early-stopping
    // epoch: trees ran their whole schedule whatever the mode was.
    let stale = plan.clone().fixed_length().run_with_jobs(1);
    let current = plan.run_with_jobs(1);
    assert_ne!(stale, current, "the cells must have changed bytes");

    let dir = tmpdir("pre-echo-store");
    let mut journal = Journal::open(&dir).unwrap();
    let old_epoch = epoch_for("sg-engine/10", true);
    assert_ne!(old_epoch, plan.epoch());
    for (cell, report) in stale.cells.iter().enumerate() {
        let mut text = String::new();
        report.write_text(&mut text);
        let key = plan.cell_key(cell).expect("wire-shaped family");
        journal.append_text(key, old_epoch, &text).unwrap();
    }
    drop(journal);

    let mut journal = Journal::open(&dir).unwrap();
    assert_eq!(journal.len(), plan.cell_count());
    let first = plan.run_with_journal(&mut journal, 1);
    assert_eq!(first.hits, 0, "a /10 store must be invisible to /11");
    assert_eq!(first.computed, plan.cell_count());
    assert_eq!(first.report, current);
    let again = plan.run_with_journal(&mut journal, 1);
    assert_eq!(again.hits, plan.cell_count());
    assert_eq!(again.report, current);
    drop(journal);
    fs::remove_dir_all(&dir).unwrap();
}

/// (a), server path: a journal-backed daemon serves a repeat submit
/// entirely from cache and an overlapping, widened submit computes
/// exactly the delta — with every streamed report bit-identical to the
/// local batch path.
#[test]
fn daemon_serves_overlap_from_cache_and_computes_the_delta() {
    use shifting_gears::serve::{serve, Bind, Client, ServeOptions};

    let dir = tmpdir("daemon");
    let options = ServeOptions {
        workers: 2,
        journal: Some(dir.clone()),
        ..ServeOptions::default()
    };
    let handle = serve(&Bind::Tcp("127.0.0.1:0".to_string()), options).expect("bind");
    let addr = handle.tcp_addr().unwrap().to_string();
    let mut client = Client::connect(&addr, std::time::Duration::from_secs(10)).expect("connect");

    let narrow = grid(8);
    let cold_narrow = narrow.run_with_jobs(2);
    let job = client.submit(&narrow).expect("submit");
    let first = client.collect(job, |_, _| {}).expect("stream");
    assert_eq!(first.cached_cells, 0, "first submit is all cold");
    assert_eq!(first.report, cold_narrow);

    // Exact repeat: every cell comes from the journal, none recompute.
    let job = client.submit(&narrow).expect("resubmit");
    let warm = client.collect(job, |_, _| {}).expect("stream");
    assert_eq!(warm.cached_cells, narrow.cell_count(), "fully warm");
    assert_eq!(warm.report, cold_narrow);
    assert_eq!(warm.fingerprint, first.fingerprint);

    // Widened grid sharing the narrow grid's cells: the overlap is
    // cached, the recomputed count is exactly the delta.
    let wide = SweepPlan::new(
        narrow.configs.clone(),
        vec![
            AdversaryFamily::random_liar(FaultSelection::without_source().limit(2)),
            AdversaryFamily::crash(FaultSelection::without_source().limit(2), 2),
            AdversaryFamily::silent(FaultSelection::without_source().limit(2)),
        ],
        8,
    );
    let cold_wide = wide.run_with_jobs(2);
    let job = client.submit(&wide).expect("submit widened");
    let widened = client.collect(job, |_, _| {}).expect("stream");
    assert_eq!(
        widened.cached_cells,
        narrow.cell_count(),
        "the overlap is served from cache"
    );
    assert_eq!(widened.report, cold_wide, "merged stream matches cold run");

    drop(client);
    handle.shutdown();
    fs::remove_dir_all(&dir).unwrap();
}

/// The journal file format survives a process boundary: a store written
/// by one journal handle answers a fresh handle (fresh process state in
/// miniature) with the same bytes, and `SweepReport` equality extends to
/// the pinned fingerprint.
#[test]
fn journal_round_trips_across_reopen() {
    let plan = grid(8);
    let cold: SweepReport = plan.run_with_jobs(1);
    let dir = tmpdir("reopen");
    {
        let mut journal = Journal::open(&dir).unwrap();
        plan.run_with_journal(&mut journal, 1);
    }
    let mut journal = Journal::open(&dir).unwrap();
    let warm = plan.run_with_journal(&mut journal, 1);
    assert_eq!(warm.hits, plan.cell_count());
    assert_eq!(warm.report, cold);
    assert_eq!(warm.report.fingerprint(), cold.fingerprint());
    drop(journal);
    fs::remove_dir_all(&dir).unwrap();
}

/// One segment may mix what three generations of writers left: the
/// canonical line, a line with its fields in another order, and a cell
/// body from before the rounds summary and the early-stop rate existed.
/// The index reads the first by its header and the other two through the
/// JSON parser; the lookup decodes the first two bodies by the text
/// codec and the third by the tree codec; all three are hits.
#[test]
fn one_segment_answers_canonical_reordered_and_legacy_lines() {
    use serde::json::Value as Json;

    let plan = SweepPlan::new(
        vec![SweepConfig::traced(AlgorithmSpec::OptimalKing, 10, 3)],
        vec![
            AdversaryFamily::random_liar(FaultSelection::without_source().limit(2)),
            AdversaryFamily::crash(FaultSelection::without_source().limit(2), 2),
            AdversaryFamily::silent(FaultSelection::without_source().limit(2)),
        ],
        6,
    );
    let cold = plan.run_with_jobs(1);
    let dir = tmpdir("mixed");
    {
        let mut journal = Journal::open(&dir).unwrap();
        plan.run_with_journal(&mut journal, 1);
    }
    let segment = segments(&dir).remove(0);
    let text = fs::read_to_string(&segment).unwrap();
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    assert_eq!(lines.len(), 3);

    // Line 2: the same fact, fields reversed.
    let Json::Obj(mut fields) = Json::parse(&lines[1]).unwrap() else {
        panic!("a fact is an object")
    };
    fields.reverse();
    lines[1] = Json::Obj(fields).to_string();
    assert!(lines[1].starts_with("{\"cell\":"));

    // Line 3: canonical header, legacy body — no `early_stop_rate`, four
    // summaries (the decoder recomputes both from the samples).
    let rate = lines[2].find("\"early_stop_rate\":").unwrap();
    let samples = lines[2].find("\"samples\":[").unwrap();
    lines[2].replace_range(rate..samples, "");
    let fifth = lines[2].rfind(",{\"samples\":").unwrap();
    let end = lines[2].len() - "]}}".len();
    lines[2].replace_range(fifth..end, "");
    assert!(Json::parse(&lines[2]).is_ok(), "{}", lines[2]);
    fs::write(&segment, lines.join("\n") + "\n").unwrap();

    let mut journal = Journal::open(&dir).unwrap();
    assert!(journal.warnings().is_empty(), "{:?}", journal.warnings());
    let warm = plan.run_with_journal(&mut journal, 1);
    assert_eq!((warm.hits, warm.computed), (3, 0));
    assert!(warm.warnings.is_empty(), "{:?}", warm.warnings);
    assert_eq!(warm.report, cold);
    drop(journal);
    fs::remove_dir_all(&dir).unwrap();
}

/// The index checks a line's header at open and its body at use, so a
/// newest line with an intact header and a damaged body shadows the
/// older intact duplicate: the cell is a demoted miss with a warning,
/// the recomputed report is still the cold one, the recomputation is
/// appended as the new newest line, and compaction keeps that one.
#[test]
fn a_damaged_newest_duplicate_is_recomputed_not_served() {
    let plan = grid(6);
    let cold = plan.run_with_jobs(1);
    let dir = tmpdir("shadow");
    {
        let mut journal = Journal::open(&dir).unwrap();
        plan.run_with_journal(&mut journal, 1);
    }
    let first = fs::read_to_string(segments(&dir).remove(0)).unwrap();
    let line = first.lines().next().unwrap();
    let damaged = line.replacen("\"samples\":[[", "\"samples\":[{", 1);
    assert_ne!(damaged, line);
    fs::write(dir.join("segment-000001.ndjson"), damaged + "\n").unwrap();

    let mut journal = Journal::open(&dir).unwrap();
    assert!(
        journal.warnings().is_empty(),
        "open reads headers only: {:?}",
        journal.warnings()
    );
    assert_eq!(journal.stat().unwrap().corrupt_lines, 1);
    let warm = plan.run_with_journal(&mut journal, 1);
    assert_eq!((warm.hits, warm.computed), (plan.cell_count() - 1, 1));
    assert_eq!(warm.warnings.len(), 1, "{:?}", warm.warnings);
    assert!(warm.warnings[0].contains("payload undecodable"));
    assert_eq!(warm.report, cold);

    // The recomputation is now the newest line for that address.
    let again = plan.run_with_journal(&mut journal, 1);
    assert_eq!((again.hits, again.computed), (plan.cell_count(), 0));
    let report = journal.compact().unwrap();
    assert_eq!(report.entries_kept, plan.cell_count());
    assert_eq!(report.segments_removed, 3);
    drop(journal);

    let mut journal = Journal::open(&dir).unwrap();
    assert_eq!(journal.stat().unwrap().corrupt_lines, 0);
    let compacted = plan.run_with_journal(&mut journal, 1);
    assert_eq!((compacted.hits, compacted.computed), (plan.cell_count(), 0));
    assert_eq!(compacted.report, cold);
    drop(journal);
    fs::remove_dir_all(&dir).unwrap();
}

/// The benchmark's `king-expedite` grid at `base_seed`: the three king
/// specs at n = 7, 16, 31 (maximal t) × four honest-source families ×
/// 64 seeds — 36 cells.
fn king_expedite(base_seed: u64) -> SweepPlan {
    let honest = FaultSelection::without_source;
    let configs = [
        AlgorithmSpec::OptimalKing,
        AlgorithmSpec::PhaseKing,
        AlgorithmSpec::PhaseQueen,
    ]
    .into_iter()
    .flat_map(|spec| {
        [7, 16, 31]
            .map(|n| SweepConfig::traced(spec, n, spec.max_resilience(n)))
            .into_iter()
    })
    .collect();
    SweepPlan::new(
        configs,
        vec![
            AdversaryFamily::random_liar(honest()),
            AdversaryFamily::crash(honest(), 2),
            AdversaryFamily::silent(honest()),
            AdversaryFamily::chain_revealer(honest(), 2, 2),
        ],
        64,
    )
    .with_base_seed(base_seed)
}

#[test]
fn pinned_epochs() {
    assert_eq!(
        epoch_for(ENGINE_VERSION_TAG, true),
        EngineEpoch(0xffa7_8f62_8bfc_c422)
    );
    assert_eq!(
        epoch_for(ENGINE_VERSION_TAG, false),
        EngineEpoch(0x1ea2_566b_96ec_0e43)
    );
}

#[test]
fn pinned_canary_cell_key() {
    // `optimal-king n=16 t=5 random-liar`, 1000 seeds, base 0.
    let canary = SweepPlan::new(
        vec![SweepConfig::traced(AlgorithmSpec::OptimalKing, 16, 5)],
        vec![AdversaryFamily::random_liar(
            FaultSelection::without_source(),
        )],
        1000,
    );
    assert_eq!(canary.cell_key(0), Some(CellKey(0xa285_41d7_27e8_d30c)));
}

#[test]
fn pinned_king_expedite_keys_fingerprint_and_text() {
    let plan = king_expedite(0);
    let mut keys = Fingerprint::new();
    for cell in 0..plan.cell_count() {
        keys.mix_u64(plan.cell_key(cell).expect("named family").0);
    }
    assert_eq!(keys.hex(), "b0e2e8a45045dcc6", "the 36 cell keys");

    let report = plan.run_with_jobs(1);
    assert_eq!(report.fingerprint_hex(), "796341a96ae03525");
    // Every summary's f64 bits and the text codec's spelling of them.
    let mut text = Fingerprint::new();
    let mut line = String::new();
    for cell in &report.cells {
        line.clear();
        cell.write_text(&mut line);
        text.mix_bytes(line.as_bytes());
    }
    assert_eq!(text.hex(), "fca3ec887798e137", "the cells' write_text");
}
