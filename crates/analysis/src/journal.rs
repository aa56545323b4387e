//! Journal-backed sweep execution: content addressing + the warm path.
//!
//! Every sweep cell is a pure function of its *coordinate* — spec, `n`,
//! `t`, adversary family, seed stream, samples per cell — and of the
//! *engine* that executes it. This module derives the two halves of the
//! [`sg_journal`] address from those facts:
//!
//! * [`SweepPlan::cell_key`] fingerprints the coordinate's canonical
//!   wire form (the same [`crate::wire`] encodings `sg-serve/1` and the
//!   scenario format speak, so the address is stable across processes
//!   and machines); [`SweepPlan::cell_keys`] derives a whole plan's
//!   keys the same way, encoding each row and column once;
//! * [`SweepPlan::epoch`] fingerprints the engine the plan asks for:
//!   [`ENGINE_VERSION_TAG`] and the plan's early-stopping flag, the one
//!   option that changes results. Ask for the other mode — or land an
//!   engine change that bumps the tag — and every lookup misses, which
//!   is the entire invalidation story. The epoch is a function of the
//!   plan, never of the process: a client and a daemon derive the same
//!   one from the same submit frame.
//!
//! [`SweepPlan::run_with_journal`] is then the incremental executor:
//! partition the grid into hits and misses, compute only the misses
//! (through the *same* chunked parallel executor as a cold run, so the
//! computed bytes are identical), append them, and splice the streams
//! back in grid order. The merged [`SweepReport`] is bit-identical to a
//! cold [`SweepPlan::run`] — same cells, same samples, same
//! fingerprint.
//!
//! Cache discipline is the instance pool's "absent, never wrong": an
//! undecodable payload, a shape mismatch, a closure-built family with no
//! wire form — each demotes the cell to a miss with a structured
//! warning. The journal can only ever save work, not change answers.

use serde::ToJson;
use sg_journal::{CellKey, EngineEpoch, Journal};

use crate::sweep::{CellReport, Fingerprint, SweepPlan, SweepReport};

/// Compiled-in engine version tag, mixed into every [`epoch_for`].
///
/// Bump this whenever an engine or protocol change may alter sweep
/// bytes (new kernel, changed tally rule, different accounting): the
/// epoch moves, every journal entry written before the change misses,
/// and `sg journal compact` reclaims the dead epoch.
pub const ENGINE_VERSION_TAG: &str = "sg-engine/11";

/// Fingerprints an engine identity: `tag` plus whether runs may stop
/// early. Public so invalidation tests can enumerate neighbouring
/// epochs and `sg journal stat` can name this build's two.
pub fn epoch_for(tag: &str, early_stopping: bool) -> EngineEpoch {
    let mut fp = Fingerprint::new();
    fp.mix_bytes(tag.as_bytes());
    fp.mix_u64(u64::from(early_stopping));
    EngineEpoch(fp.value())
}

/// A journal-backed sweep's outcome: the merged report plus the
/// hit/miss split that produced it.
#[derive(Debug)]
pub struct JournalSweep {
    /// The merged report — bit-identical to a cold [`SweepPlan::run`].
    pub report: SweepReport,
    /// Cells streamed from the journal without recomputation.
    pub hits: usize,
    /// Cells computed (and appended) this run.
    pub computed: usize,
    /// Structured validation warnings (undecodable or mismatched cached
    /// payloads that were demoted to misses). Load-time segment warnings
    /// live on [`Journal::warnings`].
    pub warnings: Vec<String>,
}

impl SweepPlan {
    /// The journal epoch this plan's cells are stored under: this
    /// build's [`ENGINE_VERSION_TAG`] and the plan's early-stopping flag.
    pub fn epoch(&self) -> EngineEpoch {
        epoch_for(ENGINE_VERSION_TAG, self.early_stopping)
    }

    /// The content address of flat cell `cell`, or `None` when the
    /// cell's adversary family was built from closures and has no wire
    /// form — such cells are simply always computed.
    ///
    /// The key fingerprints the canonical JSON wire encodings of the
    /// cell's [`SweepConfig`](crate::SweepConfig) (spec, `n`, `t`,
    /// source value, trace flag) and adversary family, plus the cell's
    /// first seed and the samples-per-cell count — everything that
    /// determines the cell's bytes besides the engine itself, which
    /// [`SweepPlan::epoch`] covers.
    ///
    /// # Panics
    ///
    /// Panics if `cell >= cell_count()`.
    pub fn cell_key(&self, cell: usize) -> Option<CellKey> {
        let (ci, ai) = self.cell_coords(cell);
        let family = self.family_text(ai)?;
        Some(self.key_after(self.config_prefix(ci), &family, ci, ai))
    }

    /// Every cell's [`SweepPlan::cell_key`], in flat cell order.
    ///
    /// The same derivation, with each config encoded once per row (its
    /// FNV state kept after the text) and each family once per column:
    /// a cell then costs only the `0xFF` separator, its family's text,
    /// its first seed and the samples-per-cell count. Building and
    /// printing the two JSON trees is nearly all of a lone key's cost,
    /// and they are the same for a whole row or column.
    pub fn cell_keys(&self) -> Vec<Option<CellKey>> {
        let families: Vec<Option<String>> = (0..self.adversaries.len())
            .map(|ai| self.family_text(ai))
            .collect();
        let mut keys = Vec::with_capacity(self.cell_count());
        for ci in 0..self.configs.len() {
            let row = self.config_prefix(ci);
            keys.extend(families.iter().enumerate().map(|(ai, family)| {
                let family = family.as_deref()?;
                Some(self.key_after(row, family, ci, ai))
            }));
        }
        keys
    }

    /// The fingerprint of row `ci`'s canonical config text: where every
    /// key of the row starts.
    fn config_prefix(&self, ci: usize) -> Fingerprint {
        let mut fp = Fingerprint::new();
        fp.mix_bytes(self.configs[ci].to_json().to_string().as_bytes());
        fp
    }

    /// Column `ai`'s canonical family text, or `None` for a closure
    /// family (it has no wire form).
    fn family_text(&self, ai: usize) -> Option<String> {
        match self.adversaries[ai].to_json() {
            serde::json::Value::Null => None,
            family => Some(family.to_string()),
        }
    }

    /// Finishes cell `(ci, ai)`'s key from its row's prefix and its
    /// column's family text.
    fn key_after(&self, mut fp: Fingerprint, family: &str, ci: usize, ai: usize) -> CellKey {
        // A non-JSON byte between the two encodings, so no config text
        // can alias into a family text.
        fp.mix_bytes(&[0xFF]);
        fp.mix_bytes(family.as_bytes());
        fp.mix_u64(self.seed_for(ci, ai, 0));
        fp.mix_u64(self.seeds_per_cell);
        CellKey(fp.value())
    }

    /// Looks flat cell `cell` up in `journal` under `epoch` by its
    /// already-derived `key` ([`SweepPlan::cell_keys`]) and validates the
    /// payload — here, at use: the journal hands back the stored text
    /// having checked only its line's header. `Ok(Some)` is a usable
    /// hit, `Ok(None)` a plain miss, and `Err` a *demoted* miss — a
    /// stored entry that decoded badly or described a different cell,
    /// with the structured warning explaining why. The caller recomputes
    /// on `Ok(None)` and `Err` alike; the error never aborts anything.
    /// A keyless (closure-family) cell has nothing to look up: it is
    /// always computed.
    ///
    /// # Panics
    ///
    /// Panics if `cell >= cell_count()`.
    pub fn cached_cell(
        &self,
        journal: &Journal,
        epoch: EngineEpoch,
        cell: usize,
        key: CellKey,
    ) -> Result<Option<CellReport>, String> {
        let spec_name = self.configs[self.cell_coords(cell).0].spec.name();
        self.cached_cell_named(journal, epoch, cell, key, &spec_name)
    }

    /// [`SweepPlan::cached_cell`] with the cell's spec name derived by
    /// the caller, once per row: `AlgorithmSpec::name` allocates.
    fn cached_cell_named(
        &self,
        journal: &Journal,
        epoch: EngineEpoch,
        cell: usize,
        key: CellKey,
        spec_name: &str,
    ) -> Result<Option<CellReport>, String> {
        let Some(text) = journal.get(key, epoch) else {
            return Ok(None);
        };
        match CellReport::decode_text(text) {
            Ok(cached) if self.cell_shape_matches(cell, spec_name, &cached) => Ok(Some(cached)),
            Ok(_) => Err(format!(
                "journal: entry {key} decodes to a different cell shape — recomputing"
            )),
            Err(e) => Err(format!(
                "journal: entry {key} payload undecodable ({e}) — recomputing"
            )),
        }
    }

    /// Executes the plan against `journal`: cells already stored under
    /// the plan's [epoch](SweepPlan::epoch) are streamed back, only the
    /// rest are computed (with `jobs` workers, through the cold path's
    /// exact chunked executor) and appended.
    ///
    /// # Panics
    ///
    /// Panics if the plan is empty or any computed run violates
    /// agreement, exactly like [`SweepPlan::run_with_jobs`].
    pub fn run_with_journal(&self, journal: &mut Journal, jobs: usize) -> JournalSweep {
        assert!(
            !self.configs.is_empty() && !self.adversaries.is_empty() && self.seeds_per_cell > 0,
            "empty sweep plan"
        );
        let epoch = self.epoch();
        let count = self.cell_count();
        let keys = self.cell_keys();
        let mut slots: Vec<Option<CellReport>> = Vec::new();
        slots.resize_with(count, || None);
        let mut warnings = Vec::new();
        let columns = self.adversaries.len();
        for (ci, row) in keys.chunks(columns).enumerate() {
            // Each row's spec name once, as `cell_keys` encodes each
            // row's config once.
            let spec_name = self.configs[ci].spec.name();
            for (ai, key) in row.iter().enumerate() {
                let Some(key) = *key else { continue };
                let cell = ci * columns + ai;
                match self.cached_cell_named(journal, epoch, cell, key, &spec_name) {
                    Ok(hit) => slots[cell] = hit,
                    Err(warning) => warnings.push(warning),
                }
            }
        }
        let misses: Vec<usize> = (0..count).filter(|&c| slots[c].is_none()).collect();
        let computed = self.run_cells_with_jobs(&misses, jobs);
        let mut text = String::new();
        for (&cell, report) in misses.iter().zip(computed) {
            if let Some(key) = keys[cell] {
                text.clear();
                report.write_text(&mut text);
                if let Err(e) = journal.append_text(key, epoch, &text) {
                    warnings.push(format!("journal: append of entry {key} failed ({e})"));
                }
            }
            slots[cell] = Some(report);
        }
        let cells: Vec<CellReport> = slots
            .into_iter()
            .map(|slot| slot.expect("every cell is a hit or was computed"))
            .collect();
        JournalSweep {
            report: SweepReport {
                total_runs: self.total_runs(),
                cells,
            },
            hits: count - misses.len(),
            computed: misses.len(),
            warnings,
        }
    }

    /// Belt-and-braces validation of a cached payload against the
    /// plan's expectation for `cell`. The address already covers all of
    /// this; the check exists so that even a key collision (or a
    /// hand-edited store) degrades to a recompute, never a wrong cell.
    /// `spec_name` is the row's `config.spec.name()`.
    fn cell_shape_matches(&self, cell: usize, spec_name: &str, cached: &CellReport) -> bool {
        let (ci, ai) = self.cell_coords(cell);
        let config = &self.configs[ci];
        cached.spec_name == spec_name
            && cached.n == config.n
            && cached.t == config.t
            && cached.adversary == self.adversaries[ai].name()
            && cached.first_seed == self.seed_for(ci, ai, 0)
            && cached.samples.len() as u64 == self.seeds_per_cell
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::SweepConfig;
    use crate::AdversaryFamily;
    use sg_adversary::FaultSelection;
    use sg_core::AlgorithmSpec;

    fn plan(seeds: u64) -> SweepPlan {
        SweepPlan::new(
            vec![SweepConfig::traced(AlgorithmSpec::OptimalKing, 7, 2)],
            vec![AdversaryFamily::random_liar(
                FaultSelection::without_source(),
            )],
            seeds,
        )
    }

    #[test]
    fn keys_are_coordinate_pure() {
        let a = plan(5);
        let b = plan(5);
        assert_eq!(a.cell_key(0), b.cell_key(0));
        assert_ne!(a.cell_key(0), plan(6).cell_key(0), "seed count is keyed");
        assert_ne!(
            a.cell_key(0),
            plan(5).with_base_seed(1).cell_key(0),
            "seed stream is keyed"
        );
    }

    #[test]
    fn closure_families_have_no_key() {
        let plan = SweepPlan::new(
            vec![SweepConfig::traced(AlgorithmSpec::OptimalKing, 7, 2)],
            vec![AdversaryFamily::new("bespoke", |_seed| {
                Box::new(sg_sim::NoFaults)
            })],
            3,
        );
        assert_eq!(plan.cell_key(0), None);
    }

    #[test]
    fn row_and_column_keys_are_the_per_cell_keys() {
        let plan = SweepPlan::new(
            vec![
                SweepConfig::traced(AlgorithmSpec::OptimalKing, 7, 2),
                SweepConfig::traced(AlgorithmSpec::Hybrid { b: 3 }, 10, 3),
                SweepConfig::traced(AlgorithmSpec::PhaseQueen, 16, 3),
            ],
            vec![
                AdversaryFamily::random_liar(FaultSelection::without_source()),
                AdversaryFamily::new("bespoke", |_seed| Box::new(sg_sim::NoFaults)),
                AdversaryFamily::crash(FaultSelection::with_source().limit(1), 2),
                AdversaryFamily::no_faults(),
            ],
            5,
        )
        .with_base_seed(0xDEAD_BEEF);
        let keys = plan.cell_keys();
        let one_by_one: Vec<_> = (0..plan.cell_count()).map(|c| plan.cell_key(c)).collect();
        assert_eq!(keys, one_by_one);
        assert_eq!(keys.iter().filter(|k| k.is_none()).count(), 3);
        assert_eq!(keys.iter().flatten().count(), 9);
    }

    #[test]
    fn epoch_moves_with_the_mode_and_the_tag() {
        let base = plan(5).epoch();
        assert_eq!(base, epoch_for(ENGINE_VERSION_TAG, true));
        assert_eq!(
            base,
            plan(9).with_base_seed(3).epoch(),
            "coordinates are not epoch"
        );
        assert_ne!(base, plan(5).fixed_length().epoch());
        assert_ne!(base, epoch_for("sg-engine/next", true));
        // The tag the echo rule retired: tree and gear cells changed bytes
        // in the early-stopping epoch, so a /10 store must miss.
        assert_ne!(base, epoch_for("sg-engine/10", true));
        assert_ne!(
            plan(5).fixed_length().epoch(),
            epoch_for("sg-engine/10", false)
        );
        assert_eq!(
            plan(5).cell_key(0),
            plan(5).fixed_length().cell_key(0),
            "the mode lives in the epoch, not the key"
        );
    }
}
