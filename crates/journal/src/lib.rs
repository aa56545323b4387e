//! Append-only, content-addressed cell result store: `sg-journal/1`.
//!
//! A journal is a directory of NDJSON segment files plus an in-memory
//! index. Every line is one immutable *fact* — the full wire encoding of
//! a completed sweep cell, addressed by a caller-computed
//! ([`CellKey`], [`EngineEpoch`]) pair:
//!
//! ```text
//! {"schema":"sg-journal/1","key":"f3a401c2899d6b10","epoch":"41c2…","cell":{…}}
//! ```
//!
//! * [`CellKey`] is an FNV fingerprint over the cell *coordinate* — the
//!   canonical wire form of everything that determines the cell's bytes
//!   (spec, `n`, `t`, family encoding, first seed, samples per cell).
//!   The journal itself never interprets it; key derivation lives with
//!   the wire codecs in `sg_analysis`.
//! * [`EngineEpoch`] fingerprints the *engine asked for*: a compiled-in
//!   engine version tag and the plan's early-stopping flag. Any engine
//!   change moves the epoch, so stale entries are simply never looked
//!   up again (and [`Journal::compact`] drops them).
//!
//! # "Absent, never wrong"
//!
//! The store follows the instance-pool cache discipline: every doubt is
//! a *miss*. A truncated final line (crash mid-append), a bit-flipped
//! byte, an unknown schema, a missing field — each skips that line,
//! records a structured warning ([`Journal::warnings`]), and leaves the
//! journal fully usable. Nothing in this crate can turn disk corruption
//! into a wrong cell; at worst a cell is recomputed.
//!
//! # Concurrency
//!
//! One writer at a time: [`Journal::open`] takes a `LOCK` file
//! containing the owner's pid and refuses to open while a live process
//! holds it (a lock whose pid no longer exists is stale and is stolen).
//! The lock is released on drop.
//!
//! # Bounding the store
//!
//! Appends never rewrite history, so re-running sweeps accumulates
//! superseded duplicates and dead epochs. [`Journal::compact`] rewrites
//! the live index — one line per (key, epoch), newest wins — into a
//! single fresh segment and deletes the rest.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::collections::HashMap;
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufRead, BufReader, Write};
use std::path::{Path, PathBuf};

use serde::json::Value as Json;

/// The on-disk schema identifier carried by every journal line.
pub const SCHEMA: &str = "sg-journal/1";

/// Content address of one sweep cell: an FNV fingerprint of the cell's
/// canonical coordinate wire form. Computed by the caller (the journal
/// stores it opaquely), displayed as 16 hex digits.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct CellKey(pub u64);

/// Fingerprint of the engine a cell was computed under (compiled-in
/// version tag + the plan's early-stopping flag). Entries are only ever
/// served back under the exact epoch that produced them.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EngineEpoch(pub u64);

impl fmt::Display for CellKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

impl fmt::Display for EngineEpoch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Anything that can go wrong opening or writing a journal. Read-side
/// trouble is deliberately *not* here: corrupt lines degrade to misses
/// and warnings, never to errors.
#[derive(Debug)]
pub enum JournalError {
    /// Filesystem failure (directory creation, segment write, …).
    Io(io::Error),
    /// Another live process holds the journal's writer lock.
    Locked {
        /// The journal directory.
        dir: PathBuf,
        /// Contents of the `LOCK` file (the holder's pid).
        holder: String,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal i/o: {e}"),
            JournalError::Locked { dir, holder } => write!(
                f,
                "journal {} is locked by live process {holder}",
                dir.display()
            ),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<io::Error> for JournalError {
    fn from(e: io::Error) -> Self {
        JournalError::Io(e)
    }
}

/// Point-in-time shape of a journal, from [`Journal::stat`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct JournalStats {
    /// Segment files on disk.
    pub segments: usize,
    /// Live (key, epoch) entries in the index.
    pub entries: usize,
    /// Distinct engine epochs among the live entries.
    pub epochs: usize,
    /// Lines superseded by a later append of the same (key, epoch).
    pub superseded: usize,
    /// Lines skipped as corrupt/foreign while loading (see
    /// [`Journal::warnings`]).
    pub corrupt_lines: usize,
    /// Total bytes across all segment files.
    pub bytes: u64,
}

/// Outcome of [`Journal::compact`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CompactionReport {
    /// Segment files deleted.
    pub segments_removed: usize,
    /// Live entries rewritten into the fresh segment.
    pub entries_kept: usize,
    /// Superseded + corrupt lines that did not survive.
    pub lines_dropped: usize,
}

/// An open journal: in-memory index over the directory's segments, plus
/// an exclusive append handle. See the module docs for the format.
pub struct Journal {
    dir: PathBuf,
    index: HashMap<(CellKey, EngineEpoch), Json>,
    /// Lazily-opened append handle; a fresh segment per open.
    segment: Option<File>,
    next_segment: u64,
    warnings: Vec<String>,
    superseded: usize,
    corrupt_lines: usize,
    /// Set once the lock file is ours, so drop knows to remove it.
    locked: bool,
}

impl Journal {
    /// Opens (creating if necessary) the journal at `dir`, loads every
    /// segment into the index, and takes the writer lock.
    ///
    /// # Errors
    ///
    /// [`JournalError::Locked`] if a live process holds the lock;
    /// [`JournalError::Io`] on filesystem failure. Corrupt *lines* are
    /// not errors — they become warnings and misses.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Journal, JournalError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let mut journal = Journal {
            dir,
            index: HashMap::new(),
            segment: None,
            next_segment: 0,
            warnings: Vec::new(),
            superseded: 0,
            corrupt_lines: 0,
            locked: false,
        };
        journal.acquire_lock()?;
        for path in journal.segment_paths()? {
            journal.load_segment(&path)?;
        }
        Ok(journal)
    }

    /// The journal directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Looks up the cell stored under exactly (`key`, `epoch`).
    pub fn get(&self, key: CellKey, epoch: EngineEpoch) -> Option<&Json> {
        self.index.get(&(key, epoch))
    }

    /// Live entries in the index.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the index holds no entries.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Appends one cell fact and indexes it. Within a process the write
    /// is durable-ordered (line + flush) before the index update, so a
    /// crash can lose at most the line being written — which the next
    /// open degrades to a miss.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] if the segment cannot be written.
    pub fn append(
        &mut self,
        key: CellKey,
        epoch: EngineEpoch,
        cell: &Json,
    ) -> Result<(), JournalError> {
        if self.segment.is_none() {
            let path = self.dir.join(segment_name(self.next_segment));
            self.next_segment += 1;
            self.segment = Some(OpenOptions::new().create(true).append(true).open(path)?);
        }
        let file = self.segment.as_mut().expect("segment just opened");
        writeln!(file, "{}", fact_line(key, epoch, cell))?;
        file.flush()?;
        if self.index.insert((key, epoch), cell.clone()).is_some() {
            self.superseded += 1;
        }
        Ok(())
    }

    /// Structured warnings accumulated while loading (one per skipped
    /// line, with segment file, line number, and reason).
    pub fn warnings(&self) -> &[String] {
        &self.warnings
    }

    /// Current shape of the store.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] if the directory cannot be listed.
    pub fn stat(&self) -> Result<JournalStats, JournalError> {
        let paths = self.segment_paths()?;
        let mut bytes = 0;
        for p in &paths {
            bytes += fs::metadata(p)?.len();
        }
        let mut epochs: Vec<EngineEpoch> = self.index.keys().map(|(_, e)| *e).collect();
        epochs.sort_unstable();
        epochs.dedup();
        Ok(JournalStats {
            segments: paths.len(),
            entries: self.index.len(),
            epochs: epochs.len(),
            superseded: self.superseded,
            corrupt_lines: self.corrupt_lines,
            bytes,
        })
    }

    /// Rewrites the live index — newest line per (key, epoch), in
    /// deterministic key order — into one fresh segment and deletes
    /// every older segment, dropping superseded and corrupt lines.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] on filesystem failure. The fresh segment is
    /// fully written before any old segment is removed, so a crash
    /// mid-compaction leaves (at worst) duplicates, never data loss.
    pub fn compact(&mut self) -> Result<CompactionReport, JournalError> {
        let old = self.segment_paths()?;
        let dropped = self.superseded + self.corrupt_lines;
        self.segment = None; // close the append handle before the rewrite
        let path = self.dir.join(segment_name(self.next_segment));
        self.next_segment += 1;
        let mut entries: Vec<(&(CellKey, EngineEpoch), &Json)> = self.index.iter().collect();
        entries.sort_by_key(|(coords, _)| **coords);
        let mut file = File::create(&path)?;
        for (&(key, epoch), cell) in entries {
            writeln!(file, "{}", fact_line(key, epoch, cell))?;
        }
        file.sync_all()?;
        for p in &old {
            fs::remove_file(p)?;
        }
        self.superseded = 0;
        self.corrupt_lines = 0;
        Ok(CompactionReport {
            segments_removed: old.len(),
            entries_kept: self.index.len(),
            lines_dropped: dropped,
        })
    }

    /// Sorted segment paths; also advances `next_segment` past them.
    fn segment_paths(&self) -> Result<Vec<PathBuf>, JournalError> {
        let mut paths = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let path = entry?.path();
            if let Some(name) = path.file_name().and_then(|n| n.to_str()) {
                if name.starts_with("segment-") && name.ends_with(".ndjson") {
                    paths.push(path);
                }
            }
        }
        paths.sort();
        Ok(paths)
    }

    fn load_segment(&mut self, path: &Path) -> Result<(), JournalError> {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("segment")
            .to_string();
        if let Some(seq) = name
            .strip_prefix("segment-")
            .and_then(|s| s.strip_suffix(".ndjson"))
            .and_then(|s| s.parse::<u64>().ok())
        {
            self.next_segment = self.next_segment.max(seq + 1);
        }
        let reader = BufReader::new(File::open(path)?);
        for (lineno, line) in reader.lines().enumerate() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            match parse_fact(&line) {
                Ok((key, epoch, cell)) => {
                    if self.index.insert((key, epoch), cell).is_some() {
                        self.superseded += 1;
                    }
                }
                Err(reason) => {
                    self.corrupt_lines += 1;
                    self.warnings.push(format!(
                        "journal: {name}:{}: {reason} — treating as a miss",
                        lineno + 1
                    ));
                }
            }
        }
        Ok(())
    }

    /// Takes the `LOCK` file. A lock naming a pid that is no longer
    /// alive (crashed writer) is stale and is stolen; a live holder is
    /// a hard error.
    fn acquire_lock(&mut self) -> Result<(), JournalError> {
        let path = self.lock_path();
        for _ in 0..2 {
            match OpenOptions::new().write(true).create_new(true).open(&path) {
                Ok(mut file) => {
                    write!(file, "{}", std::process::id())?;
                    self.locked = true;
                    return Ok(());
                }
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                    let holder = fs::read_to_string(&path).unwrap_or_default();
                    if holder_is_live(holder.trim()) {
                        return Err(JournalError::Locked {
                            dir: self.dir.clone(),
                            holder: holder.trim().to_string(),
                        });
                    }
                    // Stale lock from a dead writer: steal it and retry
                    // the create_new (once — two stale rounds means the
                    // filesystem is lying to us).
                    fs::remove_file(&path)?;
                }
                Err(e) => return Err(e.into()),
            }
        }
        Err(JournalError::Io(io::Error::other(
            "could not take the journal lock after clearing a stale one",
        )))
    }

    fn lock_path(&self) -> PathBuf {
        self.dir.join("LOCK")
    }
}

impl Drop for Journal {
    fn drop(&mut self) {
        if self.locked {
            fs::remove_file(self.lock_path()).ok();
        }
    }
}

/// Whether the pid in a `LOCK` file names a live process. An
/// unparseable pid counts as dead (the lock is garbage either way).
fn holder_is_live(holder: &str) -> bool {
    let Ok(pid) = holder.parse::<u32>() else {
        return false;
    };
    if pid == std::process::id() {
        // Our own pid in a pre-existing lock means a previous journal in
        // this process leaked it; that journal is gone, the lock is not
        // protecting anything.
        return false;
    }
    #[cfg(target_os = "linux")]
    {
        Path::new("/proc").join(pid.to_string()).exists()
    }
    #[cfg(not(target_os = "linux"))]
    {
        // Without a portable liveness probe, assume the holder is live:
        // refusing to open is the safe failure.
        true
    }
}

/// Segment file name for sequence number `seq`; zero-padded so a plain
/// lexicographic sort is load order.
fn segment_name(seq: u64) -> String {
    format!("segment-{seq:06}.ndjson")
}

/// One NDJSON fact line.
fn fact_line(key: CellKey, epoch: EngineEpoch, cell: &Json) -> String {
    Json::Obj(vec![
        ("schema".to_string(), Json::from(SCHEMA)),
        ("key".to_string(), Json::from(key.to_string().as_str())),
        ("epoch".to_string(), Json::from(epoch.to_string().as_str())),
        ("cell".to_string(), cell.clone()),
    ])
    .to_string()
}

/// Decodes one fact line; any deviation is a reason string (→ warning +
/// miss), never a panic.
fn parse_fact(line: &str) -> Result<(CellKey, EngineEpoch, Json), String> {
    let doc = Json::parse(line).map_err(|e| format!("unparseable line ({e})"))?;
    let schema = doc
        .get("schema")
        .and_then(|s| s.as_str())
        .ok_or("missing 'schema'")?;
    if schema != SCHEMA {
        return Err(format!(
            "foreign schema '{schema}' (this store is {SCHEMA})"
        ));
    }
    let hex = |field: &str| -> Result<u64, String> {
        let text = doc
            .get(field)
            .and_then(|v| v.as_str())
            .ok_or(format!("missing '{field}'"))?;
        u64::from_str_radix(text, 16).map_err(|_| format!("'{field}' is not a hex fingerprint"))
    };
    let key = CellKey(hex("key")?);
    let epoch = EngineEpoch(hex("epoch")?);
    let cell = doc.get("cell").ok_or("missing 'cell'")?;
    Ok((key, epoch, cell.clone()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("sg-journal-test-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn cell(v: u64) -> Json {
        Json::Obj(vec![("v".to_string(), Json::from(v))])
    }

    #[test]
    fn round_trips_across_reopen() {
        let dir = tmpdir("round-trip");
        {
            let mut j = Journal::open(&dir).unwrap();
            j.append(CellKey(1), EngineEpoch(7), &cell(10)).unwrap();
            j.append(CellKey(2), EngineEpoch(7), &cell(20)).unwrap();
        }
        let j = Journal::open(&dir).unwrap();
        assert_eq!(j.len(), 2);
        assert_eq!(j.get(CellKey(1), EngineEpoch(7)), Some(&cell(10)));
        assert_eq!(j.get(CellKey(2), EngineEpoch(7)), Some(&cell(20)));
        assert_eq!(
            j.get(CellKey(1), EngineEpoch(8)),
            None,
            "epoch is part of the address"
        );
        assert!(j.warnings().is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_lines_become_warnings_not_errors() {
        let dir = tmpdir("corrupt");
        {
            let mut j = Journal::open(&dir).unwrap();
            j.append(CellKey(1), EngineEpoch(7), &cell(10)).unwrap();
        }
        // Simulate a crash mid-append plus assorted damage.
        let seg = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| p.extension().is_some_and(|e| e == "ndjson"))
            .unwrap();
        let mut text = fs::read_to_string(&seg).unwrap();
        text.push_str("{\"schema\":\"sg-journal/1\",\"key\":\"00000000000000\n");
        text.push_str(
            "{\"schema\":\"sg-journal/9\",\"key\":\"02\",\"epoch\":\"07\",\"cell\":{}}\n",
        );
        text.push_str(
            "{\"schema\":\"sg-journal/1\",\"key\":\"zz\",\"epoch\":\"07\",\"cell\":{}}\n",
        );
        fs::write(&seg, text).unwrap();
        let j = Journal::open(&dir).unwrap();
        assert_eq!(j.len(), 1, "the intact line survives");
        assert_eq!(j.warnings().len(), 3, "{:?}", j.warnings());
        assert_eq!(j.stat().unwrap().corrupt_lines, 3);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compact_rewrites_to_one_segment() {
        let dir = tmpdir("compact");
        for round in 0..3u64 {
            let mut j = Journal::open(&dir).unwrap();
            // Same keys every round: rounds 1–2 are pure supersessions.
            j.append(CellKey(1), EngineEpoch(7), &cell(round)).unwrap();
            j.append(CellKey(2), EngineEpoch(7), &cell(round)).unwrap();
        }
        let mut j = Journal::open(&dir).unwrap();
        assert_eq!(j.stat().unwrap().segments, 3);
        assert_eq!(j.stat().unwrap().superseded, 4);
        let report = j.compact().unwrap();
        assert_eq!(report.segments_removed, 3);
        assert_eq!(report.entries_kept, 2);
        assert_eq!(report.lines_dropped, 4);
        let stats = j.stat().unwrap();
        assert_eq!((stats.segments, stats.entries), (1, 2));
        assert_eq!(
            j.get(CellKey(1), EngineEpoch(7)),
            Some(&cell(2)),
            "newest wins"
        );
        drop(j);
        // The compacted store reloads identically.
        let j = Journal::open(&dir).unwrap();
        assert_eq!(j.len(), 2);
        assert!(j.warnings().is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn writer_lock_excludes_live_holders_and_steals_stale_ones() {
        let dir = tmpdir("lock");
        fs::create_dir_all(&dir).unwrap();
        // A live holder (pid 1 is always alive on linux) excludes us.
        fs::write(dir.join("LOCK"), "1").unwrap();
        assert!(matches!(
            Journal::open(&dir),
            Err(JournalError::Locked { .. })
        ));
        // A dead holder's lock is stolen.
        fs::write(dir.join("LOCK"), "999999999").unwrap();
        let j = Journal::open(&dir).unwrap();
        drop(j);
        assert!(!dir.join("LOCK").exists(), "drop releases the lock");
        fs::remove_dir_all(&dir).unwrap();
    }
}
