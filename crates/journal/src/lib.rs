//! Append-only, content-addressed cell result store: `sg-journal/1`.
//!
//! A journal is a directory of NDJSON segment files plus an in-memory
//! index of *text ranges*. Every line is one immutable *fact* — the full
//! wire encoding of a completed sweep cell, addressed by a
//! caller-computed ([`CellKey`], [`EngineEpoch`]) pair:
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
//! # What open reads, what lookup reads
//!
//! [`Journal::open`] reads each segment once into a buffer it keeps,
//! finds its line ends 64 bytes at a time, and checks, per line, only
//! the header the writer emits — the exact bytes above up to `"cell":`,
//! sixteen lowercase hex digits in each address field, and the closing
//! `}` — mapping (key, epoch) to the byte range of the cell text. Nothing is parsed, cloned or freed for a cell that
//! is never looked up. A line in any other shape (reordered fields,
//! whitespace, a foreign schema, a hand edit) goes through the full JSON
//! parse, so it is accepted or warned about exactly as a strict reader
//! would; its cell is kept re-encoded.
//!
//! [`Journal::get`] returns the stored cell *text*. The journal does not
//! know the cell codec: the caller decodes the text at lookup and treats
//! an undecodable body as a miss (`sg_analysis` does, with a structured
//! warning). [`Journal::stat`] and [`Journal::compact`] — maintenance,
//! not the hot path — do parse every live body, so `stat` reports
//! body-damaged lines as corrupt and `compact` drops them.
//!
//! # "Absent, never wrong"
//!
//! The store follows the instance-pool cache discipline: every doubt is
//! a *miss*. A truncated final line (crash mid-append), a bit-flipped
//! byte (including one that breaks UTF-8), an unknown schema, a missing
//! field — each skips that line, records a structured warning
//! ([`Journal::warnings`]) or surfaces at lookup as an undecodable
//! body, and leaves the journal fully usable. Nothing in this crate can
//! turn disk corruption into a wrong cell; at worst a cell is
//! recomputed.
//!
//! One consequence of checking bodies at use rather than at open: a
//! newest line with an intact header and a damaged body shadows an older
//! intact duplicate of the same (key, epoch) until the cell is
//! recomputed and re-appended, or [`Journal::compact`] drops it. That
//! is more absent than a loader that parsed every body, never wrong.
//! This corner, how [`Journal::stat`] counts it, and a header-shaped
//! line with fields after `"cell"` (read as an undecodable body) are
//! pinned by the `corner_*` tests.
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
use std::fmt::{self, Write as _};
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write as _};
use std::ops::Range;
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

/// Where an indexed cell's text lives: a byte range of one of the
/// buffers the journal keeps.
#[derive(Clone, Copy)]
struct Span {
    text: usize,
    start: usize,
    end: usize,
}

impl Span {
    fn at(text: usize, range: Range<usize>) -> Span {
        Span {
            text,
            start: range.start,
            end: range.end,
        }
    }
}

/// Index into [`Journal::texts`] of the buffer that holds everything not
/// read from a segment file.
const TAIL: usize = 0;

/// An open journal: an index from address to cell *text* over the
/// directory's segments, plus an exclusive append handle. See the module
/// docs for the format and for what is validated when.
pub struct Journal {
    dir: PathBuf,
    /// The text the index points into. `texts[TAIL]` collects the lines
    /// this handle appended and the re-encoded cells of non-canonical
    /// lines; the rest are the segment files as read.
    texts: Vec<String>,
    index: HashMap<(CellKey, EngineEpoch), Span>,
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
    /// Opens (creating if necessary) the journal at `dir`, indexes every
    /// segment, and takes the writer lock.
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
            texts: vec![String::new()],
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

    /// The text of the cell stored under exactly (`key`, `epoch`), as
    /// its line carries it. Only the line's header has been checked: the
    /// caller decodes the text and treats a failure as a miss.
    pub fn get(&self, key: CellKey, epoch: EngineEpoch) -> Option<&str> {
        self.index.get(&(key, epoch)).map(|&span| self.text(span))
    }

    fn text(&self, span: Span) -> &str {
        &self.texts[span.text][span.start..span.end]
    }

    /// Addresses in the index (every line whose header was readable,
    /// newest per address).
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
        self.append_display(key, epoch, cell)
    }

    /// [`Journal::append`] for a cell already encoded: `cell` must be
    /// one JSON document on one line (anything else is written as given
    /// and reads back as a miss).
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] if the segment cannot be written.
    pub fn append_text(
        &mut self,
        key: CellKey,
        epoch: EngineEpoch,
        cell: &str,
    ) -> Result<(), JournalError> {
        debug_assert!(!cell.contains('\n'), "a fact is one line");
        self.append_display(key, epoch, cell)
    }

    /// Formats the line once, into the buffer that keeps it.
    fn append_display(
        &mut self,
        key: CellKey,
        epoch: EngineEpoch,
        cell: impl fmt::Display,
    ) -> Result<(), JournalError> {
        if self.segment.is_none() {
            let path = self.dir.join(segment_name(self.next_segment));
            self.next_segment += 1;
            self.segment = Some(OpenOptions::new().create(true).append(true).open(path)?);
        }
        let file = self.segment.as_mut().expect("segment just opened");
        let tail = &mut self.texts[TAIL];
        let line_start = tail.len();
        let cell = push_line(tail, key, epoch, cell);
        let written = file
            .write_all(&tail.as_bytes()[line_start..])
            .and_then(|()| file.flush());
        if let Err(e) = written {
            tail.truncate(line_start);
            return Err(e.into());
        }
        if self
            .index
            .insert((key, epoch), Span::at(TAIL, cell))
            .is_some()
        {
            self.superseded += 1;
        }
        Ok(())
    }

    /// Structured warnings accumulated while loading (one per skipped
    /// line, with segment file, line number, and reason).
    pub fn warnings(&self) -> &[String] {
        &self.warnings
    }

    /// Current shape of the store. Parses every live body, so
    /// `corrupt_lines` also counts lines whose header indexed fine but
    /// whose cell is not JSON, and `entries` / `epochs` leave them out.
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
        let mut epochs: Vec<EngineEpoch> = self
            .index
            .iter()
            .filter(|(_, &span)| Json::parse(self.text(span)).is_ok())
            .map(|((_, epoch), _)| *epoch)
            .collect();
        let entries = epochs.len();
        epochs.sort_unstable();
        epochs.dedup();
        Ok(JournalStats {
            segments: paths.len(),
            entries,
            epochs: epochs.len(),
            superseded: self.superseded,
            corrupt_lines: self.corrupt_lines + (self.index.len() - entries),
            bytes,
        })
    }

    /// Rewrites the live index — newest line per (key, epoch), in
    /// deterministic key order — into one fresh segment and deletes
    /// every older segment, dropping superseded and corrupt lines. Each
    /// surviving cell is copied as the text its line carried, after
    /// checking that it parses; an entry whose body does not is dropped
    /// from the store and the index, and counted in `lines_dropped`.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] on filesystem failure. The fresh segment is
    /// fully written before any old segment is removed, so a crash
    /// mid-compaction leaves (at worst) duplicates, never data loss.
    pub fn compact(&mut self) -> Result<CompactionReport, JournalError> {
        let old = self.segment_paths()?;
        self.segment = None; // close the append handle before the rewrite
        let path = self.dir.join(segment_name(self.next_segment));
        self.next_segment += 1;
        let mut entries: Vec<((CellKey, EngineEpoch), Span)> = self
            .index
            .iter()
            .map(|(&coords, &span)| (coords, span))
            .collect();
        entries.sort_by_key(|&(coords, _)| coords);
        let mut fresh = String::new();
        let mut undecodable = Vec::new();
        for ((key, epoch), span) in entries {
            let cell = self.text(span);
            if Json::parse(cell).is_ok() {
                push_line(&mut fresh, key, epoch, cell);
            } else {
                undecodable.push((key, epoch));
            }
        }
        let mut file = File::create(&path)?;
        file.write_all(fresh.as_bytes())?;
        file.sync_all()?;
        for p in &old {
            fs::remove_file(p)?;
        }
        for coords in &undecodable {
            self.index.remove(coords);
        }
        let dropped = self.superseded + self.corrupt_lines + undecodable.len();
        self.superseded = 0;
        self.corrupt_lines = 0;
        Ok(CompactionReport {
            segments_removed: old.len(),
            entries_kept: self.index.len(),
            lines_dropped: dropped,
        })
    }

    /// Sorted segment paths.
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

    /// Reads one segment into a kept buffer and indexes its lines;
    /// advances `next_segment` past it.
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
        let text = match String::from_utf8(fs::read(path)?) {
            Ok(text) => text,
            Err(damaged) => self.blank_invalid_lines(&name, damaged.as_bytes()),
        };
        let buffer = self.texts.len();
        self.index.reserve(text.len() / INDEX_LINE);
        for (lineno, range) in line_ranges(&text).enumerate() {
            let offset = range.start;
            let line = &text[range];
            let fact = match scan_canonical(line) {
                Some((key, epoch, cell)) => Ok((
                    key,
                    epoch,
                    Span::at(buffer, offset + cell.start..offset + cell.end),
                )),
                None if line.trim().is_empty() => continue,
                None => parse_fact(line).map(|(key, epoch, cell)| (key, epoch, self.keep(&cell))),
            };
            match fact {
                Ok((key, epoch, span)) => {
                    if self.index.insert((key, epoch), span).is_some() {
                        self.superseded += 1;
                    }
                }
                Err(reason) => self.reject(&name, lineno, &reason),
            }
        }
        self.texts.push(text);
        Ok(())
    }

    /// Counts one skipped line and records why.
    fn reject(&mut self, segment: &str, lineno: usize, reason: &str) {
        self.corrupt_lines += 1;
        self.warnings.push(format!(
            "journal: {segment}:{}: {reason} — treating as a miss",
            lineno + 1
        ));
    }

    /// A segment that is not UTF-8 as a whole: rejects each line that is
    /// not, and returns the rest with those lines blanked (so line
    /// numbers hold).
    fn blank_invalid_lines(&mut self, segment: &str, bytes: &[u8]) -> String {
        let mut text = String::with_capacity(bytes.len());
        for (lineno, line) in bytes.split(|&b| b == b'\n').enumerate() {
            if lineno > 0 {
                text.push('\n');
            }
            match std::str::from_utf8(line) {
                Ok(line) => text.push_str(line),
                Err(_) => self.reject(segment, lineno, "line is not valid UTF-8"),
            }
        }
        text
    }

    /// Keeps the cell of a non-canonical line, re-encoded.
    fn keep(&mut self, cell: &Json) -> Span {
        let tail = &mut self.texts[TAIL];
        let start = tail.len();
        let _ = write!(tail, "{cell}");
        Span::at(TAIL, start..tail.len())
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

/// The three constant stretches of the line the writer emits, around the
/// two sixteen-digit address fields and the cell text.
const HEAD_KEY: &str = "{\"schema\":\"sg-journal/1\",\"key\":\"";
const HEAD_EPOCH: &str = "\",\"epoch\":\"";
const HEAD_CELL: &str = "\",\"cell\":";
const HEX: usize = 16;

/// Appends one NDJSON fact line (newline included) to `out` and returns
/// the byte range the cell text landed in.
fn push_line(
    out: &mut String,
    key: CellKey,
    epoch: EngineEpoch,
    cell: impl fmt::Display,
) -> Range<usize> {
    // Writing to a `String` cannot fail.
    let _ = write!(out, "{HEAD_KEY}{key}{HEAD_EPOCH}{epoch}{HEAD_CELL}");
    let start = out.len();
    let _ = write!(out, "{cell}");
    let end = out.len();
    out.push_str("}\n");
    start..end
}

/// Splits a line in exactly [`push_line`]'s shape into its address and
/// the byte range of its cell text; `None` for any other line, which
/// [`parse_fact`] then judges.
fn scan_canonical(line: &str) -> Option<(CellKey, EngineEpoch, Range<usize>)> {
    const KEY: usize = HEAD_KEY.len();
    const EPOCH: usize = KEY + HEX + HEAD_EPOCH.len();
    const CELL: usize = EPOCH + HEX + HEAD_CELL.len();
    let bytes = line.as_bytes();
    let shaped = bytes.len() > CELL
        && bytes[..KEY] == *HEAD_KEY.as_bytes()
        && bytes[KEY + HEX..EPOCH] == *HEAD_EPOCH.as_bytes()
        && bytes[EPOCH + HEX..CELL] == *HEAD_CELL.as_bytes()
        && bytes[bytes.len() - 1] == b'}';
    if !shaped {
        return None;
    }
    let key = hex16(&bytes[KEY..KEY + HEX])?;
    let epoch = hex16(&bytes[EPOCH..EPOCH + HEX])?;
    Some((CellKey(key), EngineEpoch(epoch), CELL..bytes.len() - 1))
}

/// Bytes of segment per index slot reserved before a segment is read: a
/// cell line runs to about two kilobytes, and reserving for the
/// shortest line the header allows would hold twenty times the slots.
const INDEX_LINE: usize = 1024;

/// Bytes the newline scan tests at a time.
const CHUNK: usize = 64;

/// The byte ranges of `text`'s lines, exactly as `str::split('\n')`
/// yields them: a last line without `\n` and the empty line after a
/// final `\n` included.
fn line_ranges(text: &str) -> impl Iterator<Item = Range<usize>> + '_ {
    let bytes = text.as_bytes();
    let mut start = Some(0);
    std::iter::from_fn(move || {
        let from = start?;
        let end = next_newline(bytes, from);
        start = end.map(|end| end + 1);
        Some(from..end.unwrap_or(bytes.len()))
    })
}

/// The first `\n` at or after `from`. Whole chunks are passed over with
/// an OR of byte compares — no early exit inside a chunk, so the
/// compiler turns each chunk into a few vector compares — and only the
/// chunk that holds the newline, or the short tail, is searched byte
/// by byte.
fn next_newline(bytes: &[u8], from: usize) -> Option<usize> {
    let rest = &bytes[from..];
    let (chunks, _) = rest.as_chunks::<CHUNK>();
    let clear = chunks
        .iter()
        .take_while(|chunk| !chunk.iter().fold(false, |seen, &b| seen | (b == b'\n')))
        .count();
    let at = clear * CHUNK;
    rest[at..]
        .iter()
        .position(|&b| b == b'\n')
        .map(|i| from + at + i)
}

/// Sixteen lowercase hex digits, as the address fields are displayed.
fn hex16(digits: &[u8]) -> Option<u64> {
    digits.iter().try_fold(0u64, |acc, &d| {
        let nibble = match d {
            b'0'..=b'9' => d - b'0',
            b'a'..=b'f' => d - b'a' + 10,
            _ => return None,
        };
        Some(acc << 4 | u64::from(nibble))
    })
}

/// Decodes one fact line through the JSON parser — every line
/// [`scan_canonical`] declines; any deviation is a reason string (→
/// warning + miss), never a panic.
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

    fn only_segment(dir: &Path) -> PathBuf {
        let mut segments: Vec<PathBuf> = fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|e| e == "ndjson"))
            .collect();
        assert_eq!(segments.len(), 1, "{segments:?}");
        segments.remove(0)
    }

    /// The fact line as the tree writer built it before the journal
    /// formatted text directly — the definition of the on-disk bytes.
    fn fact_line(key: CellKey, epoch: EngineEpoch, cell: &Json) -> String {
        Json::Obj(vec![
            ("schema".to_string(), Json::from(SCHEMA)),
            ("key".to_string(), Json::from(key.to_string().as_str())),
            ("epoch".to_string(), Json::from(epoch.to_string().as_str())),
            ("cell".to_string(), cell.clone()),
        ])
        .to_string()
    }

    #[test]
    fn round_trips_across_reopen() {
        let dir = tmpdir("round-trip");
        {
            let mut j = Journal::open(&dir).unwrap();
            j.append(CellKey(1), EngineEpoch(7), &cell(10)).unwrap();
            j.append_text(CellKey(2), EngineEpoch(7), "{\"v\":20}")
                .unwrap();
            assert_eq!(j.get(CellKey(1), EngineEpoch(7)), Some("{\"v\":10}"));
            assert_eq!(j.get(CellKey(2), EngineEpoch(7)), Some("{\"v\":20}"));
        }
        let j = Journal::open(&dir).unwrap();
        assert_eq!(j.len(), 2);
        assert_eq!(j.get(CellKey(1), EngineEpoch(7)), Some("{\"v\":10}"));
        assert_eq!(j.get(CellKey(2), EngineEpoch(7)), Some("{\"v\":20}"));
        assert_eq!(
            j.get(CellKey(1), EngineEpoch(8)),
            None,
            "epoch is part of the address"
        );
        assert!(j.warnings().is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn the_text_writer_emits_the_tree_writers_bytes() {
        let body = Json::parse("{\"name\":\"a\\\"b\",\"xs\":[1,2.5,null],\"o\":{}}").unwrap();
        for (key, epoch) in [(0, 0), (1, 7), (u64::MAX, 0x0123_4567_89ab_cdef)] {
            let (key, epoch) = (CellKey(key), EngineEpoch(epoch));
            let mut line = String::new();
            let range = push_line(&mut line, key, epoch, &body);
            assert_eq!(line, fact_line(key, epoch, &body) + "\n");
            assert_eq!(&line[range.clone()], body.to_string());
            let scanned = scan_canonical(line.trim_end_matches('\n')).unwrap();
            assert_eq!(scanned, (key, epoch, range));
        }
        assert!(HEAD_KEY.contains(SCHEMA));
    }

    #[test]
    fn only_the_writers_exact_header_is_canonical() {
        let good = fact_line(CellKey(0xab), EngineEpoch(7), &cell(1));
        assert!(scan_canonical(&good).is_some());
        for other in [
            good.replace("00000000000000ab", "00000000000000AB"),
            good.replace("00000000000000ab", "0000000000000ab"),
            good.replace("\"key\"", "\"kez\""),
            good.replace("\"cell\":", "\"cell\" :"),
            good.replace("sg-journal/1", "sg-journal/2"),
            format!("{good} "),
            format!(" {good}"),
            good[..good.len() - 2].to_string(),
            String::new(),
        ] {
            assert!(scan_canonical(&other).is_none(), "{other}");
        }
    }

    #[test]
    fn corrupt_lines_become_warnings_not_errors() {
        let dir = tmpdir("corrupt");
        {
            let mut j = Journal::open(&dir).unwrap();
            j.append(CellKey(1), EngineEpoch(7), &cell(10)).unwrap();
        }
        // Simulate a crash mid-append plus assorted damage.
        let seg = only_segment(&dir);
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
    fn hand_written_lines_are_read_through_the_parser() {
        let dir = tmpdir("hand-written");
        fs::create_dir_all(&dir).unwrap();
        fs::write(
            dir.join(segment_name(0)),
            "{\"cell\":{\"v\":1},\"epoch\":\"7\",\"key\":\"1\",\"schema\":\"sg-journal/1\"}\r\n\
             \n\
             { \"schema\": \"sg-journal/1\", \"key\": \"0000000000000002\", \
             \"epoch\": \"0000000000000007\", \"cell\": { \"v\" : 2 } }\n\
             {\"schema\":\"sg-journal/1\",\"key\":\"000000000000000A\",\
             \"epoch\":\"0000000000000007\",\"cell\":{\"v\":3}}\n",
        )
        .unwrap();
        let j = Journal::open(&dir).unwrap();
        assert!(j.warnings().is_empty(), "{:?}", j.warnings());
        assert_eq!(j.get(CellKey(1), EngineEpoch(7)), Some("{\"v\":1}"));
        assert_eq!(j.get(CellKey(2), EngineEpoch(7)), Some("{\"v\":2}"));
        assert_eq!(j.get(CellKey(10), EngineEpoch(7)), Some("{\"v\":3}"));
        fs::remove_dir_all(&dir).unwrap();
    }

    /// The chunked newline scan against `str::split('\n')`: line ends at
    /// every offset from 0 to 130, on both sides of the first two chunk
    /// boundaries, then a canonical line whose end moves across the
    /// second; a last line without `\n`; the empty segment and `"\n\n"`.
    #[test]
    fn the_newline_scan_indexes_the_lines_str_split_gives() {
        let dir = tmpdir("newline-scan");
        fs::create_dir_all(&dir).unwrap();
        let mut segments = vec![String::new(), "\n".to_string(), "\n\n".to_string()];
        for end in 0..=130u64 {
            let filler = "x".repeat(end as usize);
            let fact = fact_line(CellKey(end), EngineEpoch(7), &cell(end));
            segments.push(format!("{filler}\n{fact}\n{filler}"));
            segments.push(format!("{fact}\n{filler}\n\n{fact}\n"));
        }
        for segment in &segments {
            let split: Vec<Range<usize>> = segment
                .split('\n')
                .scan(0, |start, line| {
                    let range = *start..*start + line.len();
                    *start = range.end + 1;
                    Some(range)
                })
                .collect();
            assert_eq!(
                line_ranges(segment).collect::<Vec<_>>(),
                split,
                "{segment:?}"
            );

            // What open must make of the segment, read line by line off
            // `str::split`.
            let name = segment_name(0);
            let (mut index, mut warnings) = (HashMap::new(), Vec::new());
            for (lineno, line) in segment.split('\n').enumerate() {
                match scan_canonical(line) {
                    Some((key, epoch, cell)) => {
                        index.insert((key, epoch), line[cell].to_string());
                    }
                    None if line.trim().is_empty() => {}
                    None => match parse_fact(line) {
                        Ok((key, epoch, cell)) => {
                            index.insert((key, epoch), cell.to_string());
                        }
                        Err(reason) => warnings.push(format!(
                            "journal: {name}:{}: {reason} — treating as a miss",
                            lineno + 1
                        )),
                    },
                }
            }
            fs::write(dir.join(&name), segment).unwrap();
            let j = Journal::open(&dir).unwrap();
            assert_eq!(j.warnings(), warnings, "{segment:?}");
            assert_eq!(j.len(), index.len(), "{segment:?}");
            for (&(key, epoch), text) in &index {
                assert_eq!(j.get(key, epoch), Some(text.as_str()), "{segment:?}");
            }
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn one_flipped_high_bit_costs_one_line_not_the_store() {
        // Any byte ^= 0x80 makes the segment invalid UTF-8; the loader
        // used to propagate that as an I/O error out of `open`.
        let dir = tmpdir("high-bit");
        {
            let mut j = Journal::open(&dir).unwrap();
            j.append(CellKey(1), EngineEpoch(7), &cell(10)).unwrap();
            j.append(CellKey(2), EngineEpoch(7), &cell(20)).unwrap();
        }
        let seg = only_segment(&dir);
        let pristine = fs::read(&seg).unwrap();
        let first_line = pristine.iter().position(|&b| b == b'\n').unwrap();
        for at in 0..first_line {
            let mut bytes = pristine.clone();
            bytes[at] ^= 0x80;
            fs::write(&seg, bytes).unwrap();
            let j = Journal::open(&dir).expect("damage is never an open error");
            assert_eq!(j.warnings().len(), 1, "byte {at}: {:?}", j.warnings());
            assert!(j.warnings()[0].contains(":1: line is not valid UTF-8"));
            assert_eq!(j.stat().unwrap().corrupt_lines, 1);
            assert_eq!(j.get(CellKey(1), EngineEpoch(7)), None);
            assert_eq!(j.get(CellKey(2), EngineEpoch(7)), Some("{\"v\":20}"));
        }
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
            Some("{\"v\":2}"),
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
    fn stat_and_compact_verify_the_bodies_open_does_not() {
        let dir = tmpdir("verify");
        let entries = [(3u64, 8u64), (1, 7), (2, 7), (1, 8)];
        {
            let mut j = Journal::open(&dir).unwrap();
            for (key, epoch) in entries {
                j.append(CellKey(key), EngineEpoch(epoch), &cell(key * 10 + epoch))
                    .unwrap();
            }
        }
        let seg = only_segment(&dir);
        let pristine = fs::read_to_string(&seg).unwrap();

        // Canonical lines compact to the bytes the tree writer produced:
        // sorted by address, one line each.
        {
            let mut j = Journal::open(&dir).unwrap();
            j.compact().unwrap();
            let mut sorted = entries;
            sorted.sort_unstable();
            let expected: String = sorted
                .iter()
                .map(|&(key, epoch)| {
                    fact_line(CellKey(key), EngineEpoch(epoch), &cell(key * 10 + epoch)) + "\n"
                })
                .collect();
            drop(j);
            assert_eq!(fs::read_to_string(only_segment(&dir)).unwrap(), expected);
            fs::remove_file(only_segment(&dir)).unwrap();
        }

        // One body damaged, header intact: open has nothing to say, the
        // lookup gets text that does not parse, stat counts it, compact
        // drops it.
        fs::write(&seg, pristine.replacen("{\"v\":17}", "{\"v\":17]", 1)).unwrap();
        let mut j = Journal::open(&dir).unwrap();
        assert!(j.warnings().is_empty(), "{:?}", j.warnings());
        assert_eq!(j.len(), 4);
        assert_eq!(j.get(CellKey(1), EngineEpoch(7)), Some("{\"v\":17]"));
        let stats = j.stat().unwrap();
        assert_eq!((stats.entries, stats.corrupt_lines), (3, 1));
        assert_eq!(stats.epochs, 2);
        let report = j.compact().unwrap();
        assert_eq!((report.entries_kept, report.lines_dropped), (3, 1));
        assert_eq!(j.get(CellKey(1), EngineEpoch(7)), None);
        assert_eq!(j.stat().unwrap().corrupt_lines, 0);
        drop(j);
        let j = Journal::open(&dir).unwrap();
        assert_eq!(j.len(), 3);
        assert_eq!(j.get(CellKey(1), EngineEpoch(8)), Some("{\"v\":18}"));
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Two lines of one address, the newer one's body damaged on disk
    /// with its header intact; returns the journal reopened over them.
    fn shadowed_pair(tag: &str) -> (PathBuf, Journal) {
        let dir = tmpdir(tag);
        {
            let mut j = Journal::open(&dir).unwrap();
            j.append(CellKey(1), EngineEpoch(7), &cell(10)).unwrap();
            j.append(CellKey(1), EngineEpoch(7), &cell(11)).unwrap();
        }
        let seg = only_segment(&dir);
        let text = fs::read_to_string(&seg).unwrap();
        fs::write(&seg, text.replacen("{\"v\":11}", "{\"v\":11]", 1)).unwrap();
        let j = Journal::open(&dir).unwrap();
        (dir, j)
    }

    /// Corner: a newest line whose header is intact and whose body is
    /// damaged shadows an older intact line of the same address. Open
    /// indexes the newest header, so the lookup gets the damaged text
    /// (a miss to the caller), never the older cell. `compact` drops the
    /// damaged line, and the older one goes with its segment: the
    /// address is absent until the cell is recomputed.
    #[test]
    fn corner_a_damaged_newest_line_shadows_an_older_intact_duplicate_until_compact() {
        let (dir, mut j) = shadowed_pair("corner-shadow");
        assert!(j.warnings().is_empty(), "{:?}", j.warnings());
        assert_eq!(j.len(), 1);
        assert_eq!(j.get(CellKey(1), EngineEpoch(7)), Some("{\"v\":11]"));
        let report = j.compact().unwrap();
        assert_eq!((report.entries_kept, report.lines_dropped), (0, 2));
        assert_eq!(j.get(CellKey(1), EngineEpoch(7)), None);
        drop(j);
        let j = Journal::open(&dir).unwrap();
        assert!(j.is_empty() && j.warnings().is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Corner: how `stat` counts that pair. The older intact line is
    /// `superseded` and the damaged newest line `corrupt` (its header
    /// indexed, its body does not parse), so the address counts in
    /// neither `entries` nor `epochs`.
    #[test]
    fn corner_stat_counts_the_shadowing_pair_as_superseded_and_corrupt() {
        let (dir, j) = shadowed_pair("corner-stat");
        let stats = j.stat().unwrap();
        assert_eq!(
            (
                stats.superseded,
                stats.corrupt_lines,
                stats.entries,
                stats.epochs
            ),
            (1, 1, 0, 0)
        );
        drop(j);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Corner: a line in the writer's exact header shape with fields after
    /// `"cell"` is valid JSON that a strict reader would accept, but open
    /// takes everything between `"cell":` and the last `}` as the cell
    /// text, so the lookup reads an undecodable body: a miss, counted
    /// corrupt by `stat` and dropped by `compact`.
    #[test]
    fn corner_extra_fields_after_the_cell_read_as_undecodable() {
        let dir = tmpdir("corner-extra");
        fs::create_dir_all(&dir).unwrap();
        let line = format!(
            "{HEAD_KEY}0000000000000002{HEAD_EPOCH}0000000000000007{HEAD_CELL}{{\"v\":2}},\"note\":\"x\"}}"
        );
        let (key, epoch, strict) = parse_fact(&line).expect("valid JSON in the journal's schema");
        assert_eq!((key, epoch, strict), (CellKey(2), EngineEpoch(7), cell(2)));
        fs::write(dir.join(segment_name(0)), format!("{line}\n")).unwrap();
        let mut j = Journal::open(&dir).unwrap();
        assert!(j.warnings().is_empty(), "{:?}", j.warnings());
        let text = j
            .get(CellKey(2), EngineEpoch(7))
            .expect("the header indexed");
        assert_eq!(text, "{\"v\":2},\"note\":\"x\"");
        assert!(Json::parse(text).is_err());
        assert_eq!(j.stat().unwrap().corrupt_lines, 1);
        assert_eq!(j.compact().unwrap().entries_kept, 0);
        drop(j);
        fs::remove_dir_all(&dir).unwrap();
    }

    type Address = (CellKey, EngineEpoch);
    /// A physical line: (segment file, 1-based line number).
    type At = (String, usize);

    /// What the eager loader made of a store, line by line.
    #[derive(Default)]
    struct Eager {
        /// Address → (cell tree, the line that won it), newest wins.
        index: HashMap<Address, (Json, At)>,
        /// Lines skipped as corrupt or foreign.
        rejected: Vec<At>,
    }

    /// The loader `Journal::open` ran before the index held text — every
    /// non-blank line through [`parse_fact`], every cell kept as a tree —
    /// kept as the oracle the lazy index is held to. (It judges UTF-8
    /// per line, as the lazy loader does; the original failed the open.)
    fn eager_load(dir: &Path) -> Eager {
        let mut eager = Eager::default();
        let mut segments: Vec<PathBuf> = fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|e| e == "ndjson"))
            .collect();
        segments.sort();
        for path in segments {
            let name = path.file_name().unwrap().to_str().unwrap().to_string();
            let bytes = fs::read(&path).unwrap();
            for (lineno, line) in bytes.split(|&b| b == b'\n').enumerate() {
                let at = (name.clone(), lineno + 1);
                let Ok(line) = std::str::from_utf8(line) else {
                    eager.rejected.push(at);
                    continue;
                };
                if line.trim().is_empty() {
                    continue;
                }
                match parse_fact(line) {
                    Ok((key, epoch, cell)) => {
                        eager.index.insert((key, epoch), (cell, at));
                    }
                    Err(_) => eager.rejected.push(at),
                }
            }
        }
        eager
    }

    /// The address a line's first bytes spell, if they are the writer's
    /// header — read with `strip_prefix` and `from_str_radix`, not with
    /// the scanner under test.
    fn header_claim(line: &str) -> Option<Address> {
        let hex = |field: &str| {
            let plain = field.len() == 16
                && field
                    .bytes()
                    .all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b));
            plain.then(|| u64::from_str_radix(field, 16).unwrap())
        };
        let rest = line.strip_prefix("{\"schema\":\"sg-journal/1\",\"key\":\"")?;
        let (key, rest) = (hex(rest.get(..16)?)?, rest.get(16..)?);
        let rest = rest.strip_prefix("\",\"epoch\":\"")?;
        let (epoch, rest) = (hex(rest.get(..16)?)?, rest.get(16..)?);
        let body = rest.strip_prefix("\",\"cell\":")?;
        body.ends_with('}')
            .then_some((CellKey(key), EngineEpoch(epoch)))
    }

    /// SplitMix64: the property test draws a whole store from one seed.
    struct Draw(u64);

    impl Draw {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, bound: usize) -> usize {
            (self.next() % bound as u64) as usize
        }

        /// A small cell-like document: names with punctuation and
        /// escapes, integers up to `u64::MAX`, floats, nesting.
        fn body(&mut self) -> Json {
            let names = ["optimal-king", "hybrid(b=3)", "a\"b\\c", "é", ""];
            let samples = (0..self.below(4))
                .map(|_| {
                    Json::Arr(vec![
                        Json::from(self.next() >> self.below(64)),
                        Json::Bool(self.below(2) == 0),
                    ])
                })
                .collect();
            Json::Obj(vec![
                ("name".to_string(), Json::from(names[self.below(5)])),
                ("seed".to_string(), Json::from(self.next())),
                ("mean".to_string(), Json::Num(self.below(1000) as f64 / 8.0)),
                ("samples".to_string(), Json::Arr(samples)),
            ])
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(400))]

        /// The lazy index against the eager oracle, over stores mixing
        /// canonical lines with everything else a segment may hold, then
        /// damaged at random.
        #[test]
        fn the_lazy_index_is_held_to_the_eager_loader(seed in proptest::prelude::any::<u64>()) {
            let mut draw = Draw(seed);
            let dir = tmpdir(&format!("differential-{seed:016x}"));
            fs::create_dir_all(&dir).unwrap();
            let address = |draw: &mut Draw| {
                // A few addresses, so duplicates and supersession happen.
                (CellKey(0xabc0 + draw.below(4) as u64), EngineEpoch(7 + draw.below(2) as u64))
            };
            for segment in 0..1 + draw.below(3) {
                let mut bytes = Vec::new();
                for _ in 0..draw.below(9) {
                    let (key, epoch) = address(&mut draw);
                    let body = draw.body();
                    let mut line = match draw.below(10) {
                        // The writer's own lines, most of the time.
                        0..=4 => fact_line(key, epoch, &body),
                        // Valid but not canonical: reordered fields,
                        // whitespace, uppercase or short hex.
                        5 => format!(
                            "{{\"cell\":{body},\"epoch\":\"{epoch}\",\"schema\":\"{SCHEMA}\",\"key\":\"{key}\"}}"
                        ),
                        6 => format!(
                            " {{ \"schema\": \"{SCHEMA}\", \"key\": \"{key}\", \"epoch\": \"{epoch}\", \"cell\": {body} }}\r"
                        ),
                        7 => format!(
                            "{{\"schema\":\"{SCHEMA}\",\"key\":\"{:X}\",\"epoch\":\"{:x}\",\"cell\":{body}}}",
                            key.0, epoch.0
                        ),
                        // Not ours, and nothing at all.
                        8 => fact_line(key, epoch, &body).replace(SCHEMA, "sg-journal/2"),
                        _ => String::new(),
                    }
                    .into_bytes();
                    let mut newline = true;
                    if !line.is_empty() {
                        match draw.below(12) {
                            0 => line.truncate(draw.below(line.len())),
                            1 | 2 => {
                                let at = draw.below(line.len());
                                line[at] ^= 1 << draw.below(8);
                            }
                            // The newline is lost: two lines merge.
                            3 => newline = false,
                            _ => {}
                        }
                    }
                    bytes.extend_from_slice(&line);
                    if newline {
                        bytes.push(b'\n');
                    }
                }
                if draw.below(4) == 0 && bytes.last() == Some(&b'\n') {
                    bytes.pop(); // a final line without its newline
                }
                fs::write(dir.join(segment_name(segment as u64)), bytes).unwrap();
            }

            let eager = eager_load(&dir);
            let lazy = Journal::open(&dir).expect("damage is never an open error");
            let warned = |at: &At| {
                let prefix = format!("journal: {}:{}:", at.0, at.1);
                lazy.warnings().iter().any(|w| w.starts_with(&prefix))
            };

            // Every physical line, in load order, with the address its
            // header spells (if it has the writer's header).
            let mut lines: Vec<(At, Option<Address>)> = Vec::new();
            for segment in lazy.segment_paths().unwrap() {
                let name = segment.file_name().unwrap().to_str().unwrap().to_string();
                for (lineno, line) in fs::read(&segment).unwrap().split(|&b| b == b'\n').enumerate() {
                    let line = String::from_utf8_lossy(line).into_owned();
                    lines.push(((name.clone(), lineno + 1), header_claim(&line)));
                }
            }
            // The last line attributed to an address by its header or by
            // the oracle's parse.
            let newest = |address: Address| {
                lines.iter().rev().find(|(at, claim)| {
                    *claim == Some(address)
                        || eager.index.get(&address).is_some_and(|(_, won)| won == at)
                })
            };

            // 1. A lazy hit whose text parses is the oracle's hit, with
            //    an equal tree.
            let mut addresses: Vec<Address> = lazy.index.keys().copied().collect();
            addresses.extend(eager.index.keys().copied());
            for &(key, epoch) in &addresses {
                let Some(Ok(tree)) = lazy.get(key, epoch).map(Json::parse) else { continue };
                let served = eager.index.get(&(key, epoch)).map(|(cell, _)| cell);
                proptest::prop_assert_eq!(served, Some(&tree), "{} {}", key, epoch);
            }
            // 2. An oracle hit whose newest line is the one the oracle
            //    read is a lazy hit.
            for (&(key, epoch), (cell, won)) in &eager.index {
                if newest((key, epoch)).is_some_and(|(at, _)| at == won) {
                    let served = lazy.get(key, epoch).map(Json::parse);
                    proptest::prop_assert_eq!(served, Some(Ok(cell.clone())), "{} {}", key, epoch);
                }
            }
            // 3. No damaged line is silent: open warned about it, or a
            //    later line superseded it, or a lookup of its address
            //    gets text that does not parse (the caller's demotion).
            for at in &eager.rejected {
                if warned(at) {
                    continue;
                }
                let (_, claim) = lines.iter().find(|(line, _)| line == at).unwrap();
                let address = claim.expect("an unwarned reject has the writer's header");
                if newest(address).is_some_and(|(line, _)| line == at) {
                    let text = lazy.get(address.0, address.1).expect("indexed by its header");
                    proptest::prop_assert!(Json::parse(text).is_err(), "{}:{} {}", at.0, at.1, text);
                }
            }
            // 4. And open never warns about a line the oracle accepts.
            for (_, won) in eager.index.values() {
                proptest::prop_assert!(!warned(won), "{}:{}", won.0, won.1);
            }
            // stat reads the store the way the oracle does, up to lines
            // a later header shadowed.
            let stats = lazy.stat().unwrap();
            proptest::prop_assert!(stats.entries <= eager.index.len());
            proptest::prop_assert!(stats.corrupt_lines <= eager.rejected.len());
            drop(lazy);
            fs::remove_dir_all(&dir).unwrap();
        }
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
