//! Architecture guards: each test keeps one deleted design from coming
//! back, by the names it was written in, or holds a file-set rule that
//! gives an algorithm or a layer exactly one implementation.
//!
//! A guard reads the repository's files as text, from the package root.
//! It first checks that its targets exist: a scan of a moved directory
//! finds nothing and would pass. It then matches each line against
//! literal alternatives and small `std` predicates (there is no regex
//! crate), and finally runs itself on the tree with a line planted in it,
//! which shows that it fires. The plants are the lines the deleted code
//! was written in where it existed, and each matcher's `misses` are the
//! near-misses that must not fire.
//!
//! This file is left out of every scan: it spells what it looks for.

use std::borrow::Cow;
use std::path::Path;
use std::sync::OnceLock;

/// Every path a guard scans, read once.
const SCANNED: &[&str] = &[
    "crates",
    "src",
    "tests",
    "tools",
    "docs",
    "examples",
    "README.md",
    ".claude",
];
const THIS_FILE: &str = "tests/guards.rs";

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Files as repository-relative `/`-separated paths with their text,
/// sorted by path.
#[derive(Clone)]
struct Tree(Vec<(&'static str, Cow<'static, str>)>);

/// The repository's scanned files as they are on disk.
fn repo() -> Tree {
    static FILES: OnceLock<Vec<(String, String)>> = OnceLock::new();
    let files = FILES.get_or_init(|| {
        let mut files = Vec::new();
        for path in SCANNED {
            read_into(path.to_string(), &mut files);
        }
        files.retain(|(path, _)| path != THIS_FILE);
        files.sort();
        files
    });
    Tree(
        files
            .iter()
            .map(|(path, text)| (path.as_str(), Cow::Borrowed(text.as_str())))
            .collect(),
    )
}

/// Reads `path` and, recursively, everything under it, as `grep -r`
/// does: every file, hidden ones too, symbolic links not followed.
fn read_into(path: String, files: &mut Vec<(String, String)>) {
    let full = root().join(&path);
    let Ok(meta) = std::fs::symlink_metadata(&full) else {
        return;
    };
    if meta.is_dir() {
        for entry in std::fs::read_dir(&full).expect("readable directory") {
            let name = entry.expect("directory entry").file_name();
            read_into(format!("{path}/{}", name.to_string_lossy()), files);
        }
    } else if meta.is_file() {
        let bytes = std::fs::read(&full).expect("readable file");
        files.push((path, String::from_utf8_lossy(&bytes).into_owned()));
    }
}

impl Tree {
    /// The tree with `edit` applied to the file at `path` (an empty file
    /// if there is none).
    fn with(&self, path: &'static str, edit: impl FnOnce(&str) -> String) -> Tree {
        let mut files = self.0.clone();
        match files.binary_search_by(|(p, _)| (*p).cmp(path)) {
            Ok(i) => files[i].1 = Cow::Owned(edit(&files[i].1)),
            Err(i) => files.insert(i, (path, Cow::Owned(edit("")))),
        }
        Tree(files)
    }

    /// The files at or below any of `roots`.
    fn under(&self, roots: &[&str]) -> Vec<(&str, &str)> {
        self.0
            .iter()
            .filter(|(path, _)| {
                roots.iter().any(|root| {
                    path.strip_prefix(root)
                        .is_some_and(|rest| rest.is_empty() || rest.starts_with('/'))
                })
            })
            .map(|(path, text)| (*path, text.as_ref()))
            .collect()
    }

    /// `grep -rn`: every line under `roots` that `matches`, as
    /// `path:line: text`.
    fn grep(&self, roots: &[&str], matches: impl Fn(&str) -> bool) -> Vec<String> {
        self.under(roots)
            .into_iter()
            .flat_map(|(path, text)| numbered(path, text))
            .filter(|(_, line)| matches(line))
            .map(|(at, line)| format!("{at}: {line}"))
            .collect()
    }

    /// Every `.rs` file under `roots` but the shims and the `tests/` and
    /// `benches/` directories, whole.
    fn sources(&self, roots: &[&str]) -> Vec<(&str, &str)> {
        let mut files = self.under(roots);
        files.retain(|(path, _)| {
            path.ends_with(".rs")
                && !path.starts_with("crates/shims/")
                && !path.contains("/tests/")
                && !path.contains("/benches/")
        });
        files
    }

    /// The files of [`Tree::sources`] with a line, up to the file's first
    /// `#[cfg(test)]`, that `matches`.
    fn outside_tests(&self, roots: &[&str], matches: impl Fn(&str) -> bool) -> Vec<&str> {
        self.sources(roots)
            .into_iter()
            .filter(|(_, text)| non_test(text).lines().any(&matches))
            .map(|(path, _)| path)
            .collect()
    }
}

/// `text` up to its first line that starts with `#[cfg(test)]`.
fn non_test(text: &str) -> &str {
    let mut at = 0;
    for line in text.split_inclusive('\n') {
        if line.starts_with("#[cfg(test)]") {
            break;
        }
        at += line.len();
    }
    &text[..at]
}

/// Each line of `text` with its `path:number`.
fn numbered<'a>(path: &'a str, text: &'a str) -> impl Iterator<Item = (At<'a>, &'a str)> {
    (1..)
        .zip(text.lines())
        .map(move |(number, line)| (At(path, number), line))
}

/// A line's place, shown as `path:number`.
struct At<'a>(&'a str, usize);

impl std::fmt::Display for At<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.0, self.1)
    }
}

/// Fails unless every target is there as `kind` asks: a guard whose
/// target moved would scan nothing and pass.
fn targets(paths: &[&str], kind: fn(&Path) -> bool) {
    for path in paths {
        assert!(
            kind(&root().join(path)),
            "guard target {path} is gone; point the guard at its new home"
        );
    }
}

/// Asserts that `guard` finds nothing in the repository, and something
/// once any one of `plants` is planted. A plant is `path: line`, the line
/// planted at the top of that file.
fn check(guard: impl Fn(&Tree) -> Vec<String>, failure: &str, plants: &[&'static str]) {
    let found = guard(&repo());
    assert!(found.is_empty(), "{failure}:\n{}", found.join("\n"));
    assert!(!plants.is_empty(), "a guard needs a plant");
    for plant in plants {
        fires(&guard, &planted(plant), plant);
    }
}

/// The repository with the plant `path: line`: the line goes at the top
/// of the file, where a guard that reads up to the first test module
/// sees it too.
fn planted(plant: &'static str) -> Tree {
    let (path, line) = plant.split_once(": ").expect("a plant is `path: line`");
    repo().with(path, |text| format!("{line}\n{text}"))
}

/// Asserts that `guard` finds something in `planted`.
fn fires(guard: impl Fn(&Tree) -> Vec<String>, planted: &Tree, plant: &str) {
    assert!(
        !guard(planted).is_empty(),
        "the guard missed its plant {plant}"
    );
}

/// Asserts that `matches` takes none of `misses`.
fn misses(matches: impl Fn(&str) -> bool, misses: &[&str]) {
    for line in misses {
        assert!(!matches(line), "the matcher took the near-miss {line:?}");
    }
}

/// Whether `line` contains one of the `|`-separated `alternatives`: an
/// ERE of plain literals.
fn any_of(line: &str, alternatives: &str) -> bool {
    alternatives
        .split('|')
        .any(|literal| line.contains(literal))
}

/// Whether `s` starts with one alternative of each of `groups`, in order
/// and adjacent, followed by text that `then` accepts: an anchored ERE of
/// literal groups, each written as its `|`-separated alternatives, where
/// an empty alternative (`"s|"`) makes the group optional.
fn starts_seq(s: &str, groups: &[&str], then: fn(&str) -> bool) -> bool {
    match groups.split_first() {
        None => then(s),
        Some((group, rest)) => group
            .split('|')
            .any(|a| s.strip_prefix(a).is_some_and(|s| starts_seq(s, rest, then))),
    }
}

/// [`starts_seq`] at any place in `line` where the first group, which must
/// not be optional, is spelled.
fn seq(line: &str, groups: &[&str], then: fn(&str) -> bool) -> bool {
    groups[0].split('|').any(|first| {
        assert!(!first.is_empty(), "an optional first group");
        line.match_indices(first)
            .any(|(i, _)| starts_seq(&line[i..], groups, then))
    })
}

/// No findings if `ok`, else `found`: a file-set equality as a guard.
fn unless(ok: bool, found: &[impl std::fmt::Debug]) -> Vec<String> {
    if ok {
        Vec::new()
    } else {
        vec![format!("found {found:?}")]
    }
}

/// Accepts any rest of the line.
fn anything(_: &str) -> bool {
    true
}

/// `\b` after a word character: the rest does not go on with one.
fn word_end(rest: &str) -> bool {
    !rest.starts_with(|c: char| c.is_alphanumeric() || c == '_')
}

/// The length of the leading run of `s` that `class` accepts.
fn run(s: &str, class: fn(char) -> bool) -> usize {
    s.find(|c| !class(c)).unwrap_or(s.len())
}

/// `(pub(\([a-z]+\))? )?`: `s` past an optional `pub ` or `pub(name) `.
fn past_visibility(s: &str) -> &str {
    if let Some(rest) = s.strip_prefix("pub ") {
        return rest;
    }
    s.strip_prefix("pub(")
        .and_then(|rest| {
            let name = run(rest, |c| c.is_ascii_lowercase());
            (name > 0).then(|| rest[name..].strip_prefix(") "))?
        })
        .unwrap_or(s)
}

#[test]
fn no_ambient_engine_state() {
    // Engine options are fields of RunConfig / SweepPlan; fast paths are
    // selected by input and held to sg_sim::reference by
    // tests/engine_identity.rs. A static flag is neither.
    const DIRS: &[&str] = &["crates/sim/src", "crates/core/src", "crates/analysis/src"];
    targets(DIRS, Path::is_dir);
    // static [A-Z_]+: AtomicBool
    let toggle = |line: &str| {
        line.match_indices("static ").any(|(i, _)| {
            let rest = &line[i + "static ".len()..];
            let name = run(rest, |c| c.is_ascii_uppercase() || c == '_');
            name > 0 && rest[name..].starts_with(": AtomicBool")
        })
    };
    check(
        |tree| tree.grep(DIRS, toggle),
        "process-global engine toggle found",
        &[
            "crates/sim/src/batch.rs: static BATCH_RUNS: AtomicBool = AtomicBool::new(true);",
            "crates/analysis/src/sweep.rs: pub static NO_POOL: AtomicBool = AtomicBool::new(false);",
        ],
    );
    misses(
        toggle,
        &[
            "static batch_runs: AtomicBool",
            "static : AtomicBool",
            "static BATCH_RUNS: AtomicU64",
            "stop: Arc<AtomicBool>,",
        ],
    );
}

#[test]
fn one_engine_per_gear_family() {
    // king-shift and dynamic-king run on the scalar engine that
    // sg_sim::reference checks; the kernel that re-ran their tree prefix
    // lane by lane, its wide rounds and its deferred lanes were deleted,
    // not kept beside.
    const PATHS: &[&str] = &["crates", "src", "tests"];
    targets(PATHS, Path::exists);
    let kernel = |line: &str| {
        any_of(
            line,
            "GearBatchKernel|gear_batch_kernel|wide_round|WideRound",
        )
    };
    check(
        |tree| tree.grep(PATHS, kernel),
        "a second engine for the gear families is back",
        &[
            "crates/core/src/lib.rs: pub struct GearBatchKernel {",
            "tests/batch_identity.rs: let k = gear_batch_kernel(&plan);",
            "src/lib.rs:     /// The prefix lanes handled by the most recent `wide_round`.",
            "crates/sim/src/batch.rs: pub struct WideRound;",
        ],
    );
}

#[test]
fn one_king() {
    // One scalar phase machine (KingCore) and one lane-word phase machine
    // (PhaseKernel), each driven by the two-row KingRow table. A second
    // kernel, a rule enum beside the table or a queen protocol of its own
    // is the six-fold copy coming back.
    targets(&["crates/core/src"], Path::is_dir);
    let copy = |line: &str| {
        any_of(
            line,
            "PhaseBatchKernel|KingBatchKernel|PhaseRule|mod phase_queen|king_batch_kernel",
        )
    };
    check(
        |tree| tree.grep(&["crates"], copy),
        "a second copy of the king family is back",
        &[
            "crates/core/src/lib.rs: pub use phase_batch::{batch_kernel, PhaseBatchKernel};",
            "crates/core/src/lib.rs: pub mod phase_queen;",
            "crates/core/src/phase_batch.rs: enum PhaseRule {",
            "crates/analysis/src/sweep.rs: KingBatchKernel::new(params)",
            "crates/sim/src/batch.rs: let k = king_batch_kernel();",
        ],
    );
    // `grep -c "impl BatchKernel for" crates/core/src/*.rs`, summed.
    let one_kernel = |tree: &Tree| {
        let found: Vec<String> = tree
            .under(&["crates/core/src"])
            .into_iter()
            .filter(|(path, _)| {
                path.strip_prefix("crates/core/src/")
                    .is_some_and(|name| !name.contains('/') && name.ends_with(".rs"))
            })
            .flat_map(|(path, text)| numbered(path, text))
            .filter(|(_, line)| line.contains("impl BatchKernel for"))
            .map(|(at, line)| format!("{at}: {line}"))
            .collect();
        unless(found.len() == 1, &found)
    };
    check(
        one_kernel,
        "BatchKernel impls in crates/core/src, want 1 (the king kernel)",
        &["crates/core/src/gear_batch.rs: impl BatchKernel for GearBatch {"],
    );
    // None is as wrong as two.
    fires(
        one_kernel,
        &repo().with("crates/core/src/phase_batch.rs", |text| {
            text.replace("impl BatchKernel for", "impl Kernel for")
        }),
        "the king kernel's impl renamed away",
    );
}

#[test]
fn one_write_per_wake_up() {
    // A served job costs a handful of wake-ups because a request is one
    // write, a worker reports per turn, and the connection's event thread
    // writes its own socket under a send timeout. The writer thread, its
    // bounded queue, the poll loop and the knob that sized them were
    // replaced, not kept beside.
    const CLIENT: &str = "crates/serve/src/client.rs";
    const SERVER: &str = "crates/serve/src/server.rs";
    targets(&[CLIENT, SERVER, "src/bin/sg.rs"], Path::is_file);
    let queue = |line: &str| {
        any_of(
            line,
            "sync_channel|sg-serve-write|SHED_POLL_MS|write_queue|write-queue",
        )
    };
    check(
        |tree| tree.grep(&["crates/serve/src", "src/bin/sg.rs"], queue),
        "the connection writer thread, its queue or its knob is back",
        &[
            "crates/serve/src/server.rs:     let (line_tx, line_rx) = mpsc::sync_channel::<String>(4);",
            "crates/serve/src/lib.rs: const SHED_POLL_MS: u64 = 10;",
            "src/bin/sg.rs:         \"write-queue\" => 4,",
            "crates/serve/src/client.rs:     .name(\"sg-serve-write\".into())",
        ],
    );
    // On an unbuffered socket every Display fragment of write!/writeln! is
    // its own write(2) and its own wake-up of the peer: in these two files
    // the macros may only fill a Formatter (f) or the line buffer (line).
    // `write(ln)?!\(` lines, less those with `write(ln)?!\((f|line),`.
    let stray_write = |line: &str| {
        any_of(line, "write!(|writeln!(")
            && !any_of(line, "write!(f,|writeln!(f,|write!(line,|writeln!(line,")
    };
    check(
        |tree| tree.grep(&[CLIENT, SERVER], stray_write),
        "write!/writeln! onto something other than a Formatter or the line buffer; \
         format into the buffer and write_all once",
        &[
            "crates/serve/src/server.rs:         writeln!(stream, \"{}\", frame)?;",
            "crates/serve/src/client.rs:     write!(&mut socket, \"{request}\")?;",
        ],
    );
    misses(
        stray_write,
        &[
            "write!(f, \"i/o: {e}\")",
            "let _ = writeln!(line, \"{}\", request.to_json());",
            "stream.write_all(line.as_bytes())?;",
        ],
    );
}

#[test]
fn payloads_move_they_are_not_shared() {
    // A round's broadcasts and lies are owned values moved into the Inbox,
    // which resolves a slot by position: a recipient costs one index
    // write. Arc'd payloads cost two atomic operations per slot per
    // recipient, every round; the interning table and the shared setters
    // were deleted, not kept beside.
    targets(
        &[
            "crates/sim/src/engine.rs",
            "crates/sim/src/protocol.rs",
            "crates/sim/src/payload.rs",
            "crates/sim/src/batch.rs",
            "crates/sim/src/reference.rs",
            "src",
            "tests",
        ],
        Path::exists,
    );
    let shared = |line: &str| any_of(line, "Arc<Payload>|into_shared|shared_missing|set_shared");
    check(
        |tree| tree.grep(&["crates", "src", "tests"], shared),
        "a shared payload is back; move payloads into the Inbox",
        &[
            "crates/adversary/src/strategies.rs:         shadow: &'a [Option<std::sync::Arc<Payload>>],",
            "crates/adversary/tests/batch_masks.rs:         Payload::single(Value(1)).into_shared(),",
            "crates/sim/src/engine.rs:     inbox.set_shared(slot, p);",
            "src/lib.rs: let m = Payload::shared_missing();",
        ],
    );
}

#[test]
fn lies_are_asked_for_by_the_row() {
    // The adversary has one lie method, Adversary::row: each faulty
    // sender's row, which the engine asks in place over the row's last lies
    // and sg_sim::reference asks into a fresh row. The per-edge
    // Adversary::payload beside it — with a default row that looped over
    // it, and a rule that an override equal those calls — was deleted, not
    // kept as a second way to lie.
    const TRAIT: &str = "crates/sim/src/adversary.rs";
    const ENGINE: &str = "crates/sim/src/engine.rs";
    const REFERENCE: &str = "crates/sim/src/reference.rs";
    const SOURCES: [&str; 3] = ["crates", "src", "examples"];
    targets(&[TRAIT, ENGINE, REFERENCE], Path::is_file);
    targets(&SOURCES, Path::is_dir);
    // Spelled in two pieces, so that a grep of the repository for the
    // deleted method's declaration finds nothing, this file included.
    const METHOD: &str = concat!("fn ", "payload(");
    let method = |line: &str| line.contains(METHOD);
    let per_edge = |line: &str| line.contains(".payload(");
    let by_row = |line: &str| line.contains("adversary.row(");
    let guard = |tree: &Tree| {
        let mut found = tree.grep(&[TRAIT], method);
        found.extend(
            tree.outside_tests(&SOURCES, per_edge)
                .into_iter()
                .map(|path| format!("{path}: asks a lie per edge with .payload(")),
        );
        for path in [ENGINE, REFERENCE] {
            if tree.outside_tests(&[path], by_row).is_empty() {
                found.push(format!("{path}: no longer asks by row"));
            }
        }
        found
    };
    check(
        guard,
        "a second lie method is back, or the engine or the oracle no longer asks by row",
        &[
            "crates/sim/src/engine.rs:                     adversary.payload(ProcessId(f), ProcessId(r), &view)",
            "crates/sim/src/engine.rs: inbox.lies.extend((0..n).map(|r| adversary.payload(ProcessId(f), ProcessId(r), &view)));",
            concat!(
                "crates/sim/src/adversary.rs:     fn ",
                "payload(&mut self, sender: ProcessId, recipient: ProcessId, view: &AdversaryView<'_>) -> Payload;",
            ),
            "crates/sim/src/reference.rs:                 adversary.payload(f, ProcessId(r), &view)",
        ],
    );
    for path in [ENGINE, REFERENCE] {
        fires(
            guard,
            &repo().with(path, |text| {
                text.replace("adversary.row(", "adversary.rows(")
            }),
            &format!("{path} no longer asking by row"),
        );
    }
    misses(
        per_edge,
        &[
            "adversary.row(ProcessId(f), &view, &mut inbox.lies[k * n..(k + 1) * n]);",
            "/// [`Adversary::payload`] per edge",
            "step.payload.to_payload()",
            "Some(self.level_payload(self.tree.level(deepest)))",
        ],
    );
    misses(
        method,
        &[
            "fn level_payload(&self, level: &Planes) -> Payload {",
            "fn to_payload(&self) -> Payload {",
            "pub payload: TracePayload,",
        ],
    );
}

#[test]
fn one_fnv() {
    // Sweep fingerprints, journal cell keys and epochs, and instance-pool
    // keys are all FNV-1a, and every value they ever produced is pinned
    // somewhere. Its byte step and word step live in sg_sim::fnv; a second
    // copy of the prime is a second fold that can drift. The proptest shim
    // keeps its own.
    targets(&["crates", "src", "crates/sim/src/fnv.rs"], Path::exists);
    // 0x(0000_?)?0?100_?0000_?01b3, case-insensitive.
    let prime = |line: &str| {
        let groups = ["0x", "0000_|0000|", "0|", "100", "_|", "0000", "_|", "01b3"];
        seq(&line.to_ascii_lowercase(), &groups, anything)
    };
    // `grep -rli … crates src | grep -v "^crates/shims/"`: fnv.rs alone.
    let one_file = |tree: &Tree| {
        let mut files: Vec<&str> = Vec::new();
        for (path, text) in tree.under(&["crates", "src"]) {
            if !path.starts_with("crates/shims/") && text.lines().any(prime) {
                files.push(path);
            }
        }
        unless(files == ["crates/sim/src/fnv.rs"], &files)
    };
    check(
        one_file,
        "the FNV prime is not written in exactly 1 file (crates/sim/src/fnv.rs)",
        &[
            "crates/journal/src/lib.rs: const P: u64 = 0x100000001b3;",
            "crates/analysis/src/sweep.rs: h *= 0x100_0000_01b3;",
            "crates/serve/src/wire.rs: h = h.wrapping_mul(0x0000_0100_0000_01B3);",
            "src/lib.rs: const PRIME: u64 = 0X00000100000001B3;",
            "crates/bench/Cargo.toml: # prime 0x0000100_000001b3",
        ],
    );
    // The fold has to be somewhere, and that place is fnv.rs.
    let unprimed = |text: &str| text.replace("01B3", "01B5");
    fires(
        one_file,
        &repo().with("crates/sim/src/fnv.rs", unprimed),
        "the prime edited out of crates/sim/src/fnv.rs",
    );
    fires(
        one_file,
        &repo()
            .with("crates/sim/src/fnv.rs", unprimed)
            .with("crates/sim/src/engine.rs", |text| {
                format!("const PRIME: u64 = 0x0000_0100_0000_01B3;\n{text}")
            }),
        "the fold moved from crates/sim/src/fnv.rs to crates/sim/src/engine.rs",
    );
    // The shims are left out.
    let shim = planted("crates/shims/rand/src/lib.rs: 0x100000001b3");
    assert!(one_file(&shim).is_empty(), "a shim's prime counted");
    misses(
        prime,
        &[
            "0x100000001b5",
            "0x1000_0000_01b3",
            "0x10000001b3",
            "0x00000_100000001b3",
            "0x100__0000_01b3",
        ],
    );
}

#[test]
fn one_cell_codec() {
    // Journal lines and sg-serve/1 cell frames carry cell text by the
    // hundred, through CellReport::write_text / from_text in
    // sg_analysis::wire, which the tree codec holds to the wire form. A
    // second row encoder, digit writer or digit scanner is a second codec
    // that can drift from it.
    const WIRE: &str = "crates/analysis/src/wire.rs";
    targets(
        &[
            "crates",
            "src",
            WIRE,
            "crates/serve/src",
            "crates/journal/src",
        ],
        Path::exists,
    );
    // The sample-row literal and a decimal digit writer (b'0' + …, % 10):
    // samples\\":\[|b.0. \+|% 10\b
    fn writer(line: &str) -> bool {
        line.contains("samples\\\":[")
            || line.match_indices('b').any(|(i, _)| {
                let mut rest = line[i + 1..].chars();
                rest.next().is_some()
                    && rest.next() == Some('0')
                    && rest.next().is_some()
                    && rest.as_str().starts_with(" +")
            })
            || seq(line, &["% 10"], word_end)
    }
    let only_wire = |tree: &Tree| {
        let files = tree.outside_tests(&["crates", "src"], writer);
        unless(files == [WIRE], &files)
    };
    check(
        only_wire,
        "sample rows or decimal digits are written outside crates/analysis/src/wire.rs",
        &[
            "crates/journal/src/lib.rs:         out.push(b'0' + (v % 10) as u8);",
            "crates/journal/src/lib.rs:         let d = v % 10;",
            "src/bin/sg.rs:     s.push(char::from(b'0' + digit));",
            "crates/analysis/src/journal.rs:     line.push_str(\"\\\"samples\\\":[\");",
        ],
    );
    // A decimal digit scanner in the journal or the daemon:
    // …|mul\(10\)|\* 10 \+|is_ascii_digit|to_digit\(10\)
    let scanner =
        |line: &str| writer(line) || any_of(line, "mul(10)|* 10 +|is_ascii_digit|to_digit(10)");
    check(
        |tree| {
            tree.outside_tests(&["crates/serve", "crates/journal"], scanner)
                .iter()
                .map(|f| f.to_string())
                .collect()
        },
        "cell text is encoded or scanned in the journal or the daemon; use sg_analysis::wire",
        &[
            "crates/serve/src/server.rs:     if byte.is_ascii_digit() { n = n * 10 + u64::from(byte - b'0'); }",
            "crates/serve/src/wire.rs: let d = c.to_digit(10).unwrap();",
            "crates/journal/src/lib.rs: acc = acc.wrapping_mul(10);",
            "crates/journal/src/segment.rs: v = v * 10 + d;",
            "crates/serve/src/client.rs: out.push(b'0' + d);",
        ],
    );
    misses(
        writer,
        &["let x = v % 100;", "b'1' + d", "b'0'+d", "samples\":["],
    );
    // A file's tests, and the tests/ and benches/ directories, are out.
    let in_tests = [
        "crates/journal/tests/digits.rs: out.push(b'0' + d);",
        "crates/serve/benches/frames.rs: v = v * 10 + d;",
        "crates/shims/serde/src/lib.rs: out.push(b'0' + d);",
    ];
    for plant in in_tests {
        assert!(only_wire(&planted(plant)).is_empty(), "{plant}");
    }
    let after_tests = repo().with("crates/journal/src/lib.rs", |text| {
        format!("{text}\n#[cfg(test)]\nmod digits {{ fn f(d: u8) -> u8 {{ b'0' + d }} }}\n")
    });
    assert!(only_wire(&after_tests).is_empty(), "a test module was read");
}

#[test]
fn vector_lies_build_no_scalar_lanes() {
    // BatchFamily draws a named family's lies as lane words from its
    // parameters and seeds alone. The per-lane strategies it once carried
    // (and the pool that kept them warm) were never called on the vector
    // path, and no lock-step chunk builds a scalar strategy at all: a
    // family without a vector shape runs on the scalar engine.
    const PATHS: &[&str] = &["crates", "src", "tests"];
    targets(PATHS, Path::exists);
    let lanes = |line: &str| {
        any_of(
            line,
            "fn vectorized|ScalarBridge|lane_groups|fn lane(&mut self",
        )
    };
    check(
        |tree| tree.grep(PATHS, lanes),
        "the vector fault path carries scalar lanes again",
        &[
            "crates/adversary/src/batch.rs:     fn vectorized(&self) -> bool {",
            "crates/sim/src/batch.rs:     fn lane(&mut self, lane: usize) -> &mut dyn Adversary;",
            "crates/bench/benches/run_loop.rs:     RunConfig, ScalarBridge, Value, MAX_BATCH_RUNS,",
            "tests/batch_identity.rs: let groups = lane_groups(&plan);",
        ],
    );
}

#[test]
fn one_lock_step_fault_path() {
    // A lock-step batch has one fault set, chosen by one
    // BatchAdversary::corrupt call and told by BatchAdversary::lies. The
    // per-lane bridge that asked one scalar strategy per lane (run_batch,
    // its PerLane adapter and ViewTables, and the per-lane corrupt_lanes
    // contract) was deleted, not kept beside: a family without a vector
    // shape runs on the scalar engine.
    const PATHS: &[&str] = &["crates", "src", "tests"];
    targets(PATHS, Path::exists);
    let per_lane = |line: &str| any_of(line, "run_batch(|PerLane|ViewTables|corrupt_lanes");
    check(
        |tree| tree.grep(PATHS, per_lane),
        "a second lock-step fault path is back; take the scalar engine instead",
        &[
            "crates/analysis/src/sweep.rs:         sg_sim::run_batch(&mut scratch.batch, &run_config, kernel.as_mut(), &mut lanes)",
            "crates/sim/src/batch.rs: struct PerLane<'a> {",
            "crates/sim/src/batch.rs: struct ViewTables {",
            "crates/adversary/src/batch.rs:     fn corrupt_lanes(",
        ],
    );
    misses(
        per_lane,
        &["run_batch_with(&mut arena, &config, kernel, &mut adv)"],
    );
}

#[test]
fn one_plan_compiler() {
    // Every tree and gear spec (AlgorithmSpec::segments) and every shift
    // composition is a segment list, and plan::compile is the one walk
    // that turns it into a round plan, a king-tail flag and checkpoints.
    // The per-algorithm plan builders, the unchecked composition build,
    // the king-shift / dynamic-king constructors and the GearPlan struct
    // were deleted, not kept beside it.
    const PATHS: &[&str] = &["crates", "src", "tests"];
    targets(&["crates/core/src/plan.rs"], Path::exists);
    targets(PATHS, Path::exists);
    // fn (exponential|algorithm_[abc]|hybrid)_plan\b|fn push_blocks?\b|
    // build_unchecked|struct GearPlan|KingShift::build|DynamicKing::build
    let walk = |line: &str| {
        let builder = [
            "fn ",
            "exponential|algorithm_a|algorithm_b|algorithm_c|hybrid",
            "_plan",
        ];
        seq(line, &builder, word_end)
            || seq(line, &["fn push_block", "s|"], word_end)
            || any_of(
                line,
                "build_unchecked|struct GearPlan|KingShift::build|DynamicKing::build",
            )
    };
    check(
        |tree| tree.grep(PATHS, walk),
        "a second plan walk is back; add a segment list and call plan::compile instead",
        &[
            "crates/core/src/plan.rs: pub fn exponential_plan(t: usize, conversion: Conversion) -> Vec<RoundAction> {",
            "crates/core/src/plan.rs: pub fn algorithm_b_plan(t: usize, b: usize) -> Vec<RoundAction> {",
            "crates/core/src/plan.rs: fn hybrid_plan() {}",
            "crates/core/src/compose.rs: fn push_block(plan: &mut Vec<RoundAction>, b: usize, convert: ConvertSpec) {",
            "crates/core/src/plan.rs: fn push_blocks(plan: &mut Vec<RoundAction>, blocks: &BlockPlan, convert: ConvertSpec) {",
            "crates/core/src/compose.rs:     pub fn build_unchecked(self) -> ShiftComposition {",
            "crates/core/src/gearbox.rs: pub struct GearPlan {",
            "tests/gear_lemmas.rs:         let p = KingShift::build(params(16, 5), ProcessId(1), None, 3);",
            "src/lib.rs: DynamicKing::build(params, me, input, 3)",
        ],
    );
    misses(
        walk,
        &[
            "fn algorithm_d_plan()",
            "fn hybrid_planner()",
            "fn push_blocksize()",
            "fn exponential_plan_x()",
            "let hybrid_plan = spec.plan(n, t);",
        ],
    );
}

#[test]
fn one_spelling_of_a_runtime_shift() {
    // dynamic-king is the one spec that shifts gears at runtime, at the
    // checkpoints plan::compile emits for it. The builder option that
    // compiled the same checkpoints into a shift composition, and the
    // escape-only king tail only that option could create, were deleted,
    // not kept beside it.
    targets(&["crates/core/src/compose.rs"], Path::exists);
    targets(
        &["crates/core/src", "crates", "src", "tests", "examples"],
        Path::exists,
    );
    check(
        |tree| tree.grep(&["crates/core/src"], |line| line.contains("fn dynamic(")),
        "a second runtime-shift constructor is back; dynamic-king is the one",
        &["crates/core/src/compose.rs:     pub fn dynamic(mut self) -> Self {"],
    );
    check(
        |tree| {
            tree.grep(&["crates", "src", "tests", "examples"], |line| {
                line.contains(".dynamic()")
            })
        },
        "a dynamic shift composition is back; run dynamic-king instead",
        &[
            "crates/analysis/src/experiments.rs:         .dynamic()",
            "tests/gear_lemmas.rs:         .dynamic()",
            "crates/core/tests/plans.rs:         for builder in [shape.clone(), shape.dynamic()] {",
            "examples/custom_composition.rs: let c = b.dynamic().build();",
        ],
    );
}

#[test]
fn one_adversary_family_value() {
    // Each named adversary family is one sg_adversary::Family variant: it
    // builds the run's strategy, BatchFamily reads its lock-step form off
    // the variant, and its codec is the family's wire text. The
    // per-family wire enum, the factory closures beside it, the
    // vector-family copy and its translation, and the factory-identity
    // pool key were deleted, not kept beside. A sweep's adversary family
    // is one Arc<Family>: the closure form, and the oracle leg that
    // re-wrapped families in closures, were deleted with the keyless,
    // wireless and unpooled paths they kept alive.
    targets(&["crates/adversary/src/family.rs"], Path::exists);
    targets(&["crates", "src", "tests", "examples"], Path::exists);
    check(
        |tree| {
            tree.grep(&["crates", "src", "tests"], |line| {
                any_of(line, "FamilyWire|VectorFamily|fn vector_family|FactoryKey")
            })
        },
        "a second copy of a named family is back; add a Family variant instead",
        &[
            "crates/analysis/src/sweep.rs: pub(crate) enum FamilyWire {",
            "crates/adversary/src/batch.rs: pub enum VectorFamily<'a> {",
            "crates/adversary/src/family.rs:     pub fn vector_family(&self) -> Option<VectorFamily<'_>> {",
            "tests/instance_pool.rs: let key = FactoryKey::of(&family);",
        ],
    );
    // The six files that still spelled the closure form when it was
    // deleted, each by one of its lines.
    check(
        |tree| {
            tree.grep(&["crates", "src", "tests", "examples"], |line| {
                any_of(line, "AdversaryFamily::new|Build::Closure|closure_built")
            })
        },
        "a closure-built adversary family is back; express it as a Family value",
        &[
            "crates/analysis/src/journal.rs:                 AdversaryFamily::new(\"bespoke\", |_seed| Box::new(sg_sim::NoFaults)),",
            "crates/analysis/src/sweep.rs:             build: Build::Closure(Arc::new(make)),",
            "crates/analysis/src/wire.rs:         let custom = AdversaryFamily::new(\"custom\", |_| Box::new(sg_sim::NoFaults));",
            "tests/batch_identity.rs:         AdversaryFamily::new(\"random-liar(set by seed)\".to_string(), move |seed| {",
            "tests/engine_identity.rs:     AdversaryFamily::new(format!(\"rotating-{story}\"), move |seed| {",
            "tests/oracle/mod.rs: pub fn closure_built(plan: &SweepPlan) -> SweepPlan {",
            "examples/custom_composition.rs: let f = AdversaryFamily::new(\"mine\", |_| Box::new(NoFaults));",
        ],
    );
}

#[test]
fn a_lie_is_written_once_per_story() {
    // A round's lies are story rows (sg_sim::LiarRows): liars that tell
    // the same lie in the same lanes share one row and are tallied as
    // multiplicity × word, and a one-member story is what a per-liar row
    // was. The sender-major n × n liar rows, written and read once per
    // liar, were replaced, not kept beside.
    const FILES: &[&str] = &["crates/sim/src/batch.rs", "crates/adversary/src/batch.rs"];
    targets(FILES, Path::is_file);
    // rows_(one|zero)\[f \* n|net_(one|zero)\[f(\.index\(\))? \* n
    let sender_major = |line: &str| {
        seq(line, &["rows_", "one|zero", "[f * n"], anything)
            || seq(
                line,
                &["net_", "one|zero", "[f", ".index()|", " * n"],
                anything,
            )
    };
    check(
        |tree| tree.grep(FILES, sender_major),
        "liar rows are indexed sender-major again; write a lie once per story",
        &[
            "crates/sim/src/batch.rs:             arena.rows_one[f * n..(f + 1) * n].fill(0);",
            "crates/sim/src/batch.rs:     let z = rows_zero[f * n + i];",
            "crates/adversary/src/batch.rs:             net_one[f * n + r] |= one;",
            "crates/adversary/src/batch.rs:             net_zero[f.index() * n + r] |= zero;",
        ],
    );
    misses(
        sender_major,
        &[
            "rows_one[s * n + i]",
            "net_one[f.index()*n]",
            "rows_two[f * n]",
            "net_zero[f.idx() * n]",
        ],
    );
}

#[test]
fn a_lie_is_drawn_only_where_it_is_read() {
    // A random lie costs a first-draw per (lane, edge); a correct
    // recipient whose rules the liars cannot swing reads none of them
    // (sg_sim::BatchKernel::readers). So the one draw loop of the vector
    // adversary, fn random, asks the view's read question (view.readers)
    // and skips the recipients outside it, and no other function of the
    // file draws.
    const FILE: &str = "crates/adversary/src/batch.rs";
    targets(&[FILE], Path::is_file);
    // Each line up to the first test module, with the function it sits
    // in: a line `^[[:space:]]*(pub(\([a-z]+\))? )?fn [a-z_0-9]+` opens it.
    let guard = |tree: &Tree| {
        let (_, text) = tree.under(&[FILE])[0];
        let mut function = "";
        let mut found = Vec::new();
        let mut asks = false;
        for (at, line) in numbered(FILE, non_test(text)) {
            let opened = past_visibility(line.trim_start())
                .strip_prefix("fn ")
                .map(|name| {
                    &name[..run(name, |c| {
                        c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'
                    })]
                })
                .filter(|name| !name.is_empty());
            if let Some(name) = opened {
                function = name;
            }
            if function == "random" {
                asks |= line.contains("view.readers");
            } else if any_of(line, "first_draw(|edge_draw(") {
                found.push(format!("{at}: in fn {function}: {line}"));
            }
        }
        if !asks {
            found.push(format!(
                "{FILE}: fn random no longer asks the view's read question (view.readers)"
            ));
        }
        found
    };
    check(
        guard,
        "lies are drawn outside fn random, where no read question is asked",
        &[
            "crates/adversary/src/batch.rs:     fn shadow() { let one = first_draw(seed, edge) >> 63; }",
            "crates/adversary/src/batch.rs: pub(crate) fn stray() { let v = edge_draw(seed, edge, size); }",
        ],
    );
    fires(
        guard,
        &repo().with(FILE, |text| text.replace("view.readers", "view.everyone")),
        "fn random without view.readers",
    );
    // A draw below the first test module is a test's.
    let in_tests = repo().with(FILE, |text| {
        format!("{text}\n#[cfg(test)]\nmod draws {{ fn f() {{ first_draw(1, 2); }} }}\n")
    });
    assert!(guard(&in_tests).is_empty(), "a test module was read");
}

#[test]
fn one_lane_counter() {
    // Speech is lane-uniform and a batch has one fault set, so a round's
    // honest sends are one running total, not a per-lane counter. The
    // 13-plane send counter and the BitPlanes<P> width parameter were
    // deleted, not kept beside; the 7-plane tally counter,
    // sg_sim::batch::LaneCounts, is the one bit-plane counter.
    const BATCH: &str = "crates/sim/src/batch.rs";
    targets(&["crates", "src", BATCH], Path::exists);
    check(
        |tree| {
            tree.outside_tests(&["crates", "src"], |line| {
                any_of(line, "SEND_PLANES|BitPlanes")
            })
            .iter()
            .map(|f| f.to_string())
            .collect()
        },
        "a second lane counter width is back; count lane-uniform sends in one u64",
        &[
            "crates/analysis/src/sweep.rs: const SEND_PLANES: usize = 13;",
            "crates/sim/src/batch.rs:     sends: BitPlanes<SEND_PLANES>,",
        ],
    );
    let only_batch = |tree: &Tree| {
        let files =
            tree.outside_tests(&["crates", "src"], |line| any_of(line, "fn add_at|planes:"));
        unless(files == [BATCH], &files)
    };
    check(
        only_batch,
        "bit-plane counter code is written outside crates/sim/src/batch.rs; use LaneCounts",
        &[
            "crates/core/src/phase_batch.rs:     planes: [u64; 7],",
            "crates/journal/src/lib.rs:     fn add_at(&mut self, plane: usize, word: u64) {",
        ],
    );
    fires(
        only_batch,
        &repo().with(BATCH, |text| {
            text.replace("fn add_at", "fn add_to")
                .replace("planes:", "words:")
        }),
        "the counter gone from crates/sim/src/batch.rs",
    );
}

#[test]
fn one_tree_level_representation() {
    // IgTree's levels, Converted's levels and RepTree's intermediates and
    // n x n leaf matrix are sg_eigtree::Planes: one u64 plane per value
    // bit, plus a bottom plane on resolve' levels. The Value and Res
    // vectors they replaced were deleted, not kept beside: no struct field
    // under crates/eigtree/src stores a level as Vec<Value>, Vec<Res> or a
    // vector of them. Each file is read up to its first #[cfg(test)].
    const DIR: &str = "crates/eigtree/src";
    targets(&[DIR], Path::is_dir);
    // ^[[:space:]]*(pub(\([a-z]+\))? )?[a-z_]+: Vec<(Vec<)?(Value|Res)>>?,
    let value_field = |line: &str| {
        let rest = past_visibility(line.trim_start());
        let name = run(rest, |c| c.is_ascii_lowercase() || c == '_');
        name > 0
            && starts_seq(
                &rest[name..],
                &[": Vec<", "Vec<|", "Value|Res", ">", ">|", ","],
                anything,
            )
    };
    check(
        |tree| {
            let mut files = Vec::new();
            for (path, text) in tree.under(&[DIR]) {
                if path.ends_with(".rs") && non_test(text).lines().any(value_field) {
                    files.push(path.to_string());
                }
            }
            files
        },
        "a value-vector level store is back; store tree levels as Planes",
        &[
            "crates/eigtree/src/rep_tree.rs:     intermediates: Vec<Value>,",
            "crates/eigtree/src/rep_tree.rs:     leaves: Vec<Value>,",
            "crates/eigtree/src/resolve.rs:     levels: Vec<Vec<Res>>,",
            "crates/eigtree/src/tree.rs:     levels: Vec<Vec<Value>>,",
            "crates/eigtree/src/level.rs: \tpub(crate) rows: Vec<Res>>,",
        ],
    );
    misses(
        value_field,
        &[
            "    levels: Vec<Planes>,",
            "    pub(in crate) levels: Vec<Value>,",
            "    Levels: Vec<Value>,",
            "    levels: Vec<Value>",
            "    let levels: Vec<Value> = Vec::new();",
            "    levels: Vec<Vec<Vec<Value>>>,",
        ],
    );
}

#[test]
fn test_modules_come_last() {
    // The guards read each file only up to its first #[cfg(test)], and so
    // does the non-test line count: an item placed after a test module is
    // invisible to both. Under crates and src, but the shims and tests/
    // and benches/ directories, a top-level item after a file's first
    // #[cfg(test)] must itself carry #[cfg(test)] (attributes and comments
    // aside).
    targets(&["crates", "src"], Path::exists);
    let guard = |tree: &Tree| {
        let mut late = Vec::new();
        for (path, text) in tree.sources(&["crates", "src"]) {
            let (mut seen, mut gated) = (false, false);
            for (at, line) in numbered(path, text) {
                if line.starts_with("#[cfg(test)]") {
                    (seen, gated) = (true, true);
                } else if seen
                    && !line.starts_with('#')
                    && line.starts_with(|c| !matches!(c, ' ' | '\t' | '}' | '/'))
                {
                    if !gated {
                        late.push(format!("{at}: {line}"));
                    }
                    gated = false;
                }
            }
        }
        late
    };
    let append = |path: &'static str, item: &'static str| {
        repo().with(path, move |text| format!("{text}\n{item}\n"))
    };
    assert!(
        guard(&repo()).is_empty(),
        "a non-test item follows a test module; move it above the file's first #[cfg(test)]:\n{}",
        guard(&repo()).join("\n")
    );
    fires(
        guard,
        &append("crates/adversary/src/strategies.rs", "pub fn stray() {}"),
        "a pub fn after strategies.rs's tests",
    );
    fires(
        guard,
        &append(
            "crates/core/src/schedule.rs",
            "#[derive(Debug)]\npub struct Stray;",
        ),
        "a derived pub struct after schedule.rs's tests",
    );
    // A second test module, comments and attributes are fine.
    let fine = append(
        "crates/core/src/schedule.rs",
        "// a comment\n/// a doc\n#[cfg(test)]\n#[allow(dead_code)]\nmod more {}",
    );
    assert!(guard(&fine).is_empty(), "a gated item was reported");
}

#[test]
fn one_adversary_vocabulary() {
    // Every named strategy is an sg_adversary::Family variant, and
    // FamilyStrategy is the one scalar strategy of the sixteen that
    // corrupt through a FaultSelection: its payload matches on the
    // variant. Beside it stand only the tape, replay and recording
    // strategies and sg_sim::NoFaults. The per-family structs and their
    // impls were deleted, not kept beside, and both gauntlet suites are
    // read off one table of Family values.
    const SUITE: &str = "crates/adversary/src/suite.rs";
    targets(
        &["crates", "src", "crates/adversary/src/strategies.rs", SUITE],
        Path::exists,
    );
    // impl(<[^>]*>)? +([a-z_]+::)*Adversary +for +[A-Za-z_]+ → the type.
    fn implementors(line: &str) -> Vec<&str> {
        let spaces = |s: &str| s.len() - s.trim_start_matches(' ').len();
        line.match_indices("impl")
            .filter_map(|(i, _)| {
                let mut rest = &line[i + "impl".len()..];
                if rest.starts_with('<') {
                    rest = &rest[rest.find('>')? + 1..];
                }
                let gap = spaces(rest);
                rest = &rest[gap..];
                loop {
                    let segment = run(rest, |c| c.is_ascii_lowercase() || c == '_');
                    match rest[segment..].strip_prefix("::") {
                        Some(after) if segment > 0 => rest = after,
                        _ => break,
                    }
                }
                rest = rest.strip_prefix("Adversary")?;
                let before_for = spaces(rest);
                rest = rest[before_for..].strip_prefix("for")?;
                let after_for = spaces(rest);
                rest = &rest[after_for..];
                let name = run(rest, |c| c.is_ascii_alphabetic() || c == '_');
                (gap > 0 && before_for > 0 && after_for > 0 && name > 0).then(|| &rest[..name])
            })
            .collect()
    }
    let the_five = |tree: &Tree| {
        let mut impls = Vec::new();
        for (path, text) in tree.sources(&["crates", "src"]) {
            for line in non_test(text).lines() {
                impls.extend(
                    implementors(line)
                        .into_iter()
                        .map(|ty| format!("{path} {ty}")),
                );
            }
        }
        let want = [
            "crates/adversary/src/scenario.rs RecordingAdversary",
            "crates/adversary/src/scenario.rs ReplayAdversary",
            "crates/adversary/src/strategies.rs FamilyStrategy",
            "crates/adversary/src/tape.rs TapeAdversary",
            "crates/sim/src/adversary.rs NoFaults",
        ];
        unless(impls == want, &impls)
    };
    check(
        the_five,
        "impl Adversary outside the one family strategy; add a Family variant instead",
        &[
            "crates/analysis/src/sweep.rs: impl Adversary for Stray {",
            "crates/adversary/src/util.rs: impl<'a>  sg_sim::Adversary  for  Stray<'a> {",
            "src/lib.rs: impl<T> crate::sim::Adversary for Wrapper<T> {}",
        ],
    );
    fires(
        the_five,
        &repo().with("crates/adversary/src/tape.rs", |text| {
            text.replace("Adversary for TapeAdversary", "Strategy for TapeAdversary")
        }),
        "TapeAdversary's impl gone",
    );
    assert_eq!(
        implementors("impl<T: Into<u8>> Adversary for X {} impl Adversary for Y {}"),
        ["Y"]
    );
    misses(
        |line| !implementors(line).is_empty(),
        &[
            "impl BatchAdversary for BatchFamily {",
            "impl Adversary for {",
            "implAdversary for X",
            "impl Sg::Adversary for X",
            "impl Adversary forX",
        ],
    );
    check(
        |tree| tree.grep(&[SUITE], |line| line.contains("Box::new")),
        "a suite entry is built by hand again; add a Family value to the table",
        &["crates/adversary/src/suite.rs:         Box::new(TwoFaced::new(selection)),"],
    );
}

#[test]
fn the_legacy_bench_path_stays_deleted() {
    // Two second benchmark paths beside benchmark/ are gone: the one-cell
    // sweep bench, and the serving-path load harness with its committed
    // p99 artifact. A stale `repro --exp sweep`, `--exp serve-load` or
    // `--chaos` exits 2 (crates/bench/tests/repro_cli.rs), and so does
    // `sg hammer` (tests/cli.rs). docs/measurements/ logs the harness's
    // runs as history and is left out of its half of the scan.
    const PATHS: &[&str] = &[
        "crates",
        "src",
        "tests",
        "tools",
        "docs",
        "examples",
        "README.md",
        ".claude",
    ];
    for path in PATHS {
        assert!(
            root().join(path).exists(),
            "guard target {path} is gone; drop it from the guard's list"
        );
    }
    let load_harness = |line: &str| {
        any_of(
            line,
            "BENCH_serve|sg-serve-load|run_load|LoadOptions|cmd_hammer|sg hammer",
        )
    };
    let legacy = |tree: &Tree| {
        let mut found = tree.grep(PATHS, |line| {
            any_of(line, "BENCH_sweep|sg-bench-sweep|count-allocs")
        });
        found.extend(
            tree.grep(PATHS, load_harness)
                .into_iter()
                .filter(|at| !at.starts_with("docs/measurements/")),
        );
        found
    };
    check(
        legacy,
        "a deleted benchmark path (the one-cell sweep bench or the serving-path load harness) is back",
        &[
            "crates/bench/Cargo.toml: count-allocs = []",
            "crates/bench/benches/run_loop.rs:     // The BENCH_sweep.json cell: optimal-king n=16 t=5 under random liars.",
            "docs/WIRE.md: schema `sg-bench-sweep/6`",
            ".claude/skills/verify/SKILL.md: cat BENCH_sweep.json",
            "tools/readme_smoke.sh: cargo run --features count-allocs",
            "crates/bench/src/bin/repro.rs:     match std::fs::write(\"BENCH_serve.json\", &json) {",
            "docs/WIRE.md: ## `sg-serve-load/1` — the serving-path load artifact",
            "src/bin/sg.rs:     let report = run_load(&options);",
            "crates/serve/tests/serve_e2e.rs:         ..sg_serve::LoadOptions::default()",
            "src/bin/sg.rs:         \"hammer\" => cmd_hammer(&flags),",
            ".claude/skills/verify/SKILL.md: ./target/release/sg hammer --chaos gentle",
        ],
    );
    let history = planted("docs/measurements/PR-24.md: cat BENCH_serve.json");
    assert!(
        legacy(&history).is_empty(),
        "docs/measurements/ was scanned"
    );
    misses(
        load_harness,
        &[
            "run_loop",
            "BENCH_rounds_vs_f.md",
            "sg-serve/1",
            "ServeOptions",
            "cmd_serve",
            "sg serve",
        ],
    );
}

#[test]
fn broadcast_only() {
    // The interactive-consistency / multivalued layer stays deleted: the
    // repo reproduces broadcast. docs/measurements/ is history and stays
    // out of the scan.
    const PATHS: &[&str] = &[
        "crates",
        "src",
        "tests",
        "examples",
        "docs/ARCHITECTURE.md",
        "README.md",
    ];
    targets(PATHS, Path::exists);
    // Multiplex|interactive_consistency|run_consensus|multivalued_broadcast|
    // run_multivalued|crate::multivalued|mod (multiplex|interactive|multivalued)
    let layer = |line: &str| {
        any_of(line, "Multiplex|interactive_consistency|run_consensus|multivalued_broadcast|run_multivalued|crate::multivalued|mod multiplex|mod interactive|mod multivalued")
    };
    check(
        |tree| tree.grep(PATHS, layer),
        "the interactive-consistency / multivalued layer is back",
        &[
            "crates/core/src/lib.rs: pub mod multiplex;",
            "crates/core/src/interactive.rs: use crate::multiplex::{plurality, Multiplex};",
            "README.md: `sg_core::interactive_consistency` runs n broadcasts",
            "examples/consensus.rs: let d = run_consensus(&spec, n, t);",
            "docs/ARCHITECTURE.md: pub use crate::multivalued::run_multivalued;",
            "tests/multivalued.rs: multivalued_broadcast(&spec)",
        ],
    );
    let history = planted("docs/measurements/history.md: pub mod multiplex;");
    assert!(
        history.grep(PATHS, layer).is_empty(),
        "docs/measurements/ was scanned"
    );
}

#[test]
fn the_sweep_samples_from_folds() {
    // A sweep's scalar runs record no event log: the engine folds each
    // run's lock-in and discoveries as the events are emitted
    // (Outcome::lock_in, Outcome::discoveries), and the sweep reads the
    // folds. Walking a recorded log per run — sample_of, or the outcome's
    // trace read in place — stays with the tests, where it is the oracle
    // the folds are held to.
    const SWEEP: &str = "crates/analysis/src/sweep.rs";
    targets(&[SWEEP], Path::is_file);
    let walk = |line: &str| any_of(line, "sample_of(|.trace.");
    check(
        |tree| {
            tree.outside_tests(&[SWEEP], walk)
                .into_iter()
                .map(|path| format!("{path}: samples a run by walking its log"))
                .collect()
        },
        "the sweep walks a run's event log again",
        &[
            "crates/analysis/src/sweep.rs:         sample_of(out)",
            "crates/analysis/src/sweep.rs:     let discoveries = out.trace.entries().len();",
        ],
    );
    misses(
        walk,
        &[
            "        let sampled = |fold: u64| if config.trace { fold } else { 0 };",
            "            trace: false,",
            "        if self.trace {",
            "    /// ([`Outcome::lock_in`], [`Outcome::discoveries`]) and records no",
        ],
    );
}

#[test]
fn the_chaos_proxy_is_test_code() {
    // The fault-injecting proxy serves the serve crate's wire tests and
    // nothing else, so it lives beside them (crates/serve/tests/chaos/,
    // `mod chaos;` in each test binary) and sg_serve ships no chaos module
    // and no Chaos* item.
    const SERVE: &str = "crates/serve/src";
    targets(&[SERVE], Path::is_dir);
    targets(&["crates/serve/tests/chaos/mod.rs"], Path::is_file);
    let proxy =
        |line: &str| any_of(line, "ChaosProxy|ChaosSpec") || seq(line, &["mod chaos"], word_end);
    check(
        |tree| {
            tree.outside_tests(&[SERVE], proxy)
                .into_iter()
                .map(|path| format!("{path}: the chaos proxy in sg_serve"))
                .collect()
        },
        "the chaos proxy is production code again",
        &[
            "crates/serve/src/lib.rs: pub mod chaos;",
            "crates/serve/src/lib.rs: pub use chaos::{ChaosProxy, ChaosSpec};",
            "crates/serve/src/chaos.rs: pub struct ChaosProxy {",
            "crates/serve/src/server.rs:     pub fn gentle(seed: u64) -> ChaosSpec {",
        ],
    );
    misses(
        proxy,
        &[
            "//! concurrent load through a fault-injecting proxy).",
            "pub mod client;",
            "mod chaos_free_codec;",
            "//! corrupt it; rules that want chaos build payloads from scratch.",
        ],
    );
}
