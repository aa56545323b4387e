//! Wire (JSON) forms of the sweep types — the vocabulary of `sg-serve/1`.
//!
//! See `docs/WIRE.md` at the repository root for the consolidated
//! catalogue of every schema the repo speaks and their compatibility
//! notes; this module is the codec for the plan/cell/sample vocabulary
//! those schemas share.
//!
//! The `sg-serve` daemon (see `crates/serve`) accepts [`SweepPlan`]s and
//! streams [`CellReport`]s over newline-delimited JSON; this module
//! defines how those types look on the wire, via the serde shim's
//! [`ToJson`]/[`FromJson`] traits. The encodings are documented field by
//! field in `docs/WIRE.md` (the `sg-serve/1` section); the invariant that
//! matters is **round-trip exactness**: `decode(encode(x)) == x` for
//! every encodable value, including `u64` seeds (carried as JSON
//! integers, never through `f64`) and summary statistics (floats written
//! with shortest-round-trip precision).
//!
//! An [`AdversaryFamily`] encodes as its [`Family`], whose codec lives
//! beside the family in `sg_adversary::family`; every family travels.
//!
//! One deliberate gap: [`crate::SweepReport`] has no single-document
//! decode. The service streams cells one frame at a time precisely so a
//! report never has to exist in one buffer; consumers reassemble it from
//! [`CellReport`] frames.

use serde::json::{JsonError, Value as Json};
use serde::{FromJson, ToJson};
use sg_adversary::Family;
use sg_core::AlgorithmSpec;
use sg_sim::Value;

use crate::montecarlo::{Sample, Summary};
use crate::{AdversaryFamily, CellReport, SweepConfig, SweepPlan};

fn bad(detail: impl Into<String>) -> JsonError {
    JsonError::msg(detail)
}

fn field_usize(v: &Json, key: &str) -> Result<usize, JsonError> {
    v.need(key)?
        .as_usize()
        .ok_or_else(|| bad(format!("'{key}' must be a non-negative integer")))
}

fn field_u64(v: &Json, key: &str) -> Result<u64, JsonError> {
    v.need(key)?
        .as_u64()
        .ok_or_else(|| bad(format!("'{key}' must be a non-negative integer")))
}

fn field_str<'v>(v: &'v Json, key: &str) -> Result<&'v str, JsonError> {
    v.need(key)?
        .as_str()
        .ok_or_else(|| bad(format!("'{key}' must be a string")))
}

/// Encodes an [`AlgorithmSpec`] as `{"alg":"<family>"}` plus a `"b"`
/// field for the block-parameterised families — the same names `sg run
/// --alg` accepts ([`AlgorithmSpec::family`]).
pub fn spec_to_json(spec: AlgorithmSpec) -> Json {
    let mut fields = vec![("alg".to_string(), Json::from(spec.family()))];
    if let Some(b) = spec.block() {
        fields.push(("b".to_string(), Json::from(b)));
    }
    Json::Obj(fields)
}

/// Decodes [`spec_to_json`]'s encoding.
///
/// # Errors
///
/// Returns a [`JsonError`] for unknown algorithm names or a missing `b`
/// on the block-parameterised families.
pub fn spec_from_json(v: &Json) -> Result<AlgorithmSpec, JsonError> {
    let alg = field_str(v, "alg")?;
    let b = match AlgorithmSpec::parse(alg, 0).map(|spec| spec.block()) {
        None => return Err(bad(format!("unknown algorithm '{alg}'"))),
        Some(Some(_)) => field_usize(v, "b")?,
        Some(None) => 0,
    };
    Ok(AlgorithmSpec::parse(alg, b).expect("a known family"))
}

impl ToJson for SweepConfig {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("spec".to_string(), spec_to_json(self.spec)),
            ("n".to_string(), Json::from(self.n)),
            ("t".to_string(), Json::from(self.t)),
            (
                "source_value".to_string(),
                Json::from(u64::from(self.source_value.raw())),
            ),
            ("trace".to_string(), Json::Bool(self.trace)),
        ])
    }
}

impl FromJson for SweepConfig {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let raw = field_u64(v, "source_value")?;
        let raw = u16::try_from(raw).map_err(|_| bad("source_value must fit in 16 bits"))?;
        Ok(SweepConfig {
            spec: spec_from_json(v.need("spec")?)?,
            n: field_usize(v, "n")?,
            t: field_usize(v, "t")?,
            source_value: Value(raw),
            trace: v
                .need("trace")?
                .as_bool()
                .ok_or_else(|| bad("'trace' must be a boolean"))?,
        })
    }
}

impl ToJson for AdversaryFamily {
    /// The family's wire text ([`Family`]'s codec).
    fn to_json(&self) -> Json {
        self.family().to_json()
    }
}

impl FromJson for AdversaryFamily {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Family::from_json(v).map(AdversaryFamily::from)
    }
}

impl ToJson for SweepPlan {
    /// `{configs, adversaries, seeds_per_cell, base_seed}`, plus
    /// `"early_stopping": false` for a [`SweepPlan::fixed_length`] plan
    /// only — absent means `true`, so every default plan encodes exactly
    /// as it did before the key existed.
    fn to_json(&self) -> Json {
        let mut fields = vec![
            (
                "configs".to_string(),
                Json::Arr(self.configs.iter().map(ToJson::to_json).collect()),
            ),
            (
                "adversaries".to_string(),
                Json::Arr(self.adversaries.iter().map(ToJson::to_json).collect()),
            ),
            (
                "seeds_per_cell".to_string(),
                Json::from(self.seeds_per_cell),
            ),
            ("base_seed".to_string(), Json::from(self.base_seed)),
        ];
        if !self.early_stopping {
            fields.push(("early_stopping".to_string(), Json::Bool(false)));
        }
        Json::Obj(fields)
    }
}

impl FromJson for SweepPlan {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let configs = v
            .need("configs")?
            .as_arr()
            .ok_or_else(|| bad("'configs' must be an array"))?
            .iter()
            .map(SweepConfig::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let adversaries = v
            .need("adversaries")?
            .as_arr()
            .ok_or_else(|| bad("'adversaries' must be an array"))?
            .iter()
            .map(AdversaryFamily::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let early_stopping = match v.get("early_stopping") {
            None => true,
            Some(flag) => flag
                .as_bool()
                .ok_or_else(|| bad("'early_stopping' must be a boolean"))?,
        };
        Ok(SweepPlan {
            configs,
            adversaries,
            seeds_per_cell: field_u64(v, "seeds_per_cell")?,
            base_seed: field_u64(v, "base_seed")?,
            early_stopping,
        })
    }
}

impl ToJson for Sample {
    /// Compact positional form `[lock_in, discoveries, total_bits,
    /// max_local_ops, rounds, early_stopped]` — cell frames carry
    /// `seeds_per_cell` of these. Decoding also accepts the pre-rounds
    /// 4-element form (rounds 0, not early-stopped) for compatibility
    /// with frames recorded before the early-stopping engine.
    fn to_json(&self) -> Json {
        Json::Arr(vec![
            Json::from(self.lock_in),
            Json::from(self.discoveries),
            Json::from(self.total_bits),
            Json::from(self.max_local_ops),
            Json::from(self.rounds),
            Json::Bool(self.early_stopped),
        ])
    }
}

impl FromJson for Sample {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let items = v
            .as_arr()
            .filter(|items| items.len() == 4 || items.len() == 6)
            .ok_or_else(|| bad("sample must be a 4- or 6-element array"))?;
        let get = |i: usize| {
            items[i]
                .as_u64()
                .ok_or_else(|| bad("sample entries must be non-negative integers"))
        };
        let (rounds, early_stopped) = if items.len() == 6 {
            (
                get(4)?,
                items[5]
                    .as_bool()
                    .ok_or_else(|| bad("sample entry 5 must be a boolean"))?,
            )
        } else {
            (0, false)
        };
        Ok(Sample {
            lock_in: get(0)?,
            discoveries: get(1)?,
            total_bits: get(2)?,
            max_local_ops: get(3)?,
            rounds,
            early_stopped,
        })
    }
}

impl ToJson for Summary {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("samples".to_string(), Json::from(self.samples)),
            ("min".to_string(), Json::from(self.min)),
            ("max".to_string(), Json::from(self.max)),
            ("mean".to_string(), Json::Num(self.mean)),
            ("stddev".to_string(), Json::Num(self.stddev)),
        ])
    }
}

impl FromJson for Summary {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let float = |key: &str| {
            v.need(key)?
                .as_f64()
                .ok_or_else(|| bad(format!("'{key}' must be a number")))
        };
        Ok(Summary {
            samples: field_usize(v, "samples")?,
            min: field_u64(v, "min")?,
            max: field_u64(v, "max")?,
            mean: float("mean")?,
            stddev: float("stddev")?,
        })
    }
}

impl ToJson for CellReport {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("spec_name".to_string(), Json::from(self.spec_name.as_str())),
            ("n".to_string(), Json::from(self.n)),
            ("t".to_string(), Json::from(self.t)),
            ("adversary".to_string(), Json::from(self.adversary.as_str())),
            ("first_seed".to_string(), Json::from(self.first_seed)),
            (
                "early_stop_rate".to_string(),
                Json::Num(self.early_stop_rate),
            ),
            (
                "samples".to_string(),
                Json::Arr(self.samples.iter().map(ToJson::to_json).collect()),
            ),
            (
                "summaries".to_string(),
                Json::Arr(self.summaries.iter().map(ToJson::to_json).collect()),
            ),
        ])
    }
}

impl FromJson for CellReport {
    /// Decodes the extended cell frame. Pre-early-stopping frames (four
    /// summaries, no `early_stop_rate`) are accepted compatibly: the
    /// rounds summary is recomputed from the decoded samples and the
    /// rate defaults from their `early_stopped` flags.
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let samples = v
            .need("samples")?
            .as_arr()
            .ok_or_else(|| bad("'samples' must be an array"))?
            .iter()
            .map(Sample::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let mut summaries: Vec<Summary> = v
            .need("summaries")?
            .as_arr()
            .ok_or_else(|| bad("'summaries' must be an array"))?
            .iter()
            .map(Summary::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        if summaries.len() == 4 {
            // Legacy frame: synthesize the rounds summary from samples.
            summaries.push(if samples.is_empty() {
                Summary {
                    samples: 0,
                    min: 0,
                    max: 0,
                    mean: 0.0,
                    stddev: 0.0,
                }
            } else {
                Summary::of(samples.iter().map(|s| s.rounds))
            });
        }
        let summaries: [Summary; 5] = summaries
            .try_into()
            .map_err(|_| bad("'summaries' must have 4 or 5 entries"))?;
        let early_stop_rate = match v.get("early_stop_rate") {
            Some(rate) => rate
                .as_f64()
                .ok_or_else(|| bad("'early_stop_rate' must be a number"))?,
            None => crate::montecarlo::early_stop_rate(&samples),
        };
        Ok(CellReport {
            spec_name: field_str(v, "spec_name")?.to_string(),
            n: field_usize(v, "n")?,
            t: field_usize(v, "t")?,
            adversary: field_str(v, "adversary")?.to_string(),
            first_seed: field_u64(v, "first_seed")?,
            early_stop_rate,
            samples,
            summaries,
        })
    }
}

// ------------------------------------------------------ the text codec
//
// `CellReport`'s `ToJson` / `FromJson` above define the cell's wire
// form. A journal line and a cell frame carry that form by the hundred,
// and building a tree per cell only to print or read it costs several
// times the printing and reading. The two functions below are the same
// codec without the tree, for the one shape the writer emits; they are
// selected by the input, never by a setting, and every input they do not
// recognise takes the tree codec unchanged. Both run in one pass: a
// sample row is formatted on the stack and appended at once, and an
// integer's value and its canonical spelling are read by the same loop.
// A row equal to the one before it — most rows of an early-stopped cell
// with a correct source — is neither formatted nor scanned again: the
// writer appends the bytes it formatted, the reader copies the sample it
// read from the same bytes.

/// The shortest sample row the writer can print after the first,
/// `,[0,0,0,0,0,true]`; the first, one byte shorter, is followed by at
/// least the `]` that closes the rows. So `rows * ROW_MIN` never
/// exceeds the text after `"samples":[`.
const ROW_MIN: usize = 17;

impl CellReport {
    /// Appends the cell's canonical wire text to `out`: byte for byte
    /// what `self.to_json().to_string()` returns.
    pub fn write_text(&self, out: &mut String) {
        use serde::json::{write_f64, write_str};
        // Room for the fixed fields and a typical row; a longer cell
        // grows the string once more.
        out.reserve(512 + self.spec_name.len() + self.adversary.len() + 32 * self.samples.len());
        // Writing to a `String` cannot fail.
        out.push_str("{\"spec_name\":");
        let _ = write_str(out, &self.spec_name);
        out.push_str(",\"n\":");
        push_u64(out, self.n as u64);
        out.push_str(",\"t\":");
        push_u64(out, self.t as u64);
        out.push_str(",\"adversary\":");
        let _ = write_str(out, &self.adversary);
        out.push_str(",\"first_seed\":");
        push_u64(out, self.first_seed);
        out.push_str(",\"early_stop_rate\":");
        let _ = write_f64(out, self.early_stop_rate);
        out.push_str(",\"samples\":[");
        // A run of equal samples is formatted once, as `,[..]`, and its
        // bytes appended once per sample; the first row drops the comma.
        let mut row = Ascii::new();
        for (i, equal) in self.samples.chunk_by(|a, b| a == b).enumerate() {
            let s = &equal[0];
            row.clear();
            row.put(b",[");
            for count in [
                s.lock_in,
                s.discoveries,
                s.total_bits,
                s.max_local_ops,
                s.rounds,
            ] {
                row.uint(count);
                row.put(b",");
            }
            row.put(if s.early_stopped { b"true]" } else { b"false]" });
            let text = row.as_str();
            out.push_str(if i == 0 { &text[1..] } else { text });
            for _ in 1..equal.len() {
                out.push_str(text);
            }
        }
        out.push_str("],\"summaries\":[");
        for (i, s) in self.summaries.iter().enumerate() {
            out.push_str(if i == 0 {
                "{\"samples\":"
            } else {
                ",{\"samples\":"
            });
            push_u64(out, s.samples as u64);
            out.push_str(",\"min\":");
            push_u64(out, s.min);
            out.push_str(",\"max\":");
            push_u64(out, s.max);
            out.push_str(",\"mean\":");
            let _ = write_f64(out, s.mean);
            out.push_str(",\"stddev\":");
            let _ = write_f64(out, s.stddev);
            out.push('}');
        }
        out.push_str("]}");
    }

    /// Reads exactly the form [`CellReport::write_text`] emits — keys in
    /// that order, 6-element samples, 5 summaries, names of unescaped
    /// printable ASCII, integers without sign or leading zeros, floats
    /// as `digits.digits`, nothing before or after — and declines
    /// (`None`) anything else, however valid as JSON. A `Some` is the
    /// cell `Json::parse` + `from_json` decode from the same text.
    pub fn from_text(text: &str) -> Option<CellReport> {
        let mut scan = Scanner { text, at: 0 };
        scan.lit("{\"spec_name\":")?;
        let spec_name = scan.name()?.to_string();
        scan.lit(",\"n\":")?;
        let n = usize::try_from(scan.uint()?).ok()?;
        scan.lit(",\"t\":")?;
        let t = usize::try_from(scan.uint()?).ok()?;
        scan.lit(",\"adversary\":")?;
        let adversary = scan.name()?.to_string();
        scan.lit(",\"first_seed\":")?;
        let first_seed = scan.uint()?;
        scan.lit(",\"early_stop_rate\":")?;
        let early_stop_rate = scan.float()?;
        scan.lit(",\"samples\":[")?;
        let mut samples = Vec::with_capacity((text.len() - scan.at) / ROW_MIN);
        // The bytes of the last row scanned, `[` through `]`. Reading a
        // row looks at nothing past its `]`, so a row spelled with the
        // same bytes is the same `Sample`: it is copied, not scanned.
        let mut last_row: &[u8] = &[];
        if !scan.eat(b']') {
            loop {
                let rest = &text.as_bytes()[scan.at..];
                let sample = match samples.last() {
                    Some(&last) if rest.starts_with(last_row) => {
                        scan.at += last_row.len();
                        last
                    }
                    _ => {
                        let start = scan.at;
                        let sample = scan.row()?;
                        last_row = &text.as_bytes()[start..scan.at];
                        sample
                    }
                };
                samples.push(sample);
                if scan.eat(b']') {
                    break;
                }
                scan.byte(b',')?;
            }
        }
        scan.lit(",\"summaries\":[")?;
        let mut summaries = [Summary {
            samples: 0,
            min: 0,
            max: 0,
            mean: 0.0,
            stddev: 0.0,
        }; 5];
        for (i, summary) in summaries.iter_mut().enumerate() {
            scan.lit(if i == 0 {
                "{\"samples\":"
            } else {
                ",{\"samples\":"
            })?;
            summary.samples = usize::try_from(scan.uint()?).ok()?;
            scan.lit(",\"min\":")?;
            summary.min = scan.uint()?;
            scan.lit(",\"max\":")?;
            summary.max = scan.uint()?;
            scan.lit(",\"mean\":")?;
            summary.mean = scan.float()?;
            scan.lit(",\"stddev\":")?;
            summary.stddev = scan.float()?;
            scan.byte(b'}')?;
        }
        scan.lit("]}")?;
        (scan.at == text.len()).then_some(CellReport {
            spec_name,
            n,
            t,
            adversary,
            first_seed,
            early_stop_rate,
            samples,
            summaries,
        })
    }

    /// Decodes a cell's wire text: [`CellReport::from_text`] when the
    /// text is in the canonical form, `Json::parse` + `from_json` for
    /// everything else (legacy 4-element samples, 4 summaries, reordered
    /// keys, whitespace, escapes).
    ///
    /// # Errors
    ///
    /// The tree codec's [`JsonError`], when neither reads the text.
    pub fn decode_text(text: &str) -> Result<CellReport, JsonError> {
        match CellReport::from_text(text) {
            Some(cell) => Ok(cell),
            None => CellReport::from_json(&Json::parse(text)?),
        }
    }
}

/// Appends `v` in decimal.
fn push_u64(out: &mut String, v: u64) {
    let mut digits = Ascii::new();
    digits.uint(v);
    out.push_str(digits.as_str());
}

/// `"00"`, `"01"`, …, `"99"`: the decimal writer emits two digits a step.
const DIGIT_PAIRS: [u8; 200] = {
    let mut pairs = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        pairs[2 * i] = b'0' + (i / 10) as u8;
        pairs[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    pairs
};

/// A stack buffer of ASCII that one sample row is formatted into before
/// it is appended to the output with one `push_str`. The longest row,
/// `,[` + five 20-digit counts with their commas + `false]`, is 113
/// bytes.
struct Ascii {
    bytes: [u8; 128],
    len: usize,
}

impl Ascii {
    fn new() -> Ascii {
        Ascii {
            bytes: [0; 128],
            len: 0,
        }
    }

    fn clear(&mut self) {
        self.len = 0;
    }

    fn put(&mut self, ascii: &[u8]) {
        self.bytes[self.len..self.len + ascii.len()].copy_from_slice(ascii);
        self.len += ascii.len();
    }

    /// Appends `v` in decimal, written from its last digit back.
    fn uint(&mut self, mut v: u64) {
        let end = self.len + v.checked_ilog10().map_or(1, |log| log as usize + 1);
        let mut at = end;
        while v >= 100 {
            let pair = (v % 100) as usize * 2;
            v /= 100;
            at -= 2;
            self.bytes[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
        }
        if v >= 10 {
            let pair = v as usize * 2;
            self.bytes[at - 2..at].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
        } else {
            self.bytes[at - 1] = b'0' + v as u8;
        }
        self.len = end;
    }

    fn as_str(&self) -> &str {
        std::str::from_utf8(&self.bytes[..self.len]).expect("the buffer holds ASCII only")
    }
}

/// The value of `digits` if it is an integer as the wire writers print
/// one — decimal digits only, no sign, no leading zero, within `u64` —
/// and `None` otherwise.
pub fn canonical_u64(digits: &str) -> Option<u64> {
    let mut scan = Scanner {
        text: digits,
        at: 0,
    };
    let value = scan.uint()?;
    (scan.at == digits.len()).then_some(value)
}

/// Cursor of [`CellReport::from_text`]: every method consumes one token
/// in its canonical spelling or declines.
struct Scanner<'a> {
    text: &'a str,
    at: usize,
}

impl<'a> Scanner<'a> {
    fn lit(&mut self, expected: &str) -> Option<()> {
        let matches = self.text.as_bytes()[self.at..].starts_with(expected.as_bytes());
        matches.then(|| self.at += expected.len())
    }

    fn byte(&mut self, expected: u8) -> Option<()> {
        self.eat(expected).then_some(())
    }

    fn eat(&mut self, byte: u8) -> bool {
        let matches = self.text.as_bytes().get(self.at) == Some(&byte);
        if matches {
            self.at += 1;
        }
        matches
    }

    /// The maximal run of ASCII digits at the cursor, possibly empty.
    fn digit_run(&mut self) -> &'a str {
        let start = self.at;
        let bytes = self.text.as_bytes();
        while bytes.get(self.at).is_some_and(u8::is_ascii_digit) {
            self.at += 1;
        }
        &self.text[start..self.at]
    }

    /// A digit run spelled as an integer: not empty, no leading zero.
    fn whole(&mut self) -> Option<&'a str> {
        let run = self.digit_run();
        (run.len() == 1 || (run.len() > 1 && !run.starts_with('0'))).then_some(run)
    }

    /// An integer in its canonical spelling, read in one pass: the loop
    /// that finds the digit run also accumulates its value. Nineteen
    /// digits cannot overflow a `u64`; only a longer run is read again
    /// with checked arithmetic.
    fn uint(&mut self) -> Option<u64> {
        let digits = &self.text.as_bytes()[self.at..];
        let mut value = 0u64;
        let mut len = 0;
        while let Some(&byte) = digits.get(len) {
            let digit = byte.wrapping_sub(b'0');
            if digit > 9 {
                break;
            }
            value = value.wrapping_mul(10).wrapping_add(u64::from(digit));
            len += 1;
        }
        if len == 0 || (len > 1 && digits[0] == b'0') {
            return None;
        }
        if len > 19 {
            value = digits[..len].iter().try_fold(0u64, |value, &digit| {
                value.checked_mul(10)?.checked_add(u64::from(digit - b'0'))
            })?;
        }
        self.at += len;
        Some(value)
    }

    /// One sample row, `[` through `]`: five integers and a boolean.
    fn row(&mut self) -> Option<Sample> {
        self.byte(b'[')?;
        let mut counts = [0u64; 5];
        for count in &mut counts {
            *count = self.uint()?;
            self.byte(b',')?;
        }
        let [lock_in, discoveries, total_bits, max_local_ops, rounds] = counts;
        let early_stopped = if self.lit("true]").is_some() {
            true
        } else {
            self.lit("false]")?;
            false
        };
        Some(Sample {
            lock_in,
            discoveries,
            total_bits,
            max_local_ops,
            rounds,
            early_stopped,
        })
    }

    /// `digits.digits`, the only shape the float writer prints for a
    /// finite non-negative value; read by the parser the tree codec uses.
    fn float(&mut self) -> Option<f64> {
        let start = self.at;
        self.whole()?;
        self.byte(b'.')?;
        if self.digit_run().is_empty() {
            return None;
        }
        self.text[start..self.at].parse().ok()
    }

    /// A quoted string of printable ASCII with nothing escaped.
    fn name(&mut self) -> Option<&'a str> {
        self.byte(b'"')?;
        let start = self.at;
        let bytes = self.text.as_bytes();
        while let Some(&b) = bytes.get(self.at) {
            match b {
                b'"' => {
                    self.at += 1;
                    return Some(&self.text[start..self.at - 1]);
                }
                b'\\' => return None,
                0x20..=0x7E => self.at += 1,
                _ => return None,
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sg_adversary::{FaultSelection, Move};

    fn plan() -> SweepPlan {
        SweepPlan::new(
            vec![
                SweepConfig::traced(AlgorithmSpec::Hybrid { b: 3 }, 10, 3),
                SweepConfig::traced(AlgorithmSpec::OptimalKing, 7, 2),
            ],
            vec![
                AdversaryFamily::random_liar(FaultSelection::without_source()),
                AdversaryFamily::chain_revealer(FaultSelection::with_source().limit(2), 2, 2),
                AdversaryFamily::no_faults(),
            ],
            3,
        )
        .with_base_seed(u64::MAX - 7)
    }

    #[test]
    fn specs_round_trip() {
        for spec in [
            AlgorithmSpec::PlainExponential,
            AlgorithmSpec::Exponential,
            AlgorithmSpec::ExponentialPrime,
            AlgorithmSpec::AlgorithmA { b: 4 },
            AlgorithmSpec::AlgorithmB { b: 3 },
            AlgorithmSpec::AlgorithmC,
            AlgorithmSpec::Hybrid { b: 5 },
            AlgorithmSpec::PhaseKing,
            AlgorithmSpec::OptimalKing,
            AlgorithmSpec::KingShift { b: 3 },
            AlgorithmSpec::DynamicKing { b: 3 },
            AlgorithmSpec::PhaseQueen,
            AlgorithmSpec::DolevStrong,
        ] {
            let text = spec_to_json(spec).to_string();
            let back = spec_from_json(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(back, spec, "through {text}");
        }
        assert!(spec_from_json(&Json::parse("{\"alg\":\"nope\"}").unwrap()).is_err());
        assert!(spec_from_json(&Json::parse("{\"alg\":\"hybrid\"}").unwrap()).is_err());
    }

    #[test]
    fn plans_round_trip_bit_identically() {
        let original = plan();
        let text = original.to_json().to_string();
        let decoded = SweepPlan::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(decoded.seeds_per_cell, original.seeds_per_cell);
        assert_eq!(decoded.base_seed, original.base_seed);
        assert_eq!(decoded.configs, original.configs);
        // Families compare by behaviour: the decoded plan must produce
        // the exact report of the original.
        assert_eq!(decoded.run_with_jobs(1), original.run_with_jobs(1));
    }

    #[test]
    fn early_stopping_key_is_written_only_when_false() {
        let early = plan();
        assert!(early.early_stopping);
        let text = early.to_json().to_string();
        assert!(!text.contains("early_stopping"), "{text}");
        assert!(
            text.ends_with(",\"base_seed\":18446744073709551608}"),
            "{text}"
        );

        let fixed = plan().fixed_length();
        let text = fixed.to_json().to_string();
        assert!(text.ends_with(",\"early_stopping\":false}"), "{text}");
        let decoded = SweepPlan::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert!(!decoded.early_stopping);
        assert_eq!(decoded.run_with_jobs(1), fixed.run_with_jobs(1));

        let explicit = text.replace("false}", "true}");
        assert!(
            SweepPlan::from_json(&Json::parse(&explicit).unwrap())
                .unwrap()
                .early_stopping
        );
        let wrong = text.replace("false}", "0}");
        assert!(SweepPlan::from_json(&Json::parse(&wrong).unwrap()).is_err());
    }

    #[test]
    fn fault_budget_families_round_trip() {
        // The actual-fault-budget vocabulary: named families carrying a
        // `limit` knob (f_actual <= t), plus the crash-early and
        // go-silent families.
        let plan = SweepPlan::new(
            vec![SweepConfig::traced(AlgorithmSpec::OptimalKing, 7, 2)],
            vec![
                AdversaryFamily::random_liar(FaultSelection::without_source().limit(1)),
                AdversaryFamily::crash(FaultSelection::without_source().limit(1), 2),
                AdversaryFamily::silent(FaultSelection::with_source()),
            ],
            2,
        );
        let text = plan.to_json().to_string();
        let decoded = SweepPlan::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(decoded.run_with_jobs(1), plan.run_with_jobs(1));
    }

    #[test]
    fn widened_fault_vocabulary_round_trips() {
        // The trace-era families: partitions, per-edge omission,
        // equivocation schedules, adaptive corruption, and enumerated
        // tapes all travel the wire and reproduce the batch report.
        let plan = SweepPlan::new(
            vec![SweepConfig::traced(AlgorithmSpec::OptimalKing, 7, 2)],
            vec![
                Family::Partition {
                    selection: FaultSelection::with_source().limit(1),
                    split: 1,
                    from: 2,
                    to: 3,
                }
                .into(),
                Family::Omission {
                    selection: FaultSelection::without_source(),
                    period: 2,
                    phase: 1,
                }
                .into(),
                AdversaryFamily::equivocate(FaultSelection::with_source(), 3, 2),
                Family::Adaptive {
                    selection: FaultSelection::without_source(),
                    schedule: vec![2, 4],
                }
                .into(),
                Family::tape(
                    vec![sg_sim::ProcessId(1)],
                    vec![Move::AllOne, Move::Silent, Move::FlipFirst],
                )
                .map(AdversaryFamily::from)
                .unwrap(),
            ],
            2,
        );
        let text = plan.to_json().to_string();
        let decoded = SweepPlan::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(decoded.run_with_jobs(1), plan.run_with_jobs(1));
    }

    #[test]
    fn recorded_trace_family_round_trips_and_reproduces() {
        // Record one run, wrap the trace as a family, ship it through
        // JSON, and check the replayed grid reproduces the original
        // family's single-seed report bit-exactly.
        let config = SweepConfig::traced(AlgorithmSpec::OptimalKing, 7, 2);
        let family = AdversaryFamily::equivocate(FaultSelection::with_source(), 3, 1);
        let reference = SweepPlan::new(vec![config], vec![family.clone()], 1).run_with_jobs(1);
        // Seed 0 is what the sweep's seeding scheme hands cell (0, 0)'s
        // first run under the default base seed.
        let mut recorder = sg_adversary::RecordingAdversary::new(family.instantiate(0));
        let run_config = sg_sim::RunConfig::new(config.n, config.t)
            .with_source_value(config.source_value)
            .with_trace();
        let _ = sg_core::execute(config.spec, &run_config, &mut recorder).unwrap();
        let trace = recorder.finish().unwrap();
        let replay_family = Family::replay(trace).map(AdversaryFamily::from).unwrap();
        let plan = SweepPlan::new(vec![config], vec![replay_family], 1);
        let text = plan.to_json().to_string();
        let decoded = SweepPlan::from_json(&Json::parse(&text).unwrap()).unwrap();
        let replayed = decoded.run_with_jobs(1);
        assert_eq!(replayed.cells[0].samples, reference.cells[0].samples);
    }

    #[test]
    fn legacy_four_field_samples_and_summaries_decode() {
        // Frames recorded before the early-stopping engine: positional
        // 4-element samples, 4 summaries, no early_stop_rate.
        let legacy = "{\"spec_name\":\"optimal-king\",\"n\":7,\"t\":2,\
                      \"adversary\":\"no-faults\",\"first_seed\":0,\
                      \"samples\":[[1,0,60,30,0,false],[1,0,60,30,0,false]],\
                      \"summaries\":[\
                      {\"samples\":2,\"min\":1,\"max\":1,\"mean\":1.0,\"stddev\":0.0},\
                      {\"samples\":2,\"min\":0,\"max\":0,\"mean\":0.0,\"stddev\":0.0},\
                      {\"samples\":2,\"min\":60,\"max\":60,\"mean\":60.0,\"stddev\":0.0},\
                      {\"samples\":2,\"min\":30,\"max\":30,\"mean\":30.0,\"stddev\":0.0}]}";
        let cell = CellReport::from_json(&Json::parse(legacy).unwrap()).unwrap();
        assert_eq!(cell.summaries[4].max, 0, "rounds synthesized from samples");
        assert!((cell.early_stop_rate - 0.0).abs() < f64::EPSILON);
        let short = Sample::from_json(&Json::parse("[1,2,3,4]").unwrap()).unwrap();
        assert_eq!(short.rounds, 0);
        assert!(!short.early_stopped);
        assert!(Sample::from_json(&Json::parse("[1,2,3,4,5]").unwrap()).is_err());
    }

    #[test]
    fn cell_reports_round_trip() {
        let report = plan().run_with_jobs(2);
        for cell in &report.cells {
            let text = cell.to_json().to_string();
            let back = CellReport::from_json(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(&back, cell, "through {text}");
        }
    }

    /// The tree codec, as text in and text out: the definition the
    /// text codec is held to.
    fn tree_encode(cell: &CellReport) -> String {
        cell.to_json().to_string()
    }

    fn tree_decode(text: &str) -> Result<CellReport, JsonError> {
        CellReport::from_json(&Json::parse(text)?)
    }

    fn text_encode(cell: &CellReport) -> String {
        let mut out = String::from("kept:");
        cell.write_text(&mut out);
        out.split_off("kept:".len())
    }

    /// Real cells from the eleven protocol families of the sweep surface
    /// (composition names carry punctuation: `hybrid(b=3)`), three
    /// adversary families each.
    fn real_cells() -> Vec<CellReport> {
        let sel = FaultSelection::with_source;
        let configs = [
            AlgorithmSpec::PlainExponential,
            AlgorithmSpec::Exponential,
            AlgorithmSpec::AlgorithmA { b: 3 },
            AlgorithmSpec::AlgorithmB { b: 3 },
            AlgorithmSpec::AlgorithmC,
            AlgorithmSpec::Hybrid { b: 3 },
            AlgorithmSpec::PhaseKing,
            AlgorithmSpec::OptimalKing,
            AlgorithmSpec::PhaseQueen,
            AlgorithmSpec::KingShift { b: 3 },
            AlgorithmSpec::DynamicKing { b: 3 },
        ]
        .iter()
        .map(|&spec| {
            let t = if matches!(spec, AlgorithmSpec::Hybrid { .. }) {
                3
            } else {
                2
            };
            SweepConfig::traced(spec, 10, t)
        })
        .collect();
        let families = vec![
            AdversaryFamily::no_faults(),
            AdversaryFamily::random_liar(sel()),
            AdversaryFamily::chain_revealer(sel().limit(1), 2, 2),
        ];
        SweepPlan::new(configs, families, 3)
            .with_base_seed(u64::MAX - 40)
            .run_with_jobs(2)
            .cells
    }

    /// A 64-sample king cell — the shape a journal line and a cell frame
    /// carry by the hundred.
    fn king_cell() -> CellReport {
        SweepPlan::new(
            vec![SweepConfig::traced(AlgorithmSpec::OptimalKing, 16, 5)],
            vec![AdversaryFamily::random_liar(FaultSelection::with_source())],
            64,
        )
        .run_with_jobs(1)
        .cells
        .swap_remove(0)
    }

    /// A `king-expedite` cell: crashes with a correct source, so every
    /// run is the same execution and the 64 rows are one row repeated.
    fn run_heavy_cell() -> CellReport {
        let cell = SweepPlan::new(
            vec![SweepConfig::traced(AlgorithmSpec::OptimalKing, 16, 5)],
            vec![AdversaryFamily::crash(FaultSelection::without_source(), 2)],
            64,
        )
        .run_with_jobs(1)
        .cells
        .swap_remove(0);
        assert!(cell.samples.iter().all(|s| *s == cell.samples[0]));
        cell
    }

    /// Runs of equal rows broken by near repeats: one count's last digit
    /// changed, the flag flipped, and counts that grow a digit so the
    /// row shares the previous one's bytes up to that count.
    fn near_repeat_cell() -> CellReport {
        let base = Sample {
            lock_in: 3,
            discoveries: 0,
            total_bits: 2709,
            max_local_ops: 112,
            rounds: 3,
            early_stopped: true,
        };
        let rows = [
            base,
            base,
            base,
            Sample {
                max_local_ops: 113,
                ..base
            },
            base,
            Sample {
                early_stopped: false,
                ..base
            },
            Sample {
                early_stopped: false,
                ..base
            },
            base,
            Sample { rounds: 30, ..base },
            Sample { rounds: 30, ..base },
            Sample { rounds: 3, ..base },
            Sample {
                total_bits: 27090,
                ..base
            },
            Sample {
                lock_in: 33,
                ..base
            },
            base,
        ];
        let samples: Vec<Sample> = rows.iter().cycle().take(64).copied().collect();
        CellReport {
            spec_name: "optimal-king".to_string(),
            n: 16,
            t: 5,
            adversary: "crash(f=2)".to_string(),
            first_seed: 7,
            early_stop_rate: crate::montecarlo::early_stop_rate(&samples),
            summaries: crate::montecarlo::summarize(&samples),
            samples,
        }
    }

    #[test]
    fn the_text_writer_emits_the_tree_writers_bytes() {
        let mut cells = real_cells();
        assert_eq!(cells.len(), 33);
        cells.extend([king_cell(), run_heavy_cell(), near_repeat_cell()]);
        for cell in &cells {
            let text = text_encode(cell);
            assert_eq!(text, tree_encode(cell));
            assert_eq!(CellReport::from_text(&text).as_ref(), Some(cell));
            assert_eq!(CellReport::decode_text(&text).as_ref(), Ok(cell));
        }

        // What real cells do not reach: no samples, the largest
        // integers, integer-valued and tiny floats, names the writer has
        // to escape, a rate JSON cannot carry.
        let flat = Summary {
            samples: usize::MAX,
            min: u64::MAX,
            max: 0,
            mean: 3.0,
            stddev: 1e-7,
        };
        let odd = CellReport {
            spec_name: "a\"b\\c\n\u{1}é".to_string(),
            n: 0,
            t: usize::MAX,
            adversary: String::new(),
            first_seed: u64::MAX,
            early_stop_rate: 1.0,
            samples: Vec::new(),
            summaries: [flat; 5],
        };
        let text = text_encode(&odd);
        assert_eq!(text, tree_encode(&odd));
        assert!(
            text.contains("\"mean\":3.0,\"stddev\":0.0000001}"),
            "{text}"
        );
        assert_eq!(CellReport::from_text(&text), None, "escaped name");
        assert_eq!(CellReport::decode_text(&text), Ok(odd.clone()));

        let plain = CellReport {
            spec_name: "hybrid(b=3)".to_string(),
            ..odd.clone()
        };
        assert_eq!(CellReport::from_text(&text_encode(&plain)), Some(plain));

        for rate in [f64::NAN, f64::INFINITY] {
            let cell = CellReport {
                early_stop_rate: rate,
                ..king_cell()
            };
            let text = text_encode(&cell);
            assert_eq!(text, tree_encode(&cell));
            assert!(text.contains("\"early_stop_rate\":null,"));
            assert_eq!(CellReport::from_text(&text), None);
            assert!(
                CellReport::decode_text(&text).is_err(),
                "null is not a rate"
            );
        }
    }

    #[test]
    fn a_text_decode_is_the_tree_decode_under_every_byte_flip() {
        // A varied cell, one row repeated 64 times, and runs broken by
        // near repeats: a flip inside a repeated row must be read, not
        // copied from the row before it.
        for cell in [king_cell(), run_heavy_cell(), near_repeat_cell()] {
            let text = tree_encode(&cell);
            let (mut mutants, mut accepted) = (0, 0);
            for at in 0..text.len() {
                for mask in [0x01u8, 0x02, 0x10] {
                    let mut bytes = text.clone().into_bytes();
                    bytes[at] ^= mask;
                    let mutant = String::from_utf8(bytes).expect("ASCII stays ASCII");
                    mutants += 1;
                    if let Some(read) = CellReport::from_text(&mutant) {
                        accepted += 1;
                        assert_eq!(tree_decode(&mutant), Ok(read), "byte {at} ^ {mask:#x}");
                    }
                }
            }
            assert_eq!(mutants, 3 * text.len());
            // Most flipped digits are still digits: the implication above
            // was not vacuous.
            assert!(accepted > mutants / 10, "{accepted} of {mutants}");
        }
    }

    #[test]
    fn the_text_reader_declines_what_only_the_tree_reads() {
        let cell = king_cell();
        let text = tree_encode(&cell);
        let first = cell.samples[0];
        let legacy = format!(
            "[{},{},{},{}]",
            first.lock_in, first.discoveries, first.total_bits, first.max_local_ops
        );
        let sample = first.to_json().to_string();
        let rounds_summary =
            text[text.rfind(",{\"samples\":").unwrap()..text.len() - 2].to_string();
        let declined: Vec<(&str, String)> = vec![
            (
                "legacy 4-element sample",
                text.replacen(&sample, &legacy, 1),
            ),
            (
                "legacy 4 summaries, no rate",
                text.replacen(&rounds_summary, "", 1)
                    .replacen("\"early_stop_rate\":1.0,", "", 1),
            ),
            (
                "reordered keys",
                text.replacen("\"n\":16,\"t\":5,", "\"t\":5,\"n\":16,", 1),
            ),
            (
                "escaped name",
                text.replacen("random-liar", "random\\u002dliar", 1),
            ),
            ("exponent float", text.replacen(":1.0,", ":1e0,", 1)),
            ("leading zero", text.replacen("\"n\":16,", "\"n\":016,", 1)),
            ("integer for a float", text.replacen(":1.0,", ":1,", 1)),
            ("bare fraction", text.replacen(":1.0,", ":1.,", 1)),
            ("whitespace inside", text.replacen(",\"t\"", ", \"t\"", 1)),
            ("trailing byte", format!("{text} ")),
            ("leading byte", format!(" {text}")),
        ];
        for (what, variant) in &declined {
            assert_ne!(variant, &text, "{what}: the edit did not apply");
            assert_eq!(CellReport::from_text(variant), None, "{what}");
            assert!(
                CellReport::decode_text(variant).is_ok(),
                "{what}: {variant}"
            );
        }
        // All but the two legacy forms decode to the very same cell.
        for (what, variant) in &declined[2..] {
            assert_eq!(
                CellReport::decode_text(variant).as_ref(),
                Ok(&cell),
                "{what}"
            );
        }
        // Neither codec reads these.
        for broken in [
            text.replacen("\"n\":16,", "\"n\":-16,", 1),
            text.replacen(
                "\"first_seed\":0,",
                "\"first_seed\":18446744073709551616,",
                1,
            ),
            text[..text.len() - 1].to_string(),
            format!("{text}}}"),
        ] {
            assert_ne!(broken, text);
            assert_eq!(CellReport::from_text(&broken), None);
            assert!(CellReport::decode_text(&broken).is_err(), "{broken}");
        }
        assert_eq!(canonical_u64("18446744073709551615"), Some(u64::MAX));
        for not_canonical in ["", "00", "+1", "-1", "1 ", "1.0", "18446744073709551616"] {
            assert_eq!(canonical_u64(not_canonical), None, "{not_canonical:?}");
        }
    }

    #[test]
    fn integers_at_every_digit_count_boundary_match_the_tree_codec() {
        // 0, 9, 10, 99, 100, …, 10^19 - 1, 10^19, u64::MAX: every digit
        // count the writer sizes, and both sides of the reader's 19-digit
        // overflow shortcut.
        let mut values = vec![0u64];
        for power in 1..=19 {
            values.extend([10u64.pow(power) - 1, 10u64.pow(power)]);
        }
        values.push(u64::MAX);
        let at = |i: usize| values[i % values.len()];
        let template = king_cell();
        for shift in 0..values.len() {
            let mut cell = template.clone();
            cell.first_seed = at(shift);
            for (i, sample) in cell.samples.iter_mut().take(values.len()).enumerate() {
                sample.lock_in = at(shift + i);
                sample.discoveries = at(shift + i + 1);
                sample.total_bits = at(shift + i + 2);
                sample.max_local_ops = at(shift + i + 3);
                sample.rounds = at(shift + i + 4);
            }
            for (j, summary) in cell.summaries.iter_mut().enumerate() {
                summary.min = at(shift + 2 * j);
                summary.max = at(shift + 2 * j + 1);
            }
            let text = text_encode(&cell);
            assert_eq!(text, tree_encode(&cell), "shift {shift}");
            assert_eq!(CellReport::from_text(&text).as_ref(), Some(&cell));
            assert_eq!(tree_decode(&text).as_ref(), Ok(&cell));
        }
        assert_eq!(
            canonical_u64("10000000000000000000"),
            Some(10_000_000_000_000_000_000)
        );
        for not_canonical in ["18446744073709551616", "01", "99999999999999999999"] {
            assert_eq!(canonical_u64(not_canonical), None, "{not_canonical:?}");
        }
        for &value in &values {
            assert_eq!(canonical_u64(&value.to_string()), Some(value));
        }
    }

    #[test]
    fn summaries_survive_float_round_trip() {
        let summary = Summary::of([3, 1, 4, 1, 5, 9, 2, 6]);
        let text = summary.to_json().to_string();
        let back = Summary::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, summary);
    }

    #[test]
    fn malformed_documents_are_rejected() {
        for bad in [
            "{}",
            "{\"configs\":[],\"adversaries\":3,\"seeds_per_cell\":1,\"base_seed\":0}",
            "{\"configs\":[{\"spec\":{\"alg\":\"hybrid\",\"b\":3},\"n\":10,\"t\":3,\
             \"source_value\":99999,\"trace\":true}],\"adversaries\":[],\
             \"seeds_per_cell\":1,\"base_seed\":0}",
        ] {
            assert!(
                SweepPlan::from_json(&Json::parse(bad).unwrap()).is_err(),
                "accepted {bad}"
            );
        }
        // No family encodes as `null`, and outside input that says
        // `null` names none.
        assert!(AdversaryFamily::from_json(&Json::Null).is_err());
    }
}
