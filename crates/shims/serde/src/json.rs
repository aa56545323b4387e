//! Minimal JSON document model, parser, and writer.
//!
//! The `sg-serve` wire protocol (see `crates/serve`) speaks
//! newline-delimited JSON; this module is the offline stand-in for the
//! `serde_json` layer a crates.io build would use. It deliberately keeps
//! the `serde_json::Value`-style document model rather than the full
//! `Serializer`/`Deserializer` machinery: the workspace's types implement
//! [`crate::ToJson`]/[`crate::FromJson`] against [`Value`] directly,
//! which is the entire API surface this repository consumes.
//!
//! Integers and floats are kept distinct ([`Value::Int`] holds an `i128`,
//! wide enough for any `u64` seed or fingerprint) so 64-bit quantities
//! round-trip exactly instead of being squeezed through an `f64`. Floats
//! are written with Rust's shortest-round-trip `Display`, so
//! `f64 → text → f64` is also exact.

use std::fmt;

/// A parsed JSON document.
#[derive(Clone, PartialEq, Debug)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer literal (no fraction or exponent). `i128` covers the
    /// full `u64` and `i64` ranges exactly.
    Int(i128),
    /// A floating-point literal.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; insertion order is preserved (duplicate keys keep the
    /// last occurrence on lookup, matching common JSON parsers).
    Obj(Vec<(String, Value)>),
}

/// A parse or decode failure, with a byte offset for parse errors.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct JsonError {
    /// Human-readable description of what went wrong.
    pub detail: String,
    /// Byte offset in the input where the parser gave up (0 for
    /// decode-stage errors raised on an already-parsed document).
    pub at: usize,
}

impl JsonError {
    /// A decode-stage error (no meaningful input offset).
    pub fn msg(detail: impl Into<String>) -> Self {
        JsonError {
            detail: detail.into(),
            at: 0,
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.at > 0 {
            write!(f, "{} (at byte {})", self.detail, self.at)
        } else {
            write!(f, "{}", self.detail)
        }
    }
}

impl std::error::Error for JsonError {}

/// Nesting depth beyond which the parser refuses input. The wire
/// protocol's documents are a few levels deep; the limit keeps a
/// maliciously nested frame from overflowing the daemon's stack.
const MAX_DEPTH: usize = 128;

impl Value {
    /// Parses one JSON document, requiring it to span the whole input
    /// (trailing whitespace allowed).
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] locating the first malformed byte; inputs
    /// nested deeper than an internal safety limit are rejected rather
    /// than risking stack exhaustion.
    pub fn parse(input: &str) -> Result<Value, JsonError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(v)
    }

    /// Object field lookup (last occurrence wins); `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The integer payload as `u64`, if this is a non-negative integer
    /// in range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// The integer payload as `usize`, if this is a non-negative integer
    /// in range.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|v| usize::try_from(v).ok())
    }

    /// The numeric payload as `f64` (integers convert).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(x) => Some(*x),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Required-field lookup with a decode error naming the field.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] if `self` is not an object or lacks `key`.
    pub fn need(&self, key: &str) -> Result<&Value, JsonError> {
        self.get(key)
            .ok_or_else(|| JsonError::msg(format!("missing field '{key}'")))
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value::Int(v as i128)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Value {
        Value::Int(v as i128)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::Num(v)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::Str(s)
    }
}

impl fmt::Display for Value {
    /// Writes compact (single-line) JSON — one frame per line is exactly
    /// what the NDJSON wire format needs.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Num(x) => write_f64(f, *x),
            Value::Str(s) => write_str(f, s),
            Value::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Value::Obj(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_str(f, k)?;
                    write!(f, ":{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Writes `x` as [`Value::Num`] prints it — the one float writer, shared
/// with codecs that emit JSON text without building a tree. Finite
/// values are Rust's shortest-round-trip `Display` (which never uses an
/// exponent) with `.0` appended to integer-valued ones, so the literal
/// parses back as `Num`, not `Int`; JSON has no NaN/Inf, so those spill
/// to `null`.
///
/// # Errors
///
/// Propagates the sink's error.
pub fn write_f64<W: fmt::Write>(out: &mut W, x: f64) -> fmt::Result {
    if !x.is_finite() {
        return out.write_str("null");
    }
    write!(out, "{x}")?;
    if x.fract() == 0.0 {
        out.write_str(".0")?;
    }
    Ok(())
}

/// Writes `s` as [`Value::Str`] prints it: quoted, with `"`, `\\` and
/// control characters escaped.
///
/// # Errors
///
/// Propagates the sink's error.
pub fn write_str<W: fmt::Write>(out: &mut W, s: &str) -> fmt::Result {
    out.write_str("\"")?;
    if s.bytes().any(|b| b == b'"' || b == b'\\' || b < 0x20) {
        for c in s.chars() {
            match c {
                '"' => out.write_str("\\\"")?,
                '\\' => out.write_str("\\\\")?,
                '\n' => out.write_str("\\n")?,
                '\r' => out.write_str("\\r")?,
                '\t' => out.write_str("\\t")?,
                c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
                c => out.write_char(c)?,
            }
        }
    } else {
        out.write_str(s)?;
    }
    out.write_str("\"")
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, detail: impl Into<String>) -> JsonError {
        JsonError {
            detail: detail.into(),
            at: self.pos.max(1),
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.peek() == Some(b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_literal(&mut self, lit: &str, v: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected '{lit}'")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.expect_literal("null", Value::Null),
            Some(b't') => self.expect_literal("true", Value::Bool(true)),
            Some(b'f') => self.expect_literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => Err(self.err(format!("unexpected byte 0x{b:02x}"))),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.pos += 1; // '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            if self.eat(b']') {
                return Ok(Value::Arr(items));
            }
            if !self.eat(b',') {
                return Err(self.err("expected ',' or ']' in array"));
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.pos += 1; // '{'
        let mut fields = Vec::new();
        self.skip_ws();
        if self.eat(b'}') {
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.err("expected string key in object"));
            }
            let key = self.string()?;
            self.skip_ws();
            if !self.eat(b':') {
                return Err(self.err("expected ':' after object key"));
            }
            self.skip_ws();
            let val = self.value(depth + 1)?;
            fields.push((key, val));
            self.skip_ws();
            if self.eat(b'}') {
                return Ok(Value::Obj(fields));
            }
            if !self.eat(b',') {
                return Err(self.err("expected ',' or '}' in object"));
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.pos += 1; // opening quote
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require the low half.
                                if !(self.eat(b'\\') && self.eat(b'u')) {
                                    return Err(self.err("lone high surrogate"));
                                }
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(cp)
                            } else {
                                char::from_u32(hi)
                            };
                            match c {
                                Some(c) => out.push(c),
                                None => return Err(self.err("invalid unicode escape")),
                            }
                        }
                        other => {
                            return Err(self.err(format!("unknown escape '\\{}'", other as char)))
                        }
                    }
                }
                _ => {
                    // Re-decode the UTF-8 sequence starting at b. The
                    // input is a &str, so the sequence is valid.
                    let start = self.pos - 1;
                    let mut end = self.pos;
                    while end < self.bytes.len() && (self.bytes[end] & 0xC0) == 0x80 {
                        end += 1;
                    }
                    let s = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| self.err("invalid utf-8"))?;
                    let c = s.chars().next().ok_or_else(|| self.err("empty char"))?;
                    if (c as u32) < 0x20 {
                        return Err(self.err("unescaped control character in string"));
                    }
                    out.push(c);
                    self.pos = start + c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated unicode escape"));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("invalid unicode escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("invalid unicode escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        self.eat(b'-');
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut float = false;
        if self.eat(b'.') {
            float = true;
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if self.peek() == Some(b'e') || self.peek() == Some(b'E') {
            float = true;
            self.pos += 1;
            if self.peek() == Some(b'+') || self.peek() == Some(b'-') {
                self.pos += 1;
            }
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if float {
            text.parse::<f64>()
                .map(Value::Num)
                .map_err(|_| self.err(format!("invalid number '{text}'")))
        } else {
            text.parse::<i128>()
                .map(Value::Int)
                .map_err(|_| self.err(format!("invalid number '{text}'")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_documents() {
        let doc = Value::Obj(vec![
            ("name".into(), Value::from("optimal-king")),
            ("n".into(), Value::from(16u64)),
            ("seed".into(), Value::Int(u64::MAX as i128)),
            ("mean".into(), Value::Num(1.25)),
            ("whole".into(), Value::Num(2.0)),
            (
                "flags".into(),
                Value::Arr(vec![Value::Bool(true), Value::Null]),
            ),
            ("text".into(), Value::from("a\"b\\c\nd\u{1F600}")),
        ]);
        let text = doc.to_string();
        assert_eq!(Value::parse(&text).unwrap(), doc);
    }

    #[test]
    fn integers_and_floats_stay_distinct() {
        assert_eq!(Value::parse("42").unwrap(), Value::Int(42));
        assert_eq!(Value::parse("42.0").unwrap(), Value::Num(42.0));
        assert_eq!(Value::parse("1e3").unwrap(), Value::Num(1000.0));
        assert_eq!(Value::Num(3.0).to_string(), "3.0");
        let big = u64::MAX;
        assert_eq!(Value::from(big).to_string(), big.to_string());
    }

    #[test]
    fn float_writer_matches_the_textual_rule() {
        // The rule `write_f64` replaced: print, then append ".0" unless
        // the text already looks like a float.
        let textual = |x: f64| {
            let s = format!("{x}");
            if s.contains(['.', 'e', 'E']) {
                s
            } else {
                format!("{s}.0")
            }
        };
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut cases = vec![
            0.0,
            -0.0,
            1.0,
            3.0,
            0.1,
            1e21,
            1e-7,
            1e300,
            5e-324,
            f64::MAX,
            f64::MIN_POSITIVE,
            9007199254740993.0,
            0.30000000000000004,
        ];
        for _ in 0..20_000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            cases.push(f64::from_bits(state));
            cases.push((state >> 40) as f64 / 64.0);
        }
        for x in cases {
            let mut out = String::new();
            write_f64(&mut out, x).unwrap();
            if x.is_finite() {
                assert_eq!(out, textual(x), "{x:?}");
                assert_eq!(Value::parse(&out).unwrap(), Value::Num(x));
            } else {
                assert_eq!(out, "null");
            }
        }
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "\"unterminated",
            "nul",
            "01x",
            "{\"a\":1} trailing",
            "\"bad \\q escape\"",
            "\"lone \\ud800 surrogate\"",
        ] {
            assert!(Value::parse(bad).is_err(), "accepted {bad:?}");
        }
        let deep = "[".repeat(500) + &"]".repeat(500);
        assert!(Value::parse(&deep).is_err(), "accepted 500-deep nesting");
    }

    #[test]
    fn string_escapes_decode() {
        let v = Value::parse("\"\\u0041\\n\\t\\\\ \\ud83d\\ude00\"").unwrap();
        assert_eq!(v.as_str(), Some("A\n\t\\ \u{1F600}"));
    }

    #[test]
    fn accessors_and_need() {
        let v = Value::parse("{\"a\":1,\"b\":[2],\"c\":\"x\",\"d\":true}").unwrap();
        assert_eq!(v.need("a").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("b").unwrap().as_arr().unwrap().len(), 1);
        assert_eq!(v.get("c").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("d").unwrap().as_bool(), Some(true));
        assert!(v.need("missing").is_err());
        assert_eq!(v.get("a").unwrap().as_f64(), Some(1.0));
    }
}
