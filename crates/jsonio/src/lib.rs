//! Minimal JSON value model, parser and writer.
//!
//! The workspace's report/export layer needs JSON round-trips but the
//! build environment cannot fetch `serde`/`serde_json`, so this crate
//! provides a small hand-rolled replacement: a [`Value`] tree, a
//! recursive-descent [`Value::parse`] (nesting bounded by [`MAX_DEPTH`],
//! so hostile input cannot exhaust the stack; size bounded by
//! [`MAX_BYTES`], so it cannot exhaust memory either), a bounded file
//! reader ([`read_document`]) and compact/pretty writers.
//!
//! Numbers are stored as `f64` and written with Rust's shortest
//! round-trip float formatting, so `f64 -> JSON -> f64` is exact.
//!
//! # Examples
//!
//! ```
//! use bright_jsonio::Value;
//!
//! let v = Value::parse(r#"{"name":"cell","points":[1.0,2.5]}"#)?;
//! assert_eq!(v.get("name").and_then(Value::as_str), Some("cell"));
//! let back = v.to_json_string();
//! assert_eq!(Value::parse(&back)?, v);
//! # Ok::<(), bright_jsonio::JsonError>(())
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]

use std::collections::BTreeMap;
use std::fmt;

/// A JSON document node.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (stored as `f64`).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; keys are sorted (BTreeMap) so output is deterministic.
    Object(BTreeMap<String, Value>),
}

/// Deepest nesting of arrays and objects [`Value::parse`] accepts. The
/// parser recurses once per level, so the bound keeps a document of
/// nested brackets from overflowing the stack; the workspace's reports
/// nest a handful of levels.
pub const MAX_DEPTH: usize = 128;

/// Largest document, in bytes, [`Value::parse`] and [`read_document`]
/// accept: 64 MiB. The largest document the scenario service writes is
/// a steady `power7_nominal` report of about 315 KB, so the bound
/// leaves 200x headroom, enough for the checkpoint of a thermal grid of
/// a million cells (about 47 MB), while a hostile or runaway file is
/// refused before it is read into memory.
pub const MAX_BYTES: usize = 64 << 20;

/// What kind of failure a [`JsonError`] reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JsonErrorKind {
    /// The text is not well-formed JSON.
    Syntax,
    /// Arrays/objects nest deeper than [`MAX_DEPTH`]; the offset is the
    /// bracket that crossed the limit.
    TooDeep,
    /// The document is longer than [`MAX_BYTES`]; the offset is
    /// `MAX_BYTES`, the first byte beyond the limit.
    TooLarge,
    /// Well-formed JSON that is not a valid checksummed envelope:
    /// missing or mistyped fields, or a digest mismatch.
    Envelope,
    /// The document could not be read.
    Io,
}

/// Errors produced while parsing JSON text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong, as a type.
    pub kind: JsonErrorKind,
    /// Byte offset of the error.
    pub offset: usize,
    /// Description of what went wrong.
    pub message: String,
}

impl JsonError {
    fn new(kind: JsonErrorKind, offset: usize, message: impl Into<String>) -> Self {
        Self {
            kind,
            offset,
            message: message.into(),
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl Value {
    /// Builds an object from `(key, value)` pairs.
    pub fn object<I: IntoIterator<Item = (String, Value)>>(pairs: I) -> Value {
        Value::Object(pairs.into_iter().collect())
    }

    /// Wraps a slice of `f64` as a JSON array.
    pub fn from_f64_slice(data: &[f64]) -> Value {
        Value::Array(data.iter().map(|&x| Value::Number(x)).collect())
    }

    /// The value as `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as `usize`, if it is a non-negative integral number.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Value::Number(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= u64::MAX as f64 => {
                Some(*x as usize)
            }
            _ => None,
        }
    }

    /// The value as `bool`, if it is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as `&str`, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Looks up a key, if the value is an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// `true` for `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Array of numbers as a `Vec<f64>`, if every element is a number.
    pub fn as_f64_vec(&self) -> Option<Vec<f64>> {
        self.as_array()?.iter().map(Value::as_f64).collect()
    }

    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] with a byte offset on malformed input
    /// ([`JsonErrorKind::Syntax`]), on nesting deeper than
    /// [`MAX_DEPTH`] ([`JsonErrorKind::TooDeep`]) or, before any
    /// parsing, on text longer than [`MAX_BYTES`]
    /// ([`JsonErrorKind::TooLarge`]).
    pub fn parse(text: &str) -> Result<Value, JsonError> {
        let bytes = text.as_bytes();
        if bytes.len() > MAX_BYTES {
            return Err(too_large());
        }
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(err(pos, "trailing characters after document"));
        }
        Ok(value)
    }

    /// Writes the value as compact JSON.
    #[must_use]
    pub fn to_json_string(&self) -> String {
        let mut out = String::new();
        write_value(self, &mut out, None, 0);
        out
    }

    /// Writes the value as pretty-printed JSON (2-space indent).
    #[must_use]
    pub fn to_json_string_pretty(&self) -> String {
        let mut out = String::new();
        write_value(self, &mut out, Some(2), 0);
        out
    }
}

fn too_large() -> JsonError {
    JsonError::new(
        JsonErrorKind::TooLarge,
        MAX_BYTES,
        format!("document longer than {MAX_BYTES} bytes"),
    )
}

/// Reads a UTF-8 document from `path`, reading at most
/// [`MAX_BYTES`]` + 1` bytes however large the file is.
///
/// # Errors
///
/// [`JsonErrorKind::TooLarge`] for a file longer than [`MAX_BYTES`];
/// [`JsonErrorKind::Io`] when the file cannot be read or is not UTF-8.
pub fn read_document(path: &std::path::Path) -> Result<String, JsonError> {
    use std::io::Read;
    let io = |e: std::io::Error| {
        JsonError::new(
            JsonErrorKind::Io,
            0,
            format!("read {}: {e}", path.display()),
        )
    };
    let mut text = String::new();
    std::fs::File::open(path)
        .map_err(io)?
        .take(MAX_BYTES as u64 + 1)
        .read_to_string(&mut text)
        .map_err(io)?;
    if text.len() > MAX_BYTES {
        return Err(too_large());
    }
    Ok(text)
}

fn err(offset: usize, message: &str) -> JsonError {
    JsonError::new(JsonErrorKind::Syntax, offset, message)
}

/// Enters one more level of nesting at the bracket at `offset`.
fn nest(depth: usize, offset: usize) -> Result<usize, JsonError> {
    if depth >= MAX_DEPTH {
        return Err(JsonError::new(
            JsonErrorKind::TooDeep,
            offset,
            format!("nesting deeper than {MAX_DEPTH} levels"),
        ));
    }
    Ok(depth + 1)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, ch: u8) -> Result<(), JsonError> {
    if *pos < b.len() && b[*pos] == ch {
        *pos += 1;
        Ok(())
    } else {
        Err(err(*pos, &format!("expected '{}'", ch as char)))
    }
}

/// Parses one value; `depth` is the number of enclosing arrays/objects.
fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Value, JsonError> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err(err(*pos, "unexpected end of input")),
        Some(b'{') => parse_object(b, pos, nest(depth, *pos)?),
        Some(b'[') => parse_array(b, pos, nest(depth, *pos)?),
        Some(b'"') => Ok(Value::String(parse_string(b, pos)?)),
        Some(b't') => parse_keyword(b, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_keyword(b, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_keyword(b, pos, "null", Value::Null),
        Some(_) => parse_number(b, pos),
    }
}

fn parse_keyword(b: &[u8], pos: &mut usize, kw: &str, value: Value) -> Result<Value, JsonError> {
    if b[*pos..].starts_with(kw.as_bytes()) {
        *pos += kw.len();
        Ok(value)
    } else {
        Err(err(*pos, &format!("expected '{kw}'")))
    }
}

fn parse_object(b: &[u8], pos: &mut usize, depth: usize) -> Result<Value, JsonError> {
    expect(b, pos, b'{')?;
    let mut map = BTreeMap::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Object(map));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        let value = parse_value(b, pos, depth)?;
        map.insert(key, value);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Object(map));
            }
            _ => return Err(err(*pos, "expected ',' or '}' in object")),
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize, depth: usize) -> Result<Value, JsonError> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Array(items));
    }
    loop {
        items.push(parse_value(b, pos, depth)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Array(items));
            }
            _ => return Err(err(*pos, "expected ',' or ']' in array")),
        }
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err(err(*pos, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000C}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let code = parse_hex4(b, *pos + 1)?;
                        let ch = if (0xD800..0xDC00).contains(&code) {
                            // High surrogate: the spec encodes non-BMP
                            // characters as a \uXXXX\uXXXX pair.
                            if b.get(*pos + 5..*pos + 7) != Some(br"\u") {
                                return Err(err(*pos, "unpaired high surrogate"));
                            }
                            let low = parse_hex4(b, *pos + 7)?;
                            if !(0xDC00..0xE000).contains(&low) {
                                return Err(err(*pos, "invalid low surrogate"));
                            }
                            let combined =
                                0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                            *pos += 6;
                            char::from_u32(combined)
                                .ok_or_else(|| err(*pos, "invalid surrogate pair"))?
                        } else {
                            char::from_u32(code)
                                .ok_or_else(|| err(*pos, "invalid \\u code point"))?
                        };
                        out.push(ch);
                        *pos += 4;
                    }
                    _ => return Err(err(*pos, "bad escape")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar from the source text.
                let rest = std::str::from_utf8(&b[*pos..])
                    .map_err(|_| err(*pos, "invalid UTF-8 in string"))?;
                let ch = rest.chars().next().expect("non-empty by guard");
                out.push(ch);
                *pos += ch.len_utf8();
            }
        }
    }
}

fn parse_hex4(b: &[u8], at: usize) -> Result<u32, JsonError> {
    let hex = b
        .get(at..at + 4)
        .ok_or_else(|| err(at, "truncated \\u escape"))?;
    u32::from_str_radix(
        std::str::from_utf8(hex).map_err(|_| err(at, "non-ASCII \\u escape"))?,
        16,
    )
    .map_err(|_| err(at, "bad \\u escape"))
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Value, JsonError> {
    let start = *pos;
    while *pos < b.len()
        && matches!(b[*pos], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|_| err(start, "bad number"))?;
    let parsed: f64 = text
        .parse()
        .map_err(|_| err(start, &format!("bad number '{text}'")))?;
    Ok(Value::Number(parsed))
}

fn write_value(v: &Value, out: &mut String, indent: Option<usize>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Number(x) => write_number(*x, out),
        Value::String(s) => write_string(s, out),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_value(item, out, indent, depth + 1);
            }
            if !items.is_empty() {
                newline_indent(out, indent, depth);
            }
            out.push(']');
        }
        Value::Object(map) => {
            out.push('{');
            for (i, (k, item)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_string(k, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(item, out, indent, depth + 1);
            }
            if !map.is_empty() {
                newline_indent(out, indent, depth);
            }
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * depth {
            out.push(' ');
        }
    }
}

fn write_number(x: f64, out: &mut String) {
    if x.is_finite() {
        // Rust's float Display is the shortest representation that parses
        // back exactly, which is what a round-trip needs.
        if x == x.trunc() && x.abs() < 1e15 {
            out.push_str(&format!("{x:.1}"));
        } else {
            out.push_str(&x.to_string());
        }
    } else {
        // JSON has no Inf/NaN; encode as null like serde_json's default.
        out.push_str("null");
    }
}

/// Durable-document helpers: checksummed JSON envelopes and atomic
/// file replacement.
///
/// The scenario service persists job specs, reports, checkpoints and
/// journal records as JSON documents that must survive a process kill at
/// any instant. Two mechanisms compose to make that true:
///
/// * **Checksummed envelopes** ([`checksummed::to_string`] /
///   [`checksummed::parse`]): the payload's compact JSON text is tagged
///   with its FNV-1a 64 digest, so a torn or bit-rotted record is
///   *detected* on read instead of silently mis-parsed.
/// * **Atomic replacement** ([`checksummed::write_atomic`]): content is
///   written to a sibling temp file, flushed, and renamed over the
///   target, so readers only ever observe the old document or the new
///   one — never a prefix.
pub mod checksummed {
    use super::{JsonError, JsonErrorKind, Value};
    use std::fs;
    use std::io::Write;
    use std::path::Path;

    /// FNV-1a 64-bit digest of `bytes` — small, dependency-free, and
    /// plenty for torn-write *detection* (the threat model is power
    /// loss, not an adversary).
    #[must_use]
    pub fn fnv1a64(bytes: &[u8]) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        hash
    }

    /// Wraps `payload` in a checksummed envelope:
    /// `{"crc":"<16 hex>","payload":<compact payload JSON>}`.
    #[must_use]
    pub fn to_string(payload: &Value) -> String {
        let body = payload.to_json_string();
        let crc = fnv1a64(body.as_bytes());
        format!("{{\"crc\":\"{crc:016x}\",\"payload\":{body}}}")
    }

    /// Parses a checksummed envelope and returns the verified payload.
    ///
    /// # Errors
    ///
    /// [`JsonError`] on malformed JSON, a missing/mistyped `crc` or
    /// `payload` field, or a digest mismatch (a torn or corrupted
    /// record).
    pub fn parse(text: &str) -> Result<Value, JsonError> {
        let envelope = Value::parse(text)?;
        let crc_text = envelope
            .get("crc")
            .and_then(Value::as_str)
            .ok_or_else(|| envelope_error("missing 'crc' field"))?;
        let expected = u64::from_str_radix(crc_text, 16)
            .map_err(|_| envelope_error("malformed 'crc' field"))?;
        let payload = envelope
            .get("payload")
            .ok_or_else(|| envelope_error("missing 'payload' field"))?;
        let actual = fnv1a64(payload.to_json_string().as_bytes());
        if actual != expected {
            return Err(envelope_error(format!(
                "checksum mismatch: stored {expected:016x}, computed {actual:016x}"
            )));
        }
        Ok(payload.clone())
    }

    /// Writes `text` to `path` atomically: a sibling `.tmp` file is
    /// written, flushed to disk, and renamed over the target. A kill at
    /// any point leaves either the previous document or the new one.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn write_atomic(path: &Path, text: &str) -> std::io::Result<()> {
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp);
        {
            let mut file = fs::File::create(&tmp)?;
            file.write_all(text.as_bytes())?;
            file.sync_all()?;
        }
        fs::rename(&tmp, path)
    }

    /// Reads a checksummed document written by [`to_string`] +
    /// [`write_atomic`] and returns the verified payload.
    ///
    /// # Errors
    ///
    /// [`JsonError`] when the file is unreadable, longer than
    /// [`crate::MAX_BYTES`] (read no further than one byte past the
    /// limit), torn or corrupted — callers treat every failure mode as
    /// "document not trustworthy".
    pub fn read_verified(path: &Path) -> Result<Value, JsonError> {
        parse(&crate::read_document(path)?)
    }

    fn envelope_error(message: impl Into<String>) -> JsonError {
        JsonError::new(JsonErrorKind::Envelope, 0, message)
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Value::parse("null").unwrap(), Value::Null);
        assert_eq!(Value::parse("true").unwrap(), Value::Bool(true));
        assert_eq!(Value::parse(" -1.5e3 ").unwrap(), Value::Number(-1500.0));
        assert_eq!(
            Value::parse(r#""a\nbA""#).unwrap(),
            Value::String("a\nbA".into())
        );
    }

    #[test]
    fn roundtrips_nested_structures() {
        let text = r#"{"a":[1.0,2.0,{"b":null,"c":false}],"d":"x y"}"#;
        let v = Value::parse(text).unwrap();
        let emitted = v.to_json_string();
        assert_eq!(Value::parse(&emitted).unwrap(), v);
        let pretty = v.to_json_string_pretty();
        assert_eq!(Value::parse(&pretty).unwrap(), v);
    }

    #[test]
    fn float_roundtrip_is_exact() {
        for x in [0.1, 1.0 / 3.0, 6.02214076e23, -2.5e-300, 41.0] {
            let v = Value::Number(x);
            let back = Value::parse(&v.to_json_string()).unwrap();
            assert_eq!(back.as_f64().unwrap(), x);
        }
    }

    #[test]
    fn accessors() {
        let v = Value::parse(r#"{"n":3.0,"s":"hi","a":[1.0],"b":true}"#).unwrap();
        assert_eq!(v.get("n").unwrap().as_usize(), Some(3));
        assert_eq!(v.get("s").unwrap().as_str(), Some("hi"));
        assert_eq!(v.get("a").unwrap().as_f64_vec(), Some(vec![1.0]));
        assert_eq!(v.get("b").unwrap().as_bool(), Some(true));
        assert!(v.get("missing").is_none());
        assert!(Value::Null.is_null());
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(Value::parse("{").is_err());
        assert!(Value::parse("[1,]").is_err());
        assert!(Value::parse("tru").is_err());
        assert!(Value::parse("1 2").is_err());
        assert!(Value::parse("\"unterminated").is_err());
    }

    #[test]
    fn nesting_beyond_the_depth_limit_is_a_typed_error() {
        // A million unclosed brackets used to recurse once per level
        // and overflow the stack; the parser now stops at the limit.
        let depth = 1_000_000;
        for open in ["[", "{\"a\":"] {
            let text = open.repeat(depth);
            let e = Value::parse(&text).unwrap_err();
            assert_eq!(e.kind, JsonErrorKind::TooDeep, "{e}");
            assert_eq!(e.offset, MAX_DEPTH * open.len(), "{e}");
        }
        // Exactly at the limit still parses; one more level does not.
        let at_limit = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Value::parse(&at_limit).is_ok());
        let beyond = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert_eq!(
            Value::parse(&beyond).unwrap_err().kind,
            JsonErrorKind::TooDeep
        );
        // Malformed (not deep) input keeps the syntax kind.
        assert_eq!(
            Value::parse("[1,]").unwrap_err().kind,
            JsonErrorKind::Syntax
        );
    }

    #[test]
    fn documents_beyond_the_size_limit_are_a_typed_error() {
        // Exactly at the limit parses; one byte over is refused before
        // parsing, even when the text would not parse at all.
        let at_limit = format!("{}null", " ".repeat(MAX_BYTES - 4));
        assert_eq!(at_limit.len(), MAX_BYTES);
        assert_eq!(Value::parse(&at_limit).unwrap(), Value::Null);
        let over = format!("{at_limit} ");
        let e = Value::parse(&over).unwrap_err();
        assert_eq!(
            (e.kind, e.offset),
            (JsonErrorKind::TooLarge, MAX_BYTES),
            "{e}"
        );
        let garbage = "{".repeat(MAX_BYTES + 1);
        assert_eq!(
            Value::parse(&garbage).unwrap_err().kind,
            JsonErrorKind::TooLarge
        );
    }

    #[test]
    fn file_readers_stop_one_byte_past_the_size_limit() {
        let dir = std::env::temp_dir().join(format!("bright_jsonio_size{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("doc.json");
        // Sparse files: a length without the disk blocks behind it.
        let sized = |len: u64| std::fs::File::create(&path).unwrap().set_len(len).unwrap();
        sized(MAX_BYTES as u64);
        assert_eq!(read_document(&path).unwrap().len(), MAX_BYTES);
        sized(MAX_BYTES as u64 + 1);
        assert_eq!(
            read_document(&path).unwrap_err().kind,
            JsonErrorKind::TooLarge
        );
        // A file far beyond the limit fails the same way, without being
        // read: the reader takes at most MAX_BYTES + 1 bytes.
        sized(1 << 40);
        assert_eq!(
            read_document(&path).unwrap_err().kind,
            JsonErrorKind::TooLarge
        );
        assert_eq!(
            checksummed::read_verified(&path).unwrap_err().kind,
            JsonErrorKind::TooLarge
        );
        std::fs::remove_file(&path).unwrap();
        assert_eq!(read_document(&path).unwrap_err().kind, JsonErrorKind::Io);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn surrogate_pair_escapes_decode() {
        // Python's json.dumps default (ensure_ascii) escapes non-BMP
        // characters as surrogate pairs.
        let v = Value::parse(r#""\ud83d\ude00 ok""#).unwrap();
        assert_eq!(v.as_str(), Some("\u{1F600} ok"));
        // BMP escapes still work, surrogates must pair correctly.
        assert_eq!(
            Value::parse(r#""\u00e9""#).unwrap().as_str(),
            Some("\u{e9}")
        );
        assert!(Value::parse(r#""\ud83d""#).is_err()); // unpaired high
        assert!(Value::parse(r#""\ud83dx""#).is_err());
        assert!(Value::parse(r#""\ud83dA""#).is_err()); // bad low
        assert!(Value::parse(r#""\ude00""#).is_err()); // lone low
    }

    #[test]
    fn checksummed_envelope_round_trips_and_detects_corruption() {
        let payload = Value::object([
            ("id".into(), Value::String("01ABC".into())),
            ("value".into(), Value::Number(0.1 + 0.2)),
        ]);
        let text = checksummed::to_string(&payload);
        assert_eq!(checksummed::parse(&text).unwrap(), payload);
        // Any payload byte flip trips the digest.
        let corrupt = text.replace("01ABC", "01ABD");
        assert!(checksummed::parse(&corrupt).is_err());
        // A truncated record fails to parse at all.
        assert!(checksummed::parse(&text[..text.len() - 4]).is_err());
        // Missing/garbled envelope fields are errors, not panics.
        assert!(checksummed::parse("{\"payload\":1.0}").is_err());
        assert!(checksummed::parse("{\"crc\":\"zz\",\"payload\":1.0}").is_err());
    }

    #[test]
    fn atomic_write_replaces_and_read_verifies() {
        let dir = std::env::temp_dir().join(format!("bright_jsonio_t{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("doc.json");
        let a = Value::object([("v".into(), Value::Number(1.0))]);
        let b = Value::object([("v".into(), Value::Number(2.0))]);
        checksummed::write_atomic(&path, &checksummed::to_string(&a)).unwrap();
        assert_eq!(checksummed::read_verified(&path).unwrap(), a);
        checksummed::write_atomic(&path, &checksummed::to_string(&b)).unwrap();
        assert_eq!(checksummed::read_verified(&path).unwrap(), b);
        // No temp-file debris after a completed write.
        assert!(!dir.join("doc.json.tmp").exists());
        // Corruption on disk is detected.
        std::fs::write(&path, "{\"crc\":\"0\",\"payload\":{}}").unwrap();
        assert!(checksummed::read_verified(&path).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
