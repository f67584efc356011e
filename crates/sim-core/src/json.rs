//! Minimal JSON reading/writing with no external crates.
//!
//! The simulator persists [`SimResult`](../../walksteal_multitenant) values
//! in its on-disk experiment cache and prints them from the CLI tools. The
//! build must work with zero network access, so instead of `serde_json`
//! this module provides a small document model ([`Json`]), a writer
//! ([`Json::dump`] / [`Json::pretty`]), and a recursive-descent parser
//! ([`Json::parse`]).
//!
//! Numbers are split into unsigned integers and floats so `u64` counters
//! round-trip exactly. Floats are written with Rust's shortest-round-trip
//! formatting (`{:?}`), so parsing the output recovers the identical bit
//! pattern; non-finite floats are written as `null` (matching common JSON
//! serializer behavior) and read back as NaN.
//!
//! # Examples
//!
//! ```
//! use walksteal_sim_core::Json;
//!
//! let doc = Json::Obj(vec![
//!     ("cycles".to_string(), Json::UInt(1234)),
//!     ("ipc".to_string(), Json::Num(0.75)),
//! ]);
//! let text = doc.dump();
//! assert_eq!(text, r#"{"cycles":1234,"ipc":0.75}"#);
//! let back = Json::parse(&text).unwrap();
//! assert_eq!(back.get("cycles").and_then(Json::as_u64), Some(1234));
//! ```

use std::fmt::Write as _;

/// A JSON document.
///
/// Objects keep insertion order (they are association lists, not maps), so
/// serialization is deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer, written without a decimal point.
    UInt(u64),
    /// A float, written with shortest-round-trip formatting.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up a key in an object; `None` for missing keys or non-objects.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is an integer.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an `f64`. Integers convert; `null` reads as NaN (the
    /// writer emits `null` for non-finite floats).
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            Json::UInt(n) => Some(*n as f64),
            Json::Null => Some(f64::NAN),
            _ => None,
        }
    }

    /// The value as a string slice.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes compactly (no whitespace).
    #[must_use]
    pub fn dump(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Serializes with two-space indentation.
    #[must_use]
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Num(x) => {
                if x.is_finite() {
                    // `{:?}` is Rust's shortest representation that parses
                    // back to the same f64.
                    let _ = write!(out, "{x:?}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                write_seq(out, indent, depth, '[', ']', items.len(), |out, i, d| {
                    items[i].write(out, indent, d);
                });
            }
            Json::Obj(entries) => {
                write_seq(out, indent, depth, '{', '}', entries.len(), |out, i, d| {
                    let (k, v) = &entries[i];
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, d);
                });
            }
        }
    }

    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// Returns a message with a byte offset on malformed input, including
    /// trailing garbage after the document.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing characters at byte {}", p.pos));
        }
        Ok(v)
    }
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(width) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', width * (depth + 1)));
        }
        item(out, i, depth + 1);
    }
    if let Some(width) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', width * depth));
    }
    out.push(close);
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
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

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected character at byte {}", self.pos)),
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            entries.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(entries));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Take the longest plain run in one slice to avoid per-char work.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| format!("invalid utf-8 at byte {start}"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| format!("unterminated escape at byte {}", self.pos))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| {
                                    format!("truncated \\u escape at byte {}", self.pos)
                                })?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape at byte {}", self.pos))?;
                            self.pos += 4;
                            // Surrogate pairs are not needed for our data;
                            // map lone surrogates to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(format!("unknown escape at byte {}", self.pos - 1)),
                    }
                }
                _ => return Err(format!("unterminated string at byte {}", self.pos)),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| format!("invalid number at byte {start}"))?;
        if !is_float && !text.starts_with('-') {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Json::UInt(n));
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("invalid number '{text}' at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_scalars() {
        for text in ["null", "true", "false", "0", "42", "-1.5", "0.1"] {
            let v = Json::parse(text).unwrap();
            assert_eq!(v.dump(), text, "{text}");
        }
    }

    #[test]
    fn floats_round_trip_exactly() {
        for x in [0.1, 1.0 / 3.0, 1e300, f64::MIN_POSITIVE, 123.456e-7] {
            let v = Json::Num(x);
            let back = Json::parse(&v.dump()).unwrap();
            assert_eq!(back.as_f64().unwrap().to_bits(), x.to_bits(), "{x}");
        }
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(Json::Num(f64::NAN).dump(), "null");
        assert_eq!(Json::Num(f64::INFINITY).dump(), "null");
        assert!(Json::parse("null").unwrap().as_f64().unwrap().is_nan());
    }

    #[test]
    fn u64_counters_round_trip_exactly() {
        let n = u64::MAX;
        let v = Json::UInt(n);
        assert_eq!(Json::parse(&v.dump()).unwrap().as_u64(), Some(n));
    }

    #[test]
    fn strings_escape_and_unescape() {
        let s = "he said \"hi\\bye\"\nline2\ttab\u{1}";
        let v = Json::Str(s.to_string());
        assert_eq!(Json::parse(&v.dump()).unwrap().as_str(), Some(s));
    }

    #[test]
    fn unicode_escapes_parse() {
        let v = Json::parse(r#""Aé""#).unwrap();
        assert_eq!(v.as_str(), Some("Aé"));
    }

    #[test]
    fn nested_structure_round_trips() {
        let doc = Json::Obj(vec![
            ("a".into(), Json::Arr(vec![Json::UInt(1), Json::Num(2.5)])),
            ("b".into(), Json::Obj(vec![("c".into(), Json::Null)])),
            ("d".into(), Json::Arr(vec![])),
            ("e".into(), Json::Obj(vec![])),
        ]);
        let compact = doc.dump();
        assert_eq!(Json::parse(&compact).unwrap(), doc);
        let pretty = doc.pretty();
        assert_eq!(Json::parse(&pretty).unwrap(), doc);
        assert!(pretty.contains('\n'));
    }

    #[test]
    fn integers_beyond_f64_precision_round_trip_exactly() {
        // 2^53 + 1 is the first integer an f64 cannot represent; a parser
        // that routes integers through f64 silently turns it into 2^53.
        // The cache format leans on UInt staying exact for event counters.
        for n in [(1_u64 << 53) + 1, u64::MAX, u64::MAX - 1] {
            let text = Json::UInt(n).dump();
            let back = Json::parse(&text).unwrap();
            assert_eq!(back, Json::UInt(n), "{n}");
        }
        #[allow(clippy::cast_precision_loss)]
        let lossy = ((1_u64 << 53) + 1) as f64 as u64;
        assert_ne!(lossy, (1 << 53) + 1, "f64 round-trip would have lied");
    }

    #[test]
    fn nested_document_with_escapes_and_large_ints_round_trips() {
        // One document combining every hard case the cache envelope can
        // contain: maps inside arrays inside maps, keys needing escapes,
        // values mixing control characters with >2^53 counters.
        let doc = Json::Obj(vec![
            (
                "path\\with \"quotes\"".into(),
                Json::Arr(vec![
                    Json::Obj(vec![
                        ("events".into(), Json::UInt((1 << 53) + 1)),
                        ("note".into(), Json::Str("line1\nline2\t\u{1}end".into())),
                    ]),
                    Json::Arr(vec![Json::UInt(u64::MAX), Json::Null, Json::Bool(false)]),
                ]),
            ),
            (
                "empty".into(),
                Json::Obj(vec![("a".into(), Json::Arr(vec![]))]),
            ),
        ]);
        for text in [doc.dump(), doc.pretty()] {
            assert_eq!(Json::parse(&text).unwrap(), doc, "from {text}");
        }
        // And the compact form itself is stable through a second cycle.
        let once = doc.dump();
        assert_eq!(Json::parse(&once).unwrap().dump(), once);
    }

    #[test]
    fn escaped_object_keys_survive() {
        let doc = Json::Obj(vec![("tab\tkey\"\\".into(), Json::UInt(1))]);
        let back = Json::parse(&doc.dump()).unwrap();
        assert_eq!(back.get("tab\tkey\"\\").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn object_lookup_and_accessors() {
        let doc = Json::parse(r#"{"x": 3, "y": [1, 2], "s": "hi", "b": true}"#).unwrap();
        assert_eq!(doc.get("x").and_then(Json::as_u64), Some(3));
        assert_eq!(
            doc.get("y").and_then(Json::as_array).map(<[Json]>::len),
            Some(2)
        );
        assert_eq!(doc.get("s").and_then(Json::as_str), Some("hi"));
        assert_eq!(doc.get("b").and_then(Json::as_bool), Some(true));
        assert!(doc.get("missing").is_none());
    }

    #[test]
    fn rejects_malformed_input() {
        for text in ["", "{", "[1,", "\"abc", "{\"a\" 1}", "nul", "1 2", "{1: 2}"] {
            assert!(Json::parse(text).is_err(), "{text:?} should fail");
        }
    }

    #[test]
    fn whitespace_is_tolerated() {
        let v = Json::parse(" { \"a\" :\n[ 1 ,\t2 ] } ").unwrap();
        assert_eq!(
            v.get("a").and_then(Json::as_array).map(<[Json]>::len),
            Some(2)
        );
    }
}
