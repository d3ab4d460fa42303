//! A minimal JSON reader/writer for the wire protocol.
//!
//! The build environment is registry-free, so the daemon carries its own
//! JSON handling: a recursive-descent parser into a small [`Value`] tree for
//! *reading* requests, and string-building helpers for *writing* responses.
//! Floats render with Rust's shortest-round-trip `{:e}` formatting — the
//! same rendering the corpus golden uses — so an `f64` crosses the wire
//! bit-exactly.
//!
//! Deliberate limits (documented in `PROTOCOL.md`): numbers are `f64`, so
//! integers are exact only up to 2^53; object keys keep their first
//! occurrence (duplicates are rejected); no `\u` surrogate-pair pedantry
//! beyond what [`char::from_u32`] accepts.
//!
//! Decoding is linear in the input, so no frame up to the size limit can
//! stall a connection: a string copies each run of plain bytes (everything
//! up to the next `"`, `\` or control byte) in one step, and an object
//! checks duplicate keys against a set of the keys seen so far.

use std::collections::HashSet;
use std::fmt::Write as _;

/// A parsed JSON document.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (integers are exact up to 2^53).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, in declaration order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Member lookup on an object; `None` on other variants or a missing key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(members) => members
                .iter()
                .find(|(name, _)| name == key)
                .map(|(_, value)| value),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(text) => Some(text),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(value) => Some(*value),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer, if it is one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        let value = self.as_f64()?;
        ((0.0..=9_007_199_254_740_992.0).contains(&value) && value.fract() == 0.0)
            .then_some(value as u64)
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(value) => Some(*value),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The member list, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(members) => Some(members),
            _ => None,
        }
    }
}

/// A parse failure: what went wrong and the byte offset it was noticed at.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description of the violation.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for ParseError {}

/// Parses one JSON document; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Value, ParseError> {
    let mut parser = Parser {
        source: text,
        offset: 0,
        depth: 0,
    };
    parser.skip_whitespace();
    let value = parser.value()?;
    parser.skip_whitespace();
    if parser.offset != text.len() {
        return Err(parser.error("trailing data after document"));
    }
    Ok(value)
}

/// Nesting bound: a hostile frame of `[[[[…` must not overflow the stack.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    source: &'a str,
    offset: usize,
    depth: usize,
}

impl Parser<'_> {
    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            message: message.into(),
            offset: self.offset,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.source.as_bytes().get(self.offset).copied()
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.offset += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), ParseError> {
        if self.peek() == Some(byte) {
            self.offset += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, ParseError> {
        if self.source.as_bytes()[self.offset..].starts_with(word.as_bytes()) {
            self.offset += word.len();
            Ok(value)
        } else {
            Err(self.error(format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        if self.depth >= MAX_DEPTH {
            return Err(self.error("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.error("unexpected character")),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        self.depth += 1;
        let mut members: Vec<(String, Value)> = Vec::new();
        // Keys seen so far, so duplicate detection stays linear.
        let mut names: HashSet<String> = HashSet::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.offset += 1;
            self.depth -= 1;
            return Ok(Value::Object(members));
        }
        loop {
            self.skip_whitespace();
            let key = self.string()?;
            if !names.insert(key.clone()) {
                return Err(self.error(format!("duplicate key {key:?}")));
            }
            self.skip_whitespace();
            self.expect(b':')?;
            self.skip_whitespace();
            let value = self.value()?;
            members.push((key, value));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.offset += 1,
                Some(b'}') => {
                    self.offset += 1;
                    self.depth -= 1;
                    return Ok(Value::Object(members));
                }
                _ => return Err(self.error("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        self.depth += 1;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.offset += 1;
            self.depth -= 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_whitespace();
            items.push(self.value()?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.offset += 1,
                Some(b']') => {
                    self.offset += 1;
                    self.depth -= 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.error("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut text = String::new();
        loop {
            // Copy the run of plain bytes up to the next quote, backslash or
            // control byte in one step, so decoding stays linear in the
            // input.  The run starts on a scalar boundary and ends before an
            // ASCII byte (or at the end), so it is whole UTF-8 scalars.
            let rest = &self.source[self.offset..];
            let run = rest
                .bytes()
                .position(|byte| byte == b'"' || byte == b'\\' || byte < 0x20)
                .unwrap_or(rest.len());
            text.push_str(&rest[..run]);
            self.offset += run;
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.offset += 1;
                    return Ok(text);
                }
                Some(b'\\') => {
                    self.offset += 1;
                    let escape = self.peek().ok_or_else(|| self.error("bad escape"))?;
                    self.offset += 1;
                    match escape {
                        b'"' => text.push('"'),
                        b'\\' => text.push('\\'),
                        b'/' => text.push('/'),
                        b'b' => text.push('\u{0008}'),
                        b'f' => text.push('\u{000C}'),
                        b'n' => text.push('\n'),
                        b'r' => text.push('\r'),
                        b't' => text.push('\t'),
                        b'u' => {
                            let hex = self
                                .source
                                .get(self.offset..self.offset + 4)
                                .ok_or_else(|| self.error("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.error("bad \\u escape"))?;
                            self.offset += 4;
                            text.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.error("invalid \\u code point"))?,
                            );
                        }
                        _ => return Err(self.error("unknown escape")),
                    }
                }
                // The run stopped, so this is a byte below 0x20.
                Some(_) => return Err(self.error("raw control character in string")),
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.offset;
        if self.peek() == Some(b'-') {
            self.offset += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.offset += 1;
        }
        if self.peek() == Some(b'.') {
            self.offset += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.offset += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.offset += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.offset += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.offset += 1;
            }
        }
        let text = &self.source[start..self.offset];
        let value: f64 = text.parse().map_err(|_| ParseError {
            message: format!("bad number {text:?}"),
            offset: start,
        })?;
        if !value.is_finite() {
            return Err(ParseError {
                message: format!("number {text:?} out of range"),
                offset: start,
            });
        }
        Ok(Value::Number(value))
    }
}

/// Appends a JSON string literal (quotes and escapes included) to `out`.
pub fn push_string(out: &mut String, text: &str) {
    out.push('"');
    for ch in text.chars() {
        match ch {
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

/// Renders a string as a standalone JSON literal.
pub fn string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    push_string(&mut out, text);
    out
}

/// Renders an `f64` in shortest-round-trip scientific notation — the same
/// rendering the corpus golden uses, so values survive the wire bit-exactly.
pub fn number(value: f64) -> String {
    format!("{value:e}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{parse_request, NetlistFormat, Request};
    use proptest::collection;
    use proptest::prelude::*;
    use std::time::{Duration, Instant};

    #[test]
    fn parses_nested_documents() {
        let doc = parse(r#"{"op":"load","n":3,"x":[1,2.5,-4e-2],"b":true,"z":null}"#).unwrap();
        assert_eq!(doc.get("op").and_then(Value::as_str), Some("load"));
        assert_eq!(doc.get("n").and_then(Value::as_u64), Some(3));
        let items = doc.get("x").and_then(Value::as_array).unwrap();
        assert_eq!(items[2].as_f64(), Some(-0.04));
        assert_eq!(doc.get("b").and_then(Value::as_bool), Some(true));
        assert_eq!(doc.get("z"), Some(&Value::Null));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse(r#"{"a":1,"a":2}"#).is_err());
        assert!(parse("1 2").is_err());
        assert!(parse("nul").is_err());
        assert!(parse(&("[".repeat(100) + &"]".repeat(100))).is_err());
    }

    #[test]
    fn strings_round_trip_through_escaping() {
        let nasty = "a\"b\\c\nd\te\u{0007}π";
        let rendered = string(nasty);
        let parsed = parse(&rendered).unwrap();
        assert_eq!(parsed.as_str(), Some(nasty));
    }

    #[test]
    fn floats_round_trip_bit_exactly() {
        for value in [0.1, 1.0 / 3.0, 6.626e-34, 1.0, 0.0, 123456789.125] {
            let rendered = number(value);
            let parsed = parse(&rendered).unwrap();
            assert_eq!(parsed.as_f64().unwrap().to_bits(), value.to_bits());
        }
    }

    /// One piece of a generated string: a plain ASCII run, a quote, a
    /// backslash, a control character, or a 2-, 3- or 4-byte scalar.
    fn piece(kind: u8, selector: u32) -> String {
        let scalar = |code: u32| char::from_u32(code).expect("valid scalar").to_string();
        match kind {
            0 => "plain run/ 09"
                .chars()
                .cycle()
                .skip(selector as usize % 13)
                .take(1 + selector as usize % 64)
                .collect(),
            1 => "\"".to_string(),
            2 => "\\".to_string(),
            3 => scalar(selector % 0x20),
            4 => scalar(0x80 + selector % (0x800 - 0x80)),
            5 => {
                // U+0800..=U+FFFF without the surrogate block.
                let code = 0x800 + selector % 0xF000;
                scalar(if code >= 0xD800 { code + 0x800 } else { code })
            }
            _ => scalar(0x1_0000 + selector % (0x11_0000 - 0x1_0000)),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn decoding_inverts_string_encoding(
            pieces in collection::vec((0u8..7, any::<u32>()), 0..48)
        ) {
            let text: String = pieces
                .iter()
                .map(|&(kind, selector)| piece(kind, selector))
                .collect();
            prop_assert_eq!(parse(&string(&text)), Ok(Value::String(text)));
        }
    }

    #[test]
    fn string_error_offsets_survive_a_long_plain_run() {
        let run = "plain π € 𝄞 ".repeat(5_000);
        let control = format!("[\"{run}\u{1}\"]");
        assert_eq!(
            parse(&control),
            Err(ParseError {
                message: "raw control character in string".to_string(),
                offset: 2 + run.len(),
            })
        );
        let unterminated = format!("[\"a\\n{run}");
        assert_eq!(
            parse(&unterminated),
            Err(ParseError {
                message: "unterminated string".to_string(),
                offset: unterminated.len(),
            })
        );
    }

    #[test]
    fn duplicate_keys_are_found_in_large_objects() {
        let members: Vec<String> = (0..100_000)
            .map(|index| format!("\"k{index}\":0"))
            .collect();
        let object = format!("{{{}}}", members.join(","));
        assert_eq!(parse(&object).unwrap().as_object().unwrap().len(), 100_000);
        // (repeated key, position of the repeat): near the start, in the
        // middle, and at the very end.
        for (repeated, at) in [(3, 5), (3, 50_000), (77, 400), (99_999, 100_000)] {
            let mut parts = members.clone();
            let key = format!("\"k{repeated}\"");
            parts.insert(at, format!("{key}:1"));
            let text = format!("{{{}}}", parts.join(","));
            // Reported just past the repeated key.
            let offset = 1 + parts[..at].join(",").len() + 1 + key.len();
            assert_eq!(
                parse(&text).map(|_| ()),
                Err(ParseError {
                    message: format!("duplicate key \"k{repeated}\""),
                    offset,
                })
            );
        }
    }

    #[test]
    fn a_one_mebibyte_load_decodes_in_linear_time() {
        let mut netlist = String::new();
        let mut index = 0;
        while netlist.len() < 1 << 20 {
            let _ = writeln!(
                netlist,
                "gate nand2 g{index} a{index} b{index} -> n{index} # \"π\"\t"
            );
            index += 1;
        }
        let body = crate::client::load_request(7, &netlist);
        let started = Instant::now();
        let (id, request) = parse_request(body.as_bytes());
        let elapsed = started.elapsed();
        assert_eq!(id, Some(7));
        match request {
            Ok(Request::Load {
                netlist: decoded,
                format: NetlistFormat::Net,
            }) => assert!(decoded == netlist, "the netlist text must decode unchanged"),
            other => panic!("expected a load request, got {other:?}"),
        }
        // Linear decoding takes milliseconds; the quadratic decoder took
        // tens of seconds on this body.
        assert!(
            elapsed < Duration::from_secs(5),
            "1 MiB load body took {elapsed:?} to parse"
        );
    }
}
