//! Minimal JSON support for telemetry traces.
//!
//! The workspace has no serialization dependency: the telemetry sink
//! writes JSON by hand and `bw stats` reads it back with the
//! flat-object parser below. Trace records are deliberately flat
//! (one object per line, scalar values only), which keeps both halves
//! small and dependency-free.

use std::fmt::Write as _;

/// A scalar JSON value, as written by the recorder and returned by
/// [`parse_flat_object`].
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Non-negative integer.
    U64(u64),
    /// Negative integer (parser only produces this for values < 0).
    I64(i64),
    /// Floating-point number.
    F64(f64),
    /// String.
    Str(String),
}

impl Value {
    /// The value as a `u64` if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::U64(v) => Some(*v),
            Value::I64(v) => u64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// The value as an `f64` if it is any kind of number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::U64(v) => Some(*v as f64),
            Value::I64(v) => Some(*v as f64),
            Value::F64(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a string slice if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::U64(v as u64)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        if v >= 0 {
            Value::U64(v as u64)
        } else {
            Value::I64(v)
        }
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

/// Appends `s` to `out` as a JSON string literal (with quotes).
pub fn write_json_str(out: &mut String, s: &str) {
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

/// Appends `v` to `out` as a JSON value.
pub fn write_json_value(out: &mut String, v: &Value) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::U64(n) => {
            let _ = write!(out, "{n}");
        }
        Value::I64(n) => {
            let _ = write!(out, "{n}");
        }
        Value::F64(x) => {
            // JSON has no NaN/Inf; fall back to null like most emitters.
            if x.is_finite() {
                let _ = write!(out, "{x}");
            } else {
                out.push_str("null");
            }
        }
        Value::Str(s) => write_json_str(out, s),
    }
}

/// Appends a flat JSON object built from `fields` to `out`.
pub fn write_json_object(out: &mut String, fields: &[(&str, Value)]) {
    out.push('{');
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_json_str(out, k);
        out.push(':');
        write_json_value(out, v);
    }
    out.push('}');
}

/// Error from [`parse_flat_object`]: a message plus the byte offset it
/// was detected at.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

/// Parses one flat JSON object — scalar values only, no nesting — into
/// its fields in source order.
///
/// This is exactly the shape the JSONL recorder emits; nested objects or
/// arrays are rejected rather than silently skipped.
pub fn parse_flat_object(input: &str) -> Result<Vec<(String, Value)>, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    p.expect(b'{')?;
    let mut fields = Vec::new();
    p.skip_ws();
    if p.peek() == Some(b'}') {
        p.pos += 1;
    } else {
        loop {
            p.skip_ws();
            let key = p.parse_string()?;
            p.skip_ws();
            p.expect(b':')?;
            p.skip_ws();
            let value = p.parse_value()?;
            fields.push((key, value));
            p.skip_ws();
            match p.next() {
                Some(b',') => continue,
                Some(b'}') => break,
                _ => return Err(p.err("expected ',' or '}'")),
            }
        }
    }
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing data after object"));
    }
    Ok(fields)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_string(),
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn next(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn eat_keyword(&mut self, word: &str) -> bool {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self) -> Result<Value, JsonError> {
        match self.peek() {
            Some(b'"') => Ok(Value::Str(self.parse_string()?)),
            Some(b't') if self.eat_keyword("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Value::Bool(false)),
            Some(b'n') if self.eat_keyword("null") => Ok(Value::Null),
            Some(b'{') | Some(b'[') => Err(self.err("nested values are not supported")),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn parse_number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid utf-8 in number"))?;
        if float {
            text.parse::<f64>()
                .map(Value::F64)
                .map_err(|_| self.err("invalid number"))
        } else if let Ok(v) = text.parse::<u64>() {
            Ok(Value::U64(v))
        } else if let Ok(v) = text.parse::<i64>() {
            Ok(Value::I64(v))
        } else {
            Err(self.err("invalid number"))
        }
    }

    fn parse_string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.next() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.next() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hi = self.parse_hex4()?;
                        let cp = if (0xd800..0xdc00).contains(&hi) {
                            // Surrogate pair: require the low half.
                            if self.next() != Some(b'\\') || self.next() != Some(b'u') {
                                return Err(self.err("missing low surrogate"));
                            }
                            let lo = self.parse_hex4()?;
                            if !(0xdc00..0xe000).contains(&lo) {
                                return Err(self.err("invalid low surrogate"));
                            }
                            0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00)
                        } else {
                            hi
                        };
                        out.push(
                            char::from_u32(cp).ok_or_else(|| self.err("invalid code point"))?,
                        );
                    }
                    _ => return Err(self.err("invalid escape")),
                },
                Some(b) if b < 0x80 => out.push(b as char),
                Some(b) => {
                    // Re-decode the multi-byte UTF-8 sequence in place.
                    let len = match b {
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        0xf0..=0xf7 => 4,
                        _ => return Err(self.err("invalid utf-8")),
                    };
                    let start = self.pos - 1;
                    let end = start + len;
                    let chunk = self
                        .bytes
                        .get(start..end)
                        .ok_or_else(|| self.err("truncated utf-8"))?;
                    let s =
                        std::str::from_utf8(chunk).map_err(|_| self.err("invalid utf-8"))?;
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let b = self.next().ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.err("invalid hex digit"))?;
            v = v * 16 + d;
        }
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(fields: &[(&str, Value)]) -> Vec<(String, Value)> {
        let mut s = String::new();
        write_json_object(&mut s, fields);
        parse_flat_object(&s).expect("roundtrip parse")
    }

    #[test]
    fn writes_and_parses_scalars() {
        let fields = [
            ("ev", Value::from("injection")),
            ("seq", Value::from(42u64)),
            ("delta", Value::from(-3i64)),
            ("frac", Value::F64(0.5)),
            ("ok", Value::from(true)),
            ("none", Value::Null),
        ];
        let parsed = roundtrip(&fields);
        assert_eq!(parsed.len(), 6);
        assert_eq!(parsed[0].0, "ev");
        assert_eq!(parsed[0].1.as_str(), Some("injection"));
        assert_eq!(parsed[1].1.as_u64(), Some(42));
        assert_eq!(parsed[2].1, Value::I64(-3));
        assert_eq!(parsed[3].1.as_f64(), Some(0.5));
        assert_eq!(parsed[4].1, Value::Bool(true));
        assert_eq!(parsed[5].1, Value::Null);
    }

    #[test]
    fn escapes_are_symmetric() {
        let tricky = "a\"b\\c\nd\te\u{0001}f — π";
        let parsed = roundtrip(&[("s", Value::from(tricky))]);
        assert_eq!(parsed[0].1.as_str(), Some(tricky));
    }

    #[test]
    fn parses_unicode_escapes() {
        let parsed = parse_flat_object(r#"{"s":"é😀"}"#).unwrap();
        assert_eq!(parsed[0].1.as_str(), Some("é😀"));
    }

    #[test]
    fn rejects_nesting_and_garbage() {
        assert!(parse_flat_object(r#"{"a":{"b":1}}"#).is_err());
        assert!(parse_flat_object(r#"{"a":[1]}"#).is_err());
        assert!(parse_flat_object(r#"{"a":1} extra"#).is_err());
        assert!(parse_flat_object(r#"{"a":}"#).is_err());
        assert!(parse_flat_object("{}").unwrap().is_empty());
    }

    #[test]
    fn nonfinite_floats_serialize_as_null() {
        let mut s = String::new();
        write_json_object(&mut s, &[("x", Value::F64(f64::NAN))]);
        assert_eq!(s, r#"{"x":null}"#);
    }
}
