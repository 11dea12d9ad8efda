//! Minimal JSON support for telemetry traces.
//!
//! The workspace has no serialization dependency: the telemetry sink
//! writes JSON by hand and the trace views read it back with the
//! flat-object parser below. Trace records are deliberately flat (one
//! object per line, scalar values only), which keeps both halves small and
//! dependency-free.
//!
//! Both halves share one [`Value`], whose string payload is a
//! `Cow<str>`: a writer hands in its static tags and its data by reference,
//! and [`parse_flat_object`] returns every key and string value as a slice
//! of the line it read, copying only a literal that holds an escape.

use std::borrow::Cow;
use std::fmt::Write as _;

/// A scalar JSON value, as written by the recorder and returned by
/// [`parse_flat_object`].
#[derive(Clone, Debug, PartialEq)]
pub enum Value<'a> {
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
    /// String: borrowed from the writer's data or the parsed line, owned
    /// only where it had to be built.
    Str(Cow<'a, str>),
}

impl Value<'_> {
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

    /// The value with its string, if any, owned: one that outlives what it
    /// borrowed from.
    pub fn into_owned(self) -> Value<'static> {
        match self {
            Value::Null => Value::Null,
            Value::Bool(b) => Value::Bool(b),
            Value::U64(v) => Value::U64(v),
            Value::I64(v) => Value::I64(v),
            Value::F64(v) => Value::F64(v),
            Value::Str(s) => Value::Str(Cow::Owned(s.into_owned())),
        }
    }
}

impl From<u64> for Value<'_> {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}

impl From<u32> for Value<'_> {
    fn from(v: u32) -> Self {
        Value::U64(v as u64)
    }
}

impl From<usize> for Value<'_> {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}

impl From<i64> for Value<'_> {
    fn from(v: i64) -> Self {
        if v >= 0 {
            Value::U64(v as u64)
        } else {
            Value::I64(v)
        }
    }
}

impl From<f64> for Value<'_> {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}

impl From<bool> for Value<'_> {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl<'a> From<&'a str> for Value<'a> {
    fn from(v: &'a str) -> Self {
        Value::Str(Cow::Borrowed(v))
    }
}

impl From<String> for Value<'_> {
    fn from(v: String) -> Self {
        Value::Str(Cow::Owned(v))
    }
}

/// Appends `s` to `out` as a JSON string literal (with quotes). Each run of
/// characters that needs no escape is copied with one `push_str`.
pub fn write_json_str(out: &mut String, s: &str) {
    out.push('"');
    let mut run = 0;
    for (at, &b) in s.as_bytes().iter().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        // `b` is ASCII, so `at` is a character boundary.
        out.push_str(&s[run..at]);
        if escape.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(escape);
        }
        run = at + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Appends `v` to `out` as a JSON value.
pub fn write_json_value(out: &mut String, v: &Value<'_>) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::U64(n) => push_u64(out, *n),
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

/// Appends the decimal digits of `n` — what `write!(out, "{n}")` does,
/// without the formatting machinery.
fn push_u64(out: &mut String, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    digits[at..].iter().for_each(|&d| out.push(char::from(d)));
}

/// Appends the members of a flat JSON object built from `fields` to `out`,
/// `"k":v` comma-separated, without the braces.
pub fn write_json_members<K: AsRef<str>>(out: &mut String, fields: &[(K, Value<'_>)]) {
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_json_str(out, k.as_ref());
        out.push(':');
        write_json_value(out, v);
    }
}

/// Appends a flat JSON object built from `fields` to `out`.
pub fn write_json_object<K: AsRef<str>>(out: &mut String, fields: &[(K, Value<'_>)]) {
    out.push('{');
    write_json_members(out, fields);
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

/// The fields of one flat JSON object, in source order: keys and string
/// values borrow from the parsed text unless they held an escape.
pub type Fields<'a> = Vec<(Cow<'a, str>, Value<'a>)>;

/// Parses one flat JSON object — scalar values only, no nesting — into
/// its fields in source order, borrowing every key and string from
/// `input` that holds no escape.
///
/// This is exactly the shape the JSONL recorder emits; nested objects or
/// arrays are rejected rather than silently skipped.
pub fn parse_flat_object(input: &str) -> Result<Fields<'_>, JsonError> {
    let mut fields = Vec::new();
    parse_flat_object_into(input, &mut fields)?;
    Ok(fields)
}

/// [`parse_flat_object`] into `fields`, which it clears first: a reader of
/// many lines parses them all into one buffer.
pub(crate) fn parse_flat_object_into<'a>(
    input: &'a str,
    fields: &mut Fields<'a>,
) -> Result<(), JsonError> {
    fields.clear();
    let mut p = Parser { text: input, pos: 0 };
    p.skip_ws();
    p.expect(b'{')?;
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
    if p.pos != input.len() {
        return Err(p.err("trailing data after object"));
    }
    Ok(())
}

/// The cursor of [`parse_flat_object`]. `pos` only ever stops on an ASCII
/// byte or the end once a token is complete, so every slice it takes of
/// `text` falls on character boundaries.
struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    #[cold]
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_string(),
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
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
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self) -> Result<Value<'a>, JsonError> {
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

    fn parse_number(&mut self) -> Result<Value<'a>, JsonError> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        let mut float = false;
        // The digits' value, accumulated as they are scanned; `None` once it
        // overflows a `u64`.
        let mut digits = Some(0u64);
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => {
                    digits = digits
                        .and_then(|v| v.checked_mul(10))
                        .and_then(|v| v.checked_add(u64::from(b - b'0')));
                    self.pos += 1;
                }
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = &self.text[start..self.pos];
        if !(negative || float) {
            // Digits only (at least one): what `text.parse::<u64>()` says,
            // and past `u64::MAX` no `i64` either.
            digits.map(Value::U64).ok_or_else(|| self.err("invalid number"))
        } else if float {
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

    /// A string literal: a slice of the text, or — once an escape turns
    /// up — the decoded copy built run by run.
    fn parse_string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.expect(b'"')?;
        let mut decoded: Option<String> = None;
        loop {
            let run = self.pos;
            let rest = &self.text.as_bytes()[run..];
            self.pos += rest.iter().position(|&b| b == b'"' || b == b'\\').unwrap_or(rest.len());
            let text = &self.text[run..self.pos];
            match self.next() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    return Ok(match decoded {
                        None => Cow::Borrowed(text),
                        Some(mut out) => {
                            out.push_str(text);
                            Cow::Owned(out)
                        }
                    })
                }
                _ => {
                    let out = decoded.get_or_insert_with(String::new);
                    out.push_str(text);
                    let c = self.parse_escape()?;
                    out.push(c);
                }
            }
        }
    }

    /// The character of the escape whose backslash was just read.
    fn parse_escape(&mut self) -> Result<char, JsonError> {
        Ok(match self.next() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{0008}',
            Some(b'f') => '\u{000c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
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
                char::from_u32(cp).ok_or_else(|| self.err("invalid code point"))?
            }
            _ => return Err(self.err("invalid escape")),
        })
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

    fn roundtrip(fields: &[(&str, Value)]) -> Vec<(String, Value<'static>)> {
        let mut s = String::new();
        write_json_object(&mut s, fields);
        let parsed = parse_flat_object(&s).expect("roundtrip parse");
        parsed.into_iter().map(|(k, v)| (k.into_owned(), v.into_owned())).collect()
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
        let mut s = String::new();
        write_json_str(&mut s, tricky);
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\te\\u0001f — π\"");
    }

    #[test]
    fn parses_unicode_escapes() {
        let parsed = parse_flat_object(r#"{"s":"é😀"}"#).unwrap();
        assert_eq!(parsed[0].1.as_str(), Some("é😀"));
        let escaped = format!("{{\"s\":\"{}u00e9{}ud83d{}ude00\"}}", '\\', '\\', '\\');
        let parsed = parse_flat_object(&escaped).unwrap();
        assert_eq!(parsed[0].1.as_str(), Some("é😀"));
    }

    #[test]
    fn plain_strings_are_borrowed_and_escaped_ones_decoded() {
        let line = r#"{"plain":"phase 1","esc\"aped":"a\tb"}"#;
        let parsed = parse_flat_object(line).unwrap();
        assert!(matches!(parsed[0].0, Cow::Borrowed("plain")));
        assert!(matches!(parsed[0].1, Value::Str(Cow::Borrowed("phase 1"))));
        assert!(matches!(&parsed[1].0, Cow::Owned(k) if k == "esc\"aped"));
        assert!(matches!(&parsed[1].1, Value::Str(Cow::Owned(v)) if v == "a\tb"));
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
