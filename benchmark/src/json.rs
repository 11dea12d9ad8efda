//! The little JSON this benchmark reads and writes itself: string quoting
//! for its output lines and a flat `{"key": integer | "string"}` object for
//! `expected.json`. (The crates' own JSON helpers are part of what is being
//! measured, so the oracle does not go through them.)

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A JSON string literal for `s`.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A number as JSON: all the digits `f64` carries, and never `NaN`/`inf`
/// (which JSON cannot hold — they become `null`).
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// One exact value of the oracle.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Fact {
    /// An exact count.
    Int(u64),
    /// Anything else that must match to the byte (e.g. a list of seeds, a
    /// ratio printed to two decimals).
    Text(String),
}

impl std::fmt::Display for Fact {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Fact::Int(n) => write!(f, "{n}"),
            Fact::Text(s) => f.write_str(&quote(s)),
        }
    }
}

impl From<u64> for Fact {
    fn from(n: u64) -> Self {
        Fact::Int(n)
    }
}

impl From<usize> for Fact {
    fn from(n: usize) -> Self {
        Fact::Int(n as u64)
    }
}

impl From<String> for Fact {
    fn from(s: String) -> Self {
        Fact::Text(s)
    }
}

/// Renders `facts` as a flat JSON object, one sorted key per line.
pub fn write_flat(facts: &BTreeMap<String, Fact>) -> String {
    let mut out = String::from("{\n");
    let mut first = true;
    for (key, fact) in facts {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        let _ = write!(out, "  {}: {fact}", quote(key));
    }
    out.push_str("\n}\n");
    out
}

/// Parses a flat JSON object whose values are non-negative integers or
/// strings.
///
/// # Errors
///
/// Returns a description of the first thing that is not that.
pub fn parse_flat(text: &str) -> Result<BTreeMap<String, Fact>, String> {
    let mut p = Parser { bytes: text.as_bytes(), at: 0 };
    let mut out = BTreeMap::new();
    p.expect(b'{')?;
    let mut more = p.peek() != Some(b'}');
    if !more {
        p.at += 1;
    }
    while more {
        let key = p.string()?;
        p.expect(b':')?;
        let value = match p.peek() {
            Some(b'"') => Fact::Text(p.string()?),
            Some(b'0'..=b'9') => Fact::Int(p.integer()?),
            other => return Err(format!("unsupported value for {key:?}: {other:?}")),
        };
        if out.insert(key.clone(), value).is_some() {
            return Err(format!("duplicate key {key:?}"));
        }
        more = match p.peek() {
            Some(b',') => true,
            Some(b'}') => false,
            other => return Err(format!("expected ',' or '}}' after {key:?}, found {other:?}")),
        };
        p.at += 1;
    }
    match p.peek() {
        None => Ok(out),
        Some(b) => Err(format!("trailing byte {b:#x} after the object")),
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    /// The next non-whitespace byte, without consuming it.
    fn peek(&mut self) -> Option<u8> {
        while self.bytes.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
        self.bytes.get(self.at).copied()
    }

    fn expect(&mut self, want: u8) -> Result<(), String> {
        match self.peek() {
            Some(b) if b == want => {
                self.at += 1;
                Ok(())
            }
            other => Err(format!("expected {:?}, found {other:?}", want as char)),
        }
    }

    fn integer(&mut self) -> Result<u64, String> {
        let start = self.at;
        while self.bytes.get(self.at).is_some_and(u8::is_ascii_digit) {
            self.at += 1;
        }
        let digits = std::str::from_utf8(&self.bytes[start..self.at]).map_err(|e| e.to_string())?;
        digits.parse().map_err(|e| format!("bad integer {digits:?}: {e}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = Vec::new();
        loop {
            let b = *self.bytes.get(self.at).ok_or("unterminated string")?;
            self.at += 1;
            match b {
                b'"' => break,
                b'\\' => {
                    let e = *self.bytes.get(self.at).ok_or("unterminated escape")?;
                    self.at += 1;
                    out.push(match e {
                        b'"' | b'\\' | b'/' => e,
                        b'n' => b'\n',
                        b't' => b'\t',
                        b'r' => b'\r',
                        other => return Err(format!("unsupported escape \\{}", other as char)),
                    });
                }
                b => out.push(b),
            }
        }
        String::from_utf8(out).map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_object_round_trips() {
        let mut facts = BTreeMap::new();
        facts.insert("a.cycles".to_string(), Fact::Int(224_958_832));
        facts.insert("b.seeds".to_string(), Fact::Text("0x3c2 0x488".into()));
        facts.insert("c.quoted".to_string(), Fact::Text("say \"hi\"\n".into()));
        let text = write_flat(&facts);
        assert_eq!(parse_flat(&text).unwrap(), facts);
        assert_eq!(parse_flat("{}").unwrap(), BTreeMap::new());
    }

    #[test]
    fn rejects_what_it_does_not_support() {
        assert!(parse_flat("").is_err());
        assert!(parse_flat("{\"a\": 1.5}").is_err());
        assert!(parse_flat("{\"a\": [1]}").is_err());
        assert!(parse_flat("{\"a\": 1, \"a\": 2}").is_err());
        assert!(parse_flat("{\"a\": 1} x").is_err());
        assert!(parse_flat("{\"a\": -1}").is_err());
    }

    #[test]
    fn numbers_keep_their_digits_and_stay_valid_json() {
        assert_eq!(number(1.25), "1.25");
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(quote("a\tb"), "\"a\\tb\"");
    }
}
