//! The borrowing flat-JSON parser against the one it replaced.
//!
//! `reference/` keeps `parse_flat_object` as it was before keys and strings
//! became slices of the line. Both must say the same of any input: the same
//! fields (borrowed or not, a string is a string), or the same `JsonError`,
//! message and offset. Two sweeps drive them: random flat objects built
//! from the pieces a hand-rolled parser gets wrong (escapes, surrogate
//! pairs, multi-byte text, raw control bytes, numbers at the `u64`/`i64`
//! edges) in well-formed and scrambled order, 2048 of each from a
//! fixed-seed SplitMix64 (a failure names its case index), and every
//! single-byte substitution, deletion and truncation of the fixture lines
//! that `tests/trace_schema.rs` sweeps through the trace views.

mod reference;

use bw_telemetry::{parse_flat_object, records, JsonError, Value};
use bw_vm::SplitMix64;

/// What a parser says of `input`, with every string owned.
type Verdict = Result<Vec<(String, Value<'static>)>, JsonError>;

fn borrowing(input: &str) -> Verdict {
    let fields = parse_flat_object(input)?;
    Ok(fields.into_iter().map(|(k, v)| (k.into_owned(), v.into_owned())).collect())
}

fn agree(input: &str) -> Result<(), String> {
    let (new, old) = (borrowing(input), reference::parse_flat_object(input));
    if new == old {
        Ok(())
    } else {
        Err(format!("input {input:?}\n  borrowing: {new:?}\n  reference: {old:?}"))
    }
}

/// String contents: plain text, every escape the grammar has, broken
/// escapes, surrogate pairs whole and split, multi-byte characters and raw
/// control bytes.
const TEXT: &[&str] = &[
    "phase 1", "t0", "barrier_phase", "", "a", "é", "😀", "μs", "\u{1}", "\t", "\u{7f}",
    "\\\"", "\\\\", "\\/", "\\b", "\\f", "\\n", "\\r", "\\t", "\\u00e9", "\\u0000", "\\u001f",
    "\\ud83d\\ude00", "\\uD83D\\uDE00", "\\ud83d", "\\ud83dx", "\\ud83d\\u0041", "\\udc00",
    "\\ud83d\\", "\\u12", "\\u12g4", "\\x", "\\", "\\é",
];

/// Values: strings (quoted by the generator), numbers at the edges, the
/// keywords and their misspellings, and what is not a value at all.
const SCALARS: &[&str] = &[
    "0", "7", "-0", "-1", "007", "18446744073709551615", "18446744073709551616",
    "9223372036854775807", "-9223372036854775808", "-9223372036854775809",
    "99999999999999999999999", "1.5", "-2.5e-3", "1e400", "1E2", "1e", "-", "--1", "1-2", "0.",
    "true", "false", "null", "tru", "nul", "{}", "[1]", "x", "",
];

/// Separators and stray structure for the scrambled objects.
const GLUE: &[&str] = &["{", "}", "\"", ":", ",", " ", "\n", "\r", "\t", "[", "\u{0}"];

fn pick(rng: &mut SplitMix64, table: &'static [&'static str]) -> &'static str {
    table[rng.below(table.len() as i64) as usize]
}

/// Up to four pieces of string contents.
fn text(rng: &mut SplitMix64) -> String {
    (0..rng.below(5)).map(|_| pick(rng, TEXT)).collect()
}

/// A value: a string literal or a bare scalar.
fn value(rng: &mut SplitMix64) -> String {
    if rng.below(2) == 0 {
        format!("\"{}\"", text(rng))
    } else {
        pick(rng, SCALARS).to_string()
    }
}

/// A flat object of up to five members, each separator optionally padded
/// with whitespace.
fn object(rng: &mut SplitMix64) -> String {
    let pad = |n: usize| [" ", "", "\t", ""][n];
    let members: Vec<String> = (0..rng.below(6))
        .map(|_| {
            let (key, value, n) = (text(rng), value(rng), rng.below(4) as usize);
            format!("{}\"{key}\"{}:{}{value}", pad(n), pad((n + 1) % 4), pad(n))
        })
        .collect();
    format!("{{{}}}", members.join(","))
}

/// Up to fifteen pieces of every kind in any order.
fn scramble(rng: &mut SplitMix64) -> String {
    (0..rng.below(16))
        .map(|_| {
            let table = [TEXT, SCALARS, GLUE, GLUE][rng.below(4) as usize];
            pick(rng, table)
        })
        .collect()
}

#[test]
fn random_flat_objects_parse_as_the_reference_parses_them() {
    let mut rng = SplitMix64::new(1);
    for case in 0..2048 {
        agree(&object(&mut rng)).unwrap_or_else(|e| panic!("case {case}: {e}"));
    }
}

#[test]
fn scrambled_objects_fail_where_the_reference_fails() {
    let mut rng = SplitMix64::new(2);
    for case in 0..2048 {
        let line = scramble(&mut rng);
        agree(&line).unwrap_or_else(|e| panic!("case {case}: {e}"));
        agree(&format!("{{{line}}}")).unwrap_or_else(|e| panic!("case {case}: {e}"));
    }
}

#[test]
fn the_edges_parse_as_the_reference_parses_them() {
    for scalar in SCALARS {
        agree(&format!("{{\"k\":{scalar}}}")).unwrap();
    }
    for text in TEXT {
        agree(&format!("{{\"{text}\":\"{text}\"}}")).unwrap();
        agree(&format!("{{\"k\":\"{text}")).unwrap();
    }
    // Every error the parser has, once each.
    let broken =
        ["", "x", "{", "{\"a\"", "{\"a\":1", "{\"a\":1 x", "{\"a\":1}x", "{a:1}", "{\"a\"1}"];
    for line in broken {
        agree(line).unwrap();
    }
}

fn fixture() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/fixtures/campaign.jsonl");
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

#[test]
fn every_single_byte_mutation_of_a_fixture_line_parses_as_the_reference_parses_it() {
    let trace = fixture();
    for line in trace.lines() {
        agree(line).unwrap();
    }
    // The first line of each record kind, and of each kind of tspan: the
    // lines `tests/trace_schema.rs` mutates.
    let mut seen = Vec::new();
    let mut lines = Vec::new();
    for (rec, line) in records(&trace).zip(trace.lines()) {
        let rec = rec.unwrap();
        let kind = rec.field("kind").and_then(Value::as_str).unwrap_or_default();
        let key = format!("{} {kind}", rec.ev());
        if !seen.contains(&key) {
            seen.push(key);
            lines.push(line.as_bytes());
        }
    }
    assert!(lines.len() >= 11, "nine kinds, three of them tspans: {seen:?}");

    const HOSTILE: &[u8] = b"\"\\{}[],:-+.09eEx \n\t\x00\x7f\x80\xff";
    let check = |bytes: &[u8]| {
        let text = String::from_utf8_lossy(bytes);
        agree(&text).unwrap();
        // What `records` hands the parser when a newline split the line.
        for part in text.lines() {
            agree(part).unwrap();
        }
    };
    for line in lines {
        for at in 0..line.len() {
            check(&line[..at]);
            check(&[&line[..at], &line[at + 1..]].concat());
            for &byte in HOSTILE {
                check(&[&line[..at], &[byte], &line[at + 1..]].concat());
            }
        }
    }
}
