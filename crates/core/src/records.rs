//! The one reader of JSONL trace records.
//!
//! Every view of a trace — [`crate::TraceSummary`] (`bw stats`),
//! [`crate::SeriesReport`] (`bw top`), [`crate::ForensicsReport`]
//! (`bw report`) and [`crate::TimelineReport`] (`bw timeline`) — is a fold
//! over [`records`], so they agree on what a well-formed trace is: one
//! flat JSON object per line, blank lines skipped, every record tagged
//! with an `ev` string. Anything else fails the parse with its line
//! number, with the same text whichever view met it.

use bw_telemetry::{parse_flat_object, Value};

/// One parsed trace record.
pub(crate) struct Record {
    /// 1-based line number in the trace, for error messages.
    pub line: usize,
    /// Every field, in file order.
    pub fields: Vec<(String, Value)>,
}

impl Record {
    /// The record's type tag: `span`, `sample`, `injection`, `tspan`, …
    /// ([`records`] yields no record without one).
    pub fn ev(&self) -> &str {
        self.field_str("ev").unwrap_or_default()
    }

    /// The named field, if present.
    pub fn field(&self, name: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }

    /// The named field as a string, if present and one.
    pub fn field_str(&self, name: &str) -> Option<&str> {
        self.field(name).and_then(Value::as_str)
    }

    /// The named field as a `u64`; absent or not a number reads as 0.
    pub fn field_u64(&self, name: &str) -> u64 {
        self.field(name).and_then(Value::as_u64).unwrap_or(0)
    }
}

/// The records of a JSONL trace, in file order. Blank lines are skipped;
/// a line that is not a flat JSON object, or has no `ev` string, is an
/// `Err` naming the line.
pub(crate) fn records(text: &str) -> impl Iterator<Item = Result<Record, String>> + '_ {
    text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()).map(|(i, text)| {
        let line = i + 1;
        let fields = parse_flat_object(text)
            .map_err(|e| format!("line {line}: {} (offset {})", e.message, e.offset))?;
        let record = Record { line, fields };
        match record.field_str("ev") {
            Some(_) => Ok(record),
            None => Err(format!("line {line}: record has no `ev` field")),
        }
    })
}

#[cfg(test)]
mod tests {
    use crate::{ForensicsReport, SeriesReport, TimelineReport, TraceSummary};

    /// What each of the four views says about `trace`.
    fn errors(trace: &str) -> [Option<String>; 4] {
        [
            TraceSummary::parse(trace).err(),
            SeriesReport::parse(trace).err(),
            ForensicsReport::parse(trace).err(),
            TimelineReport::parse(trace).err(),
        ]
    }

    #[test]
    fn all_four_views_reject_a_malformed_trace_with_the_same_words() {
        const GOOD: &str = r#"{"seq":0,"t_us":1,"ev":"counter","name":"c","value":3}"#;

        // Bad JSON on line 3 (the blank line 2 is skipped, not counted out).
        let bad_json = format!("{GOOD}\n\n{{\"seq\":1,\"ev\":\n{GOOD}\n");
        let said = errors(&bad_json);
        let first = said[0].clone().expect("bad JSON is an error");
        assert!(first.starts_with("line 3: ") && first.contains("(offset "), "{first}");
        assert!(said.iter().all(|e| e.as_ref() == Some(&first)), "{said:?}");

        // A record without `ev` — `bw timeline` used to skip it in silence —
        // and one whose `ev` is not a string.
        for untagged in [r#"{"seq":1,"t_us":2,"name":"c"}"#, r#"{"seq":1,"ev":7}"#] {
            let said = errors(&format!("{GOOD}\n{untagged}\n"));
            let expected = Some("line 2: record has no `ev` field".to_string());
            assert!(said.iter().all(|e| *e == expected), "{untagged}: {said:?}");
        }

        assert_eq!(errors(&format!("{GOOD}\n\n{GOOD}\n")), [None, None, None, None]);
    }
}
