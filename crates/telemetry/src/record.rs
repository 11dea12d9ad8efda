//! The one reader of JSONL trace records.
//!
//! A trace is one flat JSON object per line, blank lines skipped, every
//! record tagged with an `ev` string; [`records`] yields them lazily and
//! fails a line that is anything else with its number. A [`Record`]
//! borrows from the trace text: its keys and string values are slices of
//! the line (copied only where the line escaped them), so reading a record
//! allocates its field `Vec` and nothing else. What a record of a given
//! `ev` *means* is decoded by the file that writes it (DESIGN, "Trace
//! schema"), field by field through [`Record::u64`] and [`Record::string`]:
//! an absent field keeps the decoder's default, a present one of the wrong
//! type is an error — the same words whichever view met it. A decoded
//! record borrows its strings in turn; a view copies what it keeps, and
//! only once per distinct name.

use std::borrow::Cow;

use crate::json::{parse_flat_object_into, Fields, Value};

/// One parsed trace record, borrowing from the trace text.
#[derive(Clone, Debug, PartialEq)]
pub struct Record<'a> {
    /// 1-based line number in the trace, for error messages.
    pub line: usize,
    /// Every field, in file order.
    pub fields: Fields<'a>,
}

impl<'a> Record<'a> {
    /// The record's type tag: `span`, `sample`, `injection`, `tspan`, …
    /// ([`records`] yields no record without one), borrowed from the trace
    /// text unless the line escaped it.
    pub fn ev(&self) -> Cow<'a, str> {
        match self.field("ev") {
            Some(Value::Str(ev)) => ev.clone(),
            _ => Cow::Borrowed(""),
        }
    }

    /// The named field, if present.
    pub fn field(&self, name: &str) -> Option<&Value<'a>> {
        self.fields.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }

    /// `value`, the field `name` of a record on `line`, as a `u64`.
    pub fn u64(line: usize, name: &str, value: &Value) -> Result<u64, String> {
        value
            .as_u64()
            .ok_or_else(|| format!("line {line}: `{name}` is not a non-negative integer"))
    }

    /// The string in `value`, the field `name` of a record on `line` (still
    /// borrowed from the trace text where it was).
    pub fn string(line: usize, name: &str, value: Value<'a>) -> Result<Cow<'a, str>, String> {
        match value {
            Value::Str(s) => Ok(s),
            _ => Err(format!("line {line}: `{name}` is not a string")),
        }
    }
}

/// The records of a JSONL trace, in file order. Blank lines are skipped;
/// a line that is not a flat JSON object, or has no `ev` string, is an
/// `Err` naming the line.
pub fn records(text: &str) -> impl Iterator<Item = Result<Record<'_>, String>> + '_ {
    // Every line is parsed into one buffer and moved out of it into a `Vec`
    // of exactly its length: one allocation per record.
    let mut parsed = Vec::new();
    text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()).map(move |(i, text)| {
        let line = i + 1;
        parse_flat_object_into(text, &mut parsed)
            .map_err(|e| format!("line {line}: {} (offset {})", e.message, e.offset))?;
        let mut fields = Vec::with_capacity(parsed.len());
        fields.append(&mut parsed);
        let record = Record { line, fields };
        match record.field("ev") {
            Some(Value::Str(_)) => Ok(record),
            _ => Err(format!("line {line}: record has no `ev` field")),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_skip_blank_lines_and_number_the_rest() {
        let text = "{\"ev\":\"a\",\"n\":1}\n\n  \n{\"ev\":\"b\"}\n";
        let recs: Vec<Record> = records(text).map(Result::unwrap).collect();
        assert_eq!(recs.len(), 2);
        assert_eq!((recs[0].line, &*recs[0].ev()), (1, "a"));
        assert_eq!((recs[1].line, &*recs[1].ev()), (4, "b"));
        assert_eq!(recs[0].field("n"), Some(&Value::U64(1)));
    }

    #[test]
    fn mistyped_fields_are_errors_that_name_line_and_field() {
        assert_eq!(Record::u64(3, "dur", &Value::U64(5)), Ok(5));
        for bad in [Value::I64(-5), Value::from("x"), Value::F64(1.5), Value::Null] {
            let err = Record::u64(3, "dur", &bad).unwrap_err();
            assert_eq!(err, "line 3: `dur` is not a non-negative integer");
        }
        assert_eq!(Record::string(2, "name", Value::from("n")), Ok(Cow::Borrowed("n")));
        let err = Record::string(2, "name", Value::U64(1)).unwrap_err();
        assert_eq!(err, "line 2: `name` is not a string");
    }
}
