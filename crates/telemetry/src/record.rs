//! The one reader of JSONL trace records.
//!
//! A trace is one flat JSON object per line, blank lines skipped, every
//! record tagged with an `ev` string; [`records`] yields them lazily and
//! fails a line that is anything else with its number. What a record of a
//! given `ev` *means* is decoded by the file that writes it (DESIGN, "Trace
//! schema"), field by field through [`Record::u64`] and [`Record::string`]:
//! an absent field keeps the decoder's default, a present one of the wrong
//! type is an error — the same words whichever view met it.

use crate::json::{parse_flat_object, Value};

/// One parsed trace record.
#[derive(Clone, Debug, PartialEq)]
pub struct Record {
    /// 1-based line number in the trace, for error messages.
    pub line: usize,
    /// Every field, in file order.
    pub fields: Vec<(String, Value)>,
}

impl Record {
    /// The record's type tag: `span`, `sample`, `injection`, `tspan`, …
    /// ([`records`] yields no record without one).
    pub fn ev(&self) -> &str {
        self.field("ev").and_then(Value::as_str).unwrap_or_default()
    }

    /// The named field, if present.
    pub fn field(&self, name: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }

    /// `value`, the field `name` of a record on `line`, as a `u64`.
    pub fn u64(line: usize, name: &str, value: &Value) -> Result<u64, String> {
        value
            .as_u64()
            .ok_or_else(|| format!("line {line}: `{name}` is not a non-negative integer"))
    }

    /// The string in `value`, the field `name` of a record on `line`, moved
    /// out of it (the decoders consume their record).
    pub fn string(line: usize, name: &str, value: &mut Value) -> Result<String, String> {
        match value {
            Value::Str(s) => Ok(std::mem::take(s)),
            _ => Err(format!("line {line}: `{name}` is not a string")),
        }
    }
}

/// The records of a JSONL trace, in file order. Blank lines are skipped;
/// a line that is not a flat JSON object, or has no `ev` string, is an
/// `Err` naming the line.
pub fn records(text: &str) -> impl Iterator<Item = Result<Record, String>> + '_ {
    text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()).map(|(i, text)| {
        let line = i + 1;
        let fields = parse_flat_object(text)
            .map_err(|e| format!("line {line}: {} (offset {})", e.message, e.offset))?;
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
        assert_eq!((recs[0].line, recs[0].ev()), (1, "a"));
        assert_eq!((recs[1].line, recs[1].ev()), (4, "b"));
        assert_eq!(recs[0].field("n"), Some(&Value::U64(1)));
    }

    #[test]
    fn mistyped_fields_are_errors_that_name_line_and_field() {
        assert_eq!(Record::u64(3, "dur", &Value::U64(5)), Ok(5));
        for bad in [Value::I64(-5), Value::from("x"), Value::F64(1.5), Value::Null] {
            let err = Record::u64(3, "dur", &bad).unwrap_err();
            assert_eq!(err, "line 3: `dur` is not a non-negative integer");
        }
        assert_eq!(Record::string(2, "name", &mut Value::from("n")), Ok("n".to_string()));
        let err = Record::string(2, "name", &mut Value::U64(1)).unwrap_err();
        assert_eq!(err, "line 2: `name` is not a string");
    }
}
