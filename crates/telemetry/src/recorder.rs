//! Structured-event recorders: the [`Recorder`] trait, the no-op sink,
//! the JSON Lines sink, and the `span` record of a timed stage.
//!
//! A recorder receives flat `(event name, fields)` records. The JSONL
//! sink stamps each record with a monotonically increasing sequence
//! number and a microsecond offset from recorder creation, then writes
//! one JSON object per line — the format `bw stats` reads back.

use std::borrow::Cow;
use std::fs::File;
use std::fmt::Write as _;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::json::{write_json_str, write_json_value, Value};
use crate::record::Record;

/// A sink for structured telemetry events.
///
/// Implementations must be cheap to call concurrently; the contract is
/// "fire and forget" — errors are swallowed (telemetry must never turn a
/// correct run into a failing one).
pub trait Recorder: Send + Sync {
    /// Records one event with its fields.
    fn record(&self, event: &str, fields: &[(&str, Value<'_>)]);

    /// Flushes any buffered output (best effort).
    fn flush(&self) {}
}

/// A recorder that discards everything. Used when no `--telemetry` sink
/// is configured, so instrumented code can always hold a `&dyn Recorder`
/// without an `Option` in the hot path.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    #[inline]
    fn record(&self, _event: &str, _fields: &[(&str, Value<'_>)]) {}
}

/// The shared no-op recorder.
pub static NULL_RECORDER: NullRecorder = NullRecorder;

/// A recorder that writes one JSON object per event to a byte sink
/// (JSON Lines). Every record carries `seq` (its position in the output)
/// and `t_us` (microseconds since the recorder was created) before the
/// caller's fields.
pub struct JsonlRecorder {
    /// Records written; advanced under `out`'s lock, so lines are in `seq`
    /// order whatever the number of writers.
    seq: AtomicU64,
    start: Instant,
    out: Mutex<LineWriter>,
}

/// The byte sink and the buffer each line is rendered into before it is
/// written, kept between records.
struct LineWriter {
    line: String,
    writer: BufWriter<Box<dyn Write + Send>>,
}

impl JsonlRecorder {
    /// Wraps an arbitrary writer.
    pub fn new(out: Box<dyn Write + Send>) -> Self {
        JsonlRecorder {
            seq: AtomicU64::new(0),
            start: Instant::now(),
            out: Mutex::new(LineWriter { line: String::new(), writer: BufWriter::new(out) }),
        }
    }

    /// Creates (truncating) `path` and records into it.
    pub fn create(path: &Path) -> io::Result<Self> {
        let file = File::create(path)?;
        Ok(Self::new(Box::new(file)))
    }

    /// Number of records emitted so far.
    pub fn records_emitted(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }
}

impl Recorder for JsonlRecorder {
    fn record(&self, event: &str, fields: &[(&str, Value<'_>)]) {
        // A writer that panicked mid-record poisons the lock; the trace
        // ends there rather than failing the run.
        let Ok(mut out) = self.out.lock() else { return };
        let LineWriter { line, writer } = &mut *out;
        // Only ever advanced here, under the lock: `Relaxed` publishes
        // nothing but the count itself.
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let t_us = self.start.elapsed().as_micros() as u64;
        line.clear();
        let _ = write!(line, "{{\"seq\":{seq},\"t_us\":{t_us},\"ev\":");
        write_json_str(line, event);
        for (key, value) in fields {
            line.push(',');
            write_json_str(line, key);
            line.push(':');
            write_json_value(line, value);
        }
        line.push_str("}\n");
        // Best effort: a full disk must not fail the run.
        let _ = writer.write_all(line.as_bytes());
    }

    fn flush(&self) {
        if let Ok(mut out) = self.out.lock() {
            let _ = out.writer.flush();
        }
    }
}

impl Drop for JsonlRecorder {
    fn drop(&mut self) {
        Recorder::flush(self);
    }
}

/// An in-memory trace: a byte sink any number of recorders can be built on
/// and whose text is read back with [`TraceBuffer::text`] — what the
/// round-trip tests of every record kind write through.
#[derive(Clone, Debug, Default)]
pub struct TraceBuffer(Arc<Mutex<Vec<u8>>>);

impl TraceBuffer {
    /// A recorder writing into this buffer.
    pub fn recorder(&self) -> JsonlRecorder {
        JsonlRecorder::new(Box::new(self.clone()))
    }

    /// Everything flushed into the buffer so far.
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.0.lock().unwrap_or_else(|e| e.into_inner())).into_owned()
    }

    /// Each line from its `ev` on: the part the caller's fields decide,
    /// without the recorder's `seq` / `t_us` envelope in front of it.
    pub fn bodies(&self) -> Vec<String> {
        let from_ev = |l: &str| l.find("\"ev\"").map(|at| l[at..].to_string());
        self.text().lines().filter_map(from_ev).collect()
    }
}

impl Write for TraceBuffer {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.lock().unwrap_or_else(|e| e.into_inner()).extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// One `span` record: how long a named stage took on the wall clock. What
/// a campaign writes per stage and `bw stats` aggregates per name.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SpanRecord<'a> {
    /// Stage name.
    pub name: Cow<'a, str>,
    /// Wall-clock microseconds from enter to finish.
    pub dur_us: u64,
}

impl<'a> SpanRecord<'a> {
    /// The `ev` tag of the record.
    pub const EV: &'static str = "span";

    /// Writes the record, the caller's `extra` fields after its own.
    pub fn record_to(&self, recorder: &dyn Recorder, extra: &[(&str, Value<'_>)]) {
        let mut fields = Vec::with_capacity(extra.len() + 2);
        fields.push(("name", Value::from(&*self.name)));
        fields.push(("dur_us", Value::U64(self.dur_us)));
        fields.extend_from_slice(extra);
        recorder.record(Self::EV, &fields);
    }

    /// Decodes a `span` record; a missing name reads as `?`.
    pub fn from_record(rec: Record<'a>) -> Result<SpanRecord<'a>, String> {
        let mut span = SpanRecord { name: Cow::Borrowed("?"), dur_us: 0 };
        for (name, value) in rec.fields {
            match &*name {
                "name" => span.name = Record::string(rec.line, &name, value)?,
                "dur_us" => span.dur_us = Record::u64(rec.line, &name, &value)?,
                _ => {}
            }
        }
        Ok(span)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::records;

    fn lines_of(buf: &TraceBuffer) -> Vec<Vec<(String, Value<'static>)>> {
        let text = buf.text();
        let fields = |rec: Record<'_>| -> Vec<_> {
            rec.fields.into_iter().map(|(k, v)| (k.into_owned(), v.into_owned())).collect()
        };
        records(&text).map(|r| fields(r.expect("valid JSONL line"))).collect()
    }

    #[test]
    fn jsonl_records_are_sequenced_and_parseable() {
        let buf = TraceBuffer::default();
        let rec = buf.recorder();
        rec.record("alpha", &[("n", Value::U64(1))]);
        rec.record("beta", &[("s", Value::from("x\"y"))]);
        rec.flush();
        let lines = lines_of(&buf);
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0][0], ("seq".to_string(), Value::U64(0)));
        assert_eq!(lines[1][0], ("seq".to_string(), Value::U64(1)));
        assert_eq!(lines[0][2], ("ev".to_string(), Value::from("alpha")));
        assert_eq!(lines[1][3], ("s".to_string(), Value::from("x\"y")));
        assert_eq!(rec.records_emitted(), 2);
    }

    #[test]
    fn span_records_round_trip() {
        let mut rng = bw_vm::SplitMix64::new(1);
        for case in 0..64 {
            let name: String = (0..rng.below(13))
                .map(|_| match rng.below(96) as u8 { 95 => 'é', i => char::from(b' ' + i) })
                .collect();
            let span = SpanRecord { name: name.into(), dur_us: rng.next_u64() };
            let buf = TraceBuffer::default();
            span.record_to(&buf.recorder(), &[("items", Value::U64(7))]);
            let text = buf.text();
            let back = records(&text).next().unwrap().and_then(SpanRecord::from_record);
            assert_eq!(back, Ok(span), "case {case}");
        }
    }

    #[test]
    fn span_record_wire_format_is_pinned() {
        let buf = TraceBuffer::default();
        let span = SpanRecord { name: "campaign.plan".into(), dur_us: 10 };
        span.record_to(&buf.recorder(), &[("injections", Value::U64(40))]);
        let pinned = r#""ev":"span","name":"campaign.plan","dur_us":10,"injections":40}"#;
        assert_eq!(buf.bodies(), [pinned]);
        let mistyped = r#"{"ev":"span","name":"x","dur_us":"soon"}"#;
        let err = records(mistyped).next().unwrap().and_then(SpanRecord::from_record);
        assert_eq!(err, Err("line 1: `dur_us` is not a non-negative integer".to_string()));
    }

    #[test]
    fn null_recorder_is_inert() {
        NULL_RECORDER.record("anything", &[("k", Value::Null)]);
        NULL_RECORDER.flush();
    }

    #[test]
    fn recorder_is_object_safe_and_shareable() {
        let rec: Arc<dyn Recorder> = Arc::new(NullRecorder);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let rec = Arc::clone(&rec);
                s.spawn(move || rec.record("e", &[]));
            }
        });
    }
}
