//! Structured-event recorders: the [`Recorder`] trait, the no-op sink,
//! the JSON Lines sink, and the RAII [`Span`] timer.
//!
//! A recorder receives flat `(event name, fields)` records. The JSONL
//! sink stamps each record with a monotonically increasing sequence
//! number and a microsecond offset from recorder creation, then writes
//! one JSON object per line — the format `bw stats` reads back.

use std::fs::File;
use std::fmt::Write as _;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::json::{write_json_str, write_json_value, Value};

/// A sink for structured telemetry events.
///
/// Implementations must be cheap to call concurrently; the contract is
/// "fire and forget" — errors are swallowed (telemetry must never turn a
/// correct run into a failing one).
pub trait Recorder: Send + Sync {
    /// Records one event with its fields.
    fn record(&self, event: &str, fields: &[(&str, Value)]);

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
    fn record(&self, _event: &str, _fields: &[(&str, Value)]) {}
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
    fn record(&self, event: &str, fields: &[(&str, Value)]) {
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

/// An RAII timer: created via [`Span::enter`],
/// it emits a `span` event with the measured `dur_us` when dropped.
pub struct Span<'a> {
    recorder: &'a dyn Recorder,
    name: &'static str,
    start: Instant,
    done: bool,
}

impl<'a> Span<'a> {
    /// Starts a named span against `recorder`.
    pub fn enter(recorder: &'a dyn Recorder, name: &'static str) -> Self {
        Span {
            recorder,
            name,
            start: Instant::now(),
            done: false,
        }
    }

    /// Ends the span early, attaching extra fields to the `span` record.
    pub fn finish(mut self, fields: &[(&str, Value)]) {
        self.done = true;
        let dur = self.start.elapsed().as_micros() as u64;
        let mut all = Vec::with_capacity(fields.len() + 2);
        all.push(("name", Value::from(self.name)));
        all.push(("dur_us", Value::U64(dur)));
        all.extend(fields.iter().map(|(k, v)| (*k, v.clone())));
        self.recorder.record("span", &all);
    }

    /// Microseconds elapsed since the span was entered.
    pub fn elapsed_us(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if !self.done {
            let dur = self.start.elapsed().as_micros() as u64;
            self.recorder.record(
                "span",
                &[("name", Value::from(self.name)), ("dur_us", Value::U64(dur))],
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse_flat_object;
    use std::sync::Arc;

    /// A writer that appends into a shared buffer so tests can read back
    /// what the recorder emitted.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn lines_of(buf: &SharedBuf) -> Vec<Vec<(String, Value)>> {
        let bytes = buf.0.lock().unwrap().clone();
        String::from_utf8(bytes)
            .unwrap()
            .lines()
            .map(|l| parse_flat_object(l).expect("valid JSONL line"))
            .collect()
    }

    #[test]
    fn jsonl_records_are_sequenced_and_parseable() {
        let buf = SharedBuf::default();
        let rec = JsonlRecorder::new(Box::new(buf.clone()));
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
    fn span_emits_duration_on_drop() {
        let buf = SharedBuf::default();
        let rec = JsonlRecorder::new(Box::new(buf.clone()));
        {
            let _span = Span::enter(&rec, "stage");
        }
        Span::enter(&rec, "late").finish(&[("items", Value::U64(7))]);
        rec.flush();
        let lines = lines_of(&buf);
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0][2], ("ev".to_string(), Value::from("span")));
        assert_eq!(lines[0][3], ("name".to_string(), Value::from("stage")));
        assert_eq!(lines[0][4].0, "dur_us");
        assert_eq!(lines[1][5], ("items".to_string(), Value::U64(7)));
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
