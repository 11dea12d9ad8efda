//! The background sampler: periodic registry deltas as trace records.
//!
//! A [`Sampler`] polls a [`MetricRegistry`] on a fixed interval and emits
//! one flat `sample` record per tick into a [`Recorder`]: counter
//! *deltas* since the previous tick (only the ones that moved), every
//! gauge's current value, plus `tick` / `dt_us` bookkeeping. The registry
//! holds no histograms: their shape travels in the end-of-run `histogram`
//! records, and per-tick bucket dumps would swamp the trace.
//!
//! `sample` records are time series, not forensics: `bw report` ignores
//! them (its parser keeps only `injection` / `violation` events), and
//! nothing the sampler emits flows into a run's result snapshot, so
//! same-seed determinism is untouched by whether a sampler was running.
//!
//! A final tick is always flushed on [`Sampler::stop`] (or drop), so even
//! a run shorter than one interval leaves at least one sample behind.

use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use crate::json::{Fields, Value};
use crate::record::Record;
use crate::recorder::Recorder;
use crate::registry::MetricRegistry;
use crate::snapshot::TelemetrySnapshot;

/// Granularity of the stop check while waiting out an interval.
const SLEEP_SLICE: Duration = Duration::from_millis(5);

/// Builds one `sample` record's fields from two consecutive registry
/// snapshots: counter deltas (changed counters only, saturating so
/// snapshots passed out of order cannot underflow) and absolute gauge
/// values.
pub fn sample_fields(
    prev: &TelemetrySnapshot,
    cur: &TelemetrySnapshot,
    tick: u64,
    dt_us: u64,
) -> Vec<(String, Value<'static>)> {
    let mut fields = vec![
        ("tick".to_string(), Value::U64(tick)),
        ("dt_us".to_string(), Value::U64(dt_us)),
    ];
    for (name, &v) in cur.counters().iter().map(|(n, v)| (n, v)) {
        let delta = v.saturating_sub(prev.counter(name).unwrap_or(0));
        if delta > 0 {
            fields.push((name.clone(), Value::U64(delta)));
        }
    }
    for (name, &v) in cur.gauges().iter().map(|(n, v)| (n, v)) {
        fields.push((name.clone(), Value::U64(v)));
    }
    fields
}

/// Writes one `sample` record of `fields` (what [`sample_fields`] built).
pub fn record_sample(recorder: &dyn Recorder, fields: &[(String, Value<'_>)]) {
    let borrowed: Vec<(&str, Value)> =
        fields.iter().map(|(k, v)| (k.as_str(), v.clone())).collect();
    recorder.record(SampleTick::EV, &borrowed);
}

/// One `sample` record read back: a timestamped delta snapshot, the
/// decoded form of what [`sample_fields`] builds. Its values are the
/// record's own fields, names still borrowed from the trace text.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SampleTick<'a> {
    /// 1-based sample index.
    pub tick: u64,
    /// Wall-clock microseconds covered by this tick.
    pub dt_us: u64,
    /// Counter *deltas* and absolute gauge values, in record order, each a
    /// `Value::U64` ([`SampleTick::from_record`] checked).
    values: Fields<'a>,
}

impl<'a> SampleTick<'a> {
    /// The `ev` tag of the record.
    pub const EV: &'static str = "sample";

    /// Decodes a `sample` record: every field but the bookkeeping ones and
    /// the recorder's envelope is a metric value. A `warn` field, which
    /// samplers wrote while senders could drop events, is skipped.
    pub fn from_record(rec: Record<'a>) -> Result<SampleTick<'a>, String> {
        let Record { line, mut fields } = rec;
        let mut tick = SampleTick::default();
        // The metric values are moved to the front of `fields`, which is
        // then cut to them.
        let mut values = 0;
        for at in 0..fields.len() {
            let (name, value) = &fields[at];
            match &**name {
                "seq" | "t_us" | "ev" | "warn" => {}
                "tick" => tick.tick = Record::u64(line, name, value)?,
                "dt_us" => tick.dt_us = Record::u64(line, name, value)?,
                _ => {
                    Record::u64(line, name, value)?;
                    fields.swap(values, at);
                    values += 1;
                }
            }
        }
        fields.truncate(values);
        tick.values = fields;
        Ok(tick)
    }

    /// The counter deltas and gauge values, in record order.
    pub fn values(&self) -> impl Iterator<Item = (&str, u64)> + '_ {
        self.values.iter().map(|(name, value)| (&**name, value.as_u64().unwrap_or_default()))
    }

    /// The named value in this tick, if present.
    pub fn value(&self, name: &str) -> Option<u64> {
        self.values().find(|&(n, _)| n == name).map(|(_, v)| v)
    }

    /// A counter delta as a per-second rate over this tick's interval.
    pub fn rate(&self, name: &str) -> f64 {
        if self.dt_us == 0 {
            return 0.0;
        }
        self.value(name).unwrap_or(0) as f64 * 1e6 / self.dt_us as f64
    }
}

/// A background thread emitting periodic `sample` records (see the
/// module docs). Stops — flushing one final tick — on [`Sampler::stop`]
/// or drop.
#[derive(Debug)]
pub struct Sampler {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl Sampler {
    /// Starts sampling `registry` into `recorder` every `interval`
    /// (clamped to at least 1ms). Fails only when the sampler thread
    /// cannot be spawned.
    pub fn start(
        registry: Arc<MetricRegistry>,
        recorder: Arc<dyn Recorder>,
        interval: Duration,
    ) -> io::Result<Sampler> {
        let stop = Arc::new(AtomicBool::new(false));
        let interval = interval.max(Duration::from_millis(1));
        let thread_stop = Arc::clone(&stop);
        // Baseline taken here, not on the sampler thread: whatever the
        // caller counts after `start` returns belongs to the first tick,
        // however late the thread is first scheduled.
        let mut prev = registry.snapshot();
        let mut last = Instant::now();
        let handle = thread::Builder::new()
            .name("bw-sampler".to_string())
            .spawn(move || {
                let mut tick = 0u64;
                loop {
                    while last.elapsed() < interval && !thread_stop.load(Ordering::Acquire) {
                        thread::sleep(SLEEP_SLICE.min(interval));
                    }
                    let stopping = thread_stop.load(Ordering::Acquire);
                    let now = Instant::now();
                    let dt_us = (now - last).as_micros() as u64;
                    last = now;
                    let cur = registry.snapshot();
                    tick += 1;
                    record_sample(recorder.as_ref(), &sample_fields(&prev, &cur, tick, dt_us));
                    prev = cur;
                    if stopping {
                        recorder.flush();
                        break;
                    }
                }
            })?;
        Ok(Sampler {
            stop,
            handle: Some(handle),
        })
    }

    /// Stops the sampler, flushing a final partial-interval tick.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(counters: &[(&str, u64)], gauges: &[(&str, u64)]) -> TelemetrySnapshot {
        let mut s = TelemetrySnapshot::new();
        for &(n, v) in counters {
            s.push_counter(n, v);
        }
        for &(n, v) in gauges {
            s.push_gauge(n, v);
        }
        s
    }

    #[test]
    fn deltas_skip_unchanged_counters_and_keep_gauges_absolute() {
        let prev = snap(&[("live.a", 10), ("live.b", 4)], &[("live.depth", 9)]);
        let cur = snap(&[("live.a", 15), ("live.b", 4)], &[("live.depth", 2)]);
        let fields = sample_fields(&prev, &cur, 3, 50_000);
        assert_eq!(fields[0], ("tick".to_string(), Value::U64(3)));
        assert_eq!(fields[1], ("dt_us".to_string(), Value::U64(50_000)));
        assert_eq!(fields[2], ("live.a".to_string(), Value::U64(5)));
        assert_eq!(fields[3], ("live.depth".to_string(), Value::U64(2)));
        assert_eq!(fields.len(), 4);
    }

    #[test]
    fn an_old_warn_marker_is_skipped() {
        let old = r#"{"ev":"sample","tick":2,"dt_us":9,"live.a":7,"warn":"events_dropped"}"#;
        let tick = crate::records(old).next().unwrap().and_then(SampleTick::from_record).unwrap();
        assert_eq!((tick.tick, tick.dt_us), (2, 9));
        assert_eq!(tick.values().collect::<Vec<_>>(), [("live.a", 7)]);
    }

    #[test]
    fn counter_resets_saturate_instead_of_underflowing() {
        let prev = snap(&[("live.a", 100)], &[]);
        let cur = snap(&[("live.a", 30)], &[]);
        let fields = sample_fields(&prev, &cur, 1, 1000);
        // 30 < 100: the count went backwards; no delta.
        assert!(!fields.iter().any(|(k, _)| k == "live.a"));
    }

    #[test]
    fn counter_created_mid_tick_reports_its_full_value() {
        // A counter created between two ticks has no `prev` entry; its
        // whole count is this interval's delta, not silently zero.
        let prev = snap(&[], &[]);
        let cur = snap(&[("live.born", 42)], &[("live.born_gauge", 7)]);
        let fields = sample_fields(&prev, &cur, 1, 1000);
        assert!(fields.contains(&("live.born".to_string(), Value::U64(42))), "{fields:?}");
        assert!(fields.contains(&("live.born_gauge".to_string(), Value::U64(7))));
    }

    #[test]
    fn sample_records_round_trip() {
        let mut rng = bw_vm::SplitMix64::new(1);
        for case in 0..64 {
            let deltas: Vec<(u64, u64)> =
                (0..rng.below(6)).map(|_| (rng.below(6) as u64, rng.next_u64())).collect();
            let (tick, dt_us) = (rng.next_u64(), rng.next_u64());
            // Counters 0..6, each also a gauge.
            let cur: Vec<(String, u64)> =
                deltas.iter().map(|&(i, v)| (format!("live.c{i}"), v)).collect();
            let cur: Vec<(&str, u64)> = cur.iter().map(|(n, v)| (n.as_str(), *v)).collect();
            let fields = sample_fields(&snap(&[], &[]), &snap(&cur, &cur), tick, dt_us);
            let buf = crate::TraceBuffer::default();
            record_sample(&buf.recorder(), &fields);
            let text = buf.text();
            let back = crate::records(&text).next().unwrap().and_then(SampleTick::from_record);
            let values =
                fields[2..].iter().map(|(k, v)| (k.as_str().into(), v.clone())).collect();
            let sample = SampleTick { tick, dt_us, values };
            assert_eq!(back, Ok(sample), "case {case}: {deltas:?}, tick {tick}, dt_us {dt_us}");
        }
    }

    #[test]
    fn sample_record_wire_format_is_pinned() {
        let prev = snap(&[("live.a", 1), ("live.b", 0)], &[]);
        let cur = snap(&[("live.a", 4), ("live.b", 2)], &[("live.depth", 9)]);
        let buf = crate::TraceBuffer::default();
        record_sample(&buf.recorder(), &sample_fields(&prev, &cur, 3, 5000));
        let pinned = r#""ev":"sample","tick":3,"dt_us":5000,"live.a":3,"live.b":2,"live.depth":9}"#;
        assert_eq!(buf.bodies(), [pinned]);
        let mistyped = r#"{"ev":"sample","tick":1,"dt_us":"5ms"}"#;
        let err = crate::records(mistyped).next().unwrap().and_then(SampleTick::from_record);
        assert_eq!(err, Err("line 1: `dt_us` is not a non-negative integer".to_string()));
    }

    #[test]
    fn stop_before_first_tick_still_flushes_one_sample() {
        let registry = Arc::new(MetricRegistry::new());
        let buf = crate::TraceBuffer::default();
        let rec = Arc::new(buf.recorder());
        // Interval far longer than the test: the only record comes from
        // the final flush-on-stop tick.
        let sampler = Sampler::start(
            Arc::clone(&registry),
            rec as Arc<dyn Recorder>,
            Duration::from_secs(3600),
        )
        .unwrap();
        // Bumped after the sampler's baseline snapshot, so the partial
        // interval has a nonzero delta to report.
        registry.counter("live.sampler_test.early").add(3);
        sampler.stop();
        let text = buf.text();
        let samples: Vec<&str> =
            text.lines().filter(|l| l.contains("\"ev\":\"sample\"")).collect();
        assert_eq!(samples.len(), 1, "exactly the final tick: {text}");
        assert!(samples[0].contains("\"tick\":1"), "{text}");
        assert!(samples[0].contains("\"live.sampler_test.early\":3"), "{text}");
    }
}
