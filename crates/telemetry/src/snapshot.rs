//! Plain-data snapshots of a run's metrics.
//!
//! A [`TelemetrySnapshot`] is the export format every layer (VM, monitor,
//! campaign engine, pipeline) hands upward: named counters, gauges and
//! histogram snapshots, detached from the atomics they were read from.
//! Snapshots merge (for fan-in across workers or layers) and prefix (so
//! `vm.` / `monitor.` / `campaign.` namespaces stay disjoint).

use std::borrow::Cow;

use crate::json::Value;
use crate::metrics::HistogramSnapshot;
use crate::record::Record;
use crate::recorder::Recorder;

/// Named metric values captured at a point in time.
///
/// Counters and gauges are deterministic for a deterministic run (same
/// seed ⇒ same values); histograms may hold wall-clock timings and are
/// therefore excluded from determinism comparisons.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TelemetrySnapshot {
    counters: Vec<(String, u64)>,
    gauges: Vec<(String, u64)>,
    histograms: Vec<(String, HistogramSnapshot)>,
}

impl TelemetrySnapshot {
    /// An empty snapshot.
    pub fn new() -> Self {
        Self::default()
    }

    /// True when no metric has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Adds (or accumulates into) a counter. The name is copied only the
    /// first time it is seen.
    pub fn push_counter(&mut self, name: impl AsRef<str> + Into<String>, value: u64) {
        match self.counters.iter_mut().find(|(n, _)| n == name.as_ref()) {
            Some((_, v)) => *v = v.saturating_add(value),
            None => self.counters.push((name.into(), value)),
        }
    }

    /// Adds (or raises) a gauge; merging keeps the maximum, matching the
    /// high-water semantics of [`crate::Gauge::record_max`].
    pub fn push_gauge(&mut self, name: impl AsRef<str> + Into<String>, value: u64) {
        match self.gauges.iter_mut().find(|(n, _)| n == name.as_ref()) {
            Some((_, v)) => *v = (*v).max(value),
            None => self.gauges.push((name.into(), value)),
        }
    }

    /// Adds (or folds into) a histogram snapshot.
    pub fn push_histogram(
        &mut self,
        name: impl AsRef<str> + Into<String>,
        snap: HistogramSnapshot,
    ) {
        match self.histograms.iter_mut().find(|(n, _)| n == name.as_ref()) {
            Some((_, h)) => merge_histograms(h, &snap),
            None => self.histograms.push((name.into(), snap)),
        }
    }

    /// Counter entries, in insertion order.
    pub fn counters(&self) -> &[(String, u64)] {
        &self.counters
    }

    /// Gauge entries, in insertion order.
    pub fn gauges(&self) -> &[(String, u64)] {
        &self.gauges
    }

    /// Histogram entries, in insertion order.
    pub fn histograms(&self) -> &[(String, HistogramSnapshot)] {
        &self.histograms
    }

    /// Looks up a counter by exact name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Looks up a gauge by exact name.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Looks up a histogram by exact name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Folds `other` into `self`: counters add, gauges keep the max,
    /// histograms merge bucket-wise.
    pub fn merge(&mut self, other: &TelemetrySnapshot) {
        for (n, v) in &other.counters {
            self.push_counter(n, *v);
        }
        for (n, v) in &other.gauges {
            self.push_gauge(n, *v);
        }
        for (n, h) in &other.histograms {
            self.push_histogram(n, h.clone());
        }
    }

    /// Returns a copy with `prefix` prepended to every metric name
    /// (`prefix` should include its trailing separator, e.g. `"vm."`).
    pub fn prefixed(&self, prefix: &str) -> TelemetrySnapshot {
        TelemetrySnapshot {
            counters: self
                .counters
                .iter()
                .map(|(n, v)| (format!("{prefix}{n}"), *v))
                .collect(),
            gauges: self
                .gauges
                .iter()
                .map(|(n, v)| (format!("{prefix}{n}"), *v))
                .collect(),
            histograms: self
                .histograms
                .iter()
                .map(|(n, h)| (format!("{prefix}{n}"), h.clone()))
                .collect(),
        }
    }

    /// The deterministic subset (counters and gauges only), for
    /// same-seed reproducibility comparisons.
    pub fn deterministic_part(&self) -> TelemetrySnapshot {
        TelemetrySnapshot {
            counters: self.counters.clone(),
            gauges: self.gauges.clone(),
            histograms: Vec::new(),
        }
    }

    /// Emits every metric to `recorder` as `counter` / `gauge` /
    /// `histogram` records ([`Metric`] reads them back).
    pub fn record_to(&self, recorder: &dyn Recorder) {
        for (n, v) in &self.counters {
            record_scalar(recorder, COUNTER, n, *v);
        }
        for (n, v) in &self.gauges {
            record_scalar(recorder, GAUGE, n, *v);
        }
        for (n, h) in &self.histograms {
            record_histogram(recorder, n, h);
        }
    }

    /// Folds one decoded metric record in: what `push_counter`,
    /// `push_gauge` or `push_histogram` would do with it.
    pub fn absorb(&mut self, metric: Metric<'_>) {
        match metric {
            Metric::Counter(name, value) => self.push_counter(name, value),
            Metric::Gauge(name, value) => self.push_gauge(name, value),
            Metric::Histogram(name, snap) => self.push_histogram(name, snap),
        }
    }

    /// Sorts counters, gauges and histograms by name.
    pub fn sort(&mut self) {
        self.counters.sort();
        self.gauges.sort();
        self.histograms.sort_by(|a, b| a.0.cmp(&b.0));
    }
}

const COUNTER: &str = "counter";
const GAUGE: &str = "gauge";
const HISTOGRAM: &str = "histogram";

fn record_scalar(recorder: &dyn Recorder, ev: &str, name: &str, value: u64) {
    recorder.record(ev, &[("name", Value::from(name)), ("value", Value::U64(value))]);
}

fn record_histogram(recorder: &dyn Recorder, name: &str, h: &HistogramSnapshot) {
    recorder.record(
        HISTOGRAM,
        &[
            ("name", Value::from(name)),
            ("count", Value::U64(h.count)),
            ("sum", Value::U64(h.sum)),
            ("max", Value::U64(h.max)),
            ("buckets", Value::from(h.encode_buckets())),
        ],
    );
}

/// One `counter`, `gauge` or `histogram` record: a named metric value as
/// [`TelemetrySnapshot::record_to`] writes it, its name borrowed from the
/// trace text.
#[derive(Clone, Debug, PartialEq)]
pub enum Metric<'a> {
    /// A counter's final value (or one contribution to it).
    Counter(Cow<'a, str>, u64),
    /// A gauge's high-water mark.
    Gauge(Cow<'a, str>, u64),
    /// A histogram's aggregates and buckets.
    Histogram(Cow<'a, str>, HistogramSnapshot),
}

impl<'a> Metric<'a> {
    /// The `ev` tags of the three metric records.
    pub const EVS: [&'static str; 3] = [COUNTER, GAUGE, HISTOGRAM];

    /// Decodes a record whose `ev` is one of [`Metric::EVS`]. A missing
    /// name reads as `?`; a histogram from before the `buckets` field
    /// existed has none and answers no quantile query.
    pub fn from_record(rec: Record<'a>) -> Result<Metric<'a>, String> {
        let ev = rec.ev();
        let (histogram, gauge) = (ev == HISTOGRAM, ev == GAUGE);
        let (mut metric, mut value) = (Cow::Borrowed("?"), 0);
        let mut snap = HistogramSnapshot::default();
        for (name, v) in rec.fields {
            match &*name {
                "name" => metric = Record::string(rec.line, &name, v)?,
                "value" => value = Record::u64(rec.line, &name, &v)?,
                "count" => snap.count = Record::u64(rec.line, &name, &v)?,
                "sum" => snap.sum = Record::u64(rec.line, &name, &v)?,
                "max" => snap.max = Record::u64(rec.line, &name, &v)?,
                "buckets" => {
                    let encoded = Record::string(rec.line, &name, v)?;
                    snap.buckets = HistogramSnapshot::decode_buckets(&encoded);
                    snap.buckets.sort_unstable_by_key(|&(bound, _)| bound);
                }
                _ => {}
            }
        }
        Ok(if histogram {
            Metric::Histogram(metric, snap)
        } else if gauge {
            Metric::Gauge(metric, value)
        } else {
            Metric::Counter(metric, value)
        })
    }
}

fn merge_histograms(into: &mut HistogramSnapshot, from: &HistogramSnapshot) {
    into.count = into.count.saturating_add(from.count);
    into.sum = into.sum.wrapping_add(from.sum);
    into.max = into.max.max(from.max);
    for &(bound, n) in &from.buckets {
        match into.buckets.binary_search_by_key(&bound, |&(b, _)| b) {
            Ok(i) => into.buckets[i].1 = into.buckets[i].1.saturating_add(n),
            Err(i) => into.buckets.insert(i, (bound, n)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Histogram;
    use crate::record::records;
    use crate::recorder::TraceBuffer;

    #[test]
    fn counters_accumulate_and_gauges_take_max() {
        let mut s = TelemetrySnapshot::new();
        s.push_counter("events", 3);
        s.push_counter("events", 4);
        s.push_gauge("high_water", 9);
        s.push_gauge("high_water", 5);
        assert_eq!(s.counter("events"), Some(7));
        assert_eq!(s.gauge("high_water"), Some(9));
        assert_eq!(s.counter("missing"), None);
    }

    #[test]
    fn merge_and_prefix_compose() {
        let mut a = TelemetrySnapshot::new();
        a.push_counter("sends", 10);
        a.push_gauge("depth", 4);
        let mut b = TelemetrySnapshot::new();
        b.push_counter("sends", 5);
        b.push_gauge("depth", 2);
        a.merge(&b);
        let p = a.prefixed("vm.");
        assert_eq!(p.counter("vm.sends"), Some(15));
        assert_eq!(p.gauge("vm.depth"), Some(4));
        assert!(p.counter("sends").is_none());
    }

    #[test]
    fn histograms_merge_bucketwise() {
        let h = Histogram::new();
        h.observe(1);
        h.observe(6);
        let mut a = TelemetrySnapshot::new();
        a.push_histogram("lat", h.snapshot());
        let h2 = Histogram::new();
        h2.observe(6);
        h2.observe(100);
        a.push_histogram("lat", h2.snapshot());
        let m = a.histogram("lat").unwrap();
        assert_eq!(m.count, 4);
        assert_eq!(m.sum, 113);
        assert_eq!(m.max, 100);
        assert_eq!(m.buckets, vec![(1, 1), (7, 2), (127, 1)]);
    }

    #[test]
    fn deterministic_part_drops_histograms() {
        let mut s = TelemetrySnapshot::new();
        s.push_counter("c", 1);
        let h = Histogram::new();
        h.observe(123);
        s.push_histogram("timing", h.snapshot());
        let d = s.deterministic_part();
        assert_eq!(d.counter("c"), Some(1));
        assert!(d.histograms().is_empty());
    }

    /// A snapshot with every metric kind and names a JSON writer must escape.
    fn sample_snapshot() -> TelemetrySnapshot {
        let mut s = TelemetrySnapshot::new();
        s.push_counter("vm.\"quoted\"", 2);
        s.push_counter("c", u64::MAX);
        s.push_gauge("g é", 3);
        let h = Histogram::new();
        for v in [0, 8, 9, 1 << 40] {
            h.observe(v);
        }
        s.push_histogram("h", h.snapshot());
        s.push_histogram("empty", HistogramSnapshot::default());
        s
    }

    #[test]
    fn record_to_round_trips_through_absorb() {
        let snap = sample_snapshot();
        let buf = TraceBuffer::default();
        snap.record_to(&buf.recorder());
        let mut back = TelemetrySnapshot::new();
        let text = buf.text();
        for rec in records(&text) {
            back.absorb(Metric::from_record(rec.unwrap()).unwrap());
        }
        assert_eq!(back, snap);
        back.sort();
        assert_eq!(back.counters()[0].0, "c");
        assert_eq!(back.histograms()[0].0, "empty");
    }

    #[test]
    fn metric_wire_format_is_pinned() {
        let mut s = TelemetrySnapshot::new();
        s.push_counter("monitor.violations", 3);
        s.push_gauge("monitor.queue_high_water", 7);
        let h = Histogram::new();
        h.observe(5);
        h.observe(900);
        s.push_histogram("campaign.injection_us", h.snapshot());
        let buf = TraceBuffer::default();
        s.record_to(&buf.recorder());
        assert_eq!(
            buf.bodies(),
            [
                r#""ev":"counter","name":"monitor.violations","value":3}"#,
                r#""ev":"gauge","name":"monitor.queue_high_water","value":7}"#,
                r#""ev":"histogram","name":"campaign.injection_us","count":2,"sum":905,"max":900,"buckets":"7:1;1023:1"}"#,
            ]
        );
    }

    #[test]
    fn mistyped_metric_fields_are_errors_and_old_histograms_have_no_buckets() {
        fn decode(line: &str) -> Result<Metric<'_>, String> {
            records(line).next().unwrap().and_then(Metric::from_record)
        }
        let err = decode(r#"{"ev":"counter","name":"c","value":"many"}"#).unwrap_err();
        assert_eq!(err, "line 1: `value` is not a non-negative integer");
        let err = decode(r#"{"ev":"histogram","name":"h","count":1,"buckets":7}"#).unwrap_err();
        assert_eq!(err, "line 1: `buckets` is not a string");
        let legacy = decode(r#"{"ev":"histogram","name":"x","count":2,"sum":4,"max":3}"#);
        let expected = HistogramSnapshot { count: 2, sum: 4, max: 3, buckets: Vec::new() };
        assert_eq!(legacy, Ok(Metric::Histogram("x".into(), expected)));
    }
}
