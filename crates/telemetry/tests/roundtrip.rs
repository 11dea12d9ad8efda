//! Round-trip property tests for the flat-JSON writer/parser pair.
//!
//! The telemetry sink writes JSON by hand and `bw stats` reads it back
//! with `parse_flat_object`; these tests drive both halves with seeded
//! random inputs and assert the parse inverts the write — for whole
//! [`TelemetrySnapshot`]s, for JSONL trace events, and for the edge
//! cases (empty traces, the `u64::MAX` histogram bucket) a hand-rolled
//! serializer is most likely to get wrong.

use std::borrow::Cow;
use std::sync::Arc;

use bw_telemetry::{
    parse_flat_object, records, Fields, Histogram, HistogramSnapshot, Metric, Recorder,
    TelemetrySnapshot, TraceBuffer, Value,
};

/// SplitMix64 — the same tiny deterministic generator the fuzzer uses.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A metric/field name with characters the string escaper must handle:
/// quotes, backslashes, control characters, and multi-byte UTF-8.
fn tricky_name(rng: &mut Rng, uniq: usize) -> String {
    const PIECES: &[&str] = &["vm.", "lat", "μs", "a\"b", "c\\d", "\n", "\t", "\u{1}", "😀", "é"];
    let mut s = format!("k{uniq}_");
    for _ in 0..rng.below(4) {
        s.push_str(PIECES[rng.below(PIECES.len() as u64) as usize]);
    }
    s
}

fn random_value(rng: &mut Rng, uniq: usize) -> Value<'static> {
    match rng.below(6) {
        0 => Value::Null,
        1 => Value::Bool(rng.below(2) == 0),
        2 => Value::U64(rng.next()),
        3 => Value::I64(-((rng.next() >> 1) as i64) - 1),
        // Finite f64s only; the writer turns NaN/Inf into null by design.
        4 => Value::F64(f64::from_bits(rng.next() >> 12) * if rng.below(2) == 0 { -0.5 } else { 3.25 }),
        _ => Value::from(tricky_name(rng, uniq)),
    }
}

/// Written-then-parsed values must agree. Floats may come back as a
/// different numeric variant (`2.0` prints as `2`), so numbers compare
/// numerically; everything else compares exactly.
fn assert_same(original: &Value, parsed: &Value) {
    match original {
        Value::F64(x) => {
            let back = parsed.as_f64().expect("float field must parse as a number");
            assert_eq!(*x, back, "float round-trip changed the value");
        }
        other => assert_eq!(other, parsed),
    }
}

#[test]
fn random_flat_objects_round_trip() {
    let mut rng = Rng(0x0bad_cafe);
    for _case in 0..300 {
        let nfields = rng.below(8) as usize;
        let fields: Vec<(String, Value<'static>)> = (0..nfields)
            .map(|i| (tricky_name(&mut rng, i), random_value(&mut rng, i)))
            .collect();
        let borrowed: Vec<(&str, Value)> =
            fields.iter().map(|(k, v)| (k.as_str(), v.clone())).collect();
        let mut text = String::new();
        bw_telemetry::write_json_object(&mut text, &borrowed);
        let parsed = parse_flat_object(&text).unwrap_or_else(|e| {
            panic!("emitted object failed to parse: {e}\n  text: {text}")
        });
        assert_eq!(parsed.len(), fields.len(), "field count changed in {text}");
        for ((wk, wv), (pk, pv)) in fields.iter().zip(&parsed) {
            assert_eq!(wk, pk);
            assert_same(wv, pv);
        }
    }
}

/// Builds a random snapshot alongside a mirror of the exact values the
/// JSON rendering must contain.
fn random_snapshot(rng: &mut Rng) -> TelemetrySnapshot {
    let mut s = TelemetrySnapshot::new();
    for i in 0..rng.below(5) {
        s.push_counter(format!("c{i}.{}", tricky_name(rng, i as usize)), rng.next());
    }
    for i in 0..rng.below(5) {
        s.push_gauge(format!("g{i}"), rng.next());
    }
    for i in 0..rng.below(3) {
        let h = Histogram::new();
        for _ in 0..rng.below(20) {
            // Bias toward the extremes: zero, small, huge, and u64::MAX
            // (the last bucket, whose bound must not overflow).
            let v = match rng.below(4) {
                0 => 0,
                1 => rng.below(100),
                2 => u64::MAX,
                _ => rng.next(),
            };
            h.observe(v);
        }
        s.push_histogram(format!("h{i}"), h.snapshot());
    }
    s
}

/// What `snap.record_to` leaves in a JSONL trace, absorbed back into a
/// snapshot record by record.
fn through_trace(snap: &TelemetrySnapshot) -> TelemetrySnapshot {
    let buf = TraceBuffer::default();
    snap.record_to(&buf.recorder());
    let mut back = TelemetrySnapshot::new();
    let text = buf.text();
    for rec in records(&text) {
        back.absorb(Metric::from_record(rec.expect("a flat record")).expect("a metric record"));
    }
    back
}

#[test]
fn random_snapshots_round_trip_through_json() {
    let mut rng = Rng(0x5eed_0001);
    for _case in 0..200 {
        let snap = random_snapshot(&mut rng);
        assert_eq!(through_trace(&snap), snap);
    }
}

#[test]
fn empty_snapshot_round_trips() {
    let snap = TelemetrySnapshot::new();
    assert!(snap.is_empty());
    assert!(through_trace(&snap).is_empty());
}

#[test]
fn max_bucket_histogram_survives_snapshot_and_json() {
    let h = Histogram::new();
    h.observe(u64::MAX);
    h.observe(u64::MAX);
    h.observe(0);
    let hs = h.snapshot();
    assert_eq!(hs.max, u64::MAX);
    assert_eq!(hs.buckets, vec![(0, 1), (u64::MAX, 2)]);
    // sum wraps by contract: MAX + MAX + 0 == MAX - 1 (mod 2^64).
    assert_eq!(hs.sum, u64::MAX.wrapping_add(u64::MAX));

    // Merging two max-bucket snapshots must stay in one bucket.
    let mut snap = TelemetrySnapshot::new();
    snap.push_histogram("big", hs.clone());
    snap.push_histogram("big", hs);
    let merged = snap.histogram("big").unwrap();
    assert_eq!(merged.count, 6);
    assert_eq!(merged.buckets, vec![(0, 2), (u64::MAX, 4)]);

    let back = through_trace(&snap);
    assert_eq!(back.histogram("big"), Some(merged));
}

#[test]
fn mergeable_snapshot_survives_round_trip_fields() {
    // A merged snapshot (fan-in across workers) must serialize each name
    // exactly once, with the merged value.
    let mut a = TelemetrySnapshot::new();
    a.push_counter("runs", 2);
    a.push_gauge("depth", 7);
    let mut b = TelemetrySnapshot::new();
    b.push_counter("runs", 3);
    b.push_gauge("depth", 4);
    a.merge(&b);
    let buf = TraceBuffer::default();
    a.record_to(&buf.recorder());
    assert_eq!(buf.text().lines().count(), 2);
    let back = through_trace(&a);
    assert_eq!((back.counter("runs"), back.gauge("depth")), (Some(5), Some(7)));
}

#[test]
fn random_trace_events_round_trip_through_jsonl() {
    let mut rng = Rng(0x7ace_5eed);
    let buf = TraceBuffer::default();
    let rec = buf.recorder();
    let mut emitted: Vec<(String, Vec<(String, Value<'static>)>)> = Vec::new();
    for case in 0..120 {
        let event = tricky_name(&mut rng, case);
        let fields: Vec<(String, Value<'static>)> = (0..rng.below(5) as usize)
            .map(|i| (tricky_name(&mut rng, i), random_value(&mut rng, i)))
            .collect();
        let borrowed: Vec<(&str, Value)> =
            fields.iter().map(|(k, v)| (k.as_str(), v.clone())).collect();
        rec.record(&event, &borrowed);
        emitted.push((event, fields));
    }
    rec.flush();
    assert_eq!(rec.records_emitted(), emitted.len() as u64);

    let text = buf.text();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), emitted.len());
    for (i, (line, (event, fields))) in lines.iter().zip(&emitted).enumerate() {
        let parsed = parse_flat_object(line)
            .unwrap_or_else(|e| panic!("line {i} failed to parse: {e}\n  line: {line}"));
        // Every record leads with seq / t_us / ev, then the caller's fields.
        assert_eq!(parsed[0], ("seq".into(), Value::U64(i as u64)));
        assert_eq!(parsed[1].0, "t_us");
        assert!(parsed[1].1.as_u64().is_some());
        assert_eq!(parsed[2].0, "ev");
        assert_eq!(parsed[2].1.as_str(), Some(event.as_str()));
        assert_eq!(parsed.len(), 3 + fields.len());
        for ((wk, wv), (pk, pv)) in fields.iter().zip(&parsed[3..]) {
            assert_eq!(wk, pk);
            assert_same(wv, pv);
        }
    }
}

#[test]
fn empty_trace_produces_no_lines() {
    let buf = TraceBuffer::default();
    let rec = buf.recorder();
    rec.flush();
    assert_eq!(rec.records_emitted(), 0);
    assert!(buf.text().is_empty());
    // An event with zero fields still makes a full, parseable record.
    rec.record("tick", &[]);
    rec.flush();
    let text = buf.text();
    let parsed = parse_flat_object(text.trim_end()).unwrap();
    assert_eq!(parsed.len(), 3);
    assert_eq!(parsed[2], ("ev".into(), Value::from("tick")));
}

#[test]
fn histogram_records_round_trip_their_buckets() {
    let buf = TraceBuffer::default();
    let rec = buf.recorder();
    let h = Histogram::new();
    for v in [0, 1, 1, 900, u64::MAX] {
        h.observe(v);
    }
    let snapshot_buckets = h.snapshot().buckets.clone();
    let mut snap = TelemetrySnapshot::new();
    snap.push_histogram("lat", h.snapshot());
    snap.record_to(&rec);
    rec.flush();
    let text = buf.text();
    let parsed = parse_flat_object(text.trim_end()).unwrap();
    let encoded = parsed
        .iter()
        .find(|(k, _)| k == "buckets")
        .and_then(|(_, v)| v.as_str())
        .expect("histogram record carries a buckets field");
    assert_eq!(HistogramSnapshot::decode_buckets(encoded), snapshot_buckets);
    // Quantiles reconstructed from the decoded buckets match the source.
    let decoded = HistogramSnapshot {
        count: 5,
        sum: 0, // irrelevant for quantiles
        max: u64::MAX,
        buckets: HistogramSnapshot::decode_buckets(encoded),
    };
    assert_eq!(decoded.p50(), h.snapshot().p50());
    assert_eq!(decoded.p99(), h.snapshot().p99());
}

#[test]
fn sampler_emits_parseable_sample_records() {
    use bw_telemetry::{MetricRegistry, Sampler};
    use std::time::Duration;

    let registry = Arc::new(MetricRegistry::new());
    let counter = registry.counter("live.test.events_processed");
    let gauge = registry.gauge("live.test.depth");
    let dropped = registry.counter("live.test.events_dropped");

    let buf = TraceBuffer::default();
    let rec: Arc<dyn Recorder> = Arc::new(buf.recorder());
    let sampler = Sampler::start(Arc::clone(&registry), rec, Duration::from_millis(5));
    // Let the sampler take its baseline snapshot before any activity, so
    // everything below must appear as deltas in some tick.
    std::thread::sleep(Duration::from_millis(50));
    counter.add(40);
    gauge.set(7);
    dropped.add(2);
    std::thread::sleep(Duration::from_millis(50));
    sampler.stop();

    let text = buf.text();
    let lines: Vec<Fields> =
        text.lines().map(|l| parse_flat_object(l).expect("sample record parses")).collect();
    assert!(!lines.is_empty(), "at least the final flush tick must land");
    fn get(l: &[(Cow<str>, Value)], k: &str) -> Option<Value<'static>> {
        l.iter().find(|(n, _)| n == k).map(|(_, v)| v.clone().into_owned())
    }
    // Every record is a flat `sample` with tick/dt_us; ticks increase.
    let mut last_tick = 0;
    for line in &lines {
        assert_eq!(get(line, "ev").and_then(|v| v.as_str().map(String::from)), Some("sample".into()));
        let tick = get(line, "tick").and_then(|v| v.as_u64()).expect("tick field");
        assert!(tick > last_tick, "ticks must increase");
        last_tick = tick;
        assert!(get(line, "dt_us").and_then(|v| v.as_u64()).is_some());
    }
    // Counter activity appears as deltas summing to the total; the tick
    // that saw the drops carries the warn marker; gauges are absolute in
    // every tick once set.
    let total: u64 = lines
        .iter()
        .filter_map(|l| get(l, "live.test.events_processed").and_then(|v| v.as_u64()))
        .sum();
    assert_eq!(total, 40, "deltas must sum to the activity\n{text}");
    assert!(
        lines.iter().any(|l| {
            get(l, "warn").and_then(|v| v.as_str().map(String::from))
                == Some("events_dropped".into())
        }),
        "the drop must warn some tick\n{text}"
    );
    let last = lines.last().unwrap();
    assert_eq!(get(last, "live.test.depth").and_then(|v| v.as_u64()), Some(7));
    assert!(get(last, "warn").is_none(), "warn must clear once drops stop\n{text}");
}

#[test]
fn prometheus_exposition_has_types_labels_and_escapes() {
    use bw_telemetry::{escape_label_value, sanitize_metric_name};

    let mut snap = TelemetrySnapshot::new();
    snap.push_counter("live.monitor.shard.0.events_processed", 12);
    snap.push_counter("live.monitor.shard.1.events_processed", 30);
    snap.push_gauge("live.monitor.shard.0.queue_depth", 4);
    let h = Histogram::new();
    h.observe(1);
    h.observe(1000);
    snap.push_histogram("campaign.injection_us", h.snapshot());
    let text = snap.to_prometheus();

    // One family, two labelled series, one TYPE line.
    assert_eq!(text.matches("# TYPE bw_live_monitor_shard_events_processed counter").count(), 1);
    assert!(text.contains("bw_live_monitor_shard_events_processed{shard=\"0\"} 12"), "{text}");
    assert!(text.contains("bw_live_monitor_shard_events_processed{shard=\"1\"} 30"), "{text}");
    assert!(text.contains("# TYPE bw_live_monitor_shard_queue_depth gauge"), "{text}");
    // Histograms expose cumulative le buckets ending at +Inf, plus
    // _sum/_count.
    assert!(text.contains("# TYPE bw_campaign_injection_us histogram"), "{text}");
    assert!(text.contains("le=\"+Inf\"} 2"), "{text}");
    assert!(text.contains("bw_campaign_injection_us_sum 1001"), "{text}");
    assert!(text.contains("bw_campaign_injection_us_count 2"), "{text}");
    // Name sanitization and label escaping helpers hold their contracts.
    assert_eq!(sanitize_metric_name("9lives μ"), "_9lives__");
    assert_eq!(escape_label_value("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    // Every non-comment line is `name[{labels}] value`.
    for line in text.lines().filter(|l| !l.starts_with('#')) {
        let (name, value) = line.rsplit_once(' ').expect("metric line has a value");
        assert!(!name.is_empty());
        assert!(value.parse::<f64>().is_ok() || value.parse::<u64>().is_ok(), "{line}");
    }
}

#[test]
fn snapshot_record_to_emits_parseable_metric_records() {
    let buf = TraceBuffer::default();
    let rec = buf.recorder();
    let mut snap = TelemetrySnapshot::new();
    snap.push_counter("events", 11);
    snap.push_gauge("peak", 5);
    snap.push_histogram(
        "lat",
        HistogramSnapshot { count: 2, sum: 9, max: 8, buckets: vec![(1, 1), (15, 1)] },
    );
    snap.record_to(&rec);
    rec.flush();
    let text = buf.text();
    let lines: Vec<Fields> =
        text.lines().map(|l| parse_flat_object(l).expect("metric record parses")).collect();
    assert_eq!(lines.len(), 3);
    let ev = |l: &Fields| l[2].1.as_str().unwrap().to_string();
    assert_eq!(ev(&lines[0]), "counter");
    assert_eq!(ev(&lines[1]), "gauge");
    assert_eq!(ev(&lines[2]), "histogram");
    assert_eq!(lines[2][4], ("count".into(), Value::U64(2)));
    assert_eq!(lines[2][5], ("sum".into(), Value::U64(9)));
    assert_eq!(lines[2][6], ("max".into(), Value::U64(8)));
}
