//! `bw stats`: the aggregate view of a trace, and the metric tables it
//! shares with `--stats` and `bw top`.

use std::fmt::Write as _;

use bw_fault::WorkerStats;
use bw_telemetry::{write_json_object, HistogramSnapshot, TelemetrySnapshot, Value};

use super::{count, Body, SeriesReport, TraceEvent, TraceView};

/// Renders a [`TelemetrySnapshot`] as a human-readable summary table:
/// counters, gauges, then histogram aggregates (count / mean / max).
pub fn render_telemetry(snapshot: &TelemetrySnapshot) -> String {
    let mut out = String::new();
    let names = |list: &[(String, u64)]| list.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
    let width = names(snapshot.counters())
        .max(names(snapshot.gauges()))
        .max(name_width(snapshot.histograms()));
    if !snapshot.counters().is_empty() {
        out.push_str("counters:\n");
        for (name, value) in snapshot.counters() {
            let _ = writeln!(out, "  {name:<width$}  {value}");
        }
    }
    if !snapshot.gauges().is_empty() {
        out.push_str("gauges (high-water marks):\n");
        for (name, value) in snapshot.gauges() {
            let _ = writeln!(out, "  {name:<width$}  {value}");
        }
    }
    histogram_table(&mut out, snapshot.histograms(), width);
    if out.is_empty() {
        out.push_str("(no telemetry recorded)\n");
    }
    out
}

/// The histogram table of [`render_telemetry`] on its own (empty when
/// there is no histogram).
pub fn render_histograms(histograms: &[(String, HistogramSnapshot)]) -> String {
    let mut out = String::new();
    histogram_table(&mut out, histograms, name_width(histograms));
    out
}

fn name_width(histograms: &[(String, HistogramSnapshot)]) -> usize {
    histograms.iter().map(|(n, _)| n.len()).max().unwrap_or(0)
}

fn histogram_table(out: &mut String, histograms: &[(String, HistogramSnapshot)], width: usize) {
    if !histograms.is_empty() {
        out.push_str("histograms (wall-clock, nondeterministic):\n");
    }
    for (name, h) in histograms {
        let _ = writeln!(
            out,
            "  {name:<width$}  count {}  mean {:.1}  p50 {:.0}  p90 {:.0}  p99 {:.0}  max {}",
            h.count,
            h.mean(),
            h.p50(),
            h.p90(),
            h.p99(),
            h.max
        );
    }
}

/// Aggregate duration statistics (microseconds).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DurStat {
    /// Observations.
    pub count: u64,
    /// Sum of all durations.
    pub total_us: u64,
    /// Largest single duration.
    pub max_us: u64,
}

impl DurStat {
    fn observe(&mut self, us: u64) {
        self.count += 1;
        self.total_us = self.total_us.saturating_add(us);
        self.max_us = self.max_us.max(us);
    }

    /// Mean duration in microseconds.
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.total_us as f64 / self.count as f64
    }
}

/// Aggregated timings of one span name across a trace.
#[derive(Clone, Debug, Default)]
pub struct SpanStat {
    /// Span name.
    pub name: String,
    /// Duration aggregate.
    pub dur: DurStat,
}

/// An aggregated view of a JSONL telemetry trace — what `bw stats` prints.
///
/// Counter records accumulate, gauges keep their maximum and histograms
/// merge (into one [`TelemetrySnapshot`], as the layers that wrote them
/// merge their own); spans and injections aggregate durations per name.
/// Each name is copied out of the trace once; the sampled series borrows
/// from it.
#[derive(Clone, Debug, Default)]
pub struct TraceSummary<'a> {
    /// Total records parsed.
    pub records: u64,
    /// Record counts per `ev` type, sorted by name.
    pub events: Vec<(String, u64)>,
    /// Span timings per span name, sorted by name.
    pub spans: Vec<SpanStat>,
    /// Final counter values, gauge maxima and merged histograms, each
    /// sorted by name.
    pub metrics: TelemetrySnapshot,
    /// Injection counts per outcome name, sorted by name.
    pub injections: Vec<(String, u64)>,
    /// Injection duration aggregate.
    pub injection_us: DurStat,
    /// Per-worker statistics, sorted by worker index.
    pub workers: Vec<WorkerStats>,
    /// The sampled time series (`bw stats --series`, `bw top`).
    pub series: SeriesReport<'a>,
}

impl<'a> TraceView<'a> for TraceSummary<'a> {
    fn absorb(&mut self, event: TraceEvent<'a>) {
        self.records += 1;
        count(&mut self.events, &event.ev);
        match event.body {
            Body::Span(span) => {
                let at = self.spans.iter().position(|s| s.name == span.name).unwrap_or_else(|| {
                    let name = span.name.into_owned();
                    self.spans.push(SpanStat { name, dur: DurStat::default() });
                    self.spans.len() - 1
                });
                self.spans[at].dur.observe(span.dur_us);
            }
            Body::Metric(metric) => self.metrics.absorb(metric),
            Body::Injection(injection) => {
                count(&mut self.injections, &injection.outcome);
                self.injection_us.observe(injection.dur_us);
            }
            Body::Worker(stats) => self.workers.push(stats),
            Body::Sample(tick) => self.series.ticks.push(tick),
            _ => {}
        }
    }

    fn finish(&mut self) {
        self.events.sort();
        self.spans.sort_by(|a, b| a.name.cmp(&b.name));
        self.metrics.sort();
        self.injections.sort();
        self.workers.sort_by_key(|w| w.worker);
    }
}

impl<'a> TraceSummary<'a> {
    /// Parses a JSONL trace. Blank lines are skipped; a malformed line
    /// fails the whole parse with its line number.
    pub fn parse(text: &'a str) -> Result<TraceSummary<'a>, String> {
        super::read(text)
    }

    /// Renders the summary as the human-readable `bw stats` report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{} records", self.records);
        if !self.events.is_empty() {
            out.push_str("events:");
            for (name, count) in &self.events {
                let _ = write!(out, "  {name}={count}");
            }
            out.push('\n');
        }
        out.push_str(&render_telemetry(&self.metrics.deterministic_part()));
        // Monitor health, surfaced from the generic tables: dropped events
        // mean the verdicts are incomplete, and the pending high-water shows
        // how deep the correlation table ran.
        let dropped = self.metrics.counter("monitor.events_dropped");
        let pending = self.metrics.gauge("monitor.pending_high_water");
        if dropped.is_some() || pending.is_some() {
            out.push_str("monitor health:\n");
            match dropped {
                Some(d) if d > 0 => {
                    let _ = writeln!(
                        out,
                        "  events dropped: {d}  (queue overflow; verdicts may be incomplete)"
                    );
                }
                Some(_) => out.push_str("  events dropped: 0\n"),
                None => {}
            }
            if let Some(p) = pending {
                let _ = writeln!(out, "  pending-table high water: {p} instance(s)");
            }
        }
        // Per-shard ingest health (only present when the monitor ran
        // sharded): each shard's share of the event stream, its drops and
        // its queue high-water mark — an uneven split or a hot shard shows
        // up here. Campaign traces carry these under the `golden.` prefix,
        // `bw run` traces carry them bare; match the `monitor.shard.<i>.`
        // segment wherever it sits, summing counters and maxing gauges.
        let mut shards: std::collections::BTreeMap<u64, (u64, u64, u64)> =
            std::collections::BTreeMap::new();
        for (name, value) in self.metrics.counters().iter().chain(self.metrics.gauges()) {
            let Some(rest) = name.split("monitor.shard.").nth(1) else { continue };
            let mut parts = rest.splitn(2, '.');
            let Some(id) = parts.next().and_then(|s| s.parse::<u64>().ok()) else { continue };
            let row = shards.entry(id).or_default();
            match parts.next() {
                Some("events_processed") => row.0 = row.0.saturating_add(*value),
                Some("events_dropped") => row.1 = row.1.saturating_add(*value),
                Some("queue_high_water") => row.2 = row.2.max(*value),
                _ => {}
            }
        }
        if !shards.is_empty() {
            out.push_str("monitor shards:\n");
            for (s, (processed, dropped, high_water)) in shards {
                let _ = writeln!(
                    out,
                    "  shard {s:<3} processed {processed}  dropped {dropped}  \
                     queue high water {high_water}"
                );
            }
        }
        if !self.metrics.histograms().is_empty() {
            out.push_str("histogram aggregates:\n");
            for (name, h) in self.metrics.histograms() {
                let _ = write!(out, "  {name:<28}  count {}  mean {:.1}", h.count, h.mean());
                // A trace from before the `buckets` field has no quantiles.
                if !h.buckets.is_empty() {
                    let _ = write!(out, "  p50 {:.0}  p90 {:.0}  p99 {:.0}", h.p50(), h.p90(), h.p99());
                }
                let _ = writeln!(out, "  max {}", h.max);
            }
        }
        if !self.spans.is_empty() {
            out.push_str("spans:\n");
            for s in &self.spans {
                let _ = writeln!(
                    out,
                    "  {:<28}  count {}  total {} us  mean {:.1} us  max {} us",
                    s.name, s.dur.count, s.dur.total_us, s.dur.mean_us(), s.dur.max_us
                );
            }
        }
        if !self.injections.is_empty() {
            out.push_str("injections:");
            for (outcome, count) in &self.injections {
                let _ = write!(out, "  {outcome}={count}");
            }
            let _ = writeln!(
                out,
                "\n  duration: mean {:.1} us, max {} us over {} runs",
                self.injection_us.mean_us(),
                self.injection_us.max_us,
                self.injection_us.count
            );
        }
        if !self.workers.is_empty() {
            out.push_str("workers:\n");
            for w in &self.workers {
                let _ = writeln!(
                    out,
                    "  worker {:<3}  {} injections  wall {} us  busy {} us  {:.1} inj/s  \
                     steps {} run, {} skipped ({:.1}%)",
                    w.worker,
                    w.injections,
                    w.wall_us,
                    w.busy_us,
                    w.throughput(),
                    w.steps_run,
                    w.steps_skipped,
                    100.0 * w.skipped_share()
                );
            }
        }
        out
    }

    /// Renders the summary as one flat JSON object with dotted keys
    /// (`counter.<name>`, `hist.<name>.p99`, …), round-trippable by
    /// [`bw_telemetry::parse_flat_object`]. What `bw stats --format json`
    /// prints.
    pub fn to_json(&self) -> String {
        let mut fields: Vec<(String, Value)> = Vec::new();
        let mut put = |key: String, value: Value<'static>| fields.push((key, value));
        put("records".into(), self.records.into());
        for (name, count) in &self.events {
            put(format!("events.{name}"), (*count).into());
        }
        for (name, value) in self.metrics.counters() {
            put(format!("counter.{name}"), (*value).into());
        }
        for (name, value) in self.metrics.gauges() {
            put(format!("gauge.{name}"), (*value).into());
        }
        for (name, h) in self.metrics.histograms() {
            put(format!("hist.{name}.count"), h.count.into());
            put(format!("hist.{name}.sum"), h.sum.into());
            put(format!("hist.{name}.max"), h.max.into());
            if !h.buckets.is_empty() {
                put(format!("hist.{name}.p50"), h.p50().into());
                put(format!("hist.{name}.p90"), h.p90().into());
                put(format!("hist.{name}.p99"), h.p99().into());
            }
        }
        for s in &self.spans {
            put(format!("span.{}.count", s.name), s.dur.count.into());
            put(format!("span.{}.total_us", s.name), s.dur.total_us.into());
            put(format!("span.{}.max_us", s.name), s.dur.max_us.into());
        }
        for (outcome, count) in &self.injections {
            put(format!("injection.{outcome}"), (*count).into());
        }
        if self.injection_us.count > 0 {
            put("injection_us.count".into(), self.injection_us.count.into());
            put("injection_us.total".into(), self.injection_us.total_us.into());
            put("injection_us.max".into(), self.injection_us.max_us.into());
        }
        for w in &self.workers {
            put(format!("worker.{}.injections", w.worker), w.injections.into());
            put(format!("worker.{}.wall_us", w.worker), w.wall_us.into());
            put(format!("worker.{}.busy_us", w.worker), w.busy_us.into());
            put(format!("worker.{}.steps_run", w.worker), w.steps_run.into());
            put(format!("worker.{}.steps_skipped", w.worker), w.steps_skipped.into());
        }
        let mut out = String::new();
        write_json_object(&mut out, &fields);
        out.push('\n');
        out
    }
}
