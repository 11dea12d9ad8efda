//! `bw top` / `bw stats --series`: the time series in a trace's `sample`
//! records.

use std::fmt::Write as _;

use bw_telemetry::SampleTick;

use super::{Body, TraceEvent, TraceView};

/// The time-series view of a JSONL trace — what `bw top` and
/// `bw stats --series` print.
///
/// Reconstructed purely from the trace's `sample` records (wall-clock
/// material the deterministic views ignore): per-tick engine throughput,
/// campaign progress with an ETA extrapolated from the cumulative rate,
/// and per-shard monitor queue depth.
#[derive(Clone, Debug, Default)]
pub struct SeriesReport<'a> {
    /// Sample ticks in trace order.
    pub ticks: Vec<SampleTick<'a>>,
}

impl<'a> TraceView<'a> for SeriesReport<'a> {
    fn absorb(&mut self, event: TraceEvent<'a>) {
        if let Body::Sample(tick) = event.body {
            self.ticks.push(tick);
        }
    }
}

impl<'a> SeriesReport<'a> {
    /// Parses a JSONL trace, keeping the `sample` records. Blank lines are
    /// skipped; a malformed line fails the whole parse with its number.
    pub fn parse(text: &'a str) -> Result<SeriesReport<'a>, String> {
        super::read(text)
    }

    /// Shard ids with a `live.monitor.shard.<i>.queue_depth` gauge
    /// anywhere in the series, sorted.
    pub fn shard_ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = Vec::new();
        for tick in &self.ticks {
            for (name, _) in tick.values() {
                let Some(rest) = name.strip_prefix("live.monitor.shard.") else { continue };
                let Some(id) = rest.strip_suffix(".queue_depth") else { continue };
                if let Ok(id) = id.parse::<u64>() {
                    if !ids.contains(&id) {
                        ids.push(id);
                    }
                }
            }
        }
        ids.sort_unstable();
        ids
    }

    /// Renders the series as a per-tick table with a totals footer.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.ticks.is_empty() {
            out.push_str(
                "(no sample records in trace — run with --sample-interval-ms to collect them)\n",
            );
            return out;
        }
        // Sums saturate: a hostile trace may carry any `u64`.
        let total_us = self.ticks.iter().fold(0u64, |sum, t| sum.saturating_add(t.dt_us));
        let _ = writeln!(
            out,
            "samples: {} tick(s) over {:.2} s",
            self.ticks.len(),
            total_us as f64 / 1e6
        );
        let shards = self.shard_ids();
        let has_campaign = self
            .ticks
            .iter()
            .any(|t| t.values().any(|(n, _)| n.starts_with("live.campaign.")));
        let _ = write!(out, "{:>5}  {:>8}  {:>10}", "tick", "dt_ms", "events/s");
        if has_campaign {
            let _ = write!(out, "  {:>7}  {:>15}  {:>7}", "inj/s", "progress", "eta_s");
        }
        for id in &shards {
            let _ = write!(out, "  {:>5}", format!("q{id}"));
        }
        out.push('\n');
        let (mut planned, mut completed, mut detected) = (0u64, 0u64, 0u64);
        let (mut elapsed_us, mut events_total) = (0u64, 0u64);
        for tick in &self.ticks {
            elapsed_us = elapsed_us.saturating_add(tick.dt_us);
            let events = tick.value("live.engine.events_processed").unwrap_or(0);
            events_total = events_total.saturating_add(events);
            let _ = write!(
                out,
                "{:>5}  {:>8.1}  {:>10.0}",
                tick.tick,
                tick.dt_us as f64 / 1e3,
                tick.rate("live.engine.events_processed")
            );
            if has_campaign {
                let delta = |name: &str| tick.value(name).unwrap_or(0);
                planned = planned.saturating_add(delta("live.campaign.planned"));
                completed = completed.saturating_add(delta("live.campaign.completed"));
                detected = detected.saturating_add(delta("live.campaign.detected"));
                let progress = if planned > 0 {
                    format!("{completed}/{planned} {:.0}%", completed as f64 * 100.0 / planned as f64)
                } else {
                    "-".to_string()
                };
                // ETA extrapolates the cumulative rate so far; unknowable
                // before the first completion or once the plan is done.
                let eta = if completed > 0 && planned > completed {
                    let remaining = (planned - completed) as f64;
                    format!("{:.1}", remaining * elapsed_us as f64 / completed as f64 / 1e6)
                } else {
                    "-".to_string()
                };
                let _ = write!(
                    out,
                    "  {:>7.1}  {progress:>15}  {eta:>7}",
                    tick.rate("live.campaign.completed")
                );
            }
            for id in &shards {
                let depth = tick
                    .value(&format!("live.monitor.shard.{id}.queue_depth"))
                    .unwrap_or(0);
                let _ = write!(out, "  {depth:>5}");
            }
            out.push('\n');
        }
        let _ = write!(
            out,
            "totals: {events_total} events ({:.0}/s avg)",
            if elapsed_us == 0 { 0.0 } else { events_total as f64 * 1e6 / elapsed_us as f64 }
        );
        if has_campaign {
            let _ = write!(
                out,
                "; {completed}/{planned} injections ({:.1}/s avg), {detected} detected",
                if elapsed_us == 0 { 0.0 } else { completed as f64 * 1e6 / elapsed_us as f64 }
            );
        }
        out.push('\n');
        out
    }
}
