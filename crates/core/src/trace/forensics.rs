//! `bw report`: the causal evidence in a trace's `injection` and
//! `violation` records.

use std::fmt::Write as _;

use bw_fault::TraceInjection;
use bw_monitor::TraceViolation;

use super::{count, Body, TraceEvent, TraceView};

/// Per-category coverage/detection aggregates of a forensics report.
#[derive(Clone, Debug, Default)]
struct CategoryStats {
    injected: u64,
    activated: u64,
    detected: u64,
    sdc: u64,
    /// Violations with a known latency, their sum (saturating: a hostile
    /// trace may carry any `u64`) and their maximum.
    latencies: u64,
    latency_sum: u64,
    latency_max: u64,
}

/// The forensics view of a JSONL trace — what `bw report` prints.
///
/// Unlike [`TraceSummary`] (throughput and metric aggregates), this view
/// reconstructs *causal* evidence: which injections were detected, by which
/// site, with which threads deviating, and how quickly. Every rendered
/// field is deterministic for a fixed campaign seed — record arrival order,
/// worker ids, timestamps and durations are deliberately ignored — so the
/// report is byte-identical across runs at any worker count.
#[derive(Clone, Debug, Default)]
pub struct ForensicsReport<'a> {
    /// Injection records, sorted by index.
    pub injections: Vec<TraceInjection<'a>>,
    /// Violation records, sorted by (index, site, branch, iter).
    pub violations: Vec<TraceViolation<'a>>,
}

impl<'a> TraceView<'a> for ForensicsReport<'a> {
    fn absorb(&mut self, event: TraceEvent<'a>) {
        match event.body {
            Body::Injection(injection) => self.injections.push(injection),
            Body::Violation(violation) => self.violations.push(violation),
            _ => {}
        }
    }

    fn finish(&mut self) {
        self.injections.sort_by_key(|i| i.index);
        self.violations.sort_by(|a, b| {
            (a.index, a.site, a.branch, a.iter, &a.kind).cmp(&(
                b.index, b.site, b.branch, b.iter, &b.kind,
            ))
        });
    }
}

impl<'a> ForensicsReport<'a> {
    /// Parses a JSONL trace, keeping the `injection` and `violation`
    /// records. Blank lines are skipped; a malformed line fails the whole
    /// parse with its line number, and so does a trace of more than one
    /// campaign, whose evidence the report would merge.
    pub fn parse(text: &'a str) -> Result<ForensicsReport<'a>, String> {
        let report: ForensicsReport<'a> = super::read(text)?;
        match report.campaigns() {
            0 | 1 => Ok(report),
            n => Err(format!(
                "the trace holds {n} campaigns (their injection indices repeat); \
                 `bw report` reads the trace of one"
            )),
        }
    }

    /// How many campaigns the injections come from: each campaign numbers
    /// its injections from 0, so an index seen `n` times means `n`.
    fn campaigns(&self) -> usize {
        self.injections.chunk_by(|a, b| a.index == b.index).map(<[_]>::len).max().unwrap_or(0)
    }

    /// Whether the trace carries any detection evidence at all.
    pub fn has_detections(&self) -> bool {
        !self.violations.is_empty()
            || self.injections.iter().any(|i| i.outcome == "detected")
    }

    /// Renders the human-readable forensics summary: outcome totals, the
    /// per-category coverage/detection matrix, top violating sites, and one
    /// deviant-thread table per violation.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let detected =
            self.injections.iter().filter(|i| i.outcome == "detected").count();
        let _ = writeln!(
            out,
            "forensics: {} injection(s), {} detected, {} violation record(s)",
            self.injections.len(),
            detected,
            self.violations.len()
        );

        let mut outcomes: Vec<(String, u64)> = Vec::new();
        for i in &self.injections {
            count(&mut outcomes, &i.outcome);
        }
        outcomes.sort();
        if !outcomes.is_empty() {
            out.push_str("outcomes:");
            for (name, count) in &outcomes {
                let _ = write!(out, "  {name}={count}");
            }
            out.push('\n');
        }

        // Per-category coverage/detection matrix. Categories come from the
        // injection records (so undetected injections count too); latency
        // aggregates come from the violation evidence.
        let mut matrix: std::collections::BTreeMap<&str, CategoryStats> =
            std::collections::BTreeMap::new();
        for i in &self.injections {
            let s = matrix.entry(&i.category).or_default();
            s.injected += 1;
            if i.outcome != "not_activated" {
                s.activated += 1;
            }
            match &*i.outcome {
                "detected" => s.detected += 1,
                "sdc" => s.sdc += 1,
                _ => {}
            }
        }
        for v in &self.violations {
            if let Some(l) = v.latency {
                let s = matrix.entry(&v.category).or_default();
                s.latencies += 1;
                s.latency_sum = s.latency_sum.saturating_add(l);
                s.latency_max = s.latency_max.max(l);
            }
        }
        if !matrix.is_empty() {
            out.push_str("\ncoverage by similarity category:\n");
            out.push_str(
                "  category  injected  activated  detected  sdc  coverage  latency mean/max\n",
            );
            for (category, s) in &matrix {
                let coverage = if s.activated == 0 {
                    100.0
                } else {
                    100.0 * (1.0 - s.sdc as f64 / s.activated as f64)
                };
                let latency = if s.latencies == 0 {
                    "-".to_string()
                } else {
                    let mean = s.latency_sum as f64 / s.latencies as f64;
                    format!("{mean:.1} / {}", s.latency_max)
                };
                let _ = writeln!(
                    out,
                    "  {category:<8}  {:>8}  {:>9}  {:>8}  {:>3}  {coverage:>7.1}%  {latency}",
                    s.injected, s.activated, s.detected, s.sdc
                );
            }
        }

        // Top violating sites: which (branch, site) instances fire most.
        let mut sites: Vec<((u64, u64, &str), u64)> = Vec::new();
        for v in &self.violations {
            let key = (v.branch, v.site, &*v.category);
            match sites.iter_mut().find(|(k, _)| *k == key) {
                Some((_, n)) => *n += 1,
                None => sites.push((key, 1)),
            }
        }
        sites.sort_by(|a, b| (b.1, &a.0).cmp(&(a.1, &b.0)));
        if !sites.is_empty() {
            out.push_str("\ntop violating sites:\n");
            for ((branch, site, category), count) in sites.iter().take(10) {
                let _ = writeln!(
                    out,
                    "  br{branch} site {site:#x}  {count} violation(s)  [{category}]"
                );
            }
        }

        // Full evidence, one deviant-thread table per violation.
        if !self.violations.is_empty() {
            out.push_str("\nviolation details:\n");
        }
        for v in &self.violations {
            let _ = writeln!(
                out,
                "injection {}: br{} {} (site {:#x}, iter {:#x}, {} reporters)",
                v.index, v.branch, v.kind, v.site, v.iter, v.reporters
            );
            let _ = writeln!(out, "  category {}; predicted: {}", v.category, v.predicted);
            v.render_observed(&mut out);
            let latency = match v.latency {
                Some(l) => format!("latency {l} message(s)"),
                None => "latency unknown (deviant aged out of the ring)".to_string(),
            };
            let _ = writeln!(out, "  detected at seq {}, {latency}", v.detected_seq);
            if !v.window.is_empty() {
                let entries = v.window.split(';').count();
                let _ = writeln!(out, "  window ({entries} entries): {}", v.window);
            }
        }
        out
    }
}
