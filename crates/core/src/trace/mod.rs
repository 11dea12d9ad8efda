//! The views of a JSONL trace, each a fold over one pass of its records.
//!
//! [`TraceSummary`] (`bw stats`), [`SeriesReport`] (`bw top`),
//! [`ForensicsReport`] (`bw report`) and [`crate::TimelineReport`]
//! (`bw timeline`) are [`TraceView`]s: [`read`] walks the trace once,
//! decodes every record with the decoder of the crate that writes its kind
//! ([`TraceEvent::decode`]; DESIGN, "Trace schema") and hands it to the
//! view (`bw stats --series` and `bw top` need two: the summary carries
//! the series). A decoded record borrows its strings from the trace text,
//! so a view that drops a record has copied nothing of it, and a view is
//! tied to the text it read. No view sees a field name,
//! so they agree on what a well-formed trace is: a line that is not a flat
//! JSON object, has no `ev`, or carries a mistyped field fails the read
//! with its line number and the same words, whichever view was asked.

mod forensics;
mod series;
mod summary;

use std::borrow::Cow;

use bw_fault::{TraceInjection, WorkerStats};
use bw_monitor::TraceViolation;
use bw_telemetry::{records, Metric, Record, SampleTick, SpanRecord, TraceSpan, TRACE_EVENT};

pub use forensics::ForensicsReport;
pub use series::SeriesReport;
pub use summary::{render_histograms, render_telemetry, DurStat, SpanStat, TraceSummary};

/// What one trace record says, as the file that writes its kind decodes it.
#[derive(Clone, Debug, PartialEq)]
pub enum Body<'a> {
    /// `counter` / `gauge` / `histogram`: an end-of-run metric value.
    Metric(Metric<'a>),
    /// `sample`: one tick of the background sampler.
    Sample(SampleTick<'a>),
    /// `span`: a wall-clock stage duration.
    Span(SpanRecord<'a>),
    /// `tspan`: a timeline span, instant or flow end-point.
    Tspan(TraceSpan<'a>),
    /// `injection`: one campaign experiment.
    Injection(TraceInjection<'a>),
    /// `violation`: the evidence of one detection.
    Violation(TraceViolation<'a>),
    /// `worker`: one campaign worker's statistics.
    Worker(WorkerStats),
    /// Any other kind (`fuzz.seed`, …): counted, read by no view.
    Other,
}

/// One decoded trace record.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEvent<'a> {
    /// The record's `ev` tag.
    pub ev: Cow<'a, str>,
    /// Its decoded content.
    pub body: Body<'a>,
}

type Decoder = for<'a> fn(Record<'a>) -> Result<Body<'a>, String>;

/// The decoder of each record kind a view reads, most frequent first.
const DECODERS: [(&str, Decoder); 9] = [
    (TRACE_EVENT, |rec| TraceSpan::from_record(rec).map(Body::Tspan)),
    (TraceInjection::EV, |rec| TraceInjection::from_record(rec).map(Body::Injection)),
    (TraceViolation::EV, |rec| TraceViolation::from_record(rec).map(Body::Violation)),
    (SampleTick::EV, |rec| SampleTick::from_record(rec).map(Body::Sample)),
    (Metric::EVS[0], |rec| Metric::from_record(rec).map(Body::Metric)),
    (Metric::EVS[1], |rec| Metric::from_record(rec).map(Body::Metric)),
    (Metric::EVS[2], |rec| Metric::from_record(rec).map(Body::Metric)),
    (SpanRecord::EV, |rec| SpanRecord::from_record(rec).map(Body::Span)),
    (WorkerStats::EV, |rec| WorkerStats::from_record(rec).map(Body::Worker)),
];

impl<'a> TraceEvent<'a> {
    /// Decodes `rec` with the decoder of its kind.
    pub fn decode(rec: Record<'a>) -> Result<TraceEvent<'a>, String> {
        let ev = rec.ev();
        let body = match DECODERS.iter().find(|(kind, _)| *kind == ev) {
            Some((_, decode)) => decode(rec)?,
            None => Body::Other,
        };
        Ok(TraceEvent { ev, body })
    }
}

/// A view of a trace: a fold over its decoded records, borrowing from the
/// trace text `'a`.
pub trait TraceView<'a>: Default {
    /// Folds one record in (and keeps what it needs of it: a record is
    /// decoded once and not copied).
    fn absorb(&mut self, event: TraceEvent<'a>);

    /// Called once after the last record: puts what was absorbed into the
    /// order the view renders it in.
    fn finish(&mut self) {}
}

/// Reads a JSONL trace into a view, in one pass. Blank lines are skipped;
/// a malformed line or record fails the read with its line number.
pub fn read<'a, V: TraceView<'a>>(text: &'a str) -> Result<V, String> {
    let mut view = V::default();
    for rec in records(text) {
        view.absorb(TraceEvent::decode(rec?)?);
    }
    view.finish();
    Ok(view)
}

/// Counts one more `name` in `list`.
fn count(list: &mut Vec<(String, u64)>, name: &str) {
    match list.iter_mut().find(|(n, _)| n == name) {
        Some((_, n)) => *n += 1,
        None => list.push((name.to_string(), 1)),
    }
}

#[cfg(test)]
mod tests;
