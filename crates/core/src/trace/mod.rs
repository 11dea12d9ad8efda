//! The views of a JSONL trace, each a fold over one pass of its records.
//!
//! [`TraceSummary`] (`bw stats`), [`SeriesReport`] (`bw top`),
//! [`ForensicsReport`] (`bw report`) and [`crate::TimelineReport`]
//! (`bw timeline`) are [`TraceView`]s: [`read`] walks the trace once,
//! decodes every record with the decoder of the crate that writes its kind
//! ([`TraceEvent::decode`]; DESIGN, "Trace schema") and hands it to the
//! view (`bw stats --series` and `bw top` need two: the summary carries
//! the series). No view sees a field name,
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
pub enum Body {
    /// `counter` / `gauge` / `histogram`: an end-of-run metric value.
    Metric(Metric),
    /// `sample`: one tick of the background sampler.
    Sample(SampleTick),
    /// `span`: a wall-clock stage duration.
    Span(SpanRecord),
    /// `tspan`: a timeline span, instant or flow end-point.
    Tspan(TraceSpan),
    /// `injection`: one campaign experiment.
    Injection(TraceInjection),
    /// `violation`: the evidence of one detection.
    Violation(TraceViolation),
    /// `worker`: one campaign worker's statistics.
    Worker(WorkerStats),
    /// Any other kind (`fuzz.seed`, …): counted, read by no view.
    Other,
}

/// One decoded trace record.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEvent {
    /// The record's `ev` tag (owned only for a kind no decoder knows).
    pub ev: Cow<'static, str>,
    /// Its decoded content.
    pub body: Body,
}

type Decoder = fn(Record) -> Result<Body, String>;

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

impl TraceEvent {
    /// Decodes `rec` with the decoder of its kind.
    pub fn decode(rec: Record) -> Result<TraceEvent, String> {
        let ev = rec.ev();
        match DECODERS.iter().find(|(kind, _)| *kind == ev) {
            Some(&(ev, decode)) => Ok(TraceEvent { ev: Cow::Borrowed(ev), body: decode(rec)? }),
            None => Ok(TraceEvent { ev: Cow::Owned(ev.to_string()), body: Body::Other }),
        }
    }
}

/// A view of a trace: a fold over its decoded records.
pub trait TraceView: Default {
    /// Folds one record in (and keeps what it needs of it: a record is
    /// decoded once and not copied).
    fn absorb(&mut self, event: TraceEvent);

    /// Called once after the last record: puts what was absorbed into the
    /// order the view renders it in.
    fn finish(&mut self) {}
}

/// Reads a JSONL trace into a view, in one pass. Blank lines are skipped;
/// a malformed line or record fails the read with its line number.
pub fn read<V: TraceView>(text: &str) -> Result<V, String> {
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
