//! What the two engines' tracers report, and the one place it is spelled
//! as `tspan` records: the simulator stamps its spans in cycles and knows
//! every thread's lane, a real-engine worker stamps wall-clock
//! microseconds on its own.

use bw_monitor::BranchEvent;
use bw_telemetry::{Recorder, TimeDomain, Value};

/// One thing a tracer reports; [`Span::write`] renders it as `tspan`
/// records.
#[derive(Clone, Copy)]
pub(crate) enum Span {
    /// Thread `tid`'s work in barrier phase `phase`.
    Phase { tid: u32, phase: u64, start: u64, end: u64, steps: u64, branches: u64 },
    /// Its stall at the barrier that ends the phase.
    BarrierWait { tid: u32, phase: u64, arrival: u64, release: u64 },
    LockHold { tid: u32, mutex: usize, start: u64, end: u64 },
    LockWait { tid: u32, mutex: usize, start: u64, end: u64 },
    /// A violation the monitor flagged while processing `event`, sent at
    /// `clock`: the causal arrow from the deviant thread's branch event to
    /// the monitor verdict, plus a visible instant on the monitor lane.
    Verdict { event: BranchEvent, clock: u64, flow: u64 },
}

/// The lane of SPMD thread `tid`.
pub(crate) fn lane(tid: u32) -> String {
    format!("t{tid}")
}

impl Span {
    /// Writes the span to `sink`, its times in `dom` units, on the lane
    /// `track` names for its thread.
    pub(crate) fn write<'a>(
        self,
        sink: &dyn Recorder,
        dom: TimeDomain,
        track: impl Fn(u32) -> &'a str,
    ) {
        let span = |tid, cat, name: &str, start: u64, end: u64, extra: &[(&str, Value)]| {
            let dur = end.saturating_sub(start);
            bw_telemetry::record_span(sink, dom, track(tid), cat, name, start, dur, extra);
        };
        match self {
            Span::Phase { tid, phase, start, end, steps, branches } => span(
                tid,
                "barrier_phase",
                &format!("phase {phase}"),
                start,
                end,
                &[("steps", Value::U64(steps)), ("branches", Value::U64(branches))],
            ),
            Span::BarrierWait { tid, phase, arrival, release } => {
                span(tid, "barrier_wait", &format!("barrier (phase {phase})"), arrival, release, &[])
            }
            Span::LockHold { tid, mutex, start, end } => {
                span(tid, "lock_hold", &format!("mutex {mutex}"), start, end, &[])
            }
            Span::LockWait { tid, mutex, start, end } => {
                span(tid, "lock_wait", &format!("mutex {mutex}"), start, end, &[])
            }
            Span::Verdict { event, clock, flow } => {
                let name = format!("site {}", event.site);
                let detail = [
                    ("site", Value::U64(event.site)),
                    ("branch", Value::U64(u64::from(event.branch))),
                    ("iter", Value::U64(event.iter)),
                ];
                let sender = track(event.thread);
                bw_telemetry::record_flow(
                    sink, dom, sender, "branch_event", &name, clock, flow, true, &detail,
                );
                bw_telemetry::record_flow(
                    sink, dom, "monitor", "verdict", &name, clock, flow, false, &detail,
                );
                bw_telemetry::record_instant(
                    sink, dom, "monitor", "violation", &name, clock, &detail,
                );
            }
        }
    }
}
