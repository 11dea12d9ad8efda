//! The per-thread lanes both engines trace, defined once: [`Lanes`] keeps
//! each SPMD thread's open barrier phase, pending lock wait and open lock
//! holds, and turns what a scheduler tells it ([`Fact`]s) into [`Span`]s.
//! [`Span::write`] is the one place they are spelled as `tspan` records.
//! The simulator reports every thread's facts in cycles; a real-engine
//! worker reports its own in wall-clock microseconds.

use std::ops::Range;

use bw_monitor::BranchEvent;
use bw_telemetry::{Recorder, TimeDomain, Value};

use crate::thread::ThreadState;

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

impl Span {
    /// Writes the span to `sink`, its times in `dom` units, on the lane
    /// `t<tid>` of its thread.
    pub(crate) fn write(self, sink: &dyn Recorder, dom: TimeDomain) {
        let span = |tid, cat, name: &str, start: u64, end: u64, extra: &[(&str, Value)]| {
            let dur = end.saturating_sub(start);
            bw_telemetry::record_span(sink, dom, &lane(tid), cat, name, start, dur, extra);
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
                let sender = lane(event.thread);
                bw_telemetry::record_flow(
                    sink, dom, &sender, "branch_event", &name, clock, flow, true, &detail,
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

/// The lane of SPMD thread `tid`.
fn lane(tid: u32) -> String {
    format!("t{tid}")
}

/// What a scheduler tells [`Lanes::record`], at a clock of its own.
pub(crate) enum Fact<'a> {
    /// Thread `tid`, which arrived at a barrier at `arrival`, was released.
    Released { tid: u32, arrival: u64, thread: &'a ThreadState },
    /// Thread `tid` found a mutex held and waits for it.
    Blocked { tid: u32 },
    /// Thread `tid` took `mutex`: at once, or handed over after it blocked.
    Acquired { tid: u32, mutex: usize },
    /// Thread `tid` unlocked `mutex`.
    Unlocked { tid: u32, mutex: usize },
    /// Thread `tid` ran to its end.
    Finished { tid: u32, thread: &'a ThreadState },
}

/// What the lanes keep per SPMD thread.
#[derive(Clone, Copy, Default)]
struct Lane {
    /// Index of the thread's open barrier phase.
    phase: u64,
    /// Start clock of that phase.
    phase_start: u64,
    /// `ThreadState::steps` at phase start, for per-phase deltas.
    steps_base: u64,
    /// `ThreadState::dyn_branches` at phase start.
    branches_base: u64,
    /// Clock at which the thread blocked on a mutex, while it waits.
    wait_since: Option<u64>,
}

/// The lane bookkeeping of a range of SPMD threads: every thread's for the
/// simulator, a real-engine worker's own for that worker.
#[derive(Clone)]
pub(crate) struct Lanes {
    /// The thread of `lanes[0]`.
    first: u32,
    lanes: Vec<Lane>,
    /// Acquire clock of each mutex one of these threads holds. A mutex
    /// has one holder, so one slot serves all of them.
    holds: Vec<Option<u64>>,
}

impl Lanes {
    /// The lanes of threads `tids`, in a program with `mutexes` mutexes.
    pub(crate) fn new(tids: Range<u32>, mutexes: usize) -> Self {
        let lanes = vec![Lane::default(); tids.len()];
        Lanes { first: tids.start, lanes, holds: vec![None; mutexes] }
    }

    /// Books `fact`, which happened at `clock`, and hands `emit` the spans
    /// it closes.
    pub(crate) fn record(&mut self, fact: Fact<'_>, clock: u64, mut emit: impl FnMut(Span)) {
        match fact {
            Fact::Released { tid, arrival, thread } => {
                emit(self.phase(tid, arrival, thread));
                let lane = self.lane(tid);
                emit(Span::BarrierWait { tid, phase: lane.phase, arrival, release: clock });
                lane.phase += 1;
                lane.phase_start = clock;
                lane.steps_base = thread.steps;
                lane.branches_base = thread.dyn_branches;
            }
            Fact::Blocked { tid } => self.lane(tid).wait_since = Some(clock),
            Fact::Acquired { tid, mutex } => {
                if let Some(start) = self.lane(tid).wait_since.take() {
                    emit(Span::LockWait { tid, mutex, start, end: clock });
                }
                self.holds[mutex] = Some(clock);
            }
            Fact::Unlocked { tid, mutex } => {
                if let Some(start) = self.holds[mutex].take() {
                    emit(Span::LockHold { tid, mutex, start, end: clock });
                }
            }
            Fact::Finished { tid, thread } => emit(self.phase(tid, clock, thread)),
        }
    }

    fn lane(&mut self, tid: u32) -> &mut Lane {
        &mut self.lanes[(tid - self.first) as usize]
    }

    /// Thread `tid`'s open barrier phase, closed at `end`.
    fn phase(&mut self, tid: u32, end: u64, thread: &ThreadState) -> Span {
        let lane = *self.lane(tid);
        Span::Phase {
            tid,
            phase: lane.phase,
            start: lane.phase_start,
            end,
            steps: thread.steps.saturating_sub(lane.steps_base),
            branches: thread.dyn_branches.saturating_sub(lane.branches_base),
        }
    }
}
