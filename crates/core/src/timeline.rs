//! Causal execution timelines: parsing, rendering and analyzing the
//! `tspan` records the engines, monitor shards and campaign stages emit
//! under `--trace-spans` (see `bw_telemetry::trace`).
//!
//! Three consumers share one parsed [`TimelineReport`]:
//!
//! * [`TimelineReport::render`] — a terminal per-lane view: one row per
//!   `(time domain, track)`, spans drawn as category glyphs over a
//!   normalized time axis.
//! * [`TimelineReport::to_chrome_json`] — Chrome Trace Event Format
//!   (the `{"traceEvents": [...]}` JSON object array form), loadable in
//!   Perfetto or `chrome://tracing`. Each time domain becomes its own
//!   process (`pid`), each track its own thread (`tid`); spans are `X`
//!   duration events, violations are `i` instants, and the deviant
//!   thread's branch event connects to the monitor verdict that flagged
//!   it with an `s`/`f` flow arrow.
//! * [`PhaseProfile`] — the similarity view (after Liu et al.,
//!   PAPERS.md): per-barrier-phase durations and step/branch counts are
//!   grouped across threads and each thread's distance from the phase
//!   median is computed; stragglers and deviants stand out exactly the
//!   way deviant branch outcomes do in the monitor.
//!
//! Everything here is a pure function of the trace text: nothing
//! executes programs (an untraced run just has no `tspan` records to
//! parse). A [`TimelineReport`] borrows its spans from that text.

use bw_telemetry::{write_json_members, TimeDomain, Value};
pub use bw_telemetry::{SpanKind, TraceSpan};

use crate::trace::{Body, TraceEvent, TraceView};

/// A parsed timeline: every `tspan` record of a JSONL trace, in file
/// order, borrowing from the trace text. Non-`tspan` records (samples,
/// counters, injections, …) are skipped, so the same trace file feeds
/// `bw stats`, `bw report` and `bw timeline` at once.
#[derive(Clone, Debug, Default)]
pub struct TimelineReport<'a> {
    /// All parsed records, in trace order.
    pub events: Vec<TraceSpan<'a>>,
}

impl<'a> TraceView<'a> for TimelineReport<'a> {
    fn absorb(&mut self, event: TraceEvent<'a>) {
        if let Body::Tspan(mut span) = event.body {
            // The decoder kept the record's whole field list for the args.
            span.args.shrink_to_fit();
            self.events.push(span);
        }
    }
}

/// Spans of these categories are a lane standing still.
const WAITS: [&str; 3] = ["barrier_wait", "queue_wait", "lock_wait"];

/// The length of the union of the intervals `spans`.
fn covered(mut spans: Vec<(u64, u64)>) -> u64 {
    spans.sort_unstable();
    let (mut total, mut reached) = (0, 0);
    for (start, end) in spans {
        total += end.saturating_sub(start.max(reached));
        reached = reached.max(end);
    }
    total
}

impl<'a> TimelineReport<'a> {
    /// Parses a JSONL trace, keeping the `tspan` records. Blank lines
    /// are skipped; a malformed line fails the parse with its number.
    pub fn parse(text: &'a str) -> Result<TimelineReport<'a>, String> {
        crate::trace::read(text)
    }

    /// The time domains present, cycles before wall clock.
    pub fn domains(&self) -> Vec<TimeDomain> {
        [TimeDomain::Cycles, TimeDomain::WallUs]
            .into_iter()
            .filter(|&dom| self.events.iter().any(|e| e.dom == dom))
            .collect()
    }

    /// The tracks of one domain, in lane order.
    fn tracks(&self, dom: TimeDomain) -> Vec<&str> {
        tracks_of(self.events.iter().filter(|e| e.dom == dom))
    }

    /// Renders the terminal lane view: one row per `(domain, track)`,
    /// spans drawn as category glyphs over a normalized time axis.
    ///
    /// A campaign trace holds one run per injection, each on the same
    /// `t<tid>` tracks and the same cycle axis as the golden run. Drawn
    /// into one lane they are a smear (and "busy" a multiple of 100 %), so
    /// the cycle lanes leave out every record scoped to an injection
    /// (`inj`), as [`TimelineReport::phase_profile`] does, and the header
    /// says how many; [`TimelineReport::to_chrome_json`] keeps them all.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.events.is_empty() {
            out.push_str("(no tspan records in trace — run with --trace-spans to collect them)\n");
            return out;
        }
        const WIDTH: usize = 64;
        for dom in self.domains() {
            let (left_out, events): (Vec<&TraceSpan>, Vec<&TraceSpan>) = self
                .events
                .iter()
                .filter(|e| e.dom == dom)
                .partition(|e| dom == TimeDomain::Cycles && e.arg_u64("inj").is_some());
            let lo = events.iter().map(|e| e.ts).min().unwrap_or(0);
            let hi = events.iter().map(|e| e.end()).max().unwrap_or(lo).max(lo.saturating_add(1));
            // Zero only when every span sits at `u64::MAX`.
            let span = (hi - lo).max(1);
            out.push_str(&format!(
                "timeline [{}] {} spans over {}..{} {}",
                dom.tag(),
                events.len(),
                lo,
                hi,
                dom.unit()
            ));
            if !left_out.is_empty() {
                let mut injections: Vec<_> = left_out.iter().map(|e| e.arg_u64("inj")).collect();
                injections.sort_unstable();
                injections.dedup();
                out.push_str(&format!(
                    " ({} spans of {} injections left out; --chrome exports them)",
                    left_out.len(),
                    injections.len()
                ));
            }
            out.push('\n');
            let col = |ts: u64| -> usize {
                (((ts - lo) as u128 * WIDTH as u128) / span as u128).min(WIDTH as u128 - 1) as usize
            };
            for track in tracks_of(events.iter().copied()) {
                let mut lane = vec![' '; WIDTH];
                // Work spans first, overlays second, points last — so a
                // lock hold inside a phase stays visible.
                let mut draw = |pass: usize| {
                    for e in events.iter().filter(|e| e.track == track) {
                        let glyph = match (e.kind, &*e.cat) {
                            (SpanKind::Span, "barrier_phase") if pass == 0 => '=',
                            (SpanKind::Span, "barrier_phase") => continue,
                            (SpanKind::Span, _) if pass == 0 => continue,
                            (SpanKind::Span, "barrier_wait" | "queue_wait") => '.',
                            (SpanKind::Span, "lock_wait") => 'w',
                            (SpanKind::Span, "lock_hold") => 'L',
                            (SpanKind::Span, "flush_batch") => 'F',
                            (SpanKind::Span, "injection") => '#',
                            (SpanKind::Span, "stage") => 'S',
                            (SpanKind::Span, _) => '-',
                            (_, _) if pass == 2 => '!',
                            (_, _) => continue,
                        };
                        if pass == 2 || matches!(e.kind, SpanKind::Span) {
                            let (a, b) = (col(e.ts), col(e.end()));
                            for cell in lane.iter_mut().take(b + 1).skip(a) {
                                *cell = glyph;
                            }
                        }
                    }
                };
                draw(0);
                draw(1);
                draw(2);
                let n = events.iter().filter(|e| e.track == track).count();
                // Busy is the time under a work span less the waits inside
                // it: a lock hold within a phase counts once, a lock wait
                // within a phase not at all.
                let spans = |waits_only: bool| {
                    let on_lane = events.iter().filter(|e| {
                        e.track == track
                            && e.kind == SpanKind::Span
                            && (!waits_only || WAITS.contains(&&*e.cat))
                    });
                    covered(on_lane.map(|e| (e.ts, e.end())).collect())
                };
                let busy = spans(false) - spans(true);
                let pct = 100.0 * busy as f64 / span as f64;
                out.push_str(&format!(
                    "  {:<8} |{}| {n:>4} ev, busy {pct:>5.1}%\n",
                    track,
                    lane.iter().collect::<String>()
                ));
            }
            out.push('\n');
        }
        out.push_str(
            "legend: = phase  . wait  w lock-wait  L lock-hold  F flush  # injection  S stage  ! event\n",
        );
        out
    }

    /// Exports the timeline as Chrome Trace Event Format JSON
    /// (`{"traceEvents": [...]}`), loadable in Perfetto or
    /// `chrome://tracing`. Each time domain is a process, each track a
    /// thread; flow arrows connect a deviant thread's branch event to
    /// the monitor verdict that flagged it. Every event is written straight
    /// into the one output buffer.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::with_capacity(64 + 160 * self.events.len());
        out.push_str("{\"traceEvents\":[");
        for (pid0, dom) in self.domains().into_iter().enumerate() {
            let pid = ("pid", Value::U64(pid0 as u64 + 1));
            let process = match dom {
                TimeDomain::Cycles => "sim (cycles)",
                TimeDomain::WallUs => "wall (us)",
            };
            let meta = |name: &'static str, tid: u64| {
                let tid = ("tid", Value::U64(tid));
                [("name", Value::from(name)), ("ph", Value::from("M")), pid.clone(), tid]
            };
            push_event(&mut out, &[&meta("process_name", 0)], &[("name", Value::from(process))]);
            let tracks = self.tracks(dom);
            for (tid0, track) in tracks.iter().enumerate() {
                let thread = meta("thread_name", tid0 as u64 + 1);
                push_event(&mut out, &[&thread], &[("name", Value::from(*track))]);
            }
            for e in self.events.iter().filter(|e| e.dom == dom) {
                let tid = tracks.iter().position(|t| *t == e.track).map_or(0, |i| i as u64 + 1);
                let head = |ph: &'static str| {
                    [
                        ("name", Value::from(&*e.name)),
                        ("cat", Value::from(&*e.cat)),
                        ("ph", Value::from(ph)),
                        ("ts", Value::U64(e.ts)),
                    ]
                };
                let at = [pid.clone(), ("tid", Value::U64(tid))];
                let flow = ("id", Value::U64(e.flow.unwrap_or(0)));
                match e.kind {
                    SpanKind::Span => {
                        let dur = [("dur", Value::U64(e.dur))];
                        push_event(&mut out, &[&head("X"), &dur, &at], &e.args);
                    }
                    SpanKind::Instant => {
                        let scope = [("s", Value::from("t"))];
                        push_event(&mut out, &[&head("i"), &at, &scope], &e.args);
                    }
                    SpanKind::FlowStart => {
                        push_event(&mut out, &[&head("s"), &at, &[flow]], &e.args);
                    }
                    SpanKind::FlowEnd => {
                        let end = [("bp", Value::from("e")), flow];
                        push_event(&mut out, &[&head("f"), &at, &end], &e.args);
                    }
                }
            }
        }
        out.push_str("]}");
        out
    }

    /// Builds the cross-thread phase-similarity profile (see
    /// [`PhaseProfile`]).
    pub fn phase_profile(&self) -> PhaseProfile {
        PhaseProfile::from_events(&self.events)
    }
}

/// Appends one Chrome trace event to the `traceEvents` array in `out`: the
/// members of `parts` in order, then `args` as a nested object unless there
/// are none.
fn push_event<K: AsRef<str>>(
    out: &mut String,
    parts: &[&[(&str, Value<'_>)]],
    args: &[(K, Value<'_>)],
) {
    if !out.ends_with('[') {
        out.push(',');
    }
    out.push('{');
    for (i, part) in parts.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_json_members(out, part);
    }
    if !args.is_empty() {
        out.push_str(",\"args\":{");
        write_json_members(out, args);
        out.push('}');
    }
    out.push('}');
}

/// The tracks of `events`, each once, in lane order: SPMD threads first
/// (numerically), then workers, shards, and the named lanes.
fn tracks_of<'s>(events: impl Iterator<Item = &'s TraceSpan<'s>>) -> Vec<&'s str> {
    let mut tracks: Vec<&str> = Vec::new();
    for e in events {
        if !tracks.contains(&&*e.track) {
            tracks.push(&e.track);
        }
    }
    tracks.sort_by_key(|t| track_order(t));
    tracks
}

/// A lane's sort key; two names of one number (`t1`, `t01`) order by name.
fn track_order(track: &str) -> (u8, u64, &str) {
    let numeric = |prefix: &str| track.strip_prefix(prefix).and_then(|s| s.parse::<u64>().ok());
    if let Some(n) = numeric("t") {
        return (0, n, track);
    }
    if let Some(n) = numeric("w") {
        return (1, n, track);
    }
    if let Some(n) = numeric("shard") {
        return (2, n, track);
    }
    (3, 0, track)
}

/// One thread's contribution to one barrier phase.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PhaseThread {
    /// SPMD thread id (from the `t<tid>` track).
    pub tid: u32,
    /// Phase duration in the profile's time domain.
    pub dur: u64,
    /// Instructions retired inside the phase.
    pub steps: u64,
    /// Branch events emitted inside the phase.
    pub branches: u64,
    /// Largest relative distance from the phase median across the three
    /// metrics (0.0 = at the median).
    pub distance: f64,
    /// Whether this thread is flagged as a straggler/deviant.
    pub deviant: bool,
}

/// One barrier phase's cross-thread statistics.
#[derive(Clone, Debug)]
pub struct PhaseStat {
    /// Phase index (0 = entry to first barrier).
    pub phase: u64,
    /// Per-thread rows, sorted by thread id.
    pub threads: Vec<PhaseThread>,
    /// Median duration across threads.
    pub median_dur: u64,
    /// Median step count across threads.
    pub median_steps: u64,
    /// Median branch-event count across threads.
    pub median_branches: u64,
}

impl PhaseStat {
    /// Whether any thread in this phase is flagged.
    pub fn has_deviant(&self) -> bool {
        self.threads.iter().any(|t| t.deviant)
    }
}

/// Threads that deviate by more than this fraction of the phase median
/// (on duration, steps or branch events) are flagged.
pub const DEVIANCE_THRESHOLD: f64 = 0.5;

/// Absolute differences at or below this floor never flag, whatever the
/// relative deviation — phases a handful of cycles long are all noise.
const DEVIANCE_FLOOR: u64 = 8;

/// The cross-thread similarity profile of an execution's barrier phases
/// (the Liu et al. idea from PAPERS.md applied to our own traces): SPMD
/// threads should spend similar time and work in each barrier-delimited
/// phase, so a thread far from the per-phase median is a straggler or a
/// deviant — the temporal analogue of the monitor's branch-outcome
/// majority vote.
///
/// Built from `barrier_phase` spans on `t<tid>` lanes. Spans carrying an
/// `inj` scope tag (faulty campaign runs) are excluded, so on a campaign
/// trace the profile describes the golden run. Phases with fewer than
/// three reporting threads are never flagged — "majority" needs one.
#[derive(Clone, Debug, Default)]
pub struct PhaseProfile {
    /// Time domain the phases were measured in (`"cyc"` or `"us"`).
    pub dom: &'static str,
    /// Per-phase statistics, sorted by phase index.
    pub phases: Vec<PhaseStat>,
}

impl PhaseProfile {
    fn from_events(events: &[TraceSpan<'_>]) -> PhaseProfile {
        // Prefer the deterministic domain when both are present.
        let phase_events: Vec<&TraceSpan> = events
            .iter()
            .filter(|e| {
                e.kind == SpanKind::Span
                    && e.cat == "barrier_phase"
                    && e.arg_u64("inj").is_none()
                    && e.track.starts_with('t')
            })
            .collect();
        let cycles = phase_events.iter().any(|e| e.dom == TimeDomain::Cycles);
        let dom = if cycles { TimeDomain::Cycles } else { TimeDomain::WallUs };
        let mut profile = PhaseProfile { dom: dom.tag(), phases: Vec::new() };
        let mut grouped: std::collections::BTreeMap<u64, Vec<(u32, u64, u64, u64)>> =
            std::collections::BTreeMap::new();
        for e in phase_events.iter().filter(|e| e.dom == dom) {
            let Some(tid) = e.track[1..].parse::<u32>().ok() else { continue };
            let Some(phase) = e.name.strip_prefix("phase ").and_then(|s| s.parse().ok()) else {
                continue;
            };
            grouped.entry(phase).or_default().push((
                tid,
                e.dur,
                e.arg_u64("steps").unwrap_or(0),
                e.arg_u64("branches").unwrap_or(0),
            ));
        }
        for (phase, mut rows) in grouped {
            rows.sort_unstable_by_key(|&(tid, ..)| tid);
            let median = |pick: fn(&(u32, u64, u64, u64)) -> u64| -> u64 {
                let mut vals: Vec<u64> = rows.iter().map(pick).collect();
                vals.sort_unstable();
                vals[vals.len() / 2]
            };
            let (med_dur, med_steps, med_branches) =
                (median(|r| r.1), median(|r| r.2), median(|r| r.3));
            let enough = rows.len() >= 3;
            let threads = rows
                .iter()
                .map(|&(tid, dur, steps, branches)| {
                    let distance = deviation(dur, med_dur)
                        .max(deviation(steps, med_steps))
                        .max(deviation(branches, med_branches));
                    PhaseThread {
                        tid,
                        dur,
                        steps,
                        branches,
                        distance,
                        deviant: enough && distance > DEVIANCE_THRESHOLD,
                    }
                })
                .collect();
            profile.phases.push(PhaseStat {
                phase,
                threads,
                median_dur: med_dur,
                median_steps: med_steps,
                median_branches: med_branches,
            });
        }
        profile
    }

    /// Thread ids flagged in at least one phase, ascending.
    pub fn deviant_threads(&self) -> Vec<u32> {
        let mut tids: Vec<u32> = self
            .phases
            .iter()
            .flat_map(|p| p.threads.iter().filter(|t| t.deviant).map(|t| t.tid))
            .collect();
        tids.sort_unstable();
        tids.dedup();
        tids
    }

    /// Renders the per-phase similarity table. Phases where every thread
    /// sits inside the deviance threshold collapse to one line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.phases.is_empty() {
            out.push_str(
                "(no barrier_phase spans in trace — run with --trace-spans to collect them)\n",
            );
            return out;
        }
        let unit = if self.dom == TimeDomain::Cycles.tag() { "cycles" } else { "us" };
        out.push_str(&format!(
            "phase profile [{}]: {} phase(s), deviance threshold {:.0}% of median\n",
            self.dom,
            self.phases.len(),
            100.0 * DEVIANCE_THRESHOLD
        ));
        for p in &self.phases {
            if !p.has_deviant() {
                out.push_str(&format!(
                    "  phase {:<3} {} threads similar (median dur {} {unit}, {} steps, {} branch events)\n",
                    p.phase,
                    p.threads.len(),
                    p.median_dur,
                    p.median_steps,
                    p.median_branches
                ));
                continue;
            }
            out.push_str(&format!(
                "  phase {:<3} median dur {} {unit}, {} steps, {} branch events\n",
                p.phase, p.median_dur, p.median_steps, p.median_branches
            ));
            for t in &p.threads {
                out.push_str(&format!(
                    "    t{:<3} dur {:>10}  steps {:>8}  branches {:>6}  distance {:>5.2}{}\n",
                    t.tid,
                    t.dur,
                    t.steps,
                    t.branches,
                    t.distance,
                    if t.deviant { "  << DEVIANT" } else { "" }
                ));
            }
        }
        match self.deviant_threads().as_slice() {
            [] => out.push_str("all threads similar in every phase\n"),
            tids => {
                let list: Vec<String> = tids.iter().map(|t| format!("t{t}")).collect();
                out.push_str(&format!("deviant thread(s): {}\n", list.join(", ")));
            }
        }
        out
    }
}

/// Relative distance of `v` from `med`, with the absolute noise floor
/// applied (see [`DEVIANCE_FLOOR`]).
fn deviation(v: u64, med: u64) -> f64 {
    let diff = v.abs_diff(med);
    if diff <= DEVIANCE_FLOOR {
        return 0.0;
    }
    diff as f64 / med.max(1) as f64
}

#[cfg(test)]
mod tests;
