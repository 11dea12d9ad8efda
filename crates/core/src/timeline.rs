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
//! parse).

use bw_telemetry::{write_json_object, Value};

use crate::records::records;

/// The shape of one timeline record (the `kind` field of a `tspan`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TimelineKind {
    /// An interval `[ts, ts + dur)`.
    Span,
    /// A point in time.
    Instant,
    /// The source end of a causal arrow (paired by `flow`).
    FlowStart,
    /// The target end of a causal arrow (paired by `flow`).
    FlowEnd,
}

impl TimelineKind {
    fn parse(tag: &str) -> Option<TimelineKind> {
        match tag {
            "span" => Some(TimelineKind::Span),
            "instant" => Some(TimelineKind::Instant),
            "flow_start" => Some(TimelineKind::FlowStart),
            "flow_end" => Some(TimelineKind::FlowEnd),
            _ => None,
        }
    }
}

/// One parsed `tspan` record.
#[derive(Clone, Debug)]
pub struct TimelineEvent {
    /// Span / instant / flow end-point (see [`TimelineKind`]).
    pub kind: TimelineKind,
    /// Time domain tag: `"cyc"` (simulated cycles) or `"us"` (wall).
    pub dom: String,
    /// Lane: `t<tid>`, `shard<i>`, `w<wid>`, `main`, `monitor`.
    pub track: String,
    /// Category: `barrier_phase`, `lock_wait`, `flush_batch`, `stage`, …
    pub cat: String,
    /// Display label.
    pub name: String,
    /// Start timestamp in the record's own domain.
    pub ts: u64,
    /// Duration (zero for instants and flow end-points).
    pub dur: u64,
    /// Causal-arrow id pairing a `FlowStart` with its `FlowEnd`.
    pub flow: Option<u64>,
    /// Every remaining field: per-phase `steps`/`branches` counts,
    /// campaign scope tags (`inj`, `wid`), verdict details (`site`, …).
    pub args: Vec<(String, Value)>,
}

impl TimelineEvent {
    /// The named extra field as a `u64`, if present.
    pub fn arg_u64(&self, name: &str) -> Option<u64> {
        self.args.iter().find(|(k, _)| k == name).and_then(|(_, v)| v.as_u64())
    }
}

/// Envelope and schema fields that are *not* forwarded into
/// [`TimelineEvent::args`].
const CORE_FIELDS: [&str; 10] =
    ["ev", "seq", "t_us", "kind", "dom", "track", "cat", "name", "ts", "dur"];

/// A parsed timeline: every `tspan` record of a JSONL trace, in file
/// order. Non-`tspan` records (samples, counters, injections, …) are
/// skipped, so the same trace file feeds `bw stats`, `bw report` and
/// `bw timeline` at once.
#[derive(Clone, Debug, Default)]
pub struct TimelineReport {
    /// All parsed records, in trace order.
    pub events: Vec<TimelineEvent>,
}

impl TimelineReport {
    /// Parses a JSONL trace, keeping the `tspan` records. Blank lines
    /// are skipped; a malformed line fails the parse with its number.
    pub fn parse(text: &str) -> Result<TimelineReport, String> {
        let mut report = TimelineReport::default();
        for rec in records(text) {
            let rec = rec?;
            if rec.ev() != "tspan" {
                continue;
            }
            let kind = rec
                .field_str("kind")
                .and_then(TimelineKind::parse)
                .ok_or_else(|| format!("line {}: tspan record with bad `kind`", rec.line))?;
            let text_field = |name: &str| rec.field_str(name).unwrap_or("?").to_string();
            report.events.push(TimelineEvent {
                kind,
                dom: text_field("dom"),
                track: text_field("track"),
                cat: text_field("cat"),
                name: text_field("name"),
                ts: rec.field_u64("ts"),
                dur: rec.field_u64("dur"),
                flow: rec.field("flow").and_then(Value::as_u64),
                args: rec
                    .fields
                    .iter()
                    .filter(|(k, _)| !CORE_FIELDS.contains(&k.as_str()) && k != "flow")
                    .cloned()
                    .collect(),
            });
        }
        Ok(report)
    }

    /// The time domains present, `"cyc"` before `"us"`.
    pub fn domains(&self) -> Vec<&str> {
        let mut doms: Vec<&str> = self.events.iter().map(|e| e.dom.as_str()).collect();
        doms.sort_unstable();
        doms.dedup();
        doms
    }

    /// The tracks of one domain, in lane order.
    fn tracks(&self, dom: &str) -> Vec<String> {
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
            let (left_out, events): (Vec<&TimelineEvent>, Vec<&TimelineEvent>) = self
                .events
                .iter()
                .filter(|e| e.dom == dom)
                .partition(|e| dom == "cyc" && e.arg_u64("inj").is_some());
            let lo = events.iter().map(|e| e.ts).min().unwrap_or(0);
            let hi = events.iter().map(|e| e.ts + e.dur).max().unwrap_or(lo + 1).max(lo + 1);
            let unit = if dom == "cyc" { "cycles" } else { "us" };
            out.push_str(&format!(
                "timeline [{dom}] {} spans over {}..{} {unit}",
                events.len(),
                lo,
                hi
            ));
            if !left_out.is_empty() {
                // A batch numbers the injections of each of its images alike.
                let mut injections: Vec<_> =
                    left_out.iter().map(|e| (e.arg_u64("image"), e.arg_u64("inj"))).collect();
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
                (((ts - lo) as u128 * WIDTH as u128) / (hi - lo) as u128).min(WIDTH as u128 - 1)
                    as usize
            };
            for track in tracks_of(events.iter().copied()) {
                let mut lane = vec![' '; WIDTH];
                // Work spans first, overlays second, points last — so a
                // lock hold inside a phase stays visible.
                let mut draw = |pass: usize| {
                    for e in events.iter().filter(|e| e.track == track) {
                        let glyph = match (e.kind, e.cat.as_str()) {
                            (TimelineKind::Span, "barrier_phase") if pass == 0 => '=',
                            (TimelineKind::Span, "barrier_phase") => continue,
                            (TimelineKind::Span, _) if pass == 0 => continue,
                            (TimelineKind::Span, "barrier_wait" | "queue_wait") => '.',
                            (TimelineKind::Span, "lock_wait") => 'w',
                            (TimelineKind::Span, "lock_hold") => 'L',
                            (TimelineKind::Span, "flush_batch") => 'F',
                            (TimelineKind::Span, "injection") => '#',
                            (TimelineKind::Span, "stage") => 'S',
                            (TimelineKind::Span, _) => '-',
                            (_, _) if pass == 2 => '!',
                            (_, _) => continue,
                        };
                        if pass == 2 || matches!(e.kind, TimelineKind::Span) {
                            let (a, b) = (col(e.ts), col(e.ts + e.dur));
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
                let busy: u64 = events
                    .iter()
                    .filter(|e| {
                        e.track == track
                            && e.kind == TimelineKind::Span
                            && e.cat != "barrier_wait"
                            && e.cat != "queue_wait"
                            && e.cat != "lock_wait"
                    })
                    .map(|e| e.dur)
                    .sum();
                let pct = 100.0 * busy as f64 / (hi - lo) as f64;
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
    /// the monitor verdict that flagged it.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        let mut first = true;
        let mut push = |fields: &[(&str, Value)], args: &[(&str, Value)]| {
            // Hand-spliced because trace events nest an `args` object
            // inside the record, and the flat-writer does one level.
            let mut record = String::new();
            write_json_object(&mut record, fields);
            if !args.is_empty() {
                let mut nested = String::new();
                write_json_object(&mut nested, args);
                record.truncate(record.len() - 1);
                record.push_str(",\"args\":");
                record.push_str(&nested);
                record.push('}');
            }
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&record);
        };
        for (pid0, dom) in self.domains().iter().enumerate() {
            let pid = pid0 as u64 + 1;
            let process = if *dom == "cyc" { "sim (cycles)" } else { "wall (us)" };
            push(
                &[
                    ("name", Value::from("process_name")),
                    ("ph", Value::from("M")),
                    ("pid", Value::U64(pid)),
                    ("tid", Value::U64(0)),
                ],
                &[("name", Value::from(process))],
            );
            let tracks = self.tracks(dom);
            for (tid0, track) in tracks.iter().enumerate() {
                let tid = tid0 as u64 + 1;
                push(
                    &[
                        ("name", Value::from("thread_name")),
                        ("ph", Value::from("M")),
                        ("pid", Value::U64(pid)),
                        ("tid", Value::U64(tid)),
                    ],
                    &[("name", Value::from(track.as_str()))],
                );
            }
            for e in self.events.iter().filter(|e| &e.dom == dom) {
                let tid = tracks.iter().position(|t| t == &e.track).map_or(0, |i| i as u64 + 1);
                let args: Vec<(&str, Value)> =
                    e.args.iter().map(|(k, v)| (k.as_str(), v.clone())).collect();
                let base = |ph: &str| {
                    vec![
                        ("name", Value::from(e.name.as_str())),
                        ("cat", Value::from(e.cat.as_str())),
                        ("ph", Value::from(ph)),
                        ("ts", Value::U64(e.ts)),
                        ("pid", Value::U64(pid)),
                        ("tid", Value::U64(tid)),
                    ]
                };
                match e.kind {
                    TimelineKind::Span => {
                        let mut fields = base("X");
                        fields.insert(4, ("dur", Value::U64(e.dur)));
                        push(&fields, &args);
                    }
                    TimelineKind::Instant => {
                        let mut fields = base("i");
                        fields.push(("s", Value::from("t")));
                        push(&fields, &args);
                    }
                    TimelineKind::FlowStart => {
                        let mut fields = base("s");
                        fields.push(("id", Value::U64(e.flow.unwrap_or(0))));
                        push(&fields, &args);
                    }
                    TimelineKind::FlowEnd => {
                        let mut fields = base("f");
                        fields.push(("bp", Value::from("e")));
                        fields.push(("id", Value::U64(e.flow.unwrap_or(0))));
                        push(&fields, &args);
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

/// Lane sort key: SPMD threads (`t<tid>`) first in numeric order, then
/// campaign workers, monitor shards, and finally the named lanes.
/// The tracks of `events`, in lane order: SPMD threads first
/// (numerically), then workers, shards, and the named lanes.
fn tracks_of<'a>(events: impl Iterator<Item = &'a TimelineEvent>) -> Vec<String> {
    let mut tracks: Vec<String> = events.map(|e| e.track.clone()).collect();
    tracks.sort_by_key(|t| track_order(t));
    tracks.dedup();
    tracks
}

fn track_order(track: &str) -> (u8, u64, String) {
    let numeric = |prefix: &str| track.strip_prefix(prefix).and_then(|s| s.parse::<u64>().ok());
    if let Some(n) = numeric("t") {
        return (0, n, String::new());
    }
    if let Some(n) = numeric("w") {
        return (1, n, String::new());
    }
    if let Some(n) = numeric("shard") {
        return (2, n, String::new());
    }
    (3, 0, track.to_string())
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
    pub dom: String,
    /// Per-phase statistics, sorted by phase index.
    pub phases: Vec<PhaseStat>,
}

impl PhaseProfile {
    fn from_events(events: &[TimelineEvent]) -> PhaseProfile {
        // Prefer the deterministic domain when both are present.
        let phase_events: Vec<&TimelineEvent> = events
            .iter()
            .filter(|e| {
                e.kind == TimelineKind::Span
                    && e.cat == "barrier_phase"
                    && e.arg_u64("inj").is_none()
                    && e.track.starts_with('t')
            })
            .collect();
        let dom = if phase_events.iter().any(|e| e.dom == "cyc") { "cyc" } else { "us" };
        let mut profile = PhaseProfile { dom: dom.to_string(), phases: Vec::new() };
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
        let unit = if self.dom == "cyc" { "cycles" } else { "us" };
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
mod tests {
    use super::*;

    /// A hand-written trace: two sim threads over two phases, thread 1
    /// straggling hard in phase 0; one shard lane; a verdict flow pair.
    fn fixture() -> String {
        [
            r#"{"seq":0,"t_us":1,"ev":"tspan","kind":"span","dom":"cyc","track":"t0","cat":"barrier_phase","name":"phase 0","ts":0,"dur":100,"steps":50,"branches":5}"#,
            r#"{"seq":1,"t_us":2,"ev":"tspan","kind":"span","dom":"cyc","track":"t1","cat":"barrier_phase","name":"phase 0","ts":0,"dur":900,"steps":420,"branches":41}"#,
            r#"{"seq":2,"t_us":3,"ev":"tspan","kind":"span","dom":"cyc","track":"t2","cat":"barrier_phase","name":"phase 0","ts":0,"dur":104,"steps":51,"branches":5}"#,
            r#"{"seq":3,"t_us":4,"ev":"tspan","kind":"span","dom":"cyc","track":"t0","cat":"barrier_wait","name":"barrier (phase 0)","ts":100,"dur":800}"#,
            r#"{"seq":4,"t_us":5,"ev":"tspan","kind":"span","dom":"cyc","track":"t0","cat":"barrier_phase","name":"phase 1","ts":900,"dur":60,"steps":30,"branches":3}"#,
            r#"{"seq":5,"t_us":6,"ev":"tspan","kind":"span","dom":"cyc","track":"t1","cat":"barrier_phase","name":"phase 1","ts":900,"dur":62,"steps":30,"branches":3}"#,
            r#"{"seq":6,"t_us":7,"ev":"tspan","kind":"span","dom":"cyc","track":"t2","cat":"barrier_phase","name":"phase 1","ts":900,"dur":58,"steps":29,"branches":3}"#,
            r#"{"seq":7,"t_us":8,"ev":"tspan","kind":"flow_start","dom":"cyc","track":"t1","cat":"branch_event","name":"site 9","ts":700,"flow":0,"site":9}"#,
            r#"{"seq":8,"t_us":9,"ev":"tspan","kind":"flow_end","dom":"cyc","track":"monitor","cat":"verdict","name":"site 9","ts":700,"flow":0,"site":9}"#,
            r#"{"seq":9,"t_us":10,"ev":"tspan","kind":"instant","dom":"cyc","track":"monitor","cat":"violation","name":"site 9","ts":700,"site":9}"#,
            r#"{"seq":10,"t_us":11,"ev":"tspan","kind":"span","dom":"us","track":"shard0","cat":"flush_batch","name":"drain","ts":5,"dur":3,"events":17}"#,
            r#"{"seq":11,"t_us":12,"ev":"sample","tick":1}"#,
        ]
        .join("\n")
    }

    #[test]
    fn parses_only_tspan_records() {
        let report = TimelineReport::parse(&fixture()).unwrap();
        assert_eq!(report.events.len(), 11, "sample record skipped");
        assert_eq!(report.domains(), vec!["cyc", "us"]);
        let first = &report.events[0];
        assert_eq!(first.kind, TimelineKind::Span);
        assert_eq!(first.track, "t0");
        assert_eq!(first.dur, 100);
        assert_eq!(first.arg_u64("steps"), Some(50));
        assert!(first.args.iter().all(|(k, _)| k != "seq" && k != "ts"));
        let flow = &report.events[7];
        assert_eq!(flow.kind, TimelineKind::FlowStart);
        assert_eq!(flow.flow, Some(0));
    }

    #[test]
    fn lane_render_orders_tracks_and_draws_spans() {
        let report = TimelineReport::parse(&fixture()).unwrap();
        let text = report.render();
        let t0 = text.find("  t0 ").expect("t0 lane");
        let t1 = text.find("  t1 ").expect("t1 lane");
        let monitor = text.find("  monitor").expect("monitor lane");
        assert!(t0 < t1 && t1 < monitor, "threads before named lanes:\n{text}");
        assert!(text.contains("timeline [cyc]"));
        assert!(text.contains("timeline [us]"));
        assert!(text.contains('='), "phase glyphs drawn");
        assert!(text.contains('!'), "violation instant drawn");
    }

    #[test]
    fn empty_trace_renders_a_hint() {
        let report = TimelineReport::parse(r#"{"ev":"sample","tick":1}"#).unwrap();
        assert!(report.render().contains("--trace-spans"));
        assert!(report.phase_profile().render().contains("--trace-spans"));
    }

    #[test]
    fn chrome_export_has_required_structure() {
        let report = TimelineReport::parse(&fixture()).unwrap();
        let json = report.to_chrome_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"ph\":\"X\""), "duration events");
        assert!(json.contains("\"ph\":\"M\""), "metadata events");
        assert!(json.contains("\"ph\":\"i\""), "instant events");
        assert!(json.contains("\"ph\":\"s\"") && json.contains("\"ph\":\"f\""), "flow pair");
        assert!(json.contains("\"process_name\""));
        assert!(json.contains("sim (cycles)"));
        assert!(json.contains("wall (us)"));
        assert!(json.contains("\"tid\":"));
        assert!(json.contains("\"args\":{"));
        // Braces and brackets balance (the splicing is by hand).
        let balance = |open: char, close: char| {
            json.chars().filter(|&c| c == open).count()
                == json.chars().filter(|&c| c == close).count()
        };
        assert!(balance('{', '}') && balance('[', ']'));
    }

    #[test]
    fn phase_profile_flags_the_straggler() {
        let report = TimelineReport::parse(&fixture()).unwrap();
        let profile = report.phase_profile();
        assert_eq!(profile.dom, "cyc");
        assert_eq!(profile.phases.len(), 2);
        assert_eq!(profile.deviant_threads(), vec![1], "t1 straggles in phase 0");
        let p0 = &profile.phases[0];
        assert!(p0.has_deviant());
        assert_eq!(p0.median_dur, 104);
        let t1 = p0.threads.iter().find(|t| t.tid == 1).unwrap();
        assert!(t1.deviant && t1.distance > 5.0, "{t1:?}");
        assert!(!profile.phases[1].has_deviant(), "phase 1 is symmetric");
        let text = profile.render();
        assert!(text.contains("DEVIANT"));
        assert!(text.contains("deviant thread(s): t1"));
    }

    #[test]
    fn symmetric_phases_report_all_threads_similar() {
        let lines: Vec<String> = (0..4)
            .map(|t| {
                format!(
                    r#"{{"ev":"tspan","kind":"span","dom":"cyc","track":"t{t}","cat":"barrier_phase","name":"phase 0","ts":0,"dur":{},"steps":100,"branches":10}}"#,
                    500 + t
                )
            })
            .collect();
        let report = TimelineReport::parse(&lines.join("\n")).unwrap();
        let profile = report.phase_profile();
        assert!(profile.deviant_threads().is_empty());
        assert!(profile.render().contains("all threads similar in every phase"));
    }

    #[test]
    fn two_thread_phases_are_never_flagged() {
        let text = [
            r#"{"ev":"tspan","kind":"span","dom":"cyc","track":"t0","cat":"barrier_phase","name":"phase 0","ts":0,"dur":10,"steps":5,"branches":1}"#,
            r#"{"ev":"tspan","kind":"span","dom":"cyc","track":"t1","cat":"barrier_phase","name":"phase 0","ts":0,"dur":9000,"steps":4000,"branches":400}"#,
        ]
        .join("\n");
        let profile = TimelineReport::parse(&text).unwrap().phase_profile();
        assert!(
            profile.deviant_threads().is_empty(),
            "no majority with two threads: {profile:?}"
        );
    }

    /// A campaign trace: the golden run's spans plus, per injection, the
    /// same lanes over the same cycles again. The lanes show the golden run
    /// alone; the worker lane (wall clock) keeps its injection spans; the
    /// Chrome export keeps everything.
    #[test]
    fn injection_scoped_spans_stay_out_of_the_cycle_lanes() {
        let golden = |t: u32| {
            format!(
                r#"{{"ev":"tspan","kind":"span","dom":"cyc","track":"t{t}","cat":"barrier_phase","name":"phase 0","ts":0,"dur":1000,"steps":50,"branches":5}}"#
            )
        };
        let injected = |t: u32, inj: u32| {
            format!(
                r#"{{"ev":"tspan","kind":"span","dom":"cyc","track":"t{t}","cat":"barrier_phase","name":"phase 0","ts":0,"dur":990,"steps":50,"branches":5,"inj":{inj},"wid":0}}"#
            )
        };
        let worker = |inj: u32| {
            format!(
                r#"{{"ev":"tspan","kind":"span","dom":"us","track":"w0","cat":"injection","name":"inj {inj}","ts":{},"dur":40,"outcome":"masked","inj":{inj},"wid":0}}"#,
                inj * 40
            )
        };
        let mut lines = vec![golden(0), golden(1)];
        for inj in 0..2 {
            lines.extend([injected(0, inj), injected(1, inj), worker(inj)]);
        }
        let report = TimelineReport::parse(&lines.join("\n")).unwrap();
        let text = report.render();
        assert!(
            text.contains("timeline [cyc] 2 spans over 0..1000 cycles (4 spans of 2 injections left out"),
            "{text}"
        );
        assert!(text.contains("timeline [us] 2 spans over 0..80 us\n"), "{text}");
        let busy: Vec<f64> = text
            .lines()
            .filter_map(|l| l.split("busy").nth(1))
            .map(|pct| pct.trim().trim_end_matches('%').parse().expect("a percentage"))
            .collect();
        assert_eq!(busy, vec![100.0; 3], "t0, t1 and w0: {text}");
        let chrome = report.to_chrome_json();
        assert_eq!(chrome.matches(r#""ph":"X""#).count(), 8, "every span exported");
    }

    #[test]
    fn injection_scoped_phases_are_excluded_from_the_profile() {
        let text = [
            r#"{"ev":"tspan","kind":"span","dom":"cyc","track":"t0","cat":"barrier_phase","name":"phase 0","ts":0,"dur":100,"steps":50,"branches":5}"#,
            r#"{"ev":"tspan","kind":"span","dom":"cyc","track":"t1","cat":"barrier_phase","name":"phase 0","ts":0,"dur":101,"steps":50,"branches":5}"#,
            r#"{"ev":"tspan","kind":"span","dom":"cyc","track":"t2","cat":"barrier_phase","name":"phase 0","ts":0,"dur":99,"steps":50,"branches":5}"#,
            r#"{"ev":"tspan","kind":"span","dom":"cyc","track":"t1","cat":"barrier_phase","name":"phase 0","ts":0,"dur":99999,"steps":9000,"branches":900,"inj":3,"wid":0}"#,
        ]
        .join("\n");
        let profile = TimelineReport::parse(&text).unwrap().phase_profile();
        assert_eq!(profile.phases[0].threads.len(), 3, "faulty-run span excluded");
        assert!(profile.deviant_threads().is_empty());
    }
}
