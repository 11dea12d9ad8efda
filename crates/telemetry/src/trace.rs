//! Causal execution tracing: the process-global span sink and the flat
//! `tspan` record vocabulary.
//!
//! Several of the structs a trace would naturally hang off are `Hash +
//! Eq` configs (`ExecConfig`, `CampaignConfig`) that cannot
//! carry a recorder, and the `Engine` trait is object-safe with a fixed
//! signature — so, like [`crate::MetricRegistry::global`], the span sink
//! is process-global: `--trace-spans` installs the run's
//! [`JsonlRecorder`](crate::JsonlRecorder) with [`set_trace_sink`],
//! instrumented layers check [`tracing_active`] (one relaxed atomic
//! load) and resolve the `Arc` once per run with [`trace_sink`], then
//! emit `tspan` records through the ordinary [`Recorder`] path.
//!
//! ## Record schema
//!
//! Every record is one flat JSONL object with `ev:"tspan"`; its fields, in
//! wire order, are the `tspan` row of DESIGN.md §10's "Trace schema" table
//! (which a test diffs against [`record_span`] and [`record_flow`]). This
//! file owns both ends: the `record_*` functions write a record and
//! [`TraceSpan::from_record`] reads it back — `kind` as a [`SpanKind`],
//! `dom` as a [`TimeDomain`] (`"cyc"`, deterministic simulated cycles, or
//! `"us"`, wall-clock microseconds; the two are never compared), `track`
//! the lane, `cat` the span category, `name` / `ts` / `dur` label, start
//! and duration in the record's own domain, and every other field — caller
//! extras, then the fields of the enclosing [`TraceScope`]s (a campaign
//! pushes `inj` / `wid`, so its trace keeps per-injection spans separable)
//! — as `args`.
//!
//! ## Determinism contract
//!
//! Tracing is observability-only by construction: the sink is written
//! to, never read; nothing here flows into a [`TelemetrySnapshot`]
//! (crate::TelemetrySnapshot), a verdict or a campaign record. Sim-engine
//! spans are timestamped in deterministic cycles, so even the trace itself
//! is reproducible for a fixed seed (modulo the recorder's `seq`/`t_us`
//! envelope).

use std::borrow::Cow;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::Instant;

use crate::json::{Fields, Value};
use crate::record::Record;
use crate::recorder::Recorder;

/// The `ev` name of every trace record.
pub const TRACE_EVENT: &str = "tspan";

/// Fast-path flag mirroring "is a sink installed" (the lock is only for
/// the `Arc` swap itself).
static ACTIVE: AtomicBool = AtomicBool::new(false);
static SINK: RwLock<Option<Arc<dyn Recorder>>> = RwLock::new(None);
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Installs (or, with `None`, removes) the process-global span sink.
pub fn set_trace_sink(sink: Option<Arc<dyn Recorder>>) {
    // Pin the wall epoch no later than sink installation so every
    // wall-clock lane starts near zero.
    let _ = EPOCH.get_or_init(Instant::now);
    let mut guard = SINK.write().unwrap_or_else(|e| e.into_inner());
    ACTIVE.store(sink.is_some(), Ordering::Release);
    *guard = sink;
}

/// Microseconds since the process-wide trace epoch (pinned at the first
/// [`set_trace_sink`] install). Every wall-clock (`dom:"us"`) lane —
/// real-engine workers, monitor shards, campaign stages — shares this
/// origin so their spans line up on one timeline.
pub fn wall_now_us() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_micros() as u64
}

/// Whether a span sink is currently installed. One atomic load — cheap
/// enough to gate per-run (not per-event) setup.
#[inline]
pub fn tracing_active() -> bool {
    ACTIVE.load(Ordering::Acquire)
}

/// The current span sink, if any. Resolve once per run and emit against
/// the returned `Arc`; re-reading per event would take the lock hot.
pub fn trace_sink() -> Option<Arc<dyn Recorder>> {
    if !tracing_active() {
        return None;
    }
    SINK.read().unwrap_or_else(|e| e.into_inner()).clone()
}

/// The timestamp domain of a trace record. Spans from the deterministic
/// simulator carry cycle counts; everything timed against the OS clock
/// carries microseconds. The domains are never mixed on one lane.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TimeDomain {
    /// Deterministic simulated machine cycles.
    Cycles,
    /// Wall-clock microseconds.
    WallUs,
}

impl TimeDomain {
    /// The `dom` field tag (`"cyc"` / `"us"`).
    pub fn tag(self) -> &'static str {
        match self {
            TimeDomain::Cycles => "cyc",
            TimeDomain::WallUs => "us",
        }
    }

    /// The unit a timestamp of this domain counts, for display.
    pub fn unit(self) -> &'static str {
        match self {
            TimeDomain::Cycles => "cycles",
            TimeDomain::WallUs => "us",
        }
    }
}

/// The shape of one trace record (its `kind` field).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanKind {
    /// An interval `[ts, ts + dur)`.
    Span,
    /// A point in time.
    Instant,
    /// The source end of a causal arrow (paired by `flow`).
    FlowStart,
    /// The target end of a causal arrow (paired by `flow`).
    FlowEnd,
}

impl SpanKind {
    const ALL: [SpanKind; 4] =
        [SpanKind::Span, SpanKind::Instant, SpanKind::FlowStart, SpanKind::FlowEnd];

    /// The `kind` field tag.
    pub fn tag(self) -> &'static str {
        match self {
            SpanKind::Span => "span",
            SpanKind::Instant => "instant",
            SpanKind::FlowStart => "flow_start",
            SpanKind::FlowEnd => "flow_end",
        }
    }
}

/// One `tspan` record read back: what [`record_span`], [`record_instant`]
/// and [`record_flow`] write. Its strings borrow from the trace text.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceSpan<'a> {
    /// Span / instant / flow end-point.
    pub kind: SpanKind,
    /// Time domain of `ts` and `dur`.
    pub dom: TimeDomain,
    /// Lane: `t<tid>`, `shard<i>`, `w<wid>`, `main`, `monitor`.
    pub track: Cow<'a, str>,
    /// Category: `barrier_phase`, `lock_wait`, `flush_batch`, `stage`, …
    pub cat: Cow<'a, str>,
    /// Display label.
    pub name: Cow<'a, str>,
    /// Start timestamp in the record's own domain.
    pub ts: u64,
    /// Duration (zero for instants and flow end-points).
    pub dur: u64,
    /// Causal-arrow id pairing a `FlowStart` with its `FlowEnd`.
    pub flow: Option<u64>,
    /// Every remaining field: per-phase `steps`/`branches` counts,
    /// campaign scope tags (`inj`, `wid`), verdict details (`site`, …).
    pub args: Fields<'a>,
}

impl<'a> TraceSpan<'a> {
    /// Decodes a `tspan` record. `kind` and `dom` must be there; a missing
    /// label reads as `?`, a missing time as 0.
    pub fn from_record(rec: Record<'a>) -> Result<TraceSpan<'a>, String> {
        let Record { line, mut fields } = rec;
        let (mut kind, mut dom) = (None, None);
        let (mut track, mut cat, mut label) = (None, None, None);
        let (mut ts, mut dur, mut flow) = (0, 0, None);
        let unknown = |name: &str, what: &str| format!("line {line}: `{name}` is not a {what}");
        let text = |name: &str, value: &mut Value<'a>| {
            Record::string(line, name, std::mem::replace(value, Value::Null)).map(Some)
        };
        // The fields no arm below names are the record's `args`: they are
        // moved to the front of `fields`, which is then cut to them.
        let mut args = 0;
        for at in 0..fields.len() {
            let (name, value) = &mut fields[at];
            match &**name {
                "seq" | "t_us" | "ev" => {}
                "kind" => {
                    let tagged = |k: &SpanKind| value.as_str() == Some(k.tag());
                    let found = SpanKind::ALL.into_iter().find(tagged);
                    kind = Some(found.ok_or_else(|| unknown(name, "span kind"))?);
                }
                "dom" => {
                    let tagged = |d: &TimeDomain| value.as_str() == Some(d.tag());
                    let found = [TimeDomain::Cycles, TimeDomain::WallUs].into_iter().find(tagged);
                    dom = Some(found.ok_or_else(|| unknown(name, "time domain"))?);
                }
                "track" => track = text(name, value)?,
                "cat" => cat = text(name, value)?,
                "name" => label = text(name, value)?,
                "ts" => ts = Record::u64(line, name, value)?,
                "dur" => dur = Record::u64(line, name, value)?,
                "flow" => flow = Some(Record::u64(line, name, value)?),
                _ => {
                    fields.swap(args, at);
                    args += 1;
                }
            }
        }
        fields.truncate(args);
        let missing = |name: &str| format!("line {line}: tspan record has no `{name}`");
        let or_unnamed = |text: Option<Cow<'a, str>>| text.unwrap_or(Cow::Borrowed("?"));
        Ok(TraceSpan {
            kind: kind.ok_or_else(|| missing("kind"))?,
            dom: dom.ok_or_else(|| missing("dom"))?,
            track: or_unnamed(track),
            cat: or_unnamed(cat),
            name: or_unnamed(label),
            ts,
            dur,
            flow,
            args: fields,
        })
    }

    /// Where the record ends on its time axis (`ts` for a point).
    pub fn end(&self) -> u64 {
        self.ts.saturating_add(self.dur)
    }

    /// The named extra field as a `u64`, if present.
    pub fn arg_u64(&self, name: &str) -> Option<u64> {
        self.args.iter().find(|(k, _)| k == name).and_then(|(_, v)| v.as_u64())
    }
}

thread_local! {
    static SCOPE: RefCell<Vec<(String, Value<'static>)>> = const { RefCell::new(Vec::new()) };
}

/// An RAII bundle of context fields attached to every trace record
/// emitted from this thread while the scope lives — e.g. a campaign
/// worker pushes `inj` / `wid` around each injection so one trace file
/// keeps thousands of injections separable. Scopes nest; fields pop in
/// LIFO order on drop.
#[derive(Debug)]
pub struct TraceScope {
    pushed: usize,
}

impl TraceScope {
    /// Pushes `fields` onto this thread's scope stack.
    pub fn enter(fields: &[(&str, Value<'_>)]) -> TraceScope {
        SCOPE.with(|s| {
            s.borrow_mut()
                .extend(fields.iter().map(|(k, v)| (k.to_string(), v.clone().into_owned())))
        });
        TraceScope { pushed: fields.len() }
    }
}

impl Drop for TraceScope {
    fn drop(&mut self) {
        if self.pushed > 0 {
            SCOPE.with(|s| {
                let mut stack = s.borrow_mut();
                let keep = stack.len().saturating_sub(self.pushed);
                stack.truncate(keep);
            });
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn record(
    rec: &dyn Recorder,
    kind: SpanKind,
    dom: TimeDomain,
    track: &str,
    cat: &str,
    name: &str,
    ts: u64,
    tail: &[(&str, Value<'_>)],
    extra: &[(&str, Value<'_>)],
) {
    // The scope stack stays borrowed while the recorder runs, so a
    // `Recorder::record` must not enter a `TraceScope` itself.
    SCOPE.with(|scope| {
        let scope = scope.borrow();
        let mut fields: Vec<(&str, Value)> =
            Vec::with_capacity(6 + tail.len() + extra.len() + scope.len());
        fields.push(("kind", Value::from(kind.tag())));
        fields.push(("dom", Value::from(dom.tag())));
        fields.push(("track", Value::from(track)));
        fields.push(("cat", Value::from(cat)));
        fields.push(("name", Value::from(name)));
        fields.push(("ts", Value::U64(ts)));
        fields.extend(tail.iter().chain(extra).map(|(k, v)| (*k, v.clone())));
        fields.extend(scope.iter().map(|(k, v)| (k.as_str(), v.clone())));
        rec.record(TRACE_EVENT, &fields);
    });
}

/// Emits one interval (`kind:"span"`) record: `[ts, ts + dur)` on lane
/// `track`, in `dom` units, with any caller `extra` fields appended.
#[allow(clippy::too_many_arguments)]
pub fn record_span(
    rec: &dyn Recorder,
    dom: TimeDomain,
    track: &str,
    cat: &str,
    name: &str,
    ts: u64,
    dur: u64,
    extra: &[(&str, Value<'_>)],
) {
    record(rec, SpanKind::Span, dom, track, cat, name, ts, &[("dur", Value::U64(dur))], extra);
}

/// Emits one point-in-time (`kind:"instant"`) record.
pub fn record_instant(
    rec: &dyn Recorder,
    dom: TimeDomain,
    track: &str,
    cat: &str,
    name: &str,
    ts: u64,
    extra: &[(&str, Value<'_>)],
) {
    record(rec, SpanKind::Instant, dom, track, cat, name, ts, &[], extra);
}

/// Emits one end of a causal arrow: `start = true` for the source
/// (e.g. the deviant thread's branch event), `false` for the target
/// (the monitor verdict that flagged it). The two ends pair by `flow`.
#[allow(clippy::too_many_arguments)]
pub fn record_flow(
    rec: &dyn Recorder,
    dom: TimeDomain,
    track: &str,
    cat: &str,
    name: &str,
    ts: u64,
    flow: u64,
    start: bool,
    extra: &[(&str, Value<'_>)],
) {
    let kind = if start { SpanKind::FlowStart } else { SpanKind::FlowEnd };
    record(rec, kind, dom, track, cat, name, ts, &[("flow", Value::U64(flow))], extra);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::records;
    use crate::recorder::TraceBuffer;

    fn lines(buf: &TraceBuffer) -> Vec<Vec<(String, Value<'static>)>> {
        let text = buf.text();
        let fields = |rec: Record<'_>| -> Vec<_> {
            rec.fields.into_iter().map(|(k, v)| (k.into_owned(), v.into_owned())).collect()
        };
        records(&text).map(|r| fields(r.expect("valid JSONL"))).collect()
    }

    fn field<'a>(rec: &'a [(String, Value<'static>)], key: &str) -> Option<&'a Value<'static>> {
        rec.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Writes `span` with the `record_*` function of its kind.
    fn write(rec: &dyn Recorder, span: &TraceSpan) {
        let TraceSpan { dom, track, cat, name, ts, .. } = span;
        let extra: Vec<(&str, Value)> = span.args.iter().map(|(k, v)| (&**k, v.clone())).collect();
        let flow = span.flow.unwrap_or(0);
        match span.kind {
            SpanKind::Span => record_span(rec, *dom, track, cat, name, *ts, span.dur, &extra),
            SpanKind::Instant => record_instant(rec, *dom, track, cat, name, *ts, &extra),
            SpanKind::FlowStart => record_flow(rec, *dom, track, cat, name, *ts, flow, true, &extra),
            SpanKind::FlowEnd => record_flow(rec, *dom, track, cat, name, *ts, flow, false, &extra),
        }
    }

    #[test]
    fn tspan_records_round_trip() {
        let mut rng = bw_vm::SplitMix64::new(1);
        for case in 0..64 {
            let kind = SpanKind::ALL[rng.below(4) as usize];
            let wall = rng.below(2) == 1;
            let label: String = (0..rng.below(11))
                .map(|_| match rng.below(96) as u8 { 95 => 'é', i => char::from(b' ' + i) })
                .collect();
            let times = (rng.next_u64(), rng.next_u64(), rng.next_u64());
            let steps = rng.next_u64();
            let span = TraceSpan {
                kind,
                dom: if wall { TimeDomain::WallUs } else { TimeDomain::Cycles },
                track: format!("t{}", steps % 7).into(),
                cat: "barrier_phase".into(),
                name: label.clone().into(),
                ts: times.0,
                dur: if kind == SpanKind::Span { times.1 } else { 0 },
                flow: matches!(kind, SpanKind::FlowStart | SpanKind::FlowEnd).then_some(times.2),
                args: vec![
                    ("steps".into(), Value::U64(steps)),
                    ("outcome".into(), Value::from(label)),
                    ("inj".into(), Value::U64(3)),
                ],
            };
            let buf = TraceBuffer::default();
            {
                let _scope = TraceScope::enter(&[("inj", Value::U64(3))]);
                let mut unscoped = span.clone();
                unscoped.args.pop();
                write(&buf.recorder(), &unscoped);
            }
            let text = buf.text();
            let back = records(&text).next().unwrap().and_then(TraceSpan::from_record);
            assert_eq!(back, Ok(span), "case {case}");
        }
    }

    #[test]
    fn tspan_wire_format_is_pinned() {
        let buf = TraceBuffer::default();
        let rec = buf.recorder();
        let _scope = TraceScope::enter(&[("inj", Value::U64(7)), ("wid", Value::U64(0))]);
        let steps = [("steps", Value::U64(12)), ("branches", Value::U64(2))];
        record_span(&rec, TimeDomain::Cycles, "t2", "barrier_phase", "phase 1", 100, 40, &steps);
        record_instant(&rec, TimeDomain::Cycles, "monitor", "violation", "site 3", 140, &[]);
        record_flow(&rec, TimeDomain::WallUs, "t2", "branch_event", "site 3", 140, 1, true, &[]);
        rec.flush();
        assert_eq!(
            buf.bodies(),
            [
                concat!(
                    r#""ev":"tspan","kind":"span","dom":"cyc","track":"t2","cat":"barrier_phase","#,
                    r#""name":"phase 1","ts":100,"dur":40,"steps":12,"branches":2,"inj":7,"wid":0}"#
                ),
                concat!(
                    r#""ev":"tspan","kind":"instant","dom":"cyc","track":"monitor","#,
                    r#""cat":"violation","name":"site 3","ts":140,"inj":7,"wid":0}"#
                ),
                concat!(
                    r#""ev":"tspan","kind":"flow_start","dom":"us","track":"t2","#,
                    r#""cat":"branch_event","name":"site 3","ts":140,"flow":1,"inj":7,"wid":0}"#
                ),
            ]
        );
    }

    #[test]
    fn tspan_decoding_rejects_unknown_tags_and_mistyped_times() {
        fn decode(line: &str) -> Result<TraceSpan<'_>, String> {
            records(line).next().unwrap().and_then(TraceSpan::from_record)
        }
        let err = decode(r#"{"ev":"tspan","kind":"span","dom":"cyc","ts":0,"dur":-5}"#);
        assert_eq!(err, Err("line 1: `dur` is not a non-negative integer".to_string()));
        let err = decode(r#"{"ev":"tspan","kind":"blob","dom":"cyc"}"#).unwrap_err();
        assert_eq!(err, "line 1: `kind` is not a span kind");
        let err = decode(r#"{"ev":"tspan","kind":"span","dom":7}"#).unwrap_err();
        assert_eq!(err, "line 1: `dom` is not a time domain");
        let err = decode(r#"{"ev":"tspan","dom":"us"}"#).unwrap_err();
        assert_eq!(err, "line 1: tspan record has no `kind`");
        let bare = decode(r#"{"ev":"tspan","kind":"instant","dom":"us"}"#).unwrap();
        assert_eq!((&*bare.track, bare.ts, bare.end(), bare.flow), ("?", 0, 0, None));
    }

    #[test]
    fn an_installed_sink_reports_active_until_removed() {
        // The only test in this binary that touches the global sink.
        set_trace_sink(Some(Arc::new(TraceBuffer::default().recorder())));
        assert!(tracing_active());
        assert!(trace_sink().is_some());
        set_trace_sink(None);
        assert!(!tracing_active());
        assert!(trace_sink().is_none());
    }

    #[test]
    fn spans_carry_schema_and_scope_fields() {
        let buf = TraceBuffer::default();
        let rec = buf.recorder();
        {
            let _scope = TraceScope::enter(&[("inj", Value::U64(7))]);
            record_span(
                &rec,
                TimeDomain::Cycles,
                "t2",
                "barrier_phase",
                "phase 1",
                100,
                40,
                &[("steps", Value::U64(12))],
            );
            record_instant(&rec, TimeDomain::Cycles, "t2", "violation", "site 3", 140, &[]);
            record_flow(&rec, TimeDomain::Cycles, "t2", "verdict", "site 3", 140, 1, true, &[]);
        }
        record_span(&rec, TimeDomain::WallUs, "shard0", "flush_batch", "flush", 9, 2, &[]);
        rec.flush();
        let recs = lines(&buf);
        assert_eq!(recs.len(), 4);
        let span = &recs[0];
        assert_eq!(field(span, "ev"), Some(&Value::from(TRACE_EVENT)));
        assert_eq!(field(span, "kind"), Some(&Value::from("span")));
        assert_eq!(field(span, "dom"), Some(&Value::from("cyc")));
        assert_eq!(field(span, "track"), Some(&Value::from("t2")));
        assert_eq!(field(span, "ts"), Some(&Value::U64(100)));
        assert_eq!(field(span, "dur"), Some(&Value::U64(40)));
        assert_eq!(field(span, "steps"), Some(&Value::U64(12)));
        assert_eq!(field(span, "inj"), Some(&Value::U64(7)), "scope field attached");
        assert_eq!(field(&recs[1], "kind"), Some(&Value::from("instant")));
        assert_eq!(field(&recs[2], "kind"), Some(&Value::from("flow_start")));
        assert_eq!(field(&recs[2], "flow"), Some(&Value::U64(1)));
        // The wall-clock span emitted after the scope dropped: no `inj`.
        assert_eq!(field(&recs[3], "dom"), Some(&Value::from("us")));
        assert_eq!(field(&recs[3], "inj"), None);
    }

    #[test]
    fn scopes_nest_and_pop_in_lifo_order() {
        let outer = TraceScope::enter(&[("wid", Value::U64(1))]);
        {
            let _inner = TraceScope::enter(&[("inj", Value::U64(5))]);
            SCOPE.with(|s| assert_eq!(s.borrow().len(), 2));
        }
        SCOPE.with(|s| {
            assert_eq!(s.borrow().len(), 1);
            assert_eq!(s.borrow()[0].0, "wid");
        });
        drop(outer);
        SCOPE.with(|s| assert!(s.borrow().is_empty()));
    }
}
