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
//! Every record is one flat JSONL object with `ev:"tspan"` plus:
//!
//! * `kind` — `"span"` (an interval), `"instant"` (a point), or
//!   `"flow_start"` / `"flow_end"` (the two ends of a causal arrow,
//!   paired by `flow`);
//! * `dom` — the time domain: `"cyc"` (deterministic simulated cycles)
//!   or `"us"` (wall-clock microseconds). The two are never compared;
//!   `bw timeline --chrome` exports them as separate processes;
//! * `track` — the lane the record belongs to (`t<tid>` for SPMD
//!   threads, `shard<i>` for monitor shards, `w<wid>` for campaign
//!   workers, `main` for pipeline stages);
//! * `cat` — the span category (`barrier_phase`, `lock_wait`,
//!   `lock_hold`, `queue_wait`, `flush_batch`, `stage`, …);
//! * `name`, `ts`, `dur` — label, start timestamp and duration in the
//!   record's own domain — plus any caller extras (per-phase `steps` /
//!   `events` counts, lock ids, batch sizes).
//!
//! Records additionally carry every field of the enclosing
//! [`TraceScope`]s (campaigns push `inj` / `wid`, and `image` in a batch,
//! so one trace file keeps per-injection spans separable).
//!
//! ## Determinism contract
//!
//! Tracing is observability-only by construction: the sink is written
//! to, never read; nothing here flows into a [`TelemetrySnapshot`]
//! (crate::TelemetrySnapshot), a verdict or a campaign record. Sim-engine
//! spans are timestamped in deterministic cycles, so even the trace itself
//! is reproducible for a fixed seed (modulo the recorder's `seq`/`t_us`
//! envelope).

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::Instant;

use crate::json::Value;
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
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
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
}

thread_local! {
    static SCOPE: RefCell<Vec<(String, Value)>> = const { RefCell::new(Vec::new()) };
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
    pub fn enter(fields: &[(&str, Value)]) -> TraceScope {
        SCOPE.with(|s| {
            s.borrow_mut()
                .extend(fields.iter().map(|(k, v)| (k.to_string(), v.clone())))
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
    kind: &str,
    dom: TimeDomain,
    track: &str,
    cat: &str,
    name: &str,
    ts: u64,
    tail: &[(&str, Value)],
    extra: &[(&str, Value)],
) {
    // The scope stack stays borrowed while the recorder runs, so a
    // `Recorder::record` must not enter a `TraceScope` itself.
    SCOPE.with(|scope| {
        let scope = scope.borrow();
        let mut fields: Vec<(&str, Value)> =
            Vec::with_capacity(6 + tail.len() + extra.len() + scope.len());
        fields.push(("kind", Value::from(kind)));
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
    extra: &[(&str, Value)],
) {
    record(rec, "span", dom, track, cat, name, ts, &[("dur", Value::U64(dur))], extra);
}

/// Emits one point-in-time (`kind:"instant"`) record.
pub fn record_instant(
    rec: &dyn Recorder,
    dom: TimeDomain,
    track: &str,
    cat: &str,
    name: &str,
    ts: u64,
    extra: &[(&str, Value)],
) {
    record(rec, "instant", dom, track, cat, name, ts, &[], extra);
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
    extra: &[(&str, Value)],
) {
    let kind = if start { "flow_start" } else { "flow_end" };
    record(rec, kind, dom, track, cat, name, ts, &[("flow", Value::U64(flow))], extra);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::sync::Mutex;

    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn lines(buf: &SharedBuf) -> Vec<Vec<(String, Value)>> {
        let bytes = buf.0.lock().unwrap().clone();
        String::from_utf8(bytes)
            .unwrap()
            .lines()
            .map(|l| crate::parse_flat_object(l).expect("valid JSONL"))
            .collect()
    }

    fn field<'a>(rec: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
        rec.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    #[test]
    fn an_installed_sink_reports_active_until_removed() {
        // The only test in this binary that touches the global sink.
        let rec = Arc::new(crate::JsonlRecorder::new(Box::new(SharedBuf::default())));
        set_trace_sink(Some(rec));
        assert!(tracing_active());
        assert!(trace_sink().is_some());
        set_trace_sink(None);
        assert!(!tracing_active());
        assert!(trace_sink().is_none());
    }

    #[test]
    fn spans_carry_schema_and_scope_fields() {
        let buf = SharedBuf::default();
        let rec = crate::JsonlRecorder::new(Box::new(buf.clone()));
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
