//! # bw-telemetry — the BLOCKWATCH observability substrate
//!
//! Every other crate in the workspace records what it does through this
//! one: lock-free metric primitives ([`Counter`], [`Gauge`],
//! [`Histogram`]), a structured-event [`Recorder`] with a JSON Lines
//! sink ([`JsonlRecorder`]) and RAII [`Span`] timers, and the plain-data
//! [`TelemetrySnapshot`] that run results and campaign results carry.
//!
//! ## Cost model
//!
//! Recording is designed to be safe on the hottest paths:
//!
//! * metric updates are single relaxed atomic RMWs — no locks, no
//!   allocation, no fences;
//! * event records go through `&dyn Recorder`; when no sink is
//!   configured that is [`NullRecorder`], whose `record` is an inlined
//!   empty body;
//! * with the `telemetry` cargo feature **disabled**, the `tm_*` macros
//!   expand to literally nothing, so instrumented hot paths carry zero
//!   cost and every metric reads as zero. The metric and snapshot types
//!   themselves always compile, so public APIs do not change shape with
//!   the feature.
//!
//! ## Determinism contract
//!
//! Counters and gauges on a deterministic engine (same program, same
//! seed) must be bit-identical across runs; wall-clock material
//! (histogram timings, span durations, `t_us` stamps) is kept in
//! histograms and trace records only, and
//! [`TelemetrySnapshot::deterministic_part`] strips it for
//! reproducibility checks.
//!
//! ## Live observability
//!
//! On top of the per-run snapshots sits a live layer: the process-wide
//! [`MetricRegistry`] the monitor shards, campaign workers and engines
//! register into, the background [`Sampler`] that turns it into
//! timestamped `sample` trace records, the Prometheus text exposition
//! ([`TelemetrySnapshot::to_prometheus`]) and the stdlib
//! [`MetricsServer`] `/metrics` endpoint. The live layer only *reads*
//! run state and only *writes* to traces and HTTP responses — never into
//! result snapshots — so observing a run cannot change its verdicts.

pub mod json;
pub mod metrics;
pub mod prometheus;
pub mod recorder;
pub mod registry;
pub mod sampler;
pub mod serve;
pub mod snapshot;
pub mod trace;

pub use json::{parse_flat_object, write_json_object, write_json_str, JsonError, Value};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, HISTOGRAM_BUCKETS};
pub use prometheus::{escape_label_value, sanitize_metric_name};
pub use recorder::{JsonlRecorder, NullRecorder, Recorder, Span, NULL_RECORDER};
pub use registry::MetricRegistry;
pub use sampler::{sample_fields, Sampler};
pub use serve::MetricsServer;
pub use snapshot::TelemetrySnapshot;
pub use trace::{
    record_flow, record_instant, record_span, set_trace_sink, trace_sink, tracing_active,
    wall_now_us, TimeDomain, TraceScope, TRACE_EVENT,
};

/// Whether this build records telemetry (the `telemetry` cargo feature).
pub const ENABLED: bool = cfg!(feature = "telemetry");

/// The stand-in returned by `tm_span!` when the `telemetry` feature is
/// off: same method surface as [`Span`], no timing, no record.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopSpan;

impl NoopSpan {
    /// Does nothing (mirror of [`Span::finish`]).
    pub fn finish(self, _fields: &[(&str, Value)]) {}

    /// Always zero (mirror of [`Span::elapsed_us`]).
    pub fn elapsed_us(&self) -> u64 {
        0
    }
}

/// Adds `$n` (any unsigned integer expression) to a [`Counter`].
/// Expands to nothing without the `telemetry` feature.
#[cfg(feature = "telemetry")]
#[macro_export]
macro_rules! tm_add {
    ($counter:expr, $n:expr) => {
        $counter.add($n as u64)
    };
}

/// Adds `$n` (any unsigned integer expression) to a [`Counter`].
/// Expands to nothing without the `telemetry` feature.
#[cfg(not(feature = "telemetry"))]
#[macro_export]
macro_rules! tm_add {
    ($counter:expr, $n:expr) => {
        ()
    };
}

/// Increments a [`Counter`] by one.
/// Expands to nothing without the `telemetry` feature.
#[cfg(feature = "telemetry")]
#[macro_export]
macro_rules! tm_inc {
    ($counter:expr) => {
        $counter.inc()
    };
}

/// Increments a [`Counter`] by one.
/// Expands to nothing without the `telemetry` feature.
#[cfg(not(feature = "telemetry"))]
#[macro_export]
macro_rules! tm_inc {
    ($counter:expr) => {
        ()
    };
}

/// Raises a [`Gauge`] to `$v` if larger (high-water mark).
/// Expands to nothing without the `telemetry` feature.
#[cfg(feature = "telemetry")]
#[macro_export]
macro_rules! tm_gauge_max {
    ($gauge:expr, $v:expr) => {
        $gauge.record_max($v as u64)
    };
}

/// Raises a [`Gauge`] to `$v` if larger (high-water mark).
/// Expands to nothing without the `telemetry` feature.
#[cfg(not(feature = "telemetry"))]
#[macro_export]
macro_rules! tm_gauge_max {
    ($gauge:expr, $v:expr) => {
        ()
    };
}

/// Records a sample into a [`Histogram`].
/// Expands to nothing without the `telemetry` feature.
#[cfg(feature = "telemetry")]
#[macro_export]
macro_rules! tm_observe {
    ($hist:expr, $v:expr) => {
        $hist.observe($v as u64)
    };
}

/// Records a sample into a [`Histogram`].
/// Expands to nothing without the `telemetry` feature.
#[cfg(not(feature = "telemetry"))]
#[macro_export]
macro_rules! tm_observe {
    ($hist:expr, $v:expr) => {
        ()
    };
}

/// Emits a structured event: `tm_event!(recorder, "name", "key" => value, ...)`.
/// Values go through `Into<Value>`. Expands to nothing without the
/// `telemetry` feature.
#[cfg(feature = "telemetry")]
#[macro_export]
macro_rules! tm_event {
    ($rec:expr, $ev:expr $(, $k:literal => $v:expr)* $(,)?) => {
        $crate::Recorder::record($rec, $ev, &[$(($k, $crate::Value::from($v))),*])
    };
}

/// Emits a structured event: `tm_event!(recorder, "name", "key" => value, ...)`.
/// Values go through `Into<Value>`. Expands to nothing without the
/// `telemetry` feature.
#[cfg(not(feature = "telemetry"))]
#[macro_export]
macro_rules! tm_event {
    ($rec:expr, $ev:expr $(, $k:literal => $v:expr)* $(,)?) => {
        ()
    };
}

/// Enters a timed [`Span`] against a recorder; bind the result and the
/// span records its duration when dropped. Without the `telemetry`
/// feature it yields a [`NoopSpan`] and never touches the clock.
#[cfg(feature = "telemetry")]
#[macro_export]
macro_rules! tm_span {
    ($rec:expr, $name:expr) => {
        $crate::Span::enter($rec, $name)
    };
}

/// Enters a timed [`Span`] against a recorder; bind the result and the
/// span records its duration when dropped. Without the `telemetry`
/// feature it yields a [`NoopSpan`] and never touches the clock.
#[cfg(not(feature = "telemetry"))]
#[macro_export]
macro_rules! tm_span {
    ($rec:expr, $name:expr) => {
        $crate::NoopSpan
    };
}

#[cfg(test)]
mod tests {
    use crate::{Counter, Gauge, Histogram};

    #[test]
    #[cfg(feature = "telemetry")]
    fn macros_record_when_enabled() {
        let c = Counter::new();
        let g = Gauge::new();
        let h = Histogram::new();
        tm_add!(c, 2u32);
        tm_inc!(c);
        tm_gauge_max!(g, 7usize);
        tm_observe!(h, 5u64);
        assert_eq!(c.get(), 3);
        assert_eq!(g.get(), 7);
        assert_eq!(h.snapshot().count, 1);
    }

    #[test]
    #[cfg(not(feature = "telemetry"))]
    fn macros_are_noops_when_disabled() {
        let c = Counter::new();
        let g = Gauge::new();
        let h = Histogram::new();
        tm_add!(c, 2u32);
        tm_inc!(c);
        tm_gauge_max!(g, 7usize);
        tm_observe!(h, 5u64);
        assert_eq!(c.get(), 0);
        assert_eq!(g.get(), 0);
        assert_eq!(h.snapshot().count, 0);
    }

    #[test]
    fn span_macro_binds_under_either_feature() {
        let rec = crate::NullRecorder;
        crate::Recorder::flush(&rec);
        let span = tm_span!(&rec, "unit");
        let _ = span.elapsed_us();
        span.finish(&[]);
        tm_event!(&rec, "done", "n" => 1u64);
    }
}
