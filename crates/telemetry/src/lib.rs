//! # bw-telemetry — the BLOCKWATCH observability substrate
//!
//! Every other crate in the workspace records what it does through this
//! one: lock-free metric primitives ([`Counter`], [`Gauge`],
//! [`Histogram`]), a structured-event [`Recorder`] with a JSON Lines
//! sink ([`JsonlRecorder`]) and stage [`SpanRecord`]s, and the plain-data
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
//! * there is no build without the instruments: the sinks are the switch
//!   (`NullRecorder`, no span sink installed, no [`Sampler`] started).
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
//! register into, and the background [`Sampler`] that turns it into
//! timestamped `sample` trace records. The live layer only *reads* run
//! state and only *writes* to traces — never into result snapshots — so
//! observing a run cannot change its verdicts.

pub mod json;
pub mod metrics;
pub mod record;
pub mod recorder;
pub mod registry;
pub mod sampler;
pub mod snapshot;
pub mod trace;

pub use json::{
    parse_flat_object, write_json_members, write_json_object, write_json_str, Fields, JsonError,
    Value,
};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, HISTOGRAM_BUCKETS};
pub use record::{records, Record};
pub use recorder::{JsonlRecorder, NullRecorder, Recorder, SpanRecord, TraceBuffer, NULL_RECORDER};
pub use registry::MetricRegistry;
pub use sampler::{record_sample, sample_fields, SampleTick, Sampler};
pub use snapshot::{Metric, TelemetrySnapshot};
pub use trace::{
    record_flow, record_instant, record_span, set_trace_sink, trace_sink, tracing_active,
    wall_now_us, SpanKind, TimeDomain, TraceScope, TraceSpan, TRACE_EVENT,
};

/// Always `true`: telemetry is compiled into every build and the sinks
/// are the switch. The one reader left is `benchmark/src/main.rs` (the run
/// header's `features` field); the constant goes with the next
/// `benchmark` PR.
#[doc(hidden)]
pub const ENABLED: bool = true;
