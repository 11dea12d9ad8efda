//! Live (process-cumulative) monitor metrics for the global registry.
//!
//! The per-run [`crate::MonitorVerdict`] numbers only exist once a run
//! finishes; this module is what the sampler sees *while* monitors are
//! running. Everything here is additive across runs and flows only into
//! the global [`MetricRegistry`] — never into a verdict — so watching a
//! run cannot change its results.
//!
//! Cost: the per-shard handles are resolved once per shard-worker spawn,
//! then updated with relaxed atomics per drain sweep.

use std::sync::Arc;

use bw_telemetry::{Counter, Gauge, MetricRegistry};

/// The live handles a shard worker updates per drain sweep: cumulative
/// events processed and current total queue depth for shard `shard`.
pub(crate) fn shard_handles(shard: usize) -> (Arc<Counter>, Arc<Gauge>) {
    let registry = MetricRegistry::global();
    (
        registry.counter(&format!("live.monitor.shard.{shard}.events_processed")),
        registry.gauge(&format!("live.monitor.shard.{shard}.queue_depth")),
    )
}
