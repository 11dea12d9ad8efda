//! Live (process-cumulative) monitor metrics for the global registry.
//!
//! The per-run [`crate::MonitorVerdict`] numbers only exist once a run
//! finishes; this module is what the sampler sees *while* monitors are
//! running. Everything here is additive across runs and flows only into
//! the global [`MetricRegistry`] — never into a verdict — so watching a
//! run cannot change its results.
//!
//! Cost: the dropped-event counter sits on the sender's overflow path
//! (already cold — the queue was full and the spin budget exhausted), and
//! the per-shard handles are resolved once per shard-worker spawn, then
//! updated with relaxed atomics per drain sweep.

use std::sync::{Arc, OnceLock};

use bw_telemetry::{Counter, Gauge, MetricRegistry};

/// Events dropped by any [`crate::EventSender`] in this process, counted
/// the moment they are dropped (the per-run tally only surfaces at join).
fn events_dropped() -> &'static Counter {
    static DROPPED: OnceLock<Arc<Counter>> = OnceLock::new();
    DROPPED.get_or_init(|| MetricRegistry::global().counter("live.monitor.events_dropped"))
}

/// Makes the monitor's live metrics visible (at zero) in the global
/// registry. Idempotent.
pub(crate) fn register() {
    events_dropped();
}

/// Counts one sender-side dropped event (cold path: queue overflow).
#[inline]
pub(crate) fn record_dropped_event() {
    events_dropped().inc();
}

/// The live handles a shard worker updates per drain sweep: cumulative
/// events processed and current total queue depth for shard `shard`.
pub(crate) fn shard_handles(shard: usize) -> (Arc<Counter>, Arc<Gauge>) {
    let registry = MetricRegistry::global();
    (
        registry.counter(&format!("live.monitor.shard.{shard}.events_processed")),
        registry.gauge(&format!("live.monitor.shard.{shard}.queue_depth")),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drop_counter_feeds_the_global_registry() {
        register();
        let dropped = || MetricRegistry::global().snapshot().counter("live.monitor.events_dropped");
        let before = dropped();
        record_dropped_event();
        assert!(dropped() > before, "{:?} after {before:?}", dropped());
    }
}
