//! The named, process-wide metric registry live observability reads from.
//!
//! A [`MetricRegistry`] is a directory of shared metric cells: callers ask
//! for a [`Counter`] / [`Gauge`] / [`Histogram`] by name and get an `Arc`
//! to the same cell every time, so the monitor shards, campaign workers
//! and engines can all bump "their" metric without threading handles
//! through configs (several of which are `Hash + Eq` and cannot carry
//! one). [`MetricRegistry::snapshot`] reads them all into one
//! [`TelemetrySnapshot`].
//!
//! Registry lookups take a `Mutex` and are meant for *cold* paths —
//! resolve the `Arc` once at spawn/run start, then update the lock-free
//! cell from the hot path. Registry contents are process-cumulative
//! (Prometheus semantics): counters keep growing across runs, which is
//! exactly what the [`crate::Sampler`] needs to turn them into rates.
//!
//! The registry feeds the *live* side only (trace `sample` records and
//! the `/metrics` endpoint); per-run result snapshots never read from it,
//! so `deterministic_part()` comparisons stay byte-identical whether or
//! not anything is watching.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock};

use crate::metrics::{Counter, Gauge, Histogram};
use crate::snapshot::TelemetrySnapshot;

#[derive(Default)]
struct Inner {
    counters: BTreeMap<String, Arc<Counter>>,
    gauges: BTreeMap<String, Arc<Gauge>>,
    histograms: BTreeMap<String, Arc<Histogram>>,
}

/// A named directory of shared metric cells.
#[derive(Default)]
pub struct MetricRegistry {
    inner: Mutex<Inner>,
}

impl MetricRegistry {
    /// An empty registry (tests and embedders; most callers want
    /// [`MetricRegistry::global`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// The process-wide registry every instrumented layer registers into.
    pub fn global() -> Arc<MetricRegistry> {
        static GLOBAL: OnceLock<Arc<MetricRegistry>> = OnceLock::new();
        Arc::clone(GLOBAL.get_or_init(|| Arc::new(MetricRegistry::new())))
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The counter named `name`, creating it (at zero) on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        Arc::clone(
            self.lock()
                .counters
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Counter::new())),
        )
    }

    /// The gauge named `name`, creating it (at zero) on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        Arc::clone(
            self.lock()
                .gauges
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Gauge::new())),
        )
    }

    /// The histogram named `name`, creating it (empty) on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        Arc::clone(
            self.lock()
                .histograms
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Histogram::new())),
        )
    }

    /// Reads every cell, in name order within each kind.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let inner = self.lock();
        let mut s = TelemetrySnapshot::new();
        for (name, c) in &inner.counters {
            s.push_counter(name.clone(), c.get());
        }
        for (name, g) in &inner.gauges {
            s.push_gauge(name.clone(), g.get());
        }
        for (name, h) in &inner.histograms {
            s.push_histogram(name.clone(), h.snapshot());
        }
        s
    }
}

impl fmt::Debug for MetricRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.lock();
        f.debug_struct("MetricRegistry")
            .field("counters", &inner.counters.len())
            .field("gauges", &inner.gauges.len())
            .field("histograms", &inner.histograms.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_name_resolves_to_the_same_cell() {
        let reg = MetricRegistry::new();
        let a = reg.counter("live.x");
        let b = reg.counter("live.x");
        a.add(3);
        b.add(4);
        assert_eq!(reg.counter("live.x").get(), 7);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn snapshot_reads_cells_in_name_order() {
        let reg = MetricRegistry::new();
        reg.counter("live.b").add(2);
        reg.counter("live.a").inc();
        reg.gauge("live.depth").set(5);
        reg.histogram("live.lat").observe(9);
        let s = reg.snapshot();
        let names: Vec<&str> = s.counters().iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["live.a", "live.b"]);
        assert_eq!(s.gauge("live.depth"), Some(5));
        assert_eq!(s.histogram("live.lat").unwrap().count, 1);
    }

    #[test]
    fn global_is_one_registry() {
        let a = MetricRegistry::global();
        let b = MetricRegistry::global();
        assert!(Arc::ptr_eq(&a, &b));
    }
}
