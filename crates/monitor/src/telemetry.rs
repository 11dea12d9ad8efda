//! Monitor-side telemetry: queue pressure, flush batching, and
//! per-check-kind violation tallies.
//!
//! The instruments live here as a plain struct of relaxed atomics so the
//! monitor can update them from its own thread while diagnostics read
//! them from outside. Updates on hot paths go through the `tm_*` macros
//! and vanish when the `telemetry` feature is off; the struct itself
//! always compiles so `Monitor`'s API does not change shape.

use bw_analysis::CheckKind;
use bw_telemetry::{Counter, Gauge, TelemetrySnapshot};

/// One monitor's instruments.
#[derive(Debug, Default)]
pub struct MonitorTelemetry {
    /// Highest SPSC queue occupancy observed before a drain pass.
    pub queue_high_water: Gauge,
    /// Number of `flush` calls (end-of-phase sweeps).
    pub flush_calls: Counter,
    /// Total partially-reported instances drained across all flushes.
    pub flush_batch_total: Counter,
    /// Largest single flush batch.
    pub flush_batch_max: Gauge,
    /// High-water mark of the pending-instance table.
    pub pending_high_water: Gauge,
    /// Violations found on `SharedUniform` branches.
    pub violations_shared_uniform: Counter,
    /// Violations found on `ThreadIdPredicate` branches.
    pub violations_tid_predicate: Counter,
    /// Violations found on `GroupByWitness` branches.
    pub violations_group_witness: Counter,
}

impl MonitorTelemetry {
    /// All-zero instruments.
    pub const fn new() -> Self {
        MonitorTelemetry {
            queue_high_water: Gauge::new(),
            flush_calls: Counter::new(),
            flush_batch_total: Counter::new(),
            flush_batch_max: Gauge::new(),
            pending_high_water: Gauge::new(),
            violations_shared_uniform: Counter::new(),
            violations_tid_predicate: Counter::new(),
            violations_group_witness: Counter::new(),
        }
    }

    /// The tally counter for a branch's check category.
    pub fn violations_for(&self, kind: CheckKind) -> &Counter {
        match kind {
            CheckKind::SharedUniform => &self.violations_shared_uniform,
            CheckKind::ThreadIdPredicate(_) => &self.violations_tid_predicate,
            CheckKind::GroupByWitness => &self.violations_group_witness,
        }
    }

    /// Exports the instruments under `monitor.*` names.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let mut s = TelemetrySnapshot::new();
        s.push_gauge("monitor.queue_high_water", self.queue_high_water.get());
        s.push_counter("monitor.flush.calls", self.flush_calls.get());
        s.push_counter("monitor.flush.batch_total", self.flush_batch_total.get());
        s.push_gauge("monitor.flush.batch_max", self.flush_batch_max.get());
        s.push_gauge("monitor.pending_high_water", self.pending_high_water.get());
        s.push_counter(
            "monitor.violations.shared_uniform",
            self.violations_shared_uniform.get(),
        );
        s.push_counter(
            "monitor.violations.tid_predicate",
            self.violations_tid_predicate.get(),
        );
        s.push_counter(
            "monitor.violations.group_witness",
            self.violations_group_witness.get(),
        );
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bw_analysis::TidCheck;

    #[test]
    fn violation_tallies_are_keyed_by_check_kind() {
        let t = MonitorTelemetry::new();
        t.violations_for(CheckKind::SharedUniform).inc();
        t.violations_for(CheckKind::ThreadIdPredicate(TidCheck::AtMostOneTaken))
            .add(2);
        t.violations_for(CheckKind::GroupByWitness).add(3);
        assert_eq!(t.violations_shared_uniform.get(), 1);
        assert_eq!(t.violations_tid_predicate.get(), 2);
        assert_eq!(t.violations_group_witness.get(), 3);
    }

    #[test]
    fn snapshot_carries_all_instruments() {
        let t = MonitorTelemetry::new();
        t.queue_high_water.record_max(17);
        t.flush_calls.inc();
        let s = t.snapshot();
        assert_eq!(s.gauge("monitor.queue_high_water"), Some(17));
        assert_eq!(s.counter("monitor.flush.calls"), Some(1));
        assert_eq!(s.counter("monitor.violations.group_witness"), Some(0));
    }
}
