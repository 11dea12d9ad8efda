//! Monitor-side telemetry: queue pressure, flush batching, and
//! per-check-kind violation tallies.
//!
//! Plain integers, like `bw-vm`'s cycle buckets: a [`crate::Monitor`] is
//! driven through `&mut self` by the one thread that owns it (the
//! simulator, or a shard worker) and its snapshot is taken after that
//! thread is joined, so nothing reads these from a second thread. What
//! diagnostics watch while a run is live are the registry handles in
//! `live.rs`.

use bw_analysis::CheckKind;
use bw_telemetry::TelemetrySnapshot;

/// One monitor's instruments.
#[derive(Clone, Debug, Default)]
pub struct MonitorTelemetry {
    /// Highest SPSC queue occupancy observed before a drain pass.
    pub queue_high_water: u64,
    /// Number of `flush` calls (end-of-phase sweeps).
    pub flush_calls: u64,
    /// Total partially-reported instances drained across all flushes.
    pub flush_batch_total: u64,
    /// Largest single flush batch.
    pub flush_batch_max: u64,
    /// High-water mark of the pending-instance table.
    pub pending_high_water: u64,
    /// Violations found on `SharedUniform` branches.
    pub violations_shared_uniform: u64,
    /// Violations found on `ThreadIdPredicate` branches.
    pub violations_tid_predicate: u64,
    /// Violations found on `GroupByWitness` branches.
    pub violations_group_witness: u64,
}

impl MonitorTelemetry {
    /// The tally for a branch's check category.
    pub fn violations_for(&mut self, kind: CheckKind) -> &mut u64 {
        match kind {
            CheckKind::SharedUniform => &mut self.violations_shared_uniform,
            CheckKind::ThreadIdPredicate(_) => &mut self.violations_tid_predicate,
            CheckKind::GroupByWitness => &mut self.violations_group_witness,
        }
    }

    /// Exports the instruments under `monitor.*` names.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let mut s = TelemetrySnapshot::new();
        s.push_gauge("monitor.queue_high_water", self.queue_high_water);
        s.push_counter("monitor.flush.calls", self.flush_calls);
        s.push_counter("monitor.flush.batch_total", self.flush_batch_total);
        s.push_gauge("monitor.flush.batch_max", self.flush_batch_max);
        s.push_gauge("monitor.pending_high_water", self.pending_high_water);
        s.push_counter(
            "monitor.violations.shared_uniform",
            self.violations_shared_uniform,
        );
        s.push_counter(
            "monitor.violations.tid_predicate",
            self.violations_tid_predicate,
        );
        s.push_counter(
            "monitor.violations.group_witness",
            self.violations_group_witness,
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
        let mut t = MonitorTelemetry::default();
        *t.violations_for(CheckKind::SharedUniform) += 1;
        *t.violations_for(CheckKind::ThreadIdPredicate(TidCheck::AtMostOneTaken)) += 2;
        *t.violations_for(CheckKind::GroupByWitness) += 3;
        assert_eq!(t.violations_shared_uniform, 1);
        assert_eq!(t.violations_tid_predicate, 2);
        assert_eq!(t.violations_group_witness, 3);
    }

    #[test]
    fn snapshot_carries_all_instruments() {
        let t = MonitorTelemetry { queue_high_water: 17, flush_calls: 1, ..Default::default() };
        let s = t.snapshot();
        assert_eq!(s.gauge("monitor.queue_high_water"), Some(17));
        assert_eq!(s.counter("monitor.flush.calls"), Some(1));
        assert_eq!(s.counter("monitor.violations.group_witness"), Some(0));
    }
}
