//! Monitor-side telemetry: queue pressure, flush batching, and
//! per-check-kind violation tallies.
//!
//! Plain integers, like `bw-vm`'s cycle buckets: a [`crate::Monitor`] is
//! driven through `&mut self` by the one thread that owns it (the
//! simulator, or a shard worker) and its instruments are read after that
//! thread is joined, so nothing reads these from a second thread. What
//! diagnostics watch while a run is live are the registry handles in
//! `live.rs`.
//!
//! A verdict carries the instruments as a [`VerdictTelemetry`], still plain
//! numbers; the `monitor.*` names exist only in [`VerdictTelemetry::render_to`],
//! which builds them when a caller asks for a named snapshot.

use bw_analysis::CheckKind;
use bw_telemetry::TelemetrySnapshot;

/// One monitor's instruments.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
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

    /// Counts one flush of `batch` pending instances.
    pub(crate) fn count_flush(&mut self, batch: u64) {
        self.flush_calls += 1;
        self.flush_batch_total += batch;
        self.flush_batch_max = self.flush_batch_max.max(batch);
    }

    /// Folds another shard's instruments in: counts add (saturating),
    /// high-water marks keep the maximum.
    pub(crate) fn merge(&mut self, other: &MonitorTelemetry) {
        self.queue_high_water = self.queue_high_water.max(other.queue_high_water);
        self.flush_calls = self.flush_calls.saturating_add(other.flush_calls);
        self.flush_batch_total = self.flush_batch_total.saturating_add(other.flush_batch_total);
        self.flush_batch_max = self.flush_batch_max.max(other.flush_batch_max);
        self.pending_high_water = self.pending_high_water.max(other.pending_high_water);
        self.violations_shared_uniform =
            self.violations_shared_uniform.saturating_add(other.violations_shared_uniform);
        self.violations_tid_predicate =
            self.violations_tid_predicate.saturating_add(other.violations_tid_predicate);
        self.violations_group_witness =
            self.violations_group_witness.saturating_add(other.violations_group_witness);
    }

    /// Appends the instruments to `s` under their `monitor.*` names.
    fn render_to(&self, s: &mut TelemetrySnapshot) {
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
    }
}

/// One shard's ingest health, kept when a verdict merges more than one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardHealth {
    /// Events the shard processed.
    pub events_processed: u64,
    /// Its highest queue occupancy before a drain pass.
    pub queue_high_water: u64,
}

/// Everything a monitor measured, summed across its shards: what a
/// [`crate::MonitorVerdict`] and a run's result carry in place of named
/// metrics. Counts add and high-water marks keep the maximum, as a merge of
/// one named snapshot per shard would.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VerdictTelemetry {
    /// The monitors' instruments, merged.
    pub instruments: MonitorTelemetry,
    /// Events processed.
    pub events_processed: u64,
    /// Violations found (before `SendOnly` discards them).
    pub violations: u64,
    /// Instances still pending at the end, the largest of any shard.
    pub pending_instances: u64,
    /// Per-shard health, in shard order, when there is more than one shard;
    /// empty for one.
    pub shards: Vec<ShardHealth>,
}

impl VerdictTelemetry {
    /// Folds in one monitor: its instruments, the events it processed, the
    /// violations it found and the instances it left pending.
    pub(crate) fn add(
        &mut self,
        instruments: &MonitorTelemetry,
        events: u64,
        violations: u64,
        pending: u64,
    ) {
        self.instruments.merge(instruments);
        self.events_processed = self.events_processed.saturating_add(events);
        self.violations = self.violations.saturating_add(violations);
        self.pending_instances = self.pending_instances.max(pending);
    }

    /// Appends the `monitor.*` metrics to `s`: the instruments, the event
    /// and violation counts, then a `monitor.shard.<i>.events_processed`
    /// counter and a `monitor.shard.<i>.queue_high_water` gauge per shard.
    /// `monitor.events_dropped` is always 0 (senders wait, never drop); it
    /// is still written, so traces keep the records they had.
    pub fn render_to(&self, s: &mut TelemetrySnapshot) {
        self.instruments.render_to(s);
        s.push_counter("monitor.events_processed", self.events_processed);
        s.push_counter("monitor.events_dropped", 0);
        s.push_counter("monitor.violations", self.violations);
        s.push_gauge("monitor.pending_instances", self.pending_instances);
        for (i, shard) in self.shards.iter().enumerate() {
            s.push_counter(format!("monitor.shard.{i}.events_processed"), shard.events_processed);
            s.push_gauge(format!("monitor.shard.{i}.queue_high_water"), shard.queue_high_water);
        }
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
        let mut s = TelemetrySnapshot::new();
        t.render_to(&mut s);
        assert_eq!(s.gauge("monitor.queue_high_water"), Some(17));
        assert_eq!(s.counter("monitor.flush.calls"), Some(1));
        assert_eq!(s.counter("monitor.violations.group_witness"), Some(0));
    }
}
