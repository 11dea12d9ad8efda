//! The unified monitor construction surface: one [`MonitorBuilder`] covers
//! every ingest shape behind a [`MonitorTopology`] enum.
//!
//! The builder owns the wiring: it creates the queues, hands back one
//! routing [`EventSender`] per application thread, and returns a
//! [`MonitorHandle`] whose `join` produces a [`MonitorVerdict`] with the
//! same shape for every topology. Flat ingest is one shard, so choosing
//! sharded ingest is flipping an enum variant, not adopting a parallel
//! code path.

use crate::event::BranchEvent;
use crate::monitor::{sort_violations, CheckTable, EventSender, Monitor, Violation};
use crate::provenance::ViolationReport;
use crate::shard::{per_shard_capacity, ShardedMonitorThread};
use crate::spsc::{spsc_queue, Consumer};
use crate::telemetry::{ShardHealth, VerdictTelemetry};

/// How monitor ingest is laid out across OS threads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MonitorTopology {
    /// One monitor thread drains every producer queue (the paper's base
    /// design). Equivalent to `Sharded { shards: 1 }`.
    Flat,
    /// `shards` monitor threads, each owning the `(site, branch)` keys that
    /// hash to it ([`crate::shard_of`]); producers route per event.
    Sharded {
        /// Number of key-space shards (must be positive).
        shards: usize,
    },
}

impl MonitorTopology {
    /// How many shard queues a producer routes across (1 for flat
    /// ingest).
    pub fn shard_count(&self) -> usize {
        match *self {
            MonitorTopology::Sharded { shards } => shards,
            MonitorTopology::Flat => 1,
        }
    }
}

/// Everything a monitor topology reports at join, in one shape.
#[derive(Debug)]
pub struct MonitorVerdict {
    /// Detected violations, in the canonical order of
    /// [`crate::sort_violations`].
    pub violations: Vec<Violation>,
    /// Structured evidence, in lockstep with `violations`.
    pub violation_reports: Vec<ViolationReport>,
    /// Events processed across every monitor worker.
    pub events_processed: u64,
    /// Always 0: a sender waits on a full queue and never drops an event.
    /// Kept for the benchmark harness, which reads it.
    pub events_dropped: u64,
    /// What the monitor measured, merged across shards, plus per-shard
    /// health when sharded; named on demand by
    /// [`VerdictTelemetry::render_to`].
    pub telemetry: VerdictTelemetry,
}

impl MonitorVerdict {
    /// Whether any violation was detected.
    pub fn detected(&self) -> bool {
        !self.violations.is_empty()
    }

    /// Merges per-shard monitors into one verdict. Violations and reports
    /// are sorted into the canonical order ([`crate::sort_violations`]) so
    /// the result is independent of how the key space was partitioned;
    /// counts sum and high-water marks keep the maximum. With more than one
    /// shard, each shard's [`ShardHealth`] is kept too, so `bw stats` can
    /// show ingest balance.
    pub(crate) fn merge_monitors(monitors: Vec<Monitor>) -> MonitorVerdict {
        let sharded = monitors.len() > 1;
        let mut telemetry = VerdictTelemetry::default();
        if sharded {
            telemetry.shards.reserve_exact(monitors.len());
        }
        let mut violations = Vec::new();
        let mut violation_reports = Vec::new();
        for monitor in monitors {
            telemetry.add(
                monitor.telemetry(),
                monitor.events_processed(),
                monitor.violations().len() as u64,
                monitor.pending_instances() as u64,
            );
            if sharded {
                telemetry.shards.push(ShardHealth {
                    events_processed: monitor.events_processed(),
                    queue_high_water: monitor.telemetry().queue_high_water,
                });
            }
            let (v, r) = monitor.into_results();
            violations.extend(v);
            violation_reports.extend(r);
        }
        sort_violations(&mut violations, &mut violation_reports);
        MonitorVerdict {
            violations,
            violation_reports,
            events_processed: telemetry.events_processed,
            events_dropped: 0,
            telemetry,
        }
    }
}

/// A running monitor of any topology (flat is one shard worker); join to
/// collect the verdict.
pub struct MonitorHandle(ShardedMonitorThread);

impl MonitorHandle {
    /// Stops the monitor once its queues drain and merges the final state
    /// into a [`MonitorVerdict`] (drop or join the sending threads first, so
    /// every event sent is in a queue).
    ///
    /// # Panics
    ///
    /// Panics if a monitor thread panicked.
    pub fn join(self) -> MonitorVerdict {
        self.0.join()
    }
}

/// Builds and spawns a monitor of any [`MonitorTopology`], wiring queues
/// and routing senders uniformly.
///
/// ```ignore
/// let (senders, handle) = MonitorBuilder::new(checks, nthreads)
///     .topology(MonitorTopology::Sharded { shards: 4 })
///     .queue_capacity(1 << 14)
///     .spawn();
/// // ... one EventSender per application thread ...
/// let verdict = handle.join();
/// ```
#[derive(Debug)]
pub struct MonitorBuilder {
    checks: CheckTable,
    nthreads: usize,
    topology: MonitorTopology,
    queue_capacity: usize,
}

impl MonitorBuilder {
    /// A builder for `nthreads` application threads checking according to
    /// `checks`; flat topology and a 16Ki-slot per-thread queue budget by
    /// default.
    pub fn new(checks: CheckTable, nthreads: usize) -> Self {
        MonitorBuilder { checks, nthreads, topology: MonitorTopology::Flat, queue_capacity: 1 << 14 }
    }

    /// Selects the ingest topology.
    pub fn topology(mut self, topology: MonitorTopology) -> Self {
        self.topology = topology;
        self
    }

    /// Sets the *total* per-thread queue budget in events. Sharded ingest
    /// splits the budget across shards ([`per_shard_capacity`]); flat
    /// ingest gives the single queue the whole budget. A small budget costs
    /// the senders waiting for the monitor, never an event.
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Spawns the monitor threads and returns one routing [`EventSender`]
    /// per application thread (index = thread id) plus the handle to join.
    ///
    /// # Panics
    ///
    /// Panics if the shard count or the queue capacity is zero.
    pub fn spawn(self) -> (Vec<EventSender>, MonitorHandle) {
        let shards = self.topology.shard_count();
        assert!(shards > 0, "shard count must be positive");
        let capacity = per_shard_capacity(self.queue_capacity, shards);
        let mut shard_queues: Vec<Vec<Consumer<BranchEvent>>> =
            (0..shards).map(|_| Vec::with_capacity(self.nthreads)).collect();
        let mut senders = Vec::with_capacity(self.nthreads);
        for _ in 0..self.nthreads {
            let mut producers = Vec::with_capacity(shards);
            for queues in shard_queues.iter_mut() {
                let (p, c) = spsc_queue(capacity);
                producers.push(p);
                queues.push(c);
            }
            senders.push(EventSender::fanned(producers));
        }
        let monitor = ShardedMonitorThread::spawn(self.checks, self.nthreads, shard_queues);
        (senders, MonitorHandle(monitor))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bw_analysis::CheckKind;

    fn checks() -> CheckTable {
        CheckTable::from_kinds(vec![Some(CheckKind::SharedUniform)])
    }

    fn drive(topology: MonitorTopology) -> MonitorVerdict {
        let nthreads = 4usize;
        let (senders, handle) =
            MonitorBuilder::new(checks(), nthreads).topology(topology).spawn();
        let producers: Vec<_> = senders
            .into_iter()
            .enumerate()
            .map(|(t, mut sender)| {
                std::thread::spawn(move || {
                    for site in 0..8u64 {
                        for iter in 0..25u64 {
                            // Thread 1 lies at site 3, iteration 7.
                            let lie = t == 1 && site == 3 && iter == 7;
                            let witness = if lie { 0xbad } else { iter };
                            sender.send(BranchEvent {
                                branch: 0,
                                thread: t as u32,
                                site,
                                iter,
                                witness,
                                taken: true,
                            });
                        }
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        handle.join()
    }

    #[test]
    fn every_topology_reaches_the_same_verdict() {
        for topology in [
            MonitorTopology::Flat,
            MonitorTopology::Sharded { shards: 1 },
            MonitorTopology::Sharded { shards: 4 },
        ] {
            let verdict = drive(topology);
            assert_eq!(verdict.events_processed, 4 * 8 * 25, "{topology:?}");
            assert_eq!(verdict.violations.len(), 1, "{topology:?}");
            assert_eq!(verdict.violations[0].site, 3, "{topology:?}");
            assert_eq!(verdict.violations[0].iter, 7, "{topology:?}");
            assert_eq!(verdict.violation_reports.len(), 1, "{topology:?}");
            assert!(verdict.detected());
        }
    }

    #[test]
    fn sharded_verdicts_carry_per_shard_metrics() {
        let verdict = drive(MonitorTopology::Sharded { shards: 4 });
        let snapshot = |verdict: &MonitorVerdict| {
            let mut s = bw_telemetry::TelemetrySnapshot::new();
            verdict.telemetry.render_to(&mut s);
            s
        };
        let named = snapshot(&verdict);
        let counters = named.counters();
        let per_shard: Vec<&(String, u64)> = counters
            .iter()
            .filter(|(name, _)| name.starts_with("monitor.shard."))
            .collect();
        let processed: u64 = per_shard
            .iter()
            .filter(|(name, _)| name.ends_with(".events_processed"))
            .map(|(_, v)| v)
            .sum();
        assert_eq!(processed, verdict.events_processed, "shard counters sum to the total");
        // Flat verdicts stay label-free.
        let flat = drive(MonitorTopology::Flat);
        assert!(snapshot(&flat)
            .counters()
            .iter()
            .all(|(name, _)| !name.starts_with("monitor.shard.")));
    }

    #[test]
    fn shard_count_is_one_except_for_sharded() {
        assert_eq!(MonitorTopology::Flat.shard_count(), 1);
        assert_eq!(MonitorTopology::Sharded { shards: 8 }.shard_count(), 8);
    }
}
