//! The monitor proper: drains the per-thread queues round-robin, correlates
//! reports under the paper's two keys (`table.rs`), and applies
//! the per-category checks.
//!
//! The monitor is a passive object ([`Monitor::poll`] / [`Monitor::flush`])
//! so that the deterministic simulator can drive it inline; for the
//! real-threads engine, [`crate::MonitorBuilder`] wraps it in dedicated OS
//! threads that poll until all producers disconnect, exactly like the
//! paper's asynchronous monitor thread.

use bw_analysis::{CheckKind, CheckPlan};

use crate::checker::{check_instance, Report, ViolationKind};
use crate::event::BranchEvent;
use crate::provenance::{build_report, window_capacity, Evidence, SiteTable, ViolationReport};
use crate::spsc::{Producer, QueueFull};
use crate::table::{BranchTable, Chain, Recorded};
use crate::telemetry::MonitorTelemetry;

/// A detected similarity violation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Violation {
    /// The offending branch.
    pub branch: u32,
    /// Level-1 runtime key (call-site path hash).
    pub site: u64,
    /// Level-2 runtime key (loop-iteration hash).
    pub iter: u64,
    /// What failed.
    pub kind: ViolationKind,
    /// How many threads had reported the instance when it was checked.
    pub reporters: u32,
}

impl Violation {
    fn order(&self) -> (u64, u32, u64, ViolationKind, u32) {
        (self.site, self.branch, self.iter, self.kind, self.reporters)
    }

    /// A one-line human-readable rendering, used by diagnostic CLIs
    /// (`bw fuzz`) when reporting a detection.
    pub fn describe(&self) -> String {
        let what = match self.kind {
            ViolationKind::WitnessMismatch => {
                "threads disagreed on the condition witness"
            }
            ViolationKind::DirectionMismatch => {
                "threads took different directions on a shared-category branch"
            }
            ViolationKind::GroupMismatch => {
                "threads with equal witnesses took different directions"
            }
            ViolationKind::TidPredicate => {
                "branch outcomes violated the thread-ID predicate"
            }
        };
        format!(
            "branch br{}: {what} (site {:#x}, iteration {:#x}, {} reporters)",
            self.branch, self.site, self.iter, self.reporters
        )
    }
}

/// Puts violations and their reports into the one order every topology and
/// engine hands them out in: by site, branch, iteration, kind and reporter
/// count — every field, so violations that tie are equal — and reports by
/// their violation, then by the site-local `detected_seq`, which no two
/// reports of one violation share. So `violations[i]` is
/// `reports[i].violation` for every report, and neither list depends on
/// how the key space was sharded.
pub fn sort_violations(violations: &mut [Violation], reports: &mut [ViolationReport]) {
    violations.sort_unstable_by_key(Violation::order);
    reports.sort_unstable_by_key(|r| (r.violation.order(), r.detected_seq));
}

/// How the monitor checks each branch: a compact per-branch table derived
/// from the [`CheckPlan`].
#[derive(Clone, Debug, Default)]
pub struct CheckTable {
    kinds: Vec<Option<CheckKind>>,
}

impl CheckTable {
    /// Builds a table directly from per-branch kinds (tests, custom plans).
    pub fn from_kinds(kinds: Vec<Option<CheckKind>>) -> Self {
        CheckTable { kinds }
    }

    /// Extracts the per-branch check kinds from a plan.
    pub fn from_plan(plan: &CheckPlan) -> Self {
        CheckTable {
            kinds: plan
                .decisions
                .iter()
                .map(|d| d.as_ref().ok().map(|c| c.kind))
                .collect(),
        }
    }

    /// The check kind for a branch, if instrumented.
    pub fn kind(&self, branch: u32) -> Option<CheckKind> {
        self.kinds.get(branch as usize).copied().flatten()
    }

    /// Number of branches covered (instrumented or not).
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }
}

/// How many events ahead [`Monitor::process_batch`] prefetches: far enough
/// that a slot arrives before its probe, near enough that it is still in
/// cache then (EXPERIMENTS, "Monitor ingest with prefetch", sweeps 4, 8
/// and 16).
pub(crate) const PREFETCH_DISTANCE: usize = 8;

/// The passive monitor object. A clone is the same monitor: fed the same
/// events from then on, it reaches the same verdicts, reports and telemetry.
#[derive(Clone, Debug)]
pub struct Monitor {
    checks: CheckTable,
    nthreads: usize,
    table: BranchTable,
    sites: SiteTable,
    violations: Vec<Violation>,
    reports: Vec<ViolationReport>,
    /// The reports of the instance being checked, reused from one check to
    /// the next.
    scratch: Vec<Report>,
    events_processed: u64,
    telemetry: MonitorTelemetry,
}

impl Monitor {
    /// Creates a monitor for `nthreads` application threads checking
    /// according to `checks`.
    pub fn new(checks: CheckTable, nthreads: usize) -> Self {
        Monitor {
            checks,
            nthreads,
            table: BranchTable::default(),
            sites: SiteTable::new(window_capacity(nthreads)),
            violations: Vec::new(),
            reports: Vec::new(),
            scratch: Vec::new(),
            events_processed: 0,
            telemetry: MonitorTelemetry::default(),
        }
    }

    /// Processes one event. The instance table is the only state an event
    /// writes; the site table is reached when the report leaves it — its
    /// instance completes, or it is a dropped re-report.
    pub fn process(&mut self, event: BranchEvent) {
        self.events_processed += 1;
        let Some(kind) = self.checks.kind(event.branch) else {
            return; // not instrumented; defensive
        };
        if self.table.has_drained() {
            self.file_drained();
        }
        let BranchEvent { branch, thread, site, iter, witness, taken } = event;
        let report = Report { thread, witness, taken };
        match self.table.record(branch, site, iter, report, self.nthreads, &mut self.scratch) {
            Recorded::Pending => {}
            Recorded::Dropped(chain) => self.file(branch, site, chain),
            Recorded::Completed(chain) => {
                self.file(branch, site, chain);
                let reports = std::mem::take(&mut self.scratch);
                self.check(kind, branch, site, iter, &reports, false);
                self.scratch = reports;
            }
        }
        self.telemetry.pending_high_water =
            self.telemetry.pending_high_water.max(self.table.len() as u64);
    }

    /// Processes `events` in order, exactly as one [`Monitor::process`] call
    /// each would. What it adds is lookahead: before event *i* it
    /// prefetches the instance-index slot that event *i* + 8 will probe,
    /// so a batch's cache misses on an index larger than the cache overlap
    /// instead of being taken one at a time. The prefetch is a hint and
    /// decides nothing.
    pub fn process_batch(&mut self, events: &[BranchEvent]) {
        for (i, &event) in events.iter().enumerate() {
            if let Some(ahead) = events.get(i + PREFETCH_DISTANCE) {
                self.prefetch(ahead);
            }
            self.process(event);
        }
    }

    /// Prefetches the instance-index slot `event` will probe; a hint that
    /// decides nothing.
    #[inline]
    pub(crate) fn prefetch(&self, event: &BranchEvent) {
        self.table.prefetch(event.branch, event.site, event.iter);
    }

    /// Files a chain that left the instance table into its site's history
    /// (out of line: most events leave an instance pending).
    #[inline(never)]
    fn file(&mut self, branch: u32, site: u64, chain: Chain) {
        self.sites.file(&mut self.table.nodes, branch, site, chain);
    }

    /// Files the instances the last flush drained: only a monitor fed again
    /// after a flush needs them in their sites' histories.
    #[cold]
    fn file_drained(&mut self) {
        let sites = &mut self.sites;
        self.table
            .file_drained(|nodes, branch, site, chain| sites.file(nodes, branch, site, chain));
    }

    /// Checks every instance that has not reached `nthreads` reporters
    /// (executed at the end of the parallel phase). Returns the total number
    /// of violations found so far.
    pub fn flush(&mut self) -> usize {
        let batch = self.table.len() as u64;
        self.telemetry.flush_calls += 1;
        self.telemetry.flush_batch_total += batch;
        self.telemetry.flush_batch_max = self.telemetry.flush_batch_max.max(batch);
        let (first, first_report) = (self.violations.len(), self.reports.len());
        // With nothing pending the rows can only hold what an earlier flush
        // drained, checked already.
        if batch > 0 {
            let mut reports = std::mem::take(&mut self.scratch);
            for row in 0..self.table.rows() {
                if let Some((branch, site, iter)) = self.table.pending_row(row, &mut reports) {
                    if let Some(kind) = self.checks.kind(branch) {
                        self.check(kind, branch, site, iter, &reports, true);
                    }
                }
            }
            self.scratch = reports;
            self.table.close_flush();
        }
        // The table hands instances out in storage order; pending keys are
        // distinct, so sorting what this flush found by key gives the one
        // reproducible order — without sorting the instances that passed.
        self.violations[first..].sort_unstable_by_key(|v| (v.branch, v.site, v.iter));
        self.reports[first_report..].sort_unstable_by_key(|r| {
            let v = &r.violation;
            (v.branch, v.site, v.iter)
        });
        self.violations.len()
    }

    /// Checks one instance. On a violation the evidence is rebuilt from the
    /// site's history and its pending instances as of now: at an eager
    /// check the newest entry is the report that completed the instance; at
    /// a flush it is the last the site received, and the site's pending
    /// depth is zero, the flush draining every instance at once.
    fn check(
        &mut self,
        kind: CheckKind,
        branch: u32,
        site: u64,
        iter: u64,
        reports: &[Report],
        at_flush: bool,
    ) {
        if let Err(vk) = check_instance(kind, reports) {
            *self.telemetry.violations_for(kind) += 1;
            let violation = Violation {
                branch,
                site,
                iter,
                kind: vk,
                reporters: reports.len() as u32,
            };
            self.violations.push(violation);
            let Evidence { window, seq, pending } = self.sites.evidence(&self.table, branch, site);
            let pending = if at_flush { 0 } else { pending };
            self.reports.push(build_report(violation, kind, reports, window, seq, pending));
        }
    }

    /// The violations detected so far.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Structured evidence for each violation, in the same order as
    /// [`Monitor::violations`].
    pub fn violation_reports(&self) -> &[ViolationReport] {
        &self.reports
    }

    /// Whether any violation has been detected.
    pub fn detected(&self) -> bool {
        !self.violations.is_empty()
    }

    /// Total number of events processed.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Number of instances awaiting more reporters.
    pub fn pending_instances(&self) -> usize {
        self.table.len()
    }

    /// The monitor's instruments.
    pub fn telemetry(&self) -> &MonitorTelemetry {
        &self.telemetry
    }

    /// The instruments, for the owner to set `queue_high_water` (only the
    /// thread draining the queues sees their occupancy).
    pub fn telemetry_mut(&mut self) -> &mut MonitorTelemetry {
        &mut self.telemetry
    }

    /// Decomposes the monitor into its owned verdict lists (used by the
    /// topology layer when merging shards).
    pub(crate) fn into_results(self) -> (Vec<Violation>, Vec<ViolationReport>) {
        (self.violations, self.reports)
    }
}

/// How many times a sender re-tries a full queue, spinning, before it
/// starts yielding its core to the monitor between tries.
const SPINS_BEFORE_YIELD: u32 = 1024;

/// A sending endpoint one application thread uses. A push that finds the
/// queue full waits for the monitor to free a slot: it spins briefly, then
/// yields between tries. No event is ever dropped, so a small queue costs
/// the sender waiting, never a check (the paper sizes queues to make the
/// wait rare).
///
/// A sender owns one producer per monitor shard and routes each event to
/// the shard owning its `(site, branch)` key via [`crate::shard_of`]; the
/// common single-shard case skips the hash entirely.
#[derive(Debug)]
pub struct EventSender {
    /// One queue producer per monitor shard, indexed by shard id.
    producers: Vec<Producer<BranchEvent>>,
    sent: u64,
}

impl EventSender {
    /// Wraps one producer per monitor shard (indexed by shard id).
    ///
    /// # Panics
    ///
    /// Panics if `producers` is empty.
    pub fn fanned(producers: Vec<Producer<BranchEvent>>) -> Self {
        assert!(!producers.is_empty(), "sender needs at least one shard producer");
        EventSender { producers, sent: 0 }
    }

    /// Sends an event to the shard owning its key, waiting while that
    /// shard's queue is full.
    ///
    /// # Panics
    ///
    /// Panics if the queue is full and its consumer is gone (the shard
    /// worker exited or panicked), instead of waiting forever.
    pub fn send(&mut self, event: BranchEvent) {
        let shard = if self.producers.len() == 1 {
            0
        } else {
            crate::shard::shard_of(event.site, event.branch, self.producers.len())
        };
        if let Err(QueueFull(event)) = self.producers[shard].push(event) {
            wait_to_push(&self.producers[shard], event);
        }
        self.sent += 1;
    }

    /// Events enqueued by this sender (all shards).
    pub fn sent(&self) -> u64 {
        self.sent
    }
}

/// Pushes `event` into a queue that was full: spins, then yields, until the
/// monitor frees a slot (out of line: the queue is sized so this is rare).
#[cold]
#[inline(never)]
fn wait_to_push(producer: &Producer<BranchEvent>, mut event: BranchEvent) {
    let mut spins = 0u32;
    while let Err(QueueFull(back)) = producer.push(event) {
        event = back;
        if spins < SPINS_BEFORE_YIELD {
            spins += 1;
            std::hint::spin_loop();
        } else {
            assert!(!producer.consumer_gone(), "monitor queue is full and its consumer is gone");
            std::thread::yield_now();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bw_analysis::TidCheck;

    fn table_with(kinds: Vec<Option<CheckKind>>) -> CheckTable {
        CheckTable { kinds }
    }

    fn ev(branch: u32, thread: u32, witness: u64, taken: bool) -> BranchEvent {
        BranchEvent { branch, thread, site: 0, iter: 0, witness, taken }
    }

    #[test]
    fn eager_check_fires_at_full_instance() {
        let checks = table_with(vec![Some(CheckKind::SharedUniform)]);
        let mut m = Monitor::new(checks, 2);
        m.process(ev(0, 0, 5, true));
        assert!(!m.detected());
        m.process(ev(0, 1, 5, false)); // direction mismatch
        assert!(m.detected());
        assert_eq!(m.violations()[0].kind, ViolationKind::DirectionMismatch);
        assert_eq!(m.violations()[0].reporters, 2);
    }

    #[test]
    fn flush_checks_partial_instances() {
        let checks = table_with(vec![Some(CheckKind::SharedUniform)]);
        let mut m = Monitor::new(checks, 4);
        m.process(ev(0, 0, 5, true));
        m.process(ev(0, 1, 6, true)); // witness mismatch, but only 2 of 4
        assert!(!m.detected());
        assert_eq!(m.pending_instances(), 1);
        m.flush();
        assert!(m.detected());
        assert_eq!(m.violations()[0].kind, ViolationKind::WitnessMismatch);
    }

    #[test]
    fn uninstrumented_branches_are_ignored() {
        let checks = table_with(vec![None]);
        let mut m = Monitor::new(checks, 2);
        m.process(ev(0, 0, 1, true));
        m.process(ev(0, 1, 2, false));
        m.flush();
        assert!(!m.detected());
    }

    #[test]
    fn clean_run_has_no_violations() {
        let checks = table_with(vec![
            Some(CheckKind::SharedUniform),
            Some(CheckKind::ThreadIdPredicate(TidCheck::AtMostOneTaken)),
        ]);
        let mut m = Monitor::new(checks, 4);
        for t in 0..4 {
            m.process(ev(0, t, 42, true));
            m.process(BranchEvent { branch: 1, thread: t, site: 0, iter: 0, witness: 0, taken: t == 0 });
        }
        m.flush();
        assert!(!m.detected());
        assert_eq!(m.events_processed(), 8);
    }

    #[test]
    fn violation_report_snapshots_every_reporter() {
        let checks = table_with(vec![Some(CheckKind::SharedUniform)]);
        let mut m = Monitor::new(checks, 4);
        // Thread 0 lies about the witness; the check fires when thread 3's
        // report completes the instance.
        for t in 0..4 {
            let witness = if t == 0 { 7 } else { 5 };
            m.process(ev(0, t, witness, true));
        }
        assert!(m.detected());
        let reports = m.violation_reports();
        assert_eq!(reports.len(), 1);
        let r = &reports[0];
        assert_eq!(r.violation, m.violations()[0]);
        // Snapshot completeness: every reporting thread is in the observed
        // table, sorted by thread id, and the split singles out the liar.
        let threads: Vec<u32> = r.observed.iter().map(|o| o.thread).collect();
        assert_eq!(threads, vec![0, 1, 2, 3]);
        assert_eq!(r.deviants, vec![0]);
        assert_eq!(r.majority, vec![1, 2, 3]);
        // The ring window holds all four events; the deviant reported at
        // seq 1 and the check fired at seq 4, three messages later.
        assert_eq!(r.window.len(), 4);
        assert_eq!(r.detected_seq, 4);
        assert_eq!(r.detection_latency, Some(3));
    }

    #[test]
    fn monitor_thread_end_to_end() {
        use crate::topology::{MonitorBuilder, MonitorTopology};
        let checks = table_with(vec![Some(CheckKind::SharedUniform)]);
        let nthreads = 4;
        let (senders, handle) = MonitorBuilder::new(checks, nthreads)
            .topology(MonitorTopology::Flat)
            .queue_capacity(256)
            .spawn();

        let handles: Vec<_> = senders
            .into_iter()
            .enumerate()
            .map(|(t, mut sender)| {
                std::thread::spawn(move || {
                    for i in 0..100u64 {
                        // Thread 2 lies about instance 50.
                        let witness = if t == 2 && i == 50 { 999 } else { i };
                        sender.send(BranchEvent {
                            branch: 0,
                            thread: t as u32,
                            site: 0,
                            iter: i,
                            witness,
                            taken: true,
                        });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let verdict = handle.join();
        assert_eq!(verdict.events_processed, 400);
        assert_eq!(verdict.violations.len(), 1);
        assert_eq!(verdict.violations[0].iter, 50);
        assert_eq!(verdict.violations[0].kind, ViolationKind::WitnessMismatch);
    }

    /// A full queue whose consumer is gone can never drain: the sender
    /// panics instead of waiting forever. The send runs on its own thread,
    /// so a sender that waited would fail the test, not hang it.
    #[test]
    fn a_sender_whose_consumer_is_gone_panics_instead_of_waiting() {
        let (producer, consumer) = crate::spsc::spsc_queue(1);
        drop(consumer); // as when the shard worker exits or panics
        let mut sender = EventSender::fanned(vec![producer]);
        sender.send(ev(0, 0, 1, true)); // fills the queue
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let sent = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                sender.send(ev(0, 0, 2, true));
            }));
            let _ = done.send(sent.is_err());
        });
        let panicked = finished
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("the sender is still waiting on a queue nothing drains");
        assert!(panicked, "the send into a full, orphaned queue returned");
    }

    #[test]
    fn describe_renders_every_kind() {
        for kind in [
            ViolationKind::WitnessMismatch,
            ViolationKind::DirectionMismatch,
            ViolationKind::GroupMismatch,
            ViolationKind::TidPredicate,
        ] {
            let v = Violation { branch: 7, site: 0xabc, iter: 3, kind, reporters: 4 };
            let text = v.describe();
            assert!(text.contains("br7"), "{text}");
            assert!(text.contains("4 reporters"), "{text}");
        }
    }
}
