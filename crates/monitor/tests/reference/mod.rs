//! The reference model the flat back-end is tested against: the monitor as
//! it stood before `table.rs` went flat — a `HashMap` per level-1 key
//! holding a `HashMap` of `Vec<Report>` instances, a `Vec` ring per site,
//! a sorted drain at flush. Slow, allocation-heavy and obviously right;
//! kept under `tests/` only.

use std::collections::HashMap;

use bw_analysis::CheckKind;
use bw_monitor::provenance::{build_report, window_capacity};
use bw_monitor::{
    check_instance, BranchEvent, CheckTable, MonitorTelemetry, Report, Violation, ViolationReport,
    WindowEntry,
};

/// The two-level table: level 1 by `(branch, site)`, level 2 by `iter`.
#[derive(Default)]
struct BranchTable {
    level1: HashMap<(u32, u64), HashMap<u64, Vec<Report>>>,
    len: usize,
}

impl BranchTable {
    fn record(
        &mut self,
        branch: u32,
        site: u64,
        iter: u64,
        report: Report,
        nthreads: usize,
    ) -> Option<Vec<Report>> {
        let level2 = self.level1.entry((branch, site)).or_default();
        let reports = level2.entry(iter).or_default();
        if reports.is_empty() {
            self.len += 1;
        }
        // First report wins while the instance is pending.
        if reports.iter().any(|r| r.thread == report.thread) {
            return None;
        }
        reports.push(report);
        if reports.len() >= nthreads {
            self.len -= 1;
            level2.remove(&iter)
        } else {
            None
        }
    }

    fn drain_pending(&mut self) -> Vec<(u32, u64, u64, Vec<Report>)> {
        let mut out = Vec::with_capacity(self.len);
        for ((branch, site), level2) in self.level1.drain() {
            for (iter, reports) in level2 {
                out.push((branch, site, iter, reports));
            }
        }
        self.len = 0;
        out.sort_by_key(|(b, s, i, _)| (*b, *s, *i));
        out
    }

    fn pending_at(&self, branch: u32, site: u64) -> usize {
        self.level1.get(&(branch, site)).map_or(0, |level2| level2.len())
    }
}

/// A fixed-capacity ring of recent entries per `(branch, site)`.
struct FlightRecorder {
    rings: HashMap<(u32, u64), SiteRing>,
    capacity: usize,
}

#[derive(Default)]
struct SiteRing {
    entries: Vec<WindowEntry>,
    next: usize,
    seq: u64,
}

impl FlightRecorder {
    fn record(&mut self, branch: u32, site: u64, mut entry: WindowEntry) -> u64 {
        let ring = self.rings.entry((branch, site)).or_default();
        ring.seq += 1;
        entry.seq = ring.seq;
        if ring.entries.len() < self.capacity {
            ring.entries.push(entry);
        } else {
            ring.entries[ring.next] = entry;
            ring.next = (ring.next + 1) % self.capacity;
        }
        ring.seq
    }

    fn site_seq(&self, branch: u32, site: u64) -> u64 {
        self.rings.get(&(branch, site)).map_or(0, |r| r.seq)
    }

    fn window(&self, branch: u32, site: u64) -> Vec<WindowEntry> {
        self.rings.get(&(branch, site)).map_or_else(Vec::new, |ring| {
            [&ring.entries[ring.next..], &ring.entries[..ring.next]].concat()
        })
    }
}

/// The passive monitor over the reference table and recorder, with the
/// accessors of `bw_monitor::Monitor` the differential tests compare.
pub struct RefMonitor {
    checks: CheckTable,
    nthreads: usize,
    table: BranchTable,
    violations: Vec<Violation>,
    reports: Vec<ViolationReport>,
    recorder: FlightRecorder,
    events_processed: u64,
    telemetry: MonitorTelemetry,
}

impl RefMonitor {
    pub fn new(checks: CheckTable, nthreads: usize) -> Self {
        RefMonitor {
            checks,
            nthreads,
            table: BranchTable::default(),
            violations: Vec::new(),
            reports: Vec::new(),
            recorder: FlightRecorder {
                rings: HashMap::new(),
                capacity: window_capacity(nthreads),
            },
            events_processed: 0,
            telemetry: MonitorTelemetry::default(),
        }
    }

    pub fn process(&mut self, event: BranchEvent) {
        self.events_processed += 1;
        let Some(kind) = self.checks.kind(event.branch) else {
            return;
        };
        let BranchEvent { branch, thread, site, iter, witness, taken } = event;
        let entry = WindowEntry { thread, witness, taken, iter, seq: 0 };
        let site_seq = self.recorder.record(branch, site, entry);
        let report = Report { thread, witness, taken };
        if let Some(reports) = self.table.record(branch, site, iter, report, self.nthreads) {
            self.check(kind, branch, site, iter, &reports, site_seq);
        }
        self.telemetry.pending_high_water =
            self.telemetry.pending_high_water.max(self.table.len as u64);
    }

    pub fn flush(&mut self) -> usize {
        let pending = self.table.drain_pending();
        let batch = pending.len() as u64;
        self.telemetry.flush_calls += 1;
        self.telemetry.flush_batch_total += batch;
        self.telemetry.flush_batch_max = self.telemetry.flush_batch_max.max(batch);
        for (branch, site, iter, reports) in pending {
            if let Some(kind) = self.checks.kind(branch) {
                let site_seq = self.recorder.site_seq(branch, site);
                self.check(kind, branch, site, iter, &reports, site_seq);
            }
        }
        self.violations.len()
    }

    fn check(
        &mut self,
        kind: CheckKind,
        branch: u32,
        site: u64,
        iter: u64,
        reports: &[Report],
        detected_seq: u64,
    ) {
        if let Err(vk) = check_instance(kind, reports) {
            *self.telemetry.violations_for(kind) += 1;
            let reporters = reports.len() as u32;
            let violation = Violation { branch, site, iter, kind: vk, reporters };
            self.violations.push(violation);
            self.reports.push(build_report(
                violation,
                kind,
                reports,
                self.recorder.window(branch, site),
                detected_seq,
                self.table.pending_at(branch, site) as u64,
            ));
        }
    }

    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    pub fn violation_reports(&self) -> &[ViolationReport] {
        &self.reports
    }

    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    pub fn pending_instances(&self) -> usize {
        self.table.len
    }

    pub fn telemetry(&self) -> &MonitorTelemetry {
        &self.telemetry
    }
}
