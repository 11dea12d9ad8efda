//! Violation provenance: the site table that keeps each `(branch, site)`'s
//! recent reports, and the structured [`ViolationReport`] evidence attached
//! to every detection.
//!
//! A bare [`Violation`] says *that* the monitor flagged an instance; it
//! does not say *why*. A [`ViolationReport`] adds the full per-thread
//! outcome/witness vector, a majority/deviant split, and the **window**:
//! the site's most recent reports across all its instances, each numbered
//! by its place in the site's own report stream. Every detection ships with
//! the evidence that produced it — no re-execution needed.
//!
//! The evidence is rebuilt when a check fails, not written as events
//! arrive. An event touches only the instance table (`table.rs`); a
//! report reaches its site's history when its instance leaves that table
//! ([`SiteTable`]), and the window is the newest entries of that history
//! together with the site's pending reports, put back in arrival order by
//! the stamp every report node carries. A fault-free run never asks for
//! it, so its only per-event cost is the stamp.

use std::borrow::Cow;

use bw_analysis::{CheckKind, TidCheck};
use bw_telemetry::{Record, Recorder, Value};

use crate::checker::{Report, ViolationKind};
use crate::monitor::Violation;
use crate::table::{mix_key, push_node, BranchTable, Chain, KeyIndex, Nodes, NIL};

/// The `latency` a `violation` record carries when the deviant had aged
/// out of the window.
const UNKNOWN_LATENCY: &str = "?";

/// One window entry: a thread's report plus where in the *site's* report
/// stream it arrived.
///
/// `seq` counts the site's reports up to and including this one (1-based,
/// one per thread report), which makes detection latency a simple
/// subtraction of sequence numbers. Site-local numbering — rather
/// than a monitor-global message counter — keeps reports byte-identical no
/// matter how the key space is partitioned across monitor shards, since a
/// site's events always land on one shard in their original order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WindowEntry {
    /// Reporting thread id.
    pub thread: u32,
    /// Condition witness hash.
    pub witness: u64,
    /// Branch outcome.
    pub taken: bool,
    /// Level-2 instance key (loop-iteration hash) the report belongs to.
    pub iter: u64,
    /// The report's 1-based place in its site's report stream.
    pub seq: u64,
}

/// Structured evidence for one [`Violation`]: everything the monitor knew
/// about the instance at the moment the check failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ViolationReport {
    /// The compact violation this report explains.
    pub violation: Violation,
    /// The similarity check that failed (the branch's static category).
    pub check: CheckKind,
    /// The full per-thread table of the violating instance, sorted by
    /// thread id.
    pub observed: Vec<Report>,
    /// Threads whose reports agree with the modal behaviour.
    pub majority: Vec<u32>,
    /// Threads whose reports deviate from the modal behaviour — the likely
    /// fault victims.
    pub deviants: Vec<u32>,
    /// The window of the violating `(branch, site)`, oldest entry first:
    /// recent history across *all* iterations of the site, not just the
    /// violating instance.
    pub window: Vec<WindowEntry>,
    /// Per-site record sequence number at which the check fired (the seq
    /// of the site's most recent report; topology-independent).
    pub detected_seq: u64,
    /// Instances of *this* `(branch, site)` still awaiting reporters when
    /// the check fired — the site's correlation backlog at detection time.
    pub pending_depth: u64,
    /// Site-stream records between the first deviant report reaching the
    /// monitor and the check firing (`detected_seq - deviant entry seq`).
    /// `None` when the deviant's entry had already aged out of the window,
    /// or when no deviant could be singled out.
    pub detection_latency: Option<u64>,
}

impl ViolationReport {
    /// The paper's name for the branch's similarity category.
    pub fn category(&self) -> &'static str {
        category_name(self.check)
    }

    /// Human-readable statement of the cross-thread pattern the static
    /// analysis predicted for this branch.
    pub fn predicted(&self) -> &'static str {
        predicted_pattern(self.check)
    }

    /// A multi-line human-readable rendering: the violation header, the
    /// predicted pattern, and the per-thread table with each thread's
    /// majority/deviant role.
    pub fn describe(&self) -> String {
        use std::fmt::Write as _;
        let mut out = self.violation.describe();
        out.push('\n');
        let _ = writeln!(out, "  category {}; predicted: {}", self.category(), self.predicted());
        let _ = writeln!(out, "  {:<8} {:<18} {:<6} role", "thread", "witness", "taken");
        for r in &self.observed {
            let role = if self.deviants.contains(&r.thread) { "DEVIANT" } else { "majority" };
            let _ = writeln!(
                out,
                "  t{:<7} {:<18} {:<6} {role}",
                r.thread,
                format!("{:#x}", r.witness),
                if r.taken { "T" } else { "F" }
            );
        }
        let _ = write!(
            out,
            "  detected at seq {}, latency {}, {} pending instance(s)",
            self.detected_seq,
            match self.detection_latency {
                Some(n) => format!("{n} message(s)"),
                None => "unknown".to_string(),
            },
            self.pending_depth
        );
        out
    }

    /// The observed table as a compact flat string for the JSONL sink:
    /// `t0=w2a:T,t1=w2b:F` (witnesses in hex).
    fn observed_field(&self) -> String {
        self.observed
            .iter()
            .map(|r| format!("t{}=w{:x}:{}", r.thread, r.witness, if r.taken { 'T' } else { 'F' }))
            .collect::<Vec<_>>()
            .join(",")
    }

    /// The window as a compact flat string:
    /// `t0:i5:w2a:T:s12;...` (oldest first; iter/witness in hex).
    fn window_field(&self) -> String {
        self.window
            .iter()
            .map(|e| {
                format!(
                    "t{}:i{:x}:w{:x}:{}:s{}",
                    e.thread,
                    e.iter,
                    e.witness,
                    if e.taken { 'T' } else { 'F' },
                    e.seq
                )
            })
            .collect::<Vec<_>>()
            .join(";")
    }

    /// Comma-joined deviant thread ids (`"1,3"`; empty when none).
    fn deviants_field(&self) -> String {
        join_ids(&self.deviants)
    }

    /// Comma-joined majority thread ids.
    fn majority_field(&self) -> String {
        join_ids(&self.majority)
    }
}

fn join_ids(ids: &[u32]) -> String {
    ids.iter().map(|t| t.to_string()).collect::<Vec<_>>().join(",")
}

/// One `violation` trace record: a [`ViolationReport`] flattened for the
/// JSONL sink, under the injection it was detected in. Read back, its
/// strings borrow from the trace text.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceViolation<'a> {
    /// Injection index the violation was detected under.
    pub index: u64,
    /// Offending branch.
    pub branch: u64,
    /// Call-site path hash.
    pub site: u64,
    /// Loop-iteration hash.
    pub iter: u64,
    /// Violation-kind name (`witness_mismatch`, …).
    pub kind: Cow<'a, str>,
    /// Similarity category of the check.
    pub category: Cow<'a, str>,
    /// The cross-thread pattern the category predicted.
    pub predicted: Cow<'a, str>,
    /// Threads that had reported when the check fired.
    pub reporters: u64,
    /// Per-site record sequence number at detection.
    pub detected_seq: u64,
    /// Records between the deviant's report and detection; `None` when the
    /// deviant had aged out of the window.
    pub latency: Option<u64>,
    /// Per-thread observation table, `t<id>=w<witness-hex>:<T|F>` entries.
    pub observed: Cow<'a, str>,
    /// Comma-joined deviant thread ids.
    pub deviants: Cow<'a, str>,
    /// Comma-joined majority thread ids.
    pub majority: Cow<'a, str>,
    /// The window, oldest first, `t<id>:i<iter>:w<witness-hex>:<T|F>:s<seq>`
    /// entries.
    pub window: Cow<'a, str>,
}

impl<'a> TraceViolation<'a> {
    /// The `ev` tag of the record.
    pub const EV: &'static str = "violation";

    /// The record of `report`, detected under injection `index`.
    pub fn new(report: &ViolationReport, index: u64) -> TraceViolation<'static> {
        TraceViolation {
            index,
            branch: u64::from(report.violation.branch),
            site: report.violation.site,
            iter: report.violation.iter,
            kind: Cow::Borrowed(kind_name(report.violation.kind)),
            category: Cow::Borrowed(report.category()),
            predicted: Cow::Borrowed(report.predicted()),
            reporters: u64::from(report.violation.reporters),
            detected_seq: report.detected_seq,
            latency: report.detection_latency,
            observed: Cow::Owned(report.observed_field()),
            deviants: Cow::Owned(report.deviants_field()),
            majority: Cow::Owned(report.majority_field()),
            window: Cow::Owned(report.window_field()),
        }
    }

    /// Writes the record; an unknown latency is `"?"`.
    pub fn record_to(self, recorder: &dyn Recorder) {
        let latency =
            self.latency.map_or(Cow::Borrowed(UNKNOWN_LATENCY), |l| Cow::Owned(l.to_string()));
        recorder.record(
            Self::EV,
            &[
                ("index", Value::U64(self.index)),
                ("branch", Value::U64(self.branch)),
                ("site", Value::U64(self.site)),
                ("iter", Value::U64(self.iter)),
                ("kind", Value::Str(self.kind)),
                ("category", Value::Str(self.category)),
                ("predicted", Value::Str(self.predicted)),
                ("reporters", Value::U64(self.reporters)),
                ("detected_seq", Value::U64(self.detected_seq)),
                ("latency", Value::Str(latency)),
                ("observed", Value::Str(self.observed)),
                ("deviants", Value::Str(self.deviants)),
                ("majority", Value::Str(self.majority)),
                ("window", Value::Str(self.window)),
            ],
        );
    }

    /// Decodes a `violation` record. `latency` is a message count or the
    /// writer's `"?"`; anything else is an error, like any mistyped field.
    pub fn from_record(rec: Record<'a>) -> Result<TraceViolation<'a>, String> {
        let mut v = TraceViolation::default();
        for (name, value) in rec.fields {
            let text = match &*name {
                "kind" => &mut v.kind,
                "category" => &mut v.category,
                "predicted" => &mut v.predicted,
                "observed" => &mut v.observed,
                "deviants" => &mut v.deviants,
                "majority" => &mut v.majority,
                "window" => &mut v.window,
                "latency" => {
                    v.latency = match &*Record::string(rec.line, &name, value)? {
                        UNKNOWN_LATENCY => None,
                        count => Some(count.parse().map_err(|_| {
                            format!("line {}: `latency` is not a message count or `?`", rec.line)
                        })?),
                    };
                    continue;
                }
                _ => {
                    let number = match &*name {
                        "index" => &mut v.index,
                        "branch" => &mut v.branch,
                        "site" => &mut v.site,
                        "iter" => &mut v.iter,
                        "reporters" => &mut v.reporters,
                        "detected_seq" => &mut v.detected_seq,
                        _ => continue,
                    };
                    *number = Record::u64(rec.line, &name, &value)?;
                    continue;
                }
            };
            *text = Record::string(rec.line, &name, value)?;
        }
        Ok(v)
    }

    /// Appends the observed table to `out`, one aligned row per thread with
    /// its DEVIANT/majority role.
    pub fn render_observed(&self, out: &mut String) {
        use std::fmt::Write as _;
        if self.observed.is_empty() {
            return;
        }
        let deviant_ids: Vec<&str> = self.deviants.split(',').filter(|s| !s.is_empty()).collect();
        out.push_str("  thread  witness           outcome    role\n");
        for entry in self.observed.split(',') {
            let Some((thread, rest)) = entry.split_once('=') else { continue };
            let thread = thread.trim_start_matches('t');
            let (witness, taken) = rest.split_once(':').unwrap_or((rest, "?"));
            let witness = witness.trim_start_matches('w');
            let outcome = match taken {
                "T" => "taken",
                "F" => "not-taken",
                _ => "?",
            };
            let role = if deviant_ids.contains(&thread) { "DEVIANT" } else { "majority" };
            let _ = writeln!(out, "  {thread:>6}  {witness:<16}  {outcome:<9}  {role}");
        }
    }
}

/// The paper's similarity-category name for a check kind (`shared`,
/// `threadID`, `partial`).
pub fn category_name(kind: CheckKind) -> &'static str {
    match kind {
        CheckKind::SharedUniform => "shared",
        CheckKind::ThreadIdPredicate(_) => "threadID",
        CheckKind::GroupByWitness => "partial",
    }
}

/// Stable lowercase name of a violation kind, used in JSONL trace records.
fn kind_name(kind: ViolationKind) -> &'static str {
    match kind {
        ViolationKind::WitnessMismatch => "witness_mismatch",
        ViolationKind::DirectionMismatch => "direction_mismatch",
        ViolationKind::GroupMismatch => "group_mismatch",
        ViolationKind::TidPredicate => "tid_predicate",
    }
}

/// Human-readable statement of the cross-thread pattern a check kind
/// expects.
fn predicted_pattern(kind: CheckKind) -> &'static str {
    match kind {
        CheckKind::SharedUniform => "all threads agree on witness and direction",
        CheckKind::GroupByWitness => "threads with equal witnesses take the same direction",
        CheckKind::ThreadIdPredicate(TidCheck::AtMostOneTaken) => {
            "uniform witness; at most one thread takes the branch"
        }
        CheckKind::ThreadIdPredicate(TidCheck::AtMostOneNotTaken) => {
            "uniform witness; at most one thread does not take the branch"
        }
        CheckKind::ThreadIdPredicate(TidCheck::TakenIsPrefix) => {
            "uniform witness; taking threads form a thread-id prefix"
        }
        CheckKind::ThreadIdPredicate(TidCheck::TakenIsSuffix) => {
            "uniform witness; taking threads form a thread-id suffix"
        }
    }
}

/// Splits an instance's reporters into (majority, deviants) thread-id
/// lists, keyed on the aspect the violation is about: witnesses for
/// witness mismatches, directions for direction/predicate failures, and
/// per-witness-group direction minorities for group mismatches. Modal ties
/// break towards the smaller key, so the split is deterministic.
pub fn majority_split(kind: ViolationKind, reports: &[Report]) -> (Vec<u32>, Vec<u32>) {
    match kind {
        ViolationKind::WitnessMismatch => split_modal(reports, |r| r.witness),
        ViolationKind::DirectionMismatch | ViolationKind::TidPredicate => {
            split_modal(reports, |r| u64::from(r.taken))
        }
        ViolationKind::GroupMismatch => split_groups(reports),
    }
}

/// Modal split over an arbitrary `u64` key: threads carrying the most
/// frequent key value are the majority, everyone else deviates.
fn split_modal(reports: &[Report], key: impl Fn(&Report) -> u64) -> (Vec<u32>, Vec<u32>) {
    use std::collections::BTreeMap;
    let mut counts: BTreeMap<u64, usize> = BTreeMap::new();
    for r in reports {
        *counts.entry(key(r)).or_default() += 1;
    }
    // BTreeMap iterates keys ascending, so `>` keeps the smaller key on a
    // tie.
    let modal = counts
        .iter()
        .fold((0u64, 0usize), |best, (&k, &n)| if n > best.1 { (k, n) } else { best })
        .0;
    partition(reports, |r| key(r) == modal)
}

/// Group-mismatch split: within each witness group with mixed directions,
/// the less common direction is deviant (ties deviate the takers).
fn split_groups(reports: &[Report]) -> (Vec<u32>, Vec<u32>) {
    use std::collections::BTreeMap;
    let mut groups: BTreeMap<u64, (usize, usize)> = BTreeMap::new();
    for r in reports {
        let g = groups.entry(r.witness).or_default();
        if r.taken {
            g.0 += 1;
        } else {
            g.1 += 1;
        }
    }
    partition(reports, |r| {
        let (taken, not_taken) = groups[&r.witness];
        if taken == 0 || not_taken == 0 {
            return true; // uniform group: not part of the conflict
        }
        if r.taken {
            taken > not_taken
        } else {
            not_taken >= taken
        }
    })
}

fn partition(reports: &[Report], majority: impl Fn(&Report) -> bool) -> (Vec<u32>, Vec<u32>) {
    let mut maj = Vec::new();
    let mut dev = Vec::new();
    for r in reports {
        if majority(r) {
            maj.push(r.thread);
        } else {
            dev.push(r.thread);
        }
    }
    maj.sort_unstable();
    dev.sort_unstable();
    (maj, dev)
}

/// Assembles a [`ViolationReport`] at detection time: sorts the observed
/// table, computes the majority/deviant split, and derives the detection
/// latency from the deviants' window entries.
pub fn build_report(
    violation: Violation,
    check: CheckKind,
    reports: &[Report],
    window: Vec<WindowEntry>,
    detected_seq: u64,
    pending_depth: u64,
) -> ViolationReport {
    let mut observed = reports.to_vec();
    observed.sort_unstable_by_key(|r| r.thread);
    let (majority, deviants) = majority_split(violation.kind, reports);
    // Latency: messages between the first deviant report of *this*
    // instance reaching the monitor and the check firing. The entry may
    // have aged out of the bounded window, in which case it is unknown.
    let detection_latency = window
        .iter()
        .filter(|e| e.iter == violation.iter && deviants.contains(&e.thread))
        .map(|e| e.seq)
        .min()
        .map(|seq| detected_seq.saturating_sub(seq));
    ViolationReport {
        violation,
        check,
        observed,
        majority,
        deviants,
        window,
        detected_seq,
        pending_depth,
        detection_latency,
    }
}

/// Window capacity for a monitor serving `nthreads` reporters: a few full
/// instances of history per site, bounded so a long campaign cannot grow a
/// site's history past a fixed budget per `(branch, site)`.
pub fn window_capacity(nthreads: usize) -> usize {
    (4 * nthreads.max(1)).clamp(16, 1024)
}

/// Always true: violation provenance is no longer a cargo feature. Kept for
/// `bwbench`'s run header, which prints it.
#[doc(hidden)]
pub const PROVENANCE_ENABLED: bool = true;

/// The site table — level 1 of the monitor's keying — and the flight
/// recorder in one: per `(branch, site)`, the history of the reports that
/// have left the instance table, and a count of the older ones it let go.
///
/// No event writes it. A site's row is reached only when something leaves
/// the instance table: a completed instance's chain, a dropped re-report,
/// or — once another event arrives — the instances a flush drained. The
/// chains are filed whole, nodes and all, so filing copies nothing. The
/// evidence of a violation is rebuilt from the history plus the site's
/// pending instances ([`SiteTable::evidence`]); a fault-free run never
/// asks for it.
///
/// A history that reaches four times `capacity` entries keeps its newest
/// `capacity` and lets the rest go: one pass over the history lets go of
/// three entries in four. So the history always holds the newest `capacity`
/// of all it was ever given, and every entry let go is older than those —
/// an entry filed late that is older than one already let go is itself let
/// go at the next compaction, at least `capacity` newer ones being held.
/// That makes a window entry's place in its site's stream exact: the count
/// let go plus the entries held or pending at the site with a stamp no
/// larger. Stamps are only compared within one site, so any shard count
/// numbers a site's stream the same.
#[derive(Clone, Debug)]
pub(crate) struct SiteTable {
    index: KeyIndex,
    sites: Vec<Site>,
    held: Vec<Held>,
    free_held: u32,
    capacity: u32,
    /// The stamps of the history being compacted, reused.
    stamps: Vec<u64>,
}

#[derive(Clone, Debug)]
struct Site {
    site: u64,
    /// Entries let go.
    evicted: u64,
    branch: u32,
    /// The chains held, last filed first, linked through [`Held::next`].
    chains: u32,
    /// Entries held, below four times the table's capacity.
    len: u32,
}

/// One chain a site holds: a completed or flushed instance's reports, or a
/// dropped re-report, oldest first, under the instance's `iter`. On the
/// free list, `next` leads to the next free one.
#[derive(Clone, Debug)]
struct Held {
    iter: u64,
    head: u32,
    next: u32,
}

impl Site {
    fn is(&self, branch: u32, site: u64) -> bool {
        self.site == site && self.branch == branch
    }
}

/// What a violation report records of its site's stream.
#[derive(Debug)]
pub(crate) struct Evidence {
    /// The newest `capacity` entries of the stream, oldest first.
    pub(crate) window: Vec<WindowEntry>,
    /// The stream's length: the seq of its newest entry.
    pub(crate) seq: u64,
    /// The site's instances pending in the instance table.
    pub(crate) pending: u64,
}

impl SiteTable {
    /// A site table whose windows hold `capacity` entries.
    pub(crate) fn new(capacity: usize) -> Self {
        SiteTable {
            index: KeyIndex::default(),
            sites: Vec::new(),
            held: Vec::new(),
            free_held: NIL,
            // Four times the capacity must fit a `u32`.
            capacity: capacity.clamp(1, (u32::MAX / 4) as usize) as u32,
            stamps: Vec::new(),
        }
    }

    /// Files `chain` into the history of `(branch, site)`.
    pub(crate) fn file(&mut self, nodes: &mut Nodes, branch: u32, site: u64, chain: Chain) {
        let row = self.row(branch, site);
        let held = Held { iter: chain.iter, head: chain.head, next: self.sites[row].chains };
        let held = if self.free_held == NIL {
            push_node(&mut self.held, held)
        } else {
            let index = self.free_held;
            self.free_held = std::mem::replace(&mut self.held[index as usize], held).next;
            index
        };
        let entry = &mut self.sites[row];
        entry.chains = held;
        entry.len += chain.len;
        if entry.len >= 4 * self.capacity {
            self.compact(nodes, row);
        }
    }

    /// The row of `(branch, site)`, made on first use.
    fn row(&mut self, branch: u32, site: u64) -> usize {
        self.index.reserve();
        let hash = mix_key(branch, site, 0);
        let sites = &self.sites;
        match self.index.probe(hash, |row| sites[row as usize].is(branch, site)) {
            Ok(pos) => self.index.row(pos) as usize,
            Err(pos) => {
                let entry = Site { site, evicted: 0, branch, chains: NIL, len: 0 };
                let row = push_node(&mut self.sites, entry);
                self.index.insert(pos, hash, row);
                row as usize
            }
        }
    }

    /// Lets go of all but the newest `capacity` entries of the site at
    /// `row`, their nodes back to `nodes`. Each chain is in arrival order,
    /// so what goes is a prefix of each.
    fn compact(&mut self, nodes: &mut Nodes, row: usize) {
        self.stamps.clear();
        let mut held = self.sites[row].chains;
        while held != NIL {
            let Held { head, next, .. } = self.held[held as usize];
            self.stamps.extend(nodes.chain(head).map(|n| n.stamp));
            held = next;
        }
        let evict = self.stamps.len() - self.capacity as usize;
        let oldest_kept = *self.stamps.select_nth_unstable(evict).1;
        let (mut held, mut before) = (self.sites[row].chains, NIL);
        while held != NIL {
            let chain = &mut self.held[held as usize];
            while chain.head != NIL && nodes.get(chain.head).stamp < oldest_kept {
                let node = chain.head;
                chain.head = nodes.get(node).link.next();
                nodes.free(node);
            }
            let next = chain.next;
            if chain.head == NIL {
                chain.next = self.free_held;
                self.free_held = held;
                if before == NIL {
                    self.sites[row].chains = next;
                } else {
                    self.held[before as usize].next = next;
                }
            } else {
                before = held;
            }
            held = next;
        }
        let site = &mut self.sites[row];
        site.len = self.capacity;
        site.evicted += evict as u64;
    }

    /// The evidence at `(branch, site)`, rebuilt from the site's history
    /// and the chains of its instances pending in `table`.
    pub(crate) fn evidence(&self, table: &BranchTable, branch: u32, site: u64) -> Evidence {
        let nodes = &table.nodes;
        let mut entries: Vec<(u64, WindowEntry)> = Vec::new();
        let mut add = |iter: u64, head: u32| {
            entries.extend(nodes.chain(head).map(|n| {
                let Report { thread, witness, taken } = n.report();
                (n.stamp, WindowEntry { thread, witness, taken, iter, seq: 0 })
            }));
        };
        let mut evicted = 0;
        let is_key = |row: u32| self.sites[row as usize].is(branch, site);
        if let Some(row) = self.index.get(mix_key(branch, site, 0), is_key) {
            let entry = &self.sites[row as usize];
            evicted = entry.evicted;
            let mut held = entry.chains;
            while held != NIL {
                let Held { iter, head, next, .. } = self.held[held as usize];
                add(iter, head);
                held = next;
            }
        }
        let mut pending = 0;
        for (iter, head) in table.pending_at(branch, site) {
            pending += 1;
            add(iter, head);
        }
        entries.sort_unstable_by_key(|&(stamp, _)| stamp);
        let skip = entries.len().saturating_sub(self.capacity as usize);
        let window = (skip..)
            .zip(&entries[skip..])
            .map(|(place, &(_, entry))| WindowEntry { seq: evicted + place as u64 + 1, ..entry })
            .collect();
        Evidence { window, seq: evicted + entries.len() as u64, pending }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Recorded;

    fn rep(thread: u32, witness: u64, taken: bool) -> Report {
        Report { thread, witness, taken }
    }

    #[test]
    fn modal_split_singles_out_the_liar() {
        let reports =
            [rep(0, 42, true), rep(1, 999, true), rep(2, 42, true), rep(3, 42, true)];
        let (maj, dev) = majority_split(ViolationKind::WitnessMismatch, &reports);
        assert_eq!(maj, vec![0, 2, 3]);
        assert_eq!(dev, vec![1]);
    }

    #[test]
    fn direction_split_keys_on_taken() {
        let reports = [rep(0, 7, true), rep(1, 7, false), rep(2, 7, true)];
        let (maj, dev) = majority_split(ViolationKind::DirectionMismatch, &reports);
        assert_eq!(maj, vec![0, 2]);
        assert_eq!(dev, vec![1]);
    }

    #[test]
    fn tie_breaks_toward_smaller_key() {
        // 1 taken vs 1 not-taken: `false` (0) is the smaller key, so the
        // taker deviates — deterministically.
        let reports = [rep(0, 7, false), rep(1, 7, true)];
        let (maj, dev) = majority_split(ViolationKind::DirectionMismatch, &reports);
        assert_eq!(maj, vec![0]);
        assert_eq!(dev, vec![1]);
    }

    #[test]
    fn group_split_blames_the_minority_inside_the_conflicting_group() {
        // Witness 5: two take, one doesn't → the one deviates. Witness 9:
        // uniform → all majority.
        let reports =
            [rep(0, 5, true), rep(1, 5, false), rep(2, 5, true), rep(3, 9, false)];
        let (maj, dev) = majority_split(ViolationKind::GroupMismatch, &reports);
        assert_eq!(maj, vec![0, 2, 3]);
        assert_eq!(dev, vec![1]);
    }

    #[test]
    fn build_report_derives_latency_from_the_window() {
        let violation = Violation {
            branch: 3,
            site: 0xabc,
            iter: 7,
            kind: ViolationKind::WitnessMismatch,
            reporters: 2,
        };
        let reports = [rep(0, 42, true), rep(1, 99, true), rep(2, 42, true)];
        let window = vec![
            WindowEntry { thread: 0, witness: 42, taken: true, iter: 7, seq: 10 },
            WindowEntry { thread: 1, witness: 99, taken: true, iter: 7, seq: 11 },
            WindowEntry { thread: 2, witness: 42, taken: true, iter: 7, seq: 14 },
        ];
        let report =
            build_report(violation, CheckKind::SharedUniform, &reports, window, 14, 2);
        assert_eq!(report.deviants, vec![1]);
        assert_eq!(report.majority, vec![0, 2]);
        assert_eq!(report.detection_latency, Some(3));
        assert_eq!(report.category(), "shared");
        assert_eq!(report.observed_field(), "t0=w2a:T,t1=w63:T,t2=w2a:T");
        assert_eq!(report.deviants_field(), "1");
        let text = report.describe();
        assert!(text.contains("DEVIANT"), "{text}");
        assert!(text.contains("latency 3 message(s)"), "{text}");
    }

    /// The report of a two-reporter witness mismatch on `site`, with a
    /// one-entry window.
    fn sample_report(site: u64, witness: u64, latency: bool) -> ViolationReport {
        let violation =
            Violation { branch: 3, site, iter: 7, kind: ViolationKind::WitnessMismatch, reporters: 3 };
        let reports = [rep(0, 42, true), rep(1, witness, false), rep(2, 42, true)];
        let iter = if latency { 7 } else { 8 };
        let window = vec![WindowEntry { thread: 1, witness, taken: false, iter, seq: 11 }];
        build_report(violation, CheckKind::SharedUniform, &reports, window, 14, 2)
    }

    #[test]
    fn violation_records_round_trip() {
        let mut rng = bw_vm::SplitMix64::new(1);
        for case in 0..64 {
            let site = rng.next_u64();
            let witness = 43 + rng.next_u64() % (u64::MAX - 43);
            let latency = rng.below(2) == 1;
            let v = TraceViolation::new(&sample_report(site, witness, latency), rng.next_u64());
            assert_eq!(v.latency, latency.then_some(3), "case {case}");
            let buf = bw_telemetry::TraceBuffer::default();
            v.clone().record_to(&buf.recorder());
            let text = buf.text();
            let back = bw_telemetry::records(&text).next().unwrap();
            assert_eq!(back.and_then(TraceViolation::from_record), Ok(v), "case {case}");
        }
    }

    #[test]
    fn violation_wire_format_is_pinned() {
        let buf = bw_telemetry::TraceBuffer::default();
        let v = TraceViolation::new(&sample_report(0x40, 99, true), 5);
        v.clone().record_to(&buf.recorder());
        TraceViolation { latency: None, ..v.clone() }.record_to(&buf.recorder());
        let pinned = concat!(
            r#""ev":"violation","index":5,"branch":3,"site":64,"iter":7,"kind":"witness_mismatch","#,
            r#""category":"shared","predicted":"all threads agree on witness and direction","#,
            r#""reporters":3,"detected_seq":14,"latency":"3","observed":"t0=w2a:T,t1=w63:F,t2=w2a:T","#,
            r#""deviants":"1","majority":"0,2","window":"t1:i7:w63:F:s11"}"#
        );
        let bodies = buf.bodies();
        assert_eq!(bodies[0], pinned);
        assert!(bodies[1].starts_with(r#""ev":"violation","index":5,"#), "{}", bodies[1]);
        assert!(bodies[1].contains(r#""latency":"?""#), "{}", bodies[1]);

        let mut table = String::new();
        v.render_observed(&mut table);
        assert_eq!(table.lines().count(), 4, "{table}");
        assert!(table.contains("       1  63                not-taken  DEVIANT"), "{table}");

        let mistyped = r#"{"ev":"violation","index":0,"detected_seq":"late"}"#;
        let err = bw_telemetry::records(mistyped).next().unwrap().and_then(TraceViolation::from_record);
        assert_eq!(err, Err("line 1: `detected_seq` is not a non-negative integer".to_string()));
    }

    #[test]
    fn only_the_writers_question_mark_is_an_unknown_latency() {
        fn latency(value: &str) -> Result<Option<u64>, String> {
            let line = format!(r#"{{"ev":"violation","index":0,"latency":{value}}}"#);
            let rec = bw_telemetry::records(&line).next().unwrap();
            rec.and_then(TraceViolation::from_record).map(|v| v.latency)
        }
        assert_eq!(latency(r#""?""#), Ok(None));
        assert_eq!(latency(r#""12""#), Ok(Some(12)));
        let mistyped = Err("line 1: `latency` is not a message count or `?`".to_string());
        for bad in [r#""soon""#, r#""-1""#, r#""""#, r#""1.5""#, r#""18446744073709551616""#] {
            assert_eq!(latency(bad), mistyped, "{bad}");
        }
        assert_eq!(latency("3"), Err("line 1: `latency` is not a string".to_string()));
    }

    #[test]
    fn latency_is_unknown_when_the_deviant_aged_out() {
        let violation = Violation {
            branch: 0,
            site: 0,
            iter: 7,
            kind: ViolationKind::WitnessMismatch,
            reporters: 2,
        };
        let reports = [rep(0, 1, true), rep(1, 2, true)];
        // Window only holds iterations after the violating one.
        let window =
            vec![WindowEntry { thread: 0, witness: 1, taken: true, iter: 8, seq: 20 }];
        let report = build_report(violation, CheckKind::SharedUniform, &reports, window, 21, 0);
        assert_eq!(report.detection_latency, None);
        assert!(report.describe().contains("latency unknown"));
    }

    /// An instance table and a site table wired as the monitor wires them:
    /// whatever leaves the first is filed into the second.
    struct Tables {
        table: BranchTable,
        sites: SiteTable,
        nthreads: usize,
    }

    impl Tables {
        fn new(capacity: usize, nthreads: usize) -> Self {
            Tables { table: BranchTable::default(), sites: SiteTable::new(capacity), nthreads }
        }

        /// Thread `thread` reports `iter` of branch 1 at `site`.
        fn report(&mut self, site: u64, thread: u32, witness: u64, iter: u64) -> Recorded {
            let report = Report { thread, witness, taken: witness.is_multiple_of(2) };
            let recorded = self.table.record(1, site, iter, report, self.nthreads, &mut Vec::new());
            if let Recorded::Dropped(chain) | Recorded::Completed(chain) = recorded {
                self.sites.file(&mut self.table.nodes, 1, site, chain);
            }
            recorded
        }

        fn evidence(&self, branch: u32, site: u64) -> Evidence {
            self.sites.evidence(&self.table, branch, site)
        }
    }

    #[test]
    fn ring_wraps_at_capacity_keeping_the_newest_entries() {
        // One thread: every report completes its instance and is filed.
        let mut t = Tables::new(4, 1);
        for i in 0..40u64 {
            t.report(0xfeed, (i % 2) as u32, i, i);
            let evidence = t.evidence(1, 0xfeed);
            assert_eq!(evidence.seq, i + 1, "seq is 1-based and site-local");
            let kept = (i + 1).min(4);
            let expect: Vec<WindowEntry> = (i + 1 - kept..=i)
                .map(|j| WindowEntry {
                    thread: (j % 2) as u32,
                    witness: j,
                    taken: j.is_multiple_of(2),
                    iter: j,
                    seq: j + 1,
                })
                .collect();
            assert_eq!(evidence.window, expect, "oldest-first, newest kept");
        }
        let unseen = t.evidence(1, 0xbeef);
        assert_eq!((unseen.window, unseen.seq, unseen.pending), (Vec::new(), 0, 0));
        assert_eq!(t.sites.sites.len(), 1);
        assert_eq!(t.sites.held.len(), 16, "compacted at four times its capacity, and reused");
    }

    #[test]
    fn site_streams_are_independent_and_interleave_in_one_arena() {
        let mut t = Tables::new(2, 1);
        t.report(0xa, 0, 10, 0);
        t.report(0xb, 0, 20, 0);
        t.report(0xa, 1, 11, 0);
        t.report(0xb, 1, 21, 0);
        t.report(0xa, 2, 12, 0); // lets go of site a's oldest only
        assert_eq!(t.sites.sites.len(), 2, "a site keeps its row");
        assert_eq!(t.evidence(1, 0xa).seq, 3);
        assert_eq!(t.evidence(1, 0xb).seq, 2, "each site numbers its own stream");
        let witnesses =
            |site| t.evidence(1, site).window.iter().map(|e| e.witness).collect::<Vec<_>>();
        assert_eq!(witnesses(0xa), vec![11, 12]);
        assert_eq!(witnesses(0xb), vec![20, 21]);
        assert_eq!(t.evidence(2, 0xa).seq, 0, "the branch is part of the key");
    }

    #[test]
    fn pending_counts_one_site_only() {
        let mut t = Tables::new(16, 4);
        t.report(0, 0, 0, 0);
        t.report(0, 0, 0, 1);
        t.report(7, 0, 0, 0);
        t.report(7, 1, 0, 0); // joined: no change
        assert!(matches!(t.report(7, 0, 2, 0), Recorded::Dropped(_)));
        assert_eq!(t.evidence(1, 0).pending, 2);
        assert_eq!(t.evidence(1, 7).pending, 1);
        assert_eq!(t.evidence(9, 9).pending, 0);
        let at_7 = t.evidence(1, 7);
        assert_eq!(at_7.seq, 3, "the dropped re-report is part of the stream");
        let in_order: Vec<(u32, u64)> = at_7.window.iter().map(|e| (e.thread, e.seq)).collect();
        assert_eq!(in_order, vec![(0, 1), (1, 2), (0, 3)], "pending and filed entries, by arrival");
        for thread in 1..4 {
            t.report(0, thread, 0, 0);
        }
        assert_eq!(t.evidence(1, 0).pending, 1);
        assert_eq!(t.evidence(1, 0).seq, 5);
        // A flush drains the table; its rows are filed when the next report
        // arrives. Either way the streams are left alone.
        t.table.close_flush();
        assert_eq!(t.table.len(), 0);
        assert_eq!(t.evidence(1, 0).seq, 5);
        let sites = &mut t.sites;
        t.table.file_drained(|nodes, branch, site, chain| sites.file(nodes, branch, site, chain));
        assert_eq!(t.evidence(1, 0).pending + t.evidence(1, 7).pending, 0);
        assert_eq!((t.evidence(1, 0).seq, t.evidence(1, 7).seq), (5, 3));
    }

    #[test]
    fn window_capacity_scales_with_threads_within_bounds() {
        assert_eq!(window_capacity(1), 16);
        assert_eq!(window_capacity(8), 32);
        assert_eq!(window_capacity(10_000), 1024);
    }
}
