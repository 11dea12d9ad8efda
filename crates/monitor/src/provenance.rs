//! Violation provenance: a per-site flight recorder and the structured
//! [`ViolationReport`] evidence attached to every detection.
//!
//! A bare [`Violation`] says *that* the monitor flagged an instance; it
//! does not say *why*. This module keeps, per `(branch, site)`, a bounded
//! ring of the most recent reports (the **flight recorder**, which is also
//! the monitor's level-1 site table) and, at the
//! moment a check fails, snapshots the ring together with the full
//! per-thread outcome/witness vector, a majority/deviant split, and the
//! site's position in its own report stream into a [`ViolationReport`].
//! Every detection then ships with the evidence that produced it — no
//! re-execution needed.
//!
//! Recording is gated on the `provenance` cargo feature — the workspace's
//! one build switch: with the feature off, [`FlightRecorder`] is a
//! zero-sized type whose methods compile to nothing, and no report is ever
//! allocated. The [`ViolationReport`] *type* always compiles so downstream
//! structs ([`bw_vm::RunResult`]-style carriers) keep one shape in both
//! configurations. Compiled in, the ring is written for every event to
//! explain a violation a fault-free run never has: half of `Monitor::
//! process` on `monitor-replay` (EXPERIMENTS.md, "What the two cargo
//! features cost").
//!
//! [`bw_vm::RunResult`]: https://docs.rs/bw-vm

use std::borrow::Cow;

use bw_analysis::{CheckKind, TidCheck};
use bw_telemetry::{Record, Recorder, Value};

use crate::checker::{Report, ViolationKind};
use crate::event::BranchEvent;
use crate::monitor::Violation;
use crate::table::Recorded;
#[cfg(feature = "provenance")]
use crate::table::{mix_key, push_node, KeyIndex, Link, NIL};

/// The `latency` a `violation` record carries when the deviant had aged
/// out of the flight-recorder ring.
const UNKNOWN_LATENCY: &str = "?";

/// One flight-recorder entry: a thread's report plus where in the
/// *site's* report stream it was recorded.
///
/// `seq` is the per-`(branch, site)` record counter at record time
/// (1-based, one per thread report), which makes detection latency a
/// simple subtraction of sequence numbers. Site-local numbering — rather
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
    /// Per-site record sequence number assigned when the report was
    /// recorded (see [`FlightRecorder`]).
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
    /// The flight-recorder window of the violating `(branch, site)`,
    /// oldest entry first: recent history across *all* iterations of the
    /// site, not just the violating instance.
    pub window: Vec<WindowEntry>,
    /// Per-site record sequence number at which the check fired (the seq
    /// of the site's most recent report; topology-independent).
    pub detected_seq: u64,
    /// Instances of *this* `(branch, site)` still awaiting reporters when
    /// the check fired — the site's correlation backlog at detection time.
    pub pending_depth: u64,
    /// Site-stream records between the first deviant report reaching the
    /// monitor and the check firing (`detected_seq - deviant entry seq`).
    /// `None` when the deviant's entry had already aged out of the ring,
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

    /// The flight-recorder window as a compact flat string:
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
/// JSONL sink, under the injection (and batch image) it was detected in.
/// Read back, its strings borrow from the trace text.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceViolation<'a> {
    /// Batch image index, in a batch.
    pub image: Option<u64>,
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
    /// deviant had aged out of the flight-recorder ring.
    pub latency: Option<u64>,
    /// Per-thread observation table, `t<id>=w<witness-hex>:<T|F>` entries.
    pub observed: Cow<'a, str>,
    /// Comma-joined deviant thread ids.
    pub deviants: Cow<'a, str>,
    /// Comma-joined majority thread ids.
    pub majority: Cow<'a, str>,
    /// Flight-recorder window, oldest first,
    /// `t<id>:i<iter>:w<witness-hex>:<T|F>:s<seq>` entries.
    pub window: Cow<'a, str>,
}

impl<'a> TraceViolation<'a> {
    /// The `ev` tag of the record.
    pub const EV: &'static str = "violation";

    /// The record of `report`, detected under injection `index` of batch
    /// image `image`.
    pub fn new(
        report: &ViolationReport,
        image: Option<u64>,
        index: u64,
    ) -> TraceViolation<'static> {
        TraceViolation {
            image,
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
        let fields = [
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
        ];
        let image = self.image.map(|i| ("image", Value::U64(i)));
        recorder.record(Self::EV, &image.into_iter().chain(fields).collect::<Vec<_>>());
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
                        "image" => v.image.insert(0),
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
/// latency from the deviants' flight-recorder entries.
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
    // have aged out of the bounded ring, in which case it is unknown.
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

/// Ring capacity for a monitor serving `nthreads` reporters: a few full
/// instances of history per site, bounded so a long campaign cannot grow
/// the recorder past a fixed budget per `(branch, site)`.
pub fn window_capacity(nthreads: usize) -> usize {
    (4 * nthreads.max(1)).clamp(16, 1024)
}

/// Whether flight recording is compiled in (`provenance` cargo feature).
pub const PROVENANCE_ENABLED: bool = cfg!(feature = "provenance");

/// The site table — level 1 of the monitor's keying — and the per-site
/// flight recorder in one: per `(branch, site)` the length of its report
/// stream, how many of its instances are pending, and a bounded ring of its
/// most recent [`WindowEntry`]s.
///
/// Sites are rows of one dense `Vec` behind a [`KeyIndex`]; a site's ring is
/// a circular chain through one shared node arena that grows to `capacity`
/// nodes and from then on overwrites its oldest, so recording allocates
/// nothing per site and costs one probe per event.
///
/// With the `provenance` feature off this is a zero-sized type and
/// recording compiles to nothing — the hot path pays nothing.
#[cfg(feature = "provenance")]
#[derive(Debug)]
pub struct FlightRecorder {
    index: KeyIndex,
    sites: Vec<Site>,
    ring: Vec<RingNode>,
    capacity: u32,
}

#[cfg(feature = "provenance")]
#[derive(Debug)]
struct Site {
    site: u64,
    /// Records ever made at this site (1-based seq of the newest entry),
    /// including entries that have since aged out of the ring.
    seq: u64,
    branch: u32,
    /// Instances of this site awaiting reporters.
    pending: u32,
    /// Newest ring node; its link leads to the oldest.
    newest: u32,
    /// Ring nodes held, at most the recorder's capacity.
    len: u32,
}

/// One ring entry. Its `seq` is not stored: the ring holds the site's last
/// `len` records, so the entry `k` places from the newest has `seq - k`.
#[cfg(feature = "provenance")]
#[derive(Debug)]
struct RingNode {
    witness: u64,
    iter: u64,
    thread: u32,
    link: Link,
}

#[cfg(feature = "provenance")]
impl Site {
    fn is(&self, branch: u32, site: u64) -> bool {
        self.site == site && self.branch == branch
    }
}

#[cfg(feature = "provenance")]
impl FlightRecorder {
    /// A recorder whose per-site rings hold `capacity` entries.
    pub(crate) fn new(capacity: usize) -> Self {
        FlightRecorder {
            index: KeyIndex::default(),
            sites: Vec::new(),
            ring: Vec::new(),
            capacity: capacity.clamp(1, NIL as usize) as u32,
        }
    }

    /// Appends `event` to its site's ring, numbering it with the site
    /// stream's next seq (1-based), and returns the site's row for
    /// [`FlightRecorder::track`].
    #[inline]
    pub(crate) fn record(&mut self, event: &BranchEvent) -> u32 {
        self.index.reserve();
        let hash = mix_key(event.branch, event.site, 0);
        let sites = &self.sites;
        let found = self.index.probe(hash, |row| sites[row as usize].is(event.branch, event.site));
        let row = match found {
            Ok(pos) => self.index.row(pos),
            Err(pos) => {
                let site = Site {
                    site: event.site,
                    seq: 0,
                    branch: event.branch,
                    pending: 0,
                    newest: NIL,
                    len: 0,
                };
                let row = push_node(&mut self.sites, site);
                self.index.insert(pos, hash, row);
                row
            }
        };
        let site = &mut self.sites[row as usize];
        site.seq += 1;
        let node = RingNode {
            witness: event.witness,
            iter: event.iter,
            thread: event.thread,
            link: Link::new(NIL, event.taken),
        };
        if site.len == self.capacity {
            // Full: the oldest node becomes the newest, in place.
            let oldest = self.ring[site.newest as usize].link.next();
            let second = self.ring[oldest as usize].link.next();
            self.ring[oldest as usize] = node;
            self.ring[oldest as usize].link.set_next(second);
            site.newest = oldest;
        } else {
            // Growing: the new node goes between the newest and the oldest.
            let index = push_node(&mut self.ring, node);
            let oldest = if site.len == 0 {
                index
            } else {
                let newest = &mut self.ring[site.newest as usize].link;
                let oldest = newest.next();
                newest.set_next(index);
                oldest
            };
            self.ring[index as usize].link.set_next(oldest);
            site.newest = index;
            site.len += 1;
        }
        row
    }

    /// Keeps the pending count of the site at `row` in step with what the
    /// instance table did with the report just recorded there.
    #[inline]
    pub(crate) fn track(&mut self, row: u32, recorded: Recorded) {
        let pending = &mut self.sites[row as usize].pending;
        *pending = *pending + u32::from(recorded.opened) - u32::from(recorded.completed);
    }

    /// Zeroes every site's pending count (the instance table was drained).
    pub(crate) fn clear_pending(&mut self) {
        for site in &mut self.sites {
            site.pending = 0;
        }
    }

    fn find(&self, branch: u32, site: u64) -> Option<&Site> {
        let is_key = |row: u32| self.sites[row as usize].is(branch, site);
        let row = self.index.get(mix_key(branch, site, 0), is_key)?;
        Some(&self.sites[row as usize])
    }

    /// The per-site sequence number of the most recent record at
    /// `(branch, site)`; zero when the site was never recorded.
    pub fn site_seq(&self, branch: u32, site: u64) -> u64 {
        self.find(branch, site).map_or(0, |s| s.seq)
    }

    /// Number of pending instances at one `(branch, site)` key — the
    /// site-local backlog a [`ViolationReport`] records as its
    /// `pending_depth`. Unlike the monitor's total it is invariant under
    /// sharding the key space across monitors.
    pub fn pending_at(&self, branch: u32, site: u64) -> u64 {
        self.find(branch, site).map_or(0, |s| u64::from(s.pending))
    }

    /// Snapshot of the `(branch, site)` ring, oldest entry first.
    pub fn window(&self, branch: u32, site: u64) -> Vec<WindowEntry> {
        let Some(site) = self.find(branch, site) else {
            return Vec::new();
        };
        let mut out = Vec::with_capacity(site.len as usize);
        let mut node = self.ring[site.newest as usize].link.next();
        for age in (0..u64::from(site.len)).rev() {
            let RingNode { witness, iter, thread, link } = self.ring[node as usize];
            out.push(WindowEntry { thread, witness, taken: link.taken(), iter, seq: site.seq - age });
            node = link.next();
        }
        out
    }

    /// Number of `(branch, site)` keys seen.
    pub fn sites(&self) -> usize {
        self.sites.len()
    }
}

/// The site table and flight recorder, compiled out (`provenance` feature
/// off): zero-sized, never records, never allocates.
#[cfg(not(feature = "provenance"))]
#[derive(Debug, Default)]
pub struct FlightRecorder;

#[cfg(not(feature = "provenance"))]
impl FlightRecorder {
    #[inline]
    pub(crate) fn new(_capacity: usize) -> Self {
        FlightRecorder
    }

    #[inline]
    pub(crate) fn record(&mut self, _event: &BranchEvent) -> u32 {
        0
    }

    #[inline]
    pub(crate) fn track(&mut self, _row: u32, _recorded: Recorded) {}

    #[inline]
    pub(crate) fn clear_pending(&mut self) {}

    /// Always zero without the `provenance` feature.
    #[inline]
    pub fn site_seq(&self, _branch: u32, _site: u64) -> u64 {
        0
    }

    /// Always zero without the `provenance` feature.
    #[inline]
    pub fn pending_at(&self, _branch: u32, _site: u64) -> u64 {
        0
    }

    /// Always empty without the `provenance` feature.
    #[inline]
    pub fn window(&self, _branch: u32, _site: u64) -> Vec<WindowEntry> {
        Vec::new()
    }

    /// Always zero without the `provenance` feature.
    #[inline]
    pub fn sites(&self) -> usize {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    proptest::proptest! {
        #[test]
        fn violation_records_round_trip(
            site in proptest::any::<u64>(),
            witness in 43u64..u64::MAX,
            latency in proptest::any::<bool>(),
            image in proptest::any::<u64>(),
            index in proptest::any::<u64>(),
        ) {
            let image = latency.then_some(image);
            let v = TraceViolation::new(&sample_report(site, witness, latency), image, index);
            proptest::prop_assert_eq!(v.latency, latency.then_some(3));
            let buf = bw_telemetry::TraceBuffer::default();
            v.clone().record_to(&buf.recorder());
            let text = buf.text();
            let back = bw_telemetry::records(&text).next().unwrap();
            proptest::prop_assert_eq!(back.and_then(TraceViolation::from_record), Ok(v));
        }
    }

    #[test]
    fn violation_wire_format_is_pinned() {
        let buf = bw_telemetry::TraceBuffer::default();
        let v = TraceViolation::new(&sample_report(0x40, 99, true), None, 5);
        v.clone().record_to(&buf.recorder());
        TraceViolation { image: Some(2), latency: None, ..v.clone() }.record_to(&buf.recorder());
        let pinned = concat!(
            r#""ev":"violation","index":5,"branch":3,"site":64,"iter":7,"kind":"witness_mismatch","#,
            r#""category":"shared","predicted":"all threads agree on witness and direction","#,
            r#""reporters":3,"detected_seq":14,"latency":"3","observed":"t0=w2a:T,t1=w63:F,t2=w2a:T","#,
            r#""deviants":"1","majority":"0,2","window":"t1:i7:w63:F:s11"}"#
        );
        let bodies = buf.bodies();
        assert_eq!(bodies[0], pinned);
        assert!(bodies[1].starts_with(r#""ev":"violation","image":2,"index":5,"#), "{}", bodies[1]);
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

    #[cfg(feature = "provenance")]
    fn event(site: u64, thread: u32, witness: u64, iter: u64) -> BranchEvent {
        BranchEvent { branch: 1, thread, site, iter, witness, taken: witness.is_multiple_of(2) }
    }

    #[cfg(feature = "provenance")]
    #[test]
    fn ring_wraps_at_capacity_keeping_the_newest_entries() {
        let mut fr = FlightRecorder::new(4);
        for i in 0..10u64 {
            fr.record(&event(0xfeed, (i % 2) as u32, i, i));
            assert_eq!(fr.site_seq(1, 0xfeed), i + 1, "seq is 1-based and site-local");
            let window = fr.window(1, 0xfeed);
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
            assert_eq!(window, expect, "oldest-first, newest kept");
        }
        assert!(fr.window(1, 0xbeef).is_empty());
        assert_eq!(fr.sites(), 1);
        assert_eq!(fr.ring.len(), 4, "a full ring overwrites in place");
        assert_eq!(fr.site_seq(1, 0xbeef), 0);
    }

    #[cfg(feature = "provenance")]
    #[test]
    fn site_streams_are_independent_and_interleave_in_one_arena() {
        let mut fr = FlightRecorder::new(2);
        let a = fr.record(&event(0xa, 0, 10, 0));
        let b = fr.record(&event(0xb, 0, 20, 0));
        assert_ne!(a, b);
        assert_eq!(fr.record(&event(0xa, 1, 11, 0)), a, "a site keeps its row");
        fr.record(&event(0xb, 1, 21, 0));
        fr.record(&event(0xa, 2, 12, 0)); // wraps site a only
        assert_eq!(fr.site_seq(1, 0xa), 3);
        assert_eq!(fr.site_seq(1, 0xb), 2, "each site numbers its own stream");
        let witnesses = |site| fr.window(1, site).iter().map(|e| e.witness).collect::<Vec<_>>();
        assert_eq!(witnesses(0xa), vec![11, 12]);
        assert_eq!(witnesses(0xb), vec![20, 21]);
        assert_eq!(fr.site_seq(2, 0xa), 0, "the branch is part of the key");
    }

    #[cfg(feature = "provenance")]
    #[test]
    fn pending_counts_one_site_only() {
        let opened = Recorded { opened: true, completed: false };
        let completed = Recorded { opened: false, completed: true };
        let mut fr = FlightRecorder::new(4);
        let a = fr.record(&event(0, 0, 0, 0));
        fr.track(a, opened);
        fr.track(a, opened);
        let b = fr.record(&event(7, 0, 0, 0));
        fr.track(b, opened);
        fr.track(b, Recorded::default()); // joined or dropped: no change
        fr.track(b, Recorded { opened: true, completed: true }); // one thread
        assert_eq!(fr.pending_at(1, 0), 2);
        assert_eq!(fr.pending_at(1, 7), 1);
        assert_eq!(fr.pending_at(9, 9), 0);
        fr.track(a, completed);
        assert_eq!(fr.pending_at(1, 0), 1);
        fr.clear_pending();
        assert_eq!(fr.pending_at(1, 0) + fr.pending_at(1, 7), 0);
        assert_eq!(fr.site_seq(1, 0), 1, "a flush leaves the streams alone");
    }

    #[cfg(not(feature = "provenance"))]
    #[test]
    fn recorder_is_zero_sized_and_inert_when_disabled() {
        assert_eq!(std::mem::size_of::<FlightRecorder>(), 0);
        let mut fr = FlightRecorder::new(64);
        let row = fr.record(&BranchEvent {
            branch: 0,
            thread: 0,
            site: 0,
            iter: 0,
            witness: 0,
            taken: true,
        });
        fr.track(row, Recorded { opened: true, completed: false });
        assert!(fr.window(0, 0).is_empty());
        assert_eq!(fr.sites(), 0);
        assert_eq!(fr.site_seq(0, 0), 0);
        assert_eq!(fr.pending_at(0, 0), 0);
        assert_eq!(PROVENANCE_ENABLED, cfg!(feature = "provenance"));
    }

    #[test]
    fn window_capacity_scales_with_threads_within_bounds() {
        assert_eq!(window_capacity(1), 16);
        assert_eq!(window_capacity(8), 32);
        assert_eq!(window_capacity(10_000), 1024);
    }
}
