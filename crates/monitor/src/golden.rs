//! What a fork of a clean golden run checks: only what differs from it.
//!
//! A fault-injection campaign runs one program many times, each run the
//! fault-free *golden* run up to its fault and a short faulty tail after
//! it. Most of a tail's reports are the golden run's own: the same thread
//! reports the same `(branch, site, iter)` key with the same witness and
//! direction. Every check is hereditary — what passes on a set of reports
//! passes on each of its subsets — so when no check flagged the golden run,
//! an instance whose reports all equal golden reports cannot fail. Only the
//! instances a *different* report joins need a check.
//!
//! [`GoldenProfile`] indexes the golden run's event stream once, by
//! `(thread, branch, site, iter)`. A [`DifferenceMonitor`] then stands in
//! for a full [`crate::Monitor`] in a fork: each event costs a lookup (most
//! often the thread's next golden event, found without a probe), a bump of
//! its instance's report count and one `u32` in an arrival log. A report
//! that is not its thread's golden report of the key goes to a small delta
//! table and marks its instance. When a marked instance completes, or at
//! the flush, it is checked with its delta reports plus the golden reports
//! the fork sent. A repeated `(thread, key)` — which a full monitor drops or
//! opens a second instance for — is a case the profile does not decide.
//!
//! When the difference monitor cannot decide, or a marked instance fails,
//! the caller takes the exact path: a full monitor in the state of the
//! fork's start, fed [`DifferenceMonitor::logged`], the fork's events in
//! arrival order. Otherwise [`DifferenceMonitor::verdict`] is the verdict
//! that full monitor would have reached — no violation, and the same
//! instruments, since the report counts track how many instances are
//! pending after every event.

use std::collections::HashMap;

use bw_analysis::CheckKind;

use crate::checker::{check_instance, Report};
use crate::event::BranchEvent;
use crate::monitor::CheckTable;
use crate::shard::ShardedMonitor;
use crate::table::mix_key;
use crate::topology::MonitorVerdict;

/// No position, instance or delta.
const NONE: u32 = u32::MAX;

/// The flag a report count carries once a delta report joined its instance.
const TOUCHED: u16 = 1 << 15;

/// One golden event, packed: 32 bytes instead of a [`BranchEvent`]'s 40.
#[derive(Clone, Copy, Debug)]
struct GoldenEvent {
    site: u64,
    iter: u64,
    witness: u64,
    branch: u32,
    /// The thread in the low 31 bits, the direction in the top one.
    thread_taken: u32,
}

impl GoldenEvent {
    fn new(event: &BranchEvent) -> Self {
        GoldenEvent {
            site: event.site,
            iter: event.iter,
            witness: event.witness,
            branch: event.branch,
            thread_taken: event.thread | (u32::from(event.taken) << 31),
        }
    }

    fn thread(&self) -> u32 {
        self.thread_taken & !(1 << 31)
    }

    fn taken(&self) -> bool {
        self.thread_taken >> 31 == 1
    }

    fn event(&self) -> BranchEvent {
        BranchEvent {
            branch: self.branch,
            thread: self.thread(),
            site: self.site,
            iter: self.iter,
            witness: self.witness,
            taken: self.taken(),
        }
    }

    fn is_key(&self, branch: u32, site: u64, iter: u64) -> bool {
        self.site == site && self.iter == iter && self.branch == branch
    }
}

/// The hash of a thread's report of a key.
fn thread_key(thread: u32, branch: u32, site: u64, iter: u64) -> u64 {
    mix_key(branch, site, iter) ^ u64::from(thread).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// An open-addressing index of golden positions: a slot is 0 when empty,
/// else the position plus one. At most three quarters full, never shrunk
/// or deleted from.
#[derive(Clone, Debug)]
struct Slots(Vec<u32>);

impl Slots {
    fn for_keys(keys: usize) -> Self {
        Slots(vec![0; (keys * 4 / 3 + 1).next_power_of_two().max(16)])
    }

    /// `Ok(position)` of the entry with `hash` that `is` accepts, or
    /// `Err(slot)` of the empty slot it would go into.
    #[inline]
    fn find(&self, hash: u64, is: impl Fn(usize) -> bool) -> Result<usize, usize> {
        let mask = self.0.len() - 1;
        let mut slot = (hash >> 32) as usize & mask;
        loop {
            match self.0[slot] {
                0 => return Err(slot),
                entry if is(entry as usize - 1) => return Ok(entry as usize - 1),
                _ => slot = (slot + 1) & mask,
            }
        }
    }
}

/// The golden run's event stream, indexed for [`DifferenceMonitor`]s: built
/// once per campaign and shared, read-only, by every worker.
///
/// Each event's *position* is its place in the stream. Each report belongs
/// to an *instance*, numbered by its first report: the golden run has one
/// per key, since no thread reports a key twice in it (a stream where one
/// does has no profile).
#[derive(Clone, Debug)]
pub struct GoldenProfile {
    checks: CheckTable,
    nthreads: usize,
    events: Vec<GoldenEvent>,
    /// Per position: the event's instance, or `NONE` for a branch the
    /// checks do not cover.
    instance: Vec<u32>,
    /// Per position: the position of the same thread's next event, or
    /// `NONE`.
    next_of_thread: Vec<u32>,
    /// Per thread: the position of its first event, or `NONE`.
    first_of_thread: Vec<u32>,
    /// `(thread, branch, site, iter)` → position.
    by_report: Slots,
    /// `(branch, site, iter)` → the position of the key's first report.
    by_key: Slots,
    instances: usize,
}

impl GoldenProfile {
    /// The profile of `events`, a golden run's stream in the order its
    /// monitor received it, checked by `checks` on `nthreads` threads.
    /// `None` when the stream is one the profile cannot stand for: a thread
    /// that reports a key twice, a thread id out of range, more than 32,767
    /// threads or 2^31 events.
    pub fn new(checks: CheckTable, nthreads: usize, events: &[BranchEvent]) -> Option<Self> {
        if nthreads == 0 || nthreads >= usize::from(TOUCHED) || events.len() >= 1 << 31 {
            return None;
        }
        let golden: Vec<GoldenEvent> = events.iter().map(GoldenEvent::new).collect();
        let mut profile = GoldenProfile {
            instance: vec![NONE; events.len()],
            next_of_thread: vec![NONE; events.len()],
            first_of_thread: vec![NONE; nthreads],
            by_report: Slots::for_keys(events.len()),
            by_key: Slots::for_keys(events.len() / nthreads),
            instances: 0,
            checks,
            nthreads,
            events: golden,
        };
        let mut last_of_thread = vec![NONE; nthreads];
        for (q, event) in events.iter().enumerate() {
            let BranchEvent { branch, thread, site, iter, .. } = *event;
            let t = thread as usize;
            if t >= nthreads {
                return None;
            }
            match last_of_thread[t] {
                NONE => profile.first_of_thread[t] = q as u32,
                last => profile.next_of_thread[last as usize] = q as u32,
            }
            last_of_thread[t] = q as u32;
            if profile.checks.kind(branch).is_none() {
                continue;
            }
            let golden = &profile.events;
            let same = |p: usize| golden[p].thread() == thread && golden[p].is_key(branch, site, iter);
            // A thread that reports a key twice: no profile.
            let slot = profile.by_report.find(thread_key(thread, branch, site, iter), same).err()?;
            profile.by_report.0[slot] = q as u32 + 1;
            let key = |p: usize| golden[p].is_key(branch, site, iter);
            match profile.by_key.find(mix_key(branch, site, iter), key) {
                Ok(first) => profile.instance[q] = profile.instance[first],
                Err(slot) => {
                    profile.instance[q] = profile.instances as u32;
                    profile.instances += 1;
                    profile.by_key.0[slot] = q as u32 + 1;
                    if profile.instances * 4 > profile.by_key.0.len() * 3 {
                        profile.by_key = profile.rekey();
                    }
                }
            }
        }
        Some(profile)
    }

    /// The key index rebuilt twice as large, from each instance's first
    /// report (the stream's instances outgrew the first guess).
    #[cold]
    fn rekey(&self) -> Slots {
        let mut slots = Slots::for_keys(self.instances * 2);
        let mut seen = 0;
        for (q, (event, &instance)) in self.events.iter().zip(&self.instance).enumerate() {
            if instance as usize == seen {
                let hash = mix_key(event.branch, event.site, event.iter);
                let slot = slots.find(hash, |_| false).expect_err("a new key");
                slots.0[slot] = q as u32 + 1;
                seen += 1;
            }
        }
        slots
    }

    /// Events in the golden stream.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the golden stream is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Threads the golden run reported from.
    pub fn nthreads(&self) -> usize {
        self.nthreads
    }

    /// The position of `thread`'s report of `(branch, site, iter)`.
    #[inline]
    fn find(&self, thread: u32, branch: u32, site: u64, iter: u64) -> Option<usize> {
        let events = &self.events;
        let same = |p: usize| events[p].is_key(branch, site, iter) && events[p].thread() == thread;
        self.by_report.find(thread_key(thread, branch, site, iter), same).ok()
    }

    /// The instance of `(branch, site, iter)`, if the golden run has it.
    fn instance_of(&self, branch: u32, site: u64, iter: u64) -> Option<u32> {
        let events = &self.events;
        let hash = mix_key(branch, site, iter);
        let first = self.by_key.find(hash, |p| events[p].is_key(branch, site, iter)).ok()?;
        Some(self.instance[first])
    }
}

/// Where a monitor stands in the golden stream: the report count of each
/// golden instance over the first [`GoldenCursor::position`] events, and
/// each thread's next event from there. A campaign's fault-free prefix
/// keeps one as its monitor checks the golden events, and each
/// [`DifferenceMonitor`] starts from a copy.
#[derive(Clone, Debug)]
pub struct GoldenCursor {
    at: usize,
    counts: Vec<u16>,
    next: Vec<u32>,
}

impl GoldenCursor {
    /// The cursor before the first event of `profile`.
    pub fn new(profile: &GoldenProfile) -> Self {
        GoldenCursor {
            at: 0,
            counts: vec![0; profile.instances],
            next: profile.first_of_thread.clone(),
        }
    }

    /// Golden events counted so far.
    pub fn position(&self) -> usize {
        self.at
    }

    /// Counts the golden events up to position `to` (at most
    /// [`GoldenProfile::len`]).
    pub fn advance(&mut self, profile: &GoldenProfile, to: usize) {
        for q in self.at..to {
            if let Some(count) = self.counts.get_mut(profile.instance[q] as usize) {
                *count += 1;
            }
            self.next[profile.events[q].thread() as usize] = profile.next_of_thread[q];
        }
        self.at = self.at.max(to);
    }
}

/// One report of a fork that is not its thread's golden report of the key.
#[derive(Clone, Copy, Debug)]
struct Delta {
    event: BranchEvent,
    /// The previous delta report of its instance, or `NONE`.
    prev: u32,
}

/// A fork's monitor that checks only what differs from the golden run (the
/// module documentation has the rule). It starts from a full monitor that
/// has processed the golden stream's first events — the fork's base, kept
/// by the caller — and reports what that monitor, fed the same events,
/// would have concluded, or that the caller has to feed it to find out.
#[derive(Clone, Debug)]
pub struct DifferenceMonitor<'p> {
    profile: &'p GoldenProfile,
    /// Golden events the base processed: the fork's events start here.
    start: usize,
    /// Reports per golden instance, the prefix's included, and the
    /// [`TOUCHED`] flag.
    counts: Vec<u16>,
    /// Per thread, the golden position its next event most likely has.
    next: Vec<u32>,
    /// Bit `q - start`: the fork has sent its thread's report of the key of
    /// golden position `q`.
    sent: Vec<u64>,
    /// The fork's events in arrival order: a golden position, or the
    /// golden length plus a delta index.
    log: Vec<u32>,
    delta: Vec<Delta>,
    /// Instance → its newest delta report.
    heads: HashMap<u32, u32>,
    /// Keys the golden run lacks → their instance.
    fresh: HashMap<(u32, u64, u64), u32>,
    fresh_counts: Vec<u16>,
    pending: u64,
    pending_high_water: u64,
    events: u64,
}

impl<'p> DifferenceMonitor<'p> {
    /// A difference monitor continuing `base`, a one-shard monitor that has
    /// processed the first `cursor.position()` events of `profile` and
    /// flagged nothing. `None` if `base` is not that.
    pub fn new(
        profile: &'p GoldenProfile,
        cursor: &GoldenCursor,
        base: &ShardedMonitor,
    ) -> Option<Self> {
        if base.shards() != 1 || base.detected() || base.events_processed() != cursor.at as u64 {
            return None;
        }
        let tail = profile.len().checked_sub(cursor.at)?;
        Some(DifferenceMonitor {
            profile,
            start: cursor.at,
            counts: cursor.counts.clone(),
            next: cursor.next.clone(),
            sent: vec![0; tail.div_ceil(64)],
            log: Vec::with_capacity(tail),
            delta: Vec::new(),
            heads: HashMap::new(),
            fresh: HashMap::new(),
            fresh_counts: Vec::new(),
            pending: base.pending_instances() as u64,
            pending_high_water: 0,
            events: 0,
        })
    }

    /// Takes one event. `false` when the difference monitor cannot stand
    /// for a full one any more — a repeated `(thread, key)`, or an instance
    /// a delta report joined failed its check as it completed — and the
    /// caller must take the exact path; the event is logged either way.
    #[inline]
    pub fn receive(&mut self, event: BranchEvent) -> bool {
        self.events += 1;
        let profile = self.profile;
        let Some(kind) = profile.checks.kind(event.branch) else {
            return self.push_delta(event, NONE);
        };
        let BranchEvent { branch, thread, site, iter, .. } = event;
        let Some(&predicted) = self.next.get(thread as usize) else {
            return false; // a thread the golden run did not have
        };
        let hit = profile
            .events
            .get(predicted as usize)
            .is_some_and(|golden| golden.is_key(branch, site, iter));
        let found = if hit { Some(predicted as usize) } else { profile.find(thread, branch, site, iter) };
        let instance = match found {
            Some(q) => {
                self.next[thread as usize] = profile.next_of_thread[q];
                let golden = &profile.events[q];
                if golden.witness == event.witness && golden.taken() == event.taken {
                    self.log.push(q as u32);
                } else if !self.push_delta(event, profile.instance[q]) {
                    return false;
                }
                if !self.mark_sent(q) {
                    return false; // the thread has sent this key before
                }
                profile.instance[q]
            }
            None => {
                let instance = match profile.instance_of(branch, site, iter) {
                    Some(instance) => instance,
                    None => self.fresh_instance(branch, site, iter),
                };
                let repeat = self.deltas(instance).any(|d| d.event.thread == thread);
                if !self.push_delta(event, instance) || repeat {
                    return false;
                }
                instance
            }
        };
        self.join(instance, kind)
    }

    /// Notes that the fork sent the report of golden position `q`; `false`
    /// if it already had (in its prefix, or earlier in its tail).
    #[inline]
    fn mark_sent(&mut self, q: usize) -> bool {
        let Some(bit) = q.checked_sub(self.start) else { return false };
        let word = &mut self.sent[bit / 64];
        let mask = 1 << (bit % 64);
        let fresh = *word & mask == 0;
        *word |= mask;
        fresh
    }

    /// Whether the fork has sent the report of golden position `q`.
    fn was_sent(&self, q: usize) -> bool {
        q.checked_sub(self.start).is_none_or(|bit| self.sent[bit / 64] >> (bit % 64) & 1 == 1)
    }

    /// Logs a report that differs from golden and marks its instance:
    /// golden, new (past the golden ones) or `NONE` for a branch the checks
    /// do not cover. `false` if the log's encoding has run out.
    fn push_delta(&mut self, event: BranchEvent, instance: u32) -> bool {
        let index = self.delta.len();
        let Ok(code) = u32::try_from(self.profile.len() + index) else { return false };
        let prev = if instance == NONE {
            NONE
        } else {
            if let Some(count) = self.counts.get_mut(instance as usize) {
                *count |= TOUCHED;
            }
            self.heads.insert(instance, index as u32).unwrap_or(NONE)
        };
        self.delta.push(Delta { event, prev });
        self.log.push(code);
        code != NONE
    }

    /// The instance of a key the golden run lacks, made on first use.
    #[cold]
    fn fresh_instance(&mut self, branch: u32, site: u64, iter: u64) -> u32 {
        let next = (self.profile.instances + self.fresh_counts.len()) as u32;
        *self.fresh.entry((branch, site, iter)).or_insert_with(|| {
            self.fresh_counts.push(TOUCHED);
            next
        })
    }

    /// The delta reports of `instance`, newest first.
    fn deltas(&self, instance: u32) -> impl Iterator<Item = &Delta> + '_ {
        let mut d = self.heads.get(&instance).copied().unwrap_or(NONE);
        std::iter::from_fn(move || {
            let delta = self.delta.get(d as usize)?;
            d = delta.prev;
            Some(delta)
        })
    }

    /// A report joins `instance`: the pending count moves as the full
    /// monitor's table would, and a marked instance that completes is
    /// checked.
    #[inline]
    fn join(&mut self, instance: u32, kind: CheckKind) -> bool {
        let golden = self.profile.instances;
        let count = match self.counts.get_mut(instance as usize) {
            Some(count) => count,
            None => &mut self.fresh_counts[instance as usize - golden],
        };
        *count += 1;
        let (reports, touched) = (*count & !TOUCHED, *count & TOUCHED != 0);
        if reports == 1 {
            self.pending += 1;
        }
        if usize::from(reports) == self.profile.nthreads {
            self.pending -= 1;
            if touched && !self.passes(instance, kind, &mut Vec::new()) {
                return false;
            }
        }
        self.pending_high_water = self.pending_high_water.max(self.pending);
        true
    }

    /// Whether `instance`, which a delta report joined, passes its check on
    /// the reports the fork sent it: its delta reports and the golden
    /// reports of the threads that sent no delta, if the fork sent them
    /// (in its prefix or its tail).
    fn passes(&self, instance: u32, kind: CheckKind, reports: &mut Vec<Report>) -> bool {
        reports.clear();
        let mut key = None;
        for delta in self.deltas(instance) {
            let BranchEvent { thread, witness, taken, branch, site, iter } = delta.event;
            reports.push(Report { thread, witness, taken });
            key = Some((branch, site, iter));
        }
        let Some((branch, site, iter)) = key else { return true };
        if (instance as usize) < self.profile.instances {
            for thread in 0..self.profile.nthreads as u32 {
                if reports.iter().any(|r| r.thread == thread) {
                    continue;
                }
                if let Some(q) = self.profile.find(thread, branch, site, iter) {
                    if self.was_sent(q) {
                        let golden = &self.profile.events[q];
                        reports.push(Report { thread, witness: golden.witness, taken: golden.taken() });
                    }
                }
            }
        }
        check_instance(kind, reports).is_ok()
    }

    /// Ends the fork's events. With `flush` — the run survived, and its
    /// monitor's flush checks what is still pending — every marked instance
    /// still pending is checked. `false` if one fails: the caller must take
    /// the exact path.
    pub fn settle(&self, flush: bool) -> bool {
        if !flush {
            return true;
        }
        let mut reports = Vec::new();
        self.heads.iter().all(|(&instance, &newest)| {
            let golden = self.profile.instances;
            let count = match self.counts.get(instance as usize) {
                Some(&count) => count,
                None => self.fresh_counts[instance as usize - golden],
            } & !TOUCHED;
            let pending = usize::from(count) < self.profile.nthreads;
            let branch = self.delta[newest as usize].event.branch;
            let kind = self.profile.checks.kind(branch).expect("an instrumented delta");
            !pending || self.passes(instance, kind, &mut reports)
        })
    }

    /// The fork's events so far, in the order they arrived.
    pub fn logged(&self) -> impl Iterator<Item = BranchEvent> + '_ {
        let golden = self.profile.len();
        self.log.iter().map(move |&code| match (code as usize).checked_sub(golden) {
            None => self.profile.events[code as usize].event(),
            Some(index) => self.delta[index].event,
        })
    }

    /// The verdict a full monitor would reach from `base` on the fork's
    /// events — flushed when `flush` — once [`DifferenceMonitor::settle`]
    /// has said yes: no violation, and `base`'s instruments moved on by
    /// the fork's events and flush.
    pub fn verdict(&self, base: &ShardedMonitor, flush: bool) -> MonitorVerdict {
        base.verdict_after(self.events, self.pending_high_water, self.pending, flush)
    }
}
