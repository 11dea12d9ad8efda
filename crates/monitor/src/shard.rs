//! Sharded monitor ingest: N monitors, each owning a disjoint slice of the
//! `(site, branch)` key space.
//!
//! The flat monitor is the first component to saturate at high thread
//! counts — every application thread funnels into one drain loop. But the
//! monitor's correlation is strictly per-key: two events interact only when
//! they share `(branch, site)`, so the key space can be partitioned across
//! independent workers with **no cross-shard coordination at all**. Each
//! shard owns its own instance table, site table and checker; producers
//! route every event to the owning shard's SPSC queue ([`shard_of`]), and
//! shards drain in batches ([`crate::Consumer::pop_batch`]) to amortize
//! per-event synchronization.
//!
//! Determinism: a site's events always land on exactly one shard, in the
//! order the producing thread sent them, and a report's sequence numbers
//! are site-local — so every shard computes byte-identical violations and
//! [`crate::ViolationReport`]s to what a flat monitor would have computed
//! for those keys. Merging at join sorts both lists into the canonical
//! order of [`crate::sort_violations`], making the final verdict
//! independent of the shard count.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use bw_telemetry::{TimeDomain, Value};

use crate::event::{hash_words, BranchEvent};
use crate::monitor::{CheckTable, Monitor, PREFETCH_DISTANCE};
use crate::spsc::Consumer;
use crate::topology::MonitorVerdict;

/// How many events a shard worker moves out of one queue per batch; bounds
/// the worker's scratch buffer while amortizing the acquire/release pair of
/// a queue drain over many events.
pub(crate) const DRAIN_BATCH: usize = 256;

/// The shard owning a `(site, branch)` key, for a monitor split `shards`
/// ways: `hash(site, branch) % shards`. One shard short-circuits to 0
/// without hashing. The hash is the one the runtime keys are derived with
/// ([`hash_words`]), so the mapping is identical across runs, platforms,
/// and engines.
pub fn shard_of(site: u64, branch: u32, shards: usize) -> usize {
    if shards <= 1 {
        return 0;
    }
    (hash_words([site, u64::from(branch)]) % shards as u64) as usize
}

/// Per-shard queue capacity when a total per-thread budget of `total` slots
/// is split `shards` ways. An even split, but never below the smaller of
/// the total and 1024 slots — tiny queues turn routing imbalance straight
/// into senders waiting on a full queue. One shard keeps the full budget.
pub fn per_shard_capacity(total: usize, shards: usize) -> usize {
    let shards = shards.max(1);
    (total / shards).max(total.min(1024)).max(1)
}

/// A passive sharded monitor: routes each event to the owning shard's
/// [`Monitor`], exactly as the threaded ingest pipeline would, but driven
/// inline by a single caller (the deterministic simulator).
///
/// With one shard this is a plain [`Monitor`] behind a bounds check — the
/// flat topology is the `shards == 1` special case, not a separate code
/// path.
#[derive(Clone, Debug)]
pub struct ShardedMonitor {
    monitors: Vec<Monitor>,
}

impl ShardedMonitor {
    /// Creates `shards` monitors (at least one), each expecting reports
    /// from all `nthreads` application threads for the keys it owns.
    pub fn new(checks: CheckTable, nthreads: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        let monitors =
            (0..shards).map(|_| Monitor::new(checks.clone(), nthreads)).collect();
        ShardedMonitor { monitors }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.monitors.len()
    }

    /// Routes one event to the shard owning its `(site, branch)` key.
    pub fn process(&mut self, event: BranchEvent) {
        let shard = shard_of(event.site, event.branch, self.monitors.len());
        self.monitors[shard].process(event);
    }

    /// Scopes every shard's flush to the instances a report joins from now
    /// on: an instance pending now that no report joins later is not
    /// checked. Exact when each instance pending now passes its check as it
    /// stands, as in a fork of a fault-free run that no check flagged
    /// (`bw_vm::SimPrefix` says why). It costs one pass over each shard's
    /// row bitset, and nothing per event.
    pub fn scope_flush(&mut self) {
        self.monitors.iter_mut().for_each(Monitor::scope_flush);
    }

    /// Routes `batch` in order, exactly as one [`ShardedMonitor::process`]
    /// call per event would. What it adds is the lookahead of
    /// [`Monitor::process_batch`]: before event *i* it prefetches, in the
    /// shard owning event *i* + 8, the instance-index slot that event will
    /// probe. Each event carries a tag of the caller's, handed back to
    /// `flagged` with every event that completed a violation, right after
    /// that event was processed.
    pub fn process_batch<T: Copy>(
        &mut self,
        batch: &[(BranchEvent, T)],
        mut flagged: impl FnMut(BranchEvent, T),
    ) {
        let shards = self.monitors.len();
        for (i, &(event, tag)) in batch.iter().enumerate() {
            if let Some((ahead, _)) = batch.get(i + PREFETCH_DISTANCE) {
                self.monitors[shard_of(ahead.site, ahead.branch, shards)].prefetch(ahead);
            }
            let monitor = &mut self.monitors[shard_of(event.site, event.branch, shards)];
            let before = monitor.violations().len();
            monitor.process(event);
            if monitor.violations().len() > before {
                flagged(event, tag);
            }
        }
    }

    /// Flushes every shard's partially-reported instances; returns the
    /// total number of violations found so far across all shards.
    pub fn flush(&mut self) -> usize {
        self.monitors.iter_mut().map(|m| m.flush()).sum()
    }

    /// Whether any shard has detected a violation.
    pub fn detected(&self) -> bool {
        self.monitors.iter().any(|m| m.detected())
    }

    /// Total events processed across all shards.
    pub fn events_processed(&self) -> u64 {
        self.monitors.iter().map(|m| m.events_processed()).sum()
    }

    /// Total instances awaiting more reporters across all shards.
    pub fn pending_instances(&self) -> usize {
        self.monitors.iter().map(|m| m.pending_instances()).sum()
    }

    /// [`Monitor::verdict_after`] of the one shard.
    ///
    /// # Panics
    ///
    /// Panics if the monitor is sharded: which shard an event would have
    /// reached, and so each shard's counts, are not known.
    pub(crate) fn verdict_after(
        &self,
        events: u64,
        pending_high_water: u64,
        pending: u64,
        flush: bool,
    ) -> MonitorVerdict {
        let [monitor] = self.monitors.as_slice() else {
            panic!("counts moved on without events need a single shard");
        };
        monitor.verdict_after(events, pending_high_water, pending, flush)
    }

    /// Merges the shards into one verdict: violations and reports in the
    /// canonical order, counts summed, instruments merged (plus each
    /// shard's health when sharded).
    pub fn into_verdict(self) -> MonitorVerdict {
        MonitorVerdict::merge_monitors(self.monitors)
    }
}

/// The sharded monitor backend for the real-threads engine: one OS thread
/// per shard (`bw-shard-<i>`), each draining its own per-producer queues in
/// batches and running a full [`Monitor`] over its slice of the key space.
///
/// Spawn through [`crate::MonitorBuilder`] (topology
/// [`crate::MonitorTopology::Sharded`] — or `Flat`, which is one shard);
/// this type is public so tests can drive pre-filled queues directly.
pub struct ShardedMonitorThread {
    handles: Vec<std::thread::JoinHandle<Monitor>>,
    stop: Arc<AtomicBool>,
}

impl ShardedMonitorThread {
    /// Spawns one worker per shard. `shard_queues[s]` holds shard `s`'s
    /// consumer ends (one per producing thread, every producer routing by
    /// [`shard_of`]).
    ///
    /// # Panics
    ///
    /// Panics if `shard_queues` is empty.
    pub fn spawn(
        checks: CheckTable,
        nthreads: usize,
        shard_queues: Vec<Vec<Consumer<BranchEvent>>>,
    ) -> Self {
        assert!(!shard_queues.is_empty(), "at least one shard");
        let stop = Arc::new(AtomicBool::new(false));
        let handles = shard_queues
            .into_iter()
            .enumerate()
            .map(|(i, queues)| {
                let checks = checks.clone();
                let stop = Arc::clone(&stop);
                std::thread::Builder::new()
                    .name(format!("bw-shard-{i}"))
                    .spawn(move || shard_worker(checks, nthreads, &queues, &stop, i))
                    .expect("spawn shard monitor")
            })
            .collect();
        ShardedMonitorThread { handles, stop }
    }

    /// Signals every shard to finish once its queues are empty and merges
    /// the shards into one deterministic verdict (callers must drop or join
    /// the sending threads first, so every event sent is in a queue).
    ///
    /// # Panics
    ///
    /// Panics if a shard worker panicked.
    pub fn join(self) -> MonitorVerdict {
        self.stop.store(true, Ordering::Release);
        let monitors = self
            .handles
            .into_iter()
            .map(|handle| handle.join().expect("shard monitor panicked"))
            .collect();
        MonitorVerdict::merge_monitors(monitors)
    }
}

/// One shard's drain loop: sweep the producer queues until stopped and
/// empty, then a final sweep and flush. Feeds the live registry
/// (`live.monitor.shard.<i>.*`) once per sweep so the sampler sees queue
/// depth and throughput mid-run.
fn shard_worker(
    checks: CheckTable,
    nthreads: usize,
    queues: &[Consumer<BranchEvent>],
    stop: &AtomicBool,
    shard: usize,
) -> Monitor {
    let mut monitor = Monitor::new(checks, nthreads);
    let mut batch: Vec<BranchEvent> = Vec::with_capacity(DRAIN_BATCH);
    let (live_events, live_depth) = crate::live::shard_handles(shard);
    // Only this thread sees the queues' occupancy; the monitor gets the
    // mark once, before it is handed back.
    let mut queue_high_water = 0usize;
    // Span tracing (`--trace-spans`): this shard's lane records
    // queue-wait gaps (idle, nothing to drain) and flush-batch spans
    // (one drain sweep that moved events), wall-clock, observability
    // only. Resolved once per worker; `None` costs nothing per sweep.
    let tracer = bw_telemetry::trace_sink();
    let stamp = || tracer.as_ref().map(|sink| (sink, bw_telemetry::wall_now_us()));
    let track = format!("shard{shard}");
    let mut idle_since: Option<u64> = None;
    loop {
        let traced = stamp();
        let (processed, depth) = sweep(queues, &mut batch, &mut monitor, &mut queue_high_water);
        if processed > 0 {
            live_events.add(processed);
        }
        live_depth.set(depth as u64);
        if let Some((sink, start)) = traced {
            if processed > 0 {
                // Close the preceding idle gap, then the drain sweep.
                if let Some(idle) = idle_since.take() {
                    bw_telemetry::record_span(
                        sink.as_ref(),
                        TimeDomain::WallUs,
                        &track,
                        "queue_wait",
                        "idle",
                        idle,
                        start.saturating_sub(idle),
                        &[],
                    );
                }
                bw_telemetry::record_span(
                    sink.as_ref(),
                    TimeDomain::WallUs,
                    &track,
                    "flush_batch",
                    "drain",
                    start,
                    bw_telemetry::wall_now_us().saturating_sub(start),
                    &[("events", Value::U64(processed)), ("depth", Value::U64(depth as u64))],
                );
            } else if idle_since.is_none() {
                idle_since = Some(start);
            }
        }
        if processed == 0 {
            if stop.load(Ordering::Acquire) {
                break;
            }
            std::thread::yield_now();
        }
    }
    // Producers are done: one final sweep, then flush.
    let traced = stamp();
    let (tail, _) = sweep(queues, &mut batch, &mut monitor, &mut queue_high_water);
    if tail > 0 {
        live_events.add(tail);
    }
    live_depth.set(0);
    monitor.telemetry_mut().queue_high_water = queue_high_water as u64;
    monitor.flush();
    if let Some((sink, start)) = traced {
        bw_telemetry::record_span(
            sink.as_ref(),
            TimeDomain::WallUs,
            &track,
            "flush_batch",
            "final flush",
            start,
            bw_telemetry::wall_now_us().saturating_sub(start),
            &[("events", Value::U64(tail))],
        );
    }
    monitor
}

/// One sweep over a shard's queues: each is popped dry in batches of up to
/// [`DRAIN_BATCH`] events, every batch going to
/// [`Monitor::process_batch`]. Returns the events moved and the queues'
/// summed occupancy as the sweep found them; `high_water` keeps the
/// longest queue seen.
fn sweep(
    queues: &[Consumer<BranchEvent>],
    batch: &mut Vec<BranchEvent>,
    monitor: &mut Monitor,
    high_water: &mut usize,
) -> (u64, usize) {
    let (mut moved, mut depth) = (0u64, 0usize);
    for q in queues {
        let len = q.len();
        depth += len;
        *high_water = (*high_water).max(len);
        loop {
            let n = q.pop_batch(batch, DRAIN_BATCH);
            if n == 0 {
                break;
            }
            moved += n as u64;
            monitor.process_batch(batch);
            batch.clear();
        }
    }
    (moved, depth)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::Violation;
    use bw_analysis::CheckKind;

    fn checks() -> CheckTable {
        CheckTable::from_kinds(vec![Some(CheckKind::SharedUniform)])
    }

    fn ev(thread: u32, site: u64, iter: u64, witness: u64, taken: bool) -> BranchEvent {
        BranchEvent { branch: 0, thread, site, iter, witness, taken }
    }

    /// A deterministic mixed stream over many sites: iteration 17 of every
    /// fourth site carries a lying witness, and one trailing two-reporter
    /// instance disagrees on direction (caught at flush).
    fn mixed_stream(nthreads: u32) -> Vec<BranchEvent> {
        let mut events = Vec::new();
        for site in 0..32u64 {
            for iter in 0..20u64 {
                for t in 0..nthreads {
                    let lie = site % 4 == 0 && iter == 17 && t == 1;
                    let witness = if lie { 0xbad } else { iter };
                    events.push(ev(t, site, iter, witness, true));
                }
            }
        }
        events.push(ev(0, 99, 0, 7, true));
        events.push(ev(1, 99, 0, 7, false));
        events
    }

    #[test]
    fn shard_of_partitions_the_key_space() {
        assert_eq!(shard_of(0xdead, 3, 1), 0);
        for shards in [2usize, 4, 8] {
            let mut seen = vec![0u32; shards];
            for site in 0..256u64 {
                for branch in 0..4u32 {
                    let s = shard_of(site, branch, shards);
                    assert!(s < shards);
                    assert_eq!(s, shard_of(site, branch, shards), "stable");
                    seen[s] += 1;
                }
            }
            // The key hash spreads 1024 keys well enough that no shard
            // starves.
            assert!(seen.iter().all(|&n| n > 0), "{shards} shards: {seen:?}");
        }
    }

    #[test]
    fn per_shard_capacity_splits_with_a_floor() {
        assert_eq!(per_shard_capacity(1 << 14, 1), 1 << 14);
        assert_eq!(per_shard_capacity(1 << 14, 4), 4096);
        assert_eq!(per_shard_capacity(1 << 14, 32), 1024);
        assert_eq!(per_shard_capacity(4, 2), 4, "small budgets are not split");
        assert_eq!(per_shard_capacity(0, 4), 1);
    }

    /// The headline determinism claim: any shard count produces exactly the
    /// verdict (violations *and* full provenance reports) of the flat
    /// monitor.
    #[test]
    fn any_shard_count_matches_the_flat_verdict() {
        let nthreads = 4u32;
        let events = mixed_stream(nthreads);
        let flat = {
            let mut m = ShardedMonitor::new(checks(), nthreads as usize, 1);
            for &e in &events {
                m.process(e);
            }
            m.flush();
            m.into_verdict()
        };
        assert_eq!(flat.violations.len(), 9, "8 eager + 1 flush-time");
        for shards in [2usize, 3, 4, 8] {
            let mut m = ShardedMonitor::new(checks(), nthreads as usize, shards);
            for &e in &events {
                m.process(e);
            }
            m.flush();
            let sharded = m.into_verdict();
            assert_eq!(sharded.violations, flat.violations, "{shards} shards");
            assert_eq!(
                sharded.violation_reports, flat.violation_reports,
                "{shards} shards: reports must be byte-identical"
            );
            assert_eq!(sharded.events_processed, flat.events_processed);
        }
    }

    /// A batch ends where the same events one at a time end, at any shard
    /// count and batch size, and `flagged` gets the tag of exactly the
    /// events after which a violation was found.
    #[test]
    fn a_batch_is_its_events_one_at_a_time() {
        let events = mixed_stream(4);
        let found = |m: &ShardedMonitor| m.monitors.iter().map(|m| m.violations().len()).sum();
        let tagged: Vec<(BranchEvent, usize)> = events.iter().copied().zip(0..).collect();
        for shards in [1usize, 3, 4] {
            let mut single = ShardedMonitor::new(checks(), 4, shards);
            let mut raised = Vec::new();
            for (i, &event) in events.iter().enumerate() {
                let before: usize = found(&single);
                single.process(event);
                if found(&single) > before {
                    raised.push(i);
                }
            }
            assert_eq!(raised.len(), 8, "the eager violations");
            single.flush();
            let single = single.into_verdict();
            for size in [1, 7, 256, events.len()] {
                let mut batched = ShardedMonitor::new(checks(), 4, shards);
                let mut flagged = Vec::new();
                for chunk in tagged.chunks(size) {
                    batched.process_batch(chunk, |_, i| flagged.push(i));
                }
                let what = format!("{shards} shards, batches of {size}");
                assert_eq!(flagged, raised, "{what}");
                batched.flush();
                let batched = batched.into_verdict();
                assert_eq!(batched.violations, single.violations, "{what}");
                assert_eq!(batched.violation_reports, single.violation_reports, "{what}");
                assert_eq!(batched.events_processed, single.events_processed, "{what}");
                assert_eq!(batched.telemetry, single.telemetry, "{what}");
            }
        }
    }

    /// A key that recurs — as from a sender truncating `iter` — can be
    /// flagged many times: here `rounds` completed three-reporter instances
    /// with a lying witness at each of three sites, then a reopened
    /// instance whose two reporters disagree on the witness, caught at the
    /// flush. Those violations share `(site, branch, iter, kind)`; the lists
    /// must still be in lockstep, and read the same at any shard count.
    #[test]
    fn recurring_keys_keep_violations_and_reports_in_lockstep() {
        for rounds in [25u32, 40] {
            let verdict = |shards| {
                let mut m = ShardedMonitor::new(checks(), 3, shards);
                for site in 0..3 {
                    for round in 0..rounds {
                        for t in 0..3 {
                            let witness = if t == round % 3 { 0xbad } else { 7 };
                            m.process(ev(t, site, 0, witness, true));
                        }
                    }
                    m.process(ev(0, site, 0, 7, true));
                    m.process(ev(1, site, 0, 8, true));
                }
                m.flush();
                m.into_verdict()
            };
            let flat = verdict(1);
            assert_eq!(flat.violations.len(), 3 * (rounds as usize + 1));
            for shards in [1, 2, 4] {
                let v = verdict(shards);
                let what = format!("{shards} shards, {rounds} rounds");
                let reported: Vec<Violation> =
                    v.violation_reports.iter().map(|r| r.violation).collect();
                assert_eq!(reported, v.violations, "{what}: lockstep");
                assert_eq!(v.violations, flat.violations, "{what}");
                assert_eq!(v.violation_reports, flat.violation_reports, "{what}");
            }
        }
    }

    /// The threaded pipeline end to end: concurrent producers, batch
    /// drains, merged verdict.
    #[test]
    fn threaded_shards_detect_and_merge() {
        use crate::monitor::EventSender;
        use crate::spsc::spsc_queue;
        let nthreads = 4usize;
        let shards = 4usize;
        let mut shard_queues: Vec<Vec<Consumer<BranchEvent>>> =
            (0..shards).map(|_| Vec::new()).collect();
        let mut senders = Vec::new();
        for _ in 0..nthreads {
            let mut producers = Vec::new();
            for qs in shard_queues.iter_mut() {
                let (p, c) = spsc_queue(1024);
                producers.push(p);
                qs.push(c);
            }
            senders.push(EventSender::fanned(producers));
        }
        let monitor = ShardedMonitorThread::spawn(checks(), nthreads, shard_queues);
        let handles: Vec<_> = senders
            .into_iter()
            .enumerate()
            .map(|(t, mut sender)| {
                std::thread::spawn(move || {
                    for site in 0..16u64 {
                        for iter in 0..50u64 {
                            // Thread 2 lies at site 9, iteration 25.
                            let lie = t == 2 && site == 9 && iter == 25;
                            let witness = if lie { 999 } else { iter };
                            sender.send(ev(t as u32, site, iter, witness, true));
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let verdict = monitor.join();
        assert_eq!(verdict.events_processed, 4 * 16 * 50);
        assert_eq!(verdict.violations.len(), 1);
        assert_eq!(verdict.violations[0].site, 9);
        assert_eq!(verdict.violations[0].iter, 25);
    }
}
