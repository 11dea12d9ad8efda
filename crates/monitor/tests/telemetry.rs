//! Regression tests for the monitor's telemetry accounting:
//!
//! * queue-occupancy / pending-instance high-water marks are monotone and
//!   consistent with `events_processed`;
//! * flush batch accounting matches what `flush` actually drained;
//! * sender-side drop counts survive the sender (the `EventSender` drop
//!   aggregation bugfix) and surface on the joined monitor, one shard
//!   and several.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bw_analysis::CheckKind;
use bw_monitor::{
    shard_of, spsc_queue, BranchEvent, CheckTable, EventSender, Monitor, ShardedMonitor,
    ShardedMonitorThread,
};

fn checks() -> CheckTable {
    CheckTable::from_kinds(vec![Some(CheckKind::SharedUniform)])
}

fn ev(thread: u32, iter: u64, witness: u64) -> BranchEvent {
    BranchEvent { branch: 0, thread, site: 0, iter, witness, taken: true }
}

/// Feeding a passive monitor event by event, the pending-table high-water
/// gauge never decreases and never exceeds the events processed so far.
#[test]
fn pending_high_water_is_monotone_and_bounded() {
    let nthreads = 4;
    let mut m = Monitor::new(checks(), nthreads);
    let mut last_high_water = 0u64;
    let mut fed = 0u64;
    // Interleave 3 of 4 threads over many instances so the pending table
    // keeps growing: no instance ever completes.
    for iter in 0..50u64 {
        for t in 0..3u32 {
            m.process(ev(t, iter, iter));
            fed += 1;
            let hw = m.telemetry().pending_high_water;
            assert!(hw >= last_high_water, "high water went backwards");
            assert!(hw <= fed, "high water {hw} exceeds events processed {fed}");
            last_high_water = hw;
        }
    }
    assert_eq!(m.events_processed(), fed);
    // Every instance stays pending, so the mark must have reached the
    // full instance count.
    assert_eq!(last_high_water, 50);
    assert_eq!(m.pending_instances(), 50);
}

/// `flush` accounting agrees with what it drained, and drained instances
/// are consistent with `events_processed`.
#[test]
fn flush_batches_match_drained_instances() {
    let nthreads = 4;
    let mut m = Monitor::new(checks(), nthreads);
    // 10 complete instances (checked eagerly, not flushed) …
    for iter in 0..10u64 {
        for t in 0..4u32 {
            m.process(ev(t, iter, 7));
        }
    }
    // … plus 5 partial ones that only flush can resolve.
    for iter in 100..105u64 {
        m.process(ev(0, iter, 7));
        m.process(ev(1, iter, 7));
    }
    let pending_before = m.pending_instances() as u64;
    assert_eq!(pending_before, 5);
    m.flush();
    assert_eq!(m.pending_instances(), 0);
    let t = m.telemetry();
    assert_eq!(t.flush_calls, 1);
    assert_eq!(t.flush_batch_total, pending_before);
    assert_eq!(t.flush_batch_max, pending_before);
    // Flushed instances can never outnumber processed events.
    assert!(t.flush_batch_total <= m.events_processed());
    // A second flush with nothing pending adds an empty batch.
    let total_before = t.flush_batch_total;
    m.flush();
    let t = m.telemetry();
    assert_eq!(t.flush_calls, 2);
    assert_eq!(t.flush_batch_total, total_before);
}

/// The monitor thread's queue high-water mark stays within the physical
/// queue capacity and is consistent with the event totals. Flat ingest is
/// a one-shard [`ShardedMonitorThread`]; explicit queues let the test
/// pre-fill them before any monitor exists.
#[test]
fn queue_high_water_is_bounded_by_capacity() {
    let nthreads = 2;
    let capacity = 64;
    let mut producers = Vec::new();
    let mut consumers = Vec::new();
    for _ in 0..nthreads {
        let (p, c) = spsc_queue(capacity);
        producers.push(EventSender::fanned(vec![p], Vec::new()));
        consumers.push(c);
    }
    // Pre-fill the queues before the monitor exists so the first drain
    // pass observes a known occupancy.
    for (t, sender) in producers.iter_mut().enumerate() {
        for iter in 0..(capacity as u64) {
            sender.send(ev(t as u32, iter, 1));
        }
        assert_eq!(sender.dropped(), 0);
        assert_eq!(sender.sent(), capacity as u64);
    }
    let monitor = ShardedMonitorThread::spawn(
        checks(),
        nthreads,
        vec![consumers],
        vec![Arc::new(AtomicU64::new(0))],
    );
    drop(producers);
    let verdict = monitor.join();
    assert_eq!(verdict.events_processed, (nthreads * capacity) as u64);
    let hw = verdict.telemetry.instruments.queue_high_water;
    assert!(hw <= capacity as u64, "high water {hw} exceeds capacity {capacity}");
    assert!(hw <= verdict.events_processed);
    // The queues were full before the monitor started draining.
    assert_eq!(hw, capacity as u64);
}

/// Per-check-kind violation tallies agree with the violation list, on the
/// monitor and on its verdict.
#[test]
fn violation_tallies_match_violations() {
    let nthreads = 2;
    let mut m = ShardedMonitor::new(checks(), nthreads, 1);
    for iter in 0..8u64 {
        let witness = if iter % 2 == 0 { 1 } else { 2 };
        m.process(ev(0, iter, 1));
        m.process(ev(1, iter, witness)); // odd iters mismatch
    }
    m.flush();
    let verdict = m.into_verdict();
    assert_eq!(verdict.violations.len(), 4);
    assert_eq!(verdict.telemetry.instruments.violations_shared_uniform, 4);
    assert_eq!(verdict.telemetry.violations, 4);
}

/// Bugfix regression: a sender dropped (thread exit) after overflowing its
/// queue must not take its drop count with it — the joined monitor sees it.
#[test]
fn dropped_events_survive_the_sender() {
    let drops = Arc::new(AtomicU64::new(0));
    let (p, c) = spsc_queue(4);
    let mut sender = EventSender::fanned(vec![p], vec![Arc::clone(&drops)]);
    // No consumer is draining yet: capacity 4, so sends 5..=7 must drop
    // after the spin budget.
    for iter in 0..7u64 {
        sender.send(ev(0, iter, 1));
    }
    assert_eq!(sender.sent(), 4);
    assert_eq!(sender.dropped(), 3);
    assert_eq!(drops.load(Ordering::Acquire), 0, "flushed only on drop");
    drop(sender);
    assert_eq!(drops.load(Ordering::Acquire), 3);

    // The one-shard monitor spawned over the same drop sink reports the
    // loss.
    let monitor = ShardedMonitorThread::spawn(checks(), 1, vec![vec![c]], vec![drops]);
    let verdict = monitor.join();
    assert_eq!(verdict.events_dropped, 3);
    assert_eq!(verdict.events_processed, 4);
    assert_eq!(verdict.telemetry.events_dropped, 3);
    assert!(verdict.telemetry.shards.is_empty(), "one shard keeps no per-shard health");
}

/// The same drop-survival guarantee through sharded ingest: each shard's
/// sink collects the drops charged to that shard's queues, the merged
/// verdict sums them, and per-shard counters expose the split.
#[test]
fn dropped_events_survive_the_sender_sharded() {
    let shards = 2usize;
    // One site per shard, found by probing the routing hash the sender
    // itself uses.
    let site_for = |shard: usize| {
        (0u64..).find(|&site| shard_of(site, 0, shards) == shard).expect("some site routes here")
    };
    let shard_drops: Vec<Arc<AtomicU64>> =
        (0..shards).map(|_| Arc::new(AtomicU64::new(0))).collect();
    let mut producers = Vec::new();
    let mut shard_queues = Vec::new();
    for _ in 0..shards {
        let (p, c) = spsc_queue(4);
        producers.push(p);
        shard_queues.push(vec![c]);
    }
    let mut sender =
        EventSender::fanned(producers, shard_drops.iter().map(Arc::clone).collect());
    // No consumer is draining yet: 7 events per shard into capacity-4
    // queues, so each shard drops 3.
    for shard in 0..shards {
        let site = site_for(shard);
        for iter in 0..7u64 {
            sender.send(BranchEvent { branch: 0, thread: 0, site, iter, witness: 1, taken: true });
        }
    }
    assert_eq!(sender.sent(), 8);
    assert_eq!(sender.dropped(), 6);
    assert_eq!(shard_drops[0].load(Ordering::Acquire), 0, "flushed only on drop");
    drop(sender);
    assert_eq!(shard_drops[0].load(Ordering::Acquire), 3);
    assert_eq!(shard_drops[1].load(Ordering::Acquire), 3);

    let monitor = ShardedMonitorThread::spawn(checks(), 1, shard_queues, shard_drops);
    let verdict = monitor.join();
    assert_eq!(verdict.events_dropped, 6);
    assert_eq!(verdict.events_processed, 8);
    assert_eq!(verdict.telemetry.events_dropped, 6);
    let shards = &verdict.telemetry.shards;
    assert_eq!(shards.iter().map(|s| s.events_dropped).collect::<Vec<_>>(), [3, 3]);
    assert_eq!(shards[0].events_processed, 4);
}
