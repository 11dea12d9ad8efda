//! The allocation and memory budget of the monitor's back-end.
//!
//! The back-end allocates for its arenas and indexes as they double, never
//! per key: replaying a real stream costs a few dozen allocations, a
//! stream twice as long a handful more, a stream that has reached its
//! working set none, and building a monitor nothing. What it holds is
//! pinned too, as the peak of live heap bytes per event of a real stream:
//! the instance table, one report node per event, and the site histories
//! of the instances that completed — no per-event evidence. The shared
//! counting allocator measures both.

#[path = "../../../tests/support/counting.rs"]
mod counting;

use bw_analysis::CheckKind;
use bw_monitor::{BranchEvent, CheckTable, Monitor};
use bw_splash::{Benchmark, Size};
use bw_vm::{Engine, ExecConfig, ProgramImage, SimEngine};
use counting::{allocations, gate, peak_bytes};

/// One monitor's life over `events`: built, fed, flushed, dropped.
struct Replay {
    allocations: u64,
    peak_bytes: u64,
    /// Instances the flush found pending.
    pending: usize,
}

fn replay(checks: &CheckTable, events: &[BranchEvent]) -> Replay {
    let checks = checks.clone(); // the caller's allocation, not the monitor's
    let (allocations, (peak_bytes, pending)) = allocations(|| {
        peak_bytes(|| {
            let mut monitor = Monitor::new(checks, 4);
            for &event in events {
                monitor.process(event);
            }
            let pending = monitor.pending_instances();
            monitor.flush();
            assert!(!monitor.detected());
            pending
        })
    });
    Replay { allocations, peak_bytes, pending }
}

/// A port's branch events at `Size::Test`, four threads, and its checks.
fn captured(bench: Benchmark) -> (CheckTable, Vec<BranchEvent>) {
    let image = ProgramImage::prepare_default(bench.module(Size::Test).expect("port compiles"));
    let events = SimEngine.run(&image, &ExecConfig::new(4).capture_events(true)).branch_events;
    (CheckTable::from_plan(&image.plan), events)
}

/// FMM at `Size::Test`: 51,541 events over 19,867 sites and 36,830
/// instances, 35,041 of them still pending at the flush. The two-level
/// table allocated for every one of those instances and twice per site —
/// more than 75,000 times.
#[test]
fn a_real_stream_costs_a_logarithmic_number_of_allocations() {
    let (checks, events) = captured(Benchmark::Fmm);
    assert!(events.len() > 50_000, "{} events", events.len());

    let once = replay(&checks, &events);
    let n = events.len();
    println!("{n} events, {} pending at flush: {} allocations", once.pending, once.allocations);
    assert!(once.pending > 30_000, "most instances are left for the flush: {}", once.pending);
    // Measured: 69. The budget is 1.3x that, so a stream that allocates
    // half as much again fails.
    gate("monitor.fmm.stream", once.allocations, 90);

    // The same stream followed by a copy of itself at other sites: twice
    // the sites, instances, reports and history entries — and one more
    // doubling of each arena and index, not twice the allocations.
    let mut twice = events.clone();
    twice.extend(events.iter().map(|e| BranchEvent { site: e.site ^ 0x5bd1_e995_0000_0001, ..*e }));
    let doubled = replay(&checks, &twice);
    assert_eq!(doubled.pending, 2 * once.pending);
    gate("monitor.fmm.stream_doubled", doubled.allocations, once.allocations + 16);
}

/// The peak of live heap bytes per event over one monitor's life. FMM
/// leaves most instances pending, so it reads the instance table: its
/// index, a 24-byte row per instance and a 24-byte report node (witness,
/// arrival stamp, thread, link) per event, with arenas at the next power
/// of two — 71.6 B/event — plus the site histories of the few instances
/// that completed. Water completes nearly every instance, so its reports
/// outlive their instances in the histories (39.2 B/event). A per-event
/// evidence write that comes back — the ring the site table used to keep,
/// 24 bytes an event plus a 32-byte site row per `(branch, site)`, when
/// FMM read 111.9 — breaks the budget.
#[test]
fn a_real_stream_stays_within_its_bytes_budget() {
    for (name, bench, budget) in
        [("fmm", Benchmark::Fmm, 75.0), ("water-nsquared", Benchmark::WaterNsquared, 45.0)]
    {
        let (checks, events) = captured(bench);
        let run = replay(&checks, &events);
        let per_event = run.peak_bytes as f64 / events.len() as f64;
        let (n, peak) = (events.len(), run.peak_bytes);
        println!("{name}: {n} events, peak {peak} bytes, {per_event:.1} B/event");
        gate(&format!("monitor.{name}.bytes_per_event"), per_event, budget);
    }
}

/// A stream whose instances all complete reaches a fixed working set —
/// rows and report nodes come off the free lists, full site histories
/// evict their oldest entries onto them — and from then on allocates
/// nothing at all.
#[test]
fn steady_state_allocates_nothing() {
    steady_state("monitor.steady", |monitor, events| {
        for &event in events {
            monitor.process(event);
        }
    });
}

/// The same through `Monitor::process_batch`, in the threaded drain's
/// batches of 256: the lookahead allocates nothing either.
#[test]
fn steady_state_allocates_nothing_in_batches() {
    steady_state("monitor.steady_batched", |monitor, events| {
        for batch in events.chunks(256) {
            monitor.process_batch(batch);
        }
    });
}

/// Feeds rounds of complete instances at 500 sites through `feed`: the
/// warm-up allocates, the rounds after it and a flush with nothing
/// pending do not. Each round's events are built before counting starts.
/// The two budgets are `<name>` and `<name>.flush` in the ledger.
fn steady_state(name: &str, feed: impl Fn(&mut Monitor, &[BranchEvent])) {
    let checks = CheckTable::from_kinds(vec![Some(CheckKind::SharedUniform)]);
    let mut monitor = Monitor::new(checks, 4);
    let rounds = |monitor: &mut Monitor, iters: std::ops::Range<u64>| {
        let mut events = Vec::new();
        for iter in iters {
            for site in 0..500u64 {
                for thread in 0..4 {
                    let witness = iter;
                    events.push(BranchEvent { branch: 0, thread, site, iter, witness, taken: true });
                }
            }
        }
        allocations(|| feed(monitor, &events)).0
    };
    // 64 reports a site: each history (capacity 16) has compacted once.
    let warm_up = rounds(&mut monitor, 0..16);
    assert!(warm_up > 0);
    gate(name, rounds(&mut monitor, 16..80), 0);
    let (flush, flushed) = allocations(|| monitor.flush());
    assert_eq!(flushed, 0, "nothing is pending");
    gate(&format!("{name}.flush"), flush, 0);
    assert!(!monitor.detected());
}

/// `Monitor::new` is O(1) whatever it is sized for — the fuzz oracle
/// builds thousands of tiny monitors — and owns nothing to free when
/// dropped unused.
#[test]
fn building_a_monitor_allocates_nothing() {
    let mut most = 0;
    for nthreads in [1, 4, 32, 10_000] {
        let checks = CheckTable::from_kinds(vec![Some(CheckKind::SharedUniform); 64]);
        let (n, ()) = allocations(|| drop(Monitor::new(checks, nthreads)));
        assert_eq!(n, 0, "{nthreads} threads");
        most = most.max(n);
    }
    gate("monitor.new", most, 0);
}
