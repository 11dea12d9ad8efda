//! The allocation budget of the monitor's back-end.
//!
//! The back-end allocates for its arenas and indexes as they double, never
//! per key: replaying a real stream costs a few dozen allocations, a
//! stream twice as long a handful more, a stream that has reached its
//! working set none, and building a monitor nothing. A counting global
//! allocator measures it; counts are per thread, so the test harness's own
//! threads do not show.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bw_analysis::CheckKind;
use bw_monitor::{BranchEvent, CheckTable, Monitor};
use bw_splash::{Benchmark, Size};
use bw_vm::{Engine, ExecConfig, ProgramImage, SimEngine};

thread_local! {
    /// Allocations and reallocations this thread has made.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count() {
    // `try_with`: an allocation during thread teardown is simply not counted.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a `const`-initialised
// thread-local `Cell<u64>` (no lazy initialiser, no destructor), so touching
// it neither allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's obligations are `System.alloc`'s own.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from this allocator, that is from `System`,
        // with `layout`; the caller guarantees the rest.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations the calling thread makes while `work` runs.
fn allocations(work: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    work();
    ALLOCATIONS.with(Cell::get) - before
}

/// Allocations of one monitor's life over `events`: built, fed, flushed,
/// dropped. Returns them with the instances the flush found pending.
fn replay(checks: &CheckTable, events: &[BranchEvent]) -> (u64, usize) {
    let checks = checks.clone(); // the caller's allocation, not the monitor's
    let mut pending = 0;
    let n = allocations(|| {
        let mut monitor = Monitor::new(checks, 4);
        for &event in events {
            monitor.process(event);
        }
        pending = monitor.pending_instances();
        monitor.flush();
        assert!(!monitor.detected());
    });
    (n, pending)
}

/// FMM at `Size::Test`: 51,541 events over 19,867 sites and 36,830
/// instances, 35,041 of them still pending at the flush. The two-level
/// table allocated for every one of those instances and twice per site —
/// more than 75,000 times.
#[test]
fn a_real_stream_costs_a_logarithmic_number_of_allocations() {
    let image =
        ProgramImage::prepare_default(Benchmark::Fmm.module(Size::Test).expect("port compiles"));
    let events = SimEngine.run(&image, &ExecConfig::new(4).capture_events(true)).branch_events;
    let checks = CheckTable::from_plan(&image.plan);
    assert!(events.len() > 50_000, "{} events", events.len());

    let (once, pending) = replay(&checks, &events);
    println!("{} events, {pending} pending at flush: {once} allocations", events.len());
    assert!(pending > 30_000, "the stream leaves most instances for the flush: {pending}");
    assert!(once <= 200, "{once} allocations for {} events", events.len());

    // The same stream followed by a copy of itself at other sites: twice
    // the sites, instances, reports and ring entries — and one more
    // doubling of each arena and index, not twice the allocations.
    let mut twice = events.clone();
    twice.extend(events.iter().map(|e| BranchEvent { site: e.site ^ 0x5bd1_e995_0000_0001, ..*e }));
    let (doubled, pending_doubled) = replay(&checks, &twice);
    assert_eq!(pending_doubled, 2 * pending);
    assert!(doubled <= once + 16, "{once} allocations grew to {doubled} on doubling the stream");
}

/// A stream whose instances all complete reaches a fixed working set —
/// rows and report nodes come off the free lists, full rings overwrite
/// themselves — and from then on allocates nothing at all.
#[test]
fn steady_state_allocates_nothing() {
    let checks = CheckTable::from_kinds(vec![Some(CheckKind::SharedUniform)]);
    let mut monitor = Monitor::new(checks, 4);
    let rounds = |monitor: &mut Monitor, iters: std::ops::Range<u64>| {
        allocations(|| {
            for iter in iters {
                for site in 0..500u64 {
                    for thread in 0..4 {
                        let witness = iter;
                        monitor.process(BranchEvent { branch: 0, thread, site, iter, witness, taken: true });
                    }
                }
            }
        })
    };
    let warm_up = rounds(&mut monitor, 0..8); // 32 reports a site: rings (16) full
    assert!(warm_up > 0);
    assert_eq!(rounds(&mut monitor, 8..60), 0, "steady state");
    assert_eq!(allocations(|| assert_eq!(monitor.flush(), 0)), 0, "a flush with nothing pending");
    assert!(!monitor.detected());
}

/// `Monitor::new` is O(1) whatever it is sized for — the fuzz oracle
/// builds thousands of tiny monitors — and owns nothing to free when
/// dropped unused.
#[test]
fn building_a_monitor_allocates_nothing() {
    for nthreads in [1, 4, 32, 10_000] {
        let checks = CheckTable::from_kinds(vec![Some(CheckKind::SharedUniform); 64]);
        assert_eq!(allocations(|| drop(Monitor::new(checks, nthreads))), 0, "{nthreads} threads");
    }
}
