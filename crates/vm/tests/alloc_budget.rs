//! The allocation budget of a simulated run.
//!
//! The stepper keeps one register stack and one loop stack per thread and
//! moves a frame's window on them: a call, a return, a control transfer
//! and a phi copy allocate nothing. What a run allocates is its set-up
//! (shared memory, one state per thread, the scheduler's tables, the cost
//! tables), the growth of those two stacks and of each thread's `outputs`
//! as they double, and its result. None of that is per step, and none of
//! it is a metric name: a result keeps its instruments as numbers and names
//! them only when `RunResult::telemetry` is asked. A counting global allocator measures it; counts
//! are per thread, so the test harness's own threads do not show.
//!
//! The parent commit allocated a `Vec` for every transfer into a block with
//! phis, two for every call, and a loop stack per frame that entered a
//! loop: tens of thousands of times in the run below.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bw_splash::{Benchmark, Size};
use bw_vm::{Engine, ExecConfig, MonitorMode, ProgramImage, RunOutcome, SimEngine};

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

/// Allocations of one run of raytrace at `size` under `config`, with the
/// steps it took.
fn run_with(size: Size, config: &ExecConfig) -> (u64, u64) {
    let image =
        ProgramImage::prepare_default(Benchmark::Raytrace.module(size).expect("port compiles"));
    let mut steps = 0;
    let n = allocations(|| {
        let result = SimEngine.run(&image, config);
        assert_eq!(result.outcome, RunOutcome::Completed);
        steps = result.total_steps;
    });
    (n, steps)
}

/// Allocations of one monitor-off run of raytrace at `size`, with the
/// steps it took.
fn run(size: Size) -> (u64, u64) {
    run_with(size, &ExecConfig::new(4).monitor(MonitorMode::Off))
}

#[test]
fn a_run_allocates_for_its_setup_and_its_stacks_only() {
    run(Size::Test); // the process's first run registers the live metrics source
    let (test, test_steps) = run(Size::Test);
    let (small, small_steps) = run(Size::Small);
    println!("Size::Test: {test} allocations in {test_steps} steps");
    println!("Size::Small: {small} allocations in {small_steps} steps");
    assert!(test_steps > 200_000, "{test_steps} steps");
    // Measured: 76 at either size (set-up, the stacks' and outputs' few
    // doublings, the result); 98 while a result named its ~20 `vm.*`
    // metrics. The tree-walking stepper the decoded one replaced made
    // 38,110 and 79,603.
    assert!(test <= 200, "{test} allocations in {test_steps} steps");
    // More than twice the work on the same program: a few more doublings.
    assert!(small_steps > 2 * test_steps, "{small_steps} vs {test_steps} steps");
    assert!(small <= test + 16, "{test} allocations grew to {small} with the work");
}

/// A monitored run adds the monitor's tables and its verdict, and with
/// four shards four of each; the result keeps the instruments as numbers,
/// so neither names a metric.
#[test]
fn a_monitored_run_allocates_no_metric_name() {
    run(Size::Test); // the process's first run registers the live metrics source
    let config = ExecConfig::new(4);
    let (flat, _) = run_with(Size::Test, &config);
    let (sharded, _) = run_with(Size::Test, &config.clone().monitor_shards(Some(4)));
    println!("monitored: {flat} allocations, 4 shards: {sharded}");
    // Measured: 115 and 188. A result that named its metrics made 180 and
    // 325: the ~20 `vm.*` names, twelve `monitor.*` names per shard and
    // their merge, and three `monitor.shard.<i>.*` names per shard.
    assert!(flat <= 120, "{flat} allocations, monitored");
    assert!(sharded <= 197, "{sharded} allocations, 4 shards");
}
