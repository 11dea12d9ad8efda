//! The allocation budget of the fuzz oracle.
//!
//! `check_image` makes 32 short simulated runs per generated program at
//! `DEFAULT_THREADS` (monitored, repeat, unmonitored and traced, then
//! shards 1/2/4/8, per thread count), ~580 steps and ~47 events each over
//! seeds 0–599. What such a run allocates is its set-up and its result, so
//! a per-run cost that is not the program's own — a metric name, a cloned
//! snapshot, a map node per instance — shows here as a multiple of itself.
//! A counting global allocator measures it; counts are per thread, so the
//! test harness's own threads do not show.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bw_gen::{check_image, generate_module, GenConfig, DEFAULT_THREADS};
use bw_vm::ProgramImage;

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
fn allocations<R>(work: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.with(Cell::get);
    let result = work();
    (ALLOCATIONS.with(Cell::get) - before, result)
}

#[test]
fn an_oracle_run_allocates_for_its_setup_and_its_result_only() {
    let gen = GenConfig::default();
    let images: Vec<(u64, ProgramImage)> = (0..600u64)
        .map(|seed| {
            (
                seed,
                ProgramImage::prepare_default(generate_module(seed, &gen)),
            )
        })
        .collect();
    // The process's first runs register the live metrics sources.
    check_image(&images[0].1, &DEFAULT_THREADS, 0).expect("seed 0 passes");
    let (mut allocated, mut runs) = (0, 0);
    for (seed, image) in &images {
        let (n, stats) = allocations(|| check_image(image, &DEFAULT_THREADS, *seed));
        let stats = stats.unwrap_or_else(|e| panic!("seed {seed:#x}: {e}"));
        allocated += n;
        runs += stats.runs;
    }
    let per_run = allocated as f64 / runs as f64;
    println!("{allocated} allocations in {runs} oracle runs: {per_run:.1} a run");
    assert_eq!(
        runs,
        600 * 32,
        "eight runs per thread count, four thread counts"
    );
    // Measured: 80.4 a run. It was 201.7 while every run named its ~30
    // metrics (the sharded ones more), the reproducibility gates compared
    // two cloned snapshots and the pattern check kept a map node and a
    // `Vec` per instance.
    assert!(per_run <= 85.0, "{per_run:.1} allocations per oracle run");
}
