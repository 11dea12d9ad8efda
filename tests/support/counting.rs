//! The counting global allocator every allocation gate shares, and the
//! ledger line each budget prints.
//!
//! A gate includes this file as a module (`#[path]`), which installs the
//! allocator for its whole test binary. Counts are per thread, so the test
//! harness's own threads, and any thread a measured call spawns, do not
//! show. [`gate`] prints `ledger: <name> <value> (budget <budget>)` before
//! it asserts; `scripts/ci.sh ledger` collects those lines from every gate.
#![allow(dead_code)] // a gate uses the part it needs

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Display;
use std::hint::black_box;

thread_local! {
    /// Allocations and reallocations this thread has made.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread has allocated and not freed.
    static LIVE: Cell<u64> = const { Cell::new(0) };
    /// The most `LIVE` has been since `peak_bytes` last reset it.
    static PEAK: Cell<u64> = const { Cell::new(0) };
}

/// Books one allocation or reallocation that resized a block from `old`
/// bytes to `new`.
fn allocated(old: usize, new: usize) {
    // `try_with`: an allocation during thread teardown is simply not counted.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    resized(old, new);
}

fn resized(old: usize, new: usize) {
    let _ = LIVE.try_with(|live| {
        // Saturating: a block another thread allocated may be freed here.
        live.set((live.get() + new as u64).saturating_sub(old as u64));
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are `const`-initialised
// thread-local `Cell<u64>`s (no lazy initialiser, no destructor), so
// touching them neither allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        allocated(0, layout.size());
        // SAFETY: the caller's obligations are `System.alloc`'s own.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        allocated(0, layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        allocated(layout.size(), new_size);
        // SAFETY: `ptr` came from this allocator, that is from `System`,
        // with `layout`; the caller guarantees the rest.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        resized(layout.size(), 0);
        // SAFETY: `ptr` came from `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations the calling thread makes while `work` runs.
pub fn allocations<R>(work: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.with(Cell::get);
    let result = work();
    (ALLOCATIONS.with(Cell::get) - before, result)
}

/// The most heap the calling thread held while `work` ran, above what it
/// held before.
pub fn peak_bytes<R>(work: impl FnOnce() -> R) -> (u64, R) {
    let before = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(before));
    let result = work();
    (PEAK.with(Cell::get) - before, result)
}

/// Prints `value` beside its `budget` as one ledger line, then fails if
/// `value` is over it. A count prints as an integer, a ratio to three
/// decimals.
pub fn gate<T: PartialOrd + Display>(name: &str, value: T, budget: T) {
    println!("ledger: {name} {value:.3} (budget {budget})");
    assert!(value <= budget, "{name}: {value:.3} is over its budget of {budget}");
}

/// Every budget is an upper bound, so a counter that stopped counting would
/// pass them all; this one must see a box, a reallocation and a mebibyte.
#[test]
fn the_counters_see_a_box_a_reallocation_and_a_mebibyte() {
    let (n, _) = allocations(|| black_box(Box::new(7u64)));
    assert_eq!(n, 1, "one `Box` is one allocation");

    let mut grown = black_box(Vec::<u64>::with_capacity(1));
    grown.push(1);
    let (n, ()) = allocations(|| black_box(&mut grown).push(2));
    assert_eq!(n, 1, "growing a full `Vec` reallocates it once");

    let (peak, ()) = peak_bytes(|| drop(black_box(vec![1u8; 1 << 20])));
    assert!(peak >= 1 << 20, "a 1 MiB buffer peaked at {peak} bytes");
}
