//! The allocation budget of the trace read path.
//!
//! A record borrows its keys and strings from the trace text, so reading
//! one costs exactly one allocation — its field `Vec`, moved out of the
//! buffer every line is parsed into — and decoding it none: a view copies
//! a name the first time it sees it and keeps the records it keeps, and
//! allocates for nothing else. A counting global allocator measures it on
//! the campaign fixture (1,413 records of about 14 fields, no escapes);
//! counts are per thread, so the test harness's own threads do not show.
//! Before the reader borrowed, every key and every string value was a
//! `String` of its own: some 20 allocations a record.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::Path;

use blockwatch::telemetry::records;
use blockwatch::{ForensicsReport, TraceSummary};

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

fn fixture() -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/campaign.jsonl");
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Allocations of one walk over the records of `trace`, and the records.
fn read(trace: &str) -> (u64, u64) {
    let mut n = 0;
    let allocated = allocations(|| {
        for rec in records(trace) {
            std::hint::black_box(rec.expect("the fixture parses"));
            n += 1;
        }
    });
    (allocated, n)
}

/// The parse buffer doubles up to the widest record (a violation's 18
/// fields: 4, 8, 16, 32) and is then reused by every line.
const BUFFER_GROWTH: u64 = 4;

#[test]
fn a_record_costs_one_allocation_whatever_its_fields() {
    let trace = fixture();
    let (allocated, n) = read(&trace);
    println!("{n} records: {allocated} allocations");
    assert_eq!(n, 1_413);
    assert!(allocated <= n + BUFFER_GROWTH, "{allocated} allocations for {n} records");
    // Twice the records, twice the allocations: none per field or key.
    let (doubled, _) = read(&trace.repeat(2));
    assert!(doubled <= 2 * n + BUFFER_GROWTH, "{doubled} allocations for {} records", 2 * n);
}

/// How often a `Vec` grows to hold `n` entries: 4, 8, 16, …
fn doublings(n: usize) -> u64 {
    u64::from(usize::BITS - n.leading_zeros())
}

#[test]
fn a_view_allocates_for_the_names_and_records_it_keeps() {
    let trace = fixture();
    let (reading, n) = read(&trace);

    // `bw stats`: one `String` per distinct kind, span name, outcome and
    // metric; each of those lists, the sampled ticks and the workers grown
    // by doubling; a histogram record's buckets; the sort of the longest
    // list. A sampled tick keeps its record's own `Vec`.
    let mut summary = None;
    let stats = allocations(|| summary = Some(TraceSummary::parse(&trace).unwrap())) - reading;
    let summary = summary.unwrap();
    let metrics = &summary.metrics;
    let lists = [
        summary.events.len(),
        summary.spans.len(),
        summary.injections.len(),
        metrics.counters().len(),
        metrics.gauges().len(),
        metrics.histograms().len(),
        summary.series.ticks.len(),
        summary.workers.len(),
    ];
    let names: usize = lists[..6].iter().sum();
    let histograms = summary.events.iter().find(|(ev, _)| ev == "histogram").map_or(0, |e| e.1);
    let budget = names as u64 + lists.into_iter().map(doublings).sum::<u64>() + histograms + 1;
    println!("stats: {stats} allocations past the reader's (budget {budget})");
    assert!(stats <= budget, "`TraceSummary::parse`: {stats} past the reader, budget {budget}");

    // `bw report`: the injections and violations it keeps grown by
    // doubling, the buckets of the histogram records it drops.
    let mut report = None;
    let forensics =
        allocations(|| report = Some(ForensicsReport::parse(&trace).unwrap())) - reading;
    let report = report.unwrap();
    let kept = doublings(report.injections.len()) + doublings(report.violations.len());
    let budget = kept + histograms;
    println!("report: {forensics} allocations past the reader's (budget {budget})");
    let said = format!("`ForensicsReport::parse`: {forensics} past the reader, budget {budget}");
    assert!(forensics <= budget, "{said}");

    // Neither comes near one a record.
    assert!(stats + forensics < n / 10, "{stats} + {forensics} allocations for {n} records");
}
