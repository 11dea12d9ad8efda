//! The allocation budget of the trace read path.
//!
//! A record borrows its keys and strings from the trace text, so reading
//! one costs exactly one allocation — its field `Vec`, moved out of the
//! buffer every line is parsed into — and decoding it none: a view copies
//! a name the first time it sees it and keeps the records it keeps, and
//! allocates for nothing else. The shared counting allocator measures it
//! on the campaign fixture (1,413 records of about 14 fields, no escapes).
//! Before the reader borrowed, every key and every string value was a
//! `String` of its own: some 20 allocations a record.

#[path = "support/counting.rs"]
mod counting;

use std::path::Path;

use blockwatch::telemetry::records;
use blockwatch::{ForensicsReport, TraceSummary};
use counting::{allocations, gate};

fn fixture() -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/campaign.jsonl");
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Allocations of one walk over the records of `trace`, and the records.
fn read(trace: &str) -> (u64, u64) {
    allocations(|| {
        let mut n = 0;
        for rec in records(trace) {
            std::hint::black_box(rec.expect("the fixture parses"));
            n += 1;
        }
        n
    })
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
    gate("trace.read", allocated, n + BUFFER_GROWTH);
    // Twice the records, twice the allocations: none per field or key.
    let (doubled, _) = read(&trace.repeat(2));
    gate("trace.read_doubled", doubled, 2 * n + BUFFER_GROWTH);
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
    let (stats, summary) = allocations(|| TraceSummary::parse(&trace).unwrap());
    let stats = stats - reading;
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
    gate("trace.stats_view", stats, budget);

    // `bw report`: the injections and violations it keeps grown by
    // doubling, the buckets of the histogram records it drops.
    let (forensics, report) = allocations(|| ForensicsReport::parse(&trace).unwrap());
    let forensics = forensics - reading;
    let kept = doublings(report.injections.len()) + doublings(report.violations.len());
    let budget = kept + histograms;
    gate("trace.report_view", forensics, budget);

    // Neither comes near one a record: together under a tenth of one.
    gate("trace.views", stats + forensics, n / 10 - 1);
}
