//! A batch is the events one at a time: `Monitor::process_batch`, which
//! the threaded drain hands every batch it pops, must leave a monitor
//! exactly where `Monitor::process` called once per event leaves it.
//!
//! The streams are the seven ports' captured 4-thread streams at
//! `Size::Test`, each clean and again with one direction bit flipped (the
//! negative control `monitor-replay` runs too), fed in batches of 1, 7,
//! 256 (the drain's batch) and the whole stream. Compared are the
//! instances pending before the closing flush and, after it, the
//! violations, the reports (window, `detected_seq`, pending depth), the
//! event count and the telemetry. A batcher that swaps the last two events
//! of each batch must be told apart where the order shows.

use std::collections::HashMap;

use bw_analysis::CheckKind;
use bw_monitor::{BranchEvent, CheckTable, Monitor};
use bw_splash::{Benchmark, Size};
use bw_vm::{Engine, ExecConfig, ProgramImage, SimEngine};

/// Batch sizes: none, small and odd, the drain's, and the whole stream.
const CHUNKS: [usize; 4] = [1, 7, 256, usize::MAX];

/// A port's branch events at `Size::Test`, four threads, and its checks.
fn captured(bench: Benchmark) -> (CheckTable, Vec<BranchEvent>) {
    let image = ProgramImage::prepare_default(bench.module(Size::Test).expect("port compiles"));
    let result = SimEngine.run(&image, &ExecConfig::new(4).capture_events(true));
    (CheckTable::from_plan(&image.plan), result.branch_events)
}

/// The stream with the direction bit of one event flipped: the first event
/// of an instance at least one other thread reports too whose flip the
/// monitor flags (on a `shared` branch the first such event; a port with
/// none, ocean-noncontig, needs a flip its grouping or thread-ID check
/// catches).
fn flipped(checks: &CheckTable, events: &[BranchEvent]) -> Option<Vec<BranchEvent>> {
    let mut reporters: HashMap<(u32, u64, u64), u32> = HashMap::new();
    for e in events {
        *reporters.entry((e.branch, e.site, e.iter)).or_default() += 1;
    }
    let shared = |i: &usize| checks.kind(events[*i].branch) == Some(CheckKind::SharedUniform);
    let mut candidates: Vec<usize> = (0..events.len())
        .filter(|&i| {
            let e = &events[i];
            checks.kind(e.branch).is_some() && reporters[&(e.branch, e.site, e.iter)] >= 2
        })
        .collect();
    // Stable: `shared` events first, each group in stream order.
    candidates.sort_by_key(|i| !shared(i));
    candidates.into_iter().take(64).find_map(|victim| {
        let mut corrupt = events.to_vec();
        corrupt[victim].taken = !corrupt[victim].taken;
        replay(checks, &corrupt, one_at_a_time)
            .0
            .detected()
            .then_some(corrupt)
    })
}

/// Feeds `events` to a fresh monitor through `feed`, flushes it, and
/// returns it with the instances that were pending before the flush.
fn replay(
    checks: &CheckTable,
    events: &[BranchEvent],
    feed: impl FnOnce(&mut Monitor, &[BranchEvent]),
) -> (Monitor, usize) {
    let mut monitor = Monitor::new(checks.clone(), 4);
    feed(&mut monitor, events);
    let pending = monitor.pending_instances();
    monitor.flush();
    (monitor, pending)
}

/// Feeds `events` in batches of `chunk`, each batch through `batch`.
fn batched(
    chunk: usize,
    batch: impl Fn(&mut Monitor, &[BranchEvent]),
) -> impl FnOnce(&mut Monitor, &[BranchEvent]) {
    move |monitor, events| {
        for part in events.chunks(chunk) {
            batch(monitor, part);
        }
    }
}

/// Where two monitors' ends differ, if they do.
fn difference(got: &(Monitor, usize), want: &(Monitor, usize)) -> Option<&'static str> {
    let ((got, got_pending), (want, want_pending)) = (got, want);
    if got_pending != want_pending {
        Some("pending instances")
    } else if got.violations() != want.violations() {
        Some("violations")
    } else if got.violation_reports() != want.violation_reports() {
        Some("violation reports")
    } else if got.events_processed() != want.events_processed() {
        Some("events processed")
    } else if got.telemetry() != want.telemetry() {
        Some("telemetry")
    } else {
        None
    }
}

/// Every port's stream, clean and with its flipped bit, with a name.
fn streams() -> Vec<(String, CheckTable, Vec<BranchEvent>)> {
    let mut out = Vec::new();
    for bench in Benchmark::ALL {
        let (checks, events) = captured(bench);
        assert!(!events.is_empty(), "{}", bench.name());
        let corrupt = flipped(&checks, &events)
            .unwrap_or_else(|| panic!("{}: no flip the monitor flags", bench.name()));
        out.push((format!("{} flipped", bench.name()), checks.clone(), corrupt));
        out.push((bench.name().to_string(), checks, events));
    }
    out
}

fn one_at_a_time(monitor: &mut Monitor, events: &[BranchEvent]) {
    for &event in events {
        monitor.process(event);
    }
}

#[test]
fn a_batch_ends_where_one_event_at_a_time_ends() {
    for (name, checks, events) in streams() {
        let want = replay(&checks, &events, one_at_a_time);
        assert_eq!(
            want.0.detected(),
            name.ends_with("flipped"),
            "{name}: only the flipped stream is flagged"
        );
        for chunk in CHUNKS {
            let got = replay(&checks, &events, batched(chunk, Monitor::process_batch));
            assert_eq!(difference(&got, &want), None, "{name}, batches of {chunk}");
        }
    }
}

/// The comparison has teeth: a batcher that processes the last two events
/// of each batch in swapped order is told apart. Most adjacent events
/// belong to different instances, where the order shows nowhere, but on
/// FFT's flipped stream the swap reorders the violating site's reports and
/// on FMM's streams, in batches of two, it moves the pending high water.
#[test]
fn a_batch_with_its_last_two_events_swapped_is_caught() {
    let swapped = |monitor: &mut Monitor, part: &[BranchEvent]| {
        let mut part = part.to_vec();
        let n = part.len();
        if n >= 2 {
            part.swap(n - 2, n - 1);
        }
        monitor.process_batch(&part);
    };
    let mut caught = Vec::new();
    for (name, checks, events) in streams() {
        let want = replay(&checks, &events, one_at_a_time);
        for chunk in [2, 7, 256, usize::MAX] {
            if let Some(what) =
                difference(&replay(&checks, &events, batched(chunk, swapped)), &want)
            {
                caught.push((name.clone(), what));
            }
        }
    }
    let seen = |name: &str, what: &str| caught.iter().any(|(n, w)| n == name && *w == what);
    assert!(seen("FFT flipped", "violation reports"), "{caught:?}");
    assert!(
        seen("FMM", "telemetry") && seen("FMM flipped", "telemetry"),
        "{caught:?}"
    );
}
