//! The difference monitor against a full monitor.
//!
//! A [`DifferenceMonitor`] continues a full monitor that has processed the
//! first events of a clean golden stream. Wherever it decides a fork —
//! every event taken and [`DifferenceMonitor::settle`] saying yes — its
//! verdict must be the one a full monitor fed the whole run reaches: no
//! violation, and the same instruments. Wherever it gives way, the exact
//! path (a copy of the base, its flush scoped, fed
//! [`DifferenceMonitor::logged`] and the rest of the fork) must reach that
//! verdict too, reports and all. The sweep draws golden streams whose every
//! instance passes its check, cuts each at a random point, perturbs the
//! rest — witnesses and directions changed, reports dropped, repeated or
//! added, keys the golden run lacks — and compares both ways.
//!
//! Mutation check — each of these, applied to `src/golden.rs` and run
//! against this file in the release profile, fails the tests named:
//! * the check of a marked instance leaving out the golden reports the fork
//!   sent it → `a_marked_instance_is_checked_with_its_golden_reports` and
//!   the sweep;
//! * a repeated `(thread, key)` taken as the golden report →
//!   `a_repeated_report_is_not_decided` and the sweep.
//!
//! Aimed at, not yet run: the pending count left alone when an instance
//! completes → the sweep (`pending_high_water`, `flush_batch_*`).

use bw_analysis::{CheckKind, TidCheck};
use bw_monitor::{
    BranchEvent, CheckTable, DifferenceMonitor, GoldenCursor, GoldenProfile, MonitorVerdict,
    ShardedMonitor,
};
use bw_vm::SplitMix64;

fn checks() -> CheckTable {
    CheckTable::from_kinds(vec![
        Some(CheckKind::SharedUniform),
        Some(CheckKind::GroupByWitness),
        Some(CheckKind::ThreadIdPredicate(TidCheck::AtMostOneTaken)),
        None,
    ])
}

fn ev(thread: u32, branch: u32, iter: u64, witness: u64, taken: bool) -> BranchEvent {
    BranchEvent { branch, thread, site: 0, iter, witness, taken }
}

/// A full monitor fed `events`.
fn full(nthreads: usize, events: &[BranchEvent]) -> ShardedMonitor {
    let mut monitor = ShardedMonitor::new(checks(), nthreads, 1);
    events.iter().for_each(|&e| monitor.process(e));
    monitor
}

fn verdict(mut monitor: ShardedMonitor, flush: bool) -> MonitorVerdict {
    if flush {
        monitor.flush();
    }
    monitor.into_verdict()
}

#[track_caller]
fn assert_same(a: &MonitorVerdict, b: &MonitorVerdict, what: &str) {
    assert_eq!(a.violations, b.violations, "violations: {what}");
    assert_eq!(a.violation_reports, b.violation_reports, "reports: {what}");
    assert_eq!(a.events_processed, b.events_processed, "events: {what}");
    assert_eq!(a.telemetry, b.telemetry, "telemetry: {what}");
}

/// A golden stream on `n` threads whose every instance passes its check:
/// each key reported by a random set of threads, in a random interleaving
/// that keeps each thread's reports in key order.
fn golden_stream(rng: &mut SplitMix64, n: u32) -> Vec<BranchEvent> {
    let mut per_thread: Vec<Vec<BranchEvent>> = vec![Vec::new(); n as usize];
    for iter in 0..8 + rng.below(40) as u64 {
        let branch = rng.below(4) as u32;
        let (shared_witness, shared_taken) = (rng.below(3) as u64, rng.below(2) == 0);
        let taker = rng.below(i64::from(n) + 1) as u32;
        for thread in 0..n {
            if rng.below(5) == 0 {
                continue;
            }
            let (witness, taken) = match branch {
                0 => (shared_witness, shared_taken),
                1 => {
                    let group = rng.below(2) as u64;
                    (group, (group == 0) == shared_taken)
                }
                2 => (shared_witness, thread == taker),
                _ => (rng.below(3) as u64, rng.below(2) == 0),
            };
            per_thread[thread as usize].push(ev(thread, branch, iter, witness, taken));
        }
    }
    let mut next = vec![0usize; n as usize];
    let mut stream = Vec::new();
    while let Some(left) = (0..n as usize).filter(|&t| next[t] < per_thread[t].len()).count().checked_sub(1) {
        let pick = rng.below(left as i64 + 1) as usize;
        let t = (0..n as usize).filter(|&t| next[t] < per_thread[t].len()).nth(pick).unwrap();
        stream.push(per_thread[t][next[t]]);
        next[t] += 1;
    }
    stream
}

/// The golden tail with faults: some reports changed, dropped, sent twice,
/// or added — a thread's report the golden key lacks, or a new key; now and
/// then a report the prefix already sent, sent again.
fn perturb(rng: &mut SplitMix64, n: u32, prefix: &[BranchEvent], tail: &[BranchEvent]) -> Vec<BranchEvent> {
    let mut out = Vec::new();
    for &event in tail {
        match rng.below(60) {
            0 => out.push(BranchEvent { witness: event.witness + 1, ..event }),
            1 => out.push(BranchEvent { taken: !event.taken, ..event }),
            2 => {}
            3 => out.extend([event, event]),
            4 => out.extend([event, BranchEvent { thread: rng.below(i64::from(n)) as u32, ..event }]),
            5 => out.extend([event, BranchEvent { iter: 1000 + rng.below(4) as u64, ..event }]),
            6 if !prefix.is_empty() => {
                out.extend([event, prefix[rng.below(prefix.len() as i64) as usize]]);
            }
            _ => out.push(event),
        }
    }
    out
}

#[test]
fn the_difference_monitor_reaches_the_full_monitors_verdict() {
    let mut rng = SplitMix64::new(0x56);
    let (mut decided, mut exact) = (0, 0);
    for case in 0..4000 {
        let n = 1 + rng.below(5) as u32;
        let golden = golden_stream(&mut rng, n);
        let clean = verdict(full(n as usize, &golden), true);
        assert!(clean.violations.is_empty(), "case {case}: the golden stream is flagged");
        let profile = GoldenProfile::new(checks(), n as usize, &golden).expect("no repeats");
        let start = rng.below(golden.len() as i64 + 1) as usize;
        let tail = perturb(&mut rng, n, &golden[..start], &golden[start..]);
        let flush = rng.below(4) != 0;
        let what = format!("case {case}: {n} threads, cut at {start} of {}, flush {flush}", golden.len());

        let mut whole = golden[..start].to_vec();
        whole.extend(&tail);
        let expected = verdict(full(n as usize, &whole), flush);

        let base = full(n as usize, &golden[..start]);
        let mut cursor = GoldenCursor::new(&profile);
        cursor.advance(&profile, start);
        let mut diff = DifferenceMonitor::new(&profile, &cursor, &base).expect("a clean base");
        let taken = tail.iter().take_while(|&&e| diff.receive(e)).count();
        if taken == tail.len() && diff.settle(flush) {
            assert_same(&diff.verdict(&base, flush), &expected, &what);
            decided += 1;
        } else {
            let mut monitor = base.clone();
            monitor.scope_flush();
            diff.logged().for_each(|e| monitor.process(e));
            tail[(taken + 1).min(tail.len())..].iter().for_each(|&e| monitor.process(e));
            assert_same(&verdict(monitor, flush), &expected, &what);
            exact += 1;
        }
    }
    assert!(decided > 1000 && exact > 1000, "{decided} decided, {exact} on the exact path");
}

/// Thread 0's golden report is in the prefix; thread 1 sends another
/// witness; thread 2's golden report completes the instance, which fails
/// on the three reports the fork sent — not on its one delta report alone.
#[test]
fn a_marked_instance_is_checked_with_its_golden_reports() {
    let golden = [ev(0, 0, 0, 5, true), ev(1, 0, 0, 5, true), ev(2, 0, 0, 5, true)];
    let profile = GoldenProfile::new(checks(), 3, &golden).expect("a profile");
    let base = full(3, &golden[..1]);
    let mut cursor = GoldenCursor::new(&profile);
    cursor.advance(&profile, 1);
    let mut diff = DifferenceMonitor::new(&profile, &cursor, &base).expect("a clean base");
    assert!(diff.receive(ev(1, 0, 0, 6, true)), "one delta report decides nothing yet");
    assert!(!diff.receive(ev(2, 0, 0, 5, true)), "the completed instance fails");
    assert_eq!(diff.logged().count(), 2);
}

/// A thread that sends a key again — here the report of the prefix, in the
/// tail — is a report the full monitor drops, which the difference monitor
/// does not decide.
#[test]
fn a_repeated_report_is_not_decided() {
    let golden = [ev(0, 0, 0, 5, true), ev(1, 0, 0, 5, true)];
    let profile = GoldenProfile::new(checks(), 2, &golden).expect("a profile");
    let base = full(2, &golden[..1]);
    let mut cursor = GoldenCursor::new(&profile);
    cursor.advance(&profile, 1);
    let mut diff = DifferenceMonitor::new(&profile, &cursor, &base).expect("a clean base");
    assert!(!diff.receive(golden[0]), "a repeat of the prefix's report");
    let mut diff = DifferenceMonitor::new(&profile, &cursor, &base).expect("a clean base");
    assert!(diff.receive(golden[1]));
    assert!(!diff.receive(golden[1]), "a repeat of the tail's report");
    // A golden stream with a repeat has no profile.
    assert!(GoldenProfile::new(checks(), 2, &[golden[0], golden[0]]).is_none());
}
