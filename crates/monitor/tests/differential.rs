//! Differential tests: the flat back-end against the two-level reference
//! model in `reference/`, event by event.
//!
//! Both monitors see the same stream; after every event their
//! `pending_instances()` must agree, and after the closing flush so must
//! `violations()`, `violation_reports()` (whole structs: window contents,
//! site-local seqs, pending depth, latency), `events_processed()` and
//! `telemetry()`. The streams are random scripts shaped to reach what the
//! two layouts do differently — windows that lose their oldest entries,
//! sites seen once, a thread reporting a key it has already reported (while
//! the instance is pending: dropped, first report wins; after it completed:
//! a new instance — what a sender truncating the `iter` key at the six-loop
//! cutoff produces, though this repository's engines do not), flushes in
//! mid-stream — and the captured streams of the seven SPLASH ports.
//!
//! A clone of a monitor is the same monitor, which is what lets a campaign
//! fork continue the fault-free prefix's monitor instead of replaying its
//! events: cloned at any point of a script, one shard (the flat monitor) or
//! four, and fed the rest of the stream beside the original, the clone ends
//! with the original's violations, reports and telemetry.

mod reference;

use bw_analysis::{CheckKind, TidCheck};
use bw_monitor::{BranchEvent, CheckTable, Monitor, ShardedMonitor, ViolationKind, ViolationReport};
use bw_splash::{Benchmark, Size};
use bw_vm::{Engine, ExecConfig, ProgramImage, SimEngine, SplitMix64};
use reference::RefMonitor;

/// One branch per check kind, and one the plan left uninstrumented.
const KINDS: [Option<CheckKind>; 7] = [
    Some(CheckKind::SharedUniform),
    Some(CheckKind::GroupByWitness),
    Some(CheckKind::ThreadIdPredicate(TidCheck::AtMostOneTaken)),
    Some(CheckKind::ThreadIdPredicate(TidCheck::AtMostOneNotTaken)),
    Some(CheckKind::ThreadIdPredicate(TidCheck::TakenIsPrefix)),
    Some(CheckKind::ThreadIdPredicate(TidCheck::TakenIsSuffix)),
    None,
];

/// The monitor under test and the model, fed in lock step.
struct Pair {
    flat: Monitor,
    model: RefMonitor,
}

impl Pair {
    fn new(checks: CheckTable, nthreads: usize) -> Self {
        Pair { flat: Monitor::new(checks.clone(), nthreads), model: RefMonitor::new(checks, nthreads) }
    }

    fn process(&mut self, event: BranchEvent) {
        self.flat.process(event);
        self.model.process(event);
        assert_eq!(self.flat.pending_instances(), self.model.pending_instances(), "{event:?}");
    }

    fn flush(&mut self) {
        assert_eq!(self.flat.flush(), self.model.flush());
        assert_eq!(self.flat.pending_instances(), 0);
    }

    /// The closing flush and the full comparison.
    fn finish(mut self) -> Monitor {
        self.flush();
        assert_eq!(self.flat.violations(), self.model.violations());
        assert_eq!(self.flat.violation_reports(), self.model.violation_reports());
        assert_eq!(self.flat.events_processed(), self.model.events_processed());
        assert_eq!(self.flat.telemetry(), self.model.telemetry());
        assert_eq!(self.flat.violation_reports().len(), self.flat.violations().len());
        self.flat
    }
}

/// A step of a random script.
#[derive(Debug)]
enum Op {
    /// `count` threads, starting at thread `start`, report one instance of
    /// `branch` at one of a few hot sites, behaving as the branch's
    /// category predicts — except thread `liar`, if it is among them.
    Round { branch: u32, site: u64, iter: u64, start: u32, count: u32, liar: Option<(u32, bool)> },
    /// One report at a site never seen before or again.
    OneShot { branch: u32, thread: u32 },
    /// An end-of-phase flush in mid-stream.
    Flush,
}

/// What thread `t` of `n` reports at `(branch, iter)` when nothing is wrong.
fn honest(branch: u32, iter: u64, t: u32, n: u32) -> (u64, bool) {
    match branch {
        0 => (iter + 7, iter.is_multiple_of(2)),
        1 => (u64::from(t % 2), t.is_multiple_of(2)),
        2 => (iter, t == 0),
        3 => (iter, t != 0),
        4 => (iter, t < n.div_ceil(2)),
        _ => (iter, t >= n / 2),
    }
}

/// A random step: three rounds to two one-shots to one flush.
fn op(rng: &mut SplitMix64) -> Op {
    let mut draw = |n: i64| rng.below(n) as u32;
    match draw(6) {
        // Three sites and six iterations for seven branches: keys recur, so
        // rounds overlap pending instances and reopen completed ones, and
        // the sites' rings fill up and wrap. One round in three has a liar.
        0..=2 => Op::Round {
            branch: draw(7),
            site: u64::from(draw(3)),
            iter: u64::from(draw(6)),
            start: draw(32),
            count: 1 + draw(32),
            liar: (draw(3) == 0).then(|| (draw(32), draw(2) == 1)),
        },
        3 | 4 => Op::OneShot { branch: draw(7), thread: draw(32) },
        _ => Op::Flush,
    }
}

/// What a monitor is fed: an event, or an end-of-phase flush.
#[derive(Clone, Copy, Debug)]
enum Step {
    Event(BranchEvent),
    Flush,
}

/// The stream `ops` make at `nthreads`.
fn steps(nthreads: u32, ops: &[Op]) -> Vec<Step> {
    let mut steps = Vec::new();
    let mut fresh_site = 1000;
    for op in ops {
        match *op {
            Op::Round { branch, site, iter, start, count, liar } => {
                for k in 0..count.min(nthreads) {
                    let thread = (start + k) % nthreads;
                    let (mut witness, mut taken) = honest(branch, iter, thread, nthreads);
                    match liar {
                        Some((t, true)) if t % nthreads == thread => witness ^= 0x100,
                        Some((t, false)) if t % nthreads == thread => taken = !taken,
                        _ => {}
                    }
                    steps.push(Step::Event(BranchEvent { branch, thread, site, iter, witness, taken }));
                }
            }
            Op::OneShot { branch, thread } => {
                fresh_site += 1;
                let thread = thread % nthreads;
                let (witness, taken) = honest(branch, 0, thread, nthreads);
                let site = fresh_site;
                steps.push(Step::Event(BranchEvent { branch, thread, site, iter: 0, witness, taken }));
            }
            Op::Flush => steps.push(Step::Flush),
        }
    }
    steps
}

/// Plays `ops` to both monitors at `nthreads`; returns the flat one after
/// the closing comparison, and the stream it was fed.
fn play(nthreads: u32, ops: &[Op]) -> (Monitor, Vec<Step>) {
    let steps = steps(nthreads, ops);
    let mut pair = Pair::new(CheckTable::from_kinds(KINDS.to_vec()), nthreads as usize);
    for &step in &steps {
        match step {
            Step::Event(event) => pair.process(event),
            Step::Flush => pair.flush(),
        }
    }
    (pair.finish(), steps)
}

fn feed(monitor: &mut ShardedMonitor, step: Step) {
    match step {
        Step::Event(event) => monitor.process(event),
        Step::Flush => {
            monitor.flush();
        }
    }
}

/// Feeds `steps` to a `ShardedMonitor` of one shard (a [`Monitor`] behind a
/// bounds check) and of four, cloning it before each step whose index is in
/// `at` (and at the end, if `at` holds `steps.len()`). Every clone is fed the
/// rest of the stream beside the original and, after the closing flush,
/// must have its violations, reports and telemetry snapshot.
fn clones_are_the_monitor(nthreads: u32, steps: &[Step], at: &[usize]) {
    for shards in [1, 4] {
        let checks = CheckTable::from_kinds(KINDS.to_vec());
        let mut original = ShardedMonitor::new(checks, nthreads as usize, shards);
        let mut clones = Vec::new();
        for (k, &step) in steps.iter().enumerate() {
            if at.contains(&k) {
                clones.push((k, original.clone()));
            }
            feed(&mut original, step);
            for (_, clone) in &mut clones {
                feed(clone, step);
            }
        }
        if at.contains(&steps.len()) {
            clones.push((steps.len(), original.clone()));
        }
        let verdict = |mut monitor: ShardedMonitor| {
            monitor.flush();
            monitor.into_verdict()
        };
        let expected = verdict(original);
        for (k, clone) in clones {
            let got = verdict(clone);
            let what = format!("{shards} shard(s), the clone at {k}");
            assert_eq!(got.violations, expected.violations, "{what}: violations");
            assert_eq!(got.violation_reports, expected.violation_reports, "{what}: reports");
            assert_eq!(got.telemetry, expected.telemetry, "{what}: telemetry");
        }
    }
}

/// Every position of a fixed script, its end included.
fn every_position(steps: &[Step]) -> Vec<usize> {
    (0..=steps.len()).collect()
}

/// Any script, at every thread count the exhibits use, reads the same on
/// the flat back-end and on the model, and a clone taken at a random point
/// of it continues as the monitor it was taken from. 96 scripts from a
/// fixed-seed SplitMix64; a failure names its case index and script.
#[test]
fn flat_backend_matches_the_two_level_model() {
    let mut rng = SplitMix64::new(1);
    for case in 0..96 {
        let nthreads = [1, 2, 4, 32][rng.below(4) as usize];
        let ops: Vec<Op> = (0..rng.below(160)).map(|_| op(&mut rng)).collect();
        let at = rng.next_u64() as usize;
        let replayed = std::panic::catch_unwind(|| {
            let (_, steps) = play(nthreads, &ops);
            clones_are_the_monitor(nthreads, &steps, &[at % (steps.len() + 1)]);
        });
        assert!(replayed.is_ok(), "case {case}: {nthreads} threads, clone at {at}, {ops:?}");
    }
}

/// The generator's scenarios, pinned: fixed scripts known to reach a
/// window that has lost its oldest entries, a dropped re-report inside a
/// window, a reopened key, a fault of each violation kind caught eagerly
/// and at flush, a flush-time violation at a site with a history of
/// completed instances, a violation after a mid-stream flush (whose
/// drained instances are filed only then), and at 32 threads a window that
/// mixes pending reports with a history that has let entries go — so the
/// property above cannot pass by never leaving the easy cases. Each script
/// is also cloned at every position, to continue as the original does.
#[test]
fn a_fixed_script_reaches_every_scenario() {
    let full = |branch, iter, liar| Op::Round { branch, site: 0, iter, start: 1, count: 4, liar };
    let part = |branch, iter, liar| Op::Round { branch, site: 1, iter, start: 0, count: 2, liar };
    let mut ops = Vec::new();
    // Eager: a lying witness and a flipped direction on every category.
    for branch in 0..6 {
        ops.push(full(branch, 0, Some((2, true))));
        ops.push(full(branch, 1, Some((2, false))));
        ops.push(full(branch, 2, None));
    }
    // Thread 0 and 1 open an instance; both come round again while it is
    // pending (dropped, even though the second time they disagree); a
    // mid-stream flush checks it with two reporters; then the key reopens.
    ops.push(part(0, 3, None));
    ops.push(part(0, 3, Some((1, false))));
    ops.push(Op::Flush);
    // After the flush: an eager check at the site the flush drained, whose
    // window needs the drained reports filed first.
    ops.push(Op::Round { branch: 0, site: 1, iter: 5, start: 0, count: 4, liar: Some((2, true)) });
    ops.push(part(0, 3, Some((0, true))));
    // Left for the closing flush: two-reporter instances with a fault, and
    // one at the site whose completed instances are in its history.
    for branch in 0..6 {
        ops.push(part(branch, 4, Some((1, false))));
    }
    ops.push(Op::Round { branch: 0, site: 0, iter: 9, start: 0, count: 2, liar: Some((1, true)) });
    ops.push(Op::OneShot { branch: 6, thread: 3 }); // uninstrumented: counted, not kept
    let (flat, steps) = play(4, &ops);
    clones_are_the_monitor(4, &steps, &every_position(&steps));

    let kinds: Vec<ViolationKind> = flat.violations().iter().map(|v| v.kind).collect();
    for kind in [
        ViolationKind::WitnessMismatch,
        ViolationKind::DirectionMismatch,
        ViolationKind::GroupMismatch,
        ViolationKind::TidPredicate,
    ] {
        assert!(kinds.contains(&kind), "{kind:?} never raised: {kinds:?}");
    }
    let at_flush: Vec<_> = flat.violations().iter().filter(|v| v.reporters == 2).collect();
    assert!(at_flush.len() >= 3, "{at_flush:?}");
    // The dropped re-report left the pending instance clean at the first
    // flush; the reopened one carries thread 0's lie.
    assert!(at_flush.iter().any(|v| (v.branch, v.site, v.iter) == (0, 1, 3)));
    assert_eq!(at_flush.iter().filter(|v| (v.branch, v.site, v.iter) == (0, 1, 3)).count(), 1);
    // Eager checks at the hot site saw a backlog of zero and a known
    // latency; flush-time ones read the site's final stream position.
    let reports = flat.violation_reports();
    assert!(reports.iter().any(|r| r.detection_latency.is_some_and(|n| n > 0)));
    assert!(reports.iter().all(|r| r.pending_depth == 0 || r.violation.reporters == 4));
    let report = |key: (u32, u64, u64), reporters: u32| {
        let found = reports.iter().find(|r| {
            let v = r.violation;
            (v.branch, v.site, v.iter, v.reporters) == (key.0, key.1, key.2, reporters)
        });
        found.unwrap_or_else(|| panic!("no report for {key:?} with {reporters} reporters"))
    };
    let iters = |r: &ViolationReport| r.window.iter().map(|e| e.iter).collect::<Vec<_>>();
    // The eager check after the mid-stream flush: the drained instance's
    // four reports lead its window, the dropped re-reports among them.
    let after_flush = report((0, 1, 5), 4);
    assert_eq!(&iters(after_flush)[..4], [3, 3, 3, 3]);
    assert_eq!(after_flush.window[0].seq, 1);
    // The reopened key, caught at the closing flush: its window holds
    // the dropped re-report of thread 0 beside both real ones.
    let reopened = report((0, 1, 3), 2);
    let thread_0 = reopened.window.iter().filter(|e| e.iter == 3 && e.thread == 0).count();
    assert_eq!(thread_0, 3, "{:?}", reopened.window);
    // A flush-time violation at a site with a history of completed
    // instances: the window reaches back into it.
    let with_history = report((0, 0, 9), 2);
    assert!(iters(with_history).contains(&0), "{:?}", with_history.window);
    assert_eq!(with_history.pending_depth, 0);

    // A ring that wraps, and the latency lost with it: 5 full rounds (20
    // reports) at one site, the deviant in the first, checked last.
    let mut ops = vec![Op::Round { branch: 0, site: 2, iter: 0, start: 0, count: 3, liar: Some((0, true)) }];
    for iter in 1..5 {
        ops.push(Op::Round { branch: 0, site: 2, iter, start: 0, count: 4, liar: None });
    }
    ops.push(Op::Round { branch: 0, site: 2, iter: 0, start: 3, count: 1, liar: None });
    let (flat, steps) = play(4, &ops);
    clones_are_the_monitor(4, &steps, &every_position(&steps));
    assert_eq!(flat.violations().len(), 1);
    let report = &flat.violation_reports()[0];
    assert_eq!(report.window.len(), 16);
    assert_eq!((report.window[0].seq, report.detected_seq), (5, 20));
    assert_eq!(report.detection_latency, None, "the deviant's entry aged out");
    assert_eq!(report.deviants, vec![0]);

    // Thirty-two threads, a window of 128: one report opens an instance
    // that stays pending throughout; twenty full rounds pass, so the site's
    // history lets entries go (it keeps at most 4 × 128); two instances
    // are left pending with eight reports each; then a round with a liar
    // completes. The window mixes the pending reports with the history and
    // leaves out the oldest pending one, which still counts in the seqs.
    let round =
        |iter, start, count, liar| Op::Round { branch: 0, site: 5, iter, start, count, liar };
    let mut ops = vec![round(99, 0, 1, None)];
    ops.extend((0..20).map(|iter| round(iter, 0, 32, None)));
    ops.extend([round(20, 0, 8, None), round(21, 8, 8, None), round(22, 0, 32, Some((3, true)))]);
    let (flat, steps) = play(32, &ops);
    clones_are_the_monitor(32, &steps, &every_position(&steps));
    assert_eq!(flat.violations().len(), 1);
    let report = &flat.violation_reports()[0];
    assert_eq!(report.violation.iter, 22);
    assert_eq!(report.detected_seq, 1 + 20 * 32 + 8 + 8 + 32);
    assert!(report.detected_seq > 4 * 128, "the history has let entries go");
    assert_eq!(report.window.len(), 128);
    assert_eq!(report.window[0].seq, report.detected_seq - 127);
    let iters: Vec<u64> = report.window.iter().map(|e| e.iter).collect();
    for iter in [17, 19, 20, 21, 22] {
        assert!(iters.contains(&iter), "iteration {iter} missing from {iters:?}");
    }
    assert!(!iters.contains(&99), "the oldest pending report is outside the window");
    assert_eq!(report.pending_depth, 3);
}

/// The branch events of a port at `Size::Test`, four threads, with the
/// check table that goes with them.
fn captured(bench: Benchmark) -> (CheckTable, Vec<BranchEvent>) {
    let image = ProgramImage::prepare_default(bench.module(Size::Test).expect("port compiles"));
    let result = SimEngine.run(&image, &ExecConfig::new(4).capture_events(true));
    (CheckTable::from_plan(&image.plan), result.branch_events)
}

/// Real site mixes: every port's captured stream, clean (nothing flagged)
/// and with a direction bit flipped every 997 events (plenty flagged, so
/// the reports of real sites are compared too).
#[test]
fn the_seven_ports_replay_identically() {
    for bench in Benchmark::ALL {
        let (checks, events) = captured(bench);
        assert!(!events.is_empty(), "{}", bench.name());
        let mut pair = Pair::new(checks.clone(), 4);
        for &event in &events {
            pair.process(event);
        }
        let clean = pair.finish();
        assert!(clean.violations().is_empty(), "{}: false positive", bench.name());

        let mut pair = Pair::new(checks, 4);
        for (i, &event) in events.iter().enumerate() {
            let taken = event.taken ^ (i % 997 == 0);
            pair.process(BranchEvent { taken, ..event });
            if i == events.len() / 2 {
                pair.flush();
            }
        }
        let faulty = pair.finish();
        assert!(!faulty.violations().is_empty(), "{}: no fault was caught", bench.name());
    }
}
