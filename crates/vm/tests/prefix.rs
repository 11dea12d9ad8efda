//! A forked prefix against a full replay.
//!
//! [`SimPrefix`] runs the program once, stops between two scheduler slots
//! and lets any number of hooked runs continue from copies of that state.
//! Every test here demands that such a fork returns the [`RunResult`]
//! `SimEngine::run_hooked` returns for the same hook, field for field —
//! the comparison of `differential.rs`, whose reference model stays the
//! oracle for the scheduler loop both sides share. A fork whose hook lets it
//! stop at a condition-bit flip that changes nothing ([`Fork::Stopped`])
//! returns no result; there the full replay must equal the unhooked run.
//!
//! `forked_campaigns_equal_full_replays` walks the grid of the issue
//! (7 ports × both fault models × threads {1, 2, 4, 8} × quantum
//! {1, 3, 64} × monitor {Off, Enabled} × shards {1, 4}) over the plans of
//! 200-injection campaigns. The cell a campaign really runs in (4 threads,
//! quantum 64) replays all 200 plans; the other cells replay every
//! `STRIDE`-th plan, rotated by the cell's position so that neighbouring
//! cells take different plans. Debug builds take every seventh cell and
//! thin the plans of each further (a step of the interpreter is ~10x slower
//! there); `scripts/ci.sh` runs this file in the release profile.
//!
//! Under a span sink a fork must also *write* what the full replay writes:
//! the traced legs (a capturing sink, installed while the file's one lock
//! is held) compare the `tspan` records of the two, field for field and in
//! order; `traced_forks_write_the_spans_of_full_replays` lists the tracer
//! mutants those were checked against.
//!
//! Mutation check — each of these, applied to `src/sim.rs`, was run
//! against this file in the release profile; "all seven" are the tests
//! that were here before the traced ones (the first seven below):
//! * each fork given a fresh inline monitor instead of a clone of the
//!   prefix's → all seven, the traced grid and `a_violation…`: all but
//!   `locks_held…`, whose branches lie in critical sections and send no
//!   events (`events_processed`, violations, the monitor's telemetry);
//! * the prefix's monitor moved into the fork (`std::mem::replace`, with
//!   `resume` taking `&mut self`), so that the next fork of the prefix
//!   starts from an empty one → `forked_campaigns…`, `generated_modules…`,
//!   `targets_at_the_ends…`, `two_targets_share…`, `unhooked_forks…`, the
//!   traced grid and `a_violation…` — every test that forks one prefix
//!   again once events have been sent;
//! * the fork taken one slot late (`advance_to` runs one more slot before
//!   it returns) → `forked_campaigns…`, `generated_modules…`,
//!   `targets_at_the_ends…`, `two_targets_share…`, `a_plan_that_fires_in_
//!   init…` (the target is behind the fork: `total_steps`, outcome);
//! * the peeked heap entry popped and not put back → all seven (a thread
//!   vanishes from the schedule: `Hung`);
//! * `events_sent` reset in the fork → all seven; the cycle buckets reset
//!   → all seven (the telemetry snapshot);
//! * the barrier arrivals not carried into the fork → `forked_campaigns…`,
//!   `generated_modules…`, `targets_at_the_ends…`, `two_targets_share…`,
//!   `unhooked_forks…` (a barrier waits for an arrival it already had);
//!   the mutex tables not carried → `forked_campaigns…`,
//!   `generated_modules…`;
//! * `blocked` not carried into the fork: reset to all-true → all seven;
//!   reset to all-false **survives, as an equivalent mutant** — a blocked
//!   thread is never requeued, so the heap holds no entry for it and the
//!   flag is only ever read for entries that cannot exist (the check in
//!   `slot` is a guard, not a mechanism);
//! * a plan that fires in `@init` forked all the same (in `walk` below) →
//!   `forked_campaigns…`, `targets_at_the_ends…`; and
//!   `a_plan_that_fires_in_init_is_behind_the_prefix` shows directly that
//!   such a fork is *not* the full replay, which is why campaigns replay
//!   those plans from step 0.
//!
//! [`SimPrefix`]: bw_vm::SimPrefix
//! [`Fork::Stopped`]: bw_vm::Fork::Stopped

use std::sync::{Arc, Mutex, MutexGuard};

use bw_analysis::{Category, CheckKind, CheckPlan};
use bw_fault::{
    plan_campaign, CampaignConfig, ConditionLiveness, FaultModel, InjectionHook, InjectionPlan,
};
use bw_gen::{generate_module, GenConfig};
use bw_ir::{Type, Val};
use bw_splash::{Benchmark, Size};
use bw_telemetry::{Recorder, TraceScope, Value};
use bw_vm::{
    Engine, ExecConfig, ExecMode, Fork, MonitorMode, NoHook, ProgramImage, RunOutcome, RunResult,
    SimEngine, SimPrefix,
};

/// Held by every test of this file while it runs: the span sink is
/// process-global, so a run on another test thread while a traced leg has
/// its sink installed would write into that leg's capture, and an untraced
/// leg would stop being one.
static SINK_LOCK: Mutex<()> = Mutex::new(());

fn sink_lock() -> MutexGuard<'static, ()> {
    SINK_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// One record as a sink receives it: the event name and the fields.
type Record = (String, Vec<(String, Value<'static>)>);

/// A span sink that keeps what it is sent.
#[derive(Default)]
struct Capture(Mutex<Vec<Record>>);

impl Recorder for Capture {
    fn record(&self, event: &str, fields: &[(&str, Value)]) {
        let fields = fields.iter().map(|(k, v)| (k.to_string(), v.clone().into_owned())).collect();
        self.0.lock().unwrap().push((event.to_string(), fields));
    }
}

/// A [`Capture`] installed as the span sink for as long as this lives.
struct Traced(Arc<Capture>);

impl Traced {
    /// Installs the sink; the guard shows that the caller holds the lock.
    fn install(_held: &MutexGuard<'static, ()>) -> Traced {
        let capture = Arc::new(Capture::default());
        bw_telemetry::set_trace_sink(Some(Arc::clone(&capture) as Arc<dyn Recorder>));
        Traced(capture)
    }
}

impl Drop for Traced {
    fn drop(&mut self) {
        bw_telemetry::set_trace_sink(None);
    }
}

/// Runs `run` the way a campaign runs injection `inj` — inside its
/// `TraceScope` — and returns what it wrote to the sink beside its result;
/// with no sink, just runs it.
fn spans_of<R>(trace: Option<&Traced>, inj: usize, run: impl FnOnce() -> R) -> (R, Vec<Record>) {
    let Some(Traced(capture)) = trace else { return (run(), Vec::new()) };
    capture.0.lock().unwrap().clear();
    let scope = TraceScope::enter(&[("inj", Value::from(inj)), ("wid", Value::U64(0))]);
    let result = run();
    drop(scope);
    let records = std::mem::take(&mut *capture.0.lock().unwrap());
    (result, records)
}

/// The records of one category, e.g. `lock_wait`.
fn of_cat<'a>(records: &'a [Record], cat: &str) -> Vec<&'a Record> {
    let is = |r: &&Record| r.1.iter().any(|(k, v)| k == "cat" && v.as_str() == Some(cat));
    records.iter().filter(is).collect()
}

#[track_caller]
fn assert_same_spans(fork: &[Record], full: &[Record], what: &str) {
    assert_eq!(fork.len(), full.len(), "number of trace records: {what}");
    for (n, (fork, full)) in fork.iter().zip(full).enumerate() {
        assert_eq!(fork, full, "trace record {n}: {what}");
    }
}

/// Plans replayed per grid cell away from the campaign's own: one in this
/// many.
const STRIDE: usize = if cfg!(debug_assertions) { 100 } else { 20 };

/// Values by type and bit pattern, so a NaN equals itself.
fn bits(values: &[Val]) -> Vec<(Type, u64)> {
    values.iter().map(|v| (v.ty(), v.bits())).collect()
}

#[track_caller]
fn assert_same(fork: &RunResult, full: &RunResult, what: &str) {
    assert_eq!(fork.outcome, full.outcome, "outcome: {what}");
    assert_eq!(fork.total_steps, full.total_steps, "total_steps: {what}");
    assert_eq!(fork.steps_per_thread, full.steps_per_thread, "steps_per_thread: {what}");
    assert_eq!(fork.branches_per_thread, full.branches_per_thread, "branches_per_thread: {what}");
    assert_eq!(fork.parallel_cycles, full.parallel_cycles, "parallel_cycles: {what}");
    assert_eq!(bits(&fork.outputs), bits(&full.outputs), "outputs: {what}");
    assert_eq!(fork.events_sent, full.events_sent, "events_sent: {what}");
    assert_eq!(fork.events_processed, full.events_processed, "events_processed: {what}");
    assert_eq!(fork.branch_events, full.branch_events, "branch_events: {what}");
    assert_eq!(fork.violations, full.violations, "violations: {what}");
    assert_eq!(fork.violation_reports, full.violation_reports, "violation_reports: {what}");
    assert_eq!(fork.engine, full.engine, "engine: {what}");
    assert_eq!(fork.cycles, full.cycles, "cycles: {what}");
    assert_eq!(fork.monitor, full.monitor, "monitor: {what}");
}

/// The result of a fork that cannot have stopped: its hook says no value is
/// ever dead.
#[track_caller]
fn ran(fork: Fork) -> RunResult {
    match fork {
        Fork::Ran(result) => result,
        Fork::Stopped { steps } => panic!("a fork stopped at step {steps} with nothing dead"),
    }
}

fn port(bench: Benchmark) -> ProgramImage {
    ProgramImage::prepare_default(bench.module(Size::Test).expect("port compiles"))
}

/// The campaign's own hang cut-off (bw-fault's `validate_and_plan`).
fn faulty(config: &ExecConfig, golden: &RunResult) -> ExecConfig {
    config.clone().max_steps(golden.total_steps.saturating_mul(8).saturating_add(100_000))
}

/// What one pass of a prefix over a list of plans did.
#[derive(Default)]
struct Walk {
    /// Plans forked from the prefix.
    forked: usize,
    /// Forks among them that stopped at their fault.
    stopped: usize,
    /// Plans that fire in `@init`, which a prefix cannot serve.
    in_init: usize,
    /// Steps the prefix had executed at each fork, in `plans` order.
    fork_steps: Vec<Option<u64>>,
    /// How each forked run ended.
    outcomes: std::collections::BTreeMap<String, usize>,
    /// Trace records the forks wrote.
    spans: usize,
}

/// Advances one prefix past every plan, the way a campaign window does —
/// plans bucketed per thread in ascending `dyn_index`, one fork at each,
/// the last taking the prefix itself (`SimPrefix::finish`) — and compares
/// each fork with `run_hooked` from step 0: the results and, under `trace`,
/// the records the two write inside the same `TraceScope`. The forks' hooks
/// answer `dead_after` from the image's liveness table, as a campaign's do;
/// a fork that stops must do so untraced, and its full replay must be the
/// unhooked run.
#[track_caller]
fn walk(
    image: &ProgramImage,
    config: &ExecConfig,
    plans: &[InjectionPlan],
    trace: Option<&Traced>,
    what: &str,
) -> Walk {
    let plain = SimEngine.run(image, config);
    let mut prefix = SimPrefix::new(image, config, &plain);
    let liveness = ConditionLiveness::new(image);
    let mut walk = Walk { fork_steps: vec![None; plans.len()], ..Walk::default() };
    let mut queues: Vec<Vec<(u64, usize)>> = vec![Vec::new(); config.nthreads as usize];
    for (i, plan) in plans.iter().enumerate() {
        if plan.tid == 0 && plan.dyn_index <= prefix.init_branches() {
            walk.in_init += 1;
        } else {
            queues[plan.tid as usize].push((plan.dyn_index, i));
        }
    }
    for queue in &mut queues {
        queue.sort_unstable_by(|a, b| b.cmp(a)); // `pop` takes the earliest
    }
    let head = |queue: &Vec<(u64, usize)>| queue.last().map(|&(k, _)| k);
    let mut targets: Vec<Option<u64>> = queues.iter().map(head).collect();
    while let Some(waiting) = targets.iter().position(Option::is_some) {
        // `None`: the parallel section is over, what is left is never reached.
        let tid = prefix.advance_to(&targets).map_or(waiting, |tid| tid as usize);
        let (_, i) = queues[tid].pop().expect("a thread with a target");
        targets[tid] = head(&queues[tid]);

        let what = format!("{what} #{i} {:?}", plans[i]);
        let fork_hook = InjectionHook::pruning(plans[i], &liveness);
        let full_hook = InjectionHook::new(plans[i]);
        let at = prefix.steps();
        walk.fork_steps[i] = Some(at);
        let mut compare = |(fork, fork_spans): (Fork, Vec<Record>)| {
            let (full, full_spans) =
                spans_of(trace, i, || SimEngine.run_hooked(image, config, &full_hook));
            match fork {
                Fork::Ran(fork) => assert_same(&fork, &full, &what),
                Fork::Stopped { steps } => {
                    assert!(trace.is_none(), "{what}: a traced fork stopped");
                    assert_same(&full, &plain, &format!("{what}, stopped at step {steps}"));
                    assert!(at < steps && steps <= full.total_steps, "{what}: {at} {steps}");
                    walk.stopped += 1;
                }
            }
            assert_eq!(fork_hook.injected_branch(), full_hook.injected_branch(), "{what}");
            assert_same_spans(&fork_spans, &full_spans, &what);
            walk.spans += fork_spans.len();
            walk.forked += 1;
            *walk.outcomes.entry(format!("{:?}", full.outcome)).or_default() += 1;
        };
        if targets.iter().all(Option::is_none) {
            compare(spans_of(trace, i, || prefix.finish(&fork_hook)));
            break;
        }
        compare(spans_of(trace, i, || prefix.resume(&fork_hook)));
    }
    walk
}

#[test]
fn forked_campaigns_equal_full_replays() {
    let _lock = sink_lock();
    let full = !cfg!(debug_assertions);
    let injections = 200;
    let mut cell = 0usize;
    for bench in Benchmark::ALL {
        let image = port(bench);
        let mut outcomes = std::collections::BTreeSet::new();
        let mut stopped = 0;
        for nthreads in [1u32, 2, 4, 8] {
            for quantum in [1u32, 3, 64] {
                for (monitor, shards) in [
                    (MonitorMode::Off, 1),
                    (MonitorMode::Off, 4),
                    (MonitorMode::Enabled, 1),
                    (MonitorMode::Enabled, 4),
                ] {
                    cell += 1;
                    // Every seventh cell in debug builds (7 is coprime to
                    // the grid's 4 x 3 x 4 axes, so every value of each
                    // axis still comes up on every port).
                    if !full && !cell.is_multiple_of(7) {
                        continue;
                    }
                    let base = ExecConfig::new(nthreads)
                        .quantum(quantum)
                        .monitor(monitor)
                        .monitor_shards(Some(shards));
                    let golden = SimEngine.run(&image, &base);
                    assert_eq!(golden.outcome, RunOutcome::Completed);
                    let config = faulty(&base, &golden);
                    for model in [FaultModel::BranchFlip, FaultModel::ConditionBitFlip] {
                        let campaign =
                            CampaignConfig::new(injections, model, nthreads).seed(0x16_f0f4);
                        let mut plans = plan_campaign(&golden.branches_per_thread, &campaign);
                        if !(full && nthreads == 4 && quantum == 64) {
                            plans = plans.into_iter().skip(cell % STRIDE).step_by(STRIDE).collect();
                        }
                        let what = format!(
                            "{} t{nthreads} q{quantum} {monitor:?} s{shards} {model:?}",
                            bench.name()
                        );
                        let walked = walk(&image, &config, &plans, None, &what);
                        assert_eq!(walked.forked + walked.in_init, plans.len(), "{what}");
                        if model == FaultModel::BranchFlip {
                            assert_eq!(walked.stopped, 0, "{what}: a flipped branch stopped");
                        }
                        stopped += walked.stopped;
                        outcomes.extend(walked.outcomes.into_keys());
                    }
                }
            }
        }
        // The comparison is only worth its name if faults did derail runs
        // (the thinned sweep of a debug build may not draw one per port).
        assert!(
            !full || outcomes.len() > 1,
            "{}: every forked run ended as {outcomes:?}",
            bench.name()
        );
        // And the stopped forks only if some did stop.
        assert!(!full || stopped > 0, "{}: no fork stopped", bench.name());
    }
}

#[test]
fn generated_modules_fork_exactly() {
    let _lock = sink_lock();
    let gen = GenConfig::default();
    for seed in 0..200u64 {
        let image = ProgramImage::prepare_default(generate_module(seed, &gen));
        // Every thread count, quantum and monitor mode comes round as
        // seeds advance.
        let nthreads = [1u32, 2, 4, 8][seed as usize % 4];
        let quantum = [1u32, 3, 64][(seed as usize / 4) % 3];
        let monitor = [MonitorMode::Enabled, MonitorMode::SendOnly, MonitorMode::Off]
            [(seed as usize / 2) % 3];
        let base =
            ExecConfig::new(nthreads).quantum(quantum).monitor(monitor).capture_events(true);
        let golden = SimEngine.run(&image, &base);
        if golden.outcome != RunOutcome::Completed {
            continue; // the generator's own failures are `bw fuzz`'s business
        }
        let config = faulty(&base, &golden);
        let model =
            if seed % 2 == 0 { FaultModel::BranchFlip } else { FaultModel::ConditionBitFlip };
        let campaign = CampaignConfig::new(6, model, nthreads).seed(seed);
        let plans = plan_campaign(&golden.branches_per_thread, &campaign);
        let what = format!("seed {seed:#x} t{nthreads} q{quantum} {monitor:?}");
        walk(&image, &config, &plans, None, &what);
    }
}

fn flip(tid: u32, dyn_index: u64) -> InjectionPlan {
    InjectionPlan { tid, dyn_index, model: FaultModel::BranchFlip, value_choice: 0, bit: 0 }
}

/// The first branch of a thread forks at the very first slot boundary, the
/// last one near the end — past the last barrier — and one past the last
/// is never reached: the prefix runs the parallel section out and the fork
/// only has `@fini` left (and, traced, every span of the run in its buffer,
/// the final phases' included).
#[test]
fn targets_at_the_ends_of_a_thread() {
    let lock = sink_lock();
    for (bench, traced) in [
        (Benchmark::Raytrace, false),
        (Benchmark::Radix, false),
        (Benchmark::OceanNoncontig, false),
        (Benchmark::Raytrace, true),
        (Benchmark::OceanNoncontig, true),
    ] {
        let trace = traced.then(|| Traced::install(&lock));
        let image = port(bench);
        for quantum in [1, 64] {
            let base = ExecConfig::new(4).quantum(quantum).capture_events(true);
            let golden = SimEngine.run(&image, &base);
            let config = faulty(&base, &golden);
            let mut plans = Vec::new();
            for (tid, &last) in golden.branches_per_thread.iter().enumerate() {
                plans.extend([flip(tid as u32, 1), flip(tid as u32, last), flip(tid as u32, last + 1)]);
            }
            let what = format!("{} q{quantum} traced={traced}", bench.name());
            let walked = walk(&image, &config, &plans, trace.as_ref(), &what);
            // Thread 0's first branch is `@init`'s on every port with an
            // `@init` that branches; nothing else is.
            let init = SimPrefix::new(&image, &config, &golden).init_branches();
            assert_eq!(walked.in_init, usize::from(init > 0), "{what}");
            // A thread's first target forks before the thread has run; the
            // unreachable ones fork after everything has.
            let first = walked.fork_steps[3].expect("thread 1's first branch forks");
            let never = walked.fork_steps[5].expect("a target past the end forks at the end");
            assert!(first < golden.total_steps / 2 && never > first, "{what}: {first} {never}");
        }
    }
}

#[test]
fn two_targets_share_a_fork_point() {
    let lock = sink_lock();
    let image = port(Benchmark::Fft);
    let base = ExecConfig::new(4).capture_events(true);
    let golden = SimEngine.run(&image, &base);
    let config = faulty(&base, &golden);
    let k = golden.branches_per_thread[2] / 2;
    // Neighbouring branches of one thread, the same branch twice, and a
    // branch of another thread in between.
    let plans = [flip(2, k), flip(2, k + 1), flip(2, k), flip(1, k), flip(2, k + 2)];
    let walked = walk(&image, &config, &plans, None, "fft, shared fork point");
    // Forks do not consume what the prefix holds back for them: each of the
    // five writes the whole trace of its run.
    let trace = Traced::install(&lock);
    let traced = walk(&image, &config, &plans, Some(&trace), "fft, shared fork point, traced");
    drop(trace);
    assert_eq!(traced.fork_steps, walked.fork_steps, "a sink does not move the fork points");
    assert!(traced.spans > 0);
    assert_eq!(walked.forked, plans.len());
    let at = |i: usize| walked.fork_steps[i].expect("forked");
    assert_eq!(at(0), at(2), "one branch, one fork point");
    // The prefix stops at the first boundary within a quantum of `k`, which
    // on this port is within a quantum of `k + 1` too; a later branch may
    // lie a few slots on.
    assert_eq!(at(0), at(1));
    assert!(at(4) >= at(0) && at(4) - at(0) <= 16 * 64, "{} {}", at(0), at(4));
}

/// The inline monitor is handed its events in batches, so a prefix
/// usually stops with events sent but not yet checked; a fork must take
/// them along, unchecked, and check them as the full run does. Here the
/// whole run sends fewer events than a batch holds: an untraced run drains
/// its batch only when it is full and when the run ends, so at every fork
/// below, each event the prefix has sent is still held back. Every flip is
/// detected, so the violation of each is completed by a fork's monitor, in
/// instances the held-back events may have opened. Traced, a run drains at
/// the end of each stretch; its forks must still write the spans of the
/// full replay.
///
/// Mutation check: a fork whose monitor starts without the prefix's
/// held-back events (their count reset in `SimPrefix::resume`'s copy)
/// fails the untraced cells here.
#[test]
fn forks_carry_the_events_held_back_for_the_monitor() {
    let lock = sink_lock();
    let image = ProgramImage::prepare_default(
        bw_ir::frontend::compile(
            r#"
            shared int n = 8;
            int data[64];
            barrier b;
            @spmd func f() {
                var t: int = threadid();
                for (var i: int = 0; i < n; i = i + 1) {
                    if (i % 3 == 0) { data[t * 8 + i] = i; }
                }
                barrier(b);
                for (var j: int = 0; j < n; j = j + 1) {
                    if (data[j] > 4) { output(j); }
                }
            }
            "#,
        )
        .expect("compiles"),
    );
    for traced in [false, true] {
        let trace = traced.then(|| Traced::install(&lock));
        for quantum in [1, 3, 64] {
            for shards in [1, 4] {
                let base = ExecConfig::new(4)
                    .quantum(quantum)
                    .monitor_shards(Some(shards))
                    .capture_events(true);
                let what = format!("held back, q{quantum} s{shards} traced={traced}");
                let golden = SimEngine.run(&image, &base);
                assert_eq!(golden.outcome, RunOutcome::Completed, "{what}");
                assert!(golden.events_sent < 256, "{what}: {} events", golden.events_sent);
                let last = golden.branches_per_thread[3];
                let plans = [flip(1, 2), flip(0, 9), flip(2, last / 2), flip(3, last - 1)];
                let config = faulty(&base, &golden);
                for plan in plans {
                    let full = SimEngine.run_hooked(&image, &config, &InjectionHook::new(plan));
                    assert!(full.detected(), "{what}: {plan:?}");
                }
                let walked = walk(&image, &config, &plans, trace.as_ref(), &what);
                assert_eq!(walked.forked, plans.len(), "{what}");
                assert!(walked.outcomes.contains_key("Completed"), "{what}");
            }
        }
    }
}

/// `max_steps` between the fork and the end of the faulty run cuts the run
/// in its tail; `max_steps` short of the fork cuts the prefix itself, and
/// the fork is then the cut run.
#[test]
fn a_step_cut_in_the_tail_or_in_the_prefix() {
    let _lock = sink_lock();
    let image = port(Benchmark::Raytrace);
    let base = ExecConfig::new(4).capture_events(true);
    let golden = SimEngine.run(&image, &base);
    let plan = flip(1, golden.branches_per_thread[1] / 2);
    let probe = walk(&image, &base, &[plan], None, "raytrace, uncut");
    let fork_at = probe.fork_steps[0].expect("forked");
    assert!(fork_at > 0 && fork_at < golden.total_steps);
    for (max_steps, where_) in [
        ((fork_at + golden.total_steps) / 2, "tail"),
        (fork_at + 1, "first step of the tail"),
        (fork_at, "boundary"),
        (fork_at / 2, "prefix"),
        (0, "init"),
    ] {
        let config = base.clone().max_steps(max_steps);
        let what = format!("raytrace, cut in the {where_}");
        let walked = walk(&image, &config, &[plan], None, &what);
        assert_eq!(walked.outcomes.get("Hung"), Some(&1), "cut in the {where_}");
    }
}

/// A fork is the run it was taken from: with no hook, at any point — 0 %
/// (nothing held back yet), half way, the same point again, and 100 % (the
/// parallel section over, every span of it held back) — and so is its trace.
#[test]
fn unhooked_forks_equal_the_plain_run() {
    let lock = sink_lock();
    for traced in [false, true] {
        let trace = traced.then(|| Traced::install(&lock));
        let trace = trace.as_ref();
        for bench in Benchmark::ALL {
            let image = port(bench);
            for (nthreads, monitor, exec) in [
                (4, MonitorMode::Enabled, ExecMode::Normal),
                (8, MonitorMode::SendOnly, ExecMode::Duplicated),
                (1, MonitorMode::Off, ExecMode::Normal),
            ] {
                let config = ExecConfig::new(nthreads)
                    .monitor(monitor)
                    .exec(exec)
                    .monitor_shards(Some(2))
                    .capture_events(true);
                let (plain, plain_spans) = spans_of(trace, 0, || SimEngine.run(&image, &config));
                assert_eq!(plain_spans.is_empty(), !traced);
                let what = format!("{} t{nthreads} {monitor:?} traced={traced}", bench.name());
                let check = |prefix: &SimPrefix, at: &str| {
                    let (fork, fork_spans) = spans_of(trace, 0, || ran(prefix.resume(&NoHook)));
                    assert_same(&fork, &plain, &format!("{what}, {at}"));
                    assert_same_spans(&fork_spans, &plain_spans, &format!("{what}, {at}"));
                };
                let mut prefix = SimPrefix::new(&image, &config, &plain);
                check(&prefix, "0 %");
                let mut half = vec![None; nthreads as usize];
                let last = nthreads as usize - 1;
                half[last] = Some(plain.branches_per_thread[last] / 2);
                assert_eq!(prefix.advance_to(&half), Some(last as u32), "{what}");
                assert!(prefix.steps() > 0 && prefix.steps() < plain.total_steps, "{what}");
                check(&prefix, "50 %");
                // Forking does not disturb the prefix: the same point again.
                check(&prefix, "50 % again");
                assert_eq!(prefix.advance_to(&[]), None, "{what}");
                check(&prefix, "100 %");
                // The prefix itself continued, as a window's last fork does.
                let (end, end_spans) = spans_of(trace, 0, || ran(prefix.finish(&NoHook)));
                assert_same(&end, &plain, &format!("{what}, 100 %, finished"));
                assert_same_spans(&end_spans, &plain_spans, &format!("{what}, 100 %, finished"));
            }
        }
    }
}

/// `@init` runs as thread 0 with an index stream of its own, so a plan for
/// thread 0's `k`-th branch with `k` within `@init`'s count fires there —
/// before any point a prefix can be forked at. `init_branches` is how a
/// caller tells; forking all the same yields a different run.
#[test]
fn a_plan_that_fires_in_init_is_behind_the_prefix() {
    let _lock = sink_lock();
    let image = ProgramImage::prepare_default(
        bw_ir::frontend::compile(
            r#"
            shared int n = 6;
            int data[8];
            @init func setup() {
                for (var i: int = 0; i < 8; i = i + 1) { data[i] = i; }
            }
            @spmd func f() {
                var t: int = threadid();
                for (var i: int = 0; i < n; i = i + 1) {
                    if (data[i] > t) { output(i); }
                }
            }
            "#,
        )
        .expect("compiles"),
    );
    let config = ExecConfig::new(2);
    let mut prefix = SimPrefix::new(&image, &config, &SimEngine.run(&image, &config));
    // The loop test of `setup` runs nine times.
    assert_eq!(prefix.init_branches(), 9);

    // The last `@init` branch: the full replay leaves the loop one round
    // early; a fork injects into thread 0's ninth parallel branch instead.
    let plan = flip(0, 9);
    let full_hook = InjectionHook::new(plan);
    let full = SimEngine.run_hooked(&image, &config, &full_hook);
    let init = image.module.init.expect("the program has an @init");
    let hit = full_hook.injected_branch().expect("activated");
    assert_eq!(image.analysis.branches[hit.index()].func, init);
    assert_eq!(prefix.advance_to(&[Some(9)]), Some(0));
    let fork_hook = InjectionHook::new(plan);
    let fork = ran(prefix.resume(&fork_hook));
    let landed = fork_hook.injected_branch().expect("activated");
    assert_ne!(image.analysis.branches[landed.index()].func, init);
    assert_ne!((fork.total_steps, landed), (full.total_steps, hit));

    // One past `@init`'s count is thread 0's own branch on both paths.
    let walked =
        walk(&image, &config, &[flip(0, 10), flip(1, 1)], None, "first branch past @init");
    assert_eq!((walked.forked, walked.in_init), (2, 0));
}

/// The traced grid: 7 ports × both fault models × threads {1, 4} × quantum
/// {1, 3, 64} × shards {1, 4} under the inline monitor, every `STRIDE`-th
/// plan of the 200-injection campaigns. Since campaigns fork under a span
/// sink too, this is where a traced fork meets the full replay it stands
/// for: the `tspan` records `resume` writes inside an injection's
/// `TraceScope` — the prefix's, held back and written late, then the
/// tail's — against those of `run_hooked` inside the same scope, every
/// field, in order.
///
/// Mutation check, as above, for the tracer (`src/sim.rs`, its `Lanes` in
/// `src/span.rs`) against the six tests that run under a sink — this one,
/// `targets_at_the_ends…`, `two_targets_share…`, `unhooked_forks…` and the
/// two below; each mutant fails the tests named:
/// * the held spans not written by `SimTracer::into_fork` → all six; not
///   written by the last fork alone (`SimPrefix::finish` running the run
///   without `Sim::fork`) → all six too, since every walk ends with one;
/// * the spans written while the prefix advances instead (`held` left
///   `None` in `SimPrefix::new`: outside the fork's scope, and once per
///   prefix instead of once per fork) → all six;
/// * `steps_base`/`branches_base` zeroed in the fork, or `phase`/
///   `phase_start` → all but `locks_held…`, whose cuts lie in phase 0
///   (`steps`/`branches`, the names and `ts` of the phases open at the cut);
/// * `holds` emptied in the fork → `locks_held…` and this test (a
///   `lock_hold` goes missing); `wait_since` emptied → `locks_held…` (a
///   `lock_wait` goes missing);
/// * the prefix's events handed to `monitor.process` instead of
///   `monitor_event`, so that a verdict its monitor reaches is not held
///   back; flow ids restarted in the fork → each
///   `a_violation_the_log_replay_completes…`;
/// * the final phases closed again by a fork of a finished parallel
///   section → `unhooked_forks…` (at 100 %) and `a_violation…` (its last
///   fork).
#[test]
fn traced_forks_write_the_spans_of_full_replays() {
    let lock = sink_lock();
    let trace = Traced::install(&lock);
    let full = !cfg!(debug_assertions);
    let mut cell = 0usize;
    let mut spans = 0usize;
    for bench in Benchmark::ALL {
        let image = port(bench);
        for nthreads in [1u32, 4] {
            for quantum in [1u32, 3, 64] {
                for shards in [1, 4] {
                    cell += 1;
                    // Every fifth cell in debug builds (coprime to the
                    // grid's 2 x 3 x 2 axes).
                    if !full && !cell.is_multiple_of(5) {
                        continue;
                    }
                    let base =
                        ExecConfig::new(nthreads).quantum(quantum).monitor_shards(Some(shards));
                    let golden = SimEngine.run(&image, &base);
                    assert_eq!(golden.outcome, RunOutcome::Completed);
                    let config = faulty(&base, &golden);
                    for model in [FaultModel::BranchFlip, FaultModel::ConditionBitFlip] {
                        let campaign = CampaignConfig::new(200, model, nthreads).seed(0x17_f0f4);
                        let plans: Vec<_> = plan_campaign(&golden.branches_per_thread, &campaign)
                            .into_iter()
                            .skip(cell % STRIDE)
                            .step_by(STRIDE)
                            .collect();
                        let what =
                            format!("{} t{nthreads} q{quantum} s{shards} {model:?}", bench.name());
                        spans += walk(&image, &config, &plans, Some(&trace), &what).spans;
                    }
                }
            }
        }
    }
    assert!(spans > 0);
}

/// Forks taken while one thread holds a mutex and the others wait for it:
/// the `lock_hold` and `lock_wait` spans open at the cut are closed by the
/// fork, with the start clocks the prefix saw.
#[test]
fn locks_held_and_awaited_at_the_cut() {
    let lock = sink_lock();
    let image = ProgramImage::prepare_default(
        bw_ir::frontend::compile(
            r#"
            shared int n = 30;
            int counter = 0;
            mutex m;
            barrier b;
            @spmd func f() {
                lock(m);
                for (var i: int = 0; i < n; i = i + 1) {
                    if (i % 2 == 0) { counter = counter + 1; }
                }
                unlock(m);
                barrier(b);
                output(counter);
            }
            "#,
        )
        .expect("compiles"),
    );
    let trace = Traced::install(&lock);
    for quantum in [1, 3, 64] {
        let config = ExecConfig::new(4).quantum(quantum);
        // Thread 0 takes the mutex first and the rest queue up behind it, so
        // a branch in the middle of a thread's critical section is reached
        // while that thread holds the mutex and every later one waits.
        let plans = [flip(0, 20), flip(1, 20), flip(2, 20), flip(3, 20), flip(3, 21)];
        let what = format!("critical sections, q{quantum}");
        let walked = walk(&image, &config, &plans, Some(&trace), &what);
        assert_eq!(walked.forked, plans.len(), "{what}");
        // The fork at thread 0's branch: nothing has been released yet, so
        // what the prefix held back has no lock span in it and all seven
        // of the run's are the fork's to close.
        let mut prefix = SimPrefix::new(&image, &config, &SimEngine.run(&image, &config));
        assert_eq!(prefix.advance_to(&[Some(20)]), Some(0), "{what}");
        let (_, spans) = spans_of(Some(&trace), 0, || ran(prefix.resume(&NoHook)));
        assert_eq!(of_cat(&spans, "lock_hold").len(), 4, "{what}");
        assert_eq!(of_cat(&spans, "lock_wait").len(), 3, "{what}");
    }
}

/// A violation completed by an event of the *prefix* is found by the
/// prefix's own inline monitor, before any fork exists: its verdict arrow
/// and instant are held back with the prefix's spans, and every fork must
/// write them at the sender's clock, with the flow id and at the place
/// among the other records that `run_hooked` gives them. (Forks used to
/// find such a violation by replaying the prefix's event log, hence the
/// name.) No fault-free prefix of a sound plan raises one, so the plan is
/// sabotaged: `threadID` branches checked as if they were `shared`.
#[test]
fn a_violation_the_log_replay_completes_is_traced() {
    let lock = sink_lock();
    let module = bw_ir::frontend::compile(
        r#"
        shared int n = 6;
        shared int two = 2;
        barrier b;
        @spmd func f() {
            var t: int = threadid();
            for (var i: int = 0; i < n; i = i + 1) {
                if (t < two) { output(i); }
            }
            barrier(b);
            for (var k: int = 0; k < n; k = k + 1) {
                if (t < two) { output(k); }
            }
            barrier(b);
            for (var j: int = 0; j < n; j = j + 1) {
                if (j > 2) { output(j); }
            }
        }
        "#,
    )
    .expect("compiles");
    let mut image = ProgramImage::prepare_default(module);
    let staged: Vec<_> = image
        .analysis
        .branches
        .iter()
        .filter(|b| b.category == Category::ThreadId)
        .map(|b| (b.func, b.cond))
        .collect();
    assert_eq!(staged.len(), 2);
    for (func, cond) in staged {
        image.analysis.override_value_category(func, cond, Category::Shared);
    }
    image.replace_plan(CheckPlan::build(&image.module, &image.analysis, image.plan.config));
    let trace = Traced::install(&lock);
    for (quantum, shards) in [(1, 1), (3, 4), (64, 1)] {
        let config = ExecConfig::new(4).quantum(quantum).monitor_shards(Some(shards));
        let (golden, golden_spans) = spans_of(Some(&trace), 0, || SimEngine.run(&image, &config));
        let what = format!("sabotaged plan, q{quantum} s{shards}");
        assert!(golden.violations.len() >= 2, "{what}: the fault-free run is flagged");
        let last = golden.branches_per_thread[1];
        // A fork before anything was sent, one between the two stages (the
        // first stage's verdicts behind it, among the first barrier's
        // spans), and one in the last loop, every verdict behind it.
        let plans = [flip(1, 1), flip(1, last / 2), flip(1, last - 1), flip(2, last + 1)];
        let walked = walk(&image, &config, &plans, Some(&trace), &what);
        assert_eq!(walked.forked, plans.len(), "{what}");
        // The unhooked fork at the end: the prefix's monitor reached every
        // verdict of the run, the fork's tail none.
        let verdicts = of_cat(&golden_spans, "verdict").len();
        assert!(verdicts >= 2, "{what}: {verdicts} verdict(s) traced");
        assert!(
            of_cat(&golden_spans, "barrier_wait").len() == 8,
            "{what}: two barriers, four threads"
        );
        let mut prefix = SimPrefix::new(&image, &config, &golden);
        assert_eq!(prefix.advance_to(&[]), None, "{what}");
        let (end, end_spans) = spans_of(Some(&trace), 0, || ran(prefix.resume(&NoHook)));
        assert_same(&end, &golden, &what);
        assert_same_spans(&end_spans, &golden_spans, &what);
    }
}

/// A fork's flush checks only what its tail joined, which is exact
/// because the golden run was flagged nowhere. Here it is flagged: one
/// branch that only threads 0 and 1 reach, and on which they disagree,
/// is mis-planned as `SharedUniform`, so the golden run's flush finds its
/// two-report instance. Its reports are sent, and checked into the
/// prefix's table, before the barrier; the forks come after, and no
/// report of theirs joins it. Each fork's flush must find it as
/// `run_hooked`'s does.
///
/// Mutation check: the prefix told its golden run was clean whatever it
/// was (`clean` forced `true` in `SimPrefix::new`) → this test, at every
/// fork (`violations`).
#[test]
fn a_flagged_golden_run_leaves_the_forks_flush_unscoped() {
    let _lock = sink_lock();
    let module = bw_ir::frontend::compile(
        r#"
        shared int n = 300;
        int data[320];
        barrier b;
        @spmd func f() {
            var t: int = threadid();
            if (t < 2) {
                if (t == 0) { output(7); }
            }
            barrier(b);
            for (var i: int = 0; i < n; i = i + 1) {
                if (data[i] > t) { output(i); }
            }
        }
        "#,
    )
    .expect("compiles");
    let mut image = ProgramImage::prepare_default(module);
    // The inner `t == 0`: the program's second branch.
    let mut plan = image.plan.clone();
    plan.decisions[1].as_mut().expect("instrumented").kind = CheckKind::SharedUniform;
    image.replace_plan(plan);
    for (quantum, shards) in [(1, 1), (3, 4), (64, 1), (64, 4)] {
        let base = ExecConfig::new(4).quantum(quantum).monitor_shards(Some(shards));
        let golden = SimEngine.run(&image, &base);
        let what = format!("mis-planned branch, q{quantum} s{shards}");
        assert_eq!(golden.outcome, RunOutcome::Completed, "{what}");
        let flagged: Vec<_> = golden.violations.iter().map(|v| (v.branch, v.reporters)).collect();
        assert_eq!(flagged, vec![(1, 2)], "{what}: the flush flags the two-report instance");
        // Each fork comes after its thread alone has sent more than two
        // batches of events (256 each), so the flagged instance's reports
        // are in the prefix's table, not held back for the fork's monitor
        // to process.
        let last = golden.branches_per_thread[3];
        assert!(last > 2 * 256 + 20, "{what}: {last} branches");
        let config = faulty(&base, &golden);
        let plans: Vec<_> =
            (0..4).flat_map(|tid| [flip(tid, last - 20), flip(tid, last - 1)]).collect();
        let walked = walk(&image, &config, &plans, None, &what);
        assert_eq!(walked.forked, plans.len(), "{what}");
    }
}
