//! Forks that check only what differs from the golden run, against forks
//! that check their whole tail.
//!
//! A prefix made by `SimPrefix::with_profile` gives each fork a difference
//! monitor ([`bw_monitor::DifferenceMonitor`]); one made by
//! `SimPrefix::new` gives each a copy of its own monitor, the exact path.
//! Every test here walks both over the same plans, the way a campaign
//! window does, and demands the same `Fork` from each, whole `RunResult`s
//! field for field — `monitor` telemetry included, so every injection
//! record a campaign builds from them is the same too. The sweeps cover the
//! seven ports at `Size::Test`, both fault models, 4 and 32 threads, and
//! 200 generated modules; debug builds take every `STRIDE`-th plan, and
//! `scripts/ci.sh difference` runs this file in release with every plan.
//! The targeted tests pin when a fork must leave the difference path: a
//! flagged golden run, an instance that fails as it completes, a sharded
//! monitor and a span sink.
//!
//! Mutation check — each of these, run against this file in the release
//! profile, fails the test named:
//! * `SimPrefix::with_profile` ignoring whether the golden run was flagged
//!   → `a_flagged_golden_run_gets_no_difference_monitor`;
//! * `SimPrefix::golden_profile` indexing the events the golden run handed
//!   in captured instead of a run of the configuration's own → every fork
//!   on the exact path in
//!   `a_golden_run_of_another_schedule_is_profiled_on_the_configurations_own`.
//!
//! Aimed at, not yet run
//! (the monitor crate's `tests/difference.rs` confirms its own):
//! * `DifferenceMonitor`'s check of an instance leaving out the golden
//!   reports the fork sent it → `difference_forks_equal_full_forks…` (the
//!   ports) and `an_instance_that_fails_as_it_completes…`;
//! * a completed instance a delta report joined not checked at once (only
//!   at the flush) → `an_instance_that_fails_as_it_completes…`.

use std::sync::{Mutex, MutexGuard};

use bw_analysis::CheckKind;
use bw_fault::{plan_campaign, CampaignConfig, ConditionLiveness, FaultModel, InjectionHook, InjectionPlan};
use bw_gen::{generate_module, GenConfig};
use bw_ir::{Type, Val};
use bw_monitor::{CheckTable, GoldenProfile};
use bw_splash::{Benchmark, Size};
use bw_vm::{
    Engine, ExecConfig, Fork, ForkLedger, ProgramImage, RunOutcome, RunResult, SimEngine,
    SimPrefix,
};

/// Held by every test here: one installs the process-global span sink,
/// under which no prefix takes a profile.
static SINK_LOCK: Mutex<()> = Mutex::new(());

fn sink_lock() -> MutexGuard<'static, ()> {
    SINK_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Plans forked per sweep cell: one in this many.
const STRIDE: usize = if cfg!(debug_assertions) { 8 } else { 1 };

/// Values by type and bit pattern, so a NaN equals itself.
fn bits(values: &[Val]) -> Vec<(Type, u64)> {
    values.iter().map(|v| (v.ty(), v.bits())).collect()
}

#[track_caller]
fn assert_same(a: &RunResult, b: &RunResult, what: &str) {
    assert_eq!(a.outcome, b.outcome, "outcome: {what}");
    assert_eq!(a.total_steps, b.total_steps, "total_steps: {what}");
    assert_eq!(a.steps_per_thread, b.steps_per_thread, "steps_per_thread: {what}");
    assert_eq!(a.branches_per_thread, b.branches_per_thread, "branches_per_thread: {what}");
    assert_eq!(a.parallel_cycles, b.parallel_cycles, "parallel_cycles: {what}");
    assert_eq!(bits(&a.outputs), bits(&b.outputs), "outputs: {what}");
    assert_eq!(a.events_sent, b.events_sent, "events_sent: {what}");
    assert_eq!(a.events_processed, b.events_processed, "events_processed: {what}");
    assert_eq!(a.branch_events, b.branch_events, "branch_events: {what}");
    assert_eq!(a.violations, b.violations, "violations: {what}");
    assert_eq!(a.violation_reports, b.violation_reports, "violation_reports: {what}");
    assert_eq!(a.engine, b.engine, "engine: {what}");
    assert_eq!(a.cycles, b.cycles, "cycles: {what}");
    assert_eq!(a.monitor, b.monitor, "monitor: {what}");
}

#[track_caller]
fn assert_same_fork(a: &Fork, b: &Fork, what: &str) {
    match (a, b) {
        (Fork::Ran(a), Fork::Ran(b)) => assert_same(a, b, what),
        (Fork::Stopped { steps: a }, Fork::Stopped { steps: b }) => assert_eq!(a, b, "{what}"),
        _ => panic!("{what}: one fork stopped and the other ran"),
    }
}

/// The campaign's own hang cut-off (bw-fault's `validate_and_plan`).
fn faulty(config: &ExecConfig, golden: &RunResult) -> ExecConfig {
    config.clone().max_steps(golden.total_steps.saturating_mul(8).saturating_add(100_000))
}

fn add(a: ForkLedger, b: ForkLedger) -> ForkLedger {
    ForkLedger {
        difference: a.difference + b.difference,
        exact: a.exact + b.exact,
        monitor_clones: a.monitor_clones + b.monitor_clones,
        full_monitor_events: a.full_monitor_events + b.full_monitor_events,
    }
}

/// What the profiled side of a walk did: its forks' ledger, and what each
/// fork returned, in `plans` order (`None` for a plan that fires in
/// `@init`).
struct Walk {
    ledger: ForkLedger,
    forks: Vec<Option<Fork>>,
}

/// Advances a prefix of each kind past every plan, the way a campaign
/// window does — plans bucketed per thread in ascending `dyn_index`, one
/// fork at each, the last taking the prefix itself — and demands the same
/// fork from both: `profiled` (a `SimPrefix::with_profile` given `profile`)
/// and a `SimPrefix::new`. Both hooks answer `dead_after`, so condition
/// flips that change nothing stop on both sides.
#[track_caller]
fn walk_with(
    image: &ProgramImage,
    config: &ExecConfig,
    golden: &RunResult,
    profile: Option<&GoldenProfile>,
    plans: &[InjectionPlan],
    what: &str,
) -> Walk {
    let mut exact = SimPrefix::new(image, config, golden);
    let mut profiled = match profile {
        Some(profile) => SimPrefix::with_profile(image, config, golden, profile),
        None => SimPrefix::new(image, config, golden),
    };
    let liveness = ConditionLiveness::new(image);
    let mut walk = Walk { ledger: ForkLedger::default(), forks: plans.iter().map(|_| None).collect() };
    let mut queues: Vec<Vec<(u64, usize)>> = vec![Vec::new(); config.nthreads as usize];
    for (i, plan) in plans.iter().enumerate() {
        if plan.tid != 0 || plan.dyn_index > exact.init_branches() {
            queues[plan.tid as usize].push((plan.dyn_index, i));
        }
    }
    for queue in &mut queues {
        queue.sort_unstable_by(|a, b| b.cmp(a));
    }
    let head = |queue: &Vec<(u64, usize)>| queue.last().map(|&(k, _)| k);
    let mut targets: Vec<Option<u64>> = queues.iter().map(head).collect();
    while let Some(waiting) = targets.iter().position(Option::is_some) {
        let reached = exact.advance_to(&targets);
        assert_eq!(profiled.advance_to(&targets), reached, "{what}: the prefixes part");
        let tid = reached.map_or(waiting, |tid| tid as usize);
        let (_, i) = queues[tid].pop().expect("a thread with a target");
        targets[tid] = head(&queues[tid]);
        let what = format!("{what} #{i} {:?}", plans[i]);
        let hook = InjectionHook::pruning(plans[i], &liveness);
        let other = InjectionHook::pruning(plans[i], &liveness);
        let before = ForkLedger::of_this_thread();
        if targets.iter().all(Option::is_none) {
            let fork = profiled.finish(&hook);
            walk.ledger = add(walk.ledger, ForkLedger::of_this_thread().since(before));
            assert_same_fork(&fork, &exact.finish(&other), &what);
            walk.forks[i] = Some(fork);
            break;
        }
        let fork = profiled.resume(&hook);
        walk.ledger = add(walk.ledger, ForkLedger::of_this_thread().since(before));
        assert_same_fork(&fork, &exact.resume(&other), &what);
        walk.forks[i] = Some(fork);
    }
    walk
}

/// [`walk_with`] the profile a campaign would build.
#[track_caller]
fn walk(image: &ProgramImage, base: &ExecConfig, plans: &[InjectionPlan], what: &str) -> Walk {
    let golden = SimEngine.run(image, base);
    let config = faulty(base, &golden);
    let profile = SimPrefix::golden_profile(image, &config, &golden);
    walk_with(image, &config, &golden, profile.as_ref(), plans, what)
}

fn port(bench: Benchmark) -> ProgramImage {
    ProgramImage::prepare_default(bench.module(Size::Test).expect("port compiles"))
}

#[test]
fn difference_forks_equal_full_forks_on_the_ports() {
    let _lock = sink_lock();
    let mut total = ForkLedger::default();
    for bench in Benchmark::ALL {
        let image = port(bench);
        for nthreads in [4u32, 32] {
            let base = ExecConfig::new(nthreads);
            let golden = SimEngine.run(&image, &base);
            for model in [FaultModel::BranchFlip, FaultModel::ConditionBitFlip] {
                let campaign = CampaignConfig::new(40, model, nthreads).seed(0);
                let plans: Vec<_> = plan_campaign(&golden.branches_per_thread, &campaign)
                    .into_iter()
                    .step_by(STRIDE)
                    .collect();
                let what = format!("{} t{nthreads} {model:?}", bench.name());
                total = add(total, walk(&image, &base, &plans, &what).ledger);
            }
        }
    }
    assert!(total.difference > 0 && total.exact > 0, "{total:?}");
}

#[test]
fn difference_forks_equal_full_forks_on_generated_modules() {
    let _lock = sink_lock();
    let gen = GenConfig::default();
    let mut total = ForkLedger::default();
    for seed in (0..200u64).step_by(STRIDE) {
        let image = ProgramImage::prepare_default(generate_module(seed, &gen));
        let nthreads = [2u32, 4, 8, 32][seed as usize % 4];
        let quantum = [1u32, 3, 64][(seed as usize / 4) % 3];
        let base = ExecConfig::new(nthreads).quantum(quantum);
        let golden = SimEngine.run(&image, &base);
        if golden.outcome != RunOutcome::Completed {
            continue; // the generator's own failures are `bw fuzz`'s business
        }
        let model =
            if seed % 2 == 0 { FaultModel::BranchFlip } else { FaultModel::ConditionBitFlip };
        let plans = plan_campaign(&golden.branches_per_thread, &CampaignConfig::new(6, model, nthreads).seed(seed));
        let what = format!("seed {seed:#x} t{nthreads} q{quantum}");
        total = add(total, walk(&image, &base, &plans, &what).ledger);
    }
    assert!(total.difference > 0 && total.exact > 0, "{total:?}");
}

fn flip(tid: u32, dyn_index: u64) -> InjectionPlan {
    InjectionPlan { tid, dyn_index, model: FaultModel::BranchFlip, value_choice: 0, bit: 0 }
}

/// The profile of `base`'s golden run, built from its events whatever the
/// run concluded (`SimPrefix::golden_profile` builds none for a flagged
/// one).
fn profile_of(image: &ProgramImage, base: &ExecConfig) -> GoldenProfile {
    let captured = SimEngine.run(image, &base.clone().capture_events(true));
    let checks = CheckTable::from_plan(&image.plan);
    GoldenProfile::new(checks, base.nthreads as usize, &captured.branch_events)
        .expect("no thread reports a key twice")
}

/// The set-up of `prefix.rs`'s `a_flagged_golden_run_leaves_the_forks_flush_
/// unscoped`: a branch only threads 0 and 1 reach, on which they disagree,
/// mis-planned as `SharedUniform`, so the golden run's flush flags its
/// two-report instance, which no fork's tail joins. A fork whose difference
/// monitor took the golden run for clean would find nothing; the prefix
/// must give every fork the exact path.
#[test]
fn a_flagged_golden_run_gets_no_difference_monitor() {
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
    let mut plan = image.plan.clone();
    plan.decisions[1].as_mut().expect("instrumented").kind = CheckKind::SharedUniform;
    image.replace_plan(plan);
    for quantum in [1, 64] {
        let base = ExecConfig::new(4).quantum(quantum);
        let golden = SimEngine.run(&image, &base);
        let what = format!("mis-planned branch, q{quantum}");
        assert_eq!(golden.violations.len(), 1, "{what}: the golden run is flagged");
        let config = faulty(&base, &golden);
        assert!(SimPrefix::golden_profile(&image, &config, &golden).is_none(), "{what}");
        let profile = profile_of(&image, &base);
        let last = golden.branches_per_thread[3];
        let plans: Vec<_> =
            (0..4).flat_map(|tid| [flip(tid, last - 20), flip(tid, last - 1)]).collect();
        let walked = walk_with(&image, &config, &golden, Some(&profile), &plans, &what);
        assert_eq!(walked.ledger.difference, 0, "{what}");
        assert_eq!(walked.ledger.exact, plans.len() as u64, "{what}");
    }
}

/// A flip in the first phase makes its instance fail as it completes, and
/// leaves the flipped thread dividing by zero after the barrier. A crashed
/// run has no flush, so only an eager check finds the violation: the fork
/// must leave the difference path mid-tail, when the instance completes,
/// and report what `run_hooked` reports.
#[test]
fn an_instance_that_fails_as_it_completes_takes_the_exact_path_mid_tail() {
    let _lock = sink_lock();
    let image = ProgramImage::prepare_default(
        bw_ir::frontend::compile(
            r#"
            shared int n = 16;
            barrier b;
            @spmd func f() {
                var c: int = 0;
                for (var i: int = 0; i < n; i = i + 1) {
                    if (i % 2 == 0) { c = c + 1; }
                }
                barrier(b);
                output(10 / (c - n / 2 + 1));
                for (var j: int = 0; j < n; j = j + 1) {
                    if (j % 3 == 0) { output(j); }
                }
            }
            "#,
        )
        .expect("compiles"),
    );
    let base = ExecConfig::new(4);
    let golden = SimEngine.run(&image, &base);
    assert!(golden.outcome == RunOutcome::Completed && golden.violations.is_empty());
    let config = faulty(&base, &golden);
    let plans: Vec<_> = (0..4).flat_map(|tid| (1..=24).map(move |k| flip(tid, k))).collect();
    let profile = SimPrefix::golden_profile(&image, &config, &golden).expect("a clean golden run");
    let walked = walk_with(&image, &config, &golden, Some(&profile), &plans, "crash after a flip");
    let crashed_detected = walked
        .forks
        .iter()
        .flatten()
        .filter(|fork| match fork {
            Fork::Ran(run) => matches!(run.outcome, RunOutcome::Crashed(_)) && run.detected(),
            Fork::Stopped { .. } => false,
        })
        .count();
    assert!(crashed_detected > 0, "no flip both crashed the run and was detected");
    // Every flip here is detected: each fork ends on the exact path.
    assert_eq!(walked.ledger.difference, 0, "{:?}", walked.ledger);
}

/// A profile is always of the faulty configuration's own schedule, taken
/// from a run of it: a golden run handed in from another schedule (another
/// quantum, the same events and steps, its own events captured) is
/// profiled as the configuration runs, and its forks equal full ones; one
/// that ends otherwise (another thread count) gets no profile.
#[test]
fn a_golden_run_of_another_schedule_is_profiled_on_the_configurations_own() {
    let _lock = sink_lock();
    let image = port(Benchmark::WaterNsquared);
    let other = SimEngine.run(&image, &ExecConfig::new(4).quantum(1).capture_events(true));
    let base = ExecConfig::new(4).quantum(64);
    let golden = SimEngine.run(&image, &base);
    assert_eq!((other.events_sent, other.total_steps), (golden.events_sent, golden.total_steps));
    let own = SimEngine.run(&image, &base.clone().capture_events(true)).branch_events;
    assert_ne!(other.branch_events, own, "the schedules differ");
    let config = faulty(&base, &golden);
    let profile = SimPrefix::golden_profile(&image, &config, &other).expect("the same counts");
    let plans = plan_campaign(
        &golden.branches_per_thread,
        &CampaignConfig::new(8, FaultModel::BranchFlip, 4).seed(0),
    );
    let walked = walk_with(&image, &config, &golden, Some(&profile), &plans, "water, q1 golden");
    assert!(walked.ledger.difference > 0, "{:?}", walked.ledger);
    let eight = SimEngine.run(&image, &ExecConfig::new(8));
    assert!(SimPrefix::golden_profile(&image, &config, &eight).is_none());
}

/// Per-shard telemetry is more than one set of instruments moved on: with
/// a sharded monitor a fork takes the exact path, profile or not.
#[test]
fn a_sharded_monitor_takes_the_exact_path() {
    let _lock = sink_lock();
    let image = port(Benchmark::WaterNsquared);
    let base = ExecConfig::new(4).monitor_shards(Some(4));
    let golden = SimEngine.run(&image, &base);
    let config = faulty(&base, &golden);
    assert!(SimPrefix::golden_profile(&image, &config, &golden).is_none());
    let profile = profile_of(&image, &base);
    let plans = plan_campaign(
        &golden.branches_per_thread,
        &CampaignConfig::new(8, FaultModel::BranchFlip, 4).seed(0),
    );
    let walked = walk_with(&image, &config, &golden, Some(&profile), &plans, "water, 4 shards");
    assert_eq!(walked.ledger.difference, 0);
    assert_eq!(walked.ledger.exact as usize, walked.forks.iter().flatten().count());
}

/// A fork under a span sink owes the sink its verdict arrows at their
/// place among the spans: it takes the exact path.
#[test]
fn a_span_sink_takes_the_exact_path() {
    let _lock = sink_lock();
    let image = port(Benchmark::Raytrace);
    let base = ExecConfig::new(4);
    let golden = SimEngine.run(&image, &base);
    let config = faulty(&base, &golden);
    let profile = SimPrefix::golden_profile(&image, &config, &golden).expect("a clean golden run");
    bw_telemetry::set_trace_sink(Some(std::sync::Arc::new(bw_telemetry::NullRecorder)));
    assert!(SimPrefix::golden_profile(&image, &config, &golden).is_none());
    let plans = plan_campaign(
        &golden.branches_per_thread,
        &CampaignConfig::new(4, FaultModel::BranchFlip, 4).seed(0),
    );
    let walked = walk_with(&image, &config, &golden, Some(&profile), &plans, "raytrace, traced");
    bw_telemetry::set_trace_sink(None);
    assert_eq!(walked.ledger.difference, 0);
    assert_eq!(walked.ledger.exact, plans.len() as u64);
}
