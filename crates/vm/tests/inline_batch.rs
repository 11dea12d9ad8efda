//! The simulator's inline monitor takes its events in batches: a run holds
//! back what its threads send and hands it over at once, drained when the
//! batch is full and at the end of the run, before the flush. Batching must
//! not move a verdict: a run's `violations`, `violation_reports`,
//! `events_processed` and monitor telemetry must be those of a monitor fed
//! the run's captured `branch_events` one `ShardedMonitor::process` call at
//! a time, and flushed only if the run completed.
//!
//! Cases: the seven ports at `Size::Test`, 4 and 8 threads, 1 and 4 shards,
//! clean and with one injected fault (both fault models); and a program
//! whose `shared` branch splits and which then traps with the split's
//! events still held back, whose crash must keep its eager violation.
//!
//! The stepper builds no event nothing reads: an `Off` run without capture
//! hashes no witness and calls no sink, but `Off` with `capture_events`
//! must still capture the stream an `Enabled` run sends.
//!
//! Mutation check — each of these, applied to `src/sim.rs`, was run
//! against this file in the release profile: the final drain skipped
//! unless the run completed, and the final partial batch dropped instead
//! of drained → `batched_verdicts…` and `a_crash_keeps…`; the final drain
//! moved after the flush → `batched_verdicts…`; a `wants_events` that
//! ignores `capture_events` → `an_unmonitored_capture…`.

use bw_analysis::{Category, CheckKind};
use bw_fault::{plan_campaign, CampaignConfig, FaultModel, InjectionHook};
use bw_monitor::{CheckTable, ShardedMonitor};
use bw_splash::{Benchmark, Size};
use bw_vm::{
    BranchHook, Engine, ExecConfig, MonitorMode, NoHook, ProgramImage, RunOutcome, RunResult,
    SimEngine, TrapKind,
};

fn port(bench: Benchmark) -> ProgramImage {
    ProgramImage::prepare_default(bench.module(Size::Test).expect("port compiles"))
}

/// Replays `run`'s captured events through a fresh monitor, one `process`
/// call each, flushing it only if the run completed, and demands the
/// verdict the run reached.
#[track_caller]
fn assert_replays(image: &ProgramImage, config: &ExecConfig, run: &RunResult, what: &str) {
    let shards = config.monitor_shards.unwrap_or(1);
    let mut monitor =
        ShardedMonitor::new(CheckTable::from_plan(&image.plan), config.nthreads as usize, shards);
    for &event in &run.branch_events {
        monitor.process(event);
    }
    if run.outcome == RunOutcome::Completed {
        monitor.flush();
    }
    let replay = monitor.into_verdict();
    assert_eq!(run.events_sent, run.branch_events.len() as u64, "events_sent: {what}");
    assert_eq!(run.violations, replay.violations, "violations: {what}");
    assert_eq!(run.violation_reports, replay.violation_reports, "violation_reports: {what}");
    assert_eq!(run.events_processed, replay.events_processed, "events_processed: {what}");
    assert_eq!(run.monitor.as_ref(), Some(&replay.telemetry), "monitor telemetry: {what}");
}

fn run(image: &ProgramImage, config: &ExecConfig, hook: &dyn BranchHook) -> RunResult {
    SimEngine.run_hooked(image, config, hook)
}

#[test]
fn batched_verdicts_equal_one_event_at_a_time() {
    let (mut detected, mut cut_short, mut runs) = (0, 0, 0);
    for bench in Benchmark::ALL {
        let image = port(bench);
        for nthreads in [4u32, 8] {
            for shards in [1usize, 4] {
                let config =
                    ExecConfig::new(nthreads).monitor_shards(Some(shards)).capture_events(true);
                let what = format!("{} t{nthreads} s{shards}", bench.name());
                let golden = run(&image, &config, &NoHook);
                assert_eq!(golden.outcome, RunOutcome::Completed, "{what}");
                assert!(golden.events_sent > 0, "{what}");
                assert_replays(&image, &config, &golden, &format!("{what} clean"));
                runs += 1;
                let faulty = config
                    .clone()
                    .max_steps(golden.total_steps.saturating_mul(8).saturating_add(100_000));
                for model in [FaultModel::BranchFlip, FaultModel::ConditionBitFlip] {
                    let campaign = CampaignConfig::new(1, model, nthreads).seed(0x39);
                    let plan = plan_campaign(&golden.branches_per_thread, &campaign)[0];
                    let result = run(&image, &faulty, &InjectionHook::new(plan));
                    assert_replays(&image, &faulty, &result, &format!("{what} {plan:?}"));
                    detected += usize::from(result.detected());
                    cut_short += usize::from(result.outcome != RunOutcome::Completed);
                    runs += 1;
                }
            }
        }
    }
    // The faults must reach both sides of the final flush and a verdict.
    assert!(detected > 0, "no run of {runs} detected anything");
    assert!(cut_short > 0, "every run of {runs} completed");
}

/// Every loop iteration splits a branch checked as `shared` (the plan is
/// sabotaged: the branch is `threadid() == 0`). The barrier after the loop
/// lets every thread report every iteration, so the monitor has the
/// violations as soon as it has the events; then the first thread past the
/// barrier divides by zero. The run sends fewer events than a batch
/// holds, so none has been processed when it crashes.
#[test]
fn a_crash_keeps_the_verdicts_of_its_held_back_events() {
    let module = bw_ir::frontend::compile(
        r#"
        shared int n = 6;
        shared int zero = 0;
        barrier b;
        @spmd func f() {
            for (var i: int = 0; i < n; i = i + 1) {
                if (threadid() == 0) { output(i); }
            }
            barrier(b);
            output(10 / zero);
        }
        "#,
    )
    .expect("compiles");
    let mut image = ProgramImage::prepare_default(module);
    let mut plan = image.plan.clone();
    let check = plan
        .decisions
        .iter_mut()
        .filter_map(|d| d.as_mut().ok())
        .find(|c| matches!(c.kind, CheckKind::ThreadIdPredicate(_)))
        .expect("the threadid() == 0 branch has a threadID check");
    check.kind = CheckKind::SharedUniform;
    check.effective_category = Category::Shared;
    image.replace_plan(plan);
    for (nthreads, shards) in [(4u32, 1usize), (4, 4), (8, 1)] {
        let config = ExecConfig::new(nthreads).monitor_shards(Some(shards)).capture_events(true);
        let what = format!("t{nthreads} s{shards}");
        let result = run(&image, &config, &NoHook);
        assert_eq!(result.outcome, RunOutcome::Crashed(TrapKind::DivideByZero), "{what}");
        assert!(result.events_sent < 256, "{what}: {} events", result.events_sent);
        assert_eq!(result.violations.len(), 6, "{what}: one split per iteration");
        assert_replays(&image, &config, &result, &what);
    }
}

#[test]
fn an_unmonitored_capture_is_the_monitored_stream() {
    for bench in Benchmark::ALL {
        let image = port(bench);
        for nthreads in [1u32, 4] {
            let base = ExecConfig::new(nthreads).capture_events(true);
            let what = format!("{} t{nthreads}", bench.name());
            let on = SimEngine.run(&image, &base);
            let off = SimEngine.run(&image, &base.clone().monitor(MonitorMode::Off));
            assert!(!on.branch_events.is_empty(), "{what}");
            // Unpaid events leave the threads' clocks, and so the
            // interleaving, different: each thread's own stream is the same.
            for tid in 0..nthreads {
                let of = |run: &RunResult| {
                    run.branch_events
                        .iter()
                        .filter(|e| e.thread == tid)
                        .copied()
                        .collect::<Vec<_>>()
                };
                assert_eq!(of(&off), of(&on), "{what}, thread {tid}");
            }
            assert_eq!(off.branch_events.len(), on.branch_events.len(), "{what}");
            // Without capture, nothing else about the run changes.
            let bare = SimEngine
                .run(&image, &base.clone().monitor(MonitorMode::Off).capture_events(false));
            assert!(bare.branch_events.is_empty(), "{what}");
            assert_eq!(bare.outcome, off.outcome, "{what}");
            assert_eq!(bare.total_steps, off.total_steps, "{what}");
            assert_eq!(bare.parallel_cycles, off.parallel_cycles, "{what}");
            assert_eq!(bare.cycles, off.cycles, "{what}");
            assert_eq!(bare.branches_per_thread, off.branches_per_thread, "{what}");
        }
    }
}
