//! The allocation budget of a simulated run.
//!
//! The stepper keeps one register stack and one loop stack per thread and
//! moves a frame's window on them: a call, a return, a control transfer
//! and a phi copy allocate nothing. What a run allocates is its set-up
//! (shared memory, one state per thread, the scheduler's tables, the cost
//! tables), the growth of those two stacks and of each thread's `outputs`
//! as they double, and its result. None of that is per step, and none of
//! it is a metric name: a result keeps its instruments as numbers and names
//! them only when `RunResult::telemetry` is asked. The shared counting
//! allocator measures it.
//!
//! The parent commit allocated a `Vec` for every transfer into a block with
//! phis, two for every call, and a loop stack per frame that entered a
//! loop: tens of thousands of times in the run below.

#[path = "../../../tests/support/counting.rs"]
mod counting;

use bw_splash::{Benchmark, Size};
use bw_vm::{Engine, ExecConfig, MonitorMode, ProgramImage, RunOutcome, SimEngine};
use counting::{allocations, gate};

/// Allocations of one run of raytrace at `size` under `config`, with the
/// steps it took.
fn run_with(size: Size, config: &ExecConfig) -> (u64, u64) {
    let image =
        ProgramImage::prepare_default(Benchmark::Raytrace.module(size).expect("port compiles"));
    let (n, result) = allocations(|| SimEngine.run(&image, config));
    assert_eq!(result.outcome, RunOutcome::Completed);
    (n, result.total_steps)
}

/// Allocations of one monitor-off run of raytrace at `size`, with the
/// steps it took.
fn run(size: Size) -> (u64, u64) {
    run_with(size, &ExecConfig::new(4).monitor(MonitorMode::Off))
}

#[test]
fn a_run_allocates_for_its_setup_and_its_stacks_only() {
    run(Size::Test); // the process's first run registers the live metrics source
    let (test, test_steps) = run(Size::Test);
    let (small, small_steps) = run(Size::Small);
    println!("Size::Test: {test} allocations in {test_steps} steps");
    println!("Size::Small: {small} allocations in {small_steps} steps");
    assert!(test_steps > 200_000, "{test_steps} steps");
    // Measured: 63 at either size (set-up, the stacks' and outputs' few
    // doublings, the result); 98 while a result named its ~20 `vm.*`
    // metrics. The tree-walking stepper the decoded one replaced made
    // 38,110 and 79,603.
    gate("vm.raytrace.test", test, 200);
    // More than twice the work on the same program: a few more doublings.
    assert!(small_steps > 2 * test_steps, "{small_steps} vs {test_steps} steps");
    gate("vm.raytrace.small", small, test + 16);
}

/// A monitored run adds the monitor's tables and its verdict, and with
/// four shards four of each; the result keeps the instruments as numbers,
/// so neither names a metric.
#[test]
fn a_monitored_run_allocates_no_metric_name() {
    run(Size::Test); // the process's first run registers the live metrics source
    let config = ExecConfig::new(4);
    let (flat, _) = run_with(Size::Test, &config);
    let (sharded, _) = run_with(Size::Test, &config.clone().monitor_shards(Some(4)));
    // Measured: 103 and 177. A result that named its metrics made 180 and
    // 325: the ~20 `vm.*` names, twelve `monitor.*` names per shard and
    // their merge, and three `monitor.shard.<i>.*` names per shard.
    gate("vm.raytrace.monitored", flat, 120);
    gate("vm.raytrace.monitored_4_shards", sharded, 197);
}
