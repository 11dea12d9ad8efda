//! Sim-vs-real engine parity: both implementations of `bw_vm::Engine` must
//! agree on every schedule-independent observable for every SPLASH-2 port
//! at every swept thread count.
//!
//! Schedule-independent means: the run outcome, the monitor's verdicts
//! (none on the ports; the same `(branch, kind)` pairs on a program given
//! a check its branch cannot pass), no dropped events, and — for the ports
//! whose outputs do not depend on lock acquisition order — the program
//! outputs themselves (both engines emit outputs in thread-id order). Step
//! counts, cycle attribution and event totals are schedule-*dependent* and
//! deliberately not compared.

use std::sync::Arc;

use blockwatch::vm::{engine, EngineKind, ExecConfig, ProgramImage, RunOutcome, RunResult};
use blockwatch::{Benchmark, Category, CheckKind, Size};

const THREADS: [u32; 5] = [1, 2, 4, 8, 32];

/// Ports whose outputs are schedule-independent: no lock-order-dependent
/// float accumulation feeding the output, and no data race. That excludes
/// FFT, whose normalisation phase has thread 0 compute `im[0] = im[0] / n`
/// while the last thread stores `im[0] = 0.0` with no barrier between
/// (DESIGN §8): on real threads its first output depends on who stores
/// last. FFT stays in every clean-completion test below.
const DETERMINISTIC_OUTPUT_PORTS: [Benchmark; 2] = [Benchmark::Radix, Benchmark::Raytrace];

fn image(bench: Benchmark) -> Arc<ProgramImage> {
    Arc::new(ProgramImage::prepare_default(bench.module(Size::Test).expect("compiles")))
}

#[test]
fn every_port_completes_cleanly_on_both_engines() {
    let sim = engine(EngineKind::Sim);
    let real = engine(EngineKind::Real);
    for bench in Benchmark::ALL {
        let image = image(bench);
        for n in THREADS {
            let config = ExecConfig::new(n);
            for (eng, label) in [(sim, "sim"), (real, "real")] {
                let r = eng.run(&image, &config);
                assert_eq!(
                    r.outcome,
                    RunOutcome::Completed,
                    "{} at {n} threads on {label}",
                    bench.name()
                );
                assert!(
                    !r.detected(),
                    "false positive in {} at {n} threads on {label}: {:?}",
                    bench.name(),
                    r.violations
                );
            }
        }
    }
}

/// Many parked waiters are what a miscounted handoff between a release and
/// the threads it wakes trips on: every port, run again and again at 32
/// threads on the real engine, must complete every time (fewer repeats in
/// debug builds, where each run is slower).
#[test]
fn every_port_completes_every_time_at_32_threads_on_the_real_engine() {
    let repeats = if cfg!(debug_assertions) { 5 } else { 20 };
    let config = ExecConfig::new(32);
    for bench in Benchmark::ALL {
        let image = image(bench);
        for run in 0..repeats {
            let r = engine(EngineKind::Real).run(&image, &config);
            assert_eq!(r.outcome, RunOutcome::Completed, "{} run {run}", bench.name());
        }
    }
}

#[test]
fn engines_agree_on_outputs_of_deterministic_ports() {
    for bench in DETERMINISTIC_OUTPUT_PORTS {
        let image = image(bench);
        for n in THREADS {
            let config = ExecConfig::new(n);
            let sim = engine(EngineKind::Sim).run(&image, &config);
            let real = engine(EngineKind::Real).run(&image, &config);
            assert_eq!(sim.outcome, real.outcome, "{} at {n} threads", bench.name());
            assert_eq!(
                sim.outputs,
                real.outputs,
                "{} at {n} threads: sim and real outputs diverge",
                bench.name()
            );
            assert_eq!(real.events_dropped, 0, "{} at {n} threads", bench.name());
        }
    }
}

/// A `threadID` branch (`threadid() == 0`, taken by thread 0 alone) given a
/// `shared` check: every loop iteration is a direction split the monitor
/// must flag. Only thread 0 writes outputs, so they do not depend on the
/// schedule.
fn split_image() -> ProgramImage {
    let module = blockwatch::ir::frontend::compile(
        r#"
        shared int n = 6;
        barrier b;
        @spmd func f() {
            for (var i: int = 0; i < n; i = i + 1) {
                if (threadid() == 0) { output(i); }
                barrier(b);
            }
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
    image
}

/// The real engine reaches the simulator's verdicts on the split, with one
/// monitor thread and with four shard workers.
#[test]
fn the_real_engine_reports_the_violations_the_simulator_does() {
    let image = split_image();
    let verdicts = |result: &RunResult| {
        let mut pairs: Vec<_> = result.violations.iter().map(|v| (v.branch, v.kind)).collect();
        pairs.sort_unstable();
        pairs
    };
    let config = ExecConfig::new(4);
    let sim = engine(EngineKind::Sim).run(&image, &config);
    assert!(sim.detected(), "the simulator misses the split");
    for shards in [None, Some(4)] {
        let real = engine(EngineKind::Real).run(&image, &config.clone().monitor_shards(shards));
        assert_eq!(real.outcome, RunOutcome::Completed, "{shards:?} shards");
        assert_eq!(real.events_dropped, 0, "{shards:?} shards");
        assert!(real.detected(), "the real engine misses the split at {shards:?} shards");
        assert_eq!(verdicts(&real), verdicts(&sim), "{shards:?} shards");
    }
}

/// `monitor_shards(Some(0))` is one monitor shard on either engine, as
/// `None` is: the same outcome, outputs and violations.
#[test]
fn zero_monitor_shards_run_as_one_on_both_engines() {
    let image = split_image();
    let config = ExecConfig::new(4);
    for kind in [EngineKind::Sim, EngineKind::Real] {
        let one = engine(kind).run(&image, &config);
        let zero = engine(kind).run(&image, &config.clone().monitor_shards(Some(0)));
        assert!(one.detected(), "{kind}: the split goes unflagged");
        assert_eq!(zero.outcome, one.outcome, "{kind}");
        assert_eq!(zero.outputs, one.outputs, "{kind}");
        assert_eq!(zero.violations, one.violations, "{kind}");
    }
}
