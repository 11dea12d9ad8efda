//! Cross-crate integration tests: every SPLASH-2 port through the full
//! pipeline (front-end → analysis → instrumentation → both engines), at
//! several thread counts, with determinism and zero-false-positive checks.

use std::sync::Arc;

use blockwatch::vm::{Engine, ExecConfig, ProgramImage, RealEngine, RunOutcome, SimEngine};
use blockwatch::{Benchmark, Blockwatch, Size};

#[test]
fn all_ports_complete_cleanly_at_many_thread_counts() {
    for bench in Benchmark::ALL {
        let bw = Blockwatch::from_module(bench.module(Size::Test).expect("compiles"))
            .expect("verifies");
        for nthreads in [1u32, 2, 4, 8, 16, 32] {
            let result = bw.run(nthreads);
            assert_eq!(
                result.outcome,
                RunOutcome::Completed,
                "{} at {} threads",
                bench.name(),
                nthreads
            );
            assert!(
                !result.detected(),
                "false positive in {} at {} threads: {:?}",
                bench.name(),
                nthreads,
                result.violations
            );
            assert!(result.events_sent > 0, "{} sent no events", bench.name());
        }
    }
}

#[test]
fn sim_runs_are_deterministic() {
    for bench in Benchmark::ALL {
        let image = ProgramImage::prepare_default(bench.module(Size::Test).expect("compiles"));
        let a = SimEngine.run(&image, &ExecConfig::new(4));
        let b = SimEngine.run(&image, &ExecConfig::new(4));
        assert_eq!(a.outputs, b.outputs, "{}", bench.name());
        assert_eq!(a.parallel_cycles, b.parallel_cycles, "{}", bench.name());
        assert_eq!(a.total_steps, b.total_steps, "{}", bench.name());
    }
}

#[test]
fn real_engine_matches_sim_outputs_on_deterministic_ports() {
    // Ports whose outputs are schedule-independent: no lock-order-dependent
    // float accumulation feeding the output, and no data race. FFT is not
    // one of them: in its normalisation phase thread 0 does
    // `im[0] = im[0] / n` while the last thread does `im[0] = 0.0`, with no
    // barrier between (DESIGN §8), so on real threads its first output
    // depends on who stores last. It stays in every clean-completion test.
    for bench in [Benchmark::Radix, Benchmark::Raytrace] {
        let image =
            Arc::new(ProgramImage::prepare_default(bench.module(Size::Test).expect("compiles")));
        let sim = SimEngine.run(&image, &ExecConfig::new(4));
        let real = RealEngine.run(&image, &ExecConfig::new(4));
        assert_eq!(real.outcome, RunOutcome::Completed, "{}", bench.name());
        assert_eq!(sim.outputs, real.outputs, "{}", bench.name());
        assert!(!real.detected(), "{}: {:?}", bench.name(), real.violations);
        assert_eq!(real.events_dropped, 0, "{}", bench.name());
    }
}

#[test]
fn all_ports_are_clean_on_the_real_engine() {
    for bench in Benchmark::ALL {
        let image =
            Arc::new(ProgramImage::prepare_default(bench.module(Size::Test).expect("compiles")));
        let real = RealEngine.run(&image, &ExecConfig::new(4));
        assert_eq!(real.outcome, RunOutcome::Completed, "{}", bench.name());
        assert!(
            !real.detected(),
            "false positive in {} on real threads: {:?}",
            bench.name(),
            real.violations
        );
    }
}

#[test]
fn instrumentation_does_not_change_program_semantics() {
    for bench in Benchmark::ALL {
        let image = ProgramImage::prepare_default(bench.module(Size::Test).expect("compiles"));
        let mut with = ExecConfig::new(4);
        with.monitor = blockwatch::MonitorMode::Enabled;
        let mut without = ExecConfig::new(4);
        without.monitor = blockwatch::MonitorMode::Off;
        let a = SimEngine.run(&image, &with);
        let b = SimEngine.run(&image, &without);
        assert_eq!(a.outputs, b.outputs, "{}", bench.name());
        assert_eq!(a.branches_per_thread, b.branches_per_thread, "{}", bench.name());
    }
}
