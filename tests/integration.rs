//! Cross-crate integration tests: every SPLASH-2 port through the full
//! pipeline (front-end → analysis → instrumentation → the simulator), at
//! several thread counts, with determinism and zero-false-positive checks.
//! The real engine's are in `engine_parity.rs`.

use blockwatch::vm::{Engine, ExecConfig, ProgramImage, RunOutcome, SimEngine};
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
