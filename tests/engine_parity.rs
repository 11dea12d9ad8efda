//! Sim-vs-real engine parity: both implementations of `bw_vm::Engine` must
//! agree on every schedule-independent observable for every SPLASH-2 port
//! at every swept thread count.
//!
//! Schedule-independent means: the run outcome, the absence of monitor
//! violations, and — for the ports whose outputs do not depend on lock
//! acquisition order — the program outputs themselves (both engines emit
//! outputs in thread-id order). Step counts, cycle attribution and event
//! totals are schedule-*dependent* and deliberately not compared.

use std::sync::{Arc, Mutex};

use blockwatch::ir::BranchId;
use blockwatch::vm::{
    engine, BranchHook, EngineKind, ExecConfig, FaultAction, ProgramImage, RunOutcome,
};
use blockwatch::{Benchmark, Size};

const THREADS: [u32; 4] = [1, 2, 4, 8];

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
        }
    }
}

#[test]
fn engine_metadata_reflects_the_scheduler() {
    assert!(engine(EngineKind::Sim).deterministic());
    assert!(!engine(EngineKind::Real).deterministic());
    assert_eq!(engine(EngineKind::Sim).kind(), EngineKind::Sim);
    assert_eq!(engine(EngineKind::Real).kind(), EngineKind::Real);
}

/// Records every hook consultation, per thread, without injecting.
struct StreamHook(Mutex<Vec<Vec<(u64, u32)>>>);

impl BranchHook for StreamHook {
    fn on_branch(&self, tid: u32, dyn_index: u64, branch: BranchId) -> Option<FaultAction> {
        self.0.lock().unwrap()[tid as usize].push((dyn_index, branch.0));
        None
    }
}

/// Both engines consult the one hook trait at every dynamic branch, so a
/// thread's `(dyn_index, branch)` stream — init and fini included, as
/// thread 0 — is the same whichever scheduler interleaves the threads.
#[test]
fn a_hook_sees_the_same_per_thread_branch_stream_on_both_engines() {
    let n = 4;
    for bench in DETERMINISTIC_OUTPUT_PORTS {
        let image = image(bench);
        let config = ExecConfig::new(n);
        let [sim, real] = [EngineKind::Sim, EngineKind::Real].map(|kind| {
            let hook = StreamHook(Mutex::new(vec![Vec::new(); n as usize]));
            let result = engine(kind).run_hooked(&image, &config, &hook);
            assert_eq!(result.outcome, RunOutcome::Completed, "{} on {kind}", bench.name());
            hook.0.into_inner().unwrap()
        });
        assert!(sim.iter().all(|stream| !stream.is_empty()), "{}", bench.name());
        assert_eq!(sim, real, "{}: hook streams diverge between engines", bench.name());
    }
}
