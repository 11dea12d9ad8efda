//! # bw-vm — execution engines for BLOCKWATCH programs
//!
//! Runs the SPMD IR of [`bw_ir`] with the instrumentation planned by
//! [`bw_analysis`], reporting to the [`bw_monitor`] runtime monitor. Two
//! engines share one interpreter core:
//!
//! * **Deterministic simulated engine** ([`SimEngine`]): all threads are
//!   interpreted under a discrete-event scheduler with an explicit
//!   [`MachineModel`] (the paper's 4-socket, 32-core Opteron testbed).
//!   Execution is a deterministic function of program, thread count and
//!   seed — the substrate for the fault-injection campaigns (which need
//!   golden-run comparison) and the performance figures (which need a
//!   32-core machine this reproduction does not have).
//! * **Real-threads engine** ([`RealEngine`]): one OS thread per SPMD
//!   thread plus the asynchronous monitor thread of the paper, with the
//!   lock-free queues actually crossing threads. Used to validate the
//!   monitor machinery under true concurrency.
//!
//! Both are implementations of the [`Engine`] trait over one unified
//! [`ExecConfig`]/[`RunResult`] pair — pick one at runtime with
//! [`engine`]`(`[`EngineKind`]`)`; [`Engine::run`] and
//! [`Engine::run_hooked`] are the only way to execute. Determinism is a
//! property of the scheduler ([`Engine::deterministic`]), not of the shared
//! core.
//!
//! # Examples
//!
//! ```
//! use bw_vm::{Engine, ExecConfig, ProgramImage, RunOutcome, SimEngine};
//!
//! let module = bw_ir::frontend::compile(r#"
//!     shared int n = 8;
//!     @spmd func slave() {
//!         var t: int = threadid();
//!         for (var i: int = 0; i < n; i = i + 1) { output(t * n + i); }
//!     }
//! "#).unwrap();
//! let image = ProgramImage::prepare_default(module);
//! let result = SimEngine.run(&image, &ExecConfig::new(4));
//! assert_eq!(result.outcome, RunOutcome::Completed);
//! assert_eq!(result.outputs.len(), 32);
//! assert!(!result.detected());
//! ```

#![warn(missing_docs)]

mod engine;
mod image;
mod live;
mod machine;
mod memory;
mod real;
mod sim;
mod span;
mod telemetry;
mod thread;
mod trap;

pub use engine::{
    engine, Engine, EngineKind, ExecConfig, ExecMode, MonitorMode, RealEngine, RunOutcome,
    RunResult, SimEngine,
};
pub use image::{PrepareTimings, ProgramImage};
pub use machine::MachineModel;
pub use memory::{AtomicMemory, LocalMemory, SharedMemory, SimMemory};
pub use sim::SimPrefix;
pub use telemetry::VmTelemetry;
pub use thread::{BranchHook, FaultAction, NoHook, SplitMix64, MAX_CALL_DEPTH};
pub use trap::TrapKind;
