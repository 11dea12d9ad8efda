//! The engine abstraction: one execution core, pluggable schedulers.
//!
//! Both engines drive the same stepper, `ThreadState::run`, over the same
//! decoded [`ProgramImage`]; what differs is the *scheduler* wrapped around it:
//!
//! * [`SimEngine`] — the deterministic discrete-event scheduler of
//!   [`crate::sim`]: all threads interpreted in one OS thread under an
//!   explicit [`MachineModel`] cost model. Bitwise-reproducible, and the
//!   only engine that runs a program under a [`BranchHook`]
//!   ([`SimEngine::run_hooked`]): every injected fault lands on it.
//! * [`RealEngine`] — the real-threads scheduler of [`crate::real`]: one
//!   OS thread per SPMD thread, atomic shared memory, OS synchronization
//!   and the asynchronous monitor thread. Genuinely concurrent, hence
//!   schedule-dependent; it runs programs fault-free.
//!
//! Both schedulers accept the same [`ExecConfig`] and produce the same
//! [`RunResult`]; fields a scheduler cannot honour are documented on the
//! field and ignored (e.g. the quantum on [`RealEngine`]). The cost model
//! is not a field: every number this repository publishes is simulated
//! cycles on the paper's one testbed, [`MachineModel::opteron_6128`].
//!
//! [`MachineModel`]: crate::machine::MachineModel
//! [`MachineModel::opteron_6128`]: crate::machine::MachineModel::opteron_6128

use bw_ir::Val;
use bw_monitor::{BranchEvent, VerdictTelemetry, Violation, ViolationReport};
use bw_telemetry::TelemetrySnapshot;

use crate::image::ProgramImage;
use crate::telemetry::VmTelemetry;
use crate::thread::{BranchHook, NoHook};
use crate::trap::TrapKind;

/// Which scheduler runs the program.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// The deterministic discrete-event simulator ([`SimEngine`]).
    Sim,
    /// Real OS threads with the asynchronous monitor ([`RealEngine`]).
    Real,
}

impl EngineKind {
    /// Stable lowercase name, used in CLI flags and telemetry labels.
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Sim => "sim",
            EngineKind::Real => "real",
        }
    }
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// What the monitor does with events during a run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MonitorMode {
    /// Events are charged and checked (normal operation).
    Enabled,
    /// Events are charged (and, on the real engine, drained) but verdicts
    /// are discarded — the paper's methodology for the 32-thread
    /// performance runs on the 32-core machine.
    SendOnly,
    /// No instrumentation at all: the baseline program.
    Off,
}

/// How the program executes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ExecMode {
    /// Normal execution.
    Normal,
    /// Software duplication (DMR) baseline: every thread re-executes its
    /// computation and compares (2× instruction cost, as in SWIFT/DAFT-style
    /// software duplication), and every shared access additionally pays a
    /// determinism-enforcement tax proportional to the thread count —
    /// replica pairs must observe identical memory orders, and "forcing
    /// execution order among threads incurs communication and waiting
    /// overheads that are proportional to the number of threads" (paper
    /// Section VI). Used for the Section VI comparison. Only meaningful on
    /// [`SimEngine`] (it is a cost-model effect); [`RealEngine`] ignores it.
    Duplicated,
}

/// Configuration of one run, shared by every engine.
///
/// Construct with [`ExecConfig::new`] and refine with the builder-style
/// setters; the struct is `#[non_exhaustive]`, so literal construction is
/// reserved for this crate (fields may be added without a breaking change).
///
/// Scheduler-specific fields are ignored by the other scheduler and say so
/// in their docs; the common subset (`nthreads`, `monitor`, `seed`,
/// `max_steps`) means the same thing everywhere.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub struct ExecConfig {
    /// Number of SPMD threads.
    pub nthreads: u32,
    /// Monitor behaviour.
    pub monitor: MonitorMode,
    /// Execution mode (normal or duplicated baseline). [`SimEngine`] only.
    pub exec: ExecMode,
    /// Seed for the per-thread PRNGs.
    pub seed: u64,
    /// Hang cutoff. On [`SimEngine`] this bounds the *total* interpreted
    /// instructions across all threads (the scheduler interleaves them in
    /// one loop); on [`RealEngine`] it bounds each thread independently
    /// (threads run free and cannot observe a global count cheaply). The
    /// other way a run hangs, on both engines, is a deadlock: no thread
    /// left running while one waits at a mutex or barrier.
    pub max_steps: u64,
    /// Instructions executed per scheduler slot. [`SimEngine`] only. No
    /// exhibit or binary sets it; it stays a field because the schedule
    /// sweeps of `tests/prefix.rs` and `tests/differential.rs` (quanta 1, 3
    /// and 64) are what pins forks and the decoded stepper to the reference
    /// at slot boundaries the default never produces.
    pub quantum: u32,
    /// Record every [`BranchEvent`] produced in the parallel section on
    /// [`RunResult::branch_events`]. Independent of [`MonitorMode`] (events
    /// are captured even with the monitor off) and free of cycle cost, so
    /// test oracles can observe the event stream without perturbing timing.
    /// [`SimEngine`] only: on the real engine there is no deterministic
    /// event order to record, so the field is ignored and
    /// [`RunResult::branch_events`] stays empty.
    pub capture_events: bool,
    /// When set, the monitor ingest is sharded across this many workers,
    /// each owning a disjoint `(site, branch)` key-space slice (routed by
    /// [`bw_monitor::shard_of`]); `None` is the paper's single monitor
    /// thread, and so is `Some(0)` ([`ExecConfig::monitor_shard_count`]).
    /// On [`SimEngine`] the inline monitor partitions its pending tables
    /// the same way, so verdicts are byte-identical at any shard count.
    pub monitor_shards: Option<usize>,
}

impl ExecConfig {
    /// A default configuration for `nthreads` threads.
    pub fn new(nthreads: u32) -> Self {
        ExecConfig {
            nthreads,
            monitor: MonitorMode::Enabled,
            exec: ExecMode::Normal,
            seed: 0xb10c_0000,
            max_steps: 2_000_000_000,
            quantum: 64,
            capture_events: false,
            monitor_shards: None,
        }
    }

    /// Sets the monitor behaviour.
    pub fn monitor(mut self, monitor: MonitorMode) -> Self {
        self.monitor = monitor;
        self
    }

    /// Sets the execution mode.
    pub fn exec(mut self, exec: ExecMode) -> Self {
        self.exec = exec;
        self
    }

    /// Sets the per-thread PRNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the hang-detection step budget.
    pub fn max_steps(mut self, max_steps: u64) -> Self {
        self.max_steps = max_steps;
        self
    }

    /// Sets the scheduler quantum (instructions per slot).
    pub fn quantum(mut self, quantum: u32) -> Self {
        self.quantum = quantum;
        self
    }

    /// Enables (or disables) branch-event capture on the result.
    pub fn capture_events(mut self, capture: bool) -> Self {
        self.capture_events = capture;
        self
    }

    /// Shards the monitor ingest across `shards` workers (`None` = one
    /// flat monitor).
    pub fn monitor_shards(mut self, shards: Option<usize>) -> Self {
        self.monitor_shards = shards;
        self
    }

    /// Monitor shards on either engine: `None` and `Some(0)` both mean one.
    pub fn monitor_shard_count(&self) -> usize {
        self.monitor_shards.unwrap_or(1).max(1)
    }

    /// The PRNG seed of the serial `@init`/`@fini` phases on either engine.
    pub(crate) fn serial_seed(&self) -> u64 {
        self.seed ^ 0xfeed
    }
}

/// How a run ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunOutcome {
    /// All phases completed.
    Completed,
    /// A thread trapped (the process crashes, as a segfault would).
    Crashed(TrapKind),
    /// The step budget was exhausted or the threads deadlocked.
    Hung,
}

/// Result of one run, shared by every engine.
///
/// Fields a scheduler cannot produce are zero/empty and documented below;
/// everything else means the same thing on both engines.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// How the run ended. On the real engine, the first trap (in thread-id
    /// join order) wins.
    pub outcome: RunOutcome,
    /// Program output: init outputs, then each thread's outputs in thread
    /// order, then fini outputs. The basis for SDC comparison.
    pub outputs: Vec<Val>,
    /// Simulated cycles of the parallel section (max over thread clocks).
    /// Sim engine only; `0` on the real engine (no cost model).
    pub parallel_cycles: u64,
    /// Monitor violations (detections), in the order of
    /// [`bw_monitor::sort_violations`], so fixed-seed runs list violations
    /// identically on both engines and at any worker count.
    pub violations: Vec<Violation>,
    /// Structured provenance for each violation — the site's window,
    /// per-thread table and majority/deviant split captured at detection
    /// time — in lockstep with [`RunResult::violations`].
    pub violation_reports: Vec<ViolationReport>,
    /// Total interpreted instructions (all phases, all threads).
    pub total_steps: u64,
    /// Total monitor events sent by all threads.
    pub events_sent: u64,
    /// Events the monitor side processed: all of `events_sent` whenever a
    /// monitor ran (a real-engine sender waits on a full queue, it never
    /// drops an event); `0` with the monitor off, and on the sim engine
    /// under `SendOnly`, which charges the sends but runs no monitor.
    pub events_processed: u64,
    /// Dynamic branches executed per thread (used by the fault injector's
    /// profiling phase).
    pub branches_per_thread: Vec<u64>,
    /// Interpreted instructions per SPMD thread (parallel section only).
    pub steps_per_thread: Vec<u64>,
    /// The engine that ran it.
    pub engine: EngineKind,
    /// Simulated cycles by cost class. Sim engine only; zero on the real
    /// engine (no cost model).
    pub cycles: VmTelemetry,
    /// What the monitor measured, when one ran: on the sim engine under
    /// [`MonitorMode::Enabled`], on the real engine under `Enabled` or
    /// `SendOnly` once `@init` has completed.
    pub monitor: Option<VerdictTelemetry>,
    /// Every branch event produced in the parallel section, in simulated
    /// execution order. Empty unless [`ExecConfig::capture_events`] is set
    /// — and always empty on the real engine (no deterministic order).
    pub branch_events: Vec<BranchEvent>,
}

impl RunResult {
    /// Whether the monitor flagged a violation.
    pub fn detected(&self) -> bool {
        !self.violations.is_empty()
    }

    /// Everything this run measured, by name: the `vm.cycles.*` buckets
    /// (sim engine), a `vm.engine.<kind>` label counter, `vm.instructions`,
    /// `vm.events_sent`, `vm.branches` and `vm.thread.<tid>.steps`, and the
    /// `monitor.*` instruments when the monitor ran — after the `vm.*`
    /// counters on the sim engine, before them on the real engine. Built on
    /// demand from the fields above; counters and gauges are deterministic
    /// for a given config and seed on the sim engine.
    pub fn telemetry(&self) -> TelemetrySnapshot {
        let mut s = TelemetrySnapshot::new();
        let monitor = |s: &mut TelemetrySnapshot| {
            if let Some(monitor) = &self.monitor {
                monitor.render_to(s);
            }
        };
        match self.engine {
            EngineKind::Sim => self.cycles.render_to(&mut s),
            EngineKind::Real => monitor(&mut s),
        }
        s.push_counter(format!("vm.engine.{}", self.engine.name()), 1);
        s.push_counter("vm.instructions", self.total_steps);
        s.push_counter("vm.events_sent", self.events_sent);
        s.push_counter("vm.branches", self.branches_per_thread.iter().sum::<u64>());
        for (tid, &steps) in self.steps_per_thread.iter().enumerate() {
            s.push_counter(format!("vm.thread.{tid}.steps"), steps);
        }
        if self.engine == EngineKind::Sim {
            monitor(&mut s);
        }
        s
    }
}

/// One scheduler wrapped around the shared interpreter core.
///
/// # Contract
///
/// For every implementation, `run` must:
///
/// * execute init single-threaded, then `nthreads` SPMD threads, then fini
///   single-threaded, collecting outputs in (init, thread-id, fini) order;
/// * classify the end state as `Completed`, first-trap `Crashed`, or
///   `Hung` on budget exhaustion / deadlock;
/// * honour [`MonitorMode`]: `Enabled` checks events, `SendOnly` pays the
///   send path but discards verdicts, `Off` sends nothing.
///
/// What is **not** part of the contract: determinism (only [`SimEngine`]
/// has it), cycle accounting, event capture, and which `ExecConfig` knobs
/// beyond the common subset take effect — those are scheduler properties,
/// documented per field.
pub trait Engine: Sync {
    /// Runs `image` fault-free under this scheduler.
    fn run(&self, image: &ProgramImage, config: &ExecConfig) -> RunResult;
}

/// The deterministic discrete-event scheduler (see [`crate::sim`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct SimEngine;

impl SimEngine {
    /// Runs `image` with a fault-injection hook, consulted at every
    /// dynamic branch (init and fini run as thread 0); a returned
    /// [`FaultAction`](crate::FaultAction) is applied *after* the
    /// instrumentation witness is captured.
    pub fn run_hooked(
        &self,
        image: &ProgramImage,
        config: &ExecConfig,
        hook: &dyn BranchHook,
    ) -> RunResult {
        let result = crate::sim::run_sim_engine(image, config, hook);
        crate::live::record_run(&result);
        result
    }
}

impl Engine for SimEngine {
    fn run(&self, image: &ProgramImage, config: &ExecConfig) -> RunResult {
        self.run_hooked(image, config, &NoHook)
    }
}

/// The real-OS-threads scheduler (see [`crate::real`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct RealEngine;

impl Engine for RealEngine {
    fn run(&self, image: &ProgramImage, config: &ExecConfig) -> RunResult {
        let result = crate::real::run_real_engine(image, config);
        crate::live::record_run(&result);
        result
    }
}

/// The engine implementing `kind`, as a shared static (engines are
/// stateless).
pub fn engine(kind: EngineKind) -> &'static dyn Engine {
    match kind {
        EngineKind::Sim => &SimEngine,
        EngineKind::Real => &RealEngine,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_round_trips_through_names() {
        for (kind, name) in [(EngineKind::Sim, "sim"), (EngineKind::Real, "real")] {
            assert_eq!(kind.name(), name);
            assert_eq!(kind.to_string(), name);
        }
    }

    #[test]
    fn none_and_zero_monitor_shards_are_one() {
        let cfg = ExecConfig::new(4);
        assert_eq!(cfg.monitor_shard_count(), 1);
        assert_eq!(cfg.clone().monitor_shards(Some(0)).monitor_shard_count(), 1);
        assert_eq!(cfg.monitor_shards(Some(4)).monitor_shard_count(), 4);
    }
}
