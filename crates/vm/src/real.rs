//! The real-threads engine: one OS thread per SPMD thread, atomic shared
//! memory, OS mutexes/barriers, per-thread lock-free queues and the
//! asynchronous monitor thread — the paper's actual runtime architecture.
//!
//! This engine has no cost model (wall-clock on the host is meaningless for
//! the paper's 32-core numbers; that is the simulator's job) but it
//! exercises the concurrency for real: queue pushes race with the monitor's
//! drains, and memory is genuinely shared. Used for the false-positive
//! experiments, the sim-vs-real parity suite and as a sanity check that the
//! lock-free machinery works.
//!
//! Unlike the simulator, this scheduler cannot observe a deadlock directly
//! (a thread stuck in `pthread_barrier_wait` is invisible to the others),
//! so blocked threads carry a wall-clock **watchdog**
//! ([`ExecConfig::watchdog_ms`]): a thread that waits past the deadline
//! declares the run hung, trips a shared stop flag and wakes every waiter
//! — the moral equivalent of the paper's injection-harness timeout. The
//! first trap likewise trips the stop flag, because a trap in a real
//! process kills every thread, which is also exactly what the simulator
//! models.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use bw_ir::Val;
use bw_monitor::{
    BranchEvent, CheckTable, EventSender, MonitorBuilder, MonitorHandle, MonitorTopology,
};
use bw_telemetry::{Recorder, TimeDomain};

use crate::engine::{EngineKind, ExecConfig, MonitorMode, RunOutcome, RunResult};
use crate::image::ProgramImage;
use crate::memory::AtomicMemory;
use crate::span::{lane, Span};
use crate::telemetry::VmTelemetry;
use crate::thread::{CostClass, NoHook, NoSink, Sink, ThreadState, Yield};
use crate::trap::TrapKind;

/// How a blocking wait ended.
#[derive(Clone, Copy, PartialEq, Eq)]
enum WaitOutcome {
    /// The wait completed normally (lock acquired / barrier released).
    Released,
    /// Another thread tripped the stop flag while we waited.
    Stopped,
    /// The watchdog deadline passed: the run is deadlocked.
    TimedOut,
}

/// A mutex usable with unpaired lock/unlock coming from interpreted code,
/// with stop-flag and watchdog support on the blocking path.
struct RawMutex {
    state: Mutex<bool>,
    cv: Condvar,
}

impl RawMutex {
    fn new() -> Self {
        RawMutex { state: Mutex::new(false), cv: Condvar::new() }
    }

    fn lock(&self, stop: &AtomicBool, deadline: Instant) -> WaitOutcome {
        let mut held = self.state.lock().expect("mutex poisoned");
        while *held {
            if stop.load(Ordering::Relaxed) {
                return WaitOutcome::Stopped;
            }
            let now = Instant::now();
            if now >= deadline {
                return WaitOutcome::TimedOut;
            }
            let (guard, _) =
                self.cv.wait_timeout(held, deadline - now).expect("mutex poisoned");
            held = guard;
        }
        *held = true;
        WaitOutcome::Released
    }

    /// Returns `false` if the mutex was not held (interpreter bug or
    /// fault-corrupted control flow).
    fn unlock(&self) -> bool {
        let mut held = self.state.lock().expect("mutex poisoned");
        if !*held {
            return false;
        }
        *held = false;
        self.cv.notify_one();
        true
    }

    /// Wakes every waiter so it can observe a freshly tripped stop flag.
    fn interrupt(&self) {
        let _guard = self.state.lock().expect("mutex poisoned");
        self.cv.notify_all();
    }
}

/// A reusable barrier with stop-flag and watchdog support. `std`'s
/// `Barrier` cannot be interrupted, which would leave workers stuck forever
/// when a fault makes one thread miss its arrival.
struct RawBarrier {
    state: Mutex<BarrierGen>,
    cv: Condvar,
    participants: usize,
}

struct BarrierGen {
    arrived: usize,
    generation: u64,
}

impl RawBarrier {
    fn new(participants: usize) -> Self {
        RawBarrier {
            state: Mutex::new(BarrierGen { arrived: 0, generation: 0 }),
            cv: Condvar::new(),
            participants,
        }
    }

    fn wait(&self, stop: &AtomicBool, deadline: Instant) -> WaitOutcome {
        let mut s = self.state.lock().expect("barrier poisoned");
        s.arrived += 1;
        if s.arrived >= self.participants {
            s.arrived = 0;
            s.generation = s.generation.wrapping_add(1);
            self.cv.notify_all();
            return WaitOutcome::Released;
        }
        let generation = s.generation;
        while s.generation == generation {
            if stop.load(Ordering::Relaxed) {
                s.arrived -= 1;
                return WaitOutcome::Stopped;
            }
            let now = Instant::now();
            if now >= deadline {
                s.arrived -= 1;
                return WaitOutcome::TimedOut;
            }
            let (guard, _) = self.cv.wait_timeout(s, deadline - now).expect("barrier poisoned");
            s = guard;
        }
        WaitOutcome::Released
    }

    /// Wakes every waiter so it can observe a freshly tripped stop flag.
    fn interrupt(&self) {
        let _guard = self.state.lock().expect("barrier poisoned");
        self.cv.notify_all();
    }
}

/// Trips the stop flag and wakes everything that might be blocked on it.
/// Notifications happen under each primitive's lock, so a waiter that has
/// checked the flag but not yet parked cannot miss the wakeup.
fn trip_stop(stop: &AtomicBool, mutexes: &[RawMutex], barriers: &[RawBarrier]) {
    stop.store(true, Ordering::Relaxed);
    for m in mutexes {
        m.interrupt();
    }
    for b in barriers {
        b.interrupt();
    }
}

/// Wall-clock span collection for one real-engine worker, active only
/// while a trace sink is installed (`bw_telemetry::set_trace_sink`, the
/// `--trace-spans` path). Mirrors the simulator's `SimTracer` vocabulary
/// — barrier-phase spans with per-phase step/branch counts, barrier-wait
/// stalls, lock wait/hold intervals — but timestamps are microseconds
/// since a run-wide epoch (`dom: "us"`), because this engine has no cost
/// model. Timestamps share the process-wide trace epoch
/// (`bw_telemetry::wall_now_us`) so worker lanes line up with monitor
/// shard and campaign-stage lanes. The tracer only reads worker state
/// and writes to the sink, so tracing cannot change outputs or verdicts.
struct RealTracer {
    sink: Arc<dyn Recorder>,
    tid: u32,
    track: String,
    phase: u64,
    phase_start: u64,
    steps_base: u64,
    branches_base: u64,
    /// Acquire time of each mutex this worker currently holds.
    hold_since: Vec<Option<u64>>,
}

impl RealTracer {
    fn new(sink: Arc<dyn Recorder>, tid: u32, nmutexes: usize) -> Self {
        RealTracer {
            sink,
            tid,
            track: lane(tid),
            phase: 0,
            phase_start: 0,
            steps_base: 0,
            branches_base: 0,
            hold_since: vec![None; nmutexes],
        }
    }

    fn now(&self) -> u64 {
        bw_telemetry::wall_now_us()
    }

    fn emit(&self, span: Span) {
        span.write(self.sink.as_ref(), TimeDomain::WallUs, |_| self.track.as_str());
    }

    /// Closes the current barrier phase at time `end`.
    fn phase_span(&self, end: u64, t: &ThreadState) {
        self.emit(Span::Phase {
            tid: self.tid,
            phase: self.phase,
            start: self.phase_start,
            end,
            steps: t.steps.saturating_sub(self.steps_base),
            branches: t.dyn_branches.saturating_sub(self.branches_base),
        });
    }

    fn lock_acquired(&mut self, mutex: usize, start: u64) {
        let end = self.now();
        self.emit(Span::LockWait { tid: self.tid, mutex, start, end });
        self.hold_since[mutex] = Some(end);
    }

    fn lock_released(&mut self, mutex: usize) {
        if let Some(start) = self.hold_since[mutex].take() {
            self.emit(Span::LockHold { tid: self.tid, mutex, start, end: self.now() });
        }
    }

    /// A barrier this worker waited on was released: one phase span
    /// (work) plus one barrier-wait span (stall), then the next phase
    /// opens at the release time.
    fn barrier_released(&mut self, arrival: u64, t: &ThreadState) {
        self.phase_span(arrival, t);
        let release = self.now();
        self.emit(Span::BarrierWait { tid: self.tid, phase: self.phase, arrival, release });
        self.phase += 1;
        self.phase_start = release;
        self.steps_base = t.steps;
        self.branches_base = t.dyn_branches;
    }

    /// Closes the final phase when the worker completes normally.
    fn finish(&self, t: &ThreadState) {
        self.phase_span(self.now(), t);
    }
}

/// A worker looks at the stop flag at least this often (in steps), so a
/// thread spinning without sync instructions still dies promptly when
/// another one traps.
const STOP_POLL_STEPS: u64 = 4096;

/// How many more steps `t` may take before it counts as hung (`None`: it
/// already does). A thread is hung once it has *taken* more than
/// `max_steps` steps, so the last allowed one is number `max_steps + 1`.
fn steps_before_hang(t: &ThreadState, config: &ExecConfig) -> Option<u64> {
    (t.steps <= config.max_steps).then(|| (config.max_steps - t.steps).saturating_add(1))
}

/// The worker's side of the stepper: no cost model, events go to the
/// thread's queue (if the monitor is on).
impl Sink for Option<EventSender> {
    fn charge(&mut self, _: CostClass) {}

    fn wants_events(&self) -> bool {
        self.is_some()
    }

    fn event(&mut self, event: BranchEvent) {
        if let Some(sender) = self {
            sender.send(event);
        }
    }
}

/// What one worker thread brought back.
struct WorkerExit {
    outputs: Vec<Val>,
    trap: Option<TrapKind>,
    hung: bool,
    sent: u64,
    steps: u64,
    dyn_branches: u64,
}

#[allow(clippy::too_many_arguments)]
fn worker_loop(
    tid: u32,
    entry: Option<bw_ir::FuncId>,
    image: &ProgramImage,
    mem: &AtomicMemory,
    mutexes: &[RawMutex],
    barriers: &[RawBarrier],
    stop: &AtomicBool,
    deadline: Instant,
    config: &ExecConfig,
    mut sender: Option<EventSender>,
) -> WorkerExit {
    let Some(entry) = entry else {
        return WorkerExit {
            outputs: Vec::new(),
            trap: None,
            hung: false,
            sent: 0,
            steps: 0,
            dyn_branches: 0,
        };
    };
    let mut t = ThreadState::new(tid, entry, image, config.seed);
    let mut trap = None;
    let mut hung = false;
    // Resolved once per worker: costs nothing when no sink is installed.
    let mut tracer = bw_telemetry::trace_sink()
        .map(|sink| RealTracer::new(sink, tid, mutexes.len()));
    loop {
        if stop.load(Ordering::Relaxed) {
            // Another thread trapped or declared a hang; in a real process
            // we would be dead already. Our partial state is discarded by
            // the non-`Completed` outcome.
            break;
        }
        let Some(budget) = steps_before_hang(&t, config) else {
            hung = true;
            trip_stop(stop, mutexes, barriers);
            break;
        };
        let budget = budget.min(STOP_POLL_STEPS);
        match t.run(image, mem, config.nthreads, &NoHook, budget, &mut sender) {
            // `NoHook` injects nothing, so nothing is invisible either.
            Yield::Budget | Yield::Invisible => {}
            Yield::Lock(m) => {
                let wait_start = tracer.as_ref().map(|tr| tr.now());
                match mutexes[m.index()].lock(stop, deadline) {
                    WaitOutcome::Released => {
                        if let (Some(tr), Some(start)) = (tracer.as_mut(), wait_start) {
                            tr.lock_acquired(m.index(), start);
                        }
                    }
                    WaitOutcome::Stopped => break,
                    WaitOutcome::TimedOut => {
                        hung = true;
                        trip_stop(stop, mutexes, barriers);
                        break;
                    }
                }
            }
            Yield::Unlock(m) => {
                if !mutexes[m.index()].unlock() {
                    trap = Some(TrapKind::BadUnlock);
                    trip_stop(stop, mutexes, barriers);
                    break;
                }
                if let Some(tr) = tracer.as_mut() {
                    tr.lock_released(m.index());
                }
            }
            Yield::Barrier(b) => {
                let wait_start = tracer.as_ref().map(|tr| tr.now());
                match barriers[b.index()].wait(stop, deadline) {
                    WaitOutcome::Released => {
                        if let (Some(tr), Some(start)) = (tracer.as_mut(), wait_start) {
                            tr.barrier_released(start, &t);
                        }
                    }
                    WaitOutcome::Stopped => break,
                    WaitOutcome::TimedOut => {
                        hung = true;
                        trip_stop(stop, mutexes, barriers);
                        break;
                    }
                }
            }
            Yield::Done => {
                if let Some(tr) = tracer.as_ref() {
                    tr.finish(&t);
                }
                break;
            }
            Yield::Trap(k) => {
                trap = Some(k);
                trip_stop(stop, mutexes, barriers);
                break;
            }
        }
    }
    // Dropping the sender (at return) flushes its drop count into the
    // shared counter the monitor reads at join.
    WorkerExit {
        sent: sender.as_ref().map_or(0, |s| s.sent()),
        outputs: std::mem::take(&mut t.outputs),
        trap,
        hung,
        steps: t.steps,
        dyn_branches: t.dyn_branches,
    }
}

/// Runs a single-threaded phase (init / fini) on thread 0 state. Outputs
/// are appended only on success, like the simulator's serial phases.
fn run_serial_phase(
    image: &ProgramImage,
    mem: &AtomicMemory,
    func: bw_ir::FuncId,
    config: &ExecConfig,
    outputs: &mut Vec<Val>,
    total_steps: &mut u64,
) -> Result<(), RunOutcome> {
    let mut t = ThreadState::new(0, func, image, config.serial_seed());
    let result = loop {
        let Some(budget) = steps_before_hang(&t, config) else {
            break Err(RunOutcome::Hung);
        };
        match t.run(image, mem, config.nthreads, &NoHook, budget, &mut NoSink) {
            // Sync ops are no-ops single-threaded (a barrier with
            // nthreads participants in init would deadlock a real
            // program; our ports never do this).
            Yield::Budget
            | Yield::Lock(_)
            | Yield::Unlock(_)
            | Yield::Barrier(_)
            | Yield::Invisible => {}
            Yield::Done => break Ok(()),
            Yield::Trap(k) => break Err(RunOutcome::Crashed(k)),
        }
    };
    *total_steps += t.steps;
    if result.is_ok() {
        outputs.append(&mut t.outputs);
    }
    result
}

/// The real engine's run loop; reached through
/// [`RealEngine`](crate::engine::RealEngine).
pub(crate) fn run_real_engine(image: &ProgramImage, config: &ExecConfig) -> RunResult {
    let n = config.nthreads;
    let mem = AtomicMemory::new(&image.module);
    let mut outputs = Vec::new();
    let mut total_steps = 0u64;

    // What every result has, whichever phase ended the run.
    let ended = |outcome: RunOutcome, outputs: Vec<Val>, total_steps: u64| RunResult {
        outcome,
        outputs,
        parallel_cycles: 0,
        violations: Vec::new(),
        violation_reports: Vec::new(),
        total_steps,
        events_sent: 0,
        events_processed: 0,
        events_dropped: 0,
        branches_per_thread: Vec::new(),
        steps_per_thread: Vec::new(),
        engine: EngineKind::Real,
        cycles: VmTelemetry::default(),
        monitor: None,
        branch_events: Vec::new(),
    };

    // Phase 1: init, single-threaded.
    if let Some(init) = image.module.init {
        if let Err(outcome) =
            run_serial_phase(image, &mem, init, config, &mut outputs, &mut total_steps)
        {
            return ended(outcome, outputs, total_steps);
        }
    }

    // Phase 2: parallel section with monitor thread.
    let mutexes: Vec<RawMutex> =
        (0..image.module.num_mutexes).map(|_| RawMutex::new()).collect();
    let barriers: Vec<RawBarrier> =
        (0..image.module.num_barriers).map(|_| RawBarrier::new(n as usize)).collect();
    let stop = AtomicBool::new(false);
    let deadline = Instant::now() + Duration::from_millis(config.watchdog_ms);

    // The builder wires the full monitor side for whichever topology the
    // config selects — flat or sharded ingest — and hands back one
    // routing sender per SPMD thread. Sender-side drop counts flow into
    // per-shard sinks that the joined verdict folds in, so counts survive
    // worker threads that exit early.
    let (senders, monitor): (Vec<Option<EventSender>>, _) = match config.monitor {
        MonitorMode::Off => ((0..n).map(|_| None).collect(), None),
        MonitorMode::Enabled | MonitorMode::SendOnly => {
            let (senders, handle) =
                MonitorBuilder::new(CheckTable::from_plan(&image.plan), n as usize)
                    .topology(MonitorTopology::Sharded { shards: config.monitor_shard_count() })
                    .spawn();
            (senders.into_iter().map(Some).collect(), Some(handle))
        }
    };

    let entry = image.module.spmd_entry;
    let worker_exits: Vec<WorkerExit> = std::thread::scope(|scope| {
        let mem = &mem;
        let mutexes = &mutexes[..];
        let barriers = &barriers[..];
        let stop = &stop;
        let handles: Vec<_> = senders
            .into_iter()
            .enumerate()
            .map(|(tid, sender)| {
                scope.spawn(move || {
                    worker_loop(
                        tid as u32, entry, image, mem, mutexes, barriers, stop, deadline,
                        config, sender,
                    )
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("worker panicked")).collect()
    });

    // All senders are gone, so the monitor drains the queues and exits.
    let verdict = monitor.map(MonitorHandle::join);

    // Aggregate workers: first trap (in thread-id order) wins, like the
    // simulator; otherwise any hang makes the run hung.
    let mut outcome = RunOutcome::Completed;
    for w in &worker_exits {
        if let Some(k) = w.trap {
            outcome = RunOutcome::Crashed(k);
            break;
        }
    }
    if outcome == RunOutcome::Completed && worker_exits.iter().any(|w| w.hung) {
        outcome = RunOutcome::Hung;
    }
    let branches_per_thread: Vec<u64> = worker_exits.iter().map(|w| w.dyn_branches).collect();
    let steps_per_thread: Vec<u64> = worker_exits.iter().map(|w| w.steps).collect();
    let events_sent: u64 = worker_exits.iter().map(|w| w.sent).sum();
    total_steps += steps_per_thread.iter().sum::<u64>();
    if outcome == RunOutcome::Completed {
        for mut w in worker_exits {
            outputs.append(&mut w.outputs);
        }
    }

    // Phase 3: fini, seeded as the simulator's serial phases (`serial_seed`).
    if outcome == RunOutcome::Completed {
        if let Some(fini) = image.module.fini {
            if let Err(o) =
                run_serial_phase(image, &mem, fini, config, &mut outputs, &mut total_steps)
            {
                outcome = o;
            }
        }
    }

    let mut result = RunResult {
        events_sent,
        branches_per_thread,
        steps_per_thread,
        ..ended(outcome, outputs, total_steps)
    };
    if let Some(verdict) = verdict {
        result.events_processed = verdict.events_processed;
        result.events_dropped = verdict.events_dropped;
        result.monitor = Some(verdict.telemetry);
        // `SendOnly`: the send path ran hot (queues drained for real), but
        // verdicts are discarded — the paper's 32-thread methodology.
        if config.monitor == MonitorMode::Enabled {
            result.violations = verdict.violations;
            result.violation_reports = verdict.violation_reports;
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{engine, Engine, EngineKind, RealEngine};

    fn image(src: &str) -> Arc<ProgramImage> {
        Arc::new(ProgramImage::prepare_default(bw_ir::frontend::compile(src).expect("compile")))
    }

    #[test]
    fn real_engine_runs_clean_program_without_violations() {
        let image = image(
            r#"
            shared int n = 16;
            int acc = 0;
            mutex m;
            barrier b;
            @spmd func f() {
                var t: int = threadid();
                for (var i: int = 0; i < n; i = i + 1) {
                    if (i == t) { output(i); }
                }
                lock(m);
                acc = acc + 1;
                unlock(m);
                barrier(b);
            }
            @fini func done() { output(acc); }
            "#,
        );
        let result = RealEngine.run(&image, &ExecConfig::new(4));
        assert_eq!(result.outcome, RunOutcome::Completed);
        assert!(!result.detected(), "{:?}", result.violations);
        assert_eq!(result.outputs.last(), Some(&Val::I64(4)));
        assert_eq!(result.events_dropped, 0);
        assert!(result.events_processed > 0);
        assert_eq!(result.branches_per_thread.len(), 4);
        assert!(result.total_steps > 0);
    }

    #[test]
    fn real_engine_reports_crash() {
        let image = image(
            r#"
            float grid[4];
            @spmd func f() { grid[100] = 1.0; }
            "#,
        );
        let result = RealEngine.run(&image, &ExecConfig::new(2));
        assert_eq!(result.outcome, RunOutcome::Crashed(TrapKind::OutOfBounds));
    }

    /// One thread traps while the others wait for it at a barrier: the
    /// trap's stop flag must wake them, so the run ends `Crashed` at once
    /// rather than when their watchdog expires. Thread 0 traps only after
    /// the other three have checked in on their way to the barrier, so
    /// they are already waiting there when the flag trips.
    #[test]
    fn one_trap_stops_the_threads_waiting_at_a_barrier() {
        let image = image(
            r#"
            float grid[4];
            int arrived = 0;
            mutex m;
            barrier b;
            @spmd func f() {
                if (threadid() == 0) {
                    while (arrived < 3) { }
                    grid[100] = 1.0;
                } else {
                    lock(m);
                    arrived = arrived + 1;
                    unlock(m);
                }
                barrier(b);
            }
            "#,
        );
        let watchdog = Duration::from_secs(10);
        let config = ExecConfig::new(4).watchdog_ms(watchdog.as_millis() as u64);
        let started = Instant::now();
        let result = RealEngine.run(&image, &config);
        assert_eq!(result.outcome, RunOutcome::Crashed(TrapKind::OutOfBounds));
        assert!(started.elapsed() < watchdog / 2, "the waiters sat out their watchdog");
    }

    #[test]
    fn sharded_monitor_is_clean_on_real_program() {
        let image = image(
            r#"
            shared int n = 24;
            barrier b;
            @spmd func f() {
                var t: int = threadid();
                for (var i: int = 0; i < n; i = i + 1) {
                    if (i == t) { output(i); }
                }
                barrier(b);
            }
            "#,
        );
        let config = ExecConfig::new(8).monitor_shards(Some(4));
        let result = RealEngine.run(&image, &config);
        assert_eq!(result.outcome, RunOutcome::Completed);
        assert!(!result.detected(), "{:?}", result.violations);
        assert_eq!(result.events_dropped, 0);
        assert_eq!(result.events_sent, result.events_processed);
        // Per-shard health counters surface in the run telemetry and sum
        // to the merged total.
        let telemetry = result.telemetry();
        let per_shard: u64 = (0..4)
            .map(|s| telemetry.counter(&format!("monitor.shard.{s}.events_processed")).unwrap_or(0))
            .sum();
        assert_eq!(per_shard, result.events_processed);
    }

    #[test]
    fn real_engine_matches_sim_outputs() {
        let src = r#"
            shared int n = 32;
            int data[256];
            @init func setup() {
                for (var i: int = 0; i < 256; i = i + 1) { data[i] = i * 3; }
            }
            @spmd func f() {
                var t: int = threadid();
                var sum: int = 0;
                for (var i: int = 0; i < n; i = i + 1) {
                    sum = sum + data[t * n + i];
                }
                output(sum);
            }
        "#;
        let img = image(src);
        let real = RealEngine.run(&img, &ExecConfig::new(4));
        let sim = crate::engine::SimEngine.run(&img, &ExecConfig::new(4));
        assert_eq!(real.outputs, sim.outputs);
    }

    #[test]
    fn monitor_off_sends_nothing() {
        let image = image(
            r#"
            shared int n = 8;
            @spmd func f() {
                for (var i: int = 0; i < n; i = i + 1) {
                    if (i == threadid()) { output(i); }
                }
            }
            "#,
        );
        let config = ExecConfig::new(4).monitor(MonitorMode::Off);
        let result = engine(EngineKind::Real).run(&image, &config);
        assert_eq!(result.outcome, RunOutcome::Completed);
        assert_eq!(result.events_sent, 0);
        assert_eq!(result.events_processed, 0);
        assert!(result.violations.is_empty());
    }

    #[test]
    fn send_only_discards_verdicts_but_drains_queues() {
        let image = image(
            r#"
            shared int n = 16;
            @spmd func f() {
                for (var i: int = 0; i < n; i = i + 1) {
                    if (i == threadid()) { output(i); }
                }
            }
            "#,
        );
        let config = ExecConfig::new(4).monitor(MonitorMode::SendOnly);
        let result = engine(EngineKind::Real).run(&image, &config);
        assert_eq!(result.outcome, RunOutcome::Completed);
        assert!(result.events_sent > 0);
        assert!(result.violations.is_empty());
    }

    #[test]
    fn watchdog_classifies_a_missing_barrier_arrival_as_hung() {
        // Thread 0 skips the barrier, so the rest wait forever; the
        // watchdog must turn that into a Hung classification instead of
        // wedging the test binary.
        let image = image(
            r#"
            barrier b;
            @spmd func f() {
                if (threadid() != 0) { barrier(b); }
                output(threadid());
            }
            "#,
        );
        let config = ExecConfig::new(4).watchdog_ms(200);
        let result = engine(EngineKind::Real).run(&image, &config);
        assert_eq!(result.outcome, RunOutcome::Hung);
    }
}
