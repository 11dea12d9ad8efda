//! The real-threads engine: one OS thread per SPMD thread, atomic shared
//! memory, per-thread lock-free queues and the asynchronous monitor thread
//! — the paper's actual runtime architecture.
//!
//! This engine has no cost model (wall-clock on the host is meaningless for
//! the paper's 32-core numbers; that is the simulator's job) but it
//! exercises the concurrency for real: queue pushes race with the monitor's
//! drains, and memory is genuinely shared. Used for the false-positive
//! experiments, the sim-vs-real parity suite and as a sanity check that the
//! lock-free machinery works.
//!
//! Mutexes and barriers are one `SyncTable` under one lock, beside a
//! count of the SPMD threads still running (neither parked nor exited). A
//! thread that waits parks and leaves the count, and whoever releases it
//! puts it back, so the count reaches zero with a thread parked only when
//! no thread is left to release one: the run is deadlocked, every parked
//! thread returns and the run is [`RunOutcome::Hung`] — the state the
//! simulator's scheduler sees too (no runnable thread, threads
//! unfinished). No verdict depends on wall-clock time. The first trap, or
//! a thread past its step budget, trips a stop flag that running threads
//! poll, because a trap in a real process kills every thread, which is also
//! exactly what the simulator models; once they have stopped, the parked
//! threads see the count at zero and return too.
//!
//! Under a span sink (`--trace-spans`) each worker reports its barrier
//! releases, lock traffic and end to its own [`Lanes`] — the one lane
//! definition it shares with the simulator — stamped in wall-clock
//! microseconds from the process-wide trace epoch
//! (`bw_telemetry::wall_now_us`), so worker lanes line up with monitor
//! shard and campaign-stage lanes. A worker cannot tell a free mutex from
//! one it waited for, so it reports every lock as blocked, then acquired:
//! its lane has a `lock_wait` per acquisition, where the simulator's has
//! one only when a thread parked. Tracing only reads worker state, so it
//! changes no output or verdict.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

use bw_ir::Val;
use bw_monitor::{
    BranchEvent, CheckTable, EventSender, MonitorBuilder, MonitorHandle, MonitorTopology,
};
use bw_telemetry::TimeDomain;

use crate::engine::{EngineKind, ExecConfig, MonitorMode, RunOutcome, RunResult};
use crate::image::ProgramImage;
use crate::memory::AtomicMemory;
use crate::span::{Fact, Lanes};
use crate::telemetry::VmTelemetry;
use crate::thread::{CostClass, NoHook, NoSink, Sink, ThreadState, Yield};
use crate::trap::TrapKind;

/// Every mutex and barrier of the parallel section and the count of
/// running SPMD threads, under one lock; one condition variable wakes the
/// parked threads. Locks and barriers pair unchecked: interpreted code may
/// unlock in another thread, and a program may skip an arrival.
struct SyncTable {
    state: Mutex<SyncState>,
    cv: Condvar,
    /// Every SPMD thread arrives at every barrier.
    participants: usize,
}

struct SyncState {
    mutexes: Vec<MutexRow>,
    barriers: Vec<BarrierRow>,
    /// Threads neither parked nor exited. A release counts the threads it
    /// wakes at once, so this never reads zero while one is on its way.
    running: usize,
    /// Threads that have not exited.
    live: usize,
    /// `running` reached zero with a thread parked; every wait returns.
    deadlocked: bool,
}

#[derive(Clone, Copy, Default)]
struct MutexRow {
    held: bool,
    /// Threads parked on the mutex that no unlock has handed it to yet.
    waiting: usize,
    /// Unlocks that handed the mutex to a parked thread not yet awake.
    handed: usize,
}

#[derive(Clone, Copy, Default)]
struct BarrierRow {
    arrived: usize,
    generation: u64,
}

impl SyncTable {
    fn new(mutexes: usize, barriers: usize, threads: usize) -> Self {
        let state = SyncState {
            mutexes: vec![MutexRow::default(); mutexes],
            barriers: vec![BarrierRow::default(); barriers],
            running: threads,
            live: threads,
            deadlocked: false,
        };
        SyncTable { state: Mutex::new(state), cv: Condvar::new(), participants: threads }
    }

    /// Every write under the lock comes after whatever can panic there, so
    /// a poisoned table is intact; recovering it lets a panicking worker's
    /// `Exit` still run and its join report the panic.
    fn state(&self) -> MutexGuard<'_, SyncState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Takes mutex `m`, parking while it is held. `false`: the run
    /// deadlocked first.
    fn lock(&self, m: usize) -> bool {
        let mut s = self.state();
        let row = &mut s.mutexes[m];
        if !row.held {
            row.held = true;
            return true;
        }
        row.waiting += 1;
        self.park(s, |s| {
            let row = &mut s.mutexes[m];
            let handed = row.handed > 0;
            row.handed -= usize::from(handed);
            handed
        })
    }

    /// Releases mutex `m`, handing it to one parked thread if there is
    /// one. `false`: `m` was not held (an interpreter bug or corrupted
    /// control flow).
    fn unlock(&self, m: usize) -> bool {
        let mut s = self.state();
        let row = &mut s.mutexes[m];
        if !row.held {
            return false;
        }
        if row.waiting == 0 {
            row.held = false;
        } else {
            row.waiting -= 1;
            row.handed += 1;
            s.running += 1;
            self.cv.notify_all();
        }
        true
    }

    /// Arrives at barrier `b`; the last arrival releases the others.
    /// `false`: the run deadlocked first.
    fn wait(&self, b: usize) -> bool {
        let mut s = self.state();
        let row = &mut s.barriers[b];
        row.arrived += 1;
        if row.arrived == self.participants {
            row.arrived = 0;
            row.generation = row.generation.wrapping_add(1);
            s.running += self.participants - 1;
            self.cv.notify_all();
            return true;
        }
        let generation = row.generation;
        self.park(s, |s| s.barriers[b].generation != generation)
    }

    /// Parks the caller until `released` says a release reached it (`true`)
    /// or the run deadlocks (`false`).
    fn park(
        &self,
        mut s: MutexGuard<'_, SyncState>,
        mut released: impl FnMut(&mut SyncState) -> bool,
    ) -> bool {
        self.stop_running(&mut s);
        loop {
            if released(&mut s) {
                return true;
            }
            if s.deadlocked {
                // Running again, on its way out through `Exit`.
                s.running += 1;
                return false;
            }
            s = self.cv.wait(s).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Takes the caller off `running`; at zero with a thread still here,
    /// that thread is parked and nobody can release it.
    fn stop_running(&self, s: &mut SyncState) {
        s.running -= 1;
        if s.running == 0 && s.live > 0 {
            s.deadlocked = true;
            self.cv.notify_all();
        }
    }
}

/// Takes a worker off the [`SyncTable`] when it ends, by return or by
/// panic, so no thread is left parked for it.
struct Exit<'a>(&'a SyncTable);

impl Drop for Exit<'_> {
    fn drop(&mut self) {
        let mut s = self.0.state();
        s.live -= 1;
        self.0.stop_running(&mut s);
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

fn worker_loop(
    tid: u32,
    image: &ProgramImage,
    mem: &AtomicMemory,
    sync: &SyncTable,
    stop: &AtomicBool,
    config: &ExecConfig,
    mut sender: Option<EventSender>,
) -> WorkerExit {
    let _exit = Exit(sync);
    let Some(entry) = image.module.spmd_entry else {
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
    // The worker's lane, while a span sink is installed: resolved once per
    // worker, so it costs nothing when none is. It stamps what it is told
    // in wall-clock microseconds.
    let mut lanes = bw_telemetry::trace_sink()
        .map(|sink| (sink, Lanes::new(tid..tid + 1, image.module.num_mutexes as usize)));
    let tracing = lanes.is_some();
    let mut trace = |fact: Fact<'_>| {
        if let Some((sink, lanes)) = &mut lanes {
            let now = bw_telemetry::wall_now_us();
            lanes.record(fact, now, |span| span.write(sink.as_ref(), TimeDomain::WallUs));
        }
    };
    loop {
        if stop.load(Ordering::Relaxed) {
            // Another thread trapped or ran out of steps; in a real process
            // we would be dead already. Our partial state is discarded by
            // the non-`Completed` outcome.
            break;
        }
        let Some(budget) = steps_before_hang(&t, config) else {
            hung = true;
            stop.store(true, Ordering::Relaxed);
            break;
        };
        let budget = budget.min(STOP_POLL_STEPS);
        match t.run(image, mem, config.nthreads, &NoHook, budget, &mut sender) {
            // `NoHook` injects nothing, so nothing is invisible either.
            Yield::Budget | Yield::Invisible => {}
            // Whether or not the mutex is free, the worker's lane reports
            // a wait: one `lock_wait` per acquisition.
            Yield::Lock(m) => {
                trace(Fact::Blocked { tid });
                if !sync.lock(m.index()) {
                    hung = true;
                    break;
                }
                trace(Fact::Acquired { tid, mutex: m.index() });
            }
            Yield::Unlock(m) => {
                if !sync.unlock(m.index()) {
                    trap = Some(TrapKind::BadUnlock);
                    stop.store(true, Ordering::Relaxed);
                    break;
                }
                trace(Fact::Unlocked { tid, mutex: m.index() });
            }
            Yield::Barrier(b) => {
                // (The clock is read only for a lane to stamp.)
                let arrival = if tracing { bw_telemetry::wall_now_us() } else { 0 };
                if !sync.wait(b.index()) {
                    hung = true;
                    break;
                }
                trace(Fact::Released { tid, arrival, thread: &t });
            }
            Yield::Done => {
                trace(Fact::Finished { tid, thread: &t });
                break;
            }
            Yield::Trap(k) => {
                trap = Some(k);
                stop.store(true, Ordering::Relaxed);
                break;
            }
        }
    }
    // The worker hands back how many events it sent; dropping its sender
    // at return lets the monitor finish draining the queue.
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
    let sync = SyncTable::new(
        image.module.num_mutexes as usize,
        image.module.num_barriers as usize,
        n as usize,
    );
    let stop = AtomicBool::new(false);

    // The builder wires the full monitor side for whichever topology the
    // config selects — flat or sharded ingest — and hands back one
    // routing sender per SPMD thread.
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

    let worker_exits: Vec<WorkerExit> = std::thread::scope(|scope| {
        let (mem, sync, stop) = (&mem, &sync, &stop);
        let handles: Vec<_> = senders
            .into_iter()
            .enumerate()
            .map(|(tid, sender)| {
                scope.spawn(move || worker_loop(tid as u32, image, mem, sync, stop, config, sender))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("worker panicked")).collect()
    });

    // All senders are gone, so the monitor drains the queues and exits.
    let verdict = monitor.map(MonitorHandle::join);

    // Aggregate workers: first trap (in thread-id order) wins, like the
    // simulator; otherwise a spent step budget or a deadlock makes the run
    // hung.
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
    use std::sync::Arc;

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
        assert_eq!(result.events_processed, result.events_sent);
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
    /// run ends `Crashed`, the waiters returning once no thread is left
    /// running. Thread 0 traps only after the other three have checked in
    /// on their way to the barrier, so they are already waiting there when
    /// it stops.
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
        let result = RealEngine.run(&image, &ExecConfig::new(4));
        assert_eq!(result.outcome, RunOutcome::Crashed(TrapKind::OutOfBounds));
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

    /// Each program deadlocks, seen once no thread is left running: thread
    /// 0 skips the barrier the others wait at; thread 0 exits holding the
    /// mutex the others wait on after a barrier; even and odd threads wait
    /// at two barriers that neither half fills.
    #[test]
    fn deadlocks_are_hung() {
        let programs = [
            r#"
            barrier b;
            @spmd func f() {
                if (threadid() != 0) { barrier(b); }
                output(threadid());
            }
            "#,
            r#"
            mutex m;
            barrier b;
            @spmd func f() {
                if (threadid() == 0) { lock(m); }
                barrier(b);
                if (threadid() != 0) {
                    lock(m);
                    unlock(m);
                }
            }
            "#,
            r#"
            barrier even;
            barrier odd;
            @spmd func f() {
                if (threadid() % 2 == 0) { barrier(even); } else { barrier(odd); }
            }
            "#,
        ];
        for src in programs {
            let result = RealEngine.run(&image(src), &ExecConfig::new(4));
            assert_eq!(result.outcome, RunOutcome::Hung, "{src}");
        }
    }

    /// The sync table's count under many parked threads. Each round thread
    /// 0 holds a mutex until the seven others have announced themselves and
    /// then computes a while, so they park on it and every unlock hands it
    /// to a parked thread; then all eight meet at a barrier. A handoff or a
    /// barrier release that counts one woken thread too few takes the
    /// count to zero while threads still run, and the run ends `Hung`.
    #[test]
    fn handoffs_and_barrier_releases_count_every_woken_thread() {
        let image = image(
            r#"
            shared int rounds = 4;
            shared int others = 7;
            shared int work = 20000;
            int announced = 0;
            int entered = 0;
            mutex m;
            mutex c;
            barrier b;
            @spmd func f() {
                for (var r: int = 0; r < rounds; r = r + 1) {
                    if (threadid() == 0) {
                        lock(m);
                        while (announced < (r + 1) * others) { }
                        var sum: int = 0;
                        for (var i: int = 0; i < work; i = i + 1) { sum = sum + i; }
                        entered = entered + 1;
                        unlock(m);
                    } else {
                        lock(c);
                        announced = announced + 1;
                        unlock(c);
                        lock(m);
                        entered = entered + 1;
                        unlock(m);
                    }
                    barrier(b);
                }
            }
            @fini func done() { output(entered); }
            "#,
        );
        let result = RealEngine.run(&image, &ExecConfig::new(8));
        assert_eq!(result.outcome, RunOutcome::Completed);
        assert_eq!(result.outputs.last(), Some(&Val::I64(32)));
    }

    /// Three threads wait at a barrier while thread 0 computes for well
    /// over 200 ms of wall time: waiting long is not a deadlock.
    #[test]
    fn a_long_wait_at_a_barrier_completes() {
        let iterations = if cfg!(debug_assertions) { 800_000 } else { 4_000_000 };
        let image = image(&format!(
            r#"
            shared int n = {iterations};
            barrier b;
            @spmd func f() {{
                if (threadid() == 0) {{
                    var sum: int = 0;
                    for (var i: int = 0; i < n; i = i + 1) {{ sum = sum + i; }}
                    output(sum);
                }}
                barrier(b);
            }}
            "#
        ));
        let result = RealEngine.run(&image, &ExecConfig::new(4));
        assert_eq!(result.outcome, RunOutcome::Completed);
    }
}
