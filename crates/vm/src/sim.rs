//! The deterministic simulated-machine engine.
//!
//! All threads are interpreted within one OS thread; a discrete-event
//! scheduler always advances the runnable thread with the smallest local
//! clock, so execution (including lock acquisition order) is a
//! deterministic function of the program, the thread count, the seed and
//! the cost model. Cycle accounting follows [`MachineModel`]; the parallel
//! section's simulated time is the maximum thread clock at completion —
//! the quantity the paper reports in Figures 6 and 7.
//!
//! The monitor runs *inline* (its processing is not charged to application
//! threads, matching the paper's measurement methodology, which excludes
//! the asynchronous monitor's checking time); only the queue-push cost of
//! each event is charged to the sending thread. `SendOnly` mode reproduces
//! the paper's 32-thread setup where the monitor thread is disabled but
//! the sends still happen.
//!
//! The scheduler is one function, `Sim::slot`, over a state that — inline
//! monitor included — can be cloned between two slots: [`SimPrefix`] is a
//! fault-free run stopped there, from which hooked runs continue without
//! repeating what came before, neither the interpretation nor the checking.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use bw_ir::Val;
use bw_monitor::{BranchEvent, CheckTable, ShardedMonitor};
use bw_telemetry::{Recorder, TimeDomain};

use crate::engine::{EngineKind, ExecConfig, ExecMode, MonitorMode, RunOutcome, RunResult};
use crate::image::ProgramImage;
use crate::machine::MachineModel;
use crate::memory::SimMemory;
use crate::span::{lane, Span};
use crate::telemetry::VmTelemetry;
use crate::thread::{BranchHook, CostClass, NoHook, NoSink, Sink, ThreadState, Yield};
use crate::trap::TrapKind;

/// The simulated machine: the paper's testbed, the only one any exhibit,
/// test or benchmark has run on.
const MACHINE: MachineModel = MachineModel::opteron_6128();

/// Passive span collection for the deterministic engine: while a trace
/// sink is installed (`bw_telemetry::set_trace_sink`, the `--trace-spans`
/// path), the scheduler reports per-thread barrier-phase spans (with
/// per-phase step/branch counts), lock hold/wait intervals, barrier-wait
/// stalls and verdict flow arrows as `tspan` records timestamped in
/// simulated cycles. The tracer is never consulted for a scheduling
/// decision and writes only to the sink — tracing cannot perturb clocks,
/// verdicts or outputs, and every timestamp it emits is deterministic
/// for a fixed seed.
///
/// A [`SimPrefix`]'s tracer holds its spans back instead: the prefix runs
/// once for many forks, and each fork's trace has to contain them under
/// the fork's own `TraceScope`. [`SimTracer::into_fork`] writes them there.
#[derive(Clone)]
struct SimTracer {
    sink: Arc<dyn Recorder>,
    /// The spans not yet written to `sink`, while they are being held back:
    /// everything a prefix has produced so far, the verdict arrows of its
    /// inline monitor among them in the order the run reached them.
    held: Option<Vec<Span>>,
    threads: Vec<ThreadTrace>,
    /// Acquire clock of each mutex's current owner.
    hold_since: Vec<Option<u64>>,
    /// Next causal-arrow id.
    flows: u64,
}

/// What the tracer keeps per SPMD thread.
#[derive(Clone)]
struct ThreadTrace {
    /// The thread's lane, `t<tid>`.
    track: String,
    /// Index of the thread's current barrier phase.
    phase: u64,
    /// Start clock of that phase.
    phase_start: u64,
    /// `ThreadState::steps` at phase start, for per-phase deltas.
    steps_base: u64,
    /// `ThreadState::dyn_branches` at phase start.
    branches_base: u64,
    /// Clock at which the thread blocked on a mutex, while it waits.
    wait_since: Option<u64>,
}

impl SimTracer {
    /// The tracer of a run on `image` under `config`, if a sink is
    /// installed. Resolved once per run: costs nothing when none is.
    fn installed(image: &ProgramImage, config: &ExecConfig) -> Option<Self> {
        let sink = bw_telemetry::trace_sink()?;
        let thread = |tid| ThreadTrace {
            track: lane(tid),
            phase: 0,
            phase_start: 0,
            steps_base: 0,
            branches_base: 0,
            wait_since: None,
        };
        Some(SimTracer {
            sink,
            held: None,
            threads: (0..config.nthreads).map(thread).collect(),
            hold_since: vec![None; image.module.num_mutexes as usize],
            flows: 0,
        })
    }

    fn emit(&mut self, span: Span) {
        match &mut self.held {
            Some(held) => held.push(span),
            None => {
                let track = |tid: u32| self.threads[tid as usize].track.as_str();
                span.write(self.sink.as_ref(), TimeDomain::Cycles, track);
            }
        }
    }

    /// This tracer as a fork's: its state writing straight to the sink,
    /// once the sink has everything the run would have written up to here,
    /// the held spans. The records pick up the calling thread's
    /// `TraceScope`, as a full replay's would.
    fn into_fork(mut self) -> SimTracer {
        for span in self.held.take().into_iter().flatten() {
            self.emit(span);
        }
        self
    }

    /// Closes thread `tid`'s current barrier phase at clock `end`.
    fn phase_span(&mut self, tid: u32, end: u64, thread: &ThreadState) {
        let t = &self.threads[tid as usize];
        self.emit(Span::Phase {
            tid,
            phase: t.phase,
            start: t.phase_start,
            end,
            steps: thread.steps.saturating_sub(t.steps_base),
            branches: thread.dyn_branches.saturating_sub(t.branches_base),
        });
    }

    /// A full barrier released at clock `release`: one phase span (work)
    /// plus one barrier-wait span (stall) per participant, then the next
    /// phase opens at the release clock for all of them.
    fn barrier_release(&mut self, arrivals: &[(u32, u64)], release: u64, threads: &[ThreadState]) {
        for &(tid, arrival) in arrivals {
            let thread = &threads[tid as usize];
            self.phase_span(tid, arrival, thread);
            let phase = self.threads[tid as usize].phase;
            self.emit(Span::BarrierWait { tid, phase, arrival, release });
            let t = &mut self.threads[tid as usize];
            t.phase += 1;
            t.phase_start = release;
            t.steps_base = thread.steps;
            t.branches_base = thread.dyn_branches;
        }
    }

    fn lock_acquired(&mut self, m: usize, clock: u64) {
        self.hold_since[m] = Some(clock);
    }

    fn lock_blocked(&mut self, tid: u32, clock: u64) {
        self.threads[tid as usize].wait_since = Some(clock);
    }

    fn lock_released(&mut self, tid: u32, m: usize, clock: u64) {
        if let Some(start) = self.hold_since[m].take() {
            self.emit(Span::LockHold { tid, mutex: m, start, end: clock });
        }
    }

    fn lock_handoff(&mut self, next: u32, m: usize, granted: u64) {
        if let Some(start) = self.threads[next as usize].wait_since.take() {
            self.emit(Span::LockWait { tid: next, mutex: m, start, end: granted });
        }
        self.hold_since[m] = Some(granted);
    }

    /// The inline monitor flagged a violation while processing `event`,
    /// sent at `clock`.
    fn verdict(&mut self, event: BranchEvent, clock: u64) {
        let flow = self.flows;
        self.flows += 1;
        self.emit(Span::Verdict { event, clock, flow });
    }

    /// Closes every thread's final phase at its finish clock.
    fn finish(&mut self, finish_clock: &[u64], threads: &[ThreadState]) {
        for (t, thread) in threads.iter().enumerate() {
            self.phase_span(t as u32, finish_clock[t], thread);
        }
    }
}

/// The sim engine's run loop; reached through
/// [`SimEngine`](crate::engine::SimEngine).
pub(crate) fn run_sim_engine(
    image: &ProgramImage,
    config: &ExecConfig,
    hook: &dyn BranchHook,
) -> RunResult {
    let mut sim = Sim::new(image, config);
    sim.tracer = SimTracer::installed(image, config);
    sim.init(hook);
    sim.run(hook)
}

/// What each instruction class and each monitor event costs one thread, in
/// cycles: the machine model, the thread's socket and the execution mode
/// resolved once per run.
struct ThreadCosts {
    alu: u64,
    mul: u64,
    div: u64,
    local_mem: u64,
    call: u64,
    output: u64,
    /// A shared access, by region (the region's home socket decides).
    shared: Vec<u64>,
    /// What an atomic RMW costs on top of its region's shared access.
    atomic: u64,
    /// Building and pushing one monitor event.
    event: u64,
}

impl ThreadCosts {
    fn new(tid: u32, config: &ExecConfig, regions: u32) -> Self {
        let m = &MACHINE;
        let n = config.nthreads;
        // Instruction-level duplication re-executes everything (2x), and
        // each shared access of either replica pays a determinism-
        // enforcement cost proportional to the thread count (Section VI's
        // scaling argument).
        let (dup, tax) = match config.exec {
            ExecMode::Normal => (1, 0),
            ExecMode::Duplicated => (2, m.dup_tax * u64::from(n) / 2),
        };
        ThreadCosts {
            alu: m.alu * dup,
            mul: m.mul * dup,
            div: m.div * dup,
            local_mem: m.mem_local * dup,
            call: m.call * dup,
            output: m.output * dup,
            shared: (0..regions).map(|r| (m.shared_access(tid, r, n) + tax) * dup).collect(),
            atomic: m.atomic * dup,
            event: (m.event_build + m.event_push(tid, n)) * dup,
        }
    }

    fn of(&self, class: CostClass) -> u64 {
        match class {
            CostClass::Alu => self.alu,
            CostClass::Mul => self.mul,
            CostClass::Div => self.div,
            CostClass::LocalMem => self.local_mem,
            CostClass::Shared(region) => self.shared[region as usize],
            CostClass::Atomic(region) => self.shared[region as usize] + self.atomic,
            CostClass::Call => self.call,
            CostClass::Output => self.output,
        }
    }
}

/// A run's event count and cycle attribution: everything the stepper
/// reports to, apart from the reporting thread's clock and the monitor.
#[derive(Clone)]
struct Ledger {
    mode: MonitorMode,
    capture: bool,
    events_sent: u64,
    cycles: VmTelemetry,
    branch_events: Vec<BranchEvent>,
}

/// How many events the inline monitor is handed at once.
const EVENT_BATCH: usize = 256;

/// The inline monitor and the events sent to it that it has not processed
/// yet, each with its sender's clock. Holding them back lets
/// [`ShardedMonitor::process_batch`] look ahead of its probes; it changes
/// no verdict, since the monitor takes every event in the order sent. The
/// batch is drained when it is full, at the end of each stretch of a
/// traced run (before the scheduler writes the stretch's spans, so that a
/// verdict arrow keeps its place among them) and in `Sim::finish` before
/// the flush, however the run ended.
#[derive(Clone)]
struct InlineMonitor {
    monitor: ShardedMonitor,
    /// The first `held` entries are the pending events.
    pending: [(BranchEvent, u64); EVENT_BATCH],
    held: usize,
}

impl InlineMonitor {
    /// The inline monitor `config` asks for. It partitions its pending
    /// tables across the configured shard count exactly as the real
    /// engine's shard workers do, so `--monitor-shards` is observable (and
    /// verifiably verdict-neutral) on the deterministic engine too.
    fn new(image: &ProgramImage, config: &ExecConfig) -> Self {
        let monitor = ShardedMonitor::new(
            CheckTable::from_plan(&image.plan),
            config.nthreads as usize,
            config.monitor_shard_count(),
        );
        let unused =
            BranchEvent { branch: 0, thread: 0, site: 0, iter: 0, witness: 0, taken: false };
        InlineMonitor { monitor, pending: [(unused, 0); EVENT_BATCH], held: 0 }
    }

    fn send(&mut self, event: BranchEvent, clock: u64, tracer: Option<&mut SimTracer>) {
        self.pending[self.held] = (event, clock);
        self.held += 1;
        if self.held == EVENT_BATCH {
            self.drain(tracer);
        }
    }

    /// Processes the pending events; under a tracer a violation one of
    /// them completes leaves its verdict arrow at that event's clock.
    fn drain(&mut self, tracer: Option<&mut SimTracer>) {
        let pending = &self.pending[..self.held];
        match tracer {
            Some(tracer) => {
                self.monitor.process_batch(pending, |event, clock| tracer.verdict(event, clock))
            }
            None => self.monitor.process_batch(pending, |_, _| {}),
        }
        self.held = 0;
    }
}

/// Where a monitor event goes once the sending thread has paid for it.
#[derive(Clone)]
enum EventSink {
    /// Nowhere: the monitor is off, or `SendOnly` drops what it sends.
    Discard,
    /// Into the inline monitor (boxed: it holds a whole batch).
    Monitor(Box<InlineMonitor>),
}

/// One thread's slot as the stepper sees it: its clock, its costs, the
/// run's ledger and event sink.
struct SlotSink<'a> {
    clock: u64,
    costs: &'a ThreadCosts,
    ledger: &'a mut Ledger,
    events: &'a mut EventSink,
    tracer: Option<&'a mut SimTracer>,
}

impl Sink for SlotSink<'_> {
    #[inline]
    fn charge(&mut self, class: CostClass) {
        let cycles = self.costs.of(class);
        self.clock += cycles;
        self.ledger.cycles.add(class, cycles);
    }

    #[inline]
    fn wants_events(&self) -> bool {
        self.ledger.capture || self.ledger.mode != MonitorMode::Off
    }

    fn event(&mut self, event: BranchEvent) {
        let ledger = &mut *self.ledger;
        if ledger.capture {
            ledger.branch_events.push(event);
        }
        if ledger.mode == MonitorMode::Off {
            return;
        }
        self.clock += self.costs.event;
        ledger.cycles.cycles_events += self.costs.event;
        ledger.events_sent += 1;
        if let EventSink::Monitor(monitor) = self.events {
            monitor.send(event, self.clock, self.tracer.as_deref_mut());
        }
    }
}

#[derive(Clone)]
struct MutexState {
    owner: Option<u32>,
    waiters: Vec<u32>, // FIFO
}

#[derive(Clone)]
struct BarrierState {
    arrivals: Vec<(u32, u64)>, // (tid, arrival clock)
    /// The latest arrival clock so far (0 with no arrivals).
    last_arrival: u64,
}

/// Everything a run has computed so far, as of a scheduler-slot boundary:
/// memory, threads, the scheduler's tables and the ledger. A clone of it
/// is the same run, which is what lets a [`SimPrefix`] be forked.
#[derive(Clone)]
struct State {
    mem: SimMemory,
    ledger: Ledger,
    outputs: Vec<Val>,
    total_steps: u64,
    /// The SPMD threads; empty until `@init` has completed.
    threads: Vec<ThreadState>,
    clocks: Vec<u64>,
    blocked: Vec<bool>,
    finish_clock: Vec<u64>,
    mutexes: Vec<MutexState>,
    barriers: Vec<BarrierState>,
    /// Runnable threads by clock; entries of blocked or finished threads
    /// are stale and skipped when popped.
    heap: BinaryHeap<Reverse<(u64, u32)>>,
    /// How the parallel section ended and its simulated cycles, once it has
    /// (or once `@init` failed, which skips it).
    end: Option<End>,
}

/// How the parallel section ended, and its simulated cycles.
type End = (RunOutcome, u64);

/// Steps still allowed before the run counts as hung; `Err` once the next
/// step would be one too many (that step is counted, as the attempt that
/// tripped the cut).
fn steps_allowed(max_steps: u64, total_steps: &mut u64) -> Result<u64, RunOutcome> {
    let allowed = max_steps.saturating_sub(*total_steps);
    if allowed == 0 {
        *total_steps += 1;
        return Err(RunOutcome::Hung);
    }
    Ok(allowed)
}

fn max_clock(clocks: &[u64]) -> u64 {
    clocks.iter().copied().max().unwrap_or(0)
}

/// One run: `init`, then `slot` until it says the parallel section is
/// over, then `finish`. [`run_sim_engine`] does that in one go;
/// [`SimPrefix`] stops between two slots and clones the state.
#[derive(Clone)]
struct Sim<'a> {
    image: &'a ProgramImage,
    config: &'a ExecConfig,
    costs: Arc<[ThreadCosts]>,
    state: State,
    events: EventSink,
    tracer: Option<SimTracer>,
    /// Whether the run ends at an invisible fault ([`Yield::Invisible`]):
    /// only an untraced fork's does.
    prune: bool,
    /// Set when it has.
    pruned: bool,
}

impl<'a> Sim<'a> {
    fn new(image: &'a ProgramImage, config: &'a ExecConfig) -> Self {
        let n = config.nthreads;
        let regions = image.module.globals.len() as u32;
        Sim {
            image,
            config,
            costs: (0..n).map(|tid| ThreadCosts::new(tid, config, regions)).collect(),
            state: State {
                mem: SimMemory::new(&image.module),
                ledger: Ledger {
                    mode: config.monitor,
                    capture: config.capture_events,
                    events_sent: 0,
                    cycles: VmTelemetry::default(),
                    branch_events: Vec::new(),
                },
                outputs: Vec::new(),
                total_steps: 0,
                threads: Vec::new(),
                clocks: vec![0; n as usize],
                blocked: vec![false; n as usize],
                finish_clock: vec![0; n as usize],
                mutexes: (0..image.module.num_mutexes)
                    .map(|_| MutexState { owner: None, waiters: Vec::new() })
                    .collect(),
                barriers: (0..image.module.num_barriers)
                    .map(|_| BarrierState { arrivals: Vec::new(), last_arrival: 0 })
                    .collect(),
                heap: BinaryHeap::new(),
                end: None,
            },
            events: match config.monitor {
                MonitorMode::Enabled => {
                    EventSink::Monitor(Box::new(InlineMonitor::new(image, config)))
                }
                _ => EventSink::Discard,
            },
            tracer: None,
            prune: false,
            pruned: false,
        }
    }

    /// Runs a single-threaded phase (init / fini) on thread 0 state and
    /// returns the dynamic branches it took.
    fn run_serial(&mut self, func: bw_ir::FuncId, hook: &dyn BranchHook) -> Result<u64, RunOutcome> {
        let state = &mut self.state;
        let mut thread = ThreadState::new(0, func, self.image, self.config.serial_seed());
        loop {
            let allowed = steps_allowed(self.config.max_steps, &mut state.total_steps)?;
            let before = thread.steps;
            let yielded =
                thread.run(self.image, &state.mem, self.config.nthreads, hook, allowed, &mut NoSink);
            state.total_steps += thread.steps - before;
            match yielded {
                // Sync ops are no-ops single-threaded (a barrier with
                // nthreads participants in init would deadlock a real
                // program; our ports never do this).
                // Nor does a serial phase stop at an invisible fault: it
                // runs in no fork.
                Yield::Budget
                | Yield::Lock(_)
                | Yield::Unlock(_)
                | Yield::Barrier(_)
                | Yield::Invisible => {}
                Yield::Done => {
                    state.outputs.append(&mut thread.outputs);
                    return Ok(thread.dyn_branches);
                }
                Yield::Trap(k) => return Err(RunOutcome::Crashed(k)),
            }
        }
    }

    /// Phase 1: runs `@init` and readies the SPMD threads. Returns the
    /// dynamic branches `@init` took (as thread 0).
    fn init(&mut self, hook: &dyn BranchHook) -> u64 {
        let mut init_branches = 0;
        if let Some(init) = self.image.module.init {
            match self.run_serial(init, hook) {
                Ok(branches) => init_branches = branches,
                Err(outcome) => {
                    self.state.end = Some((outcome, 0));
                    return 0;
                }
            }
        }
        let Some(entry) = self.image.module.spmd_entry else {
            self.state.end = Some((RunOutcome::Completed, 0));
            return init_branches;
        };
        let n = self.config.nthreads;
        self.state.threads =
            (0..n).map(|tid| ThreadState::new(tid, entry, self.image, self.config.seed)).collect();
        self.state.heap = (0..n).map(|tid| Reverse((0u64, tid))).collect();
        init_branches
    }

    /// Phase 2, one step of it: pops the runnable thread with the smallest
    /// clock and runs it for one scheduler slot. Returns how the parallel
    /// section ended once it has; the end is kept in `state.end`, so every
    /// later call returns it again without running anything.
    fn slot(&mut self, hook: &dyn BranchHook) -> Option<End> {
        if self.state.end.is_none() {
            self.state.end = self.run_slot(hook);
        }
        self.state.end
    }

    /// [`Sim::slot`] on a parallel section still under way: `Some` if this
    /// slot ends it.
    fn run_slot(&mut self, hook: &dyn BranchHook) -> Option<End> {
        let config = self.config;
        let n = config.nthreads;
        let State {
            mem,
            ledger,
            total_steps,
            threads,
            clocks,
            blocked,
            finish_clock,
            mutexes,
            barriers,
            heap,
            ..
        } = &mut self.state;
        let Some(Reverse((clock, tid))) = heap.pop() else {
            return Some(if threads.iter().any(|t| t.finished.is_none()) {
                // Heap empty with unfinished threads: deadlock (e.g. a barrier
                // missing an arrival after a fault diverted control flow).
                (RunOutcome::Hung, max_clock(clocks))
            } else {
                if let Some(tr) = self.tracer.as_mut() {
                    tr.finish(finish_clock, threads);
                }
                (RunOutcome::Completed, max_clock(finish_clock))
            });
        };
        let t = tid as usize;
        if threads[t].finished.is_some() || blocked[t] {
            return None; // stale heap entry
        }
        let costs = &self.costs[t];
        let mut clock = clock.max(clocks[t]);

        // `quantum` steps, in as many stretches as the thread's sync
        // instructions cut them into.
        let mut slot = u64::from(config.quantum);
        let mut requeue = true;
        while slot > 0 {
            let allowed = match steps_allowed(config.max_steps, total_steps) {
                Ok(allowed) => allowed.min(slot),
                Err(hung) => {
                    clocks[t] = clock;
                    return Some((hung, max_clock(clocks)));
                }
            };
            let before = threads[t].steps;
            let mut sink = SlotSink {
                clock,
                costs,
                ledger,
                events: &mut self.events,
                tracer: self.tracer.as_mut(),
            };
            let yielded = threads[t].run(self.image, mem, n, hook, allowed, &mut sink);
            clock = sink.clock;
            if let (Some(tracer), EventSink::Monitor(monitor)) =
                (self.tracer.as_mut(), &mut self.events)
            {
                monitor.drain(Some(tracer));
            }
            let used = threads[t].steps - before;
            *total_steps += used;
            slot -= used;

            match yielded {
                Yield::Budget => {}
                Yield::Invisible => {
                    if self.prune {
                        self.pruned = true;
                        break;
                    }
                }
                Yield::Lock(m) => {
                    clock += costs.alu + MACHINE.lock;
                    ledger.cycles.add(CostClass::Alu, costs.alu);
                    ledger.cycles.cycles_sync += MACHINE.lock;
                    let ms = &mut mutexes[m.index()];
                    if ms.owner.is_none() {
                        ms.owner = Some(tid);
                        if let Some(tr) = self.tracer.as_mut() {
                            tr.lock_acquired(m.index(), clock);
                        }
                    } else {
                        ms.waiters.push(tid);
                        if let Some(tr) = self.tracer.as_mut() {
                            tr.lock_blocked(tid, clock);
                        }
                        blocked[t] = true;
                        requeue = false;
                        break;
                    }
                }
                Yield::Unlock(m) => {
                    clock += MACHINE.lock;
                    ledger.cycles.cycles_sync += MACHINE.lock;
                    let ms = &mut mutexes[m.index()];
                    if ms.owner != Some(tid) {
                        // Control flow corrupted into an unlock the
                        // thread does not own: crash, like glibc would.
                        clocks[t] = clock;
                        return Some((RunOutcome::Crashed(TrapKind::BadUnlock), max_clock(clocks)));
                    }
                    ms.owner = None;
                    if let Some(tr) = self.tracer.as_mut() {
                        tr.lock_released(tid, m.index(), clock);
                    }
                    if !ms.waiters.is_empty() {
                        let next = ms.waiters.remove(0);
                        ms.owner = Some(next);
                        let nt = next as usize;
                        clocks[nt] = clocks[nt].max(clock) + MACHINE.lock_handoff;
                        blocked[nt] = false;
                        if let Some(tr) = self.tracer.as_mut() {
                            tr.lock_handoff(next, m.index(), clocks[nt]);
                        }
                        heap.push(Reverse((clocks[nt], next)));
                    }
                }
                Yield::Barrier(b) => {
                    let bs = &mut barriers[b.index()];
                    bs.arrivals.push((tid, clock));
                    bs.last_arrival = bs.last_arrival.max(clock);
                    // Barriers are sized to the full thread count, like
                    // the pthread barriers in SPLASH-2: if a fault makes
                    // a thread exit early, the remaining threads
                    // deadlock here and the run is classified as hung.
                    if bs.arrivals.len() == n as usize {
                        // Release everyone at the max arrival clock.
                        let release = bs.last_arrival + MACHINE.barrier_latency(n);
                        ledger.cycles.cycles_sync += MACHINE.barrier_latency(n);
                        for &(other, _) in &bs.arrivals {
                            let ot = other as usize;
                            clocks[ot] = release;
                            if other != tid {
                                blocked[ot] = false;
                                heap.push(Reverse((release, other)));
                            }
                        }
                        if let Some(tr) = self.tracer.as_mut() {
                            tr.barrier_release(&bs.arrivals, release, threads);
                        }
                        bs.arrivals.clear();
                        bs.last_arrival = 0;
                        clock = release;
                    } else {
                        blocked[t] = true;
                        requeue = false;
                        break;
                    }
                }
                Yield::Done => {
                    finish_clock[t] = clock;
                    requeue = false;
                    break;
                }
                Yield::Trap(k) => {
                    clocks[t] = clock;
                    return Some((RunOutcome::Crashed(k), max_clock(clocks)));
                }
            }
        }

        clocks[t] = clock;
        if requeue {
            heap.push(Reverse((clock, tid)));
        }
        None
    }

    /// The rest of the run from wherever it stands.
    fn run(mut self, hook: &dyn BranchHook) -> RunResult {
        loop {
            if let Some(end) = self.slot(hook) {
                return self.finish(end, hook);
            }
        }
    }

    /// The rest of a [`SimPrefix`]'s run under `hook`, its held spans
    /// written first. An untraced fork stops at an invisible fault; a
    /// traced one writes every span of its run, so it goes on.
    fn fork(mut self, hook: &dyn BranchHook) -> Fork {
        self.tracer = self.tracer.map(SimTracer::into_fork);
        self.prune = self.tracer.is_none();
        loop {
            if let Some(end) = self.slot(hook) {
                let result = self.finish(end, hook);
                crate::live::record_run(&result);
                return Fork::Ran(result);
            }
            if self.pruned {
                return Fork::Stopped { steps: self.state.total_steps };
            }
        }
    }

    /// Phase 3, once the parallel section has ended as `end`: `@fini` if
    /// the program survived, then the result.
    fn finish(mut self, end: End, hook: &dyn BranchHook) -> RunResult {
        let (mut outcome, parallel_cycles) = end;
        let branches_per_thread: Vec<u64> =
            self.state.threads.iter().map(|t| t.dyn_branches).collect();
        let steps_per_thread: Vec<u64> = self.state.threads.iter().map(|t| t.steps).collect();
        if outcome == RunOutcome::Completed {
            let State { threads, outputs, .. } = &mut self.state;
            for t in threads {
                outputs.append(&mut t.outputs);
            }
            if let Some(fini) = self.image.module.fini {
                if let Err(o) = self.run_serial(fini, hook) {
                    outcome = o;
                }
            }
        }

        let State { ledger, outputs, total_steps, .. } = self.state;
        let Ledger { events_sent, cycles, branch_events, .. } = ledger;
        let verdict = match self.events {
            EventSink::Monitor(mut inline) => {
                // Every event sent is checked, however the run ended. The
                // end-of-run flush only happens if the program survived: a
                // crash or hang kills the real monitor thread along with the
                // process, so only eagerly detected violations count.
                inline.drain(self.tracer.as_mut());
                let mut m = inline.monitor;
                if outcome == RunOutcome::Completed {
                    m.flush();
                }
                Some(m.into_verdict())
            }
            _ => None,
        };
        let (violations, violation_reports, events_processed, monitor) = match verdict {
            Some(v) => (v.violations, v.violation_reports, v.events_processed, Some(v.telemetry)),
            None => (Vec::new(), Vec::new(), 0, None),
        };
        RunResult {
            outcome,
            outputs,
            parallel_cycles,
            violations,
            violation_reports,
            total_steps,
            events_sent,
            events_processed,
            branches_per_thread,
            steps_per_thread,
            engine: EngineKind::Sim,
            cycles,
            monitor,
            branch_events,
        }
    }
}

/// A fault-free run of the sim engine that can be stopped between two
/// scheduler slots and *forked*: [`SimPrefix::resume`] continues a copy of
/// it under a hook, to the same [`RunResult`] — bit for bit — that
/// [`SimEngine::run_hooked`](crate::SimEngine::run_hooked) returns for
/// that hook, provided the hook stays silent on every branch the prefix
/// has already executed. A fault-injection campaign advances one prefix
/// past many fault points instead of re-interpreting the program from
/// step 0 for each.
///
/// The prefix runs hook-free, with the monitor the configuration asks for:
/// under [`MonitorMode::Enabled`] its inline monitor checks each event as
/// it is sent, as in any run, and each fork continues a clone of it, so
/// verdicts, reports and monitor telemetry come out as if one monitor had
/// watched the whole run — and the prefix's events are checked once, not
/// once per fork.
///
/// The trace is forked with the state. If a span sink is installed when
/// the prefix is created (`bw_telemetry::set_trace_sink`; looked up once,
/// there), the prefix holds back the `tspan` records of its part of the
/// run — the verdict arrows of violations its monitor completes among them,
/// at the sender's clock — and each fork first writes them to the sink, on
/// the thread that calls [`SimPrefix::resume`], so they pick up its
/// `TraceScope`; it then goes on tracing where the prefix stood: open
/// barrier phases, lock waits and holds and the next flow id carry over.
/// Within one fork the sequence of `tspan` records is, field for field, the
/// one `run_hooked` writes under the same scope.
///
/// A fork can also stop early: when its hook's condition-data fault leaves
/// the branch's direction alone and corrupts a value nothing reads any more
/// ([`BranchHook::dead_after`]), the fork returns [`Fork::Stopped`] right
/// after that branch instead of running a tail that would be the prefix's
/// own. A fork under a span sink never stops: it owes the sink its spans.
pub struct SimPrefix<'a> {
    sim: Sim<'a>,
    init_branches: u64,
}

impl<'a> SimPrefix<'a> {
    /// Runs `@init` (hook-free) and stops before the parallel section's
    /// first slot.
    pub fn new(image: &'a ProgramImage, config: &'a ExecConfig) -> Self {
        let mut sim = Sim::new(image, config);
        sim.tracer = SimTracer::installed(image, config)
            .map(|tracer| SimTracer { held: Some(Vec::new()), ..tracer });
        let init_branches = sim.init(&NoHook);
        SimPrefix { sim, init_branches }
    }

    /// Dynamic branches `@init` took. It ran as thread 0 with an index
    /// stream of its own, so a hook that fires at thread 0's `k`-th branch
    /// with `k` at most this would have fired in `@init` — behind this
    /// prefix, which therefore cannot be resumed under it.
    pub fn init_branches(&self) -> u64 {
        self.init_branches
    }

    /// Instructions the prefix has executed, `@init` included: the part of
    /// a fork's [`RunResult::total_steps`] it inherits.
    pub fn steps(&self) -> u64 {
        self.sim.state.total_steps
    }

    /// Runs scheduler slots until the next one could take some thread to
    /// its target, and returns that thread. `targets[t]` is the (1-based)
    /// dynamic branch of thread `t` that must not be executed yet; the
    /// prefix stops before a slot of `t` that starts within `quantum`
    /// branches of it, the last boundary at which `t` provably has not
    /// reached it. Returns `None` once the parallel section is over with
    /// no target in reach (a thread that never gets to its target); the
    /// prefix can still be resumed there.
    pub fn advance_to(&mut self, targets: &[Option<u64>]) -> Option<u32> {
        let quantum = u64::from(self.sim.config.quantum);
        loop {
            let state = &self.sim.state;
            if let Some(&Reverse((_, tid))) = state.heap.peek() {
                let t = tid as usize;
                let thread = &state.threads[t];
                let runnable = thread.finished.is_none() && !state.blocked[t];
                let target = targets.get(t).copied().flatten();
                if runnable && target.is_some_and(|k| thread.dyn_branches + quantum >= k) {
                    return Some(tid);
                }
            }
            if self.sim.slot(&NoHook).is_some() {
                return None;
            }
        }
    }

    /// Continues a copy of the run under `hook` to its end, or to an
    /// invisible fault. Exact when `hook` returns `None` for every branch
    /// executed so far: thread 0's first [`SimPrefix::init_branches`] in
    /// `@init`, and every branch short of the targets
    /// [`SimPrefix::advance_to`] was given.
    pub fn resume(&self, hook: &dyn BranchHook) -> Fork {
        self.sim.clone().fork(hook)
    }

    /// [`SimPrefix::resume`] for the last fork of a prefix: the run itself
    /// continues, its state and inline monitor moved instead of cloned, and
    /// dropped when the fork ends instead of when the prefix would have.
    pub fn finish(self, hook: &dyn BranchHook) -> Fork {
        self.sim.fork(hook)
    }
}

/// How a fork of a [`SimPrefix`] ended. (Returned once per fork and
/// matched at once: boxing the result would cost every fork an allocation
/// to save a move.)
#[derive(Debug)]
#[allow(clippy::large_enum_variant)]
pub enum Fork {
    /// It ran to its end: the [`RunResult`] `run_hooked` returns for the
    /// same hook.
    Ran(RunResult),
    /// It stopped right after its fault, a condition-data flip that left
    /// the branch's direction alone and corrupted a value the run reads no
    /// more ([`BranchHook::dead_after`]). From there on the run is the
    /// prefix's own, fault-free one, and so is its result: `run_hooked`
    /// returns what the unhooked run does.
    Stopped {
        /// Instructions executed up to the stop, the prefix's included.
        steps: u64,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, SimEngine};
    use bw_ir::Val;

    fn compile(src: &str) -> ProgramImage {
        ProgramImage::prepare_default(bw_ir::frontend::compile(src).expect("compile"))
    }

    /// The slot sink asks for events when the monitor is on or the run
    /// captures them; otherwise the stepper builds none.
    #[test]
    fn the_slot_sink_wants_events_the_run_uses() {
        let costs = ThreadCosts::new(0, &ExecConfig::new(1), 0);
        for (mode, capture, wanted) in [
            (MonitorMode::Off, false, false),
            (MonitorMode::Off, true, true),
            (MonitorMode::SendOnly, false, true),
            (MonitorMode::Enabled, false, true),
        ] {
            let mut ledger = Ledger {
                mode,
                capture,
                events_sent: 0,
                cycles: VmTelemetry::default(),
                branch_events: Vec::new(),
            };
            let sink = SlotSink {
                clock: 0,
                costs: &costs,
                ledger: &mut ledger,
                events: &mut EventSink::Discard,
                tracer: None,
            };
            assert_eq!(sink.wants_events(), wanted, "{mode:?}, capture {capture}");
        }
    }

    #[test]
    fn runs_simple_program_and_collects_outputs() {
        let image = compile(
            r#"
            @spmd func f() {
                output(threadid());
            }
            "#,
        );
        let result = SimEngine.run(&image, &ExecConfig::new(4));
        assert_eq!(result.outcome, RunOutcome::Completed);
        assert_eq!(
            result.outputs,
            vec![Val::I64(0), Val::I64(1), Val::I64(2), Val::I64(3)]
        );
        assert!(!result.detected());
    }

    #[test]
    fn init_and_fini_run_single_threaded() {
        let image = compile(
            r#"
            shared int n = 0;
            int acc = 0;
            @init func setup() { n = 5; output(100); }
            @spmd func f() {
                lock_free_add();
            }
            func lock_free_add() {
                var i: int = fetch_add(acc, 1);
                output(i);
            }
            @fini func teardown() { output(acc); }
            "#,
        );
        let result = SimEngine.run(&image, &ExecConfig::new(2));
        assert_eq!(result.outcome, RunOutcome::Completed);
        assert_eq!(result.outputs.first(), Some(&Val::I64(100)));
        assert_eq!(result.outputs.last(), Some(&Val::I64(2)));
    }

    #[test]
    fn deterministic_across_runs() {
        let image = compile(
            r#"
            shared int n = 64;
            float grid[256];
            mutex m;
            int counter = 0;
            @spmd func f() {
                var t: int = threadid();
                for (var i: int = 0; i < n; i = i + 1) {
                    grid[t * n / numthreads() + i / numthreads()] = float(i * t);
                }
                lock(m);
                counter = counter + 1;
                unlock(m);
                output(rand(1000));
            }
            "#,
        );
        let a = SimEngine.run(&image, &ExecConfig::new(4));
        let b = SimEngine.run(&image, &ExecConfig::new(4));
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.parallel_cycles, b.parallel_cycles);
        assert_eq!(a.total_steps, b.total_steps);
        assert_eq!(a.branches_per_thread, b.branches_per_thread);
    }

    #[test]
    fn mutexes_serialize_critical_sections() {
        let image = compile(
            r#"
            mutex m;
            int counter = 0;
            @spmd func f() {
                lock(m);
                counter = counter + 1;
                unlock(m);
            }
            @fini func done() { output(counter); }
            "#,
        );
        let result = SimEngine.run(&image, &ExecConfig::new(8));
        assert_eq!(result.outcome, RunOutcome::Completed);
        assert_eq!(result.outputs, vec![Val::I64(8)]);
    }

    #[test]
    fn barrier_synchronizes_phases() {
        let image = compile(
            r#"
            barrier b;
            int phase1[32];
            @spmd func f() {
                var t: int = threadid();
                phase1[t] = t + 1;
                barrier(b);
                // After the barrier every slot written by phase 1 is visible.
                var sum: int = 0;
                for (var i: int = 0; i < numthreads(); i = i + 1) {
                    sum = sum + phase1[i];
                }
                output(sum);
            }
            "#,
        );
        let result = SimEngine.run(&image, &ExecConfig::new(4));
        assert_eq!(result.outcome, RunOutcome::Completed);
        // 1+2+3+4 = 10 from every thread.
        assert_eq!(result.outputs, vec![Val::I64(10); 4]);
    }

    #[test]
    fn divide_by_zero_crashes_the_program() {
        let image = compile(
            r#"
            shared int zero = 0;
            @spmd func f() {
                output(10 / zero);
            }
            "#,
        );
        let result = SimEngine.run(&image, &ExecConfig::new(2));
        assert_eq!(result.outcome, RunOutcome::Crashed(TrapKind::DivideByZero));
    }

    #[test]
    fn out_of_bounds_crashes() {
        let image = compile(
            r#"
            float grid[4];
            @spmd func f() {
                grid[9] = 1.0;
            }
            "#,
        );
        let result = SimEngine.run(&image, &ExecConfig::new(1));
        assert_eq!(result.outcome, RunOutcome::Crashed(TrapKind::OutOfBounds));
    }

    #[test]
    fn infinite_loop_hangs() {
        let image = compile(
            r#"
            @spmd func f() {
                var i: int = 0;
                while (true) { i = i + 1; }
            }
            "#,
        );
        let mut config = ExecConfig::new(2);
        config.max_steps = 100_000;
        let result = SimEngine.run(&image, &config);
        assert_eq!(result.outcome, RunOutcome::Hung);
    }

    #[test]
    fn fault_free_runs_have_no_violations() {
        let image = compile(
            r#"
            shared int n = 32;
            int data[512];
            @init func setup() {
                for (var i: int = 0; i < 512; i = i + 1) { data[i] = rand(100); }
            }
            @spmd func f() {
                var t: int = threadid();
                if (t == 0) { output(1); }
                for (var i: int = 0; i < n; i = i + 1) {
                    if (data[t * n + i] > 50) { output(i); }
                }
            }
            "#,
        );
        for nthreads in [1, 2, 4, 8] {
            let result = SimEngine.run(&image, &ExecConfig::new(nthreads));
            assert_eq!(result.outcome, RunOutcome::Completed, "n={nthreads}");
            assert!(!result.detected(), "false positive at n={nthreads}");
            assert!(result.events_sent > 0 || nthreads == 0);
        }
    }

    #[test]
    fn instrumentation_costs_cycles() {
        let image = compile(
            r#"
            shared int n = 256;
            @spmd func f() {
                var acc: int = 0;
                for (var i: int = 0; i < n; i = i + 1) { acc = acc + i; }
                output(acc);
            }
            "#,
        );
        let mut on = ExecConfig::new(4);
        on.monitor = MonitorMode::Enabled;
        let mut off = ExecConfig::new(4);
        off.monitor = MonitorMode::Off;
        let with = SimEngine.run(&image, &on);
        let without = SimEngine.run(&image, &off);
        assert_eq!(with.outputs, without.outputs);
        assert!(
            with.parallel_cycles > without.parallel_cycles,
            "instrumented {} !> baseline {}",
            with.parallel_cycles,
            without.parallel_cycles
        );
    }

    #[test]
    fn send_only_mode_costs_like_enabled_but_checks_nothing() {
        let image = compile(
            r#"
            shared int n = 64;
            @spmd func f() {
                for (var i: int = 0; i < n; i = i + 1) { output(i); }
            }
            "#,
        );
        let mut enabled = ExecConfig::new(4);
        enabled.monitor = MonitorMode::Enabled;
        let mut send_only = ExecConfig::new(4);
        send_only.monitor = MonitorMode::SendOnly;
        let a = SimEngine.run(&image, &enabled);
        let b = SimEngine.run(&image, &send_only);
        assert_eq!(a.parallel_cycles, b.parallel_cycles);
        assert_eq!(b.violations.len(), 0);
        assert_eq!(a.events_sent, b.events_sent);
    }

    #[test]
    fn sharded_monitor_is_verdict_and_cost_neutral() {
        let image = compile(
            r#"
            shared int n = 48;
            int data[512];
            @init func setup() {
                for (var i: int = 0; i < 512; i = i + 1) { data[i] = rand(100); }
            }
            @spmd func f() {
                var t: int = threadid();
                for (var i: int = 0; i < n; i = i + 1) {
                    if (data[t * n + i] > 50) { output(i); }
                }
            }
            "#,
        );
        let flat = SimEngine.run(&image, &ExecConfig::new(4));
        assert_eq!(flat.outcome, RunOutcome::Completed);
        assert!(flat.events_processed > 0);
        for shards in [1usize, 2, 4, 8] {
            let sharded =
                SimEngine.run(&image, &ExecConfig::new(4).monitor_shards(Some(shards)));
            assert_eq!(sharded.outcome, flat.outcome, "shards={shards}");
            assert_eq!(sharded.outputs, flat.outputs, "shards={shards}");
            assert_eq!(sharded.parallel_cycles, flat.parallel_cycles, "shards={shards}");
            assert_eq!(sharded.total_steps, flat.total_steps, "shards={shards}");
            assert_eq!(sharded.events_processed, flat.events_processed, "shards={shards}");
            assert_eq!(sharded.violations, flat.violations, "shards={shards}");
            assert_eq!(sharded.violation_reports, flat.violation_reports, "shards={shards}");
        }
    }

    #[test]
    fn duplication_mode_is_slower() {
        let image = compile(
            r#"
            shared int n = 128;
            float grid[512];
            @spmd func f() {
                var t: int = threadid();
                for (var i: int = 0; i < n; i = i + 1) {
                    grid[t * 4 + i / 32] = float(i);
                }
            }
            "#,
        );
        let mut base = ExecConfig::new(32);
        base.monitor = MonitorMode::Off;
        let mut dup = base.clone();
        dup.exec = ExecMode::Duplicated;
        let a = SimEngine.run(&image, &base);
        let b = SimEngine.run(&image, &dup);
        assert!(b.parallel_cycles > a.parallel_cycles * 3 / 2);
    }
}
