//! Fault-injection campaigns: golden run, N randomized injections,
//! outcome classification and coverage statistics — the experimental
//! procedure of the paper's Section IV.
//!
//! A campaign runs in three explicit stages:
//!
//! 1. **Plan** ([`plan_campaign`]): every [`InjectionPlan`] is derived up
//!    front from a per-injection PRNG stream keyed on
//!    `(campaign_seed, injection_index)`, so the set of planned faults is
//!    a pure function of the configuration — independent of how the
//!    experiments are later scheduled.
//! 2. **Execute**: a `std::thread` worker pool shares the immutable
//!    [`ProgramImage`] and claims *windows* of consecutive injection
//!    indices from an atomic counter. Claimed indices always form a
//!    contiguous prefix of the plan list, which is what makes early abort
//!    deterministic. A window's injections are not replayed from step 0:
//!    one fault-free [`SimPrefix`] advances past the window's fault points
//!    and every injection is a fork of it — the golden part of its run
//!    inherited, only the faulty tail executed (see `execute_window` for
//!    the three cases that still replay in full). A forked run's
//!    `RunResult` is the replayed one bit for bit, so nothing downstream
//!    can tell.
//! 3. **Reduce**: records are merged in injection-index order and the
//!    abort cut (stop after N SDCs, stop on first detection) is
//!    recomputed over that deterministic order. The result is therefore
//!    **bitwise identical for any worker count**.

use std::borrow::Cow;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use bw_telemetry::{
    Histogram, Record, Recorder, Span, TelemetrySnapshot, TimeDomain, TraceScope, Value,
    NULL_RECORDER,
};
use bw_monitor::{TraceViolation, ViolationReport};
use bw_vm::{
    engine, Engine, EngineKind, ExecConfig, ProgramImage, RunOutcome, RunResult, SimPrefix,
    SplitMix64,
};

use crate::injector::{FaultModel, InjectionHook, InjectionPlan};

// The campaign engine shares `&ProgramImage` (and the golden `RunResult`)
// across worker threads; fail the build loudly if either ever grows
// interior mutability that would make that unsound.
const _: () = {
    const fn assert_sync<T: Sync>() {}
    assert_sync::<ProgramImage>();
    assert_sync::<RunResult>();
    assert_sync::<ExecConfig>();
};

/// Classification of one injection experiment.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultOutcome {
    /// The fault did not reach its target branch (e.g. the thread executed
    /// fewer branches than profiled — cannot happen in the deterministic
    /// engine, kept for API completeness) or the thread had no branches.
    NotActivated,
    /// The monitor flagged a violation.
    Detected,
    /// The program crashed (trap).
    Crashed,
    /// The program hung (deadlock or step-budget exhaustion).
    Hung,
    /// The program completed with the golden output.
    Masked,
    /// Silent data corruption: completed with wrong output.
    Sdc,
}

impl FaultOutcome {
    /// Stable lowercase name, used in telemetry records and reports.
    pub fn name(self) -> &'static str {
        match self {
            FaultOutcome::NotActivated => "not_activated",
            FaultOutcome::Detected => "detected",
            FaultOutcome::Crashed => "crashed",
            FaultOutcome::Hung => "hung",
            FaultOutcome::Masked => "masked",
            FaultOutcome::Sdc => "sdc",
        }
    }
}

/// Aggregate counts of a campaign.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OutcomeCounts {
    /// Injections that did not activate.
    pub not_activated: usize,
    /// Monitor detections.
    pub detected: usize,
    /// Crashes.
    pub crashed: usize,
    /// Hangs.
    pub hung: usize,
    /// Benign (masked) faults.
    pub masked: usize,
    /// Silent data corruptions.
    pub sdc: usize,
}

impl OutcomeCounts {
    /// Number of activated injections.
    pub fn activated(&self) -> usize {
        self.detected + self.crashed + self.hung + self.masked + self.sdc
    }

    /// The paper's coverage metric: the probability that an activated fault
    /// does **not** lead to an SDC (`1 − SDC_f`). Crashes, hangs, masked
    /// faults and detections all count as covered.
    pub fn coverage(&self) -> f64 {
        let activated = self.activated();
        if activated == 0 {
            return 1.0;
        }
        1.0 - self.sdc as f64 / activated as f64
    }

    /// Fraction of activated faults the monitor itself detected.
    pub fn detection_rate(&self) -> f64 {
        let activated = self.activated();
        if activated == 0 {
            return 0.0;
        }
        self.detected as f64 / activated as f64
    }

    pub(crate) fn add(&mut self, outcome: FaultOutcome) {
        match outcome {
            FaultOutcome::NotActivated => self.not_activated += 1,
            FaultOutcome::Detected => self.detected += 1,
            FaultOutcome::Crashed => self.crashed += 1,
            FaultOutcome::Hung => self.hung += 1,
            FaultOutcome::Masked => self.masked += 1,
            FaultOutcome::Sdc => self.sdc += 1,
        }
    }
}

/// One injection's record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InjectionRecord {
    /// What was injected where.
    pub plan: InjectionPlan,
    /// The static branch hit, if activated.
    pub branch: Option<u32>,
    /// The classification.
    pub outcome: FaultOutcome,
    /// The first [`ViolationReport`] of the faulty run, when the monitor
    /// detected it: the causal evidence tying this injection to its
    /// detection (deviant threads, window, latency). Boxed to keep the
    /// record small for the common undetected case.
    pub report: Option<Box<ViolationReport>>,
    /// Monitor messages between the corruption entering the event stream
    /// and the check firing (see [`ViolationReport::detection_latency`]);
    /// `None` when undetected or when the deviant aged out of the window.
    pub detection_latency: Option<u64>,
}

/// Why a campaign could not run.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum CampaignError {
    /// The golden (fault-free) run did not complete: the program must be
    /// correct before faults are injected into it.
    GoldenRunFailed {
        /// How the golden run actually ended.
        outcome: RunOutcome,
    },
    /// The campaign was configured with zero threads — there is nothing to
    /// inject into.
    NoThreads,
    /// A cached golden run was provided (see `run_campaign_with_golden`)
    /// but does not match the campaign's thread count.
    GoldenMismatch {
        /// Threads the campaign configuration asks for.
        expected: usize,
        /// Threads the supplied golden run actually profiled.
        actual: usize,
    },
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::GoldenRunFailed { outcome } => {
                write!(f, "golden run did not complete (ended {outcome:?}); refusing to inject faults into an already-failing program")
            }
            CampaignError::NoThreads => {
                write!(f, "campaign configured with zero threads; nothing to inject into")
            }
            CampaignError::GoldenMismatch { expected, actual } => {
                write!(
                    f,
                    "cached golden run profiled {actual} thread(s) but the campaign is configured for {expected}"
                )
            }
        }
    }
}

impl std::error::Error for CampaignError {}

/// A streaming progress report, delivered once per finished injection.
///
/// Reports arrive in completion order — within a worker's window that is
/// the order in which the program reaches the fault points, not index
/// order, and with more than one worker it is nondeterministic;
/// `completed`/`total` are still monotonic and exact.
#[derive(Clone, Copy, Debug)]
#[non_exhaustive]
pub struct CampaignProgress {
    /// Index of the injection that just finished.
    pub index: usize,
    /// Its classification.
    pub outcome: FaultOutcome,
    /// Number of injections finished so far (including this one).
    pub completed: usize,
    /// Number of injections planned.
    pub total: usize,
    /// Microseconds since the campaign's execute stage started. Wall
    /// clock: display material only — it never flows into results, so
    /// same-seed determinism is unaffected.
    pub elapsed_us: u64,
}

impl CampaignProgress {
    /// Completed injections per second so far (`0.0` before the clock
    /// has measurably advanced).
    pub fn rate(&self) -> f64 {
        if self.elapsed_us == 0 {
            0.0
        } else {
            self.completed as f64 * 1e6 / self.elapsed_us as f64
        }
    }

    /// Estimated microseconds until the remaining injections finish at
    /// the current rate; `None` until there is a rate to extrapolate.
    pub fn eta_us(&self) -> Option<u64> {
        if self.completed == 0 || self.elapsed_us == 0 {
            return None;
        }
        let remaining = self.total.saturating_sub(self.completed) as f64;
        Some((remaining * self.elapsed_us as f64 / self.completed as f64) as u64)
    }
}

/// The progress-callback type accepted by the `*_with` campaign entry
/// points. Called from worker threads, hence `Sync`.
pub type ProgressFn<'a> = dyn Fn(CampaignProgress) + Sync + 'a;

/// Campaign configuration.
///
/// Construct with [`CampaignConfig::new`] and refine with the builder-style
/// setters; the struct is `#[non_exhaustive]`, so literal construction is
/// reserved for this crate.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct CampaignConfig {
    /// Number of injection experiments.
    pub injections: usize,
    /// Fault model for every experiment.
    pub model: FaultModel,
    /// RNG seed for target selection. Each injection derives its own PRNG
    /// stream from `(seed, injection_index)`, so results do not depend on
    /// worker scheduling.
    pub seed: u64,
    /// The execution configuration (thread count, monitor mode, …). The
    /// golden run uses the same configuration with no fault.
    pub sim: ExecConfig,
    /// Which execution engine runs the golden and faulty experiments.
    /// Defaults to [`EngineKind::Sim`], the deterministic scheduler the
    /// paper's tables are built on. [`EngineKind::Real`] runs every
    /// experiment on real OS threads — classifications then inherit the
    /// host's scheduling nondeterminism (an SDC verdict compares against a
    /// golden run whose output order must be schedule-independent), so use
    /// it for exercising the concurrent machinery, not for reproducing the
    /// paper's numbers. Consider lowering [`ExecConfig::watchdog_ms`]: a
    /// deadlocked real-engine experiment costs that long in wall time.
    pub engine: EngineKind,
    /// Worker threads for the execution stage; `0` means
    /// `std::thread::available_parallelism()`.
    pub workers: usize,
    /// Stop early once this many SDCs have been observed. The surviving
    /// record prefix is identical at any worker count.
    pub abort_after_sdc: Option<usize>,
    /// Stop early at the first monitor detection; the same cut.
    pub abort_on_detection: bool,
}

impl CampaignConfig {
    /// A campaign of `injections` faults of `model` on `nthreads` threads.
    pub fn new(injections: usize, model: FaultModel, nthreads: u32) -> Self {
        CampaignConfig {
            injections,
            model,
            seed: 0xfa_017,
            sim: ExecConfig::new(nthreads),
            engine: EngineKind::Sim,
            workers: 0,
            abort_after_sdc: None,
            abort_on_detection: false,
        }
    }

    /// Sets the target-selection seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Selects the execution engine (see [`CampaignConfig::engine`]).
    pub fn engine(mut self, engine: EngineKind) -> Self {
        self.engine = engine;
        self
    }

    /// Sets the worker-thread count (`0` = available parallelism).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Replaces the simulation configuration wholesale.
    pub fn sim(mut self, sim: ExecConfig) -> Self {
        self.sim = sim;
        self
    }

    /// Stops the campaign once `n` SDCs have been observed. The records
    /// end with the injection that made it `n`, at any worker count;
    /// workers stop claiming once the condition is seen but finish what
    /// they hold, so up to one window of injections per worker (at most
    /// 32) runs past the cut and is discarded.
    pub fn abort_after_sdc(mut self, n: usize) -> Self {
        self.abort_after_sdc = Some(n);
        self
    }

    /// Stops the campaign at the first monitor detection. The records end
    /// with that injection, at any worker count; as with
    /// [`CampaignConfig::abort_after_sdc`], up to one window of injections
    /// per worker runs past the cut and is discarded.
    pub fn abort_on_detection(mut self, yes: bool) -> Self {
        self.abort_on_detection = yes;
        self
    }
}

/// Execution statistics of one campaign worker thread.
///
/// Which injections land on which worker depends on OS scheduling, so
/// these statistics (unlike the records and counts) are **not**
/// deterministic across runs with more than one worker.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Worker index, `0..nworkers`.
    pub worker: usize,
    /// Injections this worker executed.
    pub injections: u64,
    /// Wall-clock microseconds from worker start to exit.
    pub wall_us: u64,
    /// Microseconds spent inside injection runs, the advance of the
    /// prefix they were forked from included (excludes claiming and
    /// bookkeeping); `wall_us - busy_us` is coordination overhead.
    pub busy_us: u64,
    /// Interpreter steps this worker executed: full replays, the tails of
    /// forked injections and the prefixes they were forked from. Exact.
    pub steps_run: u64,
    /// Interpreter steps this worker's injections inherited from a prefix
    /// instead of executing them, less the steps the prefixes themselves
    /// took: `steps_run + steps_skipped` is what replaying every one of
    /// its injections from step 0 would have executed. Exact; `0` where
    /// every injection is a full replay (the real engine).
    pub steps_skipped: u64,
}

impl WorkerStats {
    /// The `ev` tag of a worker's trace record.
    pub const EV: &'static str = "worker";

    /// Injections per second over the worker's wall time.
    pub fn throughput(&self) -> f64 {
        if self.wall_us == 0 {
            return 0.0;
        }
        self.injections as f64 * 1e6 / self.wall_us as f64
    }

    /// The share of a full replay of every injection that forking from a
    /// prefix spared this worker.
    pub fn skipped_share(&self) -> f64 {
        self.steps_skipped as f64 / self.steps_run.saturating_add(self.steps_skipped).max(1) as f64
    }

    /// Writes the worker's `worker` record.
    pub fn record_to(&self, recorder: &dyn Recorder) {
        recorder.record(
            Self::EV,
            &[
                ("worker", Value::from(self.worker)),
                ("injections", Value::from(self.injections)),
                ("wall_us", Value::from(self.wall_us)),
                ("busy_us", Value::from(self.busy_us)),
                ("steps_run", Value::from(self.steps_run)),
                ("steps_skipped", Value::from(self.steps_skipped)),
            ],
        );
    }

    /// Decodes a `worker` record; one from before the step counts existed
    /// reads them as 0.
    pub fn from_record(rec: Record<'_>) -> Result<WorkerStats, String> {
        let mut stats = WorkerStats::default();
        for (name, value) in &rec.fields {
            let slot = match &**name {
                "injections" => &mut stats.injections,
                "wall_us" => &mut stats.wall_us,
                "busy_us" => &mut stats.busy_us,
                "steps_run" => &mut stats.steps_run,
                "steps_skipped" => &mut stats.steps_skipped,
                "worker" => {
                    stats.worker = Record::u64(rec.line, name, value)? as usize;
                    continue;
                }
                _ => continue,
            };
            *slot = Record::u64(rec.line, name, value)?;
        }
        Ok(stats)
    }
}

/// One `injection` trace record: what a campaign books per experiment, as
/// the trace views read it back (its strings borrowed from the trace text).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceInjection<'a> {
    /// Batch image index, in a batch.
    pub image: Option<u64>,
    /// Injection index within its campaign.
    pub index: u64,
    /// The pool worker that ran it.
    pub worker: u64,
    /// Outcome name (`detected`, `sdc`, …).
    pub outcome: Cow<'a, str>,
    /// Static branch hit, if the fault activated.
    pub branch: Option<u64>,
    /// Similarity category of that branch (`shared` / `threadID` /
    /// `partial`), or `-` when missed or uninstrumented.
    pub category: Cow<'a, str>,
    /// Wall-clock microseconds the experiment took.
    pub dur_us: u64,
}

impl<'a> TraceInjection<'a> {
    /// The `ev` tag of the record.
    pub const EV: &'static str = "injection";

    /// Writes the record; a fault that hit no branch has `branch` `"-"`.
    pub fn record_to(self, recorder: &dyn Recorder) {
        let branch = self.branch.map_or(Cow::Borrowed("-"), |b| Cow::Owned(b.to_string()));
        let fields = [
            ("index", Value::U64(self.index)),
            ("worker", Value::U64(self.worker)),
            ("outcome", Value::Str(self.outcome)),
            ("branch", Value::Str(branch)),
            ("category", Value::Str(self.category)),
            ("dur_us", Value::U64(self.dur_us)),
        ];
        let image = self.image.map(|i| ("image", Value::U64(i)));
        recorder.record(Self::EV, &image.into_iter().chain(fields).collect::<Vec<_>>());
    }

    /// Decodes an `injection` record.
    pub fn from_record(rec: Record<'a>) -> Result<TraceInjection<'a>, String> {
        let mut inj = TraceInjection::default();
        for (name, value) in rec.fields {
            match &*name {
                "image" => inj.image = Some(Record::u64(rec.line, &name, &value)?),
                "index" => inj.index = Record::u64(rec.line, &name, &value)?,
                "worker" => inj.worker = Record::u64(rec.line, &name, &value)?,
                "dur_us" => inj.dur_us = Record::u64(rec.line, &name, &value)?,
                "outcome" => inj.outcome = Record::string(rec.line, &name, value)?,
                "category" => inj.category = Record::string(rec.line, &name, value)?,
                "branch" => inj.branch = Record::string(rec.line, &name, value)?.parse().ok(),
                _ => {}
            }
        }
        Ok(inj)
    }
}

/// Results of a campaign.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct CampaignResult {
    /// Per-injection records, in injection-index order. When the campaign
    /// aborted early this is the exact prefix up to (and including) the
    /// injection that tripped the abort condition.
    pub records: Vec<InjectionRecord>,
    /// Aggregate counts over `records`.
    pub counts: OutcomeCounts,
    /// The golden (fault-free) run the experiments were compared against.
    pub golden_outputs_len: usize,
    /// Dynamic branches per thread in the golden run.
    pub branches_per_thread: Vec<u64>,
    /// Whether an early-abort condition was reached.
    pub aborted: bool,
    /// Per-worker execution statistics, sorted by worker index. Wall-clock
    /// based, hence nondeterministic (see [`WorkerStats`]).
    pub worker_stats: Vec<WorkerStats>,
    /// Telemetry: deterministic `campaign.*` outcome counters, the golden
    /// run's instruments under a `golden.` prefix, and wall-time
    /// histograms.
    pub telemetry: TelemetrySnapshot,
}

impl CampaignResult {
    /// The paper's coverage metric (see [`OutcomeCounts::coverage`]).
    pub fn coverage(&self) -> f64 {
        self.counts.coverage()
    }
}

/// Classifies one faulty run against the golden run. Detection has
/// priority (the paper checks "whether it is detected by the monitor"
/// first), then crash/hang, then output comparison.
pub fn classify(result: &RunResult, golden: &RunResult, activated: bool) -> FaultOutcome {
    if !activated {
        return FaultOutcome::NotActivated;
    }
    if result.detected() {
        return FaultOutcome::Detected;
    }
    match result.outcome {
        RunOutcome::Crashed(_) => FaultOutcome::Crashed,
        RunOutcome::Hung => FaultOutcome::Hung,
        RunOutcome::Completed => {
            if result.outputs == golden.outputs {
                FaultOutcome::Masked
            } else {
                FaultOutcome::Sdc
            }
        }
    }
}

/// SplitMix64's output finalizer, used to key per-injection streams.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The independent PRNG stream of injection `index` under `seed`.
fn injection_rng(seed: u64, index: usize) -> SplitMix64 {
    let lane = (index as u64).wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    SplitMix64::new(mix64(seed ^ lane))
}

/// Stage 1: derives the full list of injection plans from the golden run's
/// per-thread dynamic branch counts (the paper's PIN profiling output).
///
/// Plan `i` is drawn from a PRNG stream keyed on `(config.seed, i)`, so
/// the list is a pure function of `(branches_per_thread, config)` — no
/// state is threaded between injections and no scheduling decision can
/// perturb it.
///
/// The profile counts the parallel section's branches only, but a plan is
/// matched against `@init`'s branches too (it runs first, as thread 0):
/// see [`InjectionPlan`] for where a thread-0 plan with a small index
/// really lands.
pub fn plan_campaign(branches_per_thread: &[u64], config: &CampaignConfig) -> Vec<InjectionPlan> {
    let nthreads = branches_per_thread.len().min(config.sim.nthreads as usize);
    (0..config.injections)
        .map(|index| {
            let mut rng = injection_rng(config.seed, index);
            // Pick a random thread, then a random dynamic branch of it.
            let tid = rng.below(nthreads as i64) as u32;
            let nbranches = branches_per_thread[tid as usize];
            InjectionPlan {
                tid,
                dyn_index: if nbranches == 0 { 1 } else { 1 + rng.below(nbranches as i64) as u64 },
                model: config.model,
                value_choice: rng.below(1 << 16) as u32,
                bit: rng.below(64) as u8,
            }
        })
        .collect()
}

/// Whether `counts` satisfies one of the configured early-abort
/// conditions. Both conditions are monotone in the counts, which is what
/// lets the reducer recompute the abort cut deterministically.
fn abort_reached(config: &CampaignConfig, counts: &OutcomeCounts) -> bool {
    config.abort_after_sdc.is_some_and(|n| counts.sdc >= n)
        || (config.abort_on_detection && counts.detected > 0)
}

/// The similarity-category name of the branch an injection landed on, or
/// `"-"` when it missed or hit an uninstrumented branch. Tagged onto
/// `injection` trace events so reports can build per-category
/// coverage/detection matrices over *all* activated injections, not just
/// detected ones.
fn injection_category(image: &ProgramImage, branch: Option<u32>) -> &'static str {
    branch
        .and_then(|b| image.plan.decisions.get(b as usize))
        .and_then(|d| d.as_ref().ok())
        .map_or("-", |c| bw_monitor::category_name(c.kind))
}

/// Classifies a finished injected run and assembles its record.
fn injection_record(
    plan: InjectionPlan,
    hook: &InjectionHook,
    result: &RunResult,
    golden: &RunResult,
) -> InjectionRecord {
    let outcome = classify(result, golden, hook.activated());
    // Attribute the outcome causally: the first violation report (reports
    // are in `bw_monitor::sort_violations` order — every violation field,
    // then `detected_seq` — so "first" is deterministic) is the
    // earliest-keyed evidence the monitor produced for this run.
    let report = if outcome == FaultOutcome::Detected {
        result.violation_reports.first().cloned().map(Box::new)
    } else {
        None
    };
    let detection_latency = report.as_ref().and_then(|r| r.detection_latency);
    InjectionRecord {
        plan,
        branch: hook.injected_branch().map(|b| b.0),
        outcome,
        report,
        detection_latency,
    }
}

/// Runs one injection experiment on `eng` from step 0 and classifies it;
/// also returns the steps the run took. [`execute_window`]'s fallback for
/// the injections no prefix can serve.
fn execute_one(
    eng: &dyn Engine,
    image: &ProgramImage,
    faulty: &ExecConfig,
    golden: &RunResult,
    plan: InjectionPlan,
) -> (InjectionRecord, u64) {
    let hook = InjectionHook::new(plan);
    let result = eng.run_hooked(image, faulty, &hook);
    (injection_record(plan, &hook, &result, golden), result.total_steps)
}

/// Validates a golden run against the campaign configuration and derives
/// the faulty-run config plus the full plan list.
fn validate_and_plan(
    config: &CampaignConfig,
    golden: &RunResult,
) -> Result<(ExecConfig, Vec<InjectionPlan>), CampaignError> {
    if config.sim.nthreads == 0 {
        return Err(CampaignError::NoThreads);
    }
    if golden.outcome != RunOutcome::Completed {
        return Err(CampaignError::GoldenRunFailed { outcome: golden.outcome });
    }
    if golden.branches_per_thread.len() != config.sim.nthreads as usize {
        return Err(CampaignError::GoldenMismatch {
            expected: config.sim.nthreads as usize,
            actual: golden.branches_per_thread.len(),
        });
    }
    // Faulty runs get a step budget derived from the golden run: a fault
    // that corrupts a loop bound can otherwise spin for billions of steps
    // before the generic cutoff declares a hang (the paper's injector uses
    // a timeout for the same reason).
    let faulty = config
        .sim
        .clone()
        .max_steps(golden.total_steps.saturating_mul(8).saturating_add(100_000));
    let plans = plan_campaign(&golden.branches_per_thread, config);
    Ok((faulty, plans))
}

/// Assembles the deterministic result-payload telemetry of one campaign:
/// outcome counters, the worker gauge, the injection-wall-time histogram
/// and the golden run's own instruments under a `golden.` prefix.
fn campaign_telemetry(
    records: &[InjectionRecord],
    counts: &OutcomeCounts,
    golden: &RunResult,
    nworkers: usize,
    inj_hist: &Histogram,
) -> TelemetrySnapshot {
    let mut telemetry = TelemetrySnapshot::new();
    telemetry.push_counter("campaign.injections", records.len() as u64);
    telemetry.push_counter("campaign.outcome.not_activated", counts.not_activated as u64);
    telemetry.push_counter("campaign.outcome.detected", counts.detected as u64);
    telemetry.push_counter("campaign.outcome.crashed", counts.crashed as u64);
    telemetry.push_counter("campaign.outcome.hung", counts.hung as u64);
    telemetry.push_counter("campaign.outcome.masked", counts.masked as u64);
    telemetry.push_counter("campaign.outcome.sdc", counts.sdc as u64);
    telemetry.push_gauge("campaign.workers", nworkers as u64);
    telemetry.push_histogram("campaign.injection_us", inj_hist.snapshot());
    // Detection-latency distribution per similarity category: monitor
    // messages between the corruption and the check firing, from each
    // detected record's provenance. Deterministic (derived from the
    // reduced records, not wall time); absent without detections.
    let mut latency: std::collections::BTreeMap<&'static str, Histogram> =
        std::collections::BTreeMap::new();
    for record in records {
        if let (Some(report), Some(events)) = (&record.report, record.detection_latency) {
            latency.entry(report.category()).or_default().observe(events);
        }
    }
    for (category, hist) in latency {
        telemetry.push_histogram(format!("campaign.detect_latency.{category}"), hist.snapshot());
    }
    // The golden run's own instruments, prefixed so queue pressure during
    // the fault-free run can be told apart from campaign costs.
    telemetry.merge(&golden.telemetry().prefixed("golden."));
    telemetry
}

/// Live-registry handles campaign workers bump once per injection. These
/// are process-cumulative (`live.campaign.*` keeps growing across the
/// protected and baseline campaigns of one `bw campaign` invocation, and
/// across fuzz batches), which is what turns them into rates under the
/// sampler. They feed the trace's `sample` records only — never the
/// campaign's own result snapshot.
struct CampaignLive {
    planned: std::sync::Arc<bw_telemetry::Counter>,
    completed: std::sync::Arc<bw_telemetry::Counter>,
    detected: std::sync::Arc<bw_telemetry::Counter>,
}

impl CampaignLive {
    /// Resolves the handles (cold: once per pool) and accounts the new
    /// plans into `live.campaign.planned`.
    fn resolve(planned: usize) -> CampaignLive {
        let registry = bw_telemetry::MetricRegistry::global();
        let live = CampaignLive {
            planned: registry.counter("live.campaign.planned"),
            completed: registry.counter("live.campaign.completed"),
            detected: registry.counter("live.campaign.detected"),
        };
        live.planned.add(planned as u64);
        live
    }
}

/// Mirrors a completed campaign stage onto the trace timeline (the
/// `main` lane, wall-clock) when span tracing is active. Called after
/// the stage so a stage that returns early (error) leaves no span.
fn trace_stage(name: &str, start_us: u64, extra: &[(&str, Value)]) {
    if let Some(sink) = bw_telemetry::trace_sink() {
        bw_telemetry::record_span(
            sink.as_ref(),
            TimeDomain::WallUs,
            "main",
            "stage",
            name,
            start_us,
            bw_telemetry::wall_now_us().saturating_sub(start_us),
            extra,
        );
    }
}

/// Injections a worker claims at a time and runs off one [`SimPrefix`],
/// at most. The prefix's pass over the program is shared by the window's
/// forks, so a full window adds 1/32 of a monitored golden run to each;
/// a worker that finds the stop flag raised has at most this many
/// injections past the abort cut behind it. [`run_pool`] shortens the
/// window when the pool would otherwise have workers without one.
const WINDOW: usize = 32;

/// One campaign as the worker pool sees it: what to run, the claim state
/// that keeps executed indices a contiguous prefix of the plan list, and
/// where the records go.
pub(crate) struct CampaignJob<'a> {
    /// Position in a [`crate::batch::CampaignBatch`], tagged onto the
    /// job's trace records; `None` for a campaign run on its own.
    item: Option<usize>,
    image: &'a ProgramImage,
    config: &'a CampaignConfig,
    faulty: ExecConfig,
    golden: &'a RunResult,
    plans: Vec<InjectionPlan>,
    progress: Option<&'a ProgressFn<'a>>,
    started: Instant,
    /// Start of the next unclaimed window.
    next: AtomicUsize,
    /// Raised when the abort condition is met; checked before every claim.
    stop: AtomicBool,
    /// Completion-order counts, used only to decide *when* to raise the
    /// stop flag; the authoritative counts are recomputed in index order
    /// by the reducer.
    live_counts: Mutex<OutcomeCounts>,
    completed: AtomicUsize,
    collected: Mutex<Vec<(usize, InjectionRecord)>>,
    inj_hist: Histogram,
}

impl<'a> CampaignJob<'a> {
    /// Validates `golden` against `config` and plans the injections.
    pub(crate) fn new(
        item: Option<usize>,
        image: &'a ProgramImage,
        config: &'a CampaignConfig,
        golden: &'a RunResult,
        progress: Option<&'a ProgressFn<'a>>,
    ) -> Result<Self, CampaignError> {
        let (faulty, plans) = validate_and_plan(config, golden)?;
        Ok(CampaignJob {
            item,
            image,
            config,
            faulty,
            golden,
            collected: Mutex::new(Vec::with_capacity(plans.len())),
            plans,
            progress,
            started: Instant::now(),
            next: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
            live_counts: Mutex::new(OutcomeCounts::default()),
            completed: AtomicUsize::new(0),
            inj_hist: Histogram::new(),
        })
    }

    /// Injections planned.
    pub(crate) fn planned(&self) -> usize {
        self.plans.len()
    }

    /// Claims the next window of plan indices, or `None` when the job has
    /// none left to hand out. The stop flag is looked at here and nowhere
    /// else, so every claimed window runs to its end and the executed
    /// indices are a contiguous prefix of the plan list — with or without
    /// early abort, at any worker count.
    fn claim(&self, window: usize) -> Option<std::ops::Range<usize>> {
        if self.stop.load(Ordering::Relaxed) {
            return None;
        }
        let start = self.next.fetch_add(window, Ordering::Relaxed);
        (start < self.plans.len()).then(|| start..(start + window).min(self.plans.len()))
    }

    /// Books one finished injection: worker statistics, trace records,
    /// live counters, the stop flag, the record itself and the progress
    /// callback.
    fn account(&self, index: usize, record: InjectionRecord, run_us: u64, worker: &mut Worker<'_>) {
        let outcome = record.outcome;
        worker.stats.injections += 1;
        worker.stats.busy_us += run_us;
        self.inj_hist.observe(run_us);
        worker.live.completed.inc();
        if outcome == FaultOutcome::Detected {
            worker.live.detected.inc();
        }
        let image = self.item.map(|item| item as u64);
        let traced = TraceInjection {
            image,
            index: index as u64,
            worker: worker.stats.worker as u64,
            outcome: Cow::Borrowed(outcome.name()),
            branch: record.branch.map(u64::from),
            category: Cow::Borrowed(injection_category(self.image, record.branch)),
            dur_us: run_us,
        };
        traced.record_to(worker.recorder);
        if let Some(report) = record.report.as_deref() {
            TraceViolation::new(report, image, index as u64).record_to(worker.recorder);
        }
        {
            let mut counts = self.live_counts.lock().unwrap();
            counts.add(outcome);
            if abort_reached(self.config, &counts) {
                self.stop.store(true, Ordering::Relaxed);
            }
        }
        self.collected.lock().unwrap().push((index, record));
        let done = self.completed.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(callback) = self.progress {
            callback(CampaignProgress {
                index,
                outcome,
                completed: done,
                total: self.plans.len(),
                elapsed_us: self.started.elapsed().as_micros() as u64,
            });
        }
    }

    /// Stage 3: merges the records in injection-index order, applies the
    /// deterministic abort cut and assembles the result. `nworkers` is the
    /// pool's width (the `campaign.workers` gauge).
    pub(crate) fn reduce(self, nworkers: usize, worker_stats: Vec<WorkerStats>) -> CampaignResult {
        let pairs = self.collected.into_inner().unwrap();
        let (records, counts, aborted) = reduce_campaign(pairs, self.config);
        let telemetry =
            campaign_telemetry(&records, &counts, self.golden, nworkers, &self.inj_hist);
        CampaignResult {
            records,
            counts,
            golden_outputs_len: self.golden.outputs.len(),
            branches_per_thread: self.golden.branches_per_thread.clone(),
            aborted,
            worker_stats,
            telemetry,
        }
    }
}

/// One pool worker: its statistics and the sinks its injections report to.
struct Worker<'a> {
    stats: WorkerStats,
    live: &'a CampaignLive,
    recorder: &'a dyn Recorder,
}

/// Runs one claimed window of `job`'s plans.
///
/// The window's injections share one golden [`SimPrefix`] under the
/// faulty configuration (whose step budget the golden prefix never
/// trips): the plans are bucketed per thread in ascending `dyn_index`,
/// the prefix advances to each fault point in the order the run reaches
/// them, and every injection is a fork of it — the interpreter state, a
/// clone of the prefix's inline monitor and, under a span sink, its spans
/// inherited, only the tail executed and checked. The last fork takes the
/// prefix itself ([`SimPrefix::finish`]) instead of a copy. The time the
/// prefix takes to advance is charged to the injection it precedes.
///
/// Two cases replay an injection from step 0 ([`execute_one`]) instead,
/// each decided by something observable: the real engine (OS threads
/// cannot be forked) and a plan that fires in `@init`, which runs before
/// any point a prefix can be forked at (see [`InjectionPlan`]).
///
/// Span tracing (`--trace-spans`): every record an injection's run emits
/// (sim-engine spans run inline on this thread; a fork writes its prefix's
/// there too) is scoped with `inj`/`wid` — and `image` in a batch, whose
/// jobs number their injections alike — and the worker lane `w<wid>` gets
/// one span per injection, back to back like the `dur_us` they mirror.
fn execute_window(job: &CampaignJob<'_>, window: std::ops::Range<usize>, worker: &mut Worker<'_>) {
    let trace = bw_telemetry::trace_sink();
    let mut started = bw_telemetry::wall_now_us();
    // Runs one injection (`run` returns its record and the steps it
    // executed) and books it, from the end of the one before.
    let mut inject = |index: usize,
                      worker: &mut Worker<'_>,
                      run: &mut dyn FnMut() -> (InjectionRecord, u64)| {
        let wid = worker.stats.worker;
        let _scope = trace.as_ref().map(|_| {
            let image = job.item.map(|item| ("image", Value::from(item)));
            let fields = [("inj", Value::from(index)), ("wid", Value::from(wid))];
            TraceScope::enter(&image.into_iter().chain(fields).collect::<Vec<_>>())
        });
        let (record, steps) = run();
        let run_us = bw_telemetry::wall_now_us().saturating_sub(started);
        if let Some(sink) = trace.as_ref() {
            bw_telemetry::record_span(
                sink.as_ref(),
                TimeDomain::WallUs,
                &format!("w{wid}"),
                "injection",
                &format!("inj {index}"),
                started,
                run_us,
                &[("outcome", Value::from(record.outcome.name()))],
            );
        }
        worker.stats.steps_run += steps;
        job.account(index, record, run_us, worker);
        started = bw_telemetry::wall_now_us();
    };

    let prefix =
        (job.config.engine == EngineKind::Sim).then(|| SimPrefix::new(job.image, &job.faulty));
    // Per thread, the targets a fork can serve, latest first.
    let mut queues: Vec<Vec<(u64, usize)>> = vec![Vec::new(); job.faulty.nthreads as usize];
    for index in window {
        let plan = job.plans[index];
        if let Some(prefix) = &prefix {
            if !(plan.tid == 0 && plan.dyn_index <= prefix.init_branches()) {
                queues[plan.tid as usize].push((plan.dyn_index, index));
                continue;
            }
        }
        inject(index, worker, &mut || {
            execute_one(engine(job.config.engine), job.image, &job.faulty, job.golden, plan)
        });
    }

    let Some(mut prefix) = prefix else { return };
    for queue in &mut queues {
        queue.sort_unstable_by(|a, b| b.cmp(a));
    }
    let head = |queue: &Vec<(u64, usize)>| queue.last().map(|&(dyn_index, _)| dyn_index);
    let mut targets: Vec<Option<u64>> = queues.iter().map(head).collect();
    let (mut ran, mut inherited) = (prefix.steps(), 0u64);
    while let Some(waiting) = targets.iter().position(Option::is_some) {
        // Once the parallel section is over nothing comes into reach any
        // more (the target of a thread with no branches): those forks have
        // `@fini` left, and are taken in thread order.
        let tid = prefix.advance_to(&targets).map_or(waiting, |tid| tid as usize);
        let (_, index) = queues[tid].pop().expect("the thread has a target");
        targets[tid] = head(&queues[tid]);

        let plan = job.plans[index];
        ran = prefix.steps();
        inherited += ran;
        let hook = InjectionHook::new(plan);
        let record = |result: RunResult| {
            (injection_record(plan, &hook, &result, job.golden), result.total_steps - ran)
        };
        if targets.iter().any(Option::is_some) {
            inject(index, worker, &mut || record(prefix.resume(&hook)));
        } else {
            // The window's last fork takes the prefix over: its state and
            // monitor are moved, not cloned, and dropped within this
            // injection's time.
            let mut last = Some(prefix);
            inject(index, worker, &mut || record(last.take().expect("one run").finish(&hook)));
            break;
        }
    }
    // The prefix's own steps were run once; its forks skipped the rest of
    // what they inherited.
    worker.stats.steps_run += ran;
    worker.stats.steps_skipped += inherited.saturating_sub(ran);
}

/// Stage 2: runs every job's plans on one pool of `workers` threads
/// (`0` = available parallelism, and never more than there are plans).
/// Workers take the jobs in order and claim whole windows of a job's plan
/// indices ([`CampaignJob::claim`]); `recorder` receives one `injection`
/// record per experiment.
pub(crate) fn run_pool(
    jobs: &[CampaignJob<'_>],
    workers: usize,
    recorder: &dyn Recorder,
) -> Vec<WorkerStats> {
    let planned: usize = jobs.iter().map(CampaignJob::planned).sum();
    let requested = if workers == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        workers
    };
    let nworkers = requested.clamp(1, planned.max(1));
    // A campaign too short to give every worker a full window is cut into
    // shorter ones: a fork saves half a run, an idle worker a whole one.
    let window = WINDOW.min(planned.div_ceil(nworkers)).max(1);
    let live = &CampaignLive::resolve(planned);
    // The first job that may still have unclaimed windows; workers advance
    // it (compare-exchange, so exactly one advance per exhausted job).
    let cursor = AtomicUsize::new(0);
    let worker = |wid: usize| -> WorkerStats {
        let started = Instant::now();
        let mut worker =
            Worker { stats: WorkerStats { worker: wid, ..WorkerStats::default() }, live, recorder };
        loop {
            let current = cursor.load(Ordering::Relaxed);
            let Some(job) = jobs.get(current) else { break };
            match job.claim(window) {
                Some(window) => execute_window(job, window, &mut worker),
                None => {
                    let _ = cursor.compare_exchange(
                        current,
                        current + 1,
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    );
                }
            }
        }
        worker.stats.wall_us = started.elapsed().as_micros() as u64;
        worker.stats
    };

    let mut worker_stats = Vec::with_capacity(nworkers);
    if nworkers <= 1 {
        worker_stats.push(worker(0));
    } else {
        std::thread::scope(|scope| {
            // The closure captures only shared references, so it is `Copy`:
            // every spawn gets its own copy of the same borrows.
            let handles: Vec<_> =
                (0..nworkers).map(|wid| scope.spawn(move || worker(wid))).collect();
            for handle in handles {
                worker_stats.push(handle.join().expect("campaign worker panicked"));
            }
        });
    }
    worker_stats.sort_unstable_by_key(|s| s.worker);
    worker_stats
}

/// Merges execution results in injection-index order and applies the
/// deterministic abort cut: records are kept up to (and including) the
/// first index at which an abort condition holds over the *prefix* counts.
/// Executed indices form a contiguous prefix at least as long as that cut,
/// so the surviving records — and every derived statistic — are identical
/// at any worker count.
fn reduce_campaign(
    mut pairs: Vec<(usize, InjectionRecord)>,
    config: &CampaignConfig,
) -> (Vec<InjectionRecord>, OutcomeCounts, bool) {
    pairs.sort_unstable_by_key(|&(index, _)| index);
    let mut counts = OutcomeCounts::default();
    let mut records = Vec::with_capacity(pairs.len());
    for (index, record) in pairs {
        debug_assert_eq!(index, records.len(), "executed indices must form a prefix");
        counts.add(record.outcome);
        records.push(record);
        if abort_reached(config, &counts) {
            return (records, counts, true);
        }
    }
    (records, counts, false)
}

/// Runs a full campaign: one golden run, then `config.injections`
/// experiments with uniformly random (thread, dynamic-branch) targets,
/// exactly as the paper's three-step procedure prescribes.
///
/// Experiments run on `config.workers` threads (`0` = available
/// parallelism); the result is bitwise identical for any worker count.
pub fn run_campaign(
    image: &ProgramImage,
    config: &CampaignConfig,
) -> Result<CampaignResult, CampaignError> {
    if config.sim.nthreads == 0 {
        return Err(CampaignError::NoThreads);
    }
    // Step 1: profile — the golden run records per-thread dynamic branch
    // counts (the paper's PIN profiling run), on the same engine the
    // faulty runs will use.
    let stage_start = bw_telemetry::wall_now_us();
    let golden = engine(config.engine).run(image, &config.sim);
    trace_stage(
        "campaign.golden",
        stage_start,
        &[("total_steps", Value::from(golden.total_steps))],
    );
    run_campaign_with_golden_recorded(image, config, &golden, None, &NULL_RECORDER)
}

/// Runs a campaign against an already-computed golden run (which must come
/// from `engine(config.engine).run(image, &config.sim)`), with every
/// optional input explicit. Lets callers amortize one golden run across
/// several campaigns on the same image and configuration.
///
/// `progress` streams per-injection completion. `recorder` receives stage
/// spans (`campaign.plan`, `campaign.execute`, `campaign.reduce`), one
/// `injection` event per experiment and one `worker` event per worker:
/// pass [`bw_telemetry::JsonlRecorder`] to capture a JSONL trace, or
/// [`NULL_RECORDER`] for none.
pub fn run_campaign_with_golden_recorded(
    image: &ProgramImage,
    config: &CampaignConfig,
    golden: &RunResult,
    progress: Option<&ProgressFn<'_>>,
    recorder: &dyn Recorder,
) -> Result<CampaignResult, CampaignError> {
    let span = Span::enter(recorder, "campaign.plan");
    let stage_start = bw_telemetry::wall_now_us();
    let job = CampaignJob::new(None, image, config, golden, progress)?;
    trace_stage("campaign.plan", stage_start, &[("injections", Value::from(job.planned()))]);
    span.finish(&[("injections", Value::from(job.planned()))]);

    let span = Span::enter(recorder, "campaign.execute");
    let stage_start = bw_telemetry::wall_now_us();
    let worker_stats = run_pool(std::slice::from_ref(&job), config.workers, recorder);
    trace_stage(
        "campaign.execute",
        stage_start,
        &[("workers", Value::from(worker_stats.len()))],
    );
    span.finish(&[("workers", Value::from(worker_stats.len()))]);

    let span = Span::enter(recorder, "campaign.reduce");
    let stage_start = bw_telemetry::wall_now_us();
    let result = job.reduce(worker_stats.len(), worker_stats);
    trace_stage("campaign.reduce", stage_start, &[("records", Value::from(result.records.len()))]);
    span.finish(&[("records", Value::from(result.records.len()))]);

    result.worker_stats.iter().for_each(|w| w.record_to(recorder));
    recorder.flush();
    Ok(result)
}

/// Runs `runs` fault-free executions and returns the number that reported
/// a violation — the paper's false-positive experiment (the result must be
/// zero, by construction of the static analysis). Runs on the
/// deterministic engine; see [`false_positive_runs_on`] for the real-thread
/// variant.
pub fn false_positive_runs(image: &ProgramImage, config: &ExecConfig, runs: usize) -> usize {
    false_positive_runs_on(EngineKind::Sim, image, config, runs)
}

/// [`false_positive_runs`] on an explicit engine. On [`EngineKind::Real`]
/// every run exercises true cross-thread queueing, so this doubles as a
/// stress test of the zero-false-positive guarantee under real schedules.
pub fn false_positive_runs_on(
    kind: EngineKind,
    image: &ProgramImage,
    config: &ExecConfig,
    runs: usize,
) -> usize {
    let eng = engine(kind);
    let mut fps = 0;
    for i in 0..runs {
        let cfg = config
            .clone()
            .seed(config.seed.wrapping_add(i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15 | 1));
        let result = eng.run(image, &cfg);
        if result.detected() {
            fps += 1;
        }
    }
    fps
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_counts_arithmetic() {
        let counts = OutcomeCounts {
            not_activated: 10,
            detected: 40,
            crashed: 20,
            hung: 5,
            masked: 15,
            sdc: 10,
        };
        assert_eq!(counts.activated(), 90);
        assert!((counts.coverage() - (1.0 - 10.0 / 90.0)).abs() < 1e-12);
        assert!((counts.detection_rate() - 40.0 / 90.0).abs() < 1e-12);
    }

    proptest::proptest! {
        #[test]
        fn worker_and_injection_records_round_trip(
            n in proptest::collection::vec(proptest::any::<u64>(), 7),
            outcome in 0usize..6,
            category in "[ -~é]{0,8}",
        ) {
            let stats = WorkerStats {
                worker: n[0] as usize,
                injections: n[1],
                wall_us: n[2],
                busy_us: n[3],
                steps_run: n[4],
                steps_skipped: n[5],
            };
            let outcomes = [
                FaultOutcome::NotActivated,
                FaultOutcome::Detected,
                FaultOutcome::Crashed,
                FaultOutcome::Hung,
                FaultOutcome::Masked,
                FaultOutcome::Sdc,
            ];
            let injection = TraceInjection {
                image: n[6].is_multiple_of(2).then_some(n[6]),
                index: n[1],
                worker: n[0],
                outcome: outcomes[outcome].name().into(),
                branch: (outcome > 0).then_some(n[2]),
                category: category.into(),
                dur_us: n[3],
            };
            let buf = bw_telemetry::TraceBuffer::default();
            stats.record_to(&buf.recorder());
            injection.clone().record_to(&buf.recorder());
            let text = buf.text();
            let mut back = bw_telemetry::records(&text);
            let worker = back.next().unwrap().and_then(WorkerStats::from_record);
            proptest::prop_assert_eq!(worker, Ok(stats));
            let read = back.next().unwrap().and_then(TraceInjection::from_record);
            proptest::prop_assert_eq!(read, Ok(injection));
        }
    }

    #[test]
    fn worker_and_injection_wire_formats_are_pinned() {
        let buf = bw_telemetry::TraceBuffer::default();
        let stats = WorkerStats {
            worker: 1,
            injections: 2,
            wall_us: 500,
            busy_us: 400,
            steps_run: 300,
            steps_skipped: 100,
        };
        stats.record_to(&buf.recorder());
        let injection = TraceInjection {
            image: None,
            index: 4,
            worker: 1,
            outcome: "detected".into(),
            branch: Some(2),
            category: "shared".into(),
            dur_us: 10,
        };
        injection.clone().record_to(&buf.recorder());
        TraceInjection { image: Some(3), branch: None, ..injection }.record_to(&buf.recorder());
        assert_eq!(
            buf.bodies(),
            [
                concat!(
                    r#""ev":"worker","worker":1,"injections":2,"wall_us":500,"busy_us":400,"#,
                    r#""steps_run":300,"steps_skipped":100}"#
                ),
                concat!(
                    r#""ev":"injection","index":4,"worker":1,"outcome":"detected","branch":"2","#,
                    r#""category":"shared","dur_us":10}"#
                ),
                concat!(
                    r#""ev":"injection","image":3,"index":4,"worker":1,"outcome":"detected","#,
                    r#""branch":"-","category":"shared","dur_us":10}"#
                ),
            ]
        );
        assert!((stats.skipped_share() - 0.25).abs() < 1e-12);

        // A mistyped field is an error, not a zero; an absent one (a trace
        // from before the step counts) keeps its default.
        fn decode(line: &str) -> Result<Record<'_>, String> {
            bw_telemetry::records(line).next().unwrap()
        }
        let err = decode(r#"{"ev":"worker","injections":"x"}"#).and_then(WorkerStats::from_record);
        assert_eq!(err, Err("line 1: `injections` is not a non-negative integer".to_string()));
        let old = decode(r#"{"ev":"worker","worker":0,"injections":2,"wall_us":5,"busy_us":4}"#);
        let old = old.and_then(WorkerStats::from_record).unwrap();
        assert_eq!((old.injections, old.steps_run, old.steps_skipped), (2, 0, 0));
        let err = decode(r#"{"ev":"injection","branch":7}"#).and_then(TraceInjection::from_record);
        assert_eq!(err, Err("line 1: `branch` is not a string".to_string()));
    }

    #[test]
    fn empty_counts_have_full_coverage() {
        let counts = OutcomeCounts::default();
        assert_eq!(counts.coverage(), 1.0);
        assert_eq!(counts.detection_rate(), 0.0);
    }

    #[test]
    fn injection_streams_are_decorrelated() {
        // Adjacent indices under one seed, and one index under adjacent
        // seeds, must produce unrelated first draws.
        let a: Vec<u64> = (0..32).map(|i| injection_rng(0xfa_017, i).next_u64()).collect();
        let mut sorted = a.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), a.len(), "collisions across injection indices");
        assert_ne!(injection_rng(1, 0).next_u64(), injection_rng(2, 0).next_u64());
    }

    #[test]
    fn plans_are_a_pure_function_of_inputs() {
        let config = CampaignConfig::new(50, FaultModel::BranchFlip, 4).seed(7);
        let branches = [10, 0, 1_000_000, 3];
        let a = plan_campaign(&branches, &config);
        let b = plan_campaign(&branches, &config);
        assert_eq!(a, b);
        assert_eq!(a.len(), 50);
        for plan in &a {
            assert!(plan.tid < 4);
            assert!(plan.dyn_index >= 1);
            let n = branches[plan.tid as usize];
            if n > 0 {
                assert!(plan.dyn_index <= n);
            }
            assert!(plan.bit < 64);
        }
    }

    #[test]
    fn abort_cut_is_prefix_deterministic() {
        let config = CampaignConfig::new(6, FaultModel::BranchFlip, 1).abort_after_sdc(2);
        let record = |outcome| InjectionRecord {
            plan: InjectionPlan {
                tid: 0,
                dyn_index: 1,
                model: FaultModel::BranchFlip,
                value_choice: 0,
                bit: 0,
            },
            branch: None,
            outcome,
            report: None,
            detection_latency: None,
        };
        // Completion order scrambled; indices 1 and 3 are SDCs, so the cut
        // must land after index 3 regardless of arrival order.
        let pairs = vec![
            (4, record(FaultOutcome::Masked)),
            (1, record(FaultOutcome::Sdc)),
            (0, record(FaultOutcome::Masked)),
            (3, record(FaultOutcome::Sdc)),
            (2, record(FaultOutcome::Detected)),
        ];
        let (records, counts, aborted) = reduce_campaign(pairs, &config);
        assert!(aborted);
        assert_eq!(records.len(), 4);
        assert_eq!(counts.sdc, 2);
        assert_eq!(records.last().unwrap().outcome, FaultOutcome::Sdc);
    }

    #[test]
    fn progress_rate_and_eta_extrapolate() {
        let progress = CampaignProgress {
            index: 49,
            outcome: FaultOutcome::Masked,
            completed: 50,
            total: 200,
            elapsed_us: 2_000_000,
        };
        assert!((progress.rate() - 25.0).abs() < 1e-9);
        // 150 remaining at 25/s = 6 more seconds.
        assert_eq!(progress.eta_us(), Some(6_000_000));
        let cold = CampaignProgress { completed: 0, elapsed_us: 0, ..progress };
        assert_eq!(cold.rate(), 0.0);
        assert_eq!(cold.eta_us(), None);
    }
}
