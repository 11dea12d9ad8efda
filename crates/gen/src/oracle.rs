//! The differential test oracle: runs a prepared program through `bw-vm`
//! at several thread counts and asserts the three invariants the paper's
//! design promises.
//!
//! 1. **Zero false positives** — a fault-free run never produces a monitor
//!    violation, at any thread count (the paper's central "no false
//!    positives by construction" claim).
//! 2. **Category soundness** — the captured branch-event stream matches the
//!    cross-thread pattern each instrumented branch's static category
//!    predicts. This is an *independent* re-implementation of the expected
//!    patterns (sorted-by-thread shape checks), deliberately not sharing
//!    code with `bw_monitor::check_instance`, so a bug in either side shows
//!    up as a disagreement.
//! 3. **Differential transparency** — instrumented and uninstrumented runs
//!    produce identical program-visible results: outputs, outcome, and the
//!    total and per-thread instruction and branch counts. (Event counts,
//!    cycle attribution and the monitor's instruments necessarily differ and
//!    are not compared.)
//!
//! Plus a reproducibility gate: running the same configuration twice must be
//! bitwise-identical in every deterministic field of the `RunResult` —
//! outcome, outputs, cycles, step and branch counts (total and per thread),
//! the event stream and counts, violations, the cycle buckets and the
//! monitor's instruments.
//!
//! And a **shard-neutrality** gate: sharding the monitor ingest
//! (`ExecConfig::monitor_shards`) is a throughput knob, never a semantic
//! one — every shard count must produce byte-identical violations,
//! violation reports and program observables.

use std::fmt;

use bw_analysis::{AnalysisConfig, Category, CheckKind, CheckPlan, TidCheck};
use bw_monitor::{Violation, ViolationReport};
use bw_vm::{
    engine, Engine, EngineKind, ExecConfig, MonitorMode, ProgramImage, RunOutcome, RunResult,
    SimEngine,
};
use bw_ir::BranchId;

/// One branch event as the pattern check orders it: its runtime instance
/// `(branch, site, iter)`, keyed as the monitor keys its pending table, then
/// its report `(thread, witness, taken)`.
type Keyed = ((u32, u64, u64), (u32, u64, bool));

/// Thread counts the oracle sweeps by default.
pub const DEFAULT_THREADS: [u32; 4] = [1, 2, 4, 8];

/// Step budget for oracle runs. Generated programs finish in well under
/// 100k interpreted instructions; anything longer is a hang (and matters
/// during shrinking, where candidate reductions can turn a counted loop
/// into an infinite one — the default multi-billion-step budget would make
/// each such candidate take minutes).
pub const ORACLE_MAX_STEPS: u64 = 2_000_000;

/// Why the oracle rejected a program.
#[derive(Clone, Debug)]
pub enum OracleFailure {
    /// A fault-free run did not complete — a generator (or engine) bug.
    RunFailed {
        /// Thread count of the failing run.
        nthreads: u32,
        /// How it ended.
        outcome: RunOutcome,
    },
    /// Invariant 1 broken: a fault-free run produced a violation.
    FalsePositive {
        /// Thread count of the failing run.
        nthreads: u32,
        /// The spurious violation.
        violation: Violation,
        /// The monitor's full provenance for the spurious violation
        /// (deviant threads, witness table, window). Shrunken repros carry
        /// it so the evidence survives minimization.
        report: Option<Box<ViolationReport>>,
    },
    /// Invariant 2 broken: an event stream contradicts a branch's category.
    CategoryPattern {
        /// Thread count of the failing run.
        nthreads: u32,
        /// The offending branch (its `BranchId` index).
        branch: u32,
        /// What the pattern check saw.
        detail: String,
    },
    /// Invariant 3 broken: instrumentation changed program-visible results.
    NotTransparent {
        /// Thread count of the failing run.
        nthreads: u32,
        /// Which observable diverged.
        detail: String,
    },
    /// The same configuration produced two different runs.
    NotReproducible {
        /// Thread count of the failing run.
        nthreads: u32,
        /// Which observable diverged.
        detail: String,
    },
    /// Span tracing changed an observable: a run with a `--trace-spans`
    /// sink installed disagreed with the untraced run on something
    /// deterministic (outputs, violations, step counts, cycles). Tracing
    /// must be observability-only by construction.
    TraceDivergence {
        /// Thread count of the failing run.
        nthreads: u32,
        /// Which observable diverged.
        detail: String,
    },
    /// The real-threads engine disagreed with the simulator on a
    /// schedule-independent observable (outputs, outcome, or the absence
    /// of violations). Only produced by the opt-in cross-check of
    /// [`check_image_cross`].
    EngineDivergence {
        /// Thread count of the failing run.
        nthreads: u32,
        /// Which observable diverged.
        detail: String,
    },
    /// Sharding the monitor ingest changed the verdict: a run with
    /// `monitor_shards = Some(shards)` disagreed with the unsharded run on
    /// an observable that must be shard-independent (outcome, outputs,
    /// violations, violation reports, event totals).
    ShardDivergence {
        /// Thread count of the failing run.
        nthreads: u32,
        /// Shard count of the diverging run.
        shards: usize,
        /// Which observable diverged.
        detail: String,
    },
}

impl OracleFailure {
    /// Stable name of the failure class. The shrinker keeps a reduction
    /// only when it reproduces the *same class* of failure, so a
    /// transparency repro cannot drift into, say, a plain deadlock.
    pub fn class(&self) -> &'static str {
        match self {
            OracleFailure::RunFailed { .. } => "run-failed",
            OracleFailure::FalsePositive { .. } => "false-positive",
            OracleFailure::CategoryPattern { .. } => "category-pattern",
            OracleFailure::NotTransparent { .. } => "not-transparent",
            OracleFailure::NotReproducible { .. } => "not-reproducible",
            OracleFailure::TraceDivergence { .. } => "trace-divergence",
            OracleFailure::EngineDivergence { .. } => "engine-divergence",
            OracleFailure::ShardDivergence { .. } => "shard-divergence",
        }
    }
}

impl fmt::Display for OracleFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OracleFailure::RunFailed { nthreads, outcome } => {
                write!(f, "fault-free run at {nthreads} thread(s) ended {outcome:?}")
            }
            OracleFailure::FalsePositive { nthreads, violation, report } => {
                write!(f, "false positive at {nthreads} thread(s): {}", violation.describe())?;
                if let Some(report) = report {
                    write!(f, "\n{}", report.describe())?;
                }
                Ok(())
            }
            OracleFailure::CategoryPattern { nthreads, branch, detail } => {
                write!(
                    f,
                    "category pattern mismatch at {nthreads} thread(s) on br{branch}: {detail}"
                )
            }
            OracleFailure::NotTransparent { nthreads, detail } => {
                write!(f, "instrumentation not transparent at {nthreads} thread(s): {detail}")
            }
            OracleFailure::NotReproducible { nthreads, detail } => {
                write!(f, "run not reproducible at {nthreads} thread(s): {detail}")
            }
            OracleFailure::TraceDivergence { nthreads, detail } => {
                write!(f, "span tracing not transparent at {nthreads} thread(s): {detail}")
            }
            OracleFailure::EngineDivergence { nthreads, detail } => {
                write!(f, "real engine diverges from sim at {nthreads} thread(s): {detail}")
            }
            OracleFailure::ShardDivergence { nthreads, shards, detail } => {
                write!(
                    f,
                    "sharded monitor ({shards} shard(s)) diverges at {nthreads} thread(s): {detail}"
                )
            }
        }
    }
}

/// How many monitor-checkable instances (two or more reporting threads)
/// each check kind received during an oracle sweep. A category left at
/// zero after a fuzz session means that session never actually exercised
/// the corresponding monitor checker — passing proves nothing about it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CoverageCounts {
    /// [`CheckKind::SharedUniform`] instances checked.
    pub shared_uniform: u64,
    /// [`TidCheck::AtMostOneTaken`] instances checked.
    pub tid_at_most_one_taken: u64,
    /// [`TidCheck::AtMostOneNotTaken`] instances checked.
    pub tid_at_most_one_not_taken: u64,
    /// [`TidCheck::TakenIsPrefix`] instances checked.
    pub tid_taken_is_prefix: u64,
    /// [`TidCheck::TakenIsSuffix`] instances checked.
    pub tid_taken_is_suffix: u64,
    /// [`CheckKind::GroupByWitness`] instances checked.
    pub group_by_witness: u64,
}

impl CoverageCounts {
    /// Records one checked instance of `kind`.
    pub fn record(&mut self, kind: &CheckKind) {
        match kind {
            CheckKind::SharedUniform => self.shared_uniform += 1,
            CheckKind::ThreadIdPredicate(TidCheck::AtMostOneTaken) => {
                self.tid_at_most_one_taken += 1;
            }
            CheckKind::ThreadIdPredicate(TidCheck::AtMostOneNotTaken) => {
                self.tid_at_most_one_not_taken += 1;
            }
            CheckKind::ThreadIdPredicate(TidCheck::TakenIsPrefix) => {
                self.tid_taken_is_prefix += 1;
            }
            CheckKind::ThreadIdPredicate(TidCheck::TakenIsSuffix) => {
                self.tid_taken_is_suffix += 1;
            }
            CheckKind::GroupByWitness => self.group_by_witness += 1,
        }
    }

    /// `(name, count)` pairs in a fixed order, for reporting.
    pub fn by_kind(&self) -> [(&'static str, u64); 6] {
        [
            ("shared-uniform", self.shared_uniform),
            ("tid-at-most-one-taken", self.tid_at_most_one_taken),
            ("tid-at-most-one-not-taken", self.tid_at_most_one_not_taken),
            ("tid-taken-is-prefix", self.tid_taken_is_prefix),
            ("tid-taken-is-suffix", self.tid_taken_is_suffix),
            ("group-by-witness", self.group_by_witness),
        ]
    }

    /// Names of the check kinds that never saw a checked instance.
    pub fn unexercised(&self) -> Vec<&'static str> {
        self.by_kind().iter().filter(|&&(_, n)| n == 0).map(|&(name, _)| name).collect()
    }

    /// Total checked instances across all kinds.
    pub fn total(&self) -> u64 {
        self.by_kind().iter().map(|&(_, n)| n).sum()
    }

    /// Accumulates another sweep's counts.
    pub fn absorb(&mut self, other: CoverageCounts) {
        self.shared_uniform += other.shared_uniform;
        self.tid_at_most_one_taken += other.tid_at_most_one_taken;
        self.tid_at_most_one_not_taken += other.tid_at_most_one_not_taken;
        self.tid_taken_is_prefix += other.tid_taken_is_prefix;
        self.tid_taken_is_suffix += other.tid_taken_is_suffix;
        self.group_by_witness += other.group_by_witness;
    }
}

/// Aggregate statistics from one oracle sweep, for fuzz reporting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OracleStats {
    /// Runs executed (eight per thread count: monitored, repeat,
    /// unmonitored, span-traced, and the four-point shard sweep; ten with
    /// the real cross-check).
    pub runs: u64,
    /// Branch events captured across all monitored runs.
    pub events: u64,
    /// Distinct `(branch, site, iter)` instances pattern-checked.
    pub instances: u64,
    /// Instances with at least two reporting threads (monitor-checkable).
    pub checked_instances: u64,
    /// Checked instances broken down by check kind.
    pub coverage: CoverageCounts,
}

impl OracleStats {
    /// Accumulates another sweep's counts.
    pub fn absorb(&mut self, other: OracleStats) {
        self.runs += other.runs;
        self.events += other.events;
        self.instances += other.instances;
        self.checked_instances += other.checked_instances;
        self.coverage.absorb(other.coverage);
    }
}

/// Runs the full oracle over `image` at each thread count.
///
/// `base_seed` seeds the simulated machine (per-thread PRNG streams), so the
/// whole sweep is a pure function of `(image, threads, base_seed)`.
///
/// # Errors
///
/// Returns the first [`OracleFailure`] encountered.
pub fn check_image(
    image: &ProgramImage,
    threads: &[u32],
    base_seed: u64,
) -> Result<OracleStats, OracleFailure> {
    check_image_cross(image, threads, base_seed, false)
}

/// [`check_image`] with an opt-in real-engine cross-check.
///
/// When `real_cross` is set, every thread count additionally runs once on
/// the OS-thread engine and the schedule-independent observables must
/// agree with the simulator: program outputs (both engines emit them in
/// thread-id order), the run outcome, and the absence of violations.
/// Schedule-*dependent* observables — step counts, cycle attribution,
/// event totals — are deliberately not compared.
///
/// # Errors
///
/// Returns the first [`OracleFailure`] encountered; real-engine
/// disagreement is [`OracleFailure::EngineDivergence`].
pub fn check_image_cross(
    image: &ProgramImage,
    threads: &[u32],
    base_seed: u64,
    real_cross: bool,
) -> Result<OracleStats, OracleFailure> {
    check_on(&SimEngine, image, threads, base_seed, real_cross)
}

/// [`check_image_cross`] with its simulator runs on `sim`, which tests
/// replace with a deliberately faulty engine.
fn check_on(
    sim: &dyn Engine,
    image: &ProgramImage,
    threads: &[u32],
    base_seed: u64,
    real_cross: bool,
) -> Result<OracleStats, OracleFailure> {
    let mut stats = OracleStats::default();
    for &n in threads {
        let cfg_on = ExecConfig::new(n)
            .seed(base_seed)
            .max_steps(ORACLE_MAX_STEPS)
            .capture_events(true);

        let r_on = sim.run(image, &cfg_on);
        stats.runs += 1;
        if r_on.outcome != RunOutcome::Completed {
            return Err(OracleFailure::RunFailed { nthreads: n, outcome: r_on.outcome });
        }
        // Invariant 1: zero false positives.
        if let Some(&violation) = r_on.violations.first() {
            // Carry the matching provenance (reports are sorted in lockstep
            // with the violations) so the repro explains *which* threads
            // disagreed, not just that some did.
            let report = r_on
                .violation_reports
                .iter()
                .find(|r| r.violation == violation)
                .cloned()
                .map(Box::new);
            return Err(OracleFailure::FalsePositive { nthreads: n, violation, report });
        }

        // Reproducibility: the identical configuration, bit for bit.
        let r_again = sim.run(image, &cfg_on);
        stats.runs += 1;
        if let Some(detail) = diff_full(&r_on, &r_again) {
            return Err(OracleFailure::NotReproducible { nthreads: n, detail });
        }

        // Invariant 3: the monitor must be invisible to the program.
        let cfg_off = cfg_on.clone().monitor(MonitorMode::Off).capture_events(false);
        let r_off = sim.run(image, &cfg_off);
        stats.runs += 1;
        if let Some(detail) = diff_transparent(&r_on, &r_off) {
            return Err(OracleFailure::NotTransparent { nthreads: n, detail });
        }

        // Tracing transparency: with a `--trace-spans` sink installed every
        // span tracer activates, and nothing deterministic may change. The
        // discarding sink exercises the instrumentation without a file; the
        // previous sink (the CLI may have installed one for the whole fuzz
        // session) is restored afterwards.
        {
            let prev = bw_telemetry::trace_sink();
            bw_telemetry::set_trace_sink(Some(std::sync::Arc::new(bw_telemetry::NullRecorder)));
            let r_traced = sim.run(image, &cfg_on);
            bw_telemetry::set_trace_sink(prev);
            stats.runs += 1;
            if let Some(detail) = diff_full(&r_on, &r_traced) {
                return Err(OracleFailure::TraceDivergence { nthreads: n, detail });
            }
        }

        // Shard neutrality: partitioning the monitor ingest must change
        // nothing observable — same verdicts, same provenance, same
        // program-visible results, same costs.
        for shards in [1usize, 2, 4, 8] {
            let cfg_sharded = cfg_on.clone().monitor_shards(Some(shards));
            let r_sharded = sim.run(image, &cfg_sharded);
            stats.runs += 1;
            if let Some(detail) = diff_sharded(&r_on, &r_sharded) {
                return Err(OracleFailure::ShardDivergence { nthreads: n, shards, detail });
            }
        }

        // Invariant 2: the event stream matches the static categories.
        stats.events += r_on.branch_events.len() as u64;
        check_category_patterns(image, &r_on, n, &mut stats)?;

        // Opt-in: the real-threads engine must agree on everything that
        // does not depend on the schedule — flat and with sharded ingest.
        if real_cross {
            let cfg_real = cfg_on.clone().capture_events(false);
            let r_real = engine(EngineKind::Real).run(image, &cfg_real);
            stats.runs += 1;
            if let Some(detail) = diff_engines(&r_on, &r_real) {
                return Err(OracleFailure::EngineDivergence { nthreads: n, detail });
            }
            let cfg_real_sharded = cfg_real.clone().monitor_shards(Some(4));
            let r_real_sharded = engine(EngineKind::Real).run(image, &cfg_real_sharded);
            stats.runs += 1;
            if let Some(detail) = diff_engines(&r_on, &r_real_sharded) {
                return Err(OracleFailure::ShardDivergence { nthreads: n, shards: 4, detail });
            }
        }
    }
    Ok(stats)
}

/// Compares a sharded sim run against the unsharded reference: everything
/// the program or the user can observe must match byte for byte.
/// (Telemetry is excluded — per-shard health counters legitimately appear
/// only on the sharded side.)
fn diff_sharded(flat: &RunResult, sharded: &RunResult) -> Option<String> {
    if flat.outcome != sharded.outcome {
        return Some(format!("outcome {:?} flat vs {:?} sharded", flat.outcome, sharded.outcome));
    }
    if flat.outputs != sharded.outputs {
        return Some("program outputs differ with sharded ingest".into());
    }
    if flat.violations != sharded.violations {
        return Some(format!(
            "violations differ: {} flat vs {} sharded",
            flat.violations.len(),
            sharded.violations.len()
        ));
    }
    if flat.violation_reports != sharded.violation_reports {
        return Some("violation reports differ with sharded ingest".into());
    }
    if flat.events_processed != sharded.events_processed {
        return Some(format!(
            "events_processed {} flat vs {} sharded",
            flat.events_processed, sharded.events_processed
        ));
    }
    if flat.total_steps != sharded.total_steps {
        return Some("total_steps differ with sharded ingest".into());
    }
    if flat.parallel_cycles != sharded.parallel_cycles {
        return Some("parallel_cycles differ with sharded ingest".into());
    }
    None
}

/// Compares the schedule-independent subset of a sim run and a real run.
fn diff_engines(sim: &RunResult, real: &RunResult) -> Option<String> {
    if sim.outcome != real.outcome {
        return Some(format!("outcome {:?} sim vs {:?} real", sim.outcome, real.outcome));
    }
    if sim.outputs != real.outputs {
        return Some(format!(
            "outputs differ: {} value(s) sim vs {} real",
            sim.outputs.len(),
            real.outputs.len()
        ));
    }
    if let Some(v) = real.violations.first() {
        return Some(format!("real engine false positive: {}", v.describe()));
    }
    None
}

/// Compares two runs of one configuration: every deterministic field must
/// match, the first that does not is named.
fn diff_full(a: &RunResult, b: &RunResult) -> Option<String> {
    if a.outcome != b.outcome {
        return Some(format!("outcome {:?} vs {:?}", a.outcome, b.outcome));
    }
    let events = |r: &RunResult| (r.events_sent, r.events_processed, r.events_dropped);
    [
        (a.outputs != b.outputs, "outputs"),
        (a.parallel_cycles != b.parallel_cycles, "parallel_cycles"),
        (a.total_steps != b.total_steps, "total_steps"),
        (a.branch_events != b.branch_events, "branch event streams"),
        (a.violations != b.violations, "violations"),
        (a.steps_per_thread != b.steps_per_thread, "per-thread step counts"),
        (a.branches_per_thread != b.branches_per_thread, "per-thread branch counts"),
        (events(a) != events(b), "event counts"),
        (a.engine != b.engine, "engines"),
        (a.cycles != b.cycles, "cycle attributions"),
        (a.monitor != b.monitor, "monitor instruments"),
    ]
    .into_iter()
    .find_map(|(differs, what)| differs.then(|| format!("{what} differ between identical runs")))
}

fn diff_transparent(on: &RunResult, off: &RunResult) -> Option<String> {
    if on.outcome != off.outcome {
        return Some(format!("outcome {:?} monitored vs {:?} unmonitored", on.outcome, off.outcome));
    }
    if on.outputs != off.outputs {
        return Some("program outputs differ with the monitor on".into());
    }
    if on.steps_per_thread != off.steps_per_thread {
        return Some("per-thread step counts differ with the monitor on".into());
    }
    if on.branches_per_thread != off.branches_per_thread {
        return Some("per-thread branch counts differ with the monitor on".into());
    }
    if on.total_steps != off.total_steps {
        return Some("total interpreted instructions differ with the monitor on".into());
    }
    None
}

fn check_category_patterns(
    image: &ProgramImage,
    run: &RunResult,
    nthreads: u32,
    stats: &mut OracleStats,
) -> Result<(), OracleFailure> {
    // Sorting puts each runtime instance's reports next to each other, by
    // thread, and the instances in key order.
    let mut events: Vec<Keyed> = run
        .branch_events
        .iter()
        .map(|e| ((e.branch, e.site, e.iter), (e.thread, e.witness, e.taken)))
        .collect();
    events.sort_unstable();
    for reports in events.chunk_by(|a, b| a.0 == b.0) {
        let ((branch, _, _), _) = reports[0];
        let Some(check) = image.plan.check(BranchId(branch)) else {
            return Err(OracleFailure::CategoryPattern {
                nthreads,
                branch,
                detail: "event emitted for a branch the plan never instrumented".into(),
            });
        };
        stats.instances += 1;
        if reports.len() >= 2 {
            stats.checked_instances += 1;
            stats.coverage.record(&check.kind);
        }
        if let Err(detail) = expected_pattern(&check.kind, reports) {
            return Err(OracleFailure::CategoryPattern { nthreads, branch, detail });
        }
    }
    Ok(())
}

/// The cross-thread pattern a category predicts for one instance's reports,
/// sorted by thread, checked independently of the monitor (shape checks
/// over the sorted reports, rather than the monitor's pairwise scans).
/// Applied even to single-reporter instances — the *prediction* holds for
/// any reporter subset, even where the monitor's check would pass
/// vacuously.
fn expected_pattern(kind: &CheckKind, reports: &[Keyed]) -> Result<(), String> {
    let witness = |&(_, (_, witness, _)): &Keyed| witness;
    let taken = |&(_, (_, _, taken)): &Keyed| taken;
    // The reports' witnesses and directions, for a failure message only.
    let witnesses = || reports.iter().map(witness).collect::<Vec<u64>>();
    let takens = || reports.iter().map(taken).collect::<Vec<bool>>();
    let uniform_witness = reports.windows(2).all(|w| witness(&w[0]) == witness(&w[1]));
    match kind {
        CheckKind::SharedUniform => {
            if !uniform_witness {
                return Err(format!("shared branch saw witnesses {:?}", witnesses()));
            }
            if reports.windows(2).any(|w| taken(&w[0]) != taken(&w[1])) {
                return Err(format!("shared branch saw directions {:?}", takens()));
            }
            Ok(())
        }
        CheckKind::ThreadIdPredicate(tc) => {
            if !uniform_witness {
                return Err(format!("threadID branch saw witnesses {:?}", witnesses()));
            }
            // The reports are sorted by thread id, so prefix/suffix shapes
            // are positional properties of their directions.
            let steps = || reports.windows(2).map(|w| (taken(&w[0]), taken(&w[1])));
            let ok = match tc {
                TidCheck::AtMostOneTaken => reports.iter().filter(|r| taken(r)).count() <= 1,
                TidCheck::AtMostOneNotTaken => reports.iter().filter(|r| !taken(r)).count() <= 1,
                TidCheck::TakenIsPrefix => !steps().any(|(a, b)| !a && b),
                TidCheck::TakenIsSuffix => !steps().any(|(a, b)| a && !b),
            };
            if ok {
                Ok(())
            } else {
                Err(format!("threadID predicate {tc:?} broken by directions {:?}", takens()))
            }
        }
        CheckKind::GroupByWitness => {
            for (i, a) in reports.iter().enumerate() {
                for b in &reports[i + 1..] {
                    if witness(a) == witness(b) && taken(a) != taken(b) {
                        return Err(format!(
                            "witness group {:#x} split directions {:?}",
                            witness(a),
                            takens()
                        ));
                    }
                }
            }
            Ok(())
        }
    }
}

/// Builds an image of `module` with a deliberately broken Table II rule
/// planted in it: every branch the analysis proved to be a `threadID`
/// predicate has its condition re-labeled `shared`, and the check plan is
/// rebuilt on the corrupted categories. The resulting plan emits
/// `SharedUniform` checks whose witnesses carry the (per-thread) thread-ID
/// operand, so a correct oracle must reject the image — this is the
/// self-test that proves the oracle can catch a category-propagation
/// regression.
///
/// Returns `None` when the module has no `threadID`-predicate branches to
/// sabotage.
pub fn sabotaged_image(
    module: &bw_ir::Module,
    config: AnalysisConfig,
) -> Option<ProgramImage> {
    let mut image = ProgramImage::try_prepare(module.clone(), config).ok()?;
    let targets: Vec<(bw_ir::FuncId, bw_ir::ValueId)> = image
        .analysis
        .branches
        .iter()
        .filter(|b| {
            matches!(
                image.plan.check(b.id).map(|c| c.kind),
                Some(CheckKind::ThreadIdPredicate(_))
            )
        })
        .map(|b| (b.func, b.cond))
        .collect();
    if targets.is_empty() {
        return None;
    }
    for (func, cond) in targets {
        image.analysis.override_value_category(func, cond, Category::Shared);
    }
    // The interpreter must evaluate the (corrupted) plan's witness lists,
    // exactly as if try_prepare had built it.
    let plan = CheckPlan::build(&image.module, &image.analysis, config);
    image.replace_plan(plan);
    Some(image)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// One instance's reports, `(thread, witness, taken)` sorted by thread.
    fn at(reports: &[(u32, u64, bool)]) -> Vec<Keyed> {
        reports.iter().map(|&report| ((0, 0, 0), report)).collect()
    }

    #[test]
    fn expected_pattern_shapes() {
        let uniform = at(&[(0, 9, true), (1, 9, true)]);
        let split = at(&[(0, 9, true), (1, 9, false)]);
        assert!(expected_pattern(&CheckKind::SharedUniform, &uniform).is_ok());
        assert!(expected_pattern(&CheckKind::SharedUniform, &split).is_err());

        let prefix = at(&[(0, 5, true), (1, 5, true), (2, 5, false)]);
        let broken = at(&[(0, 5, false), (1, 5, true)]);
        let k = CheckKind::ThreadIdPredicate(TidCheck::TakenIsPrefix);
        assert!(expected_pattern(&k, &prefix).is_ok());
        assert!(expected_pattern(&k, &broken).is_err());
        let k = CheckKind::ThreadIdPredicate(TidCheck::TakenIsSuffix);
        assert!(expected_pattern(&k, &broken).is_ok());

        let k = CheckKind::ThreadIdPredicate(TidCheck::AtMostOneTaken);
        assert!(expected_pattern(&k, &at(&[(0, 5, true), (1, 5, false)])).is_ok());
        assert!(expected_pattern(&k, &at(&[(0, 5, true), (1, 5, true)])).is_err());

        let groups = at(&[(0, 1, true), (1, 2, false), (2, 1, true)]);
        let bad = at(&[(0, 1, true), (1, 1, false)]);
        assert!(expected_pattern(&CheckKind::GroupByWitness, &groups).is_ok());
        assert!(expected_pattern(&CheckKind::GroupByWitness, &bad).is_err());

        // Single reporters are never a pattern violation.
        assert!(expected_pattern(&CheckKind::SharedUniform, &at(&[(0, 1, true)])).is_ok());
    }

    /// What a `CategoryPattern` failure says, word for word, for each kind
    /// of check and each way it can fail.
    #[test]
    fn pattern_failure_details_are_pinned() {
        let detail = |kind: CheckKind, reports: &[(u32, u64, bool)]| {
            expected_pattern(&kind, &at(reports)).expect_err("the pattern is broken")
        };
        let tid = |check| CheckKind::ThreadIdPredicate(check);
        for (got, expected) in [
            (
                detail(CheckKind::SharedUniform, &[(0, 1, true), (1, 2, true)]),
                "shared branch saw witnesses [1, 2]",
            ),
            (
                detail(CheckKind::SharedUniform, &[(0, 1, true), (1, 1, false)]),
                "shared branch saw directions [true, false]",
            ),
            (
                detail(tid(TidCheck::AtMostOneTaken), &[(0, 3, true), (2, 4, false)]),
                "threadID branch saw witnesses [3, 4]",
            ),
            (
                detail(tid(TidCheck::AtMostOneTaken), &[(0, 3, true), (1, 3, true)]),
                "threadID predicate AtMostOneTaken broken by directions [true, true]",
            ),
            (
                detail(tid(TidCheck::AtMostOneNotTaken), &[(0, 3, false), (1, 3, false)]),
                "threadID predicate AtMostOneNotTaken broken by directions [false, false]",
            ),
            (
                detail(tid(TidCheck::TakenIsPrefix), &[(0, 3, false), (1, 3, true)]),
                "threadID predicate TakenIsPrefix broken by directions [false, true]",
            ),
            (
                detail(tid(TidCheck::TakenIsSuffix), &[(0, 3, true), (1, 3, false)]),
                "threadID predicate TakenIsSuffix broken by directions [true, false]",
            ),
            (
                detail(
                    CheckKind::GroupByWitness,
                    &[(0, 0xab, true), (1, 7, true), (2, 0xab, false)],
                ),
                "witness group 0xab split directions [true, true, false]",
            ),
        ] {
            assert_eq!(got, expected);
        }
    }

    /// The simulator, except that its `faulty`-th run comes back with
    /// `perturb` applied.
    struct Perturbed {
        faulty: usize,
        runs: AtomicUsize,
        perturb: fn(&mut RunResult),
    }

    impl Engine for Perturbed {
        fn run(&self, image: &ProgramImage, config: &ExecConfig) -> RunResult {
            let mut result = SimEngine.run(image, config);
            if self.runs.fetch_add(1, Ordering::Relaxed) == self.faulty {
                (self.perturb)(&mut result);
            }
            result
        }
    }

    /// The reproducibility gate compares the cycle buckets and the monitor's
    /// instruments: a repeat run that moves one of them by one is caught.
    #[test]
    fn a_repeat_run_that_moves_one_instrument_is_not_reproducible() {
        let image = ProgramImage::prepare_default(crate::generate_module(0, &Default::default()));
        let sound = Perturbed { faulty: usize::MAX, runs: AtomicUsize::new(0), perturb: |_| {} };
        check_on(&sound, &image, &[4], 7, false).expect("seed 0 passes the oracle");
        let mutants: [(fn(&mut RunResult), _); 3] = [
            (|r| r.cycles.cycles_alu += 1, "cycle attributions"),
            (
                |r| r.monitor.as_mut().expect("monitored").instruments.flush_calls += 1,
                "monitor instruments",
            ),
            (
                |r| r.monitor.as_mut().expect("monitored").pending_instances += 1,
                "monitor instruments",
            ),
        ];
        for (perturb, what) in mutants {
            // The first run at a thread count is the monitored one, the
            // second its repeat.
            let mutant = Perturbed { faulty: 1, runs: AtomicUsize::new(0), perturb };
            match check_on(&mutant, &image, &[4], 7, false) {
                Err(OracleFailure::NotReproducible { nthreads: 4, detail }) => {
                    assert_eq!(detail, format!("{what} differ between identical runs"));
                }
                other => panic!("{what}: {other:?}"),
            }
        }
    }
}
