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
//!    per-thread instruction/branch counts recorded in the deterministic
//!    telemetry. (Monitor-side counters necessarily differ and are
//!    excluded; see [`transparent_counters`].)
//!
//! Plus a reproducibility gate: running the same configuration twice must be
//! bitwise-identical, including the full `deterministic_part()` snapshot.
//!
//! And a **shard-neutrality** gate: sharding the monitor ingest
//! (`ExecConfig::monitor_shards`) is a throughput knob, never a semantic
//! one — every shard count must produce byte-identical violations,
//! violation reports and program observables.

use std::collections::BTreeMap;
use std::fmt;

use bw_analysis::{AnalysisConfig, Category, CheckKind, CheckPlan, TidCheck};
use bw_monitor::{Violation, ViolationReport};
use bw_telemetry::TelemetrySnapshot;
use bw_vm::{
    engine, Engine, EngineKind, ExecConfig, MonitorMode, ProgramImage, RunOutcome, RunResult,
    SimEngine,
};
use bw_ir::BranchId;

/// The `(thread, witness, taken)` reports of one runtime branch instance.
type InstanceReports = Vec<(u32, u64, bool)>;

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
    let mut stats = OracleStats::default();
    for &n in threads {
        let cfg_on = ExecConfig::new(n)
            .seed(base_seed)
            .max_steps(ORACLE_MAX_STEPS)
            .capture_events(true);

        let r_on = SimEngine.run(image, &cfg_on);
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
        let r_again = SimEngine.run(image, &cfg_on);
        stats.runs += 1;
        if let Some(detail) = diff_full(&r_on, &r_again) {
            return Err(OracleFailure::NotReproducible { nthreads: n, detail });
        }

        // Invariant 3: the monitor must be invisible to the program.
        let cfg_off = cfg_on.clone().monitor(MonitorMode::Off).capture_events(false);
        let r_off = SimEngine.run(image, &cfg_off);
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
            let r_traced = SimEngine.run(image, &cfg_on);
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
            let r_sharded = SimEngine.run(image, &cfg_sharded);
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

fn diff_full(a: &RunResult, b: &RunResult) -> Option<String> {
    if a.outcome != b.outcome {
        return Some(format!("outcome {:?} vs {:?}", a.outcome, b.outcome));
    }
    if a.outputs != b.outputs {
        return Some("outputs differ between identical runs".into());
    }
    if a.parallel_cycles != b.parallel_cycles {
        return Some("parallel_cycles differ between identical runs".into());
    }
    if a.total_steps != b.total_steps {
        return Some("total_steps differ between identical runs".into());
    }
    if a.branch_events != b.branch_events {
        return Some("branch event streams differ between identical runs".into());
    }
    if a.violations != b.violations {
        return Some("violations differ between identical runs".into());
    }
    if a.telemetry.deterministic_part() != b.telemetry.deterministic_part() {
        return Some("deterministic telemetry differs between identical runs".into());
    }
    None
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
    let (ton, toff) =
        (transparent_counters(&on.telemetry), transparent_counters(&off.telemetry));
    if ton != toff {
        return Some(format!("transparent telemetry differs: {ton:?} vs {toff:?}"));
    }
    None
}

/// The subset of deterministic counters that must be identical whether or
/// not the monitor runs: pure program-execution shape. Monitor-dependent
/// counters (`monitor.*`, `vm.events_sent`, cycle attribution) are excluded
/// — the monitor legitimately costs cycles; it must not change *execution*.
pub fn transparent_counters(snapshot: &TelemetrySnapshot) -> Vec<(String, u64)> {
    snapshot
        .deterministic_part()
        .counters()
        .iter()
        .filter(|(name, _)| {
            name == "vm.instructions"
                || name == "vm.branches"
                || (name.starts_with("vm.thread.") && name.ends_with(".steps"))
        })
        .cloned()
        .collect()
}

fn check_category_patterns(
    image: &ProgramImage,
    run: &RunResult,
    nthreads: u32,
    stats: &mut OracleStats,
) -> Result<(), OracleFailure> {
    // Group events into runtime instances, exactly as the monitor keys its
    // two-level pending table: (branch, call-site path hash, iteration hash).
    let mut instances: BTreeMap<(u32, u64, u64), InstanceReports> = BTreeMap::new();
    for e in &run.branch_events {
        instances
            .entry((e.branch, e.site, e.iter))
            .or_default()
            .push((e.thread, e.witness, e.taken));
    }
    for ((branch, _site, _iter), mut reports) in instances {
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
        reports.sort_unstable();
        if let Err(detail) = expected_pattern(&check.kind, &reports) {
            return Err(OracleFailure::CategoryPattern { nthreads, branch, detail });
        }
    }
    Ok(())
}

/// The cross-thread pattern a category predicts, checked independently of
/// the monitor (shape checks over the thread-sorted report vector, rather
/// than the monitor's pairwise scans). Applied even to single-reporter
/// instances — the *prediction* holds for any reporter subset, even where
/// the monitor's check would pass vacuously.
fn expected_pattern(kind: &CheckKind, reports: &[(u32, u64, bool)]) -> Result<(), String> {
    let witnesses: Vec<u64> = reports.iter().map(|&(_, w, _)| w).collect();
    let takens: Vec<bool> = reports.iter().map(|&(_, _, t)| t).collect();
    let uniform_witness = witnesses.windows(2).all(|w| w[0] == w[1]);
    match kind {
        CheckKind::SharedUniform => {
            if !uniform_witness {
                return Err(format!("shared branch saw witnesses {witnesses:?}"));
            }
            if takens.windows(2).any(|w| w[0] != w[1]) {
                return Err(format!("shared branch saw directions {takens:?}"));
            }
            Ok(())
        }
        CheckKind::ThreadIdPredicate(tc) => {
            if !uniform_witness {
                return Err(format!("threadID branch saw witnesses {witnesses:?}"));
            }
            // `reports` is sorted by thread id, so prefix/suffix shapes are
            // positional properties of the `takens` vector.
            let ok = match tc {
                TidCheck::AtMostOneTaken => takens.iter().filter(|&&t| t).count() <= 1,
                TidCheck::AtMostOneNotTaken => takens.iter().filter(|&&t| !t).count() <= 1,
                TidCheck::TakenIsPrefix => !takens.windows(2).any(|w| !w[0] && w[1]),
                TidCheck::TakenIsSuffix => !takens.windows(2).any(|w| w[0] && !w[1]),
            };
            if ok {
                Ok(())
            } else {
                Err(format!("threadID predicate {tc:?} broken by directions {takens:?}"))
            }
        }
        CheckKind::GroupByWitness => {
            for (i, &(_, w1, t1)) in reports.iter().enumerate() {
                for &(_, w2, t2) in &reports[i + 1..] {
                    if w1 == w2 && t1 != t2 {
                        return Err(format!(
                            "witness group {w1:#x} split directions {takens:?}"
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

    #[test]
    fn expected_pattern_shapes() {
        // (thread, witness, taken), sorted by thread.
        let uniform = [(0, 9, true), (1, 9, true)];
        let split = [(0, 9, true), (1, 9, false)];
        assert!(expected_pattern(&CheckKind::SharedUniform, &uniform).is_ok());
        assert!(expected_pattern(&CheckKind::SharedUniform, &split).is_err());

        let prefix = [(0, 5, true), (1, 5, true), (2, 5, false)];
        let broken = [(0, 5, false), (1, 5, true)];
        let k = CheckKind::ThreadIdPredicate(TidCheck::TakenIsPrefix);
        assert!(expected_pattern(&k, &prefix).is_ok());
        assert!(expected_pattern(&k, &broken).is_err());
        let k = CheckKind::ThreadIdPredicate(TidCheck::TakenIsSuffix);
        assert!(expected_pattern(&k, &broken).is_ok());

        let k = CheckKind::ThreadIdPredicate(TidCheck::AtMostOneTaken);
        assert!(expected_pattern(&k, &[(0, 5, true), (1, 5, false)]).is_ok());
        assert!(expected_pattern(&k, &[(0, 5, true), (1, 5, true)]).is_err());

        let groups = [(0, 1, true), (1, 2, false), (2, 1, true)];
        let bad = [(0, 1, true), (1, 1, false)];
        assert!(expected_pattern(&CheckKind::GroupByWitness, &groups).is_ok());
        assert!(expected_pattern(&CheckKind::GroupByWitness, &bad).is_err());

        // Single reporters are never a pattern violation.
        assert!(expected_pattern(&CheckKind::SharedUniform, &[(0, 1, true)]).is_ok());
    }
}
