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
//!    total and per-thread instruction and branch counts.
//!
//! At each thread count the program runs once monitored, and then once per
//! row of the leg table `LEGS`: again, with the monitor off, under a span
//! sink, at four shard counts and (opt-in) on the OS-thread engine. A row
//! names the observables its run must share with the monitored run and the
//! failure it reports when one differs; one comparator, `Leg::compare`,
//! checks them all. The category patterns are checked after the
//! simulator's legs.

use std::fmt::{self, Write as _};
use std::sync::Arc;

use bw_analysis::{AnalysisConfig, Category, CheckKind, CheckPlan, TidCheck};
use bw_ir::BranchId;
use bw_vm::{
    engine, Engine, EngineKind, ExecConfig, MonitorMode, ProgramImage, RunOutcome, RunResult,
    SimEngine,
};

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

/// Why the oracle, or a pipeline stage before it, rejected a program.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckFailure {
    /// Stable name of the failure class: `run-failed`, `false-positive`,
    /// `category-pattern`, a leg's class, or a pipeline stage's
    /// `round-trip` or `prepare`. The shrinker keeps a reduction only when
    /// it fails in the same class, so a transparency repro cannot drift
    /// into, say, a plain deadlock.
    pub class: &'static str,
    /// What went wrong, in words: the failure's `Display`.
    pub message: String,
}

impl CheckFailure {
    /// The failure class, as the `class` field holds it. `benchmark/`
    /// reads the class of `check_image`'s failures by this method and of
    /// `check_module`'s by the field.
    pub fn class(&self) -> &'static str {
        self.class
    }
}

impl fmt::Display for CheckFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

/// How a leg's run differs from the monitored run.
#[derive(Clone, Copy, Debug)]
enum Run {
    /// The same configuration again.
    Repeat,
    /// The monitor off, and no events captured.
    MonitorOff,
    /// A discarding span sink installed, so that every span tracer runs.
    SpanSink,
    /// The monitor ingest split across this many shards.
    Shards(usize),
    /// On the OS-thread engine, without captured events, at this many
    /// monitor shards (`None`: one monitor).
    Real(Option<usize>),
}

impl Run {
    /// The leg's run of `image`, whose monitored run was configured `on`.
    fn result(
        self,
        sim: &dyn Engine,
        real: &dyn Engine,
        image: &ProgramImage,
        on: &ExecConfig,
    ) -> RunResult {
        match self {
            Run::Repeat => sim.run(image, on),
            Run::MonitorOff => {
                sim.run(image, &on.clone().monitor(MonitorMode::Off).capture_events(false))
            }
            Run::SpanSink => {
                // The sink installed before (the CLI may hold one for the
                // whole fuzz session) comes back afterwards.
                let prev = bw_telemetry::trace_sink();
                bw_telemetry::set_trace_sink(Some(Arc::new(bw_telemetry::NullRecorder)));
                let result = sim.run(image, on);
                bw_telemetry::set_trace_sink(prev);
                result
            }
            Run::Shards(shards) => sim.run(image, &on.clone().monitor_shards(Some(shards))),
            Run::Real(shards) => {
                real.run(image, &on.clone().capture_events(false).monitor_shards(shards))
            }
        }
    }

    /// How the run differs, as the failure detail says it.
    fn context(self) -> &'static str {
        match self {
            Run::Repeat => "between identical runs",
            Run::MonitorOff => "with the monitor on",
            Run::SpanSink => "under a span sink",
            Run::Shards(_) => "with sharded ingest",
            Run::Real(_) => "on the real engine",
        }
    }
}

/// A named observable of a run.
#[derive(Clone, Copy, Debug)]
enum Observable {
    Outcome,
    Outputs,
    ParallelCycles,
    TotalSteps,
    BranchEvents,
    Violations,
    ViolationReports,
    StepsPerThread,
    BranchesPerThread,
    /// Events sent and processed.
    EventCounts,
    EventsProcessed,
    Engines,
    Cycles,
    Monitor,
}

use Observable::*;

impl Observable {
    /// The observable's name, and whether runs `a` and `b` differ in it.
    fn compare(self, a: &RunResult, b: &RunResult) -> (&'static str, bool) {
        let events = |r: &RunResult| (r.events_sent, r.events_processed);
        match self {
            Outcome => ("outcome", a.outcome != b.outcome),
            Outputs => ("outputs", a.outputs != b.outputs),
            ParallelCycles => ("parallel_cycles", a.parallel_cycles != b.parallel_cycles),
            TotalSteps => ("total_steps", a.total_steps != b.total_steps),
            BranchEvents => ("branch event streams", a.branch_events != b.branch_events),
            Violations => ("violations", a.violations != b.violations),
            ViolationReports => ("violation reports", a.violation_reports != b.violation_reports),
            StepsPerThread => ("per-thread step counts", a.steps_per_thread != b.steps_per_thread),
            BranchesPerThread => {
                ("per-thread branch counts", a.branches_per_thread != b.branches_per_thread)
            }
            EventCounts => ("event counts", events(a) != events(b)),
            EventsProcessed => ("events_processed", a.events_processed != b.events_processed),
            Engines => ("engines", a.engine != b.engine),
            Cycles => ("cycle attributions", a.cycles != b.cycles),
            Monitor => ("monitor instruments", a.monitor != b.monitor),
        }
    }
}

/// Every deterministic field of a run: what two runs of one configuration
/// share bit for bit.
const EVERY_FIELD: &[Observable] = &[
    Outcome,
    Outputs,
    ParallelCycles,
    TotalSteps,
    BranchEvents,
    Violations,
    StepsPerThread,
    BranchesPerThread,
    EventCounts,
    Engines,
    Cycles,
    Monitor,
];

/// What the program sees, which the monitor must not change. (Event counts,
/// cycle attribution and the monitor's instruments necessarily differ.)
const PROGRAM_VIEW: &[Observable] =
    &[Outcome, Outputs, StepsPerThread, BranchesPerThread, TotalSteps];

/// Verdicts, their provenance and the program's results and costs, which
/// sharding the ingest must not change. (Per-shard health counters appear
/// on the sharded side only.)
const VERDICTS: &[Observable] =
    &[Outcome, Outputs, Violations, ViolationReports, EventsProcessed, TotalSteps, ParallelCycles];

/// What does not depend on the schedule, which the real engine must share
/// with the simulator: outputs (both emit them in thread-id order), the
/// outcome and the violations (none: the monitored run has passed the
/// false-positive check). Step counts, cycles and event totals are not.
const SCHEDULE_FREE: &[Observable] = &[Outcome, Outputs, Violations];

/// One leg of the sweep: a run of the program that differs from the
/// monitored run in one way, and what it reports when it is caught.
#[derive(Debug)]
struct Leg {
    /// How its run differs from the monitored run.
    run: Run,
    /// The observables that must equal the monitored run's, in the order
    /// they are compared.
    must_match: &'static [Observable],
    /// The failure class it reports.
    class: &'static str,
    /// The failure message's lead, before " at N thread(s): <detail>".
    lead: &'static str,
}

/// The legs, in the order they run: how each one's run differs from the
/// monitored run, the observables it must share with it, and the class
/// and lead of the failure it reports. The first [`SIM_LEGS`] run on the
/// simulator; the rest are the opt-in real-engine cross-check.
const LEGS: [Leg; 9] = [
    Leg::new(Run::Repeat, EVERY_FIELD, "not-reproducible", "run not reproducible"),
    Leg::new(Run::MonitorOff, PROGRAM_VIEW, "not-transparent", "instrumentation not transparent"),
    Leg::new(Run::SpanSink, EVERY_FIELD, "trace-divergence", "span tracing not transparent"),
    Leg::new(Run::Shards(1), VERDICTS, "shard-divergence", "sharded monitor (1 shard(s)) diverges"),
    Leg::new(Run::Shards(2), VERDICTS, "shard-divergence", "sharded monitor (2 shard(s)) diverges"),
    Leg::new(Run::Shards(4), VERDICTS, "shard-divergence", "sharded monitor (4 shard(s)) diverges"),
    Leg::new(Run::Shards(8), VERDICTS, "shard-divergence", "sharded monitor (8 shard(s)) diverges"),
    Leg::new(Run::Real(None), SCHEDULE_FREE, "engine-divergence", "real engine diverges from sim"),
    Leg::new(
        Run::Real(Some(4)),
        SCHEDULE_FREE,
        "shard-divergence",
        "sharded monitor (4 shard(s)) diverges",
    ),
];

/// How many of [`LEGS`] run on the simulator.
const SIM_LEGS: usize = 7;

impl Leg {
    const fn new(
        run: Run,
        must_match: &'static [Observable],
        class: &'static str,
        lead: &'static str,
    ) -> Leg {
        Leg { run, must_match, class, lead }
    }

    /// The one comparator: the first of the leg's observables on which its
    /// `run` differs from the `monitored` one, in words.
    fn compare(&self, monitored: &RunResult, run: &RunResult) -> Option<String> {
        let (name, _) = self
            .must_match
            .iter()
            .map(|o| o.compare(monitored, run))
            .find(|&(_, differs)| differs)?;
        Some(match name {
            "outcome" => format!("outcome {:?} vs {:?}", monitored.outcome, run.outcome),
            name => format!("{name} differ {}", self.run.context()),
        })
    }
}

/// The check kinds the coverage counts, with their report names, in report
/// order.
const KINDS: [(CheckKind, &str); 6] = [
    (CheckKind::SharedUniform, "shared-uniform"),
    (CheckKind::ThreadIdPredicate(TidCheck::AtMostOneTaken), "tid-at-most-one-taken"),
    (CheckKind::ThreadIdPredicate(TidCheck::AtMostOneNotTaken), "tid-at-most-one-not-taken"),
    (CheckKind::ThreadIdPredicate(TidCheck::TakenIsPrefix), "tid-taken-is-prefix"),
    (CheckKind::ThreadIdPredicate(TidCheck::TakenIsSuffix), "tid-taken-is-suffix"),
    (CheckKind::GroupByWitness, "group-by-witness"),
];

/// How many monitor-checkable instances (two or more reporting threads)
/// each check kind received during an oracle sweep, in the order of
/// [`CoverageCounts::by_kind`]. A category left at zero after a fuzz
/// session means that session never actually exercised the corresponding
/// monitor checker — passing proves nothing about it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CoverageCounts([u64; 6]);

impl CoverageCounts {
    /// Records one checked instance of `kind`.
    pub fn record(&mut self, kind: &CheckKind) {
        if let Some(i) = KINDS.iter().position(|(k, _)| k == kind) {
            self.0[i] += 1;
        }
    }

    /// `(name, count)` pairs in a fixed order, for reporting.
    pub fn by_kind(&self) -> [(&'static str, u64); 6] {
        std::array::from_fn(|i| (KINDS[i].1, self.0[i]))
    }

    /// Names of the check kinds that never saw a checked instance.
    pub fn unexercised(&self) -> Vec<&'static str> {
        self.by_kind().iter().filter(|&&(_, n)| n == 0).map(|&(name, _)| name).collect()
    }

    /// Total checked instances across all kinds.
    pub fn total(&self) -> u64 {
        self.0.iter().sum()
    }

    /// Accumulates another sweep's counts.
    pub fn absorb(&mut self, other: CoverageCounts) {
        self.0.iter_mut().zip(other.0).for_each(|(n, m)| *n += m);
    }
}

/// Aggregate statistics from one oracle sweep, for fuzz reporting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OracleStats {
    /// Runs executed: per thread count, the monitored run and one per leg
    /// (eight; ten with the real cross-check).
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

/// Runs the oracle over `image` at each thread count, on the simulator.
///
/// `base_seed` seeds the simulated machine (per-thread PRNG streams), so the
/// whole sweep is a pure function of `(image, threads, base_seed)`.
///
/// # Errors
///
/// Returns the first failure, tagged with its class.
pub fn check_image(
    image: &ProgramImage,
    threads: &[u32],
    base_seed: u64,
) -> Result<OracleStats, CheckFailure> {
    sweep(&SimEngine, engine(EngineKind::Real), image, threads, base_seed, false)
}

/// [`check_image`] on the engines `sim` and `real` (tests swap in faulty
/// ones), with the real-engine legs when `real_cross` is set.
pub(crate) fn sweep(
    sim: &dyn Engine,
    real: &dyn Engine,
    image: &ProgramImage,
    threads: &[u32],
    base_seed: u64,
    real_cross: bool,
) -> Result<OracleStats, CheckFailure> {
    let mut stats = OracleStats::default();
    for &n in threads {
        let on =
            ExecConfig::new(n).seed(base_seed).max_steps(ORACLE_MAX_STEPS).capture_events(true);
        let monitored = sim.run(image, &on);
        stats.runs += 1;
        if monitored.outcome != RunOutcome::Completed {
            let message = format!("fault-free run at {n} thread(s) ended {:?}", monitored.outcome);
            return Err(CheckFailure { class: "run-failed", message });
        }
        // Invariant 1: zero false positives.
        if let Some(violation) = monitored.violations.first() {
            // Carry the matching provenance (reports are sorted in lockstep
            // with the violations) so the repro explains *which* threads
            // disagreed, not just that some did.
            let mut message = format!("false positive at {n} thread(s): {}", violation.describe());
            if let Some(report) =
                monitored.violation_reports.iter().find(|r| r.violation == *violation)
            {
                let _ = write!(message, "\n{}", report.describe());
            }
            return Err(CheckFailure { class: "false-positive", message });
        }

        for (i, leg) in LEGS.iter().enumerate() {
            if i == SIM_LEGS {
                // Invariant 2: the event stream matches the static
                // categories.
                stats.events += monitored.branch_events.len() as u64;
                check_category_patterns(image, &monitored, n, &mut stats)?;
                if !real_cross {
                    break;
                }
            }
            let run = leg.run.result(sim, real, image, &on);
            stats.runs += 1;
            if let Some(detail) = leg.compare(&monitored, &run) {
                let message = format!("{} at {n} thread(s): {detail}", leg.lead);
                return Err(CheckFailure { class: leg.class, message });
            }
        }
    }
    Ok(stats)
}

fn check_category_patterns(
    image: &ProgramImage,
    run: &RunResult,
    nthreads: u32,
    stats: &mut OracleStats,
) -> Result<(), CheckFailure> {
    let mismatch = |branch: u32, detail: String| {
        let message =
            format!("category pattern mismatch at {nthreads} thread(s) on br{branch}: {detail}");
        CheckFailure { class: "category-pattern", message }
    };
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
            let detail = "event emitted for a branch the plan never instrumented";
            return Err(mismatch(branch, detail.into()));
        };
        stats.instances += 1;
        if reports.len() >= 2 {
            stats.checked_instances += 1;
            stats.coverage.record(&check.kind);
        }
        expected_pattern(&check.kind, reports).map_err(|detail| mismatch(branch, detail))?;
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

    impl Perturbed {
        /// `engine`'s run, perturbed if it is the `faulty`-th.
        fn on(&self, engine: &dyn Engine, image: &ProgramImage, config: &ExecConfig) -> RunResult {
            let mut result = engine.run(image, config);
            if self.runs.fetch_add(1, Ordering::Relaxed) == self.faulty {
                (self.perturb)(&mut result);
            }
            result
        }
    }

    impl Engine for Perturbed {
        fn run(&self, image: &ProgramImage, config: &ExecConfig) -> RunResult {
            self.on(&SimEngine, image, config)
        }
    }

    /// The real engine, its runs counted and perturbed with the simulator's.
    struct PerturbedReal<'a>(&'a Perturbed);

    impl Engine for PerturbedReal<'_> {
        fn run(&self, image: &ProgramImage, config: &ExecConfig) -> RunResult {
            self.0.on(engine(EngineKind::Real), image, config)
        }
    }

    fn check_on(
        sim: &Perturbed,
        image: &ProgramImage,
        threads: &[u32],
        base_seed: u64,
        real_cross: bool,
    ) -> Result<OracleStats, CheckFailure> {
        sweep(sim, &PerturbedReal(sim), image, threads, base_seed, real_cross)
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
                Err(failure) if failure.class == "not-reproducible" => {
                    let detail = format!("{what} differ between identical runs");
                    assert_eq!(
                        failure.message,
                        format!("run not reproducible at 4 thread(s): {detail}")
                    );
                }
                other => panic!("{what}: {other:?}"),
            }
        }
    }

    /// Each row of the leg table is wired to its own run, comparator and
    /// failure: perturbing one leg's run, in an observable its comparator
    /// reads and (where the rows differ) another row's does not, fails the
    /// sweep with that leg's class and names the observable. One case per
    /// row, in table order.
    #[test]
    fn every_leg_reports_a_perturbation_of_its_own_run() {
        let image = ProgramImage::prepare_default(crate::generate_module(0, &Default::default()));
        let sound = Perturbed { faulty: usize::MAX, runs: AtomicUsize::new(0), perturb: |_| {} };
        check_on(&sound, &image, &[4], 7, true).expect("seed 0 passes the real cross-check");
        let cycles: fn(&mut RunResult) = |r| r.cycles.cycles_alu += 1;
        let branches: fn(&mut RunResult) = |r| r.branches_per_thread[0] += 1;
        let events: fn(&mut RunResult) = |r| r.events_processed += 1;
        let hung: fn(&mut RunResult) = |r| r.outcome = RunOutcome::Hung;
        let at = |lead: &str, detail: &str| format!("{lead} at 4 thread(s): {detail}");
        let sharded = |shards| {
            at(
                &format!("sharded monitor ({shards} shard(s)) diverges"),
                "events_processed differ with sharded ingest",
            )
        };
        let legs = [
            (
                cycles,
                "not-reproducible",
                at("run not reproducible", "cycle attributions differ between identical runs"),
            ),
            (
                branches,
                "not-transparent",
                at(
                    "instrumentation not transparent",
                    "per-thread branch counts differ with the monitor on",
                ),
            ),
            (
                cycles,
                "trace-divergence",
                at("span tracing not transparent", "cycle attributions differ under a span sink"),
            ),
            (events, "shard-divergence", sharded(1)),
            (events, "shard-divergence", sharded(2)),
            (events, "shard-divergence", sharded(4)),
            (events, "shard-divergence", sharded(8)),
            (
                hung,
                "engine-divergence",
                at("real engine diverges from sim", "outcome Completed vs Hung"),
            ),
            (
                hung,
                "shard-divergence",
                at("sharded monitor (4 shard(s)) diverges", "outcome Completed vs Hung"),
            ),
        ];
        for (leg, (perturb, class, message)) in legs.into_iter().enumerate() {
            // Run 0 is the monitored run; the legs' runs follow in order.
            let mutant = Perturbed { faulty: 1 + leg, runs: AtomicUsize::new(0), perturb };
            let failure = check_on(&mutant, &image, &[4], 7, true)
                .expect_err(&format!("leg {leg}'s perturbed run passes"));
            assert_eq!((failure.class, failure.message), (class, message), "leg {leg}");
        }
    }
}
