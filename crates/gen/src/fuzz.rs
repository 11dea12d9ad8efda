//! The fuzzing loop: generate → round-trip → prepare → oracle → (optional)
//! fault-injection campaign, with automatic shrinking of failures.
//!
//! Everything here is a pure function of the configuration: the same
//! [`FuzzConfig`] always produces the same [`FuzzReport`], including the
//! minimized reproducers, so a CI failure can be replayed locally with
//! nothing but the seed.

use std::fmt::Write as _;
use std::sync::Arc;

use bw_analysis::AnalysisConfig;
use bw_fault::{CampaignBatch, CampaignConfig, FaultModel, OutcomeCounts};
use bw_ir::{parse_module, Module, ModulePrinter};
use bw_telemetry::{Recorder, Value, NULL_RECORDER};
use bw_vm::{EngineKind, ExecConfig, ProgramImage};

use crate::generate::{generate_module, GenConfig};
use crate::oracle::{check_image_cross, OracleStats, DEFAULT_THREADS};
use crate::shrink::shrink;

/// Configuration of one fuzzing session.
#[derive(Clone, Debug, PartialEq)]
pub struct FuzzConfig {
    /// Number of seeds to run.
    pub seeds: u64,
    /// First seed; the session covers `start_seed .. start_seed + seeds`.
    pub start_seed: u64,
    /// Thread counts the oracle sweeps for every seed.
    pub threads: Vec<u32>,
    /// Program-shape parameters for the generator.
    pub gen: GenConfig,
    /// Fault injections to run against each passing seed (0 disables the
    /// injection stage).
    pub injections: usize,
    /// Engine the injection campaigns run on. [`EngineKind::Real`] trades
    /// reproducibility of the injection outcomes for true-concurrency
    /// exercise of the monitor machinery.
    pub engine: EngineKind,
    /// Cross-check every fault-free oracle run against the real-threads
    /// engine (see [`crate::check_image_cross`]).
    pub real_cross_check: bool,
    /// Monitor shard count for the injection-stage campaigns (`None` = one
    /// monitor). The fault-free oracle stage always sweeps shard counts
    /// regardless (the shard-neutrality invariant).
    pub monitor_shards: Option<usize>,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seeds: 100,
            start_seed: 0,
            threads: DEFAULT_THREADS.to_vec(),
            gen: GenConfig::default(),
            injections: 0,
            engine: EngineKind::Sim,
            real_cross_check: false,
            monitor_shards: None,
        }
    }
}

/// One seed's failure, with a minimized reproducer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FuzzFailure {
    /// The generator seed that produced the failing program.
    pub seed: u64,
    /// The oracle's (or pipeline stage's) complaint.
    pub message: String,
    /// Textual IR of the shrunk module — parse it back with
    /// [`bw_ir::parse_module`] to replay.
    pub minimized: String,
    /// Instruction count of the shrunk module.
    pub minimized_insts: usize,
}

/// The outcome of a fuzzing session.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FuzzReport {
    /// Seeds actually run.
    pub seeds_run: u64,
    /// Every failing seed, in seed order, each with a minimized reproducer.
    pub failures: Vec<FuzzFailure>,
    /// Aggregate oracle statistics over all passing seeds.
    pub stats: OracleStats,
    /// Aggregate fault-injection outcomes (all zero when injections are
    /// disabled).
    pub injection_counts: OutcomeCounts,
}

impl FuzzReport {
    /// Whether every seed passed.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }

    /// A deterministic multi-line summary (no timestamps, no wall-clock).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "fuzz: {} seed(s), {} failure(s)",
            self.seeds_run,
            self.failures.len()
        );
        let s = &self.stats;
        let _ = writeln!(
            out,
            "  oracle: {} run(s), {} event(s), {} instance(s) ({} cross-checked)",
            s.runs, s.events, s.instances, s.checked_instances
        );
        let cov: Vec<String> =
            s.coverage.by_kind().iter().map(|&(name, n)| format!("{name} {n}")).collect();
        let _ = writeln!(out, "  coverage: {}", cov.join(", "));
        let unexercised = s.coverage.unexercised();
        if !unexercised.is_empty() {
            let _ = writeln!(out, "  unexercised: {}", unexercised.join(", "));
        }
        let c = &self.injection_counts;
        if c.activated() + c.not_activated > 0 {
            let _ = writeln!(
                out,
                "  injections: {} activated, {} detected, {} crashed, {} hung, {} masked, {} sdc",
                c.activated(),
                c.detected,
                c.crashed,
                c.hung,
                c.masked,
                c.sdc
            );
        }
        for f in &self.failures {
            let _ = writeln!(
                out,
                "  seed {:#x}: {} (minimized to {} instruction(s))",
                f.seed, f.message, f.minimized_insts
            );
        }
        out
    }
}

/// A pipeline-stage or oracle failure for one module.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckFailure {
    /// Stable failure-class name (see [`crate::OracleFailure::class`];
    /// pipeline stages contribute `round-trip` and `prepare`). The shrinker
    /// only accepts reductions that stay in the original class.
    pub class: &'static str,
    /// Human-readable description.
    pub message: String,
}

/// Runs the full pipeline for one module and applies the oracle.
///
/// Checks, in order: the textual round-trip (print → parse → structural
/// equality), preparation (verify + analyze + instrument + link), and the
/// three oracle invariants at every thread count.
///
/// # Errors
///
/// Returns the first failing stage, tagged with its class.
pub fn check_module(
    module: &Module,
    threads: &[u32],
    seed: u64,
) -> Result<OracleStats, CheckFailure> {
    check_module_cross(module, threads, seed, false)
}

/// [`check_module`] with the opt-in real-engine cross-check of
/// [`crate::check_image_cross`] on the oracle stage.
///
/// # Errors
///
/// Returns the first failing stage, tagged with its class
/// (`engine-divergence` when sim and real disagree).
pub fn check_module_cross(
    module: &Module,
    threads: &[u32],
    seed: u64,
    real_cross: bool,
) -> Result<OracleStats, CheckFailure> {
    let text = ModulePrinter(module).to_string();
    match parse_module(&text) {
        Ok(reparsed) if reparsed == *module => {}
        Ok(_) => {
            return Err(CheckFailure {
                class: "round-trip",
                message: "textual round-trip is not structurally identical".into(),
            })
        }
        Err(e) => {
            return Err(CheckFailure {
                class: "round-trip",
                message: format!("printed module fails to re-parse: {e}"),
            })
        }
    }
    // The one way preparing can fail is a verifier rejection.
    let image = ProgramImage::try_prepare(module.clone(), AnalysisConfig::default())
        .map_err(|e| CheckFailure { class: "prepare", message: e.to_string() })?;
    check_image_cross(&image, threads, seed, real_cross)
        .map_err(|f| CheckFailure { class: f.class(), message: f.to_string() })
}

/// How many oracle-passing seeds one [`CampaignBatch`] covers: large
/// enough that the shared worker pool amortizes across images, small
/// enough that failures surface before the session ends.
const INJECT_CHUNK: usize = 64;

/// Runs a fuzzing session.
pub fn run_fuzz(config: &FuzzConfig) -> FuzzReport {
    run_fuzz_recorded(config, &NULL_RECORDER)
}

/// [`run_fuzz`] with a structured-event [`Recorder`] receiving one
/// `fuzz.seed` event per seed (seed, status, failure class) plus the
/// injection batches' stage spans and per-injection trace — the format
/// `bw stats` reads back. The report itself stays a pure function of the
/// configuration; only the trace carries wall-clock data.
pub fn run_fuzz_recorded(config: &FuzzConfig, recorder: &dyn Recorder) -> FuzzReport {
    let mut report = FuzzReport::default();
    // Live registry handles for the sampler: seeds swept and failures
    // found so far. Cold per-seed updates, trace-side
    // only — the report stays a pure function of the configuration.
    let registry = bw_telemetry::MetricRegistry::global();
    let live_seeds = registry.counter("live.fuzz.seeds");
    let live_failures = registry.counter("live.fuzz.failures");
    // Generated programs index per-thread array slots by thread ID; make
    // sure they are sized for the largest swept thread count.
    let mut gen = config.gen;
    gen.max_threads = gen.max_threads.max(config.threads.iter().copied().max().unwrap_or(1));
    // Oracle-passing seeds waiting for the batched injection stage.
    let mut pending: Vec<(u64, Arc<ProgramImage>)> = Vec::new();
    for seed in config.start_seed..config.start_seed.saturating_add(config.seeds) {
        let module = generate_module(seed, &gen);
        report.seeds_run += 1;
        live_seeds.inc();
        match check_module_cross(&module, &config.threads, seed, config.real_cross_check) {
            Ok(stats) => {
                recorder.record(
                    "fuzz.seed",
                    &[("seed", Value::from(seed)), ("status", Value::from("ok"))],
                );
                report.stats.absorb(stats);
                if config.injections > 0 {
                    let image = ProgramImage::prepare(module.clone(), AnalysisConfig::default());
                    pending.push((seed, Arc::new(image)));
                    if pending.len() >= INJECT_CHUNK {
                        inject_batch(&mut pending, config, &mut report, recorder);
                    }
                }
            }
            Err(failure) => {
                live_failures.inc();
                recorder.record(
                    "fuzz.seed",
                    &[
                        ("seed", Value::from(seed)),
                        ("status", Value::from("fail")),
                        ("class", Value::from(failure.class)),
                    ],
                );
                let threads = config.threads.clone();
                // Only accept reductions that fail in the same class as the
                // original: without this, a "not transparent" repro can
                // drift into an unrelated deadlock while shrinking.
                let class = failure.class;
                let real_cross = config.real_cross_check;
                let min = shrink(&module, |m| {
                    check_module_cross(m, &threads, seed, real_cross)
                        .err()
                        .is_some_and(|f| f.class == class)
                });
                report.failures.push(FuzzFailure {
                    seed,
                    message: failure.message,
                    minimized: ModulePrinter(&min).to_string(),
                    minimized_insts: min.num_insts(),
                });
            }
        }
    }
    inject_batch(&mut pending, config, &mut report, recorder);
    // Oracle failures are pushed per seed but campaign failures only when
    // their chunk flushes; restore the documented seed order.
    report.failures.sort_by_key(|f| f.seed);
    recorder.flush();
    report
}

/// Runs one [`CampaignBatch`] over the pending oracle-passing seeds. Each
/// image gets exactly the per-seed campaign configuration the sequential
/// stage used, so the deterministic per-seed outcomes (and therefore the
/// aggregate counts) are independent of the chunking. The oracle has
/// already proven each fault-free program completes cleanly at every
/// swept thread count, so campaign setup errors are themselves
/// oracle-grade failures.
fn inject_batch(
    pending: &mut Vec<(u64, Arc<ProgramImage>)>,
    config: &FuzzConfig,
    report: &mut FuzzReport,
    recorder: &dyn Recorder,
) {
    if pending.is_empty() {
        return;
    }
    let nthreads = config.threads.iter().copied().max().unwrap_or(4);
    let mut batch = CampaignBatch::new();
    for (seed, image) in pending.iter() {
        let sim = ExecConfig::new(nthreads)
            .seed(*seed)
            .max_steps(2_000_000)
            .monitor_shards(config.monitor_shards);
        let cc = CampaignConfig::new(config.injections, FaultModel::BranchFlip, nthreads)
            .seed(*seed)
            .sim(sim)
            .engine(config.engine);
        batch.push(Arc::clone(image), cc);
    }
    let outcome = batch.run_recorded(recorder);
    for ((seed, image), result) in pending.drain(..).zip(outcome.results) {
        match result {
            Ok(res) => merge_counts(&mut report.injection_counts, &res.counts),
            Err(e) => report.failures.push(FuzzFailure {
                seed,
                message: format!("fault campaign refused a program the oracle passed: {e}"),
                minimized: ModulePrinter(&image.module).to_string(),
                minimized_insts: image.module.num_insts(),
            }),
        }
    }
}

fn merge_counts(into: &mut OutcomeCounts, from: &OutcomeCounts) {
    into.not_activated += from.not_activated;
    into.detected += from.detected;
    into.crashed += from.crashed;
    into.hung += from.hung;
    into.masked += from.masked;
    into.sdc += from.sdc;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> FuzzConfig {
        FuzzConfig {
            seeds: 3,
            start_seed: 0,
            threads: vec![1, 2],
            gen: GenConfig { max_stmts: 10, ..GenConfig::default() },
            injections: 0,
            engine: EngineKind::Sim,
            real_cross_check: false,
            monitor_shards: None,
        }
    }

    #[test]
    fn small_session_passes_and_is_reproducible() {
        let cfg = small_config();
        let a = run_fuzz(&cfg);
        assert!(a.ok(), "unexpected failures:\n{}", a.render());
        assert_eq!(a.seeds_run, 3);
        assert!(a.stats.runs > 0);
        let b = run_fuzz(&cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn injection_stage_accumulates_counts() {
        let mut cfg = small_config();
        cfg.seeds = 1;
        cfg.injections = 4;
        let r = run_fuzz(&cfg);
        assert!(r.ok(), "unexpected failures:\n{}", r.render());
        let c = &r.injection_counts;
        assert_eq!(c.activated() + c.not_activated, 4);
    }

    #[test]
    fn real_cross_check_passes_on_clean_seeds() {
        let mut cfg = small_config();
        cfg.seeds = 2;
        cfg.real_cross_check = true;
        let r = run_fuzz(&cfg);
        assert!(r.ok(), "unexpected failures:\n{}", r.render());
        // 2 seeds x 2 thread counts x 10 runs (monitored, repeat,
        // unmonitored, span-traced, shard sweep of 4, real, real sharded).
        assert_eq!(r.stats.runs, 2 * 2 * 10);
    }

    #[test]
    fn coverage_counts_are_reported() {
        let cfg = FuzzConfig { seeds: 10, ..small_config() };
        let r = run_fuzz(&cfg);
        assert!(r.ok(), "unexpected failures:\n{}", r.render());
        assert_eq!(r.stats.coverage.total(), r.stats.checked_instances);
        assert!(r.render().contains("coverage: shared-uniform"));
    }

    #[test]
    fn report_renders_failures() {
        let mut r = FuzzReport { seeds_run: 1, ..FuzzReport::default() };
        r.failures.push(FuzzFailure {
            seed: 7,
            message: "boom".into(),
            minimized: String::new(),
            minimized_insts: 3,
        });
        let text = r.render();
        assert!(text.contains("1 failure(s)"));
        assert!(text.contains("seed 0x7: boom (minimized to 3 instruction(s))"));
    }
}
