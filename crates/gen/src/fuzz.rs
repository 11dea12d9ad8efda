//! The fuzzing loop: generate → round-trip → prepare → oracle → (optional)
//! fault-injection campaign, with automatic shrinking of failures.
//!
//! Everything here is a pure function of the configuration: the same
//! [`FuzzConfig`] always produces the same [`FuzzReport`], including the
//! minimized reproducers, so a CI failure can be replayed locally with
//! nothing but the seed.

use std::fmt::Write as _;

use bw_analysis::AnalysisConfig;
use bw_fault::{run_campaign_with_golden_recorded, CampaignConfig, FaultModel, OutcomeCounts};
use bw_ir::{parse_module, Module, ModulePrinter};
use bw_telemetry::{Recorder, Value};
use bw_vm::{engine, Engine, EngineKind, ExecConfig, ProgramImage, SimEngine};

use crate::generate::{generate_module, GenConfig};
use crate::oracle::{sweep, CheckFailure, OracleStats, DEFAULT_THREADS};
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
    /// injection stage). Campaigns run on the deterministic simulator.
    pub injections: usize,
    /// Also run the oracle's real-engine legs: at every thread count the
    /// OS-thread engine, flat and at four monitor shards, must agree with
    /// the simulator on what does not depend on the schedule (outputs,
    /// outcome, no violations).
    pub real_cross_check: bool,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seeds: 100,
            start_seed: 0,
            threads: DEFAULT_THREADS.to_vec(),
            gen: GenConfig::default(),
            injections: 0,
            real_cross_check: false,
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

/// Runs the full pipeline for one module and applies the oracle.
///
/// Checks, in order: the textual round-trip (print → parse → structural
/// equality), preparation (verify + analyze + instrument + link), and the
/// oracle ([`crate::check_image`]) at every thread count.
///
/// # Errors
///
/// Returns the first failing stage, tagged with its class.
pub fn check_module(
    module: &Module,
    threads: &[u32],
    seed: u64,
) -> Result<OracleStats, CheckFailure> {
    check_prepared(module, threads, seed, false).map(|(stats, _)| stats)
}

/// [`check_module`], with the oracle's real-engine legs when `real_cross`
/// is set, also handing back the image the oracle ran, so that the
/// injection stage does not prepare the module a second time.
fn check_prepared(
    module: &Module,
    threads: &[u32],
    seed: u64,
    real_cross: bool,
) -> Result<(OracleStats, ProgramImage), CheckFailure> {
    let round_trip = |message| CheckFailure { class: "round-trip", message };
    match parse_module(&ModulePrinter(module).to_string()) {
        Ok(reparsed) if reparsed == *module => {}
        Ok(_) => return Err(round_trip("textual round-trip is not structurally identical".into())),
        Err(e) => return Err(round_trip(format!("printed module fails to re-parse: {e}"))),
    }
    // The one way preparing can fail is a verifier rejection.
    let image = ProgramImage::try_prepare(module.clone(), AnalysisConfig::default())
        .map_err(|e| CheckFailure { class: "prepare", message: e.to_string() })?;
    let real = engine(EngineKind::Real);
    let stats = sweep(&SimEngine, real, &image, threads, seed, real_cross)?;
    Ok((stats, image))
}

/// Runs a fuzzing session. `recorder` receives one `fuzz.seed` event per
/// seed (seed, status, failure class) plus each injection campaign's stage
/// spans and per-injection trace — the format `bw stats` reads back; pass
/// [`bw_telemetry::NULL_RECORDER`] for none. The report itself stays a pure
/// function of the configuration; only the trace carries wall-clock data.
pub fn run_fuzz(config: &FuzzConfig, recorder: &dyn Recorder) -> FuzzReport {
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
    for seed in config.start_seed..config.start_seed.saturating_add(config.seeds) {
        let module = generate_module(seed, &gen);
        report.seeds_run += 1;
        live_seeds.inc();
        match check_prepared(&module, &config.threads, seed, config.real_cross_check) {
            Ok((stats, image)) => {
                recorder.record(
                    "fuzz.seed",
                    &[("seed", Value::from(seed)), ("status", Value::from("ok"))],
                );
                report.stats.absorb(stats);
                if config.injections > 0 {
                    match inject(seed, &image, config, recorder) {
                        Ok(counts) => merge_counts(&mut report.injection_counts, &counts),
                        Err(failure) => report.failures.push(failure),
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
                // Only accept reductions that fail in the same class as the
                // original: without this, a "not transparent" repro can
                // drift into an unrelated deadlock while shrinking.
                let min = shrink(&module, |m| {
                    check_prepared(m, &config.threads, seed, config.real_cross_check)
                        .is_err_and(|f| f.class == failure.class)
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
    recorder.flush();
    report
}

/// Runs seed `seed`'s campaign on its oracle-passing `image`: one golden
/// run, then `config.injections` branch flips, all on the calling thread
/// (one worker spawns none). The oracle has already proven the fault-free
/// program completes cleanly at every swept thread count, so a campaign
/// that refuses it is itself an oracle-grade failure.
fn inject(
    seed: u64,
    image: &ProgramImage,
    config: &FuzzConfig,
    recorder: &dyn Recorder,
) -> Result<OutcomeCounts, FuzzFailure> {
    let nthreads = config.threads.iter().copied().max().unwrap_or(4);
    let sim = ExecConfig::new(nthreads).seed(seed).max_steps(2_000_000);
    let campaign = CampaignConfig::new(config.injections, FaultModel::BranchFlip, nthreads)
        .seed(seed)
        .workers(1)
        .sim(sim);
    let golden = SimEngine.run(image, &campaign.sim);
    match run_campaign_with_golden_recorded(image, &campaign, &golden, None, recorder) {
        Ok(result) => Ok(result.counts),
        Err(e) => Err(FuzzFailure {
            seed,
            message: format!("fault campaign refused a program the oracle passed: {e}"),
            minimized: ModulePrinter(&image.module).to_string(),
            minimized_insts: image.module.num_insts(),
        }),
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
    use bw_telemetry::NULL_RECORDER;

    fn small_config() -> FuzzConfig {
        FuzzConfig {
            seeds: 3,
            start_seed: 0,
            threads: vec![1, 2],
            gen: GenConfig { max_stmts: 10, ..GenConfig::default() },
            injections: 0,
            real_cross_check: false,
        }
    }

    #[test]
    fn small_session_passes_and_is_reproducible() {
        let cfg = small_config();
        let a = run_fuzz(&cfg, &NULL_RECORDER);
        assert!(a.ok(), "unexpected failures:\n{}", a.render());
        assert_eq!(a.seeds_run, 3);
        assert!(a.stats.runs > 0);
        let b = run_fuzz(&cfg, &NULL_RECORDER);
        assert_eq!(a, b);
    }

    #[test]
    fn injection_stage_accumulates_counts() {
        let mut cfg = small_config();
        cfg.seeds = 1;
        cfg.injections = 4;
        let r = run_fuzz(&cfg, &NULL_RECORDER);
        assert!(r.ok(), "unexpected failures:\n{}", r.render());
        let c = &r.injection_counts;
        assert_eq!(c.activated() + c.not_activated, 4);
    }

    #[test]
    fn real_cross_check_passes_on_clean_seeds() {
        let mut cfg = small_config();
        cfg.seeds = 2;
        cfg.real_cross_check = true;
        let r = run_fuzz(&cfg, &NULL_RECORDER);
        assert!(r.ok(), "unexpected failures:\n{}", r.render());
        // 2 seeds x 2 thread counts x 10 runs (monitored, repeat,
        // unmonitored, span-traced, shard sweep of 4, real, real sharded).
        assert_eq!(r.stats.runs, 2 * 2 * 10);
    }

    #[test]
    fn coverage_counts_are_reported() {
        let cfg = FuzzConfig { seeds: 10, ..small_config() };
        let r = run_fuzz(&cfg, &NULL_RECORDER);
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
