//! The end-to-end BLOCKWATCH pipeline: compile → analyze → instrument →
//! execute (with the monitor) — the paper's two-step implementation
//! (Section III) behind one facade.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use bw_analysis::{AnalysisConfig, CategoryHistogram, CheckPlan, ModuleAnalysis};
use bw_fault::{
    run_campaign_with_golden_recorded, CampaignConfig, CampaignError, CampaignProgress,
    CampaignResult, FaultModel,
};
use bw_ir::Module;
use bw_telemetry::{Histogram, Recorder, TelemetrySnapshot, NULL_RECORDER};
use bw_vm::{
    engine, Engine, EngineKind, ExecConfig, MonitorMode, PrepareTimings, ProgramImage, RunResult,
    SimEngine,
};

use crate::error::Error;

/// A compiled, analyzed and instrumented SPMD program.
///
/// # Examples
///
/// ```
/// use blockwatch::Blockwatch;
///
/// let bw = Blockwatch::compile(r#"
///     shared int n = 8;
///     @spmd func slave() {
///         var t: int = threadid();
///         if (t == 0) { output(n); }
///     }
/// "#)?;
/// let result = bw.run(4);
/// assert!(!result.detected());
/// # Ok::<(), blockwatch::Error>(())
/// ```
#[derive(Debug)]
pub struct Blockwatch {
    image: Arc<ProgramImage>,
    /// Golden (fault-free) runs on the simulator per configuration, so
    /// repeated campaigns on one image — different fault models, worker
    /// counts or seeds — profile the program only once per configuration.
    golden_cache: Mutex<HashMap<ExecConfig, Arc<RunResult>>>,
    /// Wall-clock time of the front-end (parse + lower) stage; zero when
    /// the program was built from an existing module.
    parse_us: u64,
    /// Wall-clock times of the preparation stages.
    prepare: PrepareTimings,
}

impl Blockwatch {
    /// Compiles mini-language source and prepares it with the default
    /// (paper) analysis configuration.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Frontend`] on syntax or semantic problems.
    pub fn compile(source: &str) -> Result<Self, Error> {
        let started = Instant::now();
        let module = bw_ir::frontend::compile(source)?;
        let parse_us = started.elapsed().as_micros() as u64;
        Self::build(module, parse_us)
    }

    /// Wraps an already-built module, prepared with the default (paper)
    /// analysis configuration. (The ablations, the one place another
    /// configuration is used, prepare a [`ProgramImage`] directly.)
    ///
    /// # Errors
    ///
    /// Returns [`Error::Verify`] when the module fails SSA verification.
    pub fn from_module(module: Module) -> Result<Self, Error> {
        Self::build(module, 0)
    }

    fn build(module: Module, parse_us: u64) -> Result<Self, Error> {
        let (image, prepare) =
            ProgramImage::try_prepare_timed(module, AnalysisConfig::default())?;
        Ok(Blockwatch {
            image: Arc::new(image),
            golden_cache: Mutex::new(HashMap::new()),
            parse_us,
            prepare,
        })
    }

    /// The prepared program image.
    pub fn image(&self) -> &ProgramImage {
        &self.image
    }

    /// The pipeline's own telemetry: deterministic counters describing the
    /// instrumented program plus one single-observation histogram per
    /// pipeline stage (parse / verify / analyze / instrument / link, in
    /// wall-clock microseconds). Merge a run's
    /// [`RunResult::telemetry`](bw_vm::RunResult) into this to get a full
    /// compile-to-execution picture.
    pub fn telemetry(&self) -> TelemetrySnapshot {
        let mut s = TelemetrySnapshot::new();
        s.push_counter("pipeline.branches", self.image.analysis.branches.len() as u64);
        s.push_counter(
            "pipeline.instrumented_checks",
            self.image.plan.num_instrumented() as u64,
        );
        for (name, us) in [
            ("pipeline.parse_us", self.parse_us),
            ("pipeline.verify_us", self.prepare.verify_us),
            ("pipeline.analyze_us", self.prepare.analyze_us),
            ("pipeline.instrument_us", self.prepare.instrument_us),
            ("pipeline.link_us", self.prepare.link_us),
        ] {
            let h = Histogram::new();
            h.observe(us);
            s.push_histogram(name, h.snapshot());
        }
        s
    }

    /// The static analysis results.
    pub fn analysis(&self) -> &ModuleAnalysis {
        &self.image.analysis
    }

    /// The instrumentation plan.
    pub fn plan(&self) -> &CheckPlan {
        &self.image.plan
    }

    /// Per-category branch counts of the parallel section (a Table V row).
    pub fn histogram(&self) -> CategoryHistogram {
        self.image.analysis.category_histogram()
    }

    /// Runs on the deterministic simulated machine with default settings.
    pub fn run(&self, nthreads: u32) -> RunResult {
        self.run_on(EngineKind::Sim, &ExecConfig::new(nthreads))
    }

    /// Runs on the selected [engine](bw_vm::Engine) with full control.
    pub fn run_on(&self, kind: EngineKind, config: &ExecConfig) -> RunResult {
        engine(kind).run(&self.image, config)
    }

    /// The golden (fault-free) run under `config` on the simulated engine,
    /// cached per configuration: campaigns that share a simulation
    /// configuration also share one profiling run.
    pub fn golden(&self, config: &ExecConfig) -> Arc<RunResult> {
        let mut cache = self.golden_cache.lock().unwrap_or_else(|e| e.into_inner());
        Arc::clone(
            cache
                .entry(config.clone())
                .or_insert_with(|| Arc::new(SimEngine.run(&self.image, config))),
        )
    }

    /// Starts a builder-style campaign on this program.
    ///
    /// # Examples
    ///
    /// ```
    /// use blockwatch::{Blockwatch, FaultModel};
    ///
    /// let bw = Blockwatch::compile(r#"
    ///     shared int n = 8;
    ///     @spmd func slave() {
    ///         for (var i: int = 0; i < n; i = i + 1) { output(i); }
    ///     }
    /// "#)?;
    /// let result = bw
    ///     .campaign_runner(50, FaultModel::BranchFlip, 4)
    ///     .seed(42)
    ///     .workers(2)
    ///     .run()?;
    /// assert_eq!(result.records.len(), 50);
    /// # Ok::<(), blockwatch::Error>(())
    /// ```
    pub fn campaign_runner(
        &self,
        injections: usize,
        model: FaultModel,
        nthreads: u32,
    ) -> CampaignRunner<'_> {
        CampaignRunner {
            bw: self,
            config: CampaignConfig::new(injections, model, nthreads),
            progress: None,
            recorder: None,
        }
    }
}

/// A builder for campaigns on one [`Blockwatch`] program: configure, attach
/// an optional progress callback, and [`run`](CampaignRunner::run). The
/// golden run is cached on the `Blockwatch`, so successive runners with the
/// same simulation configuration profile the program only once.
pub struct CampaignRunner<'a> {
    bw: &'a Blockwatch,
    config: CampaignConfig,
    progress: Option<Box<dyn Fn(CampaignProgress) + Sync + 'a>>,
    recorder: Option<&'a dyn Recorder>,
}

impl<'a> CampaignRunner<'a> {
    /// Sets the target-selection seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config = self.config.seed(seed);
        self
    }

    /// Sets the worker-thread count (`0` = available parallelism).
    pub fn workers(mut self, workers: usize) -> Self {
        self.config = self.config.workers(workers);
        self
    }

    /// Sets the monitor mode of both the golden and the faulty runs
    /// (`MonitorMode::Off` gives the paper's "original program" baseline).
    pub fn monitor(mut self, monitor: MonitorMode) -> Self {
        self.config.sim.monitor = monitor;
        self
    }

    /// Replaces the simulation configuration wholesale.
    pub fn sim(mut self, sim: ExecConfig) -> Self {
        self.config = self.config.sim(sim);
        self
    }

    /// Streams per-injection progress to `callback` (called from worker
    /// threads, in completion order).
    pub fn on_progress(mut self, callback: impl Fn(CampaignProgress) + Sync + 'a) -> Self {
        self.progress = Some(Box::new(callback));
        self
    }

    /// Traces the campaign's stage spans, injections and worker statistics
    /// to `recorder` (e.g. a [`bw_telemetry::JsonlRecorder`]).
    pub fn recorder(mut self, recorder: &'a dyn Recorder) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Runs the campaign.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Campaign`] when the campaign cannot run — e.g. the
    /// golden run does not complete, or zero threads are configured.
    pub fn run(self) -> Result<CampaignResult, Error> {
        let config = &self.config;
        if config.sim.nthreads == 0 {
            return Err(Error::Campaign(CampaignError::NoThreads));
        }
        let golden = self.bw.golden(&config.sim);
        run_campaign_with_golden_recorded(
            &self.bw.image,
            config,
            &golden,
            self.progress.as_deref(),
            self.recorder.unwrap_or(&NULL_RECORDER),
        )
        .map_err(Error::Campaign)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bw_vm::RunOutcome;

    #[test]
    fn pipeline_compiles_and_runs() {
        let bw = Blockwatch::compile(
            r#"
            shared int n = 4;
            @spmd func slave() {
                for (var i: int = 0; i < n; i = i + 1) { output(i); }
            }
            "#,
        )
        .unwrap();
        assert_eq!(bw.histogram().shared, 1);
        assert_eq!(bw.plan().num_instrumented(), 1);
        let result = bw.run(2);
        assert_eq!(result.outcome, RunOutcome::Completed);
        assert_eq!(result.outputs.len(), 8);
    }

    #[test]
    fn pipeline_rejects_bad_source() {
        assert!(Blockwatch::compile("@spmd func f() { nope; }").is_err());
    }

    #[test]
    fn golden_cache_is_shared_between_campaigns() {
        let bw = Blockwatch::compile(
            r#"
            shared int n = 4;
            @spmd func slave() {
                for (var i: int = 0; i < n; i = i + 1) { output(i); }
            }
            "#,
        )
        .unwrap();
        let sim = ExecConfig::new(2);
        let first = bw.golden(&sim);
        let second = bw.golden(&sim);
        assert!(Arc::ptr_eq(&first, &second), "same config must hit the cache");
        // A different configuration gets its own entry.
        let other = bw.golden(&ExecConfig::new(3));
        assert!(!Arc::ptr_eq(&first, &other));
    }

    #[test]
    fn zero_thread_campaign_is_an_error_not_a_panic() {
        let bw = Blockwatch::compile(
            r#"
            shared int n = 4;
            @spmd func slave() { output(n); }
            "#,
        )
        .unwrap();
        assert!(matches!(
            bw.campaign_runner(5, FaultModel::BranchFlip, 0).run(),
            Err(Error::Campaign(CampaignError::NoThreads))
        ));
    }

    #[test]
    fn runner_streams_progress() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let bw = Blockwatch::compile(
            r#"
            shared int n = 4;
            @spmd func slave() {
                for (var i: int = 0; i < n; i = i + 1) { output(i); }
            }
            "#,
        )
        .unwrap();
        let seen = AtomicUsize::new(0);
        let result = bw
            .campaign_runner(10, FaultModel::BranchFlip, 2)
            .workers(2)
            .on_progress(|p| {
                assert_eq!(p.total, 10);
                seen.fetch_add(1, Ordering::Relaxed);
            })
            .run()
            .unwrap();
        assert_eq!(result.records.len(), 10);
        assert_eq!(seen.load(Ordering::Relaxed), 10);
    }
}
