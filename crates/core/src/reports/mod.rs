//! Experiment harnesses regenerating the paper's tables and figures.
//!
//! Each function produces the structured rows/series behind one exhibit;
//! [`exhibits`] renders them as `bw table3` … `bw ablations` print them,
//! and the integration tests assert their *shape* against the paper (who
//! wins, by roughly what factor, where the crossovers fall — absolute
//! numbers come from a cost-model simulator, not the authors' 32-core
//! testbed).

use bw_analysis::ModuleAnalysis;
use bw_fault::{FaultModel, OutcomeCounts};
use bw_splash::{Benchmark, Size};
use bw_vm::{
    Engine, ExecConfig, ExecMode, MachineModel, MonitorMode, ProgramImage, RunOutcome, SimEngine,
};

/// Where `tests/telemetry_determinism.rs` has imported it from since it
/// lived in this module; it is [`crate::trace::ForensicsReport`].
pub use crate::trace::ForensicsReport;
use crate::{Blockwatch, Error};

pub mod exhibits;

/// A row of Table IV: benchmark characteristics.
#[derive(Clone, Debug)]
pub struct CharacteristicsRow {
    /// Benchmark name (paper's spelling).
    pub name: String,
    /// Source lines of the port (mini language).
    pub source_lines: usize,
    /// IR instructions in the whole module.
    pub instructions: usize,
    /// IR instructions in the parallel section.
    pub parallel_instructions: usize,
    /// Total conditional branches.
    pub branches: usize,
    /// Branches in the parallel section.
    pub parallel_branches: usize,
}

/// Regenerates Table IV (characteristics of the benchmark programs) from
/// the ports at `size`.
pub fn table4(size: Size) -> Vec<CharacteristicsRow> {
    Benchmark::ALL
        .iter()
        .map(|&bench| {
            let src = bench.source(size);
            let module = bench.module(size).expect("port compiles");
            let analysis = ModuleAnalysis::run(&module);
            let parallel_instructions = module
                .iter_funcs()
                .filter(|(fid, _)| analysis.parallel_funcs[fid.index()])
                .map(|(_, f)| f.num_insts())
                .sum();
            CharacteristicsRow {
                name: bench.name().to_string(),
                source_lines: src.lines().filter(|l| !l.trim().is_empty()).count(),
                instructions: module.num_insts(),
                parallel_instructions,
                branches: module.num_branches(),
                parallel_branches: analysis.parallel_branches().count(),
            }
        })
        .collect()
}

/// A row of Table V: similarity-category statistics.
#[derive(Clone, Debug)]
pub struct SimilarityRow {
    /// Benchmark name.
    pub name: String,
    /// Total parallel-section branches.
    pub total: usize,
    /// `shared` count.
    pub shared: usize,
    /// `threadID` count.
    pub thread_id: usize,
    /// `partial` count.
    pub partial: usize,
    /// `none` count.
    pub none: usize,
}

impl SimilarityRow {
    /// Fraction of branches statically identified as similar.
    pub fn similar_fraction(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        (self.shared + self.thread_id + self.partial) as f64 / self.total as f64
    }
}

/// Regenerates Table V (similarity-category statistics of the branches).
pub fn table5(size: Size) -> Vec<SimilarityRow> {
    Benchmark::ALL
        .iter()
        .map(|&bench| {
            let module = bench.module(size).expect("port compiles");
            let h = ModuleAnalysis::run(&module).category_histogram();
            SimilarityRow {
                name: bench.name().to_string(),
                total: h.total(),
                shared: h.shared,
                thread_id: h.thread_id,
                partial: h.partial,
                none: h.none,
            }
        })
        .collect()
}

/// One point of the Figure 6/7 performance series.
#[derive(Clone, Copy, Debug)]
pub struct OverheadPoint {
    /// Thread count.
    pub nthreads: u32,
    /// Parallel-section cycles without BLOCKWATCH.
    pub baseline_cycles: u64,
    /// Parallel-section cycles with BLOCKWATCH.
    pub protected_cycles: u64,
}

impl OverheadPoint {
    /// Normalized execution time (the paper's y-axis; 1.0 = baseline).
    pub fn ratio(&self) -> f64 {
        self.protected_cycles as f64 / self.baseline_cycles.max(1) as f64
    }
}

/// Measures one benchmark's overhead at one thread count.
///
/// Instrumented runs use `SendOnly` at the machine's full width (the
/// paper's methodology: the monitor thread is disabled when all cores are
/// occupied, but the sends still happen) and the full monitor otherwise;
/// the simulated cost is identical because monitor processing is not
/// charged to application threads.
pub fn overhead_point(image: &ProgramImage, nthreads: u32) -> OverheadPoint {
    let mut baseline = ExecConfig::new(nthreads);
    baseline.monitor = MonitorMode::Off;
    let base = SimEngine.run(image, &baseline);
    assert_eq!(base.outcome, RunOutcome::Completed, "baseline must complete");

    let mut protected = ExecConfig::new(nthreads);
    protected.monitor = if nthreads >= MachineModel::opteron_6128().cores() {
        MonitorMode::SendOnly
    } else {
        MonitorMode::Enabled
    };
    let prot = SimEngine.run(image, &protected);
    assert_eq!(prot.outcome, RunOutcome::Completed, "protected must complete");
    assert!(!prot.detected(), "no false positives in performance runs");

    OverheadPoint {
        nthreads,
        baseline_cycles: base.parallel_cycles,
        protected_cycles: prot.parallel_cycles,
    }
}

/// A benchmark's overhead across thread counts (one Figure 6/7 series).
#[derive(Clone, Debug)]
pub struct OverheadSeries {
    /// Benchmark name.
    pub name: String,
    /// One point per requested thread count.
    pub points: Vec<OverheadPoint>,
}

/// Regenerates the Figure 6/7 measurements: per-benchmark normalized
/// execution times at each thread count in `threads`.
pub fn overhead_series(size: Size, threads: &[u32]) -> Vec<OverheadSeries> {
    Benchmark::ALL
        .iter()
        .map(|&bench| {
            let image =
                ProgramImage::prepare_default(bench.module(size).expect("port compiles"));
            let points = threads.iter().map(|&n| overhead_point(&image, n)).collect();
            OverheadSeries { name: bench.name().to_string(), points }
        })
        .collect()
}

/// Geometric mean of the overhead ratios at one thread count across all
/// series (the paper's Figure 7 y-axis).
pub fn geomean_at(series: &[OverheadSeries], nthreads: u32) -> f64 {
    let ratios: Vec<f64> = series
        .iter()
        .filter_map(|s| s.points.iter().find(|p| p.nthreads == nthreads).map(OverheadPoint::ratio))
        .collect();
    geomean(&ratios)
}

/// Geometric mean.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// One bar pair of Figures 8/9: coverage with and without BLOCKWATCH.
#[derive(Clone, Debug)]
pub struct CoverageRow {
    /// Benchmark name.
    pub name: String,
    /// Thread count of the campaign.
    pub nthreads: u32,
    /// Fault model.
    pub model: FaultModel,
    /// Outcome counts without BLOCKWATCH.
    pub original: OutcomeCounts,
    /// Outcome counts with BLOCKWATCH.
    pub protected: OutcomeCounts,
}

impl CoverageRow {
    /// `coverage_original` (the light bar).
    pub fn coverage_original(&self) -> f64 {
        self.original.coverage()
    }

    /// `coverage_BLOCKWATCH` (the full bar).
    pub fn coverage_protected(&self) -> f64 {
        self.protected.coverage()
    }
}

/// Runs the paired (with/without BLOCKWATCH) fault-injection campaigns for
/// one benchmark — one bar pair of Figure 8 (`BranchFlip`) or Figure 9
/// (`ConditionBitFlip`). The same seed drives both campaigns, so the
/// injection targets are identical.
///
/// Prepares a fresh image per call; use [`coverage_row_on`] to amortize
/// one prepared program (and its cached golden runs) across thread counts
/// and fault models.
pub fn coverage_row(
    bench: Benchmark,
    size: Size,
    model: FaultModel,
    nthreads: u32,
    injections: usize,
    seed: u64,
) -> Result<CoverageRow, Error> {
    let bw = Blockwatch::from_module(bench.module(size)?)?;
    coverage_row_on(&bw, bench.name(), model, nthreads, injections, seed, 0)
}

/// [`coverage_row`] on an already-prepared program: the 4- and 32-thread
/// campaigns of Figures 8/9 (and both fault models) reuse one image, and
/// golden runs are cached per simulation configuration on `bw`. Campaign
/// experiments run on `workers` threads (`0` = available parallelism);
/// results are identical for any worker count.
#[allow(clippy::too_many_arguments)]
pub fn coverage_row_on(
    bw: &Blockwatch,
    name: &str,
    model: FaultModel,
    nthreads: u32,
    injections: usize,
    seed: u64,
    workers: usize,
) -> Result<CoverageRow, Error> {
    let runner = || bw.campaign_runner(injections, model, nthreads).seed(seed).workers(workers);
    let protected = runner().run()?;
    let original = runner().monitor(MonitorMode::Off).run()?;

    Ok(CoverageRow {
        name: name.to_string(),
        nthreads,
        model,
        original: original.counts,
        protected: protected.counts,
    })
}

/// One point of the Section VI duplication comparison.
#[derive(Clone, Copy, Debug)]
pub struct DuplicationPoint {
    /// Thread count.
    pub nthreads: u32,
    /// BLOCKWATCH overhead ratio.
    pub blockwatch: f64,
    /// Software-duplication overhead ratio.
    pub duplication: f64,
}

/// Compares BLOCKWATCH and software duplication (DMR) overheads across
/// thread counts for one benchmark (Section VI).
pub fn duplication_comparison(
    bench: Benchmark,
    size: Size,
    threads: &[u32],
) -> Vec<DuplicationPoint> {
    let image = ProgramImage::prepare_default(bench.module(size).expect("port compiles"));
    threads
        .iter()
        .map(|&n| {
            let bw = overhead_point(&image, n);

            let mut base = ExecConfig::new(n);
            base.monitor = MonitorMode::Off;
            let baseline = SimEngine.run(&image, &base);

            let mut dup = base.clone();
            dup.exec = ExecMode::Duplicated;
            let duplicated = SimEngine.run(&image, &dup);

            DuplicationPoint {
                nthreads: n,
                blockwatch: bw.ratio(),
                duplication: duplicated.parallel_cycles as f64
                    / baseline.parallel_cycles.max(1) as f64,
            }
        })
        .collect()
}

/// Runs the paper's false-positive experiment: `runs` fault-free runs per
/// benchmark, expecting zero violations. Returns per-benchmark FP counts.
pub fn false_positive_sweep(size: Size, nthreads: u32, runs: usize) -> Vec<(String, usize)> {
    Benchmark::ALL
        .iter()
        .map(|&bench| {
            let image =
                ProgramImage::prepare_default(bench.module(size).expect("port compiles"));
            let fps = bw_fault::false_positive_runs(&image, &ExecConfig::new(nthreads), runs);
            (bench.name().to_string(), fps)
        })
        .collect()
}

#[cfg(test)]
mod tests;
