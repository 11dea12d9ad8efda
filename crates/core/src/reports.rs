//! Experiment harnesses regenerating the paper's tables and figures.
//!
//! Each function produces the structured rows/series behind one exhibit;
//! the `bw-bench` binaries print them, and the integration tests assert
//! their *shape* against the paper (who wins, by roughly what factor,
//! where the crossovers fall — absolute numbers come from a cost-model
//! simulator, not the authors' 32-core testbed).

use std::fmt::Write as _;

use bw_analysis::ModuleAnalysis;
use bw_fault::{FaultModel, OutcomeCounts};
use bw_splash::{Benchmark, Size};
use bw_telemetry::{write_json_object, HistogramSnapshot, TelemetrySnapshot, Value};
use bw_vm::{
    Engine, ExecConfig, ExecMode, MachineModel, MonitorMode, ProgramImage, RunOutcome, SimEngine,
};

use crate::records::records;
use crate::{Blockwatch, Error};

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

/// Renders a [`TelemetrySnapshot`] as a human-readable summary table:
/// counters, gauges, then histogram aggregates (count / mean / max).
pub fn render_telemetry(snapshot: &TelemetrySnapshot) -> String {
    let mut out = String::new();
    let width = snapshot
        .counters()
        .iter()
        .map(|(n, _)| n.len())
        .chain(snapshot.gauges().iter().map(|(n, _)| n.len()))
        .chain(snapshot.histograms().iter().map(|(n, _)| n.len()))
        .max()
        .unwrap_or(0);
    if !snapshot.counters().is_empty() {
        out.push_str("counters:\n");
        for (name, value) in snapshot.counters() {
            let _ = writeln!(out, "  {name:<width$}  {value}");
        }
    }
    if !snapshot.gauges().is_empty() {
        out.push_str("gauges (high-water marks):\n");
        for (name, value) in snapshot.gauges() {
            let _ = writeln!(out, "  {name:<width$}  {value}");
        }
    }
    if !snapshot.histograms().is_empty() {
        out.push_str("histograms (wall-clock, nondeterministic):\n");
        for (name, h) in snapshot.histograms() {
            let _ = writeln!(
                out,
                "  {name:<width$}  count {}  mean {:.1}  p50 {:.0}  p90 {:.0}  p99 {:.0}  max {}",
                h.count,
                h.mean(),
                h.p50(),
                h.p90(),
                h.p99(),
                h.max
            );
        }
    }
    if out.is_empty() {
        out.push_str("(no telemetry recorded)\n");
    }
    out
}

/// Aggregate duration statistics (microseconds).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DurStat {
    /// Observations.
    pub count: u64,
    /// Sum of all durations.
    pub total_us: u64,
    /// Largest single duration.
    pub max_us: u64,
}

impl DurStat {
    fn observe(&mut self, us: u64) {
        self.count += 1;
        self.total_us += us;
        self.max_us = self.max_us.max(us);
    }

    /// Mean duration in microseconds.
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.total_us as f64 / self.count as f64
    }
}

/// Aggregated timings of one span name across a trace.
#[derive(Clone, Debug, Default)]
pub struct SpanStat {
    /// Span name.
    pub name: String,
    /// Duration aggregate.
    pub dur: DurStat,
}

/// One worker's statistics reconstructed from a trace's `worker` records.
#[derive(Clone, Copy, Debug, Default)]
pub struct TraceWorker {
    /// Worker index.
    pub worker: u64,
    /// Injections the worker executed.
    pub injections: u64,
    /// Worker wall-clock microseconds.
    pub wall_us: u64,
    /// Microseconds inside injection runs.
    pub busy_us: u64,
    /// Interpreter steps the worker executed (`0` in a trace written
    /// before the field existed).
    pub steps_run: u64,
    /// Steps its injections inherited from a shared fault-free prefix
    /// instead of executing them (likewise).
    pub steps_skipped: u64,
}

impl TraceWorker {
    /// The share of a full replay of every injection that forking from a
    /// prefix spared this worker.
    pub fn skipped_share(&self) -> f64 {
        self.steps_skipped as f64 / (self.steps_run + self.steps_skipped).max(1) as f64
    }

    /// Injections per second over the worker's wall time.
    pub fn throughput(&self) -> f64 {
        if self.wall_us == 0 {
            return 0.0;
        }
        self.injections as f64 * 1e6 / self.wall_us as f64
    }
}

/// Histogram aggregate reconstructed from a trace's `histogram` records.
#[derive(Clone, Debug, Default)]
pub struct TraceHistogram {
    /// Metric name.
    pub name: String,
    /// Observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Largest observed value.
    pub max: u64,
    /// Sparse power-of-two buckets as `(inclusive upper bound, count)`,
    /// merged across records. Empty for traces written before the
    /// `buckets` field existed; quantiles are unavailable then.
    pub buckets: Vec<(u64, u64)>,
}

impl TraceHistogram {
    /// The aggregate as a [`HistogramSnapshot`], for quantile estimation.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count,
            sum: self.sum,
            max: self.max,
            buckets: self.buckets.clone(),
        }
    }
}

/// An aggregated view of a JSONL telemetry trace — what `bw stats` prints.
///
/// The trace is the output of a [`bw_telemetry::JsonlRecorder`]: one flat
/// JSON object per line, each with an `ev` field naming the record type.
/// Counter records accumulate, gauges keep their maximum, spans and
/// injections aggregate durations per name.
#[derive(Clone, Debug, Default)]
pub struct TraceSummary {
    /// Total records parsed.
    pub records: u64,
    /// Record counts per `ev` type, sorted by name.
    pub events: Vec<(String, u64)>,
    /// Span timings per span name, sorted by name.
    pub spans: Vec<SpanStat>,
    /// Final counter values, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Final gauge values (maxima), sorted by name.
    pub gauges: Vec<(String, u64)>,
    /// Histogram aggregates, sorted by name.
    pub histograms: Vec<TraceHistogram>,
    /// Injection counts per outcome name, sorted by name.
    pub injections: Vec<(String, u64)>,
    /// Injection duration aggregate.
    pub injection_us: DurStat,
    /// Per-worker statistics, sorted by worker index.
    pub workers: Vec<TraceWorker>,
}

fn bump(list: &mut Vec<(String, u64)>, name: &str, value: u64, accumulate: bool) {
    match list.iter_mut().find(|(n, _)| n == name) {
        Some((_, v)) if accumulate => *v += value,
        Some((_, v)) => *v = (*v).max(value),
        None => list.push((name.to_string(), value)),
    }
}

impl TraceSummary {
    /// Parses a JSONL trace. Blank lines are skipped; a malformed line
    /// fails the whole parse with its line number.
    pub fn parse(text: &str) -> Result<TraceSummary, String> {
        let mut summary = TraceSummary::default();
        for rec in records(text) {
            let rec = rec?;
            let ev = rec.ev();
            summary.records += 1;
            bump(&mut summary.events, ev, 1, true);
            match ev {
                "span" => {
                    let name = rec.field_str("name").unwrap_or("?");
                    let dur = rec.field_u64("dur_us");
                    match summary.spans.iter_mut().find(|s| s.name == name) {
                        Some(s) => s.dur.observe(dur),
                        None => {
                            let mut s = SpanStat { name: name.to_string(), dur: DurStat::default() };
                            s.dur.observe(dur);
                            summary.spans.push(s);
                        }
                    }
                }
                "counter" | "gauge" => {
                    let name = rec.field_str("name").unwrap_or("?");
                    let value = rec.field_u64("value");
                    if ev == "counter" {
                        bump(&mut summary.counters, name, value, true);
                    } else {
                        bump(&mut summary.gauges, name, value, false);
                    }
                }
                "histogram" => {
                    let name = rec.field_str("name").unwrap_or("?");
                    let (count, sum, max) = (
                        rec.field_u64("count"),
                        rec.field_u64("sum"),
                        rec.field_u64("max"),
                    );
                    // Optional: pre-`buckets` traces still parse, they just
                    // can't answer quantile queries.
                    let buckets = rec
                        .field_str("buckets")
                        .map(HistogramSnapshot::decode_buckets)
                        .unwrap_or_default();
                    match summary.histograms.iter_mut().find(|h| h.name == name) {
                        Some(h) => {
                            h.count += count;
                            h.sum += sum;
                            h.max = h.max.max(max);
                            for (bound, n) in buckets {
                                match h.buckets.iter_mut().find(|(b, _)| *b == bound) {
                                    Some((_, c)) => *c += n,
                                    None => h.buckets.push((bound, n)),
                                }
                            }
                            h.buckets.sort_by_key(|&(b, _)| b);
                        }
                        None => summary.histograms.push(TraceHistogram {
                            name: name.to_string(),
                            count,
                            sum,
                            max,
                            buckets,
                        }),
                    }
                }
                "injection" => {
                    let outcome = rec.field_str("outcome").unwrap_or("?");
                    bump(&mut summary.injections, outcome, 1, true);
                    summary.injection_us.observe(rec.field_u64("dur_us"));
                }
                "worker" => summary.workers.push(TraceWorker {
                    worker: rec.field_u64("worker"),
                    injections: rec.field_u64("injections"),
                    wall_us: rec.field_u64("wall_us"),
                    busy_us: rec.field_u64("busy_us"),
                    steps_run: rec.field_u64("steps_run"),
                    steps_skipped: rec.field_u64("steps_skipped"),
                }),
                _ => {}
            }
        }
        summary.events.sort();
        summary.spans.sort_by(|a, b| a.name.cmp(&b.name));
        summary.counters.sort();
        summary.gauges.sort();
        summary.histograms.sort_by(|a, b| a.name.cmp(&b.name));
        summary.injections.sort();
        summary.workers.sort_by_key(|w| w.worker);
        Ok(summary)
    }

    /// Renders the summary as the human-readable `bw stats` report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{} records", self.records);
        if !self.events.is_empty() {
            out.push_str("events:");
            for (name, count) in &self.events {
                let _ = write!(out, "  {name}={count}");
            }
            out.push('\n');
        }
        let mut snapshot = TelemetrySnapshot::new();
        for (name, value) in &self.counters {
            snapshot.push_counter(name.as_str(), *value);
        }
        for (name, value) in &self.gauges {
            snapshot.push_gauge(name.as_str(), *value);
        }
        out.push_str(&render_telemetry(&snapshot));
        // Monitor health, surfaced from the generic tables: dropped events
        // mean the verdicts are incomplete, and the pending high-water shows
        // how deep the correlation table ran.
        let dropped =
            self.counters.iter().find(|(n, _)| n == "monitor.events_dropped").map(|&(_, v)| v);
        let pending = self
            .gauges
            .iter()
            .find(|(n, _)| n == "monitor.pending_high_water")
            .map(|&(_, v)| v);
        if dropped.is_some() || pending.is_some() {
            out.push_str("monitor health:\n");
            match dropped {
                Some(d) if d > 0 => {
                    let _ = writeln!(
                        out,
                        "  events dropped: {d}  (queue overflow; verdicts may be incomplete)"
                    );
                }
                Some(_) => out.push_str("  events dropped: 0\n"),
                None => {}
            }
            if let Some(p) = pending {
                let _ = writeln!(out, "  pending-table high water: {p} instance(s)");
            }
        }
        // Per-shard ingest health (only present when the monitor ran
        // sharded): each shard's share of the event stream, its drops and
        // its queue high-water mark — an uneven split or a hot shard shows
        // up here. Campaign traces carry these under the `golden.` prefix,
        // `bw run` traces carry them bare; match the `monitor.shard.<i>.`
        // segment wherever it sits, summing counters and maxing gauges.
        let mut shards: std::collections::BTreeMap<u64, (u64, u64, u64)> =
            std::collections::BTreeMap::new();
        for (name, value) in self.counters.iter().chain(self.gauges.iter()) {
            let Some(rest) = name.split("monitor.shard.").nth(1) else { continue };
            let mut parts = rest.splitn(2, '.');
            let Some(id) = parts.next().and_then(|s| s.parse::<u64>().ok()) else { continue };
            let row = shards.entry(id).or_default();
            match parts.next() {
                Some("events_processed") => row.0 += value,
                Some("events_dropped") => row.1 += value,
                Some("queue_high_water") => row.2 = row.2.max(*value),
                _ => {}
            }
        }
        if !shards.is_empty() {
            out.push_str("monitor shards:\n");
            for (s, (processed, dropped, high_water)) in shards {
                let _ = writeln!(
                    out,
                    "  shard {s:<3} processed {processed}  dropped {dropped}  \
                     queue high water {high_water}"
                );
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("histogram aggregates:\n");
            for h in &self.histograms {
                let mean = if h.count == 0 { 0.0 } else { h.sum as f64 / h.count as f64 };
                if h.buckets.is_empty() {
                    let _ = writeln!(
                        out,
                        "  {:<28}  count {}  mean {mean:.1}  max {}",
                        h.name, h.count, h.max
                    );
                } else {
                    let snap = h.snapshot();
                    let _ = writeln!(
                        out,
                        "  {:<28}  count {}  mean {mean:.1}  p50 {:.0}  p90 {:.0}  p99 {:.0}  max {}",
                        h.name,
                        h.count,
                        snap.p50(),
                        snap.p90(),
                        snap.p99(),
                        h.max
                    );
                }
            }
        }
        if !self.spans.is_empty() {
            out.push_str("spans:\n");
            for s in &self.spans {
                let _ = writeln!(
                    out,
                    "  {:<28}  count {}  total {} us  mean {:.1} us  max {} us",
                    s.name, s.dur.count, s.dur.total_us, s.dur.mean_us(), s.dur.max_us
                );
            }
        }
        if !self.injections.is_empty() {
            out.push_str("injections:");
            for (outcome, count) in &self.injections {
                let _ = write!(out, "  {outcome}={count}");
            }
            let _ = writeln!(
                out,
                "\n  duration: mean {:.1} us, max {} us over {} runs",
                self.injection_us.mean_us(),
                self.injection_us.max_us,
                self.injection_us.count
            );
        }
        if !self.workers.is_empty() {
            out.push_str("workers:\n");
            for w in &self.workers {
                let _ = writeln!(
                    out,
                    "  worker {:<3}  {} injections  wall {} us  busy {} us  {:.1} inj/s  \
                     steps {} run, {} skipped ({:.1}%)",
                    w.worker,
                    w.injections,
                    w.wall_us,
                    w.busy_us,
                    w.throughput(),
                    w.steps_run,
                    w.steps_skipped,
                    100.0 * w.skipped_share()
                );
            }
        }
        out
    }

    /// Renders the summary as one flat JSON object with dotted keys
    /// (`counter.<name>`, `hist.<name>.p99`, …), round-trippable by
    /// [`bw_telemetry::parse_flat_object`]. What `bw stats --format json`
    /// prints.
    pub fn to_json(&self) -> String {
        let mut fields: Vec<(String, Value)> = vec![("records".into(), Value::from(self.records))];
        for (name, count) in &self.events {
            fields.push((format!("events.{name}"), Value::from(*count)));
        }
        for (name, value) in &self.counters {
            fields.push((format!("counter.{name}"), Value::from(*value)));
        }
        for (name, value) in &self.gauges {
            fields.push((format!("gauge.{name}"), Value::from(*value)));
        }
        for h in &self.histograms {
            fields.push((format!("hist.{}.count", h.name), Value::from(h.count)));
            fields.push((format!("hist.{}.sum", h.name), Value::from(h.sum)));
            fields.push((format!("hist.{}.max", h.name), Value::from(h.max)));
            if !h.buckets.is_empty() {
                let snap = h.snapshot();
                fields.push((format!("hist.{}.p50", h.name), Value::from(snap.p50())));
                fields.push((format!("hist.{}.p90", h.name), Value::from(snap.p90())));
                fields.push((format!("hist.{}.p99", h.name), Value::from(snap.p99())));
            }
        }
        for s in &self.spans {
            fields.push((format!("span.{}.count", s.name), Value::from(s.dur.count)));
            fields.push((format!("span.{}.total_us", s.name), Value::from(s.dur.total_us)));
            fields.push((format!("span.{}.max_us", s.name), Value::from(s.dur.max_us)));
        }
        for (outcome, count) in &self.injections {
            fields.push((format!("injection.{outcome}"), Value::from(*count)));
        }
        if self.injection_us.count > 0 {
            fields.push(("injection_us.count".into(), Value::from(self.injection_us.count)));
            fields.push(("injection_us.total".into(), Value::from(self.injection_us.total_us)));
            fields.push(("injection_us.max".into(), Value::from(self.injection_us.max_us)));
        }
        for w in &self.workers {
            fields.push((format!("worker.{}.injections", w.worker), Value::from(w.injections)));
            fields.push((format!("worker.{}.wall_us", w.worker), Value::from(w.wall_us)));
            fields.push((format!("worker.{}.busy_us", w.worker), Value::from(w.busy_us)));
            fields.push((format!("worker.{}.steps_run", w.worker), Value::from(w.steps_run)));
            fields.push((
                format!("worker.{}.steps_skipped", w.worker),
                Value::from(w.steps_skipped),
            ));
        }
        let refs: Vec<(&str, Value)> =
            fields.iter().map(|(k, v)| (k.as_str(), v.clone())).collect();
        let mut out = String::new();
        write_json_object(&mut out, &refs);
        out.push('\n');
        out
    }
}

/// One `sample` record of a trace: a timestamped delta snapshot emitted
/// by the background [`bw_telemetry::Sampler`].
#[derive(Clone, Debug, Default)]
pub struct SampleTick {
    /// 1-based sample index.
    pub tick: u64,
    /// Wall-clock microseconds covered by this tick.
    pub dt_us: u64,
    /// True when the sampler flagged the interval (nonzero
    /// `events_dropped` delta).
    pub warn: bool,
    /// Counter *deltas* and absolute gauge values, in record order.
    pub values: Vec<(String, u64)>,
}

impl SampleTick {
    /// The named value in this tick, if present.
    pub fn value(&self, name: &str) -> Option<u64> {
        self.values.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// A counter delta as a per-second rate over this tick's interval.
    pub fn rate(&self, name: &str) -> f64 {
        if self.dt_us == 0 {
            return 0.0;
        }
        self.value(name).unwrap_or(0) as f64 * 1e6 / self.dt_us as f64
    }
}

/// The time-series view of a JSONL trace — what `bw top` and
/// `bw stats --series` print.
///
/// Reconstructed purely from the trace's `sample` records (wall-clock
/// material the deterministic views ignore): per-tick engine throughput,
/// campaign progress with an ETA extrapolated from the cumulative rate,
/// and per-shard monitor queue depth.
#[derive(Clone, Debug, Default)]
pub struct SeriesReport {
    /// Sample ticks in trace order.
    pub ticks: Vec<SampleTick>,
}

impl SeriesReport {
    /// Parses a JSONL trace, keeping the `sample` records. Blank lines are
    /// skipped; a malformed line fails the whole parse with its number.
    pub fn parse(text: &str) -> Result<SeriesReport, String> {
        let mut report = SeriesReport::default();
        for rec in records(text) {
            let rec = rec?;
            if rec.ev() != "sample" {
                continue;
            }
            let mut tick = SampleTick {
                tick: rec.field_u64("tick"),
                dt_us: rec.field_u64("dt_us"),
                warn: rec.field("warn").is_some(),
                values: Vec::new(),
            };
            for (name, value) in &rec.fields {
                if matches!(name.as_str(), "seq" | "t_us" | "ev" | "tick" | "dt_us" | "warn") {
                    continue;
                }
                if let Some(v) = value.as_u64() {
                    tick.values.push((name.clone(), v));
                }
            }
            report.ticks.push(tick);
        }
        Ok(report)
    }

    /// Shard ids with a `live.monitor.shard.<i>.queue_depth` gauge
    /// anywhere in the series, sorted.
    pub fn shard_ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = Vec::new();
        for tick in &self.ticks {
            for (name, _) in &tick.values {
                let Some(rest) = name.strip_prefix("live.monitor.shard.") else { continue };
                let Some(id) = rest.strip_suffix(".queue_depth") else { continue };
                if let Ok(id) = id.parse::<u64>() {
                    if !ids.contains(&id) {
                        ids.push(id);
                    }
                }
            }
        }
        ids.sort_unstable();
        ids
    }

    /// Renders the series as a per-tick table with a totals footer.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.ticks.is_empty() {
            out.push_str(
                "(no sample records in trace — run with --sample-interval-ms to collect them)\n",
            );
            return out;
        }
        let total_us: u64 = self.ticks.iter().map(|t| t.dt_us).sum();
        let _ = writeln!(
            out,
            "samples: {} tick(s) over {:.2} s",
            self.ticks.len(),
            total_us as f64 / 1e6
        );
        let shards = self.shard_ids();
        let has_campaign = self
            .ticks
            .iter()
            .any(|t| t.values.iter().any(|(n, _)| n.starts_with("live.campaign.")));
        let _ = write!(out, "{:>5}  {:>8}  {:>10}", "tick", "dt_ms", "events/s");
        if has_campaign {
            let _ = write!(out, "  {:>7}  {:>15}  {:>7}", "inj/s", "progress", "eta_s");
        }
        for id in &shards {
            let _ = write!(out, "  {:>5}", format!("q{id}"));
        }
        out.push_str("  warn\n");
        let (mut planned, mut completed, mut detected) = (0u64, 0u64, 0u64);
        let (mut elapsed_us, mut events_total) = (0u64, 0u64);
        let mut warned = 0u64;
        for tick in &self.ticks {
            elapsed_us += tick.dt_us;
            let events = tick.value("live.engine.events_processed").unwrap_or(0);
            events_total += events;
            let _ = write!(
                out,
                "{:>5}  {:>8.1}  {:>10.0}",
                tick.tick,
                tick.dt_us as f64 / 1e3,
                tick.rate("live.engine.events_processed")
            );
            if has_campaign {
                planned += tick.value("live.campaign.planned").unwrap_or(0);
                completed += tick.value("live.campaign.completed").unwrap_or(0);
                detected += tick.value("live.campaign.detected").unwrap_or(0);
                let progress = if planned > 0 {
                    format!("{completed}/{planned} {:.0}%", completed as f64 * 100.0 / planned as f64)
                } else {
                    "-".to_string()
                };
                // ETA extrapolates the cumulative rate so far; unknowable
                // before the first completion or once the plan is done.
                let eta = if completed > 0 && planned > completed {
                    let remaining = (planned - completed) as f64;
                    format!("{:.1}", remaining * elapsed_us as f64 / completed as f64 / 1e6)
                } else {
                    "-".to_string()
                };
                let _ = write!(
                    out,
                    "  {:>7.1}  {progress:>15}  {eta:>7}",
                    tick.rate("live.campaign.completed")
                );
            }
            for id in &shards {
                let depth = tick
                    .value(&format!("live.monitor.shard.{id}.queue_depth"))
                    .unwrap_or(0);
                let _ = write!(out, "  {depth:>5}");
            }
            if tick.warn {
                warned += 1;
                out.push_str("  !");
            }
            out.push('\n');
        }
        let _ = write!(
            out,
            "totals: {events_total} events ({:.0}/s avg)",
            if elapsed_us == 0 { 0.0 } else { events_total as f64 * 1e6 / elapsed_us as f64 }
        );
        if has_campaign {
            let _ = write!(
                out,
                "; {completed}/{planned} injections ({:.1}/s avg), {detected} detected",
                if elapsed_us == 0 { 0.0 } else { completed as f64 * 1e6 / elapsed_us as f64 }
            );
        }
        if warned > 0 {
            let _ = write!(out, "; {warned} tick(s) saw dropped events");
        }
        out.push('\n');
        out
    }
}

/// One `injection` record of a trace, as the forensics view needs it.
#[derive(Clone, Debug, Default)]
pub struct TraceInjection {
    /// Batch image index (`0` for single-image campaigns).
    pub image: u64,
    /// Injection index within its campaign.
    pub index: u64,
    /// Outcome name (`detected`, `sdc`, …).
    pub outcome: String,
    /// Static branch hit, if the fault activated.
    pub branch: Option<u64>,
    /// Similarity category of that branch (`shared` / `threadID` /
    /// `partial`), or `-` when missed or uninstrumented.
    pub category: String,
}

/// One `violation` record of a trace: the flat-JSONL encoding of a
/// [`bw_monitor::ViolationReport`].
#[derive(Clone, Debug, Default)]
pub struct TraceViolation {
    /// Batch image index (`0` for single-image campaigns).
    pub image: u64,
    /// Injection index the violation was detected under.
    pub index: u64,
    /// Offending branch.
    pub branch: u64,
    /// Call-site path hash.
    pub site: u64,
    /// Loop-iteration hash.
    pub iter: u64,
    /// Violation-kind name (`witness_mismatch`, …).
    pub kind: String,
    /// Similarity category of the check.
    pub category: String,
    /// The cross-thread pattern the category predicted.
    pub predicted: String,
    /// Threads that had reported when the check fired.
    pub reporters: u64,
    /// Monitor message count at detection.
    pub detected_seq: u64,
    /// Messages between the deviant's report and detection; `None` when the
    /// deviant had aged out of the flight-recorder ring.
    pub latency: Option<u64>,
    /// Per-thread observation table, `t<id>=w<witness-hex>:<T|F>` entries.
    pub observed: String,
    /// Comma-joined deviant thread ids.
    pub deviants: String,
    /// Comma-joined majority thread ids.
    pub majority: String,
    /// Flight-recorder window, oldest first,
    /// `t<id>:i<iter>:w<witness-hex>:<T|F>:s<seq>` entries.
    pub window: String,
}

/// Per-category coverage/detection aggregates of a forensics report.
#[derive(Clone, Debug, Default)]
struct CategoryStats {
    injected: u64,
    activated: u64,
    detected: u64,
    sdc: u64,
    latencies: Vec<u64>,
}

/// The forensics view of a JSONL trace — what `bw report` prints.
///
/// Unlike [`TraceSummary`] (throughput and metric aggregates), this view
/// reconstructs *causal* evidence: which injections were detected, by which
/// site, with which threads deviating, and how quickly. Every rendered
/// field is deterministic for a fixed campaign seed — record arrival order,
/// worker ids, timestamps and durations are deliberately ignored — so the
/// report is byte-identical across runs at any worker count.
#[derive(Clone, Debug, Default)]
pub struct ForensicsReport {
    /// Injection records, sorted by (image, index).
    pub injections: Vec<TraceInjection>,
    /// Violation records, sorted by (image, index, site, branch, iter).
    pub violations: Vec<TraceViolation>,
}

impl ForensicsReport {
    /// Parses a JSONL trace, keeping the `injection` and `violation`
    /// records. Blank lines are skipped; a malformed line fails the whole
    /// parse with its line number.
    pub fn parse(text: &str) -> Result<ForensicsReport, String> {
        let mut report = ForensicsReport::default();
        for rec in records(text) {
            let rec = rec?;
            let text_field = |name: &str| rec.field_str(name).unwrap_or("").to_string();
            match rec.ev() {
                "injection" => report.injections.push(TraceInjection {
                    image: rec.field_u64("image"),
                    index: rec.field_u64("index"),
                    outcome: text_field("outcome"),
                    branch: rec.field_str("branch").and_then(|b| b.parse().ok()),
                    category: text_field("category"),
                }),
                "violation" => report.violations.push(TraceViolation {
                    image: rec.field_u64("image"),
                    index: rec.field_u64("index"),
                    branch: rec.field_u64("branch"),
                    site: rec.field_u64("site"),
                    iter: rec.field_u64("iter"),
                    kind: text_field("kind"),
                    category: text_field("category"),
                    predicted: text_field("predicted"),
                    reporters: rec.field_u64("reporters"),
                    detected_seq: rec.field_u64("detected_seq"),
                    latency: rec.field_str("latency").and_then(|l| l.parse().ok()),
                    observed: text_field("observed"),
                    deviants: text_field("deviants"),
                    majority: text_field("majority"),
                    window: text_field("window"),
                }),
                _ => {}
            }
        }
        report.injections.sort_by_key(|i| (i.image, i.index));
        report.violations.sort_by(|a, b| {
            (a.image, a.index, a.site, a.branch, a.iter, &a.kind)
                .cmp(&(b.image, b.index, b.site, b.branch, b.iter, &b.kind))
        });
        Ok(report)
    }

    /// Whether the trace carries any detection evidence at all.
    pub fn has_detections(&self) -> bool {
        !self.violations.is_empty()
            || self.injections.iter().any(|i| i.outcome == "detected")
    }

    /// Renders the human-readable forensics summary: outcome totals, the
    /// per-category coverage/detection matrix, top violating sites, and one
    /// deviant-thread table per violation.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let detected =
            self.injections.iter().filter(|i| i.outcome == "detected").count();
        let _ = writeln!(
            out,
            "forensics: {} injection(s), {} detected, {} violation record(s)",
            self.injections.len(),
            detected,
            self.violations.len()
        );

        let mut outcomes: Vec<(String, u64)> = Vec::new();
        for i in &self.injections {
            bump(&mut outcomes, &i.outcome, 1, true);
        }
        outcomes.sort();
        if !outcomes.is_empty() {
            out.push_str("outcomes:");
            for (name, count) in &outcomes {
                let _ = write!(out, "  {name}={count}");
            }
            out.push('\n');
        }

        // Per-category coverage/detection matrix. Categories come from the
        // injection records (so undetected injections count too); latency
        // aggregates come from the violation evidence.
        let mut matrix: std::collections::BTreeMap<String, CategoryStats> =
            std::collections::BTreeMap::new();
        for i in &self.injections {
            let s = matrix.entry(i.category.clone()).or_default();
            s.injected += 1;
            if i.outcome != "not_activated" {
                s.activated += 1;
            }
            match i.outcome.as_str() {
                "detected" => s.detected += 1,
                "sdc" => s.sdc += 1,
                _ => {}
            }
        }
        for v in &self.violations {
            if let Some(l) = v.latency {
                matrix.entry(v.category.clone()).or_default().latencies.push(l);
            }
        }
        if !matrix.is_empty() {
            out.push_str("\ncoverage by similarity category:\n");
            out.push_str(
                "  category  injected  activated  detected  sdc  coverage  latency mean/max\n",
            );
            for (category, s) in &matrix {
                let coverage = if s.activated == 0 {
                    100.0
                } else {
                    100.0 * (1.0 - s.sdc as f64 / s.activated as f64)
                };
                let latency = if s.latencies.is_empty() {
                    "-".to_string()
                } else {
                    let sum: u64 = s.latencies.iter().sum();
                    let max = s.latencies.iter().max().copied().unwrap_or(0);
                    format!("{:.1} / {max}", sum as f64 / s.latencies.len() as f64)
                };
                let _ = writeln!(
                    out,
                    "  {category:<8}  {:>8}  {:>9}  {:>8}  {:>3}  {coverage:>7.1}%  {latency}",
                    s.injected, s.activated, s.detected, s.sdc
                );
            }
        }

        // Top violating sites: which (branch, site) instances fire most.
        let mut sites: Vec<((u64, u64, String), u64)> = Vec::new();
        for v in &self.violations {
            let key = (v.branch, v.site, v.category.clone());
            match sites.iter_mut().find(|(k, _)| *k == key) {
                Some((_, n)) => *n += 1,
                None => sites.push((key, 1)),
            }
        }
        sites.sort_by(|a, b| (b.1, &a.0).cmp(&(a.1, &b.0)));
        if !sites.is_empty() {
            out.push_str("\ntop violating sites:\n");
            for ((branch, site, category), count) in sites.iter().take(10) {
                let _ = writeln!(
                    out,
                    "  br{branch} site {site:#x}  {count} violation(s)  [{category}]"
                );
            }
        }

        // Full evidence, one deviant-thread table per violation.
        if !self.violations.is_empty() {
            out.push_str("\nviolation details:\n");
        }
        for v in &self.violations {
            let _ = writeln!(
                out,
                "injection {}: br{} {} (site {:#x}, iter {:#x}, {} reporters)",
                v.index, v.branch, v.kind, v.site, v.iter, v.reporters
            );
            let _ = writeln!(out, "  category {}; predicted: {}", v.category, v.predicted);
            render_observed_table(&mut out, &v.observed, &v.deviants);
            let latency = match v.latency {
                Some(l) => format!("latency {l} message(s)"),
                None => "latency unknown (deviant aged out of the ring)".to_string(),
            };
            let _ = writeln!(out, "  detected at seq {}, {latency}", v.detected_seq);
            if !v.window.is_empty() {
                let entries = v.window.split(';').count();
                let _ = writeln!(out, "  window ({entries} entries): {}", v.window);
            }
        }
        out
    }
}

/// Renders the `t<id>=w<hex>:<T|F>` observed string as an aligned
/// per-thread table with DEVIANT/majority roles.
fn render_observed_table(out: &mut String, observed: &str, deviants: &str) {
    if observed.is_empty() {
        return;
    }
    let deviant_ids: Vec<&str> = deviants.split(',').filter(|s| !s.is_empty()).collect();
    out.push_str("  thread  witness           outcome    role\n");
    for entry in observed.split(',') {
        let Some((thread, rest)) = entry.split_once('=') else { continue };
        let thread = thread.trim_start_matches('t');
        let (witness, taken) = rest.split_once(':').unwrap_or((rest, "?"));
        let witness = witness.trim_start_matches('w');
        let outcome = match taken {
            "T" => "taken",
            "F" => "not-taken",
            _ => "?",
        };
        let role = if deviant_ids.contains(&thread) { "DEVIANT" } else { "majority" };
        let _ = writeln!(out, "  {thread:>6}  {witness:<16}  {outcome:<9}  {role}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_summary_aggregates_records() {
        let trace = concat!(
            r#"{"seq":0,"t_us":1,"ev":"span","name":"campaign.plan","dur_us":10}"#, "\n",
            r#"{"seq":1,"t_us":2,"ev":"injection","index":0,"worker":0,"outcome":"sdc","dur_us":100}"#, "\n",
            r#"{"seq":2,"t_us":3,"ev":"injection","index":1,"worker":0,"outcome":"detected","dur_us":300}"#, "\n",
            r#"{"seq":3,"t_us":4,"ev":"worker","worker":0,"injections":2,"wall_us":500,"busy_us":400}"#, "\n",
            r#"{"seq":4,"t_us":5,"ev":"counter","name":"monitor.violations","value":3}"#, "\n",
            r#"{"seq":5,"t_us":6,"ev":"counter","name":"monitor.violations","value":2}"#, "\n",
            r#"{"seq":6,"t_us":7,"ev":"gauge","name":"monitor.queue_high_water","value":7}"#, "\n",
            r#"{"seq":7,"t_us":8,"ev":"histogram","name":"campaign.injection_us","count":2,"sum":400,"max":300}"#, "\n",
        );
        let s = TraceSummary::parse(trace).unwrap();
        assert_eq!(s.records, 8);
        assert_eq!(s.counters, vec![("monitor.violations".to_string(), 5)]);
        assert_eq!(s.gauges, vec![("monitor.queue_high_water".to_string(), 7)]);
        assert_eq!(s.injection_us.count, 2);
        assert_eq!(s.injection_us.max_us, 300);
        assert_eq!(s.workers.len(), 1);
        assert!((s.workers[0].throughput() - 4000.0).abs() < 1e-9);
        assert_eq!(s.spans.len(), 1);
        assert_eq!(s.spans[0].dur.total_us, 10);
        let rendered = s.render();
        assert!(rendered.contains("monitor.violations"));
        assert!(rendered.contains("sdc=1"));
        assert!(rendered.contains("worker 0"));
        // A `worker` record from before the step counts existed: zeros.
        assert_eq!((s.workers[0].steps_run, s.workers[0].steps_skipped), (0, 0));
        assert!(rendered.contains("steps 0 run, 0 skipped (0.0%)"), "{rendered}");
    }

    #[test]
    fn trace_summary_renders_the_skipped_share_of_a_worker() {
        let trace = concat!(
            r#"{"seq":0,"t_us":4,"ev":"worker","worker":1,"injections":2,"wall_us":500,"#,
            r#""busy_us":400,"steps_run":300,"steps_skipped":100}"#,
            "\n",
        );
        let s = TraceSummary::parse(trace).unwrap();
        assert_eq!((s.workers[0].steps_run, s.workers[0].steps_skipped), (300, 100));
        assert!((s.workers[0].skipped_share() - 0.25).abs() < 1e-12);
        assert!(s.render().contains("steps 300 run, 100 skipped (25.0%)"), "{}", s.render());
        let json = s.to_json();
        assert!(json.contains(r#""worker.1.steps_run":300"#), "{json}");
        assert!(json.contains(r#""worker.1.steps_skipped":100"#), "{json}");
    }

    #[test]
    fn trace_summary_renders_monitor_health() {
        let trace = concat!(
            r#"{"seq":0,"t_us":1,"ev":"counter","name":"monitor.events_dropped","value":4}"#, "\n",
            r#"{"seq":1,"t_us":2,"ev":"gauge","name":"monitor.pending_high_water","value":9}"#, "\n",
        );
        let rendered = TraceSummary::parse(trace).unwrap().render();
        assert!(rendered.contains("monitor health:"), "{rendered}");
        assert!(rendered.contains("events dropped: 4"), "{rendered}");
        assert!(rendered.contains("verdicts may be incomplete"), "{rendered}");
        assert!(rendered.contains("pending-table high water: 9 instance(s)"), "{rendered}");
        // Zero drops render without the warning; absent metrics render nothing.
        let trace = r#"{"seq":0,"t_us":1,"ev":"counter","name":"monitor.events_dropped","value":0}"#;
        let rendered = TraceSummary::parse(trace).unwrap().render();
        assert!(rendered.contains("events dropped: 0"), "{rendered}");
        assert!(!rendered.contains("incomplete"), "{rendered}");
        let trace = r#"{"seq":0,"t_us":1,"ev":"counter","name":"vm.instructions","value":5}"#;
        let rendered = TraceSummary::parse(trace).unwrap().render();
        assert!(!rendered.contains("monitor health"), "{rendered}");
    }

    #[test]
    fn trace_summary_renders_per_shard_health() {
        let trace = concat!(
            r#"{"seq":0,"t_us":1,"ev":"counter","name":"monitor.shard.0.events_processed","value":120}"#, "\n",
            r#"{"seq":1,"t_us":2,"ev":"counter","name":"monitor.shard.1.events_processed","value":80}"#, "\n",
            r#"{"seq":2,"t_us":3,"ev":"counter","name":"monitor.shard.1.events_dropped","value":3}"#, "\n",
            r#"{"seq":3,"t_us":4,"ev":"gauge","name":"monitor.shard.0.queue_high_water","value":17}"#, "\n",
        );
        let rendered = TraceSummary::parse(trace).unwrap().render();
        assert!(rendered.contains("monitor shards:"), "{rendered}");
        assert!(
            rendered.contains("shard 0   processed 120  dropped 0  queue high water 17"),
            "{rendered}"
        );
        assert!(
            rendered.contains("shard 1   processed 80  dropped 3  queue high water 0"),
            "{rendered}"
        );
        // Campaign traces record the golden run's telemetry under a
        // `golden.` prefix; the shard section must still pick it up.
        let trace = concat!(
            r#"{"seq":0,"t_us":1,"ev":"counter","name":"golden.monitor.shard.0.events_processed","value":300}"#, "\n",
            r#"{"seq":1,"t_us":2,"ev":"gauge","name":"golden.monitor.shard.0.queue_high_water","value":9}"#, "\n",
        );
        let rendered = TraceSummary::parse(trace).unwrap().render();
        assert!(
            rendered.contains("shard 0   processed 300  dropped 0  queue high water 9"),
            "{rendered}"
        );
        // Unsharded traces get no shard section.
        let trace = r#"{"seq":0,"t_us":1,"ev":"counter","name":"monitor.events_dropped","value":0}"#;
        let rendered = TraceSummary::parse(trace).unwrap().render();
        assert!(!rendered.contains("monitor shards"), "{rendered}");
    }

    /// A two-injection trace with one detection carrying full provenance.
    fn forensics_trace() -> &'static str {
        concat!(
            r#"{"seq":0,"t_us":1,"ev":"injection","index":0,"worker":1,"outcome":"detected","branch":"2","category":"shared","dur_us":10}"#, "\n",
            r#"{"seq":1,"t_us":2,"ev":"violation","index":0,"branch":2,"site":64,"iter":5,"kind":"witness_mismatch","category":"shared","predicted":"all threads agree on the branch input","reporters":4,"detected_seq":12,"latency":"3","observed":"t0=w2a:T,t1=w63:T,t2=w63:T,t3=w63:T","deviants":"0","majority":"1,2,3","window":"t0:i5:w2a:T:s9;t1:i5:w63:T:s10","worker":1}"#, "\n",
            r#"{"seq":2,"t_us":3,"ev":"injection","index":1,"worker":0,"outcome":"sdc","branch":"7","category":"threadID","dur_us":20}"#, "\n",
        )
    }

    #[test]
    fn forensics_report_parses_and_renders_evidence() {
        let r = ForensicsReport::parse(forensics_trace()).unwrap();
        assert!(r.has_detections());
        assert_eq!(r.injections.len(), 2);
        assert_eq!(r.violations.len(), 1);
        let v = &r.violations[0];
        assert_eq!((v.branch, v.site, v.iter), (2, 64, 5));
        assert_eq!(v.latency, Some(3));
        let text = r.render();
        assert!(text.contains("2 injection(s), 1 detected"), "{text}");
        assert!(text.contains("detected=1"), "{text}");
        // Coverage matrix: shared fully covered, threadID 0 % (1 sdc / 1 activated).
        assert!(text.contains("coverage by similarity category"), "{text}");
        assert!(text.contains("shared"), "{text}");
        assert!(text.contains("threadID"), "{text}");
        assert!(text.contains("  100.0%"), "{text}");
        assert!(text.contains("    0.0%"), "{text}");
        // Site ranking and the per-thread evidence table.
        assert!(text.contains("br2 site 0x40  1 violation(s)  [shared]"), "{text}");
        assert!(text.contains("witness_mismatch"), "{text}");
        assert!(text.contains("DEVIANT"), "{text}");
        assert_eq!(text.matches("majority").count(), 3, "{text}");
        assert!(text.contains("latency 3 message(s)"), "{text}");
        assert!(text.contains("window (2 entries)"), "{text}");
    }

    #[test]
    fn forensics_report_unknown_latency_and_missed_branch() {
        let trace = concat!(
            r#"{"seq":0,"t_us":1,"ev":"injection","index":0,"outcome":"not_activated","branch":"-","category":"-"}"#, "\n",
            r#"{"seq":1,"t_us":2,"ev":"violation","index":1,"branch":0,"site":1,"iter":0,"kind":"tid_predicate","category":"threadID","predicted":"p","reporters":2,"detected_seq":8,"latency":"?","observed":"t0=w1:T,t1=w1:F","deviants":"1","majority":"0","window":""}"#, "\n",
        );
        let r = ForensicsReport::parse(trace).unwrap();
        assert_eq!(r.injections[0].branch, None);
        assert_eq!(r.violations[0].latency, None);
        let text = r.render();
        assert!(text.contains("latency unknown"), "{text}");
        assert!(!text.contains("window ("), "{text}");
    }

    #[test]
    fn forensics_report_is_order_independent() {
        // Shuffled record order (as different --workers counts would produce)
        // must render byte-identically.
        let lines: Vec<&str> = forensics_trace().lines().collect();
        let shuffled = format!("{}\n{}\n{}\n", lines[2], lines[1], lines[0]);
        let a = ForensicsReport::parse(forensics_trace()).unwrap().render();
        let b = ForensicsReport::parse(&shuffled).unwrap().render();
        assert_eq!(a, b);
    }

    #[test]
    fn forensics_report_empty_trace_has_no_detections() {
        let r = ForensicsReport::parse("").unwrap();
        assert!(!r.has_detections());
        assert!(r.render().contains("0 injection(s)"));
    }

    #[test]
    fn trace_summary_rejects_garbage_with_line_numbers() {
        let err = TraceSummary::parse("{\"ev\":\"x\"}\nnot json\n").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        let err = TraceSummary::parse("{\"seq\":1}\n").unwrap_err();
        assert!(err.contains("no `ev`"), "{err}");
    }

    #[test]
    fn trace_summary_histogram_quantiles_from_buckets() {
        // Two records of the same histogram merge their buckets; the render
        // then carries p50/p90/p99 estimated from them.
        let trace = concat!(
            r#"{"seq":0,"t_us":1,"ev":"histogram","name":"campaign.injection_us","count":3,"sum":30,"max":10,"buckets":"15:3"}"#, "\n",
            r#"{"seq":1,"t_us":2,"ev":"histogram","name":"campaign.injection_us","count":1,"sum":900,"max":900,"buckets":"1023:1"}"#, "\n",
        );
        let s = TraceSummary::parse(trace).unwrap();
        assert_eq!(s.histograms.len(), 1);
        let h = &s.histograms[0];
        assert_eq!((h.count, h.sum, h.max), (4, 930, 900));
        assert_eq!(h.buckets, vec![(15, 3), (1023, 1)]);
        let snap = h.snapshot();
        assert!(snap.p50() <= 15.0, "p50 {}", snap.p50());
        assert!(snap.p99() > 100.0, "p99 {}", snap.p99());
        let rendered = s.render();
        assert!(rendered.contains("p50"), "{rendered}");
        assert!(rendered.contains("p99"), "{rendered}");
        // Pre-`buckets` traces still render, without quantiles.
        let legacy = r#"{"seq":0,"t_us":1,"ev":"histogram","name":"x","count":2,"sum":4,"max":3}"#;
        let rendered = TraceSummary::parse(legacy).unwrap().render();
        assert!(rendered.contains("count 2"), "{rendered}");
        assert!(!rendered.contains("p50"), "{rendered}");
    }

    #[test]
    fn trace_summary_flat_json_roundtrips() {
        let trace = concat!(
            r#"{"seq":0,"t_us":1,"ev":"counter","name":"monitor.violations","value":3}"#, "\n",
            r#"{"seq":1,"t_us":2,"ev":"injection","index":0,"worker":0,"outcome":"detected","dur_us":100}"#, "\n",
            r#"{"seq":2,"t_us":3,"ev":"histogram","name":"h","count":2,"sum":6,"max":5,"buckets":"7:2"}"#, "\n",
        );
        let json = TraceSummary::parse(trace).unwrap().to_json();
        let fields =
            bw_telemetry::parse_flat_object(json.trim()).expect("flat JSON parses back");
        let get = |name: &str| fields.iter().find(|(k, _)| k == name).map(|(_, v)| v.clone());
        assert_eq!(get("records"), Some(Value::U64(3)));
        assert_eq!(get("counter.monitor.violations"), Some(Value::U64(3)));
        assert_eq!(get("injection.detected"), Some(Value::U64(1)));
        assert_eq!(get("hist.h.count"), Some(Value::U64(2)));
        assert!(get("hist.h.p99").is_some());
        assert_eq!(get("injection_us.count"), Some(Value::U64(1)));
    }

    /// A three-tick sampled campaign trace (two shards, one warned tick).
    fn series_trace() -> &'static str {
        concat!(
            r#"{"seq":0,"t_us":1,"ev":"injection","index":0,"worker":0,"outcome":"detected","dur_us":10}"#, "\n",
            r#"{"seq":1,"t_us":50000,"ev":"sample","tick":1,"dt_us":50000,"live.campaign.planned":100,"live.campaign.completed":10,"live.campaign.detected":4,"live.engine.events_processed":50000,"live.monitor.shard.0.queue_depth":3,"live.monitor.shard.1.queue_depth":1}"#, "\n",
            r#"{"seq":2,"t_us":100000,"ev":"sample","tick":2,"dt_us":50000,"live.campaign.completed":30,"live.campaign.detected":12,"live.engine.events_processed":250000,"live.monitor.shard.0.queue_depth":8,"live.monitor.shard.1.queue_depth":0,"live.monitor.events_dropped":2,"warn":"events_dropped"}"#, "\n",
            r#"{"seq":3,"t_us":150000,"ev":"sample","tick":3,"dt_us":50000,"live.campaign.completed":10,"live.campaign.detected":4,"live.engine.events_processed":250000,"live.monitor.shard.0.queue_depth":0,"live.monitor.shard.1.queue_depth":0}"#, "\n",
        )
    }

    #[test]
    fn series_report_parses_sample_records_only() {
        let r = SeriesReport::parse(series_trace()).unwrap();
        assert_eq!(r.ticks.len(), 3);
        assert_eq!(r.ticks[0].tick, 1);
        assert_eq!(r.ticks[0].value("live.campaign.planned"), Some(100));
        assert!(!r.ticks[0].warn);
        assert!(r.ticks[1].warn);
        // 250000 events over 50 ms = 5M events/s.
        assert!((r.ticks[1].rate("live.engine.events_processed") - 5e6).abs() < 1.0);
        assert_eq!(r.shard_ids(), vec![0, 1]);
    }

    #[test]
    fn series_report_renders_progress_eta_and_queues() {
        let r = SeriesReport::parse(series_trace()).unwrap();
        let text = r.render();
        assert!(text.contains("samples: 3 tick(s)"), "{text}");
        // Tick 1: 10/100 done in 50 ms → 90 remaining at 200/s → 0.5 s ETA.
        assert!(text.contains("10/100 10%"), "{text}");
        assert!(text.contains("0.5"), "{text}");
        // Tick 2 carries the drop warning and shard 0's depth of 8.
        assert!(text.contains('!'), "{text}");
        assert!(text.contains("8"), "{text}");
        assert!(text.contains("50/100 50%"), "{text}");
        assert!(text.contains("1 tick(s) saw dropped events"), "{text}");
        assert!(text.contains("20 detected"), "{text}");
        // A sampler-less trace renders the hint, not an empty table.
        let empty = SeriesReport::parse(r#"{"seq":0,"t_us":1,"ev":"counter","name":"x","value":1}"#)
            .unwrap();
        assert!(empty.render().contains("no sample records"), "{}", empty.render());
    }

    #[test]
    fn series_report_without_campaign_omits_progress_columns() {
        let trace = r#"{"seq":0,"t_us":1,"ev":"sample","tick":1,"dt_us":1000,"live.engine.events_processed":500}"#;
        let text = SeriesReport::parse(trace).unwrap().render();
        assert!(text.contains("events/s"), "{text}");
        assert!(!text.contains("progress"), "{text}");
        assert!(!text.contains("eta"), "{text}");
    }

    #[test]
    fn render_telemetry_lists_all_metric_kinds() {
        let mut s = TelemetrySnapshot::new();
        s.push_counter("vm.instructions", 42);
        s.push_gauge("monitor.queue_high_water", 9);
        let h = bw_telemetry::Histogram::new();
        h.observe(5);
        s.push_histogram("campaign.injection_us", h.snapshot());
        let text = render_telemetry(&s);
        assert!(text.contains("vm.instructions"));
        assert!(text.contains("monitor.queue_high_water"));
        assert!(text.contains("campaign.injection_us"));
        assert_eq!(render_telemetry(&TelemetrySnapshot::new()), "(no telemetry recorded)\n");
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!(geomean(&[]).is_nan());
    }

    #[test]
    fn table4_covers_all_benchmarks() {
        let rows = table4(Size::Test);
        assert_eq!(rows.len(), 7);
        for row in &rows {
            assert!(row.branches >= row.parallel_branches);
            assert!(row.parallel_branches > 0, "{}", row.name);
            assert!(row.instructions >= row.parallel_instructions);
        }
    }

    #[test]
    fn table5_shapes_match_paper() {
        let rows = table5(Size::Test);
        assert_eq!(rows.len(), 7);
        // Paper: 49–98 % of branches are similar in every program.
        for row in &rows {
            let f = row.similar_fraction();
            assert!(f >= 0.45, "{}: similar fraction {f}", row.name);
        }
        // ocean-contiguous is partial-dominated.
        let ocean = &rows[0];
        assert!(ocean.partial * 100 >= ocean.total * 70, "{ocean:?}");
        // FMM and raytrace have the largest `none` shares.
        let fmm_none = rows[2].none as f64 / rows[2].total as f64;
        let ray_none = rows[5].none as f64 / rows[5].total as f64;
        for (i, row) in rows.iter().enumerate() {
            if i != 2 && i != 5 {
                let none_frac = row.none as f64 / row.total.max(1) as f64;
                assert!(
                    none_frac <= fmm_none.max(ray_none) + 1e-9,
                    "{} none fraction {none_frac} exceeds FMM/raytrace",
                    row.name
                );
            }
        }
    }
}
