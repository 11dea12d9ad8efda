//! The seven workloads and what they share: the run context, set-up
//! timing, and the stage-by-stage replacement for `Blockwatch::compile`.

pub mod campaign;
pub mod fig6;
pub mod fuzz;
pub mod monitor_replay;
pub mod prepare;

use std::collections::BTreeMap;
use std::time::Instant;

use blockwatch::Benchmark;
use bw_analysis::{AnalysisConfig, CheckPlan, ModuleAnalysis};
use bw_ir::{Module, ValueGraph};
use bw_monitor::{BranchEvent, CheckTable, Monitor};
use bw_vm::ProgramImage;

use crate::clock::{Clock, Meter};
use crate::json::Fact;
use crate::oracle::Oracle;
use crate::stats::median;
use crate::trace::{Layer, Tracer};

/// What one run of one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations one unit of work attempts.
    pub attempted: u64,
    /// Operations of that unit that failed: the benchmark could not carry
    /// them out or their output is wrong. A correct run has none.
    pub failed: u64,
    /// Operations on which the program under test is deterministically at
    /// fault — generated modules its own oracle fails, or that do not
    /// prepare. The benchmark carried them out and checks their verdicts
    /// like any other output, so they count against `success_rate`, not as
    /// failed operations.
    pub defects: u64,
    /// Reasons the run's outputs are wrong (empty = correct).
    pub wrong: Vec<String>,
    /// End-to-end metrics this workload exercises.
    pub end_to_end: BTreeMap<&'static str, f64>,
    /// Per-layer metrics this workload exercises (traced run only).
    pub per_layer: BTreeMap<String, f64>,
    /// Further `name = value` lines for the human reader.
    pub info: Vec<(String, String)>,
}

/// Everything a workload needs while it runs.
#[derive(Debug)]
pub struct Ctx {
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`.
    pub seconds: f64,
    /// `--trace 1`: stage-by-stage calls inside spans.
    pub traced: bool,
    /// `--quick`: tiny counts, for `cargo test`.
    pub quick: bool,
    /// The calibrated stopwatch.
    pub meter: Meter,
    /// The span recorder (a no-op unless `traced`).
    pub tracer: Tracer,
    /// The exact-count oracle.
    pub oracle: Oracle,
    /// The result so far.
    pub out: Outcome,
}

impl Ctx {
    /// A fresh context whose stopwatch reads `clock`.
    pub fn new(clock: Clock, seed: u64, seconds: f64, traced: bool, quick: bool) -> Self {
        Ctx {
            seed,
            seconds,
            traced,
            quick,
            meter: Meter::new(clock),
            tracer: Tracer::new(traced),
            oracle: Oracle::load(),
            out: Outcome::default(),
        }
    }

    /// Repetitions of a timed unit a run must reach.
    pub fn min_reps(&self) -> usize {
        if self.quick {
            2
        } else {
            5
        }
    }

    /// `full` in a normal run, `quick` under `--quick`.
    pub fn count(&self, full: usize, quick: usize) -> usize {
        if self.quick {
            quick
        } else {
            full
        }
    }

    /// Runs `build` several times, each a calibrated slice, reports the
    /// median as `setup_s` and returns the last result. Most set-ups take
    /// 10–50 ms, so five of them fit inside one of the host's slow spells;
    /// they are repeated for half a second.
    pub fn setup<T>(&mut self, mut build: impl FnMut(&mut Tracer) -> T) -> T {
        let (min_reps, seconds) = if self.quick { (2, 0.0) } else { (5, 0.5) };
        let started = Instant::now();
        let mut built = None;
        let open = self.tracer.enter(Layer::Bench, "setup");
        let mut reps = 0;
        while reps < min_reps || (reps < 64 && started.elapsed().as_secs_f64() < seconds) {
            self.meter.begin();
            built = Some(build(&mut self.tracer));
            self.meter.mark(1);
            reps += 1;
        }
        self.tracer.exit(open);
        let slices = self.meter.take();
        let nominal: Vec<f64> = slices.iter().map(|s| s.nominal_s).collect();
        let raw: Vec<f64> = slices.iter().map(|s| s.raw_s).collect();
        self.out.end_to_end.insert("setup_s", median(&nominal));
        self.info("setup_raw_s", median(&raw));
        built.expect("at least one set-up repetition")
    }

    /// States a seed-independent exact fact.
    pub fn fact(&mut self, key: &str, value: impl Into<Fact>) {
        let key = if self.quick { format!("quick.{key}") } else { key.to_string() };
        self.oracle.state(key, value.into());
    }

    /// States an exact fact that depends on `--seed`; checked at seed 0.
    pub fn seed_fact(&mut self, key: &str, value: impl Into<Fact>) {
        if self.seed == 0 {
            self.fact(&format!("seed0.{key}"), value);
        }
    }

    /// Records that the run's outputs are wrong.
    pub fn wrong(&mut self, why: String) {
        self.out.wrong.push(why);
    }

    /// Sets an end-to-end metric.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.out.end_to_end.insert(name, value);
    }

    /// Sets a per-layer metric.
    pub fn layer(&mut self, name: &str, value: f64) {
        self.out.per_layer.insert(name.to_string(), value);
    }

    /// Adds a line for the human reader.
    pub fn info(&mut self, name: &str, value: impl std::fmt::Display) {
        self.out.info.push((name.to_string(), value.to_string()));
    }

    /// Per-layer metrics every traced workload derives from its spans: mean
    /// time per call of each pipeline stage, per-layer self time under the
    /// `timed` root, and the share of that root attributed to program
    /// layers.
    pub fn layer_metrics_from_spans(&mut self) {
        if !self.traced {
            return;
        }
        for (metric, span) in [
            ("splash.source_us", "splash.source"),
            ("ir.frontend.compile_us", "ir.frontend.compile"),
            ("ir.text.print_us", "ir.text.print"),
            ("ir.text.parse_us", "ir.text.parse"),
            ("ir.verify_us", "ir.verify"),
            ("ir.scc_us", "ir.scc"),
            ("analysis.seq_us", "analysis.seq"),
            ("analysis.par1_us", "analysis.par1"),
            ("analysis.par2_us", "analysis.par2"),
            ("analysis.plan_us", "analysis.plan"),
            ("vm.prepare_us", "vm.prepare"),
            ("core.compile_us", "core.compile"),
        ] {
            let us = self.tracer.mean_us(span);
            self.layer(metric, us);
        }
        let staged = ["ir.verify", "analysis.seq", "analysis.plan"]
            .iter()
            .map(|s| self.tracer.mean_us(s))
            .sum::<f64>();
        let link = (self.tracer.mean_us("vm.prepare") - staged).max(0.0);
        self.layer("vm.link_us", link);

        let Some(root) = self.tracer.find("timed") else { return };
        let by_layer = self.tracer.layer_self_secs(root);
        let total = self.tracer.spans()[root].secs();
        for layer in Layer::PROGRAM {
            let secs = by_layer.get(&layer).copied().unwrap_or(0.0);
            self.layer(&format!("bench.self_ms.{}", layer.name()), secs * 1e3);
        }
        let bench = by_layer.get(&Layer::Bench).copied().unwrap_or(0.0);
        self.layer("bench.attributed_share", if total > 0.0 { 1.0 - bench / total } else { 0.0 });
        self.layer("bench.spans", self.tracer.spans().len() as f64);
        self.layer("bench.clock_ratio", self.meter.clock_ratio());
    }
}

/// Exact structure counts of one or more prepared programs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Shape {
    /// Functions.
    pub funcs: u64,
    /// Basic blocks.
    pub blocks: u64,
    /// SSA values.
    pub values: u64,
    /// Branches the analysis classified.
    pub branches: u64,
    /// Branches the plan instruments.
    pub instrumented: u64,
    /// Parallel-section branches per similarity category.
    pub shared: u64,
    /// See [`Shape::shared`].
    pub thread_id: u64,
    /// See [`Shape::shared`].
    pub partial: u64,
    /// See [`Shape::shared`].
    pub none: u64,
}

impl Shape {
    /// Counts one prepared image.
    pub fn of(image: &ProgramImage) -> Shape {
        let hist = image.analysis.category_histogram();
        Shape {
            funcs: image.module.funcs.len() as u64,
            blocks: image.module.funcs.iter().map(|f| f.blocks.len() as u64).sum(),
            values: image.module.funcs.iter().map(|f| f.num_values() as u64).sum(),
            branches: image.analysis.branches.len() as u64,
            instrumented: image.plan.num_instrumented() as u64,
            shared: hist.shared as u64,
            thread_id: hist.thread_id as u64,
            partial: hist.partial as u64,
            none: hist.none as u64,
        }
    }

    /// Adds another program's counts.
    pub fn add(&mut self, other: Shape) {
        self.funcs += other.funcs;
        self.blocks += other.blocks;
        self.values += other.values;
        self.branches += other.branches;
        self.instrumented += other.instrumented;
        self.shared += other.shared;
        self.thread_id += other.thread_id;
        self.partial += other.partial;
        self.none += other.none;
    }

    /// The counts with their key suffixes, for facts and per-layer metrics.
    pub fn fields(&self) -> [(&'static str, u64); 9] {
        [
            ("ir.funcs", self.funcs),
            ("ir.blocks", self.blocks),
            ("ir.values", self.values),
            ("analysis.branches", self.branches),
            ("analysis.instrumented", self.instrumented),
            ("analysis.cat.shared", self.shared),
            ("analysis.cat.threadid", self.thread_id),
            ("analysis.cat.partial", self.partial),
            ("analysis.cat.none", self.none),
        ]
    }
}

/// States `shape` as facts under `prefix` (at seed 0 only when the programs
/// were made from `--seed`) and, in a traced run, as the per-layer counts.
pub fn state_shape(ctx: &mut Ctx, prefix: &str, shape: Shape, from_seed: bool) {
    for (name, value) in shape.fields() {
        if from_seed {
            ctx.seed_fact(&format!("{prefix}.{name}"), value);
        } else {
            ctx.fact(&format!("{prefix}.{name}"), value);
        }
        if ctx.traced {
            ctx.layer(name, value as f64);
        }
    }
}

/// `ProgramImage::try_prepare` taken apart: each stage it runs is called on
/// its own first, inside a span, then the whole. The stages are the public
/// functions `try_prepare` itself calls, plus the SCC condensation and the
/// SCC-parallel analysis at one and two workers, whose result must not
/// diverge from the sequential one.
///
/// # Errors
///
/// Returns the failure class `check_module` would report (`prepare` or
/// `analysis-divergence`) with a message.
pub fn prepare_staged(
    tracer: &mut Tracer,
    module: Module,
) -> Result<ProgramImage, (&'static str, String)> {
    let config = AnalysisConfig::default();
    tracer
        .span(Layer::Ir, "ir.verify", || bw_ir::verify_module(&module))
        .map_err(|e| ("prepare", e.to_string()))?;
    tracer.span(Layer::Ir, "ir.scc", || {
        std::hint::black_box(ValueGraph::build(&module).condense());
    });
    let analysis = tracer.span(Layer::Analysis, "analysis.seq", || ModuleAnalysis::run(&module));
    for (name, workers) in [("analysis.par1", 1), ("analysis.par2", 2)] {
        let parallel =
            tracer.span(Layer::Analysis, name, || ModuleAnalysis::run_parallel(&module, workers));
        if let Some(diff) = analysis.divergence(&parallel) {
            return Err((
                "analysis-divergence",
                format!("parallel analysis at {workers} worker(s) diverges: {diff}"),
            ));
        }
    }
    tracer.span(Layer::Analysis, "analysis.plan", || {
        std::hint::black_box(CheckPlan::build(&module, &analysis, config));
    });
    tracer
        .span(Layer::Vm, "vm.prepare", || ProgramImage::try_prepare(module, config))
        .map_err(|e| ("prepare", e.to_string()))
}

/// Runs `work`, which calls into the program under test with a generated
/// module, and turns a panic in there into `None`: to a fuzzing workload a
/// panic is one failed operation, not the end of the run. (Sizing met one:
/// "similarity fixpoint failed to converge" in seed block 7.)
pub fn caught<R>(work: impl FnOnce() -> R) -> Option<R> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(work)).ok()
}

/// Feeds `events` to a fresh passive [`Monitor`] the way the simulated
/// engine's inline monitor is fed, as one calibrated slice inside a
/// `monitor.inline` span; returns it with the nominal seconds that took.
pub fn replay_inline(
    ctx: &mut Ctx,
    checks: CheckTable,
    events: &[BranchEvent],
    nthreads: usize,
) -> (Monitor, f64) {
    let mut monitor = Monitor::new(checks, nthreads);
    let open = ctx.tracer.enter(Layer::Monitor, "monitor.inline");
    ctx.meter.slice(events.len() as u64, || {
        for event in events {
            monitor.process(*event);
        }
        monitor.flush();
    });
    ctx.tracer.exit(open);
    (monitor, ctx.meter.take()[0].nominal_s)
}

/// Number of distinct `(branch, site, iteration)` instances in `events`.
pub fn distinct_instances(events: &[BranchEvent]) -> u64 {
    let mut keys: Vec<(u32, u64, u64)> =
        events.iter().map(|e| (e.branch, e.site, e.iter)).collect();
    keys.sort_unstable();
    keys.dedup();
    keys.len() as u64
}

/// The source of `bench` at `size`, inside a `splash.source` span.
pub fn port_source(tracer: &mut Tracer, bench: Benchmark, size: blockwatch::Size) -> String {
    tracer.span(Layer::Splash, "splash.source", || bench.source(size))
}
