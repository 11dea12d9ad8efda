//! The three `campaign-*` workloads: a fault-injection campaign through
//! `CampaignRunner` on one worker.
//!
//! One unit of work is a campaign of a fixed number of injections whose
//! targets `--seed` selects; the unit is repeated until `--seconds` have
//! passed and every repetition must return the same records. The progress
//! callback makes every injection a calibrated slice of its own, and
//! `injections_per_s` is the rate of the median injection.
//! `campaign-ocean-traced` also installs a JSONL recorder and the span sink
//! and has three readers parse the trace back.

use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use blockwatch::{
    Benchmark, Blockwatch, CampaignConfig, CampaignResult, FaultModel, ForensicsReport, Size,
    TimelineReport, TraceSummary,
};
use bw_fault::{classify, plan_campaign, FaultOutcome, InjectionHook, InjectionRecord};
use bw_monitor::CheckTable;
use bw_telemetry::{JsonlRecorder, Recorder, Value};
use bw_vm::{Engine, ExecConfig, MonitorMode, ProgramImage, RunOutcome, RunResult, SimEngine};

use super::{
    distinct_instances, port_source, prepare_staged, replay_inline, state_shape, Ctx, Shape,
};
use crate::clock::{Meter, Reps};
use crate::stats::{median, percentile};
use crate::trace::Layer;

/// SPMD threads of every campaign.
const NTHREADS: u32 = 4;
/// Times the three readers go over each trace.
const READ_ROUNDS: usize = 5;
/// Records the untraced run re-executes stage by stage as its output check
/// (the traced run re-executes all of them).
const SAMPLE: usize = 8;

/// What distinguishes the three campaign workloads.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// Key prefix for facts.
    pub key: &'static str,
    /// The port under injection.
    pub bench: Benchmark,
    /// Its input size.
    pub size: Size,
    /// The fault model.
    pub model: FaultModel,
    /// Injections per unit of work.
    pub injections: usize,
    /// Injections per unit under `--quick`.
    pub quick_injections: usize,
    /// Whether the campaign writes a trace that readers then parse.
    pub sink: bool,
    /// Whether the injection targets come from a fixed campaign seed, with
    /// `--seed` only placing the window of records that is re-executed
    /// stage by stage.
    pub fixed_targets: bool,
}

impl Spec {
    /// The campaign's target-selection seed under `--seed seed`.
    fn campaign_seed(&self, seed: u64) -> u64 {
        if self.fixed_targets {
            0
        } else {
            seed
        }
    }
}

/// `campaign-raytrace-flip`.
pub const RAYTRACE_FLIP: Spec = Spec {
    key: "raytrace-flip",
    bench: Benchmark::Raytrace,
    size: Size::Test,
    model: FaultModel::BranchFlip,
    injections: 160,
    quick_injections: 24,
    sink: false,
    fixed_targets: false,
};

/// `campaign-fmm-cond`. At ≈ 45 ms an injection a unit holds only 26, too
/// few for the outcome mix to be steady from seed to seed: 3 seeds in 30
/// draw a Detected run that keeps running and takes peak RSS from 23 to
/// 40 MB. So the targets are those of campaign seed 0 whatever `--seed` is,
/// and the outcome tallies are checked at every seed.
pub const FMM_COND: Spec = Spec {
    key: "fmm-cond",
    bench: Benchmark::Fmm,
    size: Size::Test,
    model: FaultModel::ConditionBitFlip,
    injections: 26,
    quick_injections: 6,
    sink: false,
    fixed_targets: true,
};

/// `campaign-ocean-traced`.
pub const OCEAN_TRACED: Spec = Spec {
    key: "ocean-traced",
    bench: Benchmark::OceanNoncontig,
    size: Size::Small,
    model: FaultModel::BranchFlip,
    injections: 80,
    quick_injections: 12,
    sink: true,
    fixed_targets: false,
};

/// An in-memory byte sink a [`JsonlRecorder`] can own while the benchmark
/// keeps a handle to read the trace back.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
        self.0.lock().expect("trace buffer lock").extend_from_slice(bytes);
        Ok(bytes.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Collects the stage spans and per-injection durations a campaign reports
/// to its [`Recorder`], so the traced run can read the program's own
/// account of where `CampaignRunner::run` spent its time.
#[derive(Default)]
struct StageRecorder {
    stages: Mutex<Vec<(String, u64)>>,
    injection_us: AtomicU64,
}

impl Recorder for StageRecorder {
    fn record(&self, event: &str, fields: &[(&str, Value)]) {
        let field = |name: &str| fields.iter().find(|(k, _)| *k == name).map(|(_, v)| v);
        match event {
            "span" => {
                if let (Some(name), Some(dur)) =
                    (field("name").and_then(Value::as_str), field("dur_us").and_then(Value::as_u64))
                {
                    self.stages.lock().expect("stage lock").push((name.to_string(), dur));
                }
            }
            "injection" => {
                if let Some(dur) = field("dur_us").and_then(Value::as_u64) {
                    self.injection_us.fetch_add(dur, Ordering::Relaxed);
                }
            }
            _ => {}
        }
    }
}

impl StageRecorder {
    fn stage_us(&self, name: &str) -> f64 {
        self.stages
            .lock()
            .expect("stage lock")
            .iter()
            .filter(|(n, _)| n == name)
            .map(|(_, d)| *d as f64)
            .sum()
    }
}

/// What one unit of work returned.
struct Unit {
    result: CampaignResult,
    /// The trace, when the workload writes one.
    trace: Option<Trace>,
}

struct Trace {
    text: String,
    records: u64,
}

/// Runs one campaign of `n` injections through `CampaignRunner` on one
/// worker, one calibrated slice per injection, followed by one slice for
/// the tail (reduce and result assembly) and — with `sink` — the reader
/// slices.
fn campaign_unit(
    meter: &mut Meter,
    tracer: &mut crate::trace::Tracer,
    bw: &Blockwatch,
    spec: &Spec,
    n: usize,
    seed: u64,
    sink: bool,
) -> Unit {
    let buf = SharedBuf::default();
    let jsonl = sink.then(|| Arc::new(JsonlRecorder::new(Box::new(buf.clone()))));
    if let Some(rec) = &jsonl {
        bw_telemetry::set_trace_sink(Some(Arc::clone(rec) as Arc<dyn Recorder>));
    }

    let open = tracer.enter(Layer::Core, "core.campaign_runner.run");
    meter.begin();
    let result = {
        let meter = Mutex::new(&mut *meter);
        let mut runner = bw
            .campaign_runner(n, spec.model, NTHREADS)
            .seed(seed)
            .workers(1)
            // One calibrated slice per injection.
            .on_progress(|_| meter.lock().expect("meter lock").mark(1));
        if let Some(rec) = &jsonl {
            runner = runner.recorder(rec.as_ref());
        }
        runner.run().expect("campaign runs: golden run completed")
    };
    meter.mark(0);
    tracer.exit(open);

    let trace = jsonl.map(|rec| {
        bw_telemetry::set_trace_sink(None);
        rec.flush();
        let bytes = std::mem::take(&mut *buf.0.lock().expect("trace buffer lock"));
        Trace {
            text: String::from_utf8(bytes).expect("JSONL trace is UTF-8"),
            records: rec.records_emitted(),
        }
    });
    if let Some(trace) = &trace {
        read_trace(meter, tracer, &trace.text);
    }
    Unit { result, trace }
}

/// The read path: `bw stats`, `bw report` and `bw timeline` (with its
/// Chrome export) each parse the whole trace, [`READ_ROUNDS`] times.
fn read_trace(meter: &mut Meter, tracer: &mut crate::trace::Tracer, text: &str) {
    let bytes = text.len() as u64;
    for _ in 0..READ_ROUNDS {
        let open = tracer.enter(Layer::Core, "core.stats");
        meter.slice(bytes, || {
            std::hint::black_box(TraceSummary::parse(text).expect("trace parses"));
        });
        tracer.exit(open);
        let open = tracer.enter(Layer::Core, "core.report");
        meter.slice(bytes, || {
            std::hint::black_box(ForensicsReport::parse(text).expect("trace parses"));
        });
        tracer.exit(open);
        let open = tracer.enter(Layer::Core, "core.timeline");
        meter.begin();
        let timeline = TimelineReport::parse(text).expect("trace parses");
        let chrome = tracer.enter(Layer::Core, "core.chrome");
        std::hint::black_box(timeline.to_chrome_json());
        tracer.exit(chrome);
        meter.mark(bytes);
        tracer.exit(open);
    }
}

/// The campaign taken apart: `plan_campaign`, then per injection
/// `InjectionHook::new` + `Engine::run_hooked` + `classify`, assembling the
/// record the way the campaign does. Returns the records and each injected
/// run's step count.
fn staged_campaign(
    tracer: &mut crate::trace::Tracer,
    image: &ProgramImage,
    golden: &RunResult,
    config: &CampaignConfig,
    which: std::ops::Range<usize>,
) -> (Vec<InjectionRecord>, Vec<RunResult>) {
    let plans = tracer
        .span(Layer::Fault, "fault.plan", || plan_campaign(&golden.branches_per_thread, config));
    // The campaign bounds a faulty run at eight golden runs plus slack, so a
    // corrupted loop bound is a Hung outcome rather than a two-billion-step
    // spin; the stage-by-stage run must use the same budget to classify
    // alike.
    let faulty =
        config.sim.clone().max_steps(golden.total_steps.saturating_mul(8).saturating_add(100_000));
    let mut records = Vec::with_capacity(which.len());
    let mut results = Vec::with_capacity(which.len());
    for index in which {
        let plan = plans[index];
        tracer.set_op(index as u64);
        let open = tracer.enter(Layer::Fault, "fault.injection");
        let hook = InjectionHook::new(plan);
        let result =
            tracer.span(Layer::Vm, "fault.replay", || SimEngine.run_hooked(image, &faulty, &hook));
        let outcome = tracer
            .span(Layer::Fault, "fault.classify", || classify(&result, golden, hook.activated()));
        let report = (outcome == FaultOutcome::Detected)
            .then(|| result.violation_reports.first().cloned().map(Box::new))
            .flatten();
        let detection_latency = report.as_ref().and_then(|r| r.detection_latency);
        records.push(InjectionRecord {
            plan,
            branch: hook.injected_branch().map(|b| b.0),
            outcome,
            report,
            detection_latency,
        });
        tracer.exit(open);
        results.push(result);
    }
    (records, results)
}

/// States an exact fact about the campaign's results: seed-independent when
/// the targets are fixed, checked at seed 0 otherwise.
fn state_campaign_fact(ctx: &mut Ctx, spec: &Spec, what: &str, value: u64) {
    let key = format!("{}.{what}", spec.key);
    if spec.fixed_targets {
        ctx.fact(&key, value);
    } else {
        ctx.seed_fact(&key, value);
    }
}

/// Runs the workload `spec` describes.
pub fn run(ctx: &mut Ctx, spec: &Spec) {
    let n = ctx.count(spec.injections, spec.quick_injections);
    let traced = ctx.traced;
    let exec = ExecConfig::new(NTHREADS);

    // Set-up: source, compile, golden (profiling) run.
    let (bw, golden) = ctx.setup(|tracer| {
        let source = port_source(tracer, spec.bench, spec.size);
        if traced {
            let module = tracer
                .span(Layer::Ir, "ir.frontend.compile", || bw_ir::frontend::compile(&source))
                .expect("SPLASH port compiles");
            prepare_staged(tracer, module).expect("SPLASH port prepares");
        }
        let bw = tracer
            .span(Layer::Core, "core.compile", || Blockwatch::compile(&source))
            .expect("SPLASH port compiles");
        let golden = tracer.span(Layer::Vm, "fault.golden", || bw.golden(&exec));
        (bw, golden)
    });

    state_shape(ctx, spec.key, Shape::of(bw.image()), false);
    ctx.fact(&format!("{}.golden.cycles", spec.key), golden.parallel_cycles);
    ctx.fact(&format!("{}.golden.steps", spec.key), golden.total_steps);
    ctx.fact(&format!("{}.golden.events", spec.key), golden.events_sent);
    ctx.fact(
        &format!("{}.golden.branches", spec.key),
        golden.branches_per_thread.iter().sum::<u64>(),
    );
    ctx.out.attempted = n as u64 + 1;
    if golden.outcome != RunOutcome::Completed || golden.detected() {
        ctx.out.failed += 1;
        ctx.wrong(format!(
            "golden run: {:?}, {} violation(s)",
            golden.outcome,
            golden.violations.len()
        ));
        return;
    }

    // The timed region. The traced run needs the opaque campaign only as
    // the reference for its cross-check and overhead, so two repetitions do.
    let (seconds, min_reps) = if traced { (0.0, 2) } else { (ctx.seconds, ctx.min_reps()) };
    let mut first: Option<Unit> = None;
    let mut diverged = 0usize;
    let seed = spec.campaign_seed(ctx.seed);
    let tracer = &mut ctx.tracer;
    let reps = Reps::run(&mut ctx.meter, seconds, min_reps, 64, |meter, _| {
        let unit = campaign_unit(meter, tracer, &bw, spec, n, seed, spec.sink);
        match &first {
            None => first = Some(unit),
            Some(f) => {
                if f.result.records != unit.result.records
                    || f.trace.as_ref().map(|t| t.records) != unit.trace.as_ref().map(|t| t.records)
                {
                    diverged += 1;
                }
            }
        }
    });
    let first = first.expect("at least one repetition");
    if diverged > 0 {
        ctx.wrong(format!("{diverged} repetition(s) returned different records for the same seed"));
    }

    // The campaign's own slices in each unit: one per injection plus the
    // tail. The rest are reader slices.
    let ncampaign = n + 1;
    // The typical injection, not the mean one: with 26–160 injections per
    // unit, how many Crashed (cheap) and Hung (eight golden runs) ones a
    // seed draws moves the mean by ±10–25 %; the median injection is the
    // Masked or Detected one that costs about one golden run.
    ctx.metric("injections_per_s", reps.typical_rate(|j| j < ncampaign));
    ctx.info("injections_per_s_mean", format!("{:.2}", reps.rate(|j| j < ncampaign)));
    ctx.metric("sdc_coverage", first.result.coverage());
    ctx.info("injections_per_raw_s_mean", format!("{:.2}", reps.raw_rate(|j| j < ncampaign)));
    ctx.info("repetitions", reps.reps.len());
    ctx.info("injections_per_unit", n);
    if let Some(trace) = &first.trace {
        // `ops` of a reader slice is the trace's byte count.
        ctx.metric("trace_read_mb_per_s", reps.rate(|j| j >= ncampaign) / 1e6);
        ctx.info("trace_bytes", trace.text.len());
        state_campaign_fact(ctx, spec, "trace_records", trace.records);
    }

    // Outputs: tallies against the oracle, and records against the
    // stage-by-stage campaign.
    let counts = first.result.counts;
    let tallies = [
        ("not_activated", counts.not_activated),
        ("detected", counts.detected),
        ("crashed", counts.crashed),
        ("hung", counts.hung),
        ("masked", counts.masked),
        ("sdc", counts.sdc),
    ];
    for (name, count) in tallies {
        state_campaign_fact(ctx, spec, &format!("outcome.{name}"), count as u64);
    }
    if first.result.records.len() != n || tallies.iter().map(|t| t.1).sum::<usize>() != n {
        ctx.wrong(format!(
            "campaign returned {} records for {n} injections",
            first.result.records.len()
        ));
        return;
    }

    // The traced run re-executes every injection stage by stage, the
    // untraced one a window of them that `--seed` places.
    let config = CampaignConfig::new(n, spec.model, NTHREADS).seed(seed).workers(1);
    let which = if traced {
        0..n
    } else {
        let len = SAMPLE.min(n);
        let start = (ctx.seed % (n - len + 1) as u64) as usize;
        start..start + len
    };
    let root = ctx.tracer.enter(Layer::Bench, "timed");
    ctx.meter.begin();
    let (staged, results) =
        staged_campaign(&mut ctx.tracer, bw.image(), &golden, &config, which.clone());
    ctx.meter.mark(which.len() as u64);
    ctx.tracer.exit(root);
    let staged_nominal_s = ctx.meter.take()[0].nominal_s;
    let mismatched = staged
        .iter()
        .zip(&first.result.records[which.clone()])
        .filter(|(mine, theirs)| mine != theirs)
        .count();
    if mismatched > 0 {
        ctx.out.failed += mismatched as u64;
        ctx.wrong(format!(
            "{mismatched} of the stage-by-stage injections {which:?} differ from \
             CampaignResult.records"
        ));
    }

    if traced {
        let opaque_nominal_s: f64 = reps.slice_times().iter().take(ncampaign).sum();
        ctx.layer("bench.trace_overhead_ratio", staged_nominal_s / opaque_nominal_s);
        for (name, count) in tallies {
            ctx.layer(&format!("fault.outcome.{name}"), count as f64);
        }
        fault_and_vm_metrics(ctx, &golden, &results);
        if spec.sink {
            telemetry_metrics(ctx, &bw, spec, n, &first, reps.rate(|j| j < ncampaign));
        }
        runner_overhead(ctx, &bw, spec, n);
        pool_and_monitor_metrics(ctx, &bw, spec, n, &first.result, &exec);
        ctx.layer_metrics_from_spans();
    }
}

/// `fault.*` and `vm.*` numbers from the stage-by-stage campaign's spans.
fn fault_and_vm_metrics(ctx: &mut Ctx, golden: &RunResult, results: &[RunResult]) {
    let us = |secs: Vec<f64>| secs.into_iter().map(|s| s * 1e6).collect::<Vec<_>>();
    let replay = us(ctx.tracer.durations("fault.replay"));
    ctx.layer("fault.golden_us", ctx.tracer.mean_us("fault.golden"));
    ctx.layer("fault.plan_us", ctx.tracer.mean_us("fault.plan"));
    ctx.layer("fault.replay_us_p50", median(&replay));
    ctx.layer("fault.replay_us_p99", percentile(&replay, 0.99));
    ctx.layer("fault.classify_us", ctx.tracer.mean_us("fault.classify"));
    let steps: u64 = results.iter().map(|r| r.total_steps).sum();
    ctx.layer(
        "fault.replay_steps_ratio",
        steps as f64 / (results.len().max(1) as f64 * golden.total_steps as f64),
    );
    ctx.layer("vm.steps", steps as f64);
    ctx.layer(
        "vm.branches",
        results.iter().map(|r| r.branches_per_thread.iter().sum::<u64>()).sum::<u64>() as f64,
    );
    ctx.layer("vm.events_sent", results.iter().map(|r| r.events_sent).sum::<u64>() as f64);
    ctx.layer("vm.sim.on.steps_per_s", steps as f64 / ctx.tracer.total("fault.replay"));
}

/// `CampaignRunner::run` minus the stages and injections it reports to its
/// recorder: what the runner itself costs.
///
/// One more campaign, with no progress callback (so no calibration pauses
/// inside it) and a recorder that keeps the stage spans; the total and the
/// parts are then all wall-clock times of the same run.
fn runner_overhead(ctx: &mut Ctx, bw: &Blockwatch, spec: &Spec, n: usize) {
    let recorder = StageRecorder::default();
    let seed = spec.campaign_seed(ctx.seed);
    let started = std::time::Instant::now();
    let run = ctx.tracer.span(Layer::Core, "core.campaign_runner.plain", || {
        bw.campaign_runner(n, spec.model, NTHREADS).seed(seed).workers(1).recorder(&recorder).run()
    });
    let total_us = started.elapsed().as_secs_f64() * 1e6;
    if let Err(e) = run {
        ctx.wrong(format!("campaign with a stage recorder failed: {e}"));
        return;
    }
    let reported = recorder.stage_us("campaign.plan")
        + recorder.stage_us("campaign.reduce")
        + recorder.injection_us.load(Ordering::Relaxed) as f64;
    ctx.layer("fault.reduce_us", recorder.stage_us("campaign.reduce"));
    ctx.layer("core.campaign_runner_overhead_us", total_us - reported);
}

/// The telemetry layer's numbers for `campaign-ocean-traced`.
fn telemetry_metrics(
    ctx: &mut Ctx,
    bw: &Blockwatch,
    spec: &Spec,
    n: usize,
    first: &Unit,
    traced_rate: f64,
) {
    let trace = first.trace.as_ref().expect("sink workload writes a trace");
    ctx.layer("telemetry.trace_records", trace.records as f64);
    ctx.layer("telemetry.trace_bytes", trace.text.len() as f64);
    let stats_secs = ctx.tracer.mean_us("core.stats") * 1e-6;
    ctx.layer("telemetry.parse.records_per_s", trace.records as f64 / stats_secs);
    for (metric, span) in [
        ("core.stats_us", "core.stats"),
        ("core.report_us", "core.report"),
        ("core.timeline_us", "core.timeline"),
        ("core.chrome_us", "core.chrome"),
    ] {
        ctx.layer(metric, ctx.tracer.mean_us(span));
    }

    // The same campaign with no recorder and no span sink.
    let seed = spec.campaign_seed(ctx.seed);
    let tracer = &mut ctx.tracer;
    let plain = Reps::run(&mut ctx.meter, 0.0, 2, 2, |meter, _| {
        campaign_unit(meter, tracer, bw, spec, n, seed, false);
    });
    ctx.layer("telemetry.sink_overhead_ratio", traced_rate / plain.rate(|_| true));

    // The write path alone: span records into a recorder that discards.
    const RECORDS: u64 = 50_000;
    let rec = JsonlRecorder::new(Box::new(std::io::sink()));
    let open = ctx.tracer.enter(Layer::Telemetry, "telemetry.record");
    ctx.meter.slice(RECORDS, || {
        for i in 0..RECORDS {
            bw_telemetry::record_span(
                &rec,
                bw_telemetry::TimeDomain::Cycles,
                "t0",
                "barrier_phase",
                "phase 0",
                i,
                17,
                &[("steps", Value::U64(i)), ("branches", Value::U64(i / 8))],
            );
        }
        rec.flush();
    });
    ctx.tracer.exit(open);
    let nominal_s = ctx.meter.take()[0].nominal_s;
    ctx.layer("telemetry.record.ns_per_record", nominal_s * 1e9 / RECORDS as f64);
}

/// The two-worker pool (which must return the same records) and the
/// monitor's share of a fault-free run of this port.
fn pool_and_monitor_metrics(
    ctx: &mut Ctx,
    bw: &Blockwatch,
    spec: &Spec,
    n: usize,
    reference: &CampaignResult,
    exec: &ExecConfig,
) {
    let seed = spec.campaign_seed(ctx.seed);
    let open = ctx.tracer.enter(Layer::Fault, "fault.pool.w2");
    let pooled = ctx.meter.slice(n as u64, || {
        bw.campaign_runner(n, spec.model, NTHREADS).seed(seed).workers(2).run()
    });
    ctx.tracer.exit(open);
    let nominal_s = ctx.meter.take()[0].nominal_s;
    ctx.layer("fault.pool.w2_injections_per_s", n as f64 / nominal_s);
    match pooled {
        Ok(pooled) if pooled.records == reference.records => {}
        Ok(_) => ctx.wrong("two workers returned different records than one".to_string()),
        Err(e) => ctx.wrong(format!("two-worker campaign failed: {e}")),
    }

    // Monitor on vs off, three runs each, interleaved.
    let (mut on, mut off) = (Vec::new(), Vec::new());
    let mut captured = None;
    for _ in 0..3 {
        for (mode, times) in [(MonitorMode::Off, &mut off), (MonitorMode::Enabled, &mut on)] {
            let config = exec.clone().monitor(mode).capture_events(mode == MonitorMode::Enabled);
            let open = ctx.tracer.enter(Layer::Vm, "vm.sim.golden");
            let result = ctx.meter.slice(1, || SimEngine.run(bw.image(), &config));
            ctx.tracer.exit(open);
            times.push(ctx.meter.take()[0].nominal_s);
            if mode == MonitorMode::Enabled {
                captured = Some(result.branch_events);
            }
        }
    }
    let (on, off) = (median(&on), median(&off));
    ctx.layer("monitor.share_of_sim", ((on - off) / on).max(0.0));
    ctx.layer(
        &format!("monitor.share_of_sim.{}", crate::spec::slug(spec.bench)),
        ((on - off) / on).max(0.0),
    );
    ctx.layer(&format!("vm.sim.{}.on_ms", crate::spec::slug(spec.bench)), on * 1e3);
    ctx.layer(&format!("vm.sim.{}.off_ms", crate::spec::slug(spec.bench)), off * 1e3);

    let events = captured.expect("three monitored runs");
    let checks = CheckTable::from_plan(bw.plan());
    let (monitor, nominal_s) = replay_inline(ctx, checks, &events, NTHREADS as usize);
    let per_event = nominal_s * 1e9 / events.len().max(1) as f64;
    ctx.layer("monitor.inline.ns_per_event", per_event);
    ctx.layer(&format!("monitor.inline.{}.ns_per_event", crate::spec::slug(spec.bench)), per_event);
    ctx.layer("monitor.events_processed", monitor.events_processed() as f64);
    ctx.layer("monitor.instances", distinct_instances(&events) as f64);
    ctx.layer("monitor.violations", monitor.violations().len() as f64);
    if monitor.detected() {
        ctx.wrong(format!(
            "inline replay of the golden run flagged {} violation(s)",
            monitor.violations().len()
        ));
    }
}
