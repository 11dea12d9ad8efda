//! Determinism and error-path tests for the sharded campaign engine: the
//! same configuration must produce bitwise-identical results at any worker
//! count — the results of replaying every plan from step 0, although the
//! engine forks most injections from a shared prefix — and
//! misconfigurations must surface as errors, not panics.

use bw_fault::{
    classify, plan_campaign, run_campaign, run_campaign_with_golden_recorded, CampaignConfig,
    CampaignError, CampaignResult, FaultModel, FaultOutcome, InjectionHook, InjectionRecord,
    OutcomeCounts, TraceInjection,
};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};

use bw_splash::{Benchmark, Size};
use bw_telemetry::{Recorder, TraceBuffer, Value};
use bw_vm::{Engine, MonitorMode, ProgramImage, RunOutcome, SimEngine};

/// Held by every test here that runs a campaign: the span sink one of them
/// installs is process-global, and a campaign on another test thread would
/// write into it.
static SINK_LOCK: Mutex<()> = Mutex::new(());

fn sink_lock() -> MutexGuard<'static, ()> {
    SINK_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// A span sink that keeps the records it is sent.
#[derive(Default)]
struct Capture(Mutex<Vec<Vec<(String, Value<'static>)>>>);

impl Recorder for Capture {
    fn record(&self, _event: &str, fields: &[(&str, Value)]) {
        let fields = fields.iter().map(|(k, v)| (k.to_string(), v.clone().into_owned())).collect();
        self.0.lock().unwrap().push(fields);
    }
}

impl Capture {
    /// What was captured since the last call: the number of records, and
    /// each injection's simulated-cycle records in the order written, less
    /// the `wid` of whichever worker ran it. (Records of different
    /// injections interleave by completion; an injection's own do not, it
    /// runs on one thread.)
    fn take(&self) -> (usize, BTreeMap<u64, Vec<String>>) {
        let records = std::mem::take(&mut *self.0.lock().unwrap());
        let mut by_injection = BTreeMap::<u64, Vec<String>>::new();
        for fields in &records {
            let field = |key: &str| fields.iter().find(|(k, _)| k == key).map(|(_, v)| v);
            let (dom, inj) = (field("dom").and_then(Value::as_str), field("inj"));
            if let (Some("cyc"), Some(inj)) = (dom, inj.and_then(Value::as_u64)) {
                let rest: Vec<_> = fields.iter().filter(|(k, _)| k != "wid").collect();
                by_injection.entry(inj).or_default().push(format!("{rest:?}"));
            }
        }
        (records.len(), by_injection)
    }
}

/// bw-fault's full window: the plans a worker claims at a time and forks
/// from one prefix (`campaign::WINDOW`, private; the pool shortens it when
/// it is wider than the campaign is long). The sizes below sit on its
/// boundaries.
const W: usize = 32;

fn image(bench: Benchmark) -> ProgramImage {
    ProgramImage::prepare_default(bench.module(Size::Test).expect("port compiles"))
}

/// What a campaign must return, computed the slow way: every plan replayed
/// from step 0 through the public pieces (`plan_campaign`, `InjectionHook`,
/// `run_hooked`, `classify`), in index order. Also the steps those replays
/// took.
fn plan_by_plan(
    image: &ProgramImage,
    config: &CampaignConfig,
) -> (Vec<InjectionRecord>, OutcomeCounts, u64) {
    let golden = SimEngine.run(image, &config.sim);
    let faulty =
        config.sim.clone().max_steps(golden.total_steps.saturating_mul(8).saturating_add(100_000));
    let mut records = Vec::new();
    let mut counts = OutcomeCounts::default();
    let mut steps = 0;
    for plan in plan_campaign(&golden.branches_per_thread, config) {
        let hook = InjectionHook::new(plan);
        let result = SimEngine.run_hooked(image, &faulty, &hook);
        steps += result.total_steps;
        let outcome = classify(&result, &golden, hook.activated());
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
        *match outcome {
            FaultOutcome::NotActivated => &mut counts.not_activated,
            FaultOutcome::Detected => &mut counts.detected,
            FaultOutcome::Crashed => &mut counts.crashed,
            FaultOutcome::Hung => &mut counts.hung,
            FaultOutcome::Masked => &mut counts.masked,
            FaultOutcome::Sdc => &mut counts.sdc,
        } += 1;
    }
    (records, counts, steps)
}

/// Whether the injection fired in `@init` (see `InjectionPlan`).
fn fired_in_init(image: &ProgramImage, record: &InjectionRecord) -> bool {
    record.branch.is_some_and(|b| Some(image.analysis.branches[b as usize].func) == image.module.init)
}

#[track_caller]
fn assert_payload(
    result: &CampaignResult,
    reference: &(Vec<InjectionRecord>, OutcomeCounts, u64),
    what: &str,
) {
    let (records, counts, _) = reference;
    assert_eq!(&result.records, records, "records: {what}");
    assert_eq!(&result.counts, counts, "counts: {what}");
    assert_eq!(
        result.telemetry.counter("campaign.injections"),
        Some(records.len() as u64),
        "{what}"
    );
}

/// A campaign runs every injection it plans, once: its trace holds one
/// `injection` record per index `0..n`, and the `campaign.injection_us`
/// histogram, the `campaign.injections` counter and the workers' tallies
/// all count `n`.
#[track_caller]
fn assert_every_injection_once(result: &CampaignResult, trace: &str, n: usize, what: &str) {
    let mut indices: Vec<u64> = bw_telemetry::records(trace)
        .map(|record| record.expect("the trace parses"))
        .filter(|record| record.ev() == TraceInjection::EV)
        .map(|record| TraceInjection::from_record(record).expect("an injection record").index)
        .collect();
    indices.sort_unstable();
    assert_eq!(indices, (0..n as u64).collect::<Vec<_>>(), "injection records: {what}");
    let telemetry = &result.telemetry;
    assert_eq!(
        (
            telemetry.histogram("campaign.injection_us").map(|h| h.count),
            telemetry.counter("campaign.injections"),
            result.worker_stats.iter().map(|w| w.injections).sum::<u64>(),
        ),
        (Some(n as u64), Some(n as u64), n as u64),
        "injection_us count, campaign.injections, worker injections: {what}"
    );
}

/// A few thousand steps with everything the scheduler has: unbalanced
/// loops, a critical section, a barrier, shared and thread-dependent
/// branches — and no `@init`, so every plan can be forked.
const KERNEL: &str = r#"
    shared int n = 24;
    int acc[4];
    mutex m;
    barrier b;
    @spmd func f() {
        var t: int = threadid();
        var sum: int = 0;
        for (var i: int = 0; i < n + 4 * t; i = i + 1) {
            var x: int = ((t * n + i) * 37) % 23;
            if (x > 11) { sum = sum + x; }
        }
        lock(m);
        acc[0] = acc[0] + sum;
        unlock(m);
        barrier(b);
        for (var i: int = 0; i < n; i = i + 1) {
            if (i % 3 == 0) { sum = sum + acc[0] % 7; }
        }
        output(sum);
    }
    @fini func done() { output(acc[0]); }
"#;

#[test]
fn windowed_campaigns_equal_the_plan_by_plan_reference() {
    let _lock = sink_lock();
    let image = ProgramImage::prepare_default(bw_ir::frontend::compile(KERNEL).expect("compiles"));
    for size in [1, W - 1, W, W + 1, 3 * W + 5] {
        for model in [FaultModel::BranchFlip, FaultModel::ConditionBitFlip] {
            for monitor in [MonitorMode::Enabled, MonitorMode::Off] {
                let mut base = CampaignConfig::new(size, model, 4).seed(0x16 + size as u64);
                base.sim.monitor = monitor;
                let reference = plan_by_plan(&image, &base);
                let in_init = reference.0.iter().filter(|r| fired_in_init(&image, r)).count();
                let mut counters = None;
                // `0` exercises the available-parallelism default.
                for workers in [0usize, 1, 2, 8] {
                    let what = format!("{size} x {model:?}, {monitor:?}, {workers} workers");
                    let result = run_campaign(&image, &base.clone().workers(workers))
                        .expect("golden run completes");
                    assert_payload(&result, &reference, &what);
                    // The deterministic telemetry, but for the worker gauge.
                    let det = result.telemetry.deterministic_part();
                    let first = counters.get_or_insert_with(|| det.counters().to_vec());
                    assert_eq!(first.as_slice(), det.counters(), "{what}");
                    // Every step is either run or skipped, and a campaign
                    // beyond a handful of injections skips some.
                    let stats = &result.worker_stats;
                    assert_eq!(stats.iter().map(|w| w.injections).sum::<u64>(), size as u64);
                    let run: u64 = stats.iter().map(|w| w.steps_run).sum();
                    let skipped: u64 = stats.iter().map(|w| w.steps_skipped).sum();
                    if in_init == 0 {
                        assert_eq!(run + skipped, reference.2, "{what}");
                    } else {
                        assert!(run + skipped >= reference.2, "{what}");
                    }
                    assert!(size < W || skipped > 0, "{what}: nothing was forked");
                }

                // The same under a span sink: the campaign forks all the
                // same, returns the same payload, and writes the same trace
                // at every worker count — as many records, and for each
                // injection the same spans; its recorder gets one
                // `injection` record per planned injection.
                let capture = Arc::new(Capture::default());
                bw_telemetry::set_trace_sink(Some(Arc::clone(&capture) as Arc<dyn Recorder>));
                let mut first = None;
                for workers in [1usize, 2, 8] {
                    let what = format!("{size} x {model:?}, {monitor:?}, {workers} workers, traced");
                    let config = base.clone().workers(workers);
                    let golden = SimEngine.run(&image, &config.sim);
                    let buf = TraceBuffer::default();
                    let result = run_campaign_with_golden_recorded(
                        &image,
                        &config,
                        &golden,
                        None,
                        &buf.recorder(),
                    )
                    .expect("golden run completes");
                    let trace = capture.take();
                    assert_payload(&result, &reference, &what);
                    assert_every_injection_once(&result, &buf.text(), size, &what);
                    let skipped: u64 = result.worker_stats.iter().map(|w| w.steps_skipped).sum();
                    assert!(size < W || skipped > 0, "{what}: nothing was forked");
                    assert!(trace.1.len() > size / 2, "{what}: injections leave spans");
                    assert_eq!(first.get_or_insert_with(|| trace.clone()), &trace, "{what}");
                }
                bw_telemetry::set_trace_sink(None);
            }
        }
    }
}

/// A plan for thread 0 whose index lies within `@init`'s branch count
/// fires in `@init` (see `InjectionPlan`): the campaign replays it from
/// step 0, and its record is the plan-by-plan one, on an `@init` branch.
#[test]
fn plans_that_fire_in_init_are_replayed_in_full() {
    let _lock = sink_lock();
    // `@init` takes 201 branches as thread 0; each thread's own loop 25.
    let image = ProgramImage::prepare_default(
        bw_ir::frontend::compile(
            r#"
            shared int n = 24;
            int data[256];
            @init func setup() {
                for (var i: int = 0; i < 200; i = i + 1) { data[i] = (i * 7) % 31; }
            }
            @spmd func f() {
                var t: int = threadid();
                var sum: int = 0;
                for (var i: int = 0; i < n; i = i + 1) {
                    if (data[t * n + i] > 12) { sum = sum + i; }
                }
                output(sum);
            }
            "#,
        )
        .expect("compiles"),
    );
    for model in [FaultModel::BranchFlip, FaultModel::ConditionBitFlip] {
        let base = CampaignConfig::new(W + 8, model, 2).seed(0x1217);
        let reference = plan_by_plan(&image, &base);
        let in_init: Vec<_> = reference.0.iter().filter(|r| fired_in_init(&image, r)).collect();
        // Thread 0's targets are drawn from its 48 parallel branches, all
        // of which are within `@init`'s 201: every one fires in `@init`.
        assert!(!in_init.is_empty(), "{model:?}: no plan for thread 0");
        assert_eq!(in_init.len(), reference.0.iter().filter(|r| r.plan.tid == 0).count());
        for workers in [1usize, 2] {
            let result = run_campaign(&image, &base.clone().workers(workers))
                .expect("golden run completes");
            assert_payload(&result, &reference, &format!("{model:?}, {workers} workers"));
        }
    }
}

#[test]
fn results_identical_at_any_worker_count() {
    let _lock = sink_lock();
    for bench in [Benchmark::Fft, Benchmark::Radix] {
        let image = image(bench);
        for model in [FaultModel::BranchFlip, FaultModel::ConditionBitFlip] {
            let base = CampaignConfig::new(32, model, 4).seed(0xd00d);
            let reference = run_campaign(&image, &base.clone().workers(1))
                .expect("golden run completes");
            // `0` exercises the available-parallelism default.
            for workers in [0usize, 2, 8] {
                let result = run_campaign(&image, &base.clone().workers(workers))
                    .expect("golden run completes");
                assert_eq!(
                    reference.records, result.records,
                    "{} {model:?}: records diverge at {workers} workers",
                    bench.name()
                );
                assert_eq!(reference.counts, result.counts);
            }
        }
    }
}

#[test]
fn non_completing_golden_run_is_an_error_not_a_panic() {
    let _lock = sink_lock();
    let image = image(Benchmark::Fft);
    let mut config = CampaignConfig::new(10, FaultModel::BranchFlip, 4);
    // A step budget no golden run can satisfy.
    config.sim.max_steps = 10;
    match run_campaign(&image, &config) {
        Err(CampaignError::GoldenRunFailed { outcome }) => {
            assert_eq!(outcome, RunOutcome::Hung);
        }
        other => panic!("expected GoldenRunFailed, got {other:?}"),
    }
}

#[test]
fn zero_threads_is_an_error_not_a_panic() {
    let image = image(Benchmark::Fft);
    let config = CampaignConfig::new(10, FaultModel::BranchFlip, 0);
    assert_eq!(run_campaign(&image, &config).unwrap_err(), CampaignError::NoThreads);
}
