//! The telemetry determinism contract: for a fixed (program, config,
//! seed), the **counter and gauge** part of a run's telemetry snapshot is
//! bitwise reproducible — only histograms (wall-clock timings) may differ
//! between two identical runs. This is what makes the counters usable as
//! regression oracles for the figure-8/9 overhead attribution.

use std::io::{self, Write};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use blockwatch::reports::ForensicsReport;
use blockwatch::splash::{Benchmark, Size};
use blockwatch::timeline::{PhaseProfile, TimelineReport};
use blockwatch::{
    Blockwatch, EngineKind, ExecConfig, FaultModel, JsonlRecorder, MetricRegistry, Recorder,
    Sampler, SeriesReport,
};

/// Serializes every test here that runs an engine. The `--trace-spans`
/// sink is process-global: an engine run on another test thread while one
/// test has it installed writes its spans into that test's trace (the
/// straggler profile then sees two programs' phases). Tests that install
/// the sink and tests that merely run both hold this.
static TRACE_SINK_LOCK: Mutex<()> = Mutex::new(());

fn trace_sink_lock() -> std::sync::MutexGuard<'static, ()> {
    TRACE_SINK_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Two same-seed simulated runs produce identical deterministic snapshots.
#[test]
fn same_seed_runs_have_identical_counters() {
    let _guard = trace_sink_lock();
    let bw = Blockwatch::from_module(Benchmark::Fft.module(Size::Test).unwrap()).unwrap();
    let config = ExecConfig::new(4).seed(0xdead_beef);
    let a = bw.run_on(EngineKind::Sim, &config);
    let b = bw.run_on(EngineKind::Sim, &config);

    let (ta, tb) = (a.telemetry(), b.telemetry());
    let (da, db) = (ta.deterministic_part(), tb.deterministic_part());
    assert_eq!(da.counters(), db.counters(), "counters must be reproducible");
    assert_eq!(da.gauges(), db.gauges(), "gauges must be reproducible");

    // The snapshot agrees with the run's own bookkeeping.
    assert_eq!(ta.counter("vm.instructions"), Some(a.total_steps));
    assert_eq!(ta.counter("vm.events_sent"), Some(a.events_sent));
    assert_eq!(
        ta.counter("vm.branches"),
        Some(a.branches_per_thread.iter().sum())
    );
    // Cycle attribution is internally consistent: the events bucket is
    // nonzero for an instrumented program.
    assert!(ta.counter("vm.cycles.events").is_some());
    // Per-thread step counters line up with the steps_per_thread vector.
    for (tid, &steps) in a.steps_per_thread.iter().enumerate() {
        assert_eq!(
            ta.counter(&format!("vm.thread.{tid}.steps")),
            Some(steps),
            "thread {tid} step counter"
        );
    }
}

/// A different seed is allowed to (and here does) change scheduling, but
/// each seed remains self-consistent.
#[test]
fn deterministic_part_excludes_wall_clock() {
    let _guard = trace_sink_lock();
    let bw = Blockwatch::from_module(Benchmark::Radix.module(Size::Test).unwrap()).unwrap();
    let result = bw.run(2);
    let det = result.telemetry().deterministic_part();
    assert!(det.histograms().is_empty(), "histograms are wall-clock, not deterministic");
    // The full pipeline snapshot keeps its stage-timing histograms.
    let pipeline = bw.telemetry();
    assert_eq!(pipeline.histograms().len(), 5, "one histogram per pipeline stage");
    assert!(pipeline.deterministic_part().histograms().is_empty());
}

/// Campaigns at one worker preserve the contract end to end: records and
/// outcome counters are reproducible; only wall-time histograms differ.
#[test]
fn same_seed_campaigns_have_identical_outcome_counters() {
    let _guard = trace_sink_lock();
    let bw = Blockwatch::from_module(Benchmark::Fft.module(Size::Test).unwrap()).unwrap();
    let run = || {
        bw.campaign_runner(20, FaultModel::BranchFlip, 2)
            .seed(11)
            .workers(1)
            .run()
            .unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a.records, b.records);
    let (da, db) = (a.telemetry.deterministic_part(), b.telemetry.deterministic_part());
    assert_eq!(da.counters(), db.counters());
    assert_eq!(
        a.telemetry.counter("campaign.outcome.detected"),
        Some(a.counts.detected as u64)
    );
}

/// A writer appending into a shared buffer, so the test can read the
/// JSONL trace back without touching the filesystem.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Live sampling is observability-only: a same-seed campaign traced with
/// a background [`Sampler`] attached produces the identical records,
/// identical deterministic telemetry, and a byte-identical `bw report` —
/// the `sample` records ride alongside without perturbing anything.
#[test]
fn sampling_does_not_perturb_campaign_determinism() {
    let _guard = trace_sink_lock();
    let bw = Blockwatch::from_module(Benchmark::Fft.module(Size::Test).unwrap()).unwrap();
    let run = |with_sampler: bool| {
        let buf = SharedBuf::default();
        let rec = Arc::new(JsonlRecorder::new(Box::new(buf.clone())));
        let sampler = with_sampler.then(|| {
            Sampler::start(
                MetricRegistry::global(),
                Arc::clone(&rec) as Arc<dyn Recorder>,
                Duration::from_millis(2),
            )
            .unwrap()
        });
        let result = bw
            .campaign_runner(20, FaultModel::BranchFlip, 2)
            .seed(11)
            .workers(1)
            .recorder(rec.as_ref())
            .run()
            .unwrap();
        if let Some(sampler) = sampler {
            sampler.stop();
        }
        rec.flush();
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        (result, text)
    };
    let (sampled, sampled_trace) = run(true);
    let (plain, plain_trace) = run(false);

    assert_eq!(sampled.records, plain.records);
    let (ds, dp) = (
        sampled.telemetry.deterministic_part(),
        plain.telemetry.deterministic_part(),
    );
    assert_eq!(ds.counters(), dp.counters());
    assert_eq!(ds.gauges(), dp.gauges());

    // The sampled trace actually contains sample records, naming the
    // campaign and engine counters `bw top` renders...
    let series = SeriesReport::parse(&sampled_trace).unwrap();
    for key in [
        "live.campaign.planned",
        "live.campaign.completed",
        "live.campaign.detected",
        "live.engine.events_processed",
    ] {
        assert!(
            series.ticks.iter().any(|tick| tick.value(key).is_some()),
            "no sample names {key}\n{sampled_trace}"
        );
    }
    assert!(!plain_trace.contains("\"ev\":\"sample\""));
    // ...and the forensics view ignores them: byte-identical reports.
    let report_sampled = ForensicsReport::parse(&sampled_trace).unwrap().render();
    let report_plain = ForensicsReport::parse(&plain_trace).unwrap().render();
    assert_eq!(report_sampled, report_plain);
}

/// Span tracing is observability-only on the run path: a same-seed sim
/// run with the `--trace-spans` sink installed produces byte-identical
/// outputs, violations and deterministic telemetry.
#[test]
fn span_tracing_does_not_perturb_run_determinism() {
    let _guard = trace_sink_lock();
    let bw = Blockwatch::from_module(Benchmark::Fft.module(Size::Test).unwrap()).unwrap();
    let run = |traced: bool| {
        let buf = SharedBuf::default();
        let rec = Arc::new(JsonlRecorder::new(Box::new(buf.clone())));
        if traced {
            blockwatch::telemetry::set_trace_sink(Some(Arc::clone(&rec) as Arc<dyn Recorder>));
        }
        let result = bw.run_on(EngineKind::Sim, &ExecConfig::new(4).monitor_shards(Some(2)));
        blockwatch::telemetry::set_trace_sink(None);
        rec.flush();
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        (result, text)
    };
    let (traced, trace) = run(true);
    let (plain, plain_trace) = run(false);

    assert_eq!(traced.outputs, plain.outputs);
    assert_eq!(traced.violations, plain.violations);
    assert_eq!(traced.parallel_cycles, plain.parallel_cycles);
    let (dt, dp) =
        (traced.telemetry().deterministic_part(), plain.telemetry().deterministic_part());
    assert_eq!(dt.counters(), dp.counters());
    assert_eq!(dt.gauges(), dp.gauges());
    assert!(trace.contains("\"ev\":\"tspan\""), "traced run emits spans");
    assert!(trace.contains("\"cat\":\"barrier_phase\""), "{trace}");
    assert!(!plain_trace.contains("\"ev\":\"tspan\""));
}

/// ...and on the campaign path: records, outcome counters and the
/// rendered forensics report are byte-identical with tracing on or off
/// and at 1 or 4 workers, at a multi-shard configuration. A sink does not
/// change how a campaign executes either: its injections are forks of a
/// shared prefix all the same, and skip the same steps.
#[test]
fn span_tracing_does_not_perturb_campaign_determinism() {
    let _guard = trace_sink_lock();
    let bw = Blockwatch::from_module(Benchmark::Fft.module(Size::Test).unwrap()).unwrap();
    let run = |traced: bool, workers: usize| {
        let buf = SharedBuf::default();
        let rec = Arc::new(JsonlRecorder::new(Box::new(buf.clone())));
        if traced {
            blockwatch::telemetry::set_trace_sink(Some(Arc::clone(&rec) as Arc<dyn Recorder>));
        }
        let result = bw
            .campaign_runner(40, FaultModel::BranchFlip, 2)
            .seed(11)
            .workers(workers)
            .monitor_shards(Some(2))
            .recorder(rec.as_ref())
            .run()
            .unwrap();
        blockwatch::telemetry::set_trace_sink(None);
        rec.flush();
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        (result, text)
    };
    let skipped = |r: &blockwatch::CampaignResult| -> u64 {
        r.worker_stats.iter().map(|w| w.steps_skipped).sum()
    };
    let (reference, reference_trace) = run(false, 1);
    let reference_report = ForensicsReport::parse(&reference_trace).unwrap().render();
    for workers in [1, 4] {
        let (traced, trace) = run(true, workers);
        let (plain, plain_trace) = run(false, workers);
        for (result, trace) in [(&traced, &trace), (&plain, &plain_trace)] {
            assert_eq!(result.records, reference.records);
            assert_eq!(result.counts, reference.counts);
            assert_eq!(result.aborted, reference.aborted);
            // `campaign.workers` is the one gauge that says how it was run.
            assert_eq!(
                result.telemetry.deterministic_part().counters(),
                reference.telemetry.deterministic_part().counters()
            );
            // The forensics view skips tspan records entirely: byte-identical.
            assert_eq!(ForensicsReport::parse(trace).unwrap().render(), reference_report);
        }
        // One window size per worker count, so the same forks either way.
        assert!(skipped(&plain) > 0, "an untraced campaign forks");
        assert_eq!(skipped(&traced), skipped(&plain), "and so does a traced one");
        assert!(trace.contains("\"cat\":\"stage\""), "campaign stages traced");
        assert!(trace.contains("\"cat\":\"injection\""), "injections traced");
        assert!(trace.contains("\"cat\":\"barrier_phase\""), "and their runs");
        assert!(!plain_trace.contains("\"ev\":\"tspan\""));
    }
}

/// A span sink that keeps the records it is sent.
#[derive(Default)]
struct Capture(Mutex<Vec<Vec<(String, blockwatch::telemetry::Value<'static>)>>>);

impl Recorder for Capture {
    fn record(&self, _event: &str, fields: &[(&str, blockwatch::telemetry::Value)]) {
        let fields = fields.iter().map(|(k, v)| (k.to_string(), v.clone().into_owned())).collect();
        self.0.lock().unwrap().push(fields);
    }
}

impl Capture {
    /// The simulated-cycle records captured since the last call, grouped
    /// by the `inj` they are scoped to, each group in the order written.
    /// (An injection's one wall-clock record, its span on the worker lane,
    /// holds wall-clock values and is left out, as is the golden run.)
    fn take_by_injection(&self) -> std::collections::BTreeMap<u64, Vec<String>> {
        let mut by_injection = std::collections::BTreeMap::<u64, Vec<String>>::new();
        for fields in std::mem::take(&mut *self.0.lock().unwrap()) {
            let field = |key: &str| fields.iter().find(|(k, _)| k == key).map(|(_, v)| v);
            if field("dom").and_then(|v| v.as_str()) != Some("cyc") {
                continue;
            }
            if let Some(inj) = field("inj").and_then(|v| v.as_u64()) {
                by_injection.entry(inj).or_default().push(format!("{fields:?}"));
            }
        }
        by_injection
    }
}

/// The full-replay side of a traced campaign, which no longer has one of
/// its own: the `tspan` records a campaign writes for each injection — by
/// forking it from a shared prefix, or replaying it when it fires in
/// `@init` — are, field for field and in order, those of a plan-by-plan
/// `InjectionHook` + `run_hooked` under the same `TraceScope`. On the
/// three ports the benchmark injects into, with its fault models.
#[test]
fn traced_campaign_spans_equal_plan_by_plan_full_replays() {
    use blockwatch::fault::{plan_campaign, CampaignConfig, InjectionHook};
    use blockwatch::telemetry::{TraceScope, Value};
    use blockwatch::vm::{Engine, SimEngine};

    let _guard = trace_sink_lock();
    for (bench, size, model, injections) in [
        (Benchmark::Raytrace, Size::Test, FaultModel::BranchFlip, 40),
        (Benchmark::Fmm, Size::Test, FaultModel::ConditionBitFlip, 6),
        (Benchmark::OceanNoncontig, Size::Small, FaultModel::BranchFlip, 40),
    ] {
        let bw = Blockwatch::from_module(bench.module(size).unwrap()).unwrap();
        let nthreads = 4;
        let golden = bw.golden(&ExecConfig::new(nthreads));
        let capture = Arc::new(Capture::default());
        blockwatch::telemetry::set_trace_sink(Some(Arc::clone(&capture) as Arc<dyn Recorder>));

        // One worker: every injection is scoped `wid` 0, and the campaign's
        // two windows (32 + 8) are walked in turn.
        let result =
            bw.campaign_runner(injections, model, nthreads).seed(17).workers(1).run().unwrap();
        let campaign = capture.take_by_injection();

        let config = CampaignConfig::new(injections, model, nthreads).seed(17);
        let faulty = config
            .sim
            .clone()
            .max_steps(golden.total_steps.saturating_mul(8).saturating_add(100_000));
        let plans = plan_campaign(&golden.branches_per_thread, &config);
        for (inj, plan) in plans.iter().enumerate() {
            let _scope = TraceScope::enter(&[("inj", Value::from(inj)), ("wid", Value::U64(0))]);
            SimEngine.run_hooked(bw.image(), &faulty, &InjectionHook::new(*plan));
        }
        let replayed = capture.take_by_injection();
        blockwatch::telemetry::set_trace_sink(None);

        let name = bench.name();
        let skipped: u64 = result.worker_stats.iter().map(|w| w.steps_skipped).sum();
        assert!(skipped > 0, "{name}: the campaign forked");
        // (A run that crashes before its first barrier leaves none.)
        assert!(replayed.len() > injections / 2, "{name}: injections leave spans");
        assert_eq!(
            campaign.keys().collect::<Vec<_>>(),
            replayed.keys().collect::<Vec<_>>(),
            "{name}"
        );
        for (inj, spans) in &replayed {
            assert_eq!(&campaign[inj], spans, "{name}: injection {inj}, {:?}", plans[*inj as usize]);
        }
    }
}

/// A fixture where thread 0 does ~40x the work of its peers before the
/// first barrier; with `reps` constant the same source is symmetric.
fn straggler_source(straggle: bool) -> String {
    let boost = if straggle {
        "if (tid == 0) { reps = 40; }"
    } else {
        ""
    };
    format!(
        r#"
module straggler;

shared int n = 60;
int acc[33];

barrier phase;

@spmd func slave() {{
    var tid: int = threadid();
    var reps: int = 1;
    {boost}
    for (var r: int = 0; r < reps; r = r + 1) {{
        for (var i: int = 0; i < n; i = i + 1) {{
            acc[tid] = acc[tid] + i;
        }}
    }}
    barrier(phase);
    acc[tid] = acc[tid] + 1;
    barrier(phase);
    output(acc[tid]);
}}
"#
    )
}

/// Runs a source under the span sink and returns the phase profile of its
/// timeline.
fn traced_profile(source: &str) -> PhaseProfile {
    let _guard = trace_sink_lock();
    let bw = Blockwatch::compile(source).unwrap();
    let buf = SharedBuf::default();
    let rec = Arc::new(JsonlRecorder::new(Box::new(buf.clone())));
    blockwatch::telemetry::set_trace_sink(Some(Arc::clone(&rec) as Arc<dyn Recorder>));
    let result = bw.run_on(EngineKind::Sim, &ExecConfig::new(4));
    blockwatch::telemetry::set_trace_sink(None);
    assert_eq!(result.outcome, blockwatch::RunOutcome::Completed);
    rec.flush();
    let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
    TimelineReport::parse(&text).unwrap().phase_profile()
}

/// The phase profile flags the seeded straggler thread (and only it).
#[test]
fn phase_profile_flags_seeded_straggler() {
    let profile = traced_profile(&straggler_source(true));
    assert_eq!(profile.dom, "cyc");
    assert!(!profile.phases.is_empty());
    assert_eq!(profile.deviant_threads(), vec![0], "{}", profile.render());
    let text = profile.render();
    assert!(text.contains("DEVIANT"), "{text}");
    assert!(text.contains("deviant thread(s): t0"), "{text}");
}

/// The same program without the seeded imbalance profiles clean.
#[test]
fn phase_profile_reports_symmetric_program_similar() {
    let profile = traced_profile(&straggler_source(false));
    assert!(!profile.phases.is_empty());
    assert_eq!(profile.deviant_threads(), Vec::<u32>::new(), "{}", profile.render());
    assert!(profile.render().contains("all threads similar in every phase"));
}
