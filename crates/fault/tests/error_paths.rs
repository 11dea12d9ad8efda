//! Error-path coverage for [`CampaignError`]: every variant must be
//! reachable through the public API (no internal constructors, no panics)
//! and must render a useful, non-empty `Display` message.

use bw_fault::{
    run_campaign, run_campaign_with_golden_recorded, CampaignConfig, CampaignError,
    CampaignResult, FaultModel,
};
use std::sync::Arc;

use bw_splash::{Benchmark, Size};
use bw_telemetry::{
    records, Recorder, SpanRecord, TraceBuffer, Value, NULL_RECORDER, TRACE_EVENT,
};
use bw_vm::{Engine, ExecConfig, ProgramImage, RunOutcome, RunResult, SimEngine};

/// The cached-golden entry point with no progress callback and no trace.
fn run_campaign_with_golden(
    image: &ProgramImage,
    config: &CampaignConfig,
    golden: &RunResult,
) -> Result<CampaignResult, CampaignError> {
    run_campaign_with_golden_recorded(image, config, golden, None, &NULL_RECORDER)
}

fn image() -> ProgramImage {
    ProgramImage::prepare_default(Benchmark::Fft.module(Size::Test).expect("port compiles"))
}

#[test]
fn golden_mismatch_when_cached_golden_has_wrong_thread_count() {
    let image = image();
    // Golden run profiled at 2 threads, campaign configured for 4.
    let golden = SimEngine.run(&image, &ExecConfig::new(2));
    assert_eq!(golden.outcome, RunOutcome::Completed);
    let config = CampaignConfig::new(4, FaultModel::BranchFlip, 4);
    let err = run_campaign_with_golden(&image, &config, &golden).unwrap_err();
    assert_eq!(err, CampaignError::GoldenMismatch { expected: 4, actual: 2 });
}

#[test]
fn cached_golden_path_rejects_failed_golden_runs() {
    let image = image();
    // A step budget no run can satisfy: the cached result ends Hung, and
    // the campaign must refuse it rather than inject into a broken run.
    let golden = SimEngine.run(&image, &ExecConfig::new(4).max_steps(10));
    assert_eq!(golden.outcome, RunOutcome::Hung);
    let config = CampaignConfig::new(4, FaultModel::BranchFlip, 4);
    let err = run_campaign_with_golden(&image, &config, &golden).unwrap_err();
    assert_eq!(err, CampaignError::GoldenRunFailed { outcome: RunOutcome::Hung });
}

#[test]
fn cached_golden_path_rejects_zero_threads_first() {
    let image = image();
    let golden = SimEngine.run(&image, &ExecConfig::new(4));
    let config = CampaignConfig::new(4, FaultModel::BranchFlip, 0);
    let err = run_campaign_with_golden(&image, &config, &golden).unwrap_err();
    assert_eq!(err, CampaignError::NoThreads);
}

#[test]
fn every_variant_reachable_via_run_campaign_displays_distinctly() {
    let image = image();

    let no_threads = run_campaign(&image, &CampaignConfig::new(1, FaultModel::BranchFlip, 0))
        .unwrap_err();
    let mut starved = CampaignConfig::new(1, FaultModel::BranchFlip, 4);
    starved.sim.max_steps = 10;
    let golden_failed = run_campaign(&image, &starved).unwrap_err();
    let mismatch = run_campaign_with_golden(
        &image,
        &CampaignConfig::new(1, FaultModel::BranchFlip, 4),
        &SimEngine.run(&image, &ExecConfig::new(2)),
    )
    .unwrap_err();

    let messages: Vec<String> = [no_threads, golden_failed, mismatch]
        .iter()
        .map(|e| e.to_string())
        .collect();
    for (i, m) in messages.iter().enumerate() {
        assert!(!m.is_empty(), "variant {i} has an empty Display");
        for (j, other) in messages.iter().enumerate() {
            assert!(i == j || m != other, "variants {i} and {j} render identically: {m}");
        }
    }
    assert!(messages[0].contains("zero threads"));
    assert!(messages[1].contains("golden run"));
    assert!(messages[2].contains("thread"));
}

#[test]
fn campaign_error_implements_std_error() {
    // `CampaignError` participates in `?`-chains as a boxed error.
    let err: Box<dyn std::error::Error> = Box::new(CampaignError::NoThreads);
    assert!(!err.to_string().is_empty());
}

/// The stage records of `trace`, `(ev, name, duration)` in trace order: the
/// `tspan` on the timeline's `main` lane and the `span` record of each of
/// the campaign's three stages.
fn stage_records(trace: &str) -> Vec<(String, String, u64)> {
    let stages = ["campaign.plan", "campaign.execute", "campaign.reduce"];
    records(trace)
        .map(|rec| rec.expect("valid JSONL line"))
        .filter_map(|rec| {
            let name = rec.field("name").and_then(Value::as_str)?.to_string();
            let dur = match &*rec.ev() {
                TRACE_EVENT => rec.field("dur"),
                SpanRecord::EV => rec.field("dur_us"),
                _ => None,
            };
            let dur = dur.and_then(Value::as_u64)?;
            stages.contains(&name.as_str()).then(|| (rec.ev().into_owned(), name, dur))
        })
        .collect()
}

/// Each stage is measured once: under a span sink, a campaign writes its
/// stage's `tspan`, then its `span` record, with one duration. A campaign
/// refused before it plans (zero threads, a failed golden run, a golden run
/// at another thread count) writes neither.
#[test]
fn stage_records_are_one_measurement_and_a_refused_campaign_writes_none() {
    let image = image();
    let config = CampaignConfig::new(2, FaultModel::BranchFlip, 4).workers(1);
    let golden = SimEngine.run(&image, &config.sim);
    let hung = SimEngine.run(&image, &ExecConfig::new(4).max_steps(10));
    let two_threads = SimEngine.run(&image, &ExecConfig::new(2));
    let no_threads = CampaignConfig::new(2, FaultModel::BranchFlip, 0);

    let buf = TraceBuffer::default();
    let recorder = Arc::new(buf.recorder());
    bw_telemetry::set_trace_sink(Some(Arc::clone(&recorder) as Arc<dyn Recorder>));
    for (config, golden) in [(&no_threads, &golden), (&config, &hung), (&config, &two_threads)] {
        run_campaign_with_golden_recorded(&image, config, golden, None, recorder.as_ref())
            .expect_err("the campaign is refused");
    }
    recorder.flush();
    let refused = stage_records(&buf.text());
    run_campaign_with_golden_recorded(&image, &config, &golden, None, recorder.as_ref())
        .expect("the campaign runs");
    bw_telemetry::set_trace_sink(None);
    recorder.flush();

    assert_eq!(refused, []);
    let stages = stage_records(&buf.text());
    let evs: Vec<(&str, &str)> = stages.iter().map(|(ev, name, _)| (&**ev, &**name)).collect();
    assert_eq!(
        evs,
        [
            (TRACE_EVENT, "campaign.plan"),
            (SpanRecord::EV, "campaign.plan"),
            (TRACE_EVENT, "campaign.execute"),
            (SpanRecord::EV, "campaign.execute"),
            (TRACE_EVENT, "campaign.reduce"),
            (SpanRecord::EV, "campaign.reduce"),
        ]
    );
    for pair in stages.chunks(2) {
        assert_eq!(pair[0].2, pair[1].2, "{} is measured once", pair[0].1);
    }
}
