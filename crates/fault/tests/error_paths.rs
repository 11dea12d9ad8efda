//! Error-path coverage for [`CampaignError`]: every variant must be
//! reachable through the public API (no internal constructors, no panics)
//! and must render a useful, non-empty `Display` message.

use bw_fault::{
    run_campaign, run_campaign_with_golden_recorded, CampaignConfig, CampaignError,
    CampaignResult, FaultModel,
};
use bw_splash::{Benchmark, Size};
use bw_telemetry::NULL_RECORDER;
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
