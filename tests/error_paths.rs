//! Error-path coverage for the umbrella [`blockwatch::Error`]: every
//! variant must be reachable through the public pipeline API, render a
//! non-empty `Display` message, and expose its cause via
//! `std::error::Error::source`.

use std::error::Error as _;

use blockwatch::fault::run_campaign_with_golden_recorded;
use blockwatch::telemetry::NULL_RECORDER;
use blockwatch::vm::{Engine, SimEngine};
use blockwatch::{
    Benchmark, Blockwatch, CampaignConfig, CampaignError, Error, ExecConfig, FaultModel, Size,
};

fn assert_well_formed(err: &Error, expect_prefix: &str) {
    let msg = err.to_string();
    assert!(msg.starts_with(expect_prefix), "unexpected message: {msg}");
    assert!(msg.len() > expect_prefix.len(), "no detail beyond the prefix: {msg}");
    let cause = err.source().expect("umbrella error must expose its cause");
    assert!(!cause.to_string().is_empty());
}

#[test]
fn frontend_errors_surface_through_compile() {
    let err = Blockwatch::compile("this is not the mini-language !!").unwrap_err();
    assert!(matches!(err, Error::Frontend(_)), "got {err:?}");
    assert_well_formed(&err, "front-end error: ");
}

#[test]
fn verify_errors_surface_through_from_module() {
    let mut module = Benchmark::Fft.module(Size::Test).expect("port compiles");
    // Break SSA structure: a function with no blocks cannot verify.
    module.funcs[0].blocks.clear();
    let err = Blockwatch::from_module(module).unwrap_err();
    assert!(matches!(err, Error::Verify(_)), "got {err:?}");
    assert_well_formed(&err, "IR verification error: ");
}

#[test]
fn campaign_errors_surface_through_campaign() {
    let bw = Blockwatch::from_module(Benchmark::Fft.module(Size::Test).expect("port compiles"))
        .expect("verifies");

    // NoThreads: zero-thread configuration.
    let err = bw.campaign_runner(1, FaultModel::BranchFlip, 0).run().unwrap_err();
    assert!(matches!(err, Error::Campaign(CampaignError::NoThreads)), "got {err:?}");
    assert_well_formed(&err, "campaign error: ");

    // GoldenRunFailed: a step budget no golden run can satisfy.
    let err = bw
        .campaign_runner(1, FaultModel::BranchFlip, 4)
        .sim(ExecConfig::new(4).max_steps(10))
        .run()
        .unwrap_err();
    assert!(
        matches!(err, Error::Campaign(CampaignError::GoldenRunFailed { .. })),
        "got {err:?}"
    );
    assert_well_formed(&err, "campaign error: ");

    // GoldenMismatch: cached golden profiled at a different thread count,
    // wrapped into the umbrella type via From.
    let golden = SimEngine.run(bw.image(), &ExecConfig::new(2));
    let config = CampaignConfig::new(1, FaultModel::BranchFlip, 4);
    let err: Error =
        run_campaign_with_golden_recorded(bw.image(), &config, &golden, None, &NULL_RECORDER)
            .unwrap_err()
            .into();
    assert!(
        matches!(err, Error::Campaign(CampaignError::GoldenMismatch { expected: 4, actual: 2 })),
        "got {err:?}"
    );
    assert_well_formed(&err, "campaign error: ");
}

#[test]
fn umbrella_error_boxes_for_question_mark_chains() {
    fn pipeline() -> Result<Blockwatch, Box<dyn std::error::Error>> {
        Ok(Blockwatch::compile("definitely wrong")?)
    }
    let err = pipeline().unwrap_err();
    assert!(!err.to_string().is_empty());
}
