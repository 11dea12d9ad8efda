//! # bw-fault — fault-injection campaigns for BLOCKWATCH
//!
//! Reproduces the paper's PIN-based fault-injection methodology at
//! interpreter level (Section IV):
//!
//! 1. **Profile**: a golden run records each thread's dynamic branch count.
//! 2. **Target**: pick a uniformly random thread `j` and a uniformly random
//!    dynamic branch `k` of that thread.
//! 3. **Inject**: flip one bit — either the flag register
//!    ([`FaultModel::BranchFlip`], the branch goes the wrong way) or the
//!    branch's condition data ([`FaultModel::ConditionBitFlip`], persists
//!    in the register and may or may not flip the branch).
//!
//! Each run is then classified ([`FaultOutcome`]) as Detected / Crashed /
//! Hung / Masked / SDC against the golden output, and
//! [`OutcomeCounts::coverage`] computes the paper's metric
//! `coverage = 1 − SDC_fraction` over activated faults.
//!
//! Campaigns run in three stages — plan, parallel execute, deterministic
//! reduce (see [`run_campaign`]'s module) — so the result is bitwise
//! identical for any [`CampaignConfig::workers`] setting, and the whole
//! path is panic-free: misconfigurations surface as [`CampaignError`].
//!
//! # Examples
//!
//! ```
//! use bw_fault::{run_campaign, CampaignConfig, FaultModel};
//! use bw_vm::ProgramImage;
//!
//! let module = bw_ir::frontend::compile(r#"
//!     shared int n = 16;
//!     @spmd func slave() {
//!         for (var i: int = 0; i < n; i = i + 1) { output(i); }
//!     }
//! "#).unwrap();
//! let image = ProgramImage::prepare_default(module);
//! let config = CampaignConfig::new(20, FaultModel::BranchFlip, 4)
//!     .seed(0xfa_017)
//!     .workers(2);
//! let campaign = run_campaign(&image, &config).expect("golden run completes");
//! assert_eq!(campaign.records.len(), 20);
//! assert!(campaign.coverage() >= 0.0 && campaign.coverage() <= 1.0);
//! ```

#![warn(missing_docs)]

mod campaign;
mod injector;
mod liveness;

pub use campaign::{
    classify, false_positive_runs, plan_campaign, run_campaign,
    run_campaign_with_golden_recorded, CampaignConfig, CampaignError, CampaignProgress,
    CampaignResult, FaultOutcome, InjectionRecord, OutcomeCounts, ProgressFn, TraceInjection,
    WorkerStats,
};
pub use injector::{FaultModel, InjectionHook, InjectionPlan};
pub use liveness::ConditionLiveness;
