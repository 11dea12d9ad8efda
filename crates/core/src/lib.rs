//! # blockwatch — leveraging similarity in parallel programs for error detection
//!
//! A from-scratch Rust reproduction of **"BLOCKWATCH: Leveraging Similarity
//! in Parallel Programs for Error Detection"** (Wei & Pattabiraman, DSN
//! 2012): a compile-time analysis classifies every branch of an SPMD
//! program by how its condition data relates across threads (`shared`,
//! `threadID`, `partial`, `none`), and a lock-free runtime monitor flags
//! any execution that deviates from the statically inferred similarity —
//! detecting transient hardware faults in control data with no false
//! positives.
//!
//! This crate is the umbrella: [`Blockwatch`] drives the full pipeline
//! (compile → analyze → instrument → execute/campaign), [`reports`]
//! regenerates every table and figure of the paper's evaluation, and
//! [`trace`] and [`timeline`] read a run's JSONL trace back. The
//! heavy lifting lives in the component crates, re-exported here:
//!
//! * [`ir`] — SSA IR, builder, verifier, mini-language front-end.
//! * [`analysis`] — the Table II similarity fixpoint + instrumentation plan.
//! * [`monitor`] — Lamport SPSC queues, two-level table, checkers.
//! * [`vm`] — deterministic simulated engine (32-core cost model) and
//!   real-threads engine.
//! * [`fault`] — branch-flip / condition-bit-flip injection campaigns.
//! * [`splash`] — ports of the seven SPLASH-2 benchmarks.
//! * [`gen`] — seeded random SPMD program generator, differential test
//!   oracle, and the `bw fuzz` shrinking loop.
//!
//! # Examples
//!
//! Detect an injected control-data fault in FFT. Campaigns run on a
//! sharded worker pool (here 2 threads) and are bitwise deterministic for
//! any worker count; every failure mode is an [`Error`], not a panic:
//!
//! ```
//! use blockwatch::splash::{Benchmark, Size};
//! use blockwatch::{Blockwatch, FaultModel};
//!
//! let bw = Blockwatch::from_module(Benchmark::Fft.module(Size::Test)?)?;
//! let campaign = bw
//!     .campaign_runner(25, FaultModel::BranchFlip, 4)
//!     .workers(2)
//!     .run()?;
//! assert!(campaign.counts.detected > 0);
//! # Ok::<(), blockwatch::Error>(())
//! ```

#![warn(missing_docs)]

#[doc(hidden)]
pub mod cli;
mod error;
mod pipeline;
pub mod reports;
pub mod timeline;
pub mod trace;

pub use error::Error;
pub use pipeline::{Blockwatch, CampaignRunner};
pub use timeline::{PhaseProfile, PhaseStat, PhaseThread, TimelineReport};
pub use trace::{ForensicsReport, SeriesReport, TraceSummary};

pub use bw_analysis as analysis;
pub use bw_fault as fault;
pub use bw_gen as gen;
pub use bw_ir as ir;
pub use bw_monitor as monitor;
pub use bw_splash as splash;
pub use bw_telemetry as telemetry;
pub use bw_vm as vm;

pub use bw_analysis::{AnalysisConfig, Category, CategoryHistogram, CheckKind, CheckPlan};
pub use bw_fault::{
    BatchResult, CampaignBatch, CampaignConfig, CampaignError, CampaignProgress, CampaignResult,
    FaultModel, FaultOutcome, OutcomeCounts, WorkerStats,
};
pub use bw_splash::{Benchmark, Size};
pub use bw_telemetry::{
    JsonlRecorder, MetricRegistry, Recorder, Sampler, TelemetrySnapshot, NULL_RECORDER,
};
pub use bw_vm::{EngineKind, ExecConfig, MachineModel, MonitorMode, RunOutcome, RunResult};
