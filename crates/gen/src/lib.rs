//! # bw-gen — generative testing for the BLOCKWATCH pipeline
//!
//! A seeded random generator of well-formed SPMD [`bw_ir`] modules plus a
//! differential test oracle that drives the whole pipeline — parse →
//! verify → analyze → instrument → link → simulate — and asserts the
//! properties the paper's design promises:
//!
//! 1. **Zero false positives**: a fault-free run never produces a monitor
//!    violation, at any thread count.
//! 2. **Category soundness**: every instrumented branch's event stream
//!    exhibits exactly the cross-thread pattern its static similarity
//!    category predicts (checked by an independent re-implementation of
//!    the expected patterns, not by the monitor itself).
//! 3. **Differential transparency**: instrumented and uninstrumented runs
//!    produce identical program-visible results.
//!
//! The [`fuzz`](run_fuzz) driver sweeps seeds, [`shrink`]s any failure to a
//! minimal reproducer, and reports deterministically; `bw fuzz` exposes it
//! on the command line. [`sabotaged_image`] plants a category-propagation
//! regression to prove the oracle actually catches bugs.

#![warn(missing_docs)]

mod fuzz;
mod generate;
mod oracle;
mod shrink;

pub use fuzz::{check_module, run_fuzz, FuzzConfig, FuzzFailure, FuzzReport};
pub use generate::{generate_module, GenConfig};
pub use oracle::{
    check_image, sabotaged_image, CheckFailure, CoverageCounts, OracleStats, DEFAULT_THREADS,
    ORACLE_MAX_STEPS,
};
pub use shrink::shrink;
