//! # bw-analysis — BLOCKWATCH static similarity analysis
//!
//! The paper's core contribution: a compile-time analysis that classifies
//! every conditional branch of an SPMD program into a *similarity category*
//! (Table I), by propagating operand categories through the SSA IR with the
//! rules of Table II until a fixpoint (Figure 3), and an instrumentation
//! planner that turns categories into concrete runtime checks.
//!
//! * [`Category`] / [`combine`] — the lattice and propagation rules.
//! * [`ModuleAnalysis`] — the interprocedural fixpoint, with a per-iteration
//!   trace (reproducing the paper's Table III).
//! * [`CheckPlan`] / [`AnalysisConfig`] — instrumentation decisions: which
//!   branches are checked, with which [`CheckKind`], using which witness
//!   values, including the paper's two optimizations (promotion of `none`
//!   branches to `partial` grouping, and skipping branches inside critical
//!   sections) plus the loop-nesting cutoff of six.
//!
//! # Examples
//!
//! Classify the four branches of the paper's Figure 1 example:
//!
//! ```
//! use bw_analysis::{Category, ModuleAnalysis};
//!
//! let module = bw_ir::frontend::compile(r#"
//!     tid_counter int id = 0;
//!     shared int im = 16;
//!     int gp[64];
//!     mutex l;
//!     @spmd func slave() {
//!         lock(l);
//!         var procid: int = fetch_add(id, 1);
//!         unlock(l);
//!         if (procid == 0) { output(0); }              // threadID
//!         var private: int = 0;
//!         for (var i: int = 0; i <= im - 1; i = i + 1) { // shared
//!             if (gp[procid] > im - 1) {               // none
//!                 private = 1;
//!             } else {
//!                 private = 0 - 1;
//!             }
//!             if (private > 0) { output(private); }    // partial
//!         }
//!     }
//! "#).unwrap();
//!
//! let analysis = ModuleAnalysis::run(&module);
//! let hist = analysis.category_histogram();
//! assert_eq!(hist.thread_id, 1);
//! assert_eq!(hist.shared, 1);
//! assert_eq!(hist.none, 1);
//! assert_eq!(hist.partial, 1);
//! ```

#![warn(missing_docs)]

mod analysis;
mod category;
mod checks;

pub use analysis::{BranchInfo, CategoryHistogram, ModuleAnalysis};
pub use category::{combine, combine_all, combine_optimistic, Category};
pub use checks::{
    AnalysisConfig, BranchCheck, CheckKind, CheckPlan, ConditionInfo, SkipReason, TidCheck,
};
