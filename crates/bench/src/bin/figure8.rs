//! Regenerates Figure 8: SDC coverage with and without BLOCKWATCH under
//! branch-flip faults, at 4 and 32 threads.
//!
//! Usage: `figure8 [injections] [--workers N]` — `N` campaign worker
//! threads (default: available parallelism); results are bitwise identical
//! for any worker count.

fn main() {
    bw_bench::coverage_figure(
        "Figure 8: coverage under branch-flip faults",
        Some("(coverage = 1 - SDC fraction of activated faults; higher is better)"),
        blockwatch::FaultModel::BranchFlip,
        0xf168,
        "83% -> 97-98%",
    );
}
