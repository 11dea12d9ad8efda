//! Regenerates Figure 9: SDC coverage with and without BLOCKWATCH under
//! branch-condition (bit-flip) faults, at 4 and 32 threads.
//!
//! Usage: `figure9 [injections] [--workers N]` — `N` campaign worker
//! threads (default: available parallelism); results are bitwise identical
//! for any worker count.

fn main() {
    bw_bench::coverage_figure(
        "Figure 9: coverage under branch-condition faults",
        None,
        blockwatch::FaultModel::ConditionBitFlip,
        0xf169,
        "90% -> 97%",
    );
}
