//! Regenerates Figure 8: SDC coverage with and without BLOCKWATCH under
//! branch-flip faults, at 4 and 32 threads.
//!
//! `figure8 --help` prints its arguments.

fn main() -> std::process::ExitCode {
    bw_bench::EXHIBITS.main(Some("figure8"), |args| {
        bw_bench::coverage_figure(
            args,
            "Figure 8: coverage under branch-flip faults",
            Some("(coverage = 1 - SDC fraction of activated faults; higher is better)"),
            blockwatch::FaultModel::BranchFlip,
            0xf168,
            "83% -> 97-98%",
        )
    })
}
