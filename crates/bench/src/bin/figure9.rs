//! Regenerates Figure 9: SDC coverage with and without BLOCKWATCH under
//! branch-condition (bit-flip) faults, at 4 and 32 threads.
//!
//! `figure9 --help` prints its arguments.

fn main() -> std::process::ExitCode {
    bw_bench::EXHIBITS.main(Some("figure9"), |args| {
        bw_bench::coverage_figure(
            args,
            "Figure 9: coverage under branch-condition faults",
            None,
            blockwatch::FaultModel::ConditionBitFlip,
            0xf169,
            "90% -> 97%",
        )
    })
}
