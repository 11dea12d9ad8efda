//! The Section IV false-positive experiment: 100 fault-free runs of every
//! instrumented benchmark; BLOCKWATCH must report zero violations.

use blockwatch::reports::false_positive_sweep;
use blockwatch::Size;
use bw_bench::render_table;

fn main() -> std::process::ExitCode {
    bw_bench::EXHIBITS.main(Some("false_positives"), run)
}

fn run(args: &blockwatch::cli::Args) -> Result<(), String> {
    let runs: usize = args.operand_count(100)?;
    println!("False-positive experiment: {runs} fault-free runs per program, 4 threads");
    println!();
    let mut rows = Vec::new();
    let mut total = 0;
    for (name, fps) in false_positive_sweep(Size::Small, 4, runs) {
        total += fps;
        rows.push(vec![name, fps.to_string()]);
    }
    println!("{}", render_table(&["benchmark", "false positives"], &rows));
    println!("total false positives: {total} (paper and construction: 0)");
    assert_eq!(total, 0, "BLOCKWATCH must have zero false positives");
    Ok(())
}
