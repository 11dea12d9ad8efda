//! # bw-bench — benchmark harness for the BLOCKWATCH reproduction
//!
//! One binary per table/figure of the paper (run with
//! `cargo run --release -p bw-bench --bin <name>`):
//!
//! | Binary | Exhibit |
//! |--------|---------|
//! | `table4` | Table IV — benchmark characteristics |
//! | `table5` | Table V — similarity category statistics |
//! | `figure6` | Figure 6 — normalized execution time at 4 and 32 threads |
//! | `figure7` | Figure 7 — geomean overhead vs. thread count |
//! | `figure8` | Figure 8 — SDC coverage under branch-flip faults |
//! | `figure9` | Figure 9 — SDC coverage under branch-condition faults |
//! | `false_positives` | §IV — 100 fault-free runs per program |
//! | `duplication` | §VI — BLOCKWATCH vs. software duplication |
//!
//! Performance of the infrastructure itself is measured by `bwbench`
//! (`benchmark/`, see `BENCHMARK.json`), not here.

#![warn(missing_docs)]

use std::fmt::Write as _;

use blockwatch::reports::coverage_row_on;
use blockwatch::{Benchmark, Blockwatch, FaultModel, Size};

/// Renders a simple aligned text table.
pub fn render_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let mut line = String::new();
    for (i, h) in header.iter().enumerate() {
        let _ = write!(line, "{:width$}  ", h, width = widths[i]);
    }
    out.push_str(line.trim_end());
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
    out.push('\n');
    for row in rows {
        let mut line = String::new();
        for (i, cell) in row.iter().enumerate() {
            let _ = write!(line, "{:width$}  ", cell, width = widths[i]);
        }
        out.push_str(line.trim_end());
        out.push('\n');
    }
    out
}

/// Formats a percentage.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

/// Parses a coverage figure's arguments, `[injections] [--workers N]`, into
/// `(injections, workers)`. Without a count it is `default_injections`;
/// `--workers 0` — the default — means available parallelism.
///
/// # Errors
///
/// Names the argument when a count is not a number, `--workers` has no
/// value, a flag is unknown or a second positional argument is given.
pub fn parse_args(args: &[String], default_injections: usize) -> Result<(usize, usize), String> {
    let (mut injections, mut workers) = (None, 0);
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        if arg == "--workers" {
            let value = args.next().ok_or("--workers needs a count")?;
            workers =
                value.parse().map_err(|_| format!("--workers needs a count, got `{value}`"))?;
        } else if arg.starts_with("--") {
            return Err(format!("unknown flag `{arg}`"));
        } else {
            let n = arg.parse().map_err(|_| format!("injections must be a count, got `{arg}`"))?;
            if injections.replace(n).is_some() {
                return Err(format!("unexpected argument `{arg}`"));
            }
        }
    }
    Ok((injections.unwrap_or(default_injections), workers))
}

/// The body of `figure8` and `figure9`: SDC coverage with and without
/// BLOCKWATCH under `model` faults, at 4 and 32 threads, over every port.
/// Reads `[injections] [--workers N]` from the command line and exits 1 on
/// an argument it cannot use.
pub fn coverage_figure(
    title: &str,
    legend: Option<&str>,
    model: FaultModel,
    seed: u64,
    paper_note: &str,
) {
    let mut argv = std::env::args();
    let bin = argv.next().unwrap_or_default();
    let args: Vec<String> = argv.collect();
    let (injections, workers) = parse_args(&args, 1000).unwrap_or_else(|e| {
        eprintln!("error: {e}\nusage: {bin} [injections] [--workers N]");
        std::process::exit(1);
    });
    println!("{title} ({injections} injections per cell)");
    if let Some(legend) = legend {
        println!("{legend}");
    }
    println!();
    // One prepared image per benchmark, shared by the 4- and 32-thread
    // campaigns; golden runs are cached per configuration on each program.
    let programs: Vec<(&str, Blockwatch)> = Benchmark::ALL
        .iter()
        .map(|&bench| {
            let bw = Blockwatch::from_module(bench.module(Size::Small).expect("port compiles"))
                .expect("port verifies");
            (bench.name(), bw)
        })
        .collect();
    for nthreads in [4u32, 32] {
        let mut rows = Vec::new();
        let mut orig_cov = Vec::new();
        let mut prot_cov = Vec::new();
        for (name, bw) in &programs {
            let row = coverage_row_on(bw, name, model, nthreads, injections, seed, workers)
                .expect("campaign runs");
            orig_cov.push(row.coverage_original());
            prot_cov.push(row.coverage_protected());
            rows.push(vec![
                row.name.clone(),
                pct(row.coverage_original()),
                pct(row.coverage_protected()),
                row.protected.detected.to_string(),
                row.protected.crashed.to_string(),
                row.protected.hung.to_string(),
                row.protected.masked.to_string(),
                row.protected.sdc.to_string(),
            ]);
        }
        println!("{nthreads} threads:");
        println!(
            "{}",
            render_table(
                &["benchmark", "original", "blockwatch", "det", "crash", "hang", "mask", "sdc"],
                &rows
            )
        );
        let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        println!(
            "average: original {} -> blockwatch {}   (paper: {paper_note})",
            pct(avg(&orig_cov)),
            pct(avg(&prot_cov))
        );
        println!();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_table() {
        let t = render_table(
            &["name", "value"],
            &[vec!["a".into(), "1".into()], vec!["longer".into(), "22".into()]],
        );
        assert!(t.contains("name"));
        assert!(t.lines().count() >= 4);
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.975), "97.5%");
    }

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_campaign_args() {
        assert_eq!(parse_args(&args(&["--workers", "3", "250"]), 100), Ok((250, 3)));
        assert_eq!(parse_args(&args(&["40", "--workers", "4"]), 100), Ok((40, 4)));
        assert_eq!(parse_args(&[], 100), Ok((100, 0)));
    }

    #[test]
    fn a_count_that_is_not_a_number_is_rejected() {
        // `figure8 30O` used to run the default 1,000 injections per cell.
        let err = parse_args(&args(&["30O"]), 1000).unwrap_err();
        assert!(err.contains("`30O`"), "{err}");
        assert!(parse_args(&args(&["40", "50"]), 1000).is_err());
    }

    #[test]
    fn workers_without_a_count_is_rejected() {
        assert!(parse_args(&args(&["40", "--workers"]), 1000).unwrap_err().contains("--workers"));
        let err = parse_args(&args(&["--workers", "four"]), 1000).unwrap_err();
        assert!(err.contains("--workers") && err.contains("`four`"), "{err}");
    }

    #[test]
    fn an_unknown_flag_is_rejected() {
        let err = parse_args(&args(&["40", "--worker", "4"]), 1000).unwrap_err();
        assert!(err.contains("`--worker`"), "{err}");
    }
}
