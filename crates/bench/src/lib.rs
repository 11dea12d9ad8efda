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

use blockwatch::cli::{command, flag, Args, Cli};
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

/// The command lines of the exhibits that take arguments — each command is
/// a binary of its own — in the table form `bw` uses (`blockwatch::cli`).
pub static EXHIBITS: Cli = Cli {
    prefix: "",
    commands: &[
        command("figure8", Some("[injections]"), "coverage under branch flips (default 1000)"),
        command("figure9", Some("[injections]"), "coverage under condition faults (default 1000)"),
        command("ablations", Some("[injections]"), "the Section III-A optimizations (default 300)"),
        command("false_positives", Some("[runs]"), "fault-free runs of every port (default 100)"),
    ],
    flags: &[flag(
        "--workers",
        Some("N"),
        &["figure8", "figure9"],
        "campaign worker threads (default 0: available parallelism); the output is \
         byte-identical at any N",
    )],
    notes: "",
};

/// The body of `figure8` and `figure9`: SDC coverage with and
/// without BLOCKWATCH under `model` faults, at 4 and 32 threads, over every
/// port.
///
/// # Errors
///
/// Names the argument it cannot use.
pub fn coverage_figure(
    args: &Args,
    title: &str,
    legend: Option<&str>,
    model: FaultModel,
    seed: u64,
    paper_note: &str,
) -> Result<(), String> {
    let injections: usize = args.operand_count(1000)?;
    let workers = args.count("--workers", 0)?;
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
    Ok(())
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

    /// What exhibit `name` makes of the command line `list`: its count
    /// (`default` when left out) and its workers.
    fn parsed(name: &str, list: &[&str], default: usize) -> Result<(usize, usize), String> {
        let argv: Vec<String> = list.iter().map(|s| s.to_string()).collect();
        let args = EXHIBITS.parse(name, &argv)?;
        Ok((args.operand_count(default)?, args.count("--workers", 0)?))
    }

    #[test]
    fn parses_campaign_args() {
        assert_eq!(parsed("figure8", &["--workers", "3", "250"], 100), Ok((250, 3)));
        assert_eq!(parsed("figure9", &["40", "--workers", "4"], 100), Ok((40, 4)));
        assert_eq!(parsed("figure8", &[], 100), Ok((100, 0)));
        assert_eq!(parsed("ablations", &["30"], 300), Ok((30, 0)));
        assert_eq!(parsed("false_positives", &[], 100), Ok((100, 0)));
    }

    #[test]
    fn a_count_that_is_not_a_number_is_rejected() {
        // `figure8 30O` used to run the default 1,000 injections per cell,
        // and `ablations 30O` its default 300.
        for c in EXHIBITS.commands {
            for bad in ["30O", "1OO"] {
                let err = parsed(c.name, &[bad], 1000).unwrap_err();
                assert!(err.contains(&format!("`{bad}`")), "{}: {err}", c.name);
            }
            let err = parsed(c.name, &["40", "50"], 1000).unwrap_err();
            assert!(err.contains("`50`"), "{}: {err}", c.name);
        }
    }

    #[test]
    fn workers_without_a_count_is_rejected() {
        assert!(parsed("figure8", &["40", "--workers"], 1000).unwrap_err().contains("--workers"));
        let err = parsed("figure8", &["--workers", "four"], 1000).unwrap_err();
        assert!(err.contains("--workers") && err.contains("`four`"), "{err}");
    }

    #[test]
    fn an_unknown_flag_is_rejected() {
        let err = parsed("figure8", &["40", "--worker", "4"], 1000).unwrap_err();
        assert!(err.contains("`--worker`"), "{err}");
        // `--workers` exists, but not for the exhibits that run no pool of their own.
        let err = parsed("ablations", &["--workers", "4"], 300).unwrap_err();
        assert!(err.contains("`--workers` for `ablations`"), "{err}");
    }
}
