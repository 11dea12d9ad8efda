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

/// Parses the leading positional injection count (e.g. `figure8 300`),
/// falling back to `default` when absent or non-numeric.
pub fn parse_injections(args: &[String], default: usize) -> usize {
    let mut i = 0;
    while i < args.len() {
        // `--workers` consumes the next argument as its value.
        if args[i] == "--workers" {
            i += 2;
            continue;
        }
        if args[i].starts_with("--") {
            i += 1;
            continue;
        }
        return args[i].parse().unwrap_or(default);
    }
    default
}

/// Parses a `--workers N` flag (campaign worker threads); `0` — the
/// default — means available parallelism.
pub fn parse_workers(args: &[String]) -> usize {
    args.iter()
        .position(|a| a == "--workers")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
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

    #[test]
    fn parses_campaign_args() {
        let args: Vec<String> =
            ["--workers", "3", "250"].iter().map(|s| s.to_string()).collect();
        assert_eq!(parse_workers(&args), 3);
        assert_eq!(parse_injections(&args, 100), 250);
        assert_eq!(parse_injections(&[], 100), 100);
        assert_eq!(parse_workers(&[]), 0);
    }
}
