//! The paper's exhibits as `bw` prints them: `bw <name>` is the function of
//! that name here, and renders the text `results/<name>.txt` archives from
//! the rows and series of [`super`].

use std::fmt::Write as _;

use bw_analysis::{AnalysisConfig, ModuleAnalysis, SkipReason};
use bw_fault::{run_campaign, CampaignConfig, FaultModel};
use bw_splash::{Benchmark, Size};
use bw_vm::ProgramImage;

use super::{
    coverage_row_on, duplication_comparison, false_positive_sweep, geomean_at, overhead_point,
    overhead_series, table4 as table4_rows, table5 as table5_rows,
};
use crate::Blockwatch;

/// Renders a simple aligned text table.
pub(super) fn render_table<H: AsRef<str>>(header: &[H], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.as_ref().len()).collect();
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
        let _ = write!(line, "{:width$}  ", h.as_ref(), width = widths[i]);
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
pub(super) fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

/// The paper's Figure 2 program, whose fixpoint Table III traces.
const FIGURE2: &str = r#"
    module figure2;
    shared bool test = true;
    func foo(arg: int) {
        for (var i: int = 0; i < 5; i = i + 1) {   // Branch 2
            if (i < arg) { output(i); }            // Branch 1
        }
    }
    @spmd func slave() {
        foo(1);
        if (test) {
            foo(2);
        }
    }
"#;

/// Table III: the branch categories after each whole-module pass of the
/// similarity fixpoint on the paper's Figure 2 example.
pub fn table3() -> String {
    let module = bw_ir::frontend::compile(FIGURE2).expect("figure 2 compiles");
    let analysis = ModuleAnalysis::run(&module);
    let mut header = vec!["branch".to_string()];
    header.extend((1..=analysis.trace.len()).map(|i| format!("pass {i}")));
    header.push("final".into());
    let rows: Vec<Vec<String>> = analysis
        .branches
        .iter()
        .enumerate()
        .map(|(bi, b)| {
            let mut row = vec![format!("{} in {}", b.id, module.func(b.func).name)];
            row.extend(analysis.trace.iter().map(|pass| pass[bi].to_string()));
            row.push(b.category.to_string());
            row
        })
        .collect();
    let mut out = String::from(
        "Table III: category propagation on the paper's Figure 2 example\n\
         (branch categories after each whole-module fixpoint pass)\n\n",
    );
    let _ = writeln!(out, "{}", render_table(&header, &rows));
    let passes = analysis.iterations;
    let _ =
        writeln!(out, "fixpoint converged in {passes} passes (paper: 3 passes, <10 in general)");
    out.push_str(
        "\npaper's account: `foo`'s branches start NA (the induction variable's phi\n\
         has not resolved), then become shared; both call sites pass shared\n\
         arguments, so Branch 1 stays shared and is tracked per call site.\n",
    );
    out
}

/// Table IV: characteristics of the benchmark programs.
pub fn table4() -> String {
    let rows: Vec<Vec<String>> = table4_rows(Size::Reference)
        .into_iter()
        .map(|r| {
            let counts = [r.instructions, r.parallel_instructions, r.branches, r.parallel_branches];
            let mut row = vec![r.name, r.source_lines.to_string()];
            row.extend(counts.iter().map(usize::to_string));
            row
        })
        .collect();
    let header =
        ["benchmark", "src lines", "IR insts", "parallel insts", "branches", "parallel br"];
    format!(
        "Table IV: characteristics of benchmark programs (size: Reference)\n\
         (the paper reports C source lines; this reproduction reports mini-language\n \
         lines and IR instructions of the structural ports)\n\n{}\n",
        render_table(&header, &rows)
    )
}

/// Table V: similarity category statistics of the branches, each next to
/// the paper's share.
pub fn table5() -> String {
    // total, shared, threadID, partial, none (paper Table V)
    let paper: [(usize, usize, usize, usize, usize); 7] = [
        (785, 30, 12, 723, 20),
        (44, 14, 11, 18, 1),
        (321, 51, 8, 98, 164),
        (478, 22, 116, 329, 11),
        (35, 11, 9, 7, 8),
        (268, 12, 4, 117, 135),
        (103, 34, 12, 26, 31),
    ];
    let rows: Vec<Vec<String>> = table5_rows(Size::Reference)
        .into_iter()
        .zip(paper)
        .map(|(r, p)| {
            let f = |n: usize, of_paper: usize| {
                let share = pct(n as f64 / r.total.max(1) as f64);
                format!("{n} ({share}) [paper {}]", pct(of_paper as f64 / p.0 as f64))
            };
            vec![
                r.name.clone(),
                r.total.to_string(),
                f(r.shared, p.1),
                f(r.thread_id, p.2),
                f(r.partial, p.3),
                f(r.none, p.4),
                pct(r.similar_fraction()),
            ]
        })
        .collect();
    let header = ["benchmark", "total", "shared", "threadID", "partial", "none", "similar"];
    format!(
        "Table V: similarity category statistics (size: Reference)\n\n{}\n",
        render_table(&header, &rows)
    )
}

/// One row per benchmark: its name, then its overhead ratio at each of
/// `threads` in `format`'s spelling.
fn overhead_rows(threads: &[u32], format: fn(f64) -> String) -> (Vec<Vec<String>>, Vec<f64>) {
    let series = overhead_series(Size::Reference, threads);
    let rows = series
        .iter()
        .map(|s| {
            let mut row = vec![s.name.clone()];
            row.extend(s.points.iter().map(|p| format(p.ratio())));
            row
        })
        .collect();
    (rows, threads.iter().map(|&n| geomean_at(&series, n)).collect())
}

/// Figure 6: normalized execution time with BLOCKWATCH at 4 and 32 threads
/// (baseline = the program without BLOCKWATCH).
pub fn figure6() -> String {
    let (rows, geo) = overhead_rows(&[4, 32], |r| format!("{r:.2}x"));
    format!(
        "Figure 6: normalized execution time with BLOCKWATCH (size: Reference)\n\
         (simulated 4-socket 32-core machine; lower is better; baseline = 1.0)\n\n{}\n\
         geomean: {:.2}x at 4 threads (paper: 2.15x), {:.2}x at 32 threads (paper: 1.16x)\n",
        render_table(&["benchmark", "4 threads", "32 threads"], &rows),
        geo[0],
        geo[1]
    )
}

/// Figure 7: geometric-mean BLOCKWATCH overhead against the thread count
/// (1–32): the 1→2 NUMA bump and the amortization slope.
pub fn figure7() -> String {
    let (rows, geo) = overhead_rows(&[1, 2, 4, 8, 16, 32], |r| format!("{r:.2}"));
    let geo: Vec<String> = geo.iter().map(|g| format!("{g:.2}")).collect();
    format!(
        "Figure 7: BLOCKWATCH overhead vs. number of threads (size: Reference)\n\n{}\n\
         geomean: {}\n\
         paper shape: rises from 1 to 2 threads, then falls monotonically to ~1.16 at 32\n",
        render_table(&["benchmark", "1t", "2t", "4t", "8t", "16t", "32t"], &rows),
        geo.join("  ")
    )
}

/// Figures 8 (`BranchFlip`) and 9 (`ConditionBitFlip`): SDC coverage with
/// and without BLOCKWATCH under `model` faults, at 4 and 32 threads, over
/// every port, with `injections` a cell on `workers` campaign threads (`0`
/// = available parallelism; the text is the same at any count).
pub fn coverage_figure(model: FaultModel, injections: usize, workers: usize) -> String {
    let (title, legend, seed, paper) = match model {
        FaultModel::BranchFlip => (
            "Figure 8: coverage under branch-flip faults",
            "(coverage = 1 - SDC fraction of activated faults; higher is better)\n",
            0xf168,
            "83% -> 97-98%",
        ),
        FaultModel::ConditionBitFlip => {
            ("Figure 9: coverage under branch-condition faults", "", 0xf169, "90% -> 97%")
        }
    };
    let mut out = format!("{title} ({injections} injections per cell)\n{legend}\n");
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
        let (mut original, mut protected) = (0.0, 0.0);
        for (name, bw) in &programs {
            let row = coverage_row_on(bw, name, model, nthreads, injections, seed, workers)
                .expect("campaign runs");
            original += row.coverage_original();
            protected += row.coverage_protected();
            let p = &row.protected;
            let mut cells = vec![row.name.clone()];
            cells.extend([row.coverage_original(), row.coverage_protected()].map(pct));
            cells.extend([p.detected, p.crashed, p.hung, p.masked, p.sdc].map(|n| n.to_string()));
            rows.push(cells);
        }
        let header = ["benchmark", "original", "blockwatch", "det", "crash", "hang", "mask", "sdc"];
        let n = programs.len() as f64;
        let _ = writeln!(
            out,
            "{nthreads} threads:\n{}\naverage: original {} -> blockwatch {}   (paper: {paper})\n",
            render_table(&header, &rows),
            pct(original / n),
            pct(protected / n)
        );
    }
    out
}

/// The Section IV false-positive experiment: `runs` fault-free runs of every
/// instrumented benchmark, of which BLOCKWATCH must flag none.
///
/// # Errors
///
/// When a run reports a violation.
pub fn false_positives(runs: usize) -> Result<String, String> {
    let sweep = false_positive_sweep(Size::Small, 4, runs);
    let total: usize = sweep.iter().map(|(_, fps)| fps).sum();
    if total > 0 {
        return Err(format!("{total} false positive(s): BLOCKWATCH must have none"));
    }
    let rows: Vec<Vec<String>> =
        sweep.into_iter().map(|(name, fps)| vec![name, fps.to_string()]).collect();
    Ok(format!(
        "False-positive experiment: {runs} fault-free runs per program, 4 threads\n\n{}\n\
         total false positives: {total} (paper and construction: 0)\n",
        render_table(&["benchmark", "false positives"], &rows)
    ))
}

/// The Section VI comparison: BLOCKWATCH's overhead and software
/// duplication's (DMR) as the thread count grows.
pub fn duplication() -> String {
    let mut out = String::from(
        "Section VI: BLOCKWATCH vs. software duplication overhead\n\
         (duplication re-executes every instruction and enforces deterministic\n \
         memory order, whose cost grows with the thread count)\n\n",
    );
    for bench in [Benchmark::OceanContig, Benchmark::Fft, Benchmark::WaterNsquared] {
        let points = duplication_comparison(bench, Size::Reference, &[4, 8, 16, 32]);
        let rows: Vec<Vec<String>> = points
            .iter()
            .map(|p| {
                let threads = format!("{} threads", p.nthreads);
                vec![threads, format!("{:.2}x", p.blockwatch), format!("{:.2}x", p.duplication)]
            })
            .collect();
        let table = render_table(&["config", "blockwatch", "duplication"], &rows);
        let _ = writeln!(out, "{}:\n{table}\n", bench.name());
    }
    out.push_str(
        "paper: duplication costs 2-3x and does not amortize; BLOCKWATCH's\n\
         overhead falls toward 1.16x as threads increase\n",
    );
    out
}

/// The Section III-A optimizations, one at a time, on three ports under
/// `injections` branch flips at 4 threads: promotion of `none` branches to
/// `partial` grouping (coverage and events up), the critical-section
/// optimization (events down, coverage unchanged) and the loop-nesting
/// cutoff (raytrace's coverage loss).
pub fn ablations(injections: usize) -> String {
    let base = AnalysisConfig::default();
    let variants = [
        ("paper default", base),
        ("no promotion", AnalysisConfig { promote_none: false, ..base }),
        ("no critical-section opt", AnalysisConfig { critical_section_opt: false, ..base }),
        ("loop cutoff 2", AnalysisConfig { max_loop_depth: 2, ..base }),
        ("loop cutoff 4", AnalysisConfig { max_loop_depth: 4, ..base }),
        ("loop cutoff 8", AnalysisConfig { max_loop_depth: 8, ..base }),
    ];
    let nthreads = 4;
    // Whether any port's default plan leaves a branch out because it sits
    // inside a critical section (what `bw analyze` would print as a skip).
    let mut critical_section_skips = false;
    let mut out = String::new();
    for bench in [Benchmark::Raytrace, Benchmark::OceanContig, Benchmark::Fmm] {
        let mut rows = Vec::new();
        for (name, config) in variants {
            let module = bench.module(Size::Small).expect("port compiles");
            let image = ProgramImage::prepare(module, config);
            critical_section_skips |=
                image.plan.decisions.iter().any(|d| matches!(d, Err(SkipReason::CriticalSection)));
            let cfg =
                CampaignConfig::new(injections, FaultModel::BranchFlip, nthreads).seed(0xab1a);
            let campaign = run_campaign(&image, &cfg).expect("golden run completes");
            rows.push(vec![
                name.to_string(),
                image.plan.num_instrumented().to_string(),
                pct(campaign.coverage()),
                pct(campaign.counts.detection_rate()),
                format!("{:.2}x", overhead_point(&image, nthreads).ratio()),
            ]);
        }
        let header = ["variant", "instrumented", "coverage", "detection rate", "overhead"];
        let _ = writeln!(
            out,
            "== {} (branch-flip, {injections} injections, {nthreads} threads) ==\n{}\n",
            bench.name(),
            render_table(&header, &rows)
        );
    }
    if !critical_section_skips {
        out.push_str(
            "no port has a branch inside a critical section: the `no critical-section opt` \
             row equals the default by construction\n",
        );
    }
    out
}
