//! Ablations over BLOCKWATCH's design knobs (Section III-A optimizations):
//!
//! * promotion of `none` branches to `partial` grouping (coverage ↑, events ↑)
//! * the critical-section optimization (events ↓, no coverage change)
//! * the loop-nesting cutoff (raytrace's coverage loss)
//!
//! Run with: `cargo run --release -p bw-bench --bin ablations -- [injections]`

use blockwatch::analysis::{AnalysisConfig, SkipReason};
use blockwatch::fault::{run_campaign, CampaignConfig};
use blockwatch::reports::overhead_point;
use blockwatch::vm::ProgramImage;
use blockwatch::{Benchmark, FaultModel, Size};
use bw_bench::{pct, render_table};

struct Variant {
    name: &'static str,
    config: AnalysisConfig,
}

fn variants() -> Vec<Variant> {
    let base = AnalysisConfig::default();
    vec![
        Variant { name: "paper default", config: base },
        Variant { name: "no promotion", config: AnalysisConfig { promote_none: false, ..base } },
        Variant {
            name: "no critical-section opt",
            config: AnalysisConfig { critical_section_opt: false, ..base },
        },
        Variant { name: "loop cutoff 2", config: AnalysisConfig { max_loop_depth: 2, ..base } },
        Variant { name: "loop cutoff 4", config: AnalysisConfig { max_loop_depth: 4, ..base } },
        Variant { name: "loop cutoff 8", config: AnalysisConfig { max_loop_depth: 8, ..base } },
    ]
}

fn main() -> std::process::ExitCode {
    bw_bench::EXHIBITS.main(Some("ablations"), run)
}

fn run(args: &blockwatch::cli::Args) -> Result<(), String> {
    let injections: usize = args.operand_count(300)?;
    let nthreads = 4;
    // Whether any port's default plan leaves a branch out because it sits
    // inside a critical section (what `bw analyze` would print as a skip).
    let mut critical_section_skips = false;

    for bench in [Benchmark::Raytrace, Benchmark::OceanContig, Benchmark::Fmm] {
        println!(
            "== {} (branch-flip, {injections} injections, {nthreads} threads) ==",
            bench.name()
        );
        let mut rows = Vec::new();
        for v in variants() {
            let image = ProgramImage::prepare(
                bench.module(Size::Small).expect("port compiles"),
                v.config,
            );
            critical_section_skips |= image
                .plan
                .decisions
                .iter()
                .any(|d| matches!(d, Err(SkipReason::CriticalSection)));
            let cfg =
                CampaignConfig::new(injections, FaultModel::BranchFlip, nthreads).seed(0xab1a);
            let campaign = run_campaign(&image, &cfg).expect("golden run completes");
            let overhead = overhead_point(&image, nthreads);
            rows.push(vec![
                v.name.to_string(),
                image.plan.num_instrumented().to_string(),
                pct(campaign.coverage()),
                pct(campaign.counts.detection_rate()),
                format!("{:.2}x", overhead.ratio()),
            ]);
        }
        println!(
            "{}",
            render_table(
                &["variant", "instrumented", "coverage", "detection rate", "overhead"],
                &rows
            )
        );
        println!();
    }
    if !critical_section_skips {
        println!(
            "no port has a branch inside a critical section: the `no critical-section opt` \
             row equals the default by construction"
        );
    }
    Ok(())
}
