//! Developer tool: category histograms and clean-run statistics for all
//! seven benchmark ports at several thread counts.
//!
//! Usage: `cargo run --release -p bw-splash --example inspect`

use bw_analysis::ModuleAnalysis;
use bw_splash::{Benchmark, Size};
use bw_vm::{Engine, ExecConfig, ProgramImage, RunOutcome, SimEngine};

fn main() {
    for bench in Benchmark::ALL {
        let module = bench.module(Size::Test).expect("port compiles");
        let analysis = ModuleAnalysis::run(&module);
        let h = analysis.category_histogram();
        let t = h.total() as f64;
        println!(
            "{:22} total {:3} | shared {:2} ({:4.0}%) tid {:2} ({:4.0}%) partial {:2} ({:4.0}%) none {:2} ({:4.0}%) | iters {}",
            bench.name(),
            h.total(),
            h.shared,
            100.0 * h.shared as f64 / t,
            h.thread_id,
            100.0 * h.thread_id as f64 / t,
            h.partial,
            100.0 * h.partial as f64 / t,
            h.none,
            100.0 * h.none as f64 / t,
            analysis.iterations,
        );
        let image = ProgramImage::prepare_default(bench.module(Size::Test).expect("compiles"));
        for n in [1u32, 2, 4, 8] {
            let r = SimEngine.run(&image, &ExecConfig::new(n));
            let status = match r.outcome {
                RunOutcome::Completed => "ok",
                _ => "BAD",
            };
            print!(
                "  n={n}: {status} steps={} cyc={} ev={} viol={}",
                r.total_steps,
                r.parallel_cycles,
                r.events_sent,
                r.violations.len()
            );
            if !r.violations.is_empty() {
                print!(" FP! {:?}", &r.violations[..r.violations.len().min(2)]);
            }
            println!();
        }
    }
}
