//! The allocation budget of the fuzz oracle.
//!
//! `check_image` makes 32 short simulated runs per generated program at
//! `DEFAULT_THREADS` (monitored, repeat, unmonitored and traced, then
//! shards 1/2/4/8, per thread count), ~580 steps and ~47 events each over
//! seeds 0–599. What such a run allocates is its set-up and its result, so
//! a per-run cost that is not the program's own — a metric name, a cloned
//! snapshot, a map node per instance — shows here as a multiple of itself.
//! The shared counting allocator measures it.

#[path = "../../../tests/support/counting.rs"]
mod counting;

use bw_gen::{check_image, generate_module, GenConfig, DEFAULT_THREADS};
use bw_vm::ProgramImage;
use counting::{allocations, gate};

#[test]
fn an_oracle_run_allocates_for_its_setup_and_its_result_only() {
    let gen = GenConfig::default();
    let images: Vec<(u64, ProgramImage)> = (0..600u64)
        .map(|seed| {
            (
                seed,
                ProgramImage::prepare_default(generate_module(seed, &gen)),
            )
        })
        .collect();
    // The process's first runs register the live metrics sources.
    check_image(&images[0].1, &DEFAULT_THREADS, 0).expect("seed 0 passes");
    let (mut allocated, mut runs) = (0, 0);
    for (seed, image) in &images {
        let (n, stats) = allocations(|| check_image(image, &DEFAULT_THREADS, *seed));
        let stats = stats.unwrap_or_else(|e| panic!("seed {seed:#x}: {e}"));
        allocated += n;
        runs += stats.runs;
    }
    let per_run = allocated as f64 / runs as f64;
    println!("{allocated} allocations in {runs} oracle runs: {per_run:.1} a run");
    assert_eq!(
        runs,
        600 * 32,
        "eight runs per thread count, four thread counts"
    );
    // Measured: 77.8 a run. It was 201.7 while every run named its ~30
    // metrics (the sharded ones more), the reproducibility gates compared
    // two cloned snapshots and the pattern check kept a map node and a
    // `Vec` per instance.
    gate("gen.oracle.per_run", per_run, 85.0);
}
