//! Fast fuzz tier for `cargo test`: a bounded batch of fixed seeds through
//! the full generate → round-trip → prepare → oracle pipeline.

use bw_gen::{run_fuzz, FuzzConfig, GenConfig};

#[test]
fn fixed_seed_batch_passes_all_invariants() {
    let cfg = FuzzConfig {
        seeds: 10,
        start_seed: 0,
        threads: vec![1, 2, 4, 8],
        gen: GenConfig::default(),
        injections: 0,
        ..FuzzConfig::default()
    };
    let report = run_fuzz(&cfg, &bw_telemetry::NULL_RECORDER);
    assert!(report.ok(), "oracle failures:\n{}", report.render());
    assert_eq!(report.seeds_run, 10);
    // The batch must actually exercise cross-thread checking, not pass
    // vacuously.
    assert!(report.stats.events > 0, "no branch events captured");
    assert!(
        report.stats.checked_instances > 0,
        "no instance ever had two reporters"
    );
}

#[test]
fn fuzz_report_is_bitwise_reproducible() {
    let cfg = FuzzConfig {
        seeds: 4,
        start_seed: 100,
        threads: vec![2, 4],
        gen: GenConfig::default(),
        injections: 3,
        ..FuzzConfig::default()
    };
    let a = run_fuzz(&cfg, &bw_telemetry::NULL_RECORDER);
    let b = run_fuzz(&cfg, &bw_telemetry::NULL_RECORDER);
    assert!(a.ok(), "oracle failures:\n{}", a.render());
    assert_eq!(a, b, "same config must produce an identical report");
    assert_eq!(a.render(), b.render());
    // The injection stage ran: 4 seeds x 3 injections.
    let c = &a.injection_counts;
    assert_eq!(c.activated() + c.not_activated, 12);
}
