//! The oracle's self-test: plant a category-propagation regression (a
//! corrupted Table II rule) and prove the oracle catches it, with a
//! minimized reproducer.

use bw_analysis::AnalysisConfig;
use bw_gen::{check_image, generate_module, sabotaged_image, shrink, GenConfig};
use bw_ir::Module;
use bw_vm::{Engine, ExecConfig, SimEngine};

const SIM_SEED: u64 = 0xdead_beef;

/// Whether the planted regression is observable on `module`: the sabotaged
/// plan (threadID predicates re-labeled `shared`) produces a violation on a
/// fault-free run. This is the cheap single-run discriminant the shrinker
/// uses.
fn regression_fires(module: &Module) -> bool {
    sabotaged_image(module, AnalysisConfig::default())
        .map(|image| {
            let r = SimEngine.run(
                &image,
                &ExecConfig::new(4).seed(SIM_SEED).max_steps(bw_gen::ORACLE_MAX_STEPS),
            );
            !r.violations.is_empty()
        })
        .unwrap_or(false)
}

#[test]
fn planted_category_regression_is_caught_and_minimized() {
    let gen = GenConfig { max_stmts: 10, ..GenConfig::default() };

    // Find a seed whose program exposes the planted bug (it needs a
    // threadID-predicate branch reached by at least two threads).
    let (seed, module) = (0..100)
        .map(|seed| (seed, generate_module(seed, &gen)))
        .find(|(_, m)| regression_fires(m))
        .expect("no seed in 0..100 exposes the planted regression");

    // The healthy image passes the full oracle...
    let healthy =
        bw_vm::ProgramImage::try_prepare(module.clone(), AnalysisConfig::default()).unwrap();
    check_image(&healthy, &[2, 4], SIM_SEED)
        .unwrap_or_else(|f| panic!("seed {seed:#x} fails even without sabotage: {f}"));

    // ...and the sabotaged one is rejected.
    let broken = sabotaged_image(&module, AnalysisConfig::default()).unwrap();
    let failure = check_image(&broken, &[2, 4], SIM_SEED)
        .expect_err("oracle accepted an image with a corrupted Table II rule");
    let text = failure.to_string();
    assert!(!text.is_empty());

    // Shrink while the regression keeps firing; the reproducer must be tiny.
    let minimized = shrink(&module, regression_fires);
    assert!(regression_fires(&minimized));
    assert!(
        minimized.num_insts() < 30,
        "reproducer did not minimize: {} instructions left\n{}",
        minimized.num_insts(),
        bw_ir::ModulePrinter(&minimized)
    );

    // The minimized module still round-trips through the textual format, so
    // it can be saved as a `.bwir` repro and replayed.
    let printed = bw_ir::ModulePrinter(&minimized).to_string();
    let reparsed = bw_ir::parse_module(&printed).unwrap();
    assert_eq!(reparsed, minimized);
}

/// The interpreter hashes the witness lists linked into the image, not the
/// ones in `image.plan`: a sabotaged image must have had them re-linked
/// (`ProgramImage::replace_plan`), or its events would still carry the
/// healthy plan's witnesses and the oracle would have nothing to catch.
#[test]
fn a_sabotaged_image_sends_the_sabotaged_witnesses() {
    let module = bw_ir::frontend::compile(
        r#"
        shared int n = 2;
        @spmd func f() {
            var t: int = threadid();
            if (t < n) { output(t); }
        }
        "#,
    )
    .unwrap();
    let config = ExecConfig::new(4).capture_events(true);
    let witnesses = |image: &bw_vm::ProgramImage| -> Vec<u64> {
        let run = SimEngine.run(image, &config);
        assert_eq!(run.branch_events.len(), 4, "one instrumented branch, four threads");
        run.branch_events.iter().map(|e| e.witness).collect()
    };

    // Healthy: a threadID predicate sends only its shared operand, `n`.
    let healthy =
        bw_vm::ProgramImage::try_prepare(module.clone(), AnalysisConfig::default()).unwrap();
    let sent = witnesses(&healthy);
    assert!(sent.iter().all(|&w| w == sent[0]), "{sent:x?}");

    // Sabotaged: re-labeled `shared`, the check's witnesses include the
    // thread id, so every thread sends a different hash.
    let broken = sabotaged_image(&module, AnalysisConfig::default()).expect("a threadID branch");
    let branch = bw_ir::BranchId(0);
    assert_ne!(
        broken.plan.check(branch).unwrap().witnesses,
        healthy.plan.check(branch).unwrap().witnesses
    );
    let mut sent = witnesses(&broken);
    sent.sort_unstable();
    sent.dedup();
    assert_eq!(sent.len(), 4, "{sent:x?}");
}
