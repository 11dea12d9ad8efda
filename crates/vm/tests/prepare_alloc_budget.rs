//! The allocation budget of preparing a module.
//!
//! `ProgramImage::try_prepare` verifies, analyzes, plans and decodes. The
//! verifier builds every function's CFG, dominator tree and loop forest
//! once, and the analysis and the decoder read those; no stage allocates
//! per block or per instruction, only per function (its facts, its value
//! tables), per module and per branch (a check's witnesses, a condition's
//! data values), plus what the image keeps. The shared counting allocator
//! measures each stage over the seven ports at `Size::Test` and 64
//! generated modules at each of `prepare-pipeline`'s four statement
//! budgets.
//!
//! The parent commit built the facts three times and allocated per block,
//! per instruction and per analysis pass: 1,132 allocations a module here.

#[path = "../../../tests/support/counting.rs"]
mod counting;

use bw_analysis::{AnalysisConfig, CheckPlan, ModuleAnalysis};
use bw_gen::{generate_module, GenConfig};
use bw_ir::Module;
use bw_splash::{Benchmark, Size};
use bw_vm::ProgramImage;
use counting::{allocations, gate};

/// The seven ports at `Test` size and 64 generated modules at each of
/// `prepare-pipeline`'s four statement budgets.
fn corpus() -> Vec<Module> {
    let mut modules: Vec<Module> = Benchmark::ALL
        .iter()
        .map(|bench| bench.module(Size::Test).expect("the port compiles"))
        .collect();
    for max_stmts in [60, 120, 240, 480] {
        let config = GenConfig { max_stmts, ..GenConfig::default() };
        modules.extend((0..64).map(|seed| generate_module(seed, &config)));
    }
    modules
}

#[test]
fn preparing_a_module_stays_within_its_allocation_budget() {
    let modules = corpus();
    let config = AnalysisConfig::default();
    let (mut verify, mut analyze, mut plan, mut prepare) = (0, 0, 0, 0);
    for module in &modules {
        let (n, facts) = allocations(|| bw_ir::verify_module_facts(module));
        let facts = facts.expect("the corpus verifies");
        verify += n;
        let (n, analysis) = allocations(|| ModuleAnalysis::run_with_facts(module, &facts));
        analyze += n;
        plan += allocations(|| CheckPlan::build(module, &analysis, config)).0;
        let module = module.clone();
        let (n, image) = allocations(|| ProgramImage::try_prepare(module, config));
        image.expect("the corpus prepares");
        prepare += n;
    }
    let per_module = |n: u64| n as f64 / modules.len() as f64;
    println!(
        "{} modules, allocations a module: verify and facts {:.1}, analysis {:.1}, plan {:.1}, \
         try_prepare {:.1} ({prepare} in all)",
        modules.len(),
        per_module(verify),
        per_module(analyze),
        per_module(plan),
        per_module(prepare)
    );
    // Measured: 133.3 a module (35,054 over 263): verify and facts 35.7,
    // analysis 48.2, plan 7.5, the decode and the image the rest; the
    // decoder's buffers are sized once a module and reused for every
    // function (136.7 before they were). Before the control-flow facts were
    // shared, preparing made 1,132.1 (297,743), 241.6 of them verifying and
    // 719.0 in the analysis.
    gate("vm.try_prepare.per_module", per_module(prepare), 143.0);
}
