//! The oracle's self-test: plant a category-propagation regression (a
//! corrupted Table II rule) and prove the oracle catches it, with a
//! minimized reproducer. Plus pinned seeds.

use bw_analysis::{AnalysisConfig, Category, ModuleAnalysis};
use bw_gen::{
    check_image, check_module, generate_module, run_fuzz, sabotaged_image, shrink, FuzzConfig,
    GenConfig, DEFAULT_THREADS,
};
use bw_ir::{FuncId, Module, Op};
use bw_vm::{Engine, ExecConfig, ProgramImage, SimEngine};

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

/// `module` with the functions at `a` and `b` declared in the other order:
/// the same logical program, every reference renumbered.
fn with_funcs_swapped(module: &Module, a: FuncId, b: FuncId) -> Module {
    let swap = |f: FuncId| match f {
        f if f == a => b,
        f if f == b => a,
        f => f,
    };
    let mut m = module.clone();
    m.funcs.swap(a.index(), b.index());
    for inst in m.funcs.iter_mut().flat_map(|f| &mut f.blocks).flat_map(|b| &mut b.insts) {
        if let Op::Call { func, .. } = &mut inst.op {
            *func = swap(*func);
        }
    }
    for callee in m.tables.iter_mut().flat_map(|t| &mut t.funcs) {
        *callee = swap(*callee);
    }
    for role in [&mut m.init, &mut m.spmd_entry, &mut m.fini].into_iter().flatten() {
        *role = swap(*role);
    }
    bw_ir::verify_module(&m).expect("the reordered module verifies");
    m
}

/// Seed `0x307c8`: the module on which the SCC-parallel analysis (removed
/// in PR 19, DESIGN §15) answered `none` for `helper1`'s branch where the
/// Figure-3 pass answers `partial`, and which `check_module` therefore
/// rejected (the two analyses disagreed). Both answers are fixpoints of the
/// same rules: the rules are not monotone under `NA`-skipping, so the
/// evaluation order picks one (DESIGN §8). The shape, minimised:
///
/// ```text
/// spmd:  v3 = call helper1(3, tid)          ; cs0
///        v6 = phi [then: v3], [else: 0]     ; an if-else merge
///        v7 = call helper1(v6, v6)          ; cs1
/// helper1(v0, v1):  ret (v0 >> v1)
/// ```
///
/// a cycle call result → merge phi → argument → parameter → return → call
/// result. The whole-module pass resolves it like this:
///
/// 1. `v3` is `NA` (helper1 has no return category yet), so the phi folds
///    its one known incoming, `shared`, and the merge-phi downgrade
///    (`shared` merging two distinct values → `partial`) fires: `v6` is
///    `partial` while one incoming is still `NA`.
/// 2. `helper1`'s parameters merge their call sites — `v0`: `shared` (cs0)
///    with `partial` (cs1), `v1`: `threadID` with `partial` — and mixed
///    checkable sites give `partial` for both; the return is `partial`.
/// 3. `v3` takes the return category, `partial`; the phi is now
///    `partial ⊔ shared = partial` without the downgrade; nothing moves in
///    pass 4.
///
/// The SCC order evaluated the parameters first (`shared`, `threadID`),
/// got a `threadID` return, then `partial ⊔ threadID = none`, and `none`
/// poisons the cycle. The check is `GroupByWitness` either way.
///
/// So this pin may legitimately move to `none` when the transfer function
/// is made monotone (ROADMAP red list, item 2); what must not happen is an
/// answer that depends on the run or on the declaration order.
#[test]
fn seed_0x307c8_passes_and_helper1_stays_partial() {
    let module = generate_module(0x307c8, &GenConfig::default());
    check_module(&module, &DEFAULT_THREADS, 0x307c8)
        .unwrap_or_else(|f| panic!("seed 0x307c8 fails the oracle: {} ({})", f.message, f.class));

    let helper0 = module.func_by_name("helper0").unwrap();
    let helper1 = module.func_by_name("helper1").unwrap();
    let reordered = with_funcs_swapped(&module, helper0, helper1);
    assert_eq!(reordered.func_by_name("helper1"), Some(helper0));

    for m in [&module, &module, &reordered] {
        let analysis = ModuleAnalysis::run(m);
        let helper1 = m.func_by_name("helper1").unwrap();
        let cats: Vec<Category> =
            analysis.branches.iter().filter(|b| b.func == helper1).map(|b| b.category).collect();
        assert_eq!(cats, [Category::Partial], "helper1's one branch");
    }
}

/// The seeds the generator's one data race failed: every critical section
/// read-modify-writes the one accumulator, and each used to draw its own
/// mutex, so two sections under different mutexes could lose an update.
/// The simulator orders the race deterministically, but instrumentation
/// changes cycle costs and with them the order — "instrumentation not
/// transparent" on the five sim seeds; real threads just lose the update —
/// "real engine diverges from sim" on `0xb` and `0x12`.
#[test]
fn seeds_that_raced_on_the_accumulator_pass() {
    for (seed, real_cross) in [
        (0xb, true),
        (0x12, true),
        (0x3c2, false),
        (0x488, false),
        (0x4ed, false),
        (0x8db, false),
        (0x9a2, false),
    ] {
        let config = FuzzConfig {
            seeds: 1,
            start_seed: seed,
            real_cross_check: real_cross,
            ..FuzzConfig::default()
        };
        let report = run_fuzz(&config, &bw_telemetry::NULL_RECORDER);
        assert!(report.ok(), "seed {seed:#x}: {}", report.render());
    }
}

/// The property behind the seeds above: one accumulator, so one mutex.
#[test]
fn every_lock_of_a_generated_module_names_one_mutex() {
    for seed in 0..500 {
        let module = generate_module(seed, &GenConfig::default());
        let mut locked: Vec<_> = module
            .funcs
            .iter()
            .flat_map(|f| &f.blocks)
            .flat_map(|b| &b.insts)
            .filter_map(|inst| match inst.op {
                Op::MutexLock(m) | Op::MutexUnlock(m) => Some(m),
                _ => None,
            })
            .collect();
        locked.dedup();
        assert!(locked.len() <= 1, "seed {seed:#x} locks {locked:?}");
    }
}

/// Seed `0x7019d`, shrunk by `bw fuzz`: a call result feeding the
/// arguments of a second call of the same helper, whose return is an
/// if-else merge phi. While a pass could move a category down or sideways,
/// the similarity pass oscillated on it: it gave up after 212 passes, and
/// preparing the module was refused (it had first been an `assert!` that
/// ended the whole `bw fuzz` process). Every update is a join now, so the
/// pass settles (the whole seed in 5 passes) and the seed passes the
/// oracle.
#[test]
fn seed_0x7019d_prepares_and_passes_the_oracle() {
    let shrunk = bw_ir::parse_module(
        "module fuzz_0007019d {
           mutexes 0
           barriers 0
           callsites 2
           spmd spmd
           func helper0(v0: i64, v1: i64) -> i64 {
           bb0:
             v2: i64 = const 4
             v3: i64 = shr v1, v0
             v4: bool = const false
             br v4, bb1, bb2
           bb1:
             v5: i64 = and v3, v2
             jump bb3
           bb2:
             v6: i64 = const 0
             jump bb3
           bb3:
             v7: i64 = phi [bb1, v5], [bb2, v6]
             ret v7
           }
           func spmd() {
           bb0:
             v0: i64 = threadid
             v1: i64 = const 4
             v2: i64 = call fn0(v1, v0) @cs0
             v3: i64 = call fn0(v2, v2) @cs1
             ret
           }
         }",
    )
    .expect("the reproducer parses");
    ProgramImage::try_prepare(shrunk, AnalysisConfig::default()).expect("the reproducer prepares");

    let module = generate_module(0x7019d, &GenConfig::default());
    assert_eq!(ModuleAnalysis::run(&module).iterations, 5);
    check_module(&module, &DEFAULT_THREADS, 0x7019d)
        .unwrap_or_else(|f| panic!("seed 0x7019d fails the oracle: {} ({})", f.message, f.class));
}

/// The two branches of 5,423 probed modules (the ports at every size,
/// `bw-gen` seeds 0–2999 and, at 60/120/240/480 statements, 0–599) whose
/// category changed when every update became a join. Both have the shape
/// of `0x7019d`: a helper is called with the thread ID at `cs0` and, at
/// `cs1`, with values only known once the first call's result is. In the
/// first pass its parameter is `threadID` (`cs0` alone); once `cs1`'s
/// arguments arrive, the mixed sites merge to `partial`. That
/// used to overwrite `threadID`, a move sideways; joined, it is
/// `threadID ⊔ partial = none`, and so is the branch on the parameter.
/// Moving up only loosens a check, so `none` cannot add a false positive.
#[test]
fn seeds_0x3b1_and_0x4f7_climb_to_none() {
    for (seed, branch) in [(0x3b1, 0), (0x4f7, 1)] {
        let module = generate_module(seed, &GenConfig::default());
        if let Err(f) = check_module(&module, &DEFAULT_THREADS, seed) {
            panic!("seed {seed:#x} fails the oracle: {} ({})", f.message, f.class);
        }
        let analysis = ModuleAnalysis::run(&module);
        assert_eq!(analysis.branches[branch].category, Category::None, "seed {seed:#x} b{branch}");
    }
}
