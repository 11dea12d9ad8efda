//! Integration tests reproducing the paper's worked examples: the Figure 1
//! classification, the Figure 2 / Table III convergence trace, and the
//! instrumentation optimizations of Section III-A.

use bw_analysis::{AnalysisConfig, Category, CheckKind, CheckPlan, ModuleAnalysis, SkipReason, TidCheck};
use bw_ir::frontend::compile;
use bw_ir::Module;

fn analyze(src: &str) -> (Module, ModuleAnalysis) {
    let module = compile(src).expect("compile");
    let analysis = ModuleAnalysis::run(&module);
    (module, analysis)
}

/// The full Figure 1 program: four branches, four categories.
fn figure1_src() -> &'static str {
    r#"
    module figure1;
    tid_counter int id = 0;
    shared int im = 16;
    int gp[64];
    mutex l;
    @init func main() {
        for (var i: int = 0; i < 64; i = i + 1) { gp[i] = rand(32); }
    }
    @spmd func slave() {
        lock(l);
        var procid: int = fetch_add(id, 1);
        unlock(l);
        // Branch 1: threadID
        if (procid == 0) { output(procid); }
        var private: int = 0;
        // Branch 2: shared
        for (var i: int = 0; i <= im - 1; i = i + 1) {
            // Branch 3: none
            if (gp[procid] > im - 1) {
                private = 1;
            } else {
                private = 0 - 1;
            }
            // Branch 4: partial
            if (private > 0) { output(private); }
        }
    }
    "#
}

#[test]
fn figure1_branch_categories() {
    let (module, analysis) = analyze(figure1_src());
    let slave = module.func_by_name("slave").unwrap();
    let cats: Vec<Category> = analysis
        .branches
        .iter()
        .filter(|b| b.func == slave)
        .map(|b| b.category)
        .collect();
    // Branch order in the lowered IR: threadID if, loop header (shared),
    // none if, partial if.
    assert_eq!(
        cats,
        vec![Category::ThreadId, Category::Shared, Category::None, Category::Partial],
    );
}

#[test]
fn figure1_parallel_section_excludes_init() {
    let (module, analysis) = analyze(figure1_src());
    let main = module.func_by_name("main").unwrap();
    assert!(analysis.branches.iter().filter(|b| b.func == main).all(|b| !b.in_parallel_section));
    assert!(!analysis.parallel_funcs[main.index()]);
}

/// Figure 2: `foo` is called from two call sites with different (but both
/// shared) arguments; both branches inside `foo` must still be `shared`
/// (the paper tracks instances per call site rather than merging to
/// `partial`).
fn figure2_src() -> &'static str {
    r#"
    module figure2;
    shared bool test = true;
    func foo(arg: int) {
        // Branch 2 (loop) and Branch 1 (if) of the paper's Figure 2.
        for (var i: int = 0; i < 5; i = i + 1) {
            if (i < arg) { output(i); }
        }
    }
    @spmd func slave() {
        foo(1);
        if (test) {
            foo(2);
        }
    }
    "#
}

#[test]
fn figure2_branches_are_shared_across_call_sites() {
    let (module, analysis) = analyze(figure2_src());
    let foo = module.func_by_name("foo").unwrap();
    let cats: Vec<Category> =
        analysis.branches.iter().filter(|b| b.func == foo).map(|b| b.category).collect();
    assert_eq!(cats, vec![Category::Shared, Category::Shared]);
}

/// Table III: the branches of Figure 2 start the first iteration at `NA`
/// (the induction variable's phi has not resolved yet) and become `shared`
/// from the second iteration on; the fixpoint converges in a handful of
/// iterations (the paper reports three for this example, fewer than ten in
/// general).
#[test]
fn table3_convergence_trace() {
    let (module, analysis) = analyze(figure2_src());
    let foo = module.func_by_name("foo").unwrap();
    let foo_branches: Vec<usize> = analysis
        .branches
        .iter()
        .enumerate()
        .filter(|(_, b)| b.func == foo)
        .map(|(i, _)| i)
        .collect();

    assert!(analysis.iterations <= 10, "paper: fewer than ten iterations");
    assert!(analysis.trace.len() >= 2);

    // Branch order inside foo: the loop-header branch (i < 5), then the
    // call-site-dependent branch (i < arg).
    let (loop_branch, arg_branch) = (foo_branches[0], foo_branches[1]);

    // The loop branch resolves in the first pass (our RPO visit order sees
    // `i = phi(0, i+1)` after the constant 0; the paper's arbitrary order
    // needed a second pass — same fixpoint, different schedule).
    assert_eq!(analysis.trace[0][loop_branch], Category::Shared);

    // The `i < arg` branch stays NA after the first pass — `arg` depends on
    // the call sites in slave(), which have not produced categories yet —
    // and becomes shared in the second, exactly as in Table III.
    assert_eq!(analysis.trace[0][arg_branch], Category::Na);
    assert_eq!(analysis.trace[1][arg_branch], Category::Shared);

    // Final: both stable at shared.
    for &bi in &foo_branches {
        assert_eq!(analysis.trace.last().unwrap()[bi], Category::Shared);
    }
}

/// The whole of `results/table3.txt` — every pass column, the pass count
/// and the `final` column — is what `ModuleAnalysis::run` computes on
/// Figure 2. The whole-module pass is the only schedule that has passes to
/// snapshot, which is why it is the analysis this repository keeps
/// (DESIGN §15).
#[test]
fn table3_matches_the_archived_exhibit_cell_for_cell() {
    let (module, analysis) = analyze(figure2_src());
    let archived = include_str!("../../../results/table3.txt");

    let mut rows = 0;
    for line in archived.lines() {
        // `br1 in foo    NA      shared  shared  shared`
        let cells: Vec<&str> = line.split_whitespace().collect();
        if cells.get(1) != Some(&"in") {
            continue;
        }
        let (label, cats) = cells.split_at(3);
        let b = &analysis.branches[rows];
        assert_eq!(label, [&b.id.to_string(), "in", &module.func(b.func).name], "row {rows}");
        let (passes, last) = cats.split_at(cats.len() - 1);
        let traced: Vec<String> = analysis.trace.iter().map(|p| p[rows].to_string()).collect();
        assert_eq!(passes, traced, "pass columns of {line:?}");
        assert_eq!(last, [b.category.to_string()], "final column of {line:?}");
        rows += 1;
    }
    assert_eq!(rows, analysis.branches.len(), "one row per branch");

    let converged = format!("fixpoint converged in {} passes", analysis.iterations);
    assert!(archived.contains(&converged), "archived exhibit does not say: {converged}");
    assert_eq!(analysis.trace.len(), analysis.iterations);
}

#[test]
fn loop_induction_variable_is_shared_not_partial() {
    // The loop phi merges 0 and i+1 — plain Table II combine (shared), not
    // the if-else partial downgrade.
    let (_m, analysis) = analyze(
        r#"
        shared int n = 10;
        @spmd func f() {
            for (var i: int = 0; i < n; i = i + 1) { output(i); }
        }
        "#,
    );
    assert_eq!(analysis.branches[0].category, Category::Shared);
}

#[test]
fn if_else_merge_of_distinct_shared_values_is_partial() {
    let (_m, analysis) = analyze(
        r#"
        int gp[8];
        shared int lim = 4;
        @spmd func f() {
            var private: int = 0;
            if (gp[threadid()] > lim) { private = 1; } else { private = 0 - 1; }
            if (private > 0) { output(private); }
        }
        "#,
    );
    assert_eq!(analysis.branches[0].category, Category::None);
    assert_eq!(analysis.branches[1].category, Category::Partial);
}

#[test]
fn unmodified_variable_through_branch_stays_shared() {
    // x is shared and not written in either arm; the (trivial) merge phi
    // must not downgrade it to partial.
    let (_m, analysis) = analyze(
        r#"
        shared int n = 3;
        int noise[8];
        @spmd func f() {
            var x: int = n * 2;
            if (noise[threadid()] > 0) { output(1); }
            if (x > 4) { output(x); }
        }
        "#,
    );
    assert_eq!(analysis.branches[1].category, Category::Shared);
}

#[test]
fn threadid_through_arithmetic_stays_threadid() {
    let (_m, analysis) = analyze(
        r#"
        shared int n = 8;
        @spmd func f() {
            var chunk: int = threadid() * n + 1;
            if (chunk < n * 4) { output(chunk); }
        }
        "#,
    );
    assert_eq!(analysis.branches[0].category, Category::ThreadId);
}

#[test]
fn threadid_combined_with_partial_is_none() {
    // Table II: partial ⊔ threadID = none.
    let (_m, analysis) = analyze(
        r#"
        int gp[8];
        shared int lim = 4;
        @spmd func f() {
            var p: int = 0;
            if (gp[threadid()] > lim) { p = 1; } else { p = 2; }
            if (p + threadid() > 3) { output(p); }
        }
        "#,
    );
    assert_eq!(analysis.branches[1].category, Category::None);
}

#[test]
fn rand_is_none() {
    let (_m, analysis) = analyze(
        r#"
        @spmd func f() {
            if (rand(10) > 5) { output(1); }
        }
        "#,
    );
    assert_eq!(analysis.branches[0].category, Category::None);
}

#[test]
fn non_shared_global_load_is_none() {
    let (_m, analysis) = analyze(
        r#"
        int counter = 0;
        @spmd func f() {
            if (counter > 0) { output(1); }
        }
        "#,
    );
    assert_eq!(analysis.branches[0].category, Category::None);
}

#[test]
fn shared_array_indexed_by_tid_is_partial() {
    // The loaded value is one of the elements of a shared (read-only)
    // array: groupable by value.
    let (_m, analysis) = analyze(
        r#"
        shared int bounds[8];
        @spmd func f() {
            if (bounds[threadid()] > 0) { output(1); }
        }
        "#,
    );
    assert_eq!(analysis.branches[0].category, Category::Partial);
}

#[test]
fn numthreads_is_shared() {
    let (_m, analysis) = analyze(
        r#"
        @spmd func f() {
            if (numthreads() > 4) { output(1); }
        }
        "#,
    );
    assert_eq!(analysis.branches[0].category, Category::Shared);
}

#[test]
fn mixed_call_sites_degrade_to_partial() {
    let (module, analysis) = analyze(
        r#"
        shared int n = 4;
        func leaf(x: int) {
            if (x > 2) { output(x); }
        }
        @spmd func f() {
            leaf(n);          // shared arg
            leaf(threadid()); // threadID arg
        }
        "#,
    );
    let leaf = module.func_by_name("leaf").unwrap();
    let cat = analysis.branches.iter().find(|b| b.func == leaf).unwrap().category;
    assert_eq!(cat, Category::Partial);
}

#[test]
fn indirect_callee_params_merge_over_table() {
    let (module, analysis) = analyze(
        r#"
        shared int n = 4;
        table fs = { a, b };
        func a(x: int) { if (x > 1) { output(x); } }
        func b(x: int) { if (x > 2) { output(x); } }
        @spmd func f() {
            fs[threadid() - threadid() / 2 * 2](n);
        }
        "#,
    );
    for name in ["a", "b"] {
        let fid = module.func_by_name(name).unwrap();
        let cat = analysis.branches.iter().find(|b| b.func == fid).unwrap().category;
        assert_eq!(cat, Category::Shared, "{name}");
    }
}

// ---- instrumentation plan ----

#[test]
fn critical_section_branches_are_skipped() {
    let (module, analysis) = analyze(
        r#"
        mutex m;
        shared int n = 4;
        @spmd func f() {
            lock(m);
            if (n > 2) { output(1); }   // inside critical section
            unlock(m);
            if (n > 3) { output(2); }   // outside
        }
        "#,
    );
    assert_eq!(analysis.branches[0].min_locks_held, 1);
    assert_eq!(analysis.branches[1].min_locks_held, 0);

    let plan = CheckPlan::build(&module, &analysis, AnalysisConfig::default());
    assert!(matches!(plan.decisions[0], Err(SkipReason::CriticalSection)));
    assert!(plan.decisions[1].is_ok());

    let no_opt =
        CheckPlan::build(&module, &analysis, AnalysisConfig { critical_section_opt: false, ..AnalysisConfig::default() });
    assert!(no_opt.decisions[0].is_ok());
}

#[test]
fn critical_section_propagates_through_calls() {
    let (module, analysis) = analyze(
        r#"
        mutex m;
        shared int n = 4;
        func helper() {
            if (n > 2) { output(1); }
        }
        @spmd func f() {
            lock(m);
            helper();
            unlock(m);
        }
        "#,
    );
    let helper = module.func_by_name("helper").unwrap();
    let b = analysis.branches.iter().find(|b| b.func == helper).unwrap();
    assert_eq!(b.min_locks_held, 1);
}

#[test]
fn deep_loops_hit_the_nesting_cutoff() {
    let (module, analysis) = analyze(
        r#"
        shared int n = 2;
        @spmd func f() {
            for (var a: int = 0; a < n; a = a + 1) {
             for (var b: int = 0; b < n; b = b + 1) {
              for (var c: int = 0; c < n; c = c + 1) {
               for (var d: int = 0; d < n; d = d + 1) {
                for (var e: int = 0; e < n; e = e + 1) {
                 for (var g: int = 0; g < n; g = g + 1) {
                  for (var h: int = 0; h < n; h = h + 1) {
                    output(h);
                  }
                 }
                }
               }
              }
             }
            }
        }
        "#,
    );
    let plan = CheckPlan::build(&module, &analysis, AnalysisConfig::default());
    // Seven nested loops: headers sit at depths 1..=7. Depths >= 6 are cut
    // off, so the two innermost loop branches are skipped.
    let deepest = analysis.branches.iter().map(|b| b.loop_depth).max().unwrap();
    assert_eq!(deepest, 7);
    let skipped: Vec<u32> = plan
        .decisions
        .iter()
        .enumerate()
        .filter(|(_, d)| matches!(d, Err(SkipReason::TooDeep)))
        .map(|(i, _)| analysis.branches[i].loop_depth)
        .collect();
    assert_eq!(skipped, vec![6, 7]);
}

#[test]
fn promotion_turns_none_into_group_by_witness() {
    let (module, analysis) = analyze(
        r#"
        int gp[8];
        @spmd func f() {
            if (gp[threadid()] > 0) { output(1); }
        }
        "#,
    );
    assert_eq!(analysis.branches[0].category, Category::None);

    let plan = CheckPlan::build(&module, &analysis, AnalysisConfig::default());
    let check = plan.check(bw_ir::BranchId(0)).expect("promoted");
    assert_eq!(check.effective_category, Category::Partial);
    assert_eq!(check.kind, CheckKind::GroupByWitness);

    let strict = CheckPlan::build(
        &module,
        &analysis,
        AnalysisConfig { promote_none: false, ..AnalysisConfig::default() },
    );
    assert!(matches!(strict.decisions[0], Err(SkipReason::NotSimilar)));
}

#[test]
fn tid_predicates_cover_all_comparison_shapes() {
    let (module, analysis) = analyze(
        r#"
        shared int half = 4;
        @spmd func f() {
            var t: int = threadid();
            if (t == 0) { output(1); }
            if (t != 0) { output(2); }
            if (t < half) { output(3); }
            if (t >= half) { output(4); }
            if (half > t) { output(5); }   // swapped operands → prefix
        }
        "#,
    );
    let plan = CheckPlan::build(&module, &analysis, AnalysisConfig::default());
    let kinds: Vec<CheckKind> = (0..5)
        .map(|i| plan.check(bw_ir::BranchId(i)).unwrap().kind)
        .collect();
    assert_eq!(
        kinds,
        vec![
            CheckKind::ThreadIdPredicate(TidCheck::AtMostOneTaken),
            CheckKind::ThreadIdPredicate(TidCheck::AtMostOneNotTaken),
            CheckKind::ThreadIdPredicate(TidCheck::TakenIsPrefix),
            CheckKind::ThreadIdPredicate(TidCheck::TakenIsSuffix),
            CheckKind::ThreadIdPredicate(TidCheck::TakenIsPrefix),
        ]
    );
    let _ = module;
}

#[test]
fn shared_branch_witnesses_exclude_constants() {
    let (module, analysis) = analyze(
        r#"
        shared int n = 4;
        @spmd func f() {
            if (n > 2) { output(1); }
        }
        "#,
    );
    let plan = CheckPlan::build(&module, &analysis, AnalysisConfig::default());
    let check = plan.check(bw_ir::BranchId(0)).unwrap();
    assert_eq!(check.kind, CheckKind::SharedUniform);
    // Only the load of `n` is a witness; the constant 2 is not.
    assert_eq!(check.witnesses.len(), 1);
}

#[test]
fn derived_tid_without_direct_cmp_falls_back_to_grouping() {
    let (module, analysis) = analyze(
        r#"
        shared int n = 8;
        @spmd func f() {
            var start: int = threadid() * n;
            if (start < n * 4) { output(start); }
        }
        "#,
    );
    assert_eq!(analysis.branches[0].category, Category::ThreadId);
    let plan = CheckPlan::build(&module, &analysis, AnalysisConfig::default());
    assert_eq!(plan.check(bw_ir::BranchId(0)).unwrap().kind, CheckKind::GroupByWitness);
}

#[test]
fn fixpoint_converges_quickly_on_all_examples() {
    for src in [figure1_src(), figure2_src()] {
        let (_m, analysis) = analyze(src);
        assert!(analysis.iterations < 10, "took {} iterations", analysis.iterations);
    }
}
