//! Property tests for the similarity lattice and the fixpoint, each over
//! its whole finite domain.

use bw_analysis::{combine, combine_all, combine_optimistic, Category, ModuleAnalysis};

/// Partial order of the similarity lattice (`Na` at bottom, `None` at top).
fn le(a: Category, b: Category) -> bool {
    use Category::*;
    a == b || a == Na || b == None || matches!((a, b), (Shared, ThreadId) | (Shared, Partial))
}

/// Every sequence of one to five categories.
fn sequences() -> Vec<Vec<Category>> {
    let mut layer = vec![vec![]];
    let mut all = Vec::new();
    for _ in 0..5 {
        layer = layer
            .iter()
            .flat_map(|seq: &Vec<Category>| Category::ALL.map(|c| [&seq[..], &[c]].concat()))
            .collect();
        all.extend_from_slice(&layer);
    }
    all
}

/// Table II is the join of the similarity lattice for non-`Na` operands:
/// the result is an upper bound of both inputs.
#[test]
fn combine_is_an_upper_bound() {
    for a in Category::ALL {
        for b in Category::ALL {
            if a == Category::Na || b == Category::Na {
                continue;
            }
            let c = combine(a, b);
            assert!(le(a, c) && le(b, c), "combine({a}, {b}) = {c}");
        }
    }
}

/// Folding is order-insensitive once `Na` blocking is accounted for: any
/// permutation of non-`Na` operands gives the same category.
#[test]
fn combine_all_is_permutation_invariant() {
    for mut cats in sequences() {
        cats.retain(|&c| c != Category::Na);
        if cats.is_empty() {
            continue;
        }
        let forward = combine_all(cats.iter().copied());
        assert_eq!(forward, combine_all(cats.iter().rev().copied()), "{cats:?}");
    }
}

/// The optimistic fold equals the strict fold when no `Na` is present.
#[test]
fn optimistic_equals_strict_without_na() {
    for cats in sequences() {
        if cats.contains(&Category::Na) {
            continue;
        }
        let strict = combine_all(cats.iter().copied());
        assert_eq!(strict, combine_optimistic(cats.iter().copied()), "{cats:?}");
    }
}

/// The whole-module fixpoint is idempotent: re-running the analysis on the
/// same module gives identical branch categories, and terminates within the
/// paper's "fewer than ten iterations" on generated single-loop programs.
#[test]
fn fixpoint_is_idempotent_and_fast() {
    for bound in 1..30 {
        for guard in ["threadid()", "cfg"] {
            let source = format!(
                r#"
                shared int cfg = 5;
                int data[64];
                @spmd func f() {{
                    for (var i: int = 0; i < {bound}; i = i + 1) {{
                        if (i < {guard}) {{ output(i); }}
                        if (data[i % 64] > 0) {{ output(0 - i); }}
                    }}
                }}
                "#,
            );
            let module = bw_ir::frontend::compile(&source).expect("compiles");
            let a = ModuleAnalysis::run(&module);
            let b = ModuleAnalysis::run(&module);
            let cats_a: Vec<_> = a.branches.iter().map(|br| br.category).collect();
            let cats_b: Vec<_> = b.branches.iter().map(|br| br.category).collect();
            assert_eq!(cats_a, cats_b, "bound {bound}, guard {guard}");
            assert!(a.iterations < 10, "bound {bound}, guard {guard}: {} iterations", a.iterations);
        }
    }
}
