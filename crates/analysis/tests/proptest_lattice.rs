//! Property tests for the similarity lattice and the fixpoint.

use bw_analysis::{combine, combine_all, combine_optimistic, Category, ModuleAnalysis};
use proptest::prelude::*;

fn category() -> impl Strategy<Value = Category> {
    prop_oneof![
        Just(Category::Na),
        Just(Category::Shared),
        Just(Category::ThreadId),
        Just(Category::Partial),
        Just(Category::None),
    ]
}

/// Partial order of the similarity lattice (`Na` at bottom, `None` at top).
fn le(a: Category, b: Category) -> bool {
    use Category::*;
    a == b
        || a == Na
        || b == None
        || matches!((a, b), (Shared, ThreadId) | (Shared, Partial))
}

proptest! {
    /// Table II is the join of the similarity lattice for non-`Na`
    /// operands: the result is an upper bound of both inputs.
    #[test]
    fn combine_is_an_upper_bound(a in category(), b in category()) {
        prop_assume!(a != Category::Na && b != Category::Na);
        let c = combine(a, b);
        prop_assert!(le(a, c), "{a} not <= {c}");
        prop_assert!(le(b, c), "{b} not <= {c}");
    }

    /// Folding is order-insensitive once `Na` blocking is accounted for:
    /// any permutation of non-`Na` operands gives the same category.
    #[test]
    fn combine_all_is_permutation_invariant(
        mut cats in proptest::collection::vec(category(), 1..6),
    ) {
        cats.retain(|&c| c != Category::Na);
        prop_assume!(!cats.is_empty());
        let forward = combine_all(cats.iter().copied());
        cats.reverse();
        prop_assert_eq!(forward, combine_all(cats.iter().copied()));
    }

    /// The optimistic fold equals the strict fold when no `Na` is present.
    #[test]
    fn optimistic_equals_strict_without_na(
        cats in proptest::collection::vec(category(), 1..6),
    ) {
        prop_assume!(cats.iter().all(|&c| c != Category::Na));
        prop_assert_eq!(
            combine_all(cats.iter().copied()),
            combine_optimistic(cats.iter().copied())
        );
    }

    /// The whole-module fixpoint is idempotent: re-running the analysis on
    /// the same module gives identical branch categories, and terminates
    /// within the paper's "fewer than ten iterations" on generated
    /// single-loop programs.
    #[test]
    fn fixpoint_is_idempotent_and_fast(bound in 1u8..30, use_tid in any::<bool>()) {
        let guard = if use_tid { "threadid()" } else { "cfg" };
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
        prop_assert_eq!(cats_a, cats_b);
        prop_assert!(a.iterations < 10, "took {} iterations", a.iterations);
    }
}
