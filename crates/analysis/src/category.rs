//! Similarity categories (Table I) and the propagation lattice (Table II).
//!
//! A category describes how a value (and ultimately a branch condition)
//! relates across the threads of an SPMD program:
//!
//! * [`Category::Shared`] — derived only from constants and shared globals;
//!   identical in every thread.
//! * [`Category::ThreadId`] — derived from the thread ID plus shared values;
//!   a known function of the thread ID.
//! * [`Category::Partial`] — takes one of a small set of shared values;
//!   threads holding the same value agree.
//! * [`Category::None`] — thread-private; no statically known similarity.
//! * [`Category::Na`] — not yet assigned (the fixpoint's bottom element).
//!
//! Ordered by how little they promise, they form the lattice
//! `NA < shared < {threadID, partial} < none` ([`Category::join`]). Table II
//! is its join, except that an `NA` operand leaves the result `NA`.

use std::fmt;

/// The similarity category of a value or branch (paper Table I).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Category {
    /// Not assigned yet (fixpoint bottom).
    Na,
    /// Same value in all threads.
    Shared,
    /// A function of the thread ID (thread ID combined with shared values).
    ThreadId,
    /// One of a small set of shared values; equal-valued threads agree.
    Partial,
    /// No statically inferable similarity.
    None,
}

impl Category {
    /// All categories, in lattice-friendly order.
    pub const ALL: [Category; 5] =
        [Category::Na, Category::Shared, Category::ThreadId, Category::Partial, Category::None];

    /// The least category at or above both, in the lattice
    /// `NA < shared < {threadID, partial} < none`: `NA` is the identity,
    /// `shared` is below every other assigned category, and `threadID` and
    /// `partial`, which promise different things, only meet at `none`.
    pub fn join(self, other: Category) -> Category {
        use Category::*;
        match (self, other) {
            (Na, c) | (c, Na) => c,
            (a, b) if a == b => a,
            (Shared, c) | (c, Shared) => c,
            _ => None,
        }
    }
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Category::Na => "NA",
            Category::Shared => "shared",
            Category::ThreadId => "threadID",
            Category::Partial => "partial",
            Category::None => "none",
        };
        f.write_str(s)
    }
}

/// The propagation rule of Table II: given the instruction's current
/// category (accumulated over the operands processed so far) and the next
/// operand's category, returns the updated instruction category.
///
/// The table is reproduced verbatim from the paper:
///
/// | curr \ op | NA | shared   | threadID | partial | none |
/// |-----------|----|----------|----------|---------|------|
/// | NA        | NA | shared   | threadID | partial | none |
/// | shared    | NA | shared   | threadID | partial | none |
/// | threadID  | NA | threadID | threadID | none    | none |
/// | partial   | NA | partial  | none     | partial | none |
/// | none      | NA | none     | none     | none    | none |
///
/// Outside the `NA` column it is [`Category::join`].
pub fn combine(curr: Category, operand: Category) -> Category {
    if operand == Category::Na {
        Category::Na
    } else {
        curr.join(operand)
    }
}

/// Folds [`combine`] over an operand list, starting from `Na` (the paper's
/// `visitInst`). Returns `Na` as soon as any operand is `Na`.
pub fn combine_all(operands: impl IntoIterator<Item = Category>) -> Category {
    let mut curr = Category::Na;
    for op in operands {
        if op == Category::Na {
            return Category::Na;
        }
        curr = curr.join(op);
    }
    curr
}

/// Optimistic fold used for phi nodes and call-site merges: `Na` operands
/// are skipped instead of forcing the result to `Na`, so loop-carried
/// values resolve from their initial value (the behaviour Table III of the
/// paper requires: the induction variable `i = phi(0, i+1)` becomes `shared`
/// in the first iteration even though `i+1` is still `NA`). It is the join
/// of the operands.
pub fn combine_optimistic(operands: impl IntoIterator<Item = Category>) -> Category {
    operands.into_iter().fold(Category::Na, Category::join)
}

#[cfg(test)]
mod tests {
    use super::*;
    use Category::*;

    /// Every cell of Table II, row by row.
    #[test]
    fn table2_exhaustive() {
        let expected: [[Category; 5]; 5] = [
            // operand:  NA, shared,   threadID, partial, none
            /* NA       */ [Na, Shared, ThreadId, Partial, None],
            /* shared   */ [Na, Shared, ThreadId, Partial, None],
            /* threadID */ [Na, ThreadId, ThreadId, None, None],
            /* partial  */ [Na, Partial, None, Partial, None],
            /* none     */ [Na, None, None, None, None],
        ];
        for (i, curr) in ALL_ROWS.iter().enumerate() {
            for (j, op) in ALL_ROWS.iter().enumerate() {
                assert_eq!(
                    combine(*curr, *op),
                    expected[i][j],
                    "combine({curr}, {op})"
                );
            }
        }
    }

    const ALL_ROWS: [Category; 5] = [Na, Shared, ThreadId, Partial, None];

    #[test]
    fn combine_is_monotone_in_operand_growth() {
        // If the operand category grows (in the similarity lattice order
        // Shared ≤ {ThreadId, Partial} ≤ None), the result never shrinks.
        fn le(a: Category, b: Category) -> bool {
            a == b
                || matches!(
                    (a, b),
                    (Shared, ThreadId)
                        | (Shared, Partial)
                        | (Shared, None)
                        | (ThreadId, None)
                        | (Partial, None)
                )
        }
        for curr in [Shared, ThreadId, Partial, None] {
            for a in [Shared, ThreadId, Partial, None] {
                for b in [Shared, ThreadId, Partial, None] {
                    if le(a, b) {
                        assert!(
                            le(combine(curr, a), combine(curr, b)),
                            "monotonicity violated: combine({curr},{a}) vs combine({curr},{b})"
                        );
                    }
                }
            }
        }
    }

    /// The lattice order, written out rather than read off the join: `NA`
    /// below everything, `none` above everything, `shared` below every
    /// assigned category, `threadID` and `partial` incomparable.
    fn below(a: Category, b: Category) -> bool {
        a == b || a == Na || b == None || (a == Shared && b != Na)
    }

    /// The join is the least upper bound of that order, checked on every
    /// pair and triple of the five elements.
    #[test]
    fn join_is_the_least_upper_bound() {
        for a in Category::ALL {
            assert_eq!(Na.join(a), a, "NA is the identity");
            assert_eq!(a.join(Na), a, "NA is the identity");
            assert_eq!(a.join(a), a, "idempotent");
            for b in Category::ALL {
                let j = a.join(b);
                assert_eq!(j, b.join(a), "commutative: {a} ⊔ {b}");
                assert!(below(a, j) && below(b, j), "upper bound: {a} ⊔ {b} = {j}");
                assert_eq!(below(a, b), j == b, "{a} ≤ {b} iff {a} ⊔ {b} = {b}");
                for c in Category::ALL {
                    assert_eq!(j.join(c), a.join(b.join(c)), "associative: {a}, {b}, {c}");
                    if below(a, c) && below(b, c) {
                        assert!(below(j, c), "least: {a} ⊔ {b} = {j} is not below {c}");
                    }
                }
            }
        }
    }

    /// A value whose category only joins climbs at most three times: the
    /// longest strictly rising chain is `NA < shared < threadID < none`
    /// (or through `partial`).
    #[test]
    fn the_longest_chain_has_three_steps() {
        // steps[i]: the longest chain that ends at `Category::ALL[i]`.
        // `ALL` lists every element after the ones below it.
        let mut steps = [0usize; 5];
        for (i, a) in Category::ALL.into_iter().enumerate() {
            for (k, b) in Category::ALL.into_iter().enumerate() {
                if b != a && below(b, a) {
                    assert!(k < i, "{b} is listed after {a}");
                    steps[i] = steps[i].max(steps[k] + 1);
                }
            }
        }
        assert_eq!(steps, [0, 1, 2, 2, 3]);
    }

    #[test]
    fn combine_all_blocks_on_na() {
        assert_eq!(combine_all([Shared, Na, Shared]), Na);
        assert_eq!(combine_all([Shared, ThreadId]), ThreadId);
        assert_eq!(combine_all([]), Na);
    }

    #[test]
    fn combine_optimistic_skips_na() {
        assert_eq!(combine_optimistic([Shared, Na]), Shared);
        assert_eq!(combine_optimistic([Na, Na]), Na);
        assert_eq!(combine_optimistic([Na, ThreadId, Shared]), ThreadId);
    }

    #[test]
    fn paper_examples() {
        // Branch 1: procid == 0 → threadID ⊔ shared = threadID
        assert_eq!(combine_all([ThreadId, Shared]), ThreadId);
        // Branch 2: i <= im-1 with i, im shared → shared
        assert_eq!(combine_all([Shared, Shared]), Shared);
        // Branch 3: gp[procid].num > im-1 → none ⊔ shared = none
        assert_eq!(combine_all([None, Shared]), None);
        // Branch 4: private > 0 with private partial → partial
        assert_eq!(combine_all([Partial, Shared]), Partial);
    }

    #[test]
    fn display_matches_paper_terms() {
        assert_eq!(Shared.to_string(), "shared");
        assert_eq!(ThreadId.to_string(), "threadID");
        assert_eq!(Partial.to_string(), "partial");
        assert_eq!(None.to_string(), "none");
    }
}
