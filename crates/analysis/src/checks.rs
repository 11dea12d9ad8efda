//! Check-plan construction: turns the similarity analysis into the list of
//! runtime checks the monitor executes (the paper's instrumentation pass).
//!
//! Instead of rewriting the IR with calls to `sendBranchCondition` /
//! `sendBranchAddr`, the plan is a side table the interpreter consults when
//! it executes an instrumented branch: which values to hash into the
//! *condition witness*, which check the monitor applies, and whether the
//! branch is instrumented at all. This is behaviourally equivalent to the
//! paper's IR rewriting (the cost model charges the same per-event cost the
//! library calls would) while keeping the IR immutable.

use bw_ir::{BranchId, CmpOp, FuncId, Module, Op, UnOp, ValueId};

use crate::analysis::ModuleAnalysis;
use crate::category::Category;

/// Configuration knobs of the static analysis + instrumentation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AnalysisConfig {
    /// Promote `none` branches to `partial` checking (compare only threads
    /// whose condition value matches) — the paper's first optimization.
    pub promote_none: bool,
    /// Skip branches that execute inside critical sections (at most one
    /// thread at a time) — the paper's second optimization.
    pub critical_section_opt: bool,
    /// Do not instrument branches nested in more than this many loops (the
    /// paper uses six; `raytrace` loses coverage to this cutoff).
    pub max_loop_depth: u32,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        AnalysisConfig { promote_none: true, critical_section_opt: true, max_loop_depth: 6 }
    }
}

/// The thread-ID predicate check derived from the branch's comparison shape.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TidCheck {
    /// `tid == shared`: at most one reporting thread takes the branch.
    AtMostOneTaken,
    /// `tid != shared`: at most one reporting thread does *not* take it.
    AtMostOneNotTaken,
    /// `tid < shared` / `tid <= shared`: the takers form a prefix of the
    /// thread IDs (taken is monotone non-increasing in tid).
    TakenIsPrefix,
    /// `tid > shared` / `tid >= shared`: the takers form a suffix.
    TakenIsSuffix,
}

impl TidCheck {
    /// Derives the check from a comparison with the thread ID on the left.
    pub fn from_cmp(op: CmpOp) -> TidCheck {
        match op {
            CmpOp::Eq => TidCheck::AtMostOneTaken,
            CmpOp::Ne => TidCheck::AtMostOneNotTaken,
            CmpOp::Lt | CmpOp::Le => TidCheck::TakenIsPrefix,
            CmpOp::Gt | CmpOp::Ge => TidCheck::TakenIsSuffix,
        }
    }
}

/// How the monitor checks one branch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CheckKind {
    /// All reporting threads must send the same witness and take the same
    /// direction (`shared` branches).
    SharedUniform,
    /// Thread-ID predicate on the outcomes, plus witness uniformity on the
    /// shared side of the comparison (`threadID` branches with a direct
    /// `tid ⋈ shared` comparison).
    ThreadIdPredicate(TidCheck),
    /// Group reporters by witness; each group must be direction-uniform
    /// (`partial` branches, promoted `none` branches, and `threadID`
    /// branches without a recognizable predicate).
    GroupByWitness,
}

/// Why a branch is not instrumented.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SkipReason {
    /// Outside the parallel section.
    NotParallel,
    /// Category `none` and promotion disabled.
    NotSimilar,
    /// Nested deeper than the loop-depth cutoff.
    TooDeep,
    /// Inside a critical section.
    CriticalSection,
}

/// The instrumentation decision for one branch.
#[derive(Clone, Debug)]
pub struct BranchCheck {
    /// The branch this check belongs to.
    pub branch: BranchId,
    /// The static category the check enforces (after promotion).
    pub effective_category: Category,
    /// The check the monitor applies.
    pub kind: CheckKind,
    /// Values hashed into the condition witness, in order. Evaluated from
    /// the executing thread's registers at the branch; they always dominate
    /// the branch because they are operands of (the chain producing) its
    /// condition.
    pub witnesses: Vec<ValueId>,
}

/// The full instrumentation plan for a module.
#[derive(Clone, Debug)]
pub struct CheckPlan {
    /// Per-branch decision: `Ok(check)` if instrumented, `Err(reason)` why
    /// not otherwise. Indexed by [`BranchId`].
    pub decisions: Vec<Result<BranchCheck, SkipReason>>,
    /// The configuration the plan was built with.
    pub config: AnalysisConfig,
}

impl CheckPlan {
    /// Builds the plan from an analysis result.
    pub fn build(module: &Module, analysis: &ModuleAnalysis, config: AnalysisConfig) -> CheckPlan {
        let decisions = analysis
            .branches
            .iter()
            .map(|b| {
                // Branches outside the functions reachable from the SPMD
                // entry run single-threaded: nothing to cross-check.
                if !b.in_parallel_section {
                    return Err(SkipReason::NotParallel);
                }
                if b.loop_depth >= config.max_loop_depth {
                    return Err(SkipReason::TooDeep);
                }
                if config.critical_section_opt && b.min_locks_held > 0 {
                    return Err(SkipReason::CriticalSection);
                }
                let effective = match b.category {
                    Category::None | Category::Na if config.promote_none => Category::Partial,
                    Category::None | Category::Na => return Err(SkipReason::NotSimilar),
                    c => c,
                };
                let (kind, witnesses) = derive_check(module, analysis, b.func, b.cond, effective);
                Ok(BranchCheck { branch: b.id, effective_category: effective, kind, witnesses })
            })
            .collect();
        CheckPlan { decisions, config }
    }

    /// The check for a branch, if it is instrumented.
    pub fn check(&self, branch: BranchId) -> Option<&BranchCheck> {
        self.decisions.get(branch.index())?.as_ref().ok()
    }

    /// Number of instrumented branches.
    pub fn num_instrumented(&self) -> usize {
        self.decisions.iter().filter(|d| d.is_ok()).count()
    }
}

/// Structural information about a branch condition, used both for witness
/// selection and by the fault injector (which corrupts the branch's
/// *condition data*, i.e. these values).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConditionInfo {
    /// The comparison producing the condition, if the condition is (a
    /// possibly negated chain over) a comparison: `(op, lhs, rhs, negated)`.
    pub cmp: Option<(CmpOp, ValueId, ValueId, bool)>,
    /// The non-constant condition data values (the comparison's variable
    /// operands, or the condition itself when it is not a comparison).
    pub data_values: Vec<ValueId>,
}

impl ConditionInfo {
    /// Extracts condition structure for `cond` in `f`.
    pub fn extract(f: &bw_ir::Function, cond: ValueId) -> ConditionInfo {
        let (_, negated, cmp) = peel(f, cond);
        ConditionInfo {
            cmp: cmp.map(|(op, lhs, rhs)| (op, lhs, rhs, negated)),
            data_values: cmp_witnesses(f, cmp, cond),
        }
    }
}

/// Peels `not`s and trivial phis off a branch condition: the value under
/// them, whether an odd number of `not`s was peeled, and the comparison
/// that value is, if it is one.
fn peel(f: &bw_ir::Function, cond: ValueId) -> (ValueId, bool, Option<(CmpOp, ValueId, ValueId)>) {
    let mut value = resolve_trivial(f, cond);
    let mut negated = false;
    while let Some(Op::Un { op: UnOp::Not, operand }) = f.def_inst(value).map(|i| &i.op) {
        negated = !negated;
        value = resolve_trivial(f, *operand);
    }
    let cmp = match f.def_inst(value).map(|i| &i.op) {
        Some(&Op::Cmp { op, lhs, rhs }) => Some((op, lhs, rhs)),
        _ => None,
    };
    (value, negated, cmp)
}

/// Chooses the runtime check and witness set for one branch condition.
fn derive_check(
    module: &Module,
    analysis: &ModuleAnalysis,
    func: FuncId,
    cond: ValueId,
    effective: Category,
) -> (CheckKind, Vec<ValueId>) {
    let f = module.func(func);
    let (value, negated, cmp) = peel(f, cond);
    match effective {
        Category::ThreadId => {
            if let Some((op, lhs, rhs)) = cmp {
                // Orient the comparison with the thread ID on the left.
                let lhs_is_tid = is_direct_tid(f, lhs)
                    && analysis.value_category(func, rhs) == Category::Shared;
                let rhs_is_tid = is_direct_tid(f, rhs)
                    && analysis.value_category(func, lhs) == Category::Shared;
                if lhs_is_tid || rhs_is_tid {
                    let mut oriented = if lhs_is_tid { op } else { op.swapped() };
                    if negated {
                        oriented = oriented.negated();
                    }
                    let shared_side = if lhs_is_tid { rhs } else { lhs };
                    let witnesses = non_const_values(f, &[shared_side]);
                    return (CheckKind::ThreadIdPredicate(TidCheck::from_cmp(oriented)), witnesses);
                }
            }
            // ThreadID-derived but not a direct `tid ⋈ shared` comparison:
            // fall back to value grouping, which is sound for any branch.
            (CheckKind::GroupByWitness, cmp_witnesses(f, cmp, value))
        }
        Category::Shared => (CheckKind::SharedUniform, cmp_witnesses(f, cmp, value)),
        _ => (CheckKind::GroupByWitness, cmp_witnesses(f, cmp, value)),
    }
}

/// Witnesses for value-comparing checks: the non-constant operands of the
/// comparison, or `fallback` when it is not a comparison or both operands
/// are constants.
fn cmp_witnesses(
    f: &bw_ir::Function,
    cmp: Option<(CmpOp, ValueId, ValueId)>,
    fallback: ValueId,
) -> Vec<ValueId> {
    match cmp {
        Some((_, lhs, rhs)) => {
            let w = non_const_values(f, &[lhs, rhs]);
            if w.is_empty() {
                vec![fallback]
            } else {
                w
            }
        }
        None => vec![fallback],
    }
}

fn non_const_values(f: &bw_ir::Function, values: &[ValueId]) -> Vec<ValueId> {
    values
        .iter()
        .copied()
        .filter(|&v| !matches!(f.def_inst(v).map(|i| &i.op), Some(Op::Const(_))))
        .collect()
}

/// Whether `value` is directly the thread ID: the `threadid` intrinsic or a
/// fetch-add on a thread-ID counter global, possibly behind trivial phis.
fn is_direct_tid(f: &bw_ir::Function, value: ValueId) -> bool {
    match f.def_inst(resolve_trivial(f, value)).map(|i| &i.op) {
        Some(Op::ThreadId) => true,
        Some(Op::AtomicFetchAdd { .. }) => true, // counter flag checked by category
        _ => false,
    }
}

/// Resolves trivial phis (all non-self incomings are the same value), which
/// the front-end's incremental SSA construction leaves behind for variables
/// that are read but not modified across a merge.
fn resolve_trivial(f: &bw_ir::Function, mut value: ValueId) -> ValueId {
    for _ in 0..64 {
        let Some(Op::Phi { incomings, .. }) = f.def_inst(value).map(|i| &i.op) else {
            return value;
        };
        let mut distinct = None;
        for inc in incomings {
            if inc.value == value {
                continue;
            }
            match distinct {
                None => distinct = Some(inc.value),
                Some(d) if d == inc.value => {}
                Some(_) => return value, // genuinely merging values
            }
        }
        match distinct {
            Some(d) => value = d,
            None => return value,
        }
    }
    value
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tid_check_derivation() {
        assert_eq!(TidCheck::from_cmp(CmpOp::Eq), TidCheck::AtMostOneTaken);
        assert_eq!(TidCheck::from_cmp(CmpOp::Ne), TidCheck::AtMostOneNotTaken);
        assert_eq!(TidCheck::from_cmp(CmpOp::Lt), TidCheck::TakenIsPrefix);
        assert_eq!(TidCheck::from_cmp(CmpOp::Le), TidCheck::TakenIsPrefix);
        assert_eq!(TidCheck::from_cmp(CmpOp::Gt), TidCheck::TakenIsSuffix);
        assert_eq!(TidCheck::from_cmp(CmpOp::Ge), TidCheck::TakenIsSuffix);
    }

    #[test]
    fn default_config_matches_paper() {
        let c = AnalysisConfig::default();
        assert!(c.promote_none);
        assert!(c.critical_section_opt);
        assert_eq!(c.max_loop_depth, 6);
    }
}
