//! Fault models and the injection hook.
//!
//! The PIN-based injector of the paper picks one dynamic branch of one
//! thread and flips a single bit in either the flag register (the branch
//! goes the wrong, but legal, way) or the branch's condition variable (the
//! corruption persists in the register and may or may not flip the branch).
//! [`InjectionHook`] does exactly this at interpreter level, via the VM's
//! [`BranchHook`] integration point.

use std::cell::Cell;

use bw_ir::{BranchId, ValueId};
use bw_vm::{BranchHook, FaultAction};

use crate::liveness::ConditionLiveness;

/// The two fault models of the paper's Section IV.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultModel {
    /// Single bit flip in the flag register: the chosen dynamic branch's
    /// outcome is inverted, program data is untouched.
    BranchFlip,
    /// Single bit flip in the branch's condition data: persists in the
    /// register, may or may not flip the branch, and is visible to the
    /// instrumentation's witness.
    ConditionBitFlip,
}

/// The exact injection point and parameters of one experiment.
///
/// **Where `(tid, dyn_index)` lands.** [`InjectionHook`] fires at the first
/// branch the engine reports with this pair, and `@init` runs before the
/// parallel section *as thread 0 with a dynamic-branch count of its own*.
/// A plan for thread 0 with `dyn_index` at most `@init`'s branch count
/// therefore fires in `@init`, and thread 0's first that-many parallel
/// branches are never injected into (on the SPLASH ports: 29 of thread 0's
/// 2,715 branches on raytrace `Test`, 70 of 13,118 on FMM `Test`, 1,198 of
/// 3,449 on ocean-noncontig `Small`, 134 of 1,242 on FFT `Test`).
/// [`crate::plan_campaign`] draws `dyn_index` from the parallel section's
/// counts all the same; the rule is pinned, not fixed, because every
/// archived outcome tally includes such injections (ROADMAP's red list).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InjectionPlan {
    /// Thread to inject into.
    pub tid: u32,
    /// 1-based dynamic branch index within that thread.
    pub dyn_index: u64,
    /// Fault model.
    pub model: FaultModel,
    /// For [`FaultModel::ConditionBitFlip`]: which condition-data value to
    /// corrupt (taken modulo the number of candidates).
    pub value_choice: u32,
    /// For [`FaultModel::ConditionBitFlip`]: which bit to flip.
    pub bit: u8,
}

/// A branch hook that fires once at the planned injection point.
#[derive(Debug)]
pub struct InjectionHook<'a> {
    plan: InjectionPlan,
    /// The static branch the fault landed on, once it has.
    injected: Cell<Option<BranchId>>,
    /// What [`BranchHook::dead_after`] answers from, if anything.
    liveness: Option<&'a ConditionLiveness>,
}

impl InjectionHook<'static> {
    /// Creates the hook for one injection experiment. It never lets a
    /// fork stop early.
    pub fn new(plan: InjectionPlan) -> Self {
        InjectionHook { plan, injected: Cell::new(None), liveness: None }
    }
}

impl<'a> InjectionHook<'a> {
    /// The hook of [`InjectionHook::new`], answering
    /// [`BranchHook::dead_after`] from `liveness` (the table of the image it
    /// runs on), so that a fork of a [`bw_vm::SimPrefix`] ends at a
    /// condition-data fault that changes nothing.
    pub fn pruning(plan: InjectionPlan, liveness: &'a ConditionLiveness) -> Self {
        InjectionHook { liveness: Some(liveness), ..InjectionHook::new(plan) }
    }

    /// Whether the fault was actually injected (the target dynamic branch
    /// was reached).
    pub fn activated(&self) -> bool {
        self.injected_branch().is_some()
    }

    /// The static branch the fault landed on, once activated.
    pub fn injected_branch(&self) -> Option<BranchId> {
        self.injected.get()
    }
}

impl BranchHook for InjectionHook<'_> {
    fn on_branch(&self, tid: u32, dyn_index: u64, branch: BranchId) -> Option<FaultAction> {
        // Fire-once: one dynamic index occurs at most once per thread per
        // phase, but init/fini re-run as thread 0 with a fresh index
        // stream, so the same (tid, dyn_index) can legitimately be seen
        // more than once.
        if tid != self.plan.tid || dyn_index != self.plan.dyn_index || self.activated() {
            return None;
        }
        self.injected.set(Some(branch));
        Some(match self.plan.model {
            FaultModel::BranchFlip => FaultAction::FlipOutcome,
            FaultModel::ConditionBitFlip => FaultAction::CorruptData {
                value_choice: self.plan.value_choice,
                bit: self.plan.bit,
            },
        })
    }

    fn dead_after(&self, branch: BranchId, value: ValueId, taken: bool) -> bool {
        self.liveness.is_some_and(|l| l.dead_after(branch, value, taken))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_exactly_once_at_the_target() {
        let hook = InjectionHook::new(InjectionPlan {
            tid: 1,
            dyn_index: 3,
            model: FaultModel::BranchFlip,
            value_choice: 0,
            bit: 0,
        });
        assert_eq!(hook.on_branch(0, 3, BranchId(0)), None); // wrong thread
        assert_eq!(hook.on_branch(1, 2, BranchId(0)), None); // wrong index
        assert!(!hook.activated());
        assert_eq!(hook.on_branch(1, 3, BranchId(7)), Some(FaultAction::FlipOutcome));
        assert!(hook.activated());
        assert_eq!(hook.injected_branch(), Some(BranchId(7)));
        // Never fires again.
        assert_eq!(hook.on_branch(1, 3, BranchId(7)), None);
    }

    #[test]
    fn condition_model_requests_corruption() {
        let hook = InjectionHook::new(InjectionPlan {
            tid: 0,
            dyn_index: 1,
            model: FaultModel::ConditionBitFlip,
            value_choice: 2,
            bit: 17,
        });
        assert_eq!(
            hook.on_branch(0, 1, BranchId(0)),
            Some(FaultAction::CorruptData { value_choice: 2, bit: 17 })
        );
    }
}
