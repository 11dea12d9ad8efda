//! Which condition-data values a branch leaves dead.
//!
//! A [`FaultModel::ConditionBitFlip`](crate::FaultModel) fault flips a bit
//! of one of its branch's condition-data values, in that value's register,
//! and the branch then goes the way the corrupted data says. When that is
//! the way it went anyway and, from the edge it takes on, nothing reads the
//! register before the value is defined again, the fault has changed
//! nothing at all: the run is the fault-free one. [`ConditionLiveness`]
//! answers the second half of that question for every branch of a module,
//! edge by edge, so that a campaign's fork can end at such a fault
//! ([`bw_vm::BranchHook::dead_after`]).
//!
//! The register of a condition-data value is its own: the link stage lets
//! no phi share it (`bw_vm`'s image docs). So the register is read exactly
//! where the value is, and the question is one of SSA liveness within the
//! branch's function:
//!
//! * an instruction's operand is a use where it stands — a call argument,
//!   a returned value and the branch's own condition included;
//! * a phi incoming is a use at the end of the edge's source block: the
//!   edge's copy reads it, the edge out of the branch itself included;
//! * a witness of an instrumented branch is a use at that branch, whose
//!   event hashes it (whether or not a monitor listens: that only makes
//!   the answer more careful);
//! * the value is defined again where its instruction runs again, or, for
//!   a phi, on every edge into its block. A parameter is never redefined
//!   within its frame: a back edge into the entry block writes none.
//!
//! A call leaves the caller's registers alone, and a return drops them, so
//! nothing outside the function can read the value.

use bw_analysis::ConditionInfo;
use bw_ir::{BlockId, BranchId, Cfg, Function, Op, ValueDef, ValueId};
use bw_vm::ProgramImage;

/// "No slot" in [`function_liveness`]'s value→slot map.
const UNTRACKED: u32 = u32::MAX;

/// For every branch of a module and each of its condition-data values,
/// whether the value is dead once the branch has gone each of its two ways.
/// Built once per condition-bit-flip campaign; the prepared image does not
/// carry it.
#[derive(Clone, Debug)]
pub struct ConditionLiveness {
    /// `values[starts[b]..starts[b + 1]]` are branch `b`'s condition-data
    /// values, each with whether it is dead on the taken edge (`[0]`) and on
    /// the other (`[1]`).
    starts: Vec<u32>,
    values: Vec<(ValueId, [bool; 2])>,
}

impl ConditionLiveness {
    /// The table of `image`'s module, whose branch witnesses are those of
    /// `image.plan`.
    pub fn new(image: &ProgramImage) -> Self {
        let branches = &image.analysis.branches;
        let mut entries: Vec<(usize, ValueId, [bool; 2])> = Vec::new();
        for (f, func) in image.module.funcs.iter().enumerate() {
            let here: Vec<_> = branches.iter().filter(|b| b.func.index() == f).collect();
            if here.is_empty() {
                continue;
            }
            let data: Vec<Vec<ValueId>> =
                here.iter().map(|b| ConditionInfo::extract(func, b.cond).data_values).collect();
            let witnesses = here
                .iter()
                .filter_map(|b| image.plan.check(b.id).map(|c| (b.block, &c.witnesses[..])));
            let live = function_liveness(func, data.iter().flatten().copied(), witnesses);
            for (b, data) in here.iter().zip(&data) {
                let Some(Op::Br { then_bb, else_bb, .. }) =
                    func.block(b.block).terminator().map(|t| &t.op)
                else {
                    continue;
                };
                for &v in data {
                    let dead = |to: BlockId| !live.on_edge(func, v, b.block, to);
                    entries.push((b.id.index(), v, [dead(*then_bb), dead(*else_bb)]));
                }
            }
        }
        entries.sort_by_key(|&(b, ..)| b);
        let mut starts = Vec::with_capacity(branches.len() + 1);
        let mut next = 0;
        for b in 0..branches.len() {
            starts.push(next as u32);
            while entries.get(next).is_some_and(|&(of, ..)| of == b) {
                next += 1;
            }
        }
        starts.push(next as u32);
        ConditionLiveness { starts, values: entries.into_iter().map(|(_, v, d)| (v, d)).collect() }
    }

    /// Whether condition-data `value` of `branch` is dead once the branch
    /// has gone `taken`'s way: `false` for a value the branch does not
    /// have.
    pub fn dead_after(&self, branch: BranchId, value: ValueId, taken: bool) -> bool {
        let b = branch.index();
        let Some(range) = self.starts.get(b..b + 2) else { return false };
        self.values[range[0] as usize..range[1] as usize]
            .iter()
            .find(|&&(v, _)| v == value)
            .is_some_and(|(_, dead)| dead[usize::from(!taken)])
    }
}

/// Where, within one function, each tracked value is live on entry to a
/// block.
struct FunctionLiveness {
    /// The slot of each value of the function ([`UNTRACKED`] if none).
    slot: Vec<u32>,
    blocks: usize,
    /// `live_in[slot * blocks + block]`.
    live_in: Vec<bool>,
}

impl FunctionLiveness {
    /// Whether `value` is read once the edge `from → to` is taken: by the
    /// edge's copies, or after it before being redefined.
    fn on_edge(&self, func: &Function, value: ValueId, from: BlockId, to: BlockId) -> bool {
        let slot = self.slot[value.index()] as usize;
        self.live_in[slot * self.blocks + to.index()]
            || func.block(to).phis().any(|phi| {
                let incomings = phi.op.phi_incomings().unwrap_or(&[]);
                incomings.iter().any(|inc| inc.block == from && inc.value == value)
            })
    }
}

/// Backward liveness of the `tracked` values of `func`, whose instrumented
/// branches (by block) hash the given witnesses.
fn function_liveness<'a>(
    func: &Function,
    tracked: impl Iterator<Item = ValueId>,
    witnesses: impl Iterator<Item = (BlockId, &'a [ValueId])>,
) -> FunctionLiveness {
    let mut slot = vec![UNTRACKED; func.num_values()];
    // The block each tracked value is defined in; `None` for a parameter.
    let mut defined_in: Vec<Option<BlockId>> = Vec::new();
    for v in tracked {
        if slot[v.index()] == UNTRACKED {
            slot[v.index()] = defined_in.len() as u32;
            defined_in.push(match func.defs[v.index()] {
                ValueDef::Param(_) => None,
                ValueDef::Inst { block, .. } => Some(block),
            });
        }
    }
    let blocks = func.blocks.len();
    let cfg = Cfg::new(func);
    let mut live_in = vec![false; defined_in.len() * blocks];
    let mut work: Vec<(usize, BlockId)> = Vec::new();
    // The value in `slot` is read at `block` (or on an edge out of it) and
    // not defined there after the read: live on entry, unless defined at
    // the top of the block (in SSA a definition in the block precedes
    // every read there).
    let mut read = |slot: usize, block: BlockId, work: &mut Vec<(usize, BlockId)>| {
        let at = slot * blocks + block.index();
        if defined_in[slot] != Some(block) && !live_in[at] {
            live_in[at] = true;
            work.push((slot, block));
        }
    };

    for (id, block) in func.iter_blocks() {
        for inst in &block.insts {
            if let Some(incomings) = inst.op.phi_incomings() {
                for inc in incomings {
                    if let Some(s) = tracked_slot(&slot, inc.value) {
                        read(s, inc.block, &mut work);
                    }
                }
            } else {
                for v in inst.op.operands() {
                    if let Some(s) = tracked_slot(&slot, v) {
                        read(s, id, &mut work);
                    }
                }
            }
        }
    }
    for (block, witnesses) in witnesses {
        for &w in witnesses {
            if let Some(s) = tracked_slot(&slot, w) {
                read(s, block, &mut work);
            }
        }
    }
    // Live on entry to a block: live at the end of each predecessor.
    while let Some((s, block)) = work.pop() {
        for &pred in cfg.preds(block) {
            read(s, pred, &mut work);
        }
    }
    FunctionLiveness { slot, blocks, live_in }
}

fn tracked_slot(slot: &[u32], value: ValueId) -> Option<usize> {
    slot.get(value.index()).filter(|&&s| s != UNTRACKED).map(|&s| s as usize)
}
