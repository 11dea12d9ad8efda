//! The CFG as it was before it was flat: a `Vec` of successors and one of
//! predecessors per block, filled from a `Vec` per terminator. Unchanged but
//! for its imports, its unit tests, left out, and `Op::successors`, which
//! returned that `Vec` and is kept here as [`successors`].

use bw_ir::{BlockId, Function, Op};

/// The successor blocks of this op, if it is a terminator.
pub fn successors(op: &Op) -> Vec<BlockId> {
    match op {
        Op::Br { then_bb, else_bb, .. } => vec![*then_bb, *else_bb],
        Op::Jump(bb) => vec![*bb],
        Op::Ret(_) | Op::Trap => Vec::new(),
        _ => Vec::new(),
    }
}

/// Precomputed CFG edges for a function.
#[derive(Clone, Debug)]
pub struct Cfg {
    succs: Vec<Vec<BlockId>>,
    preds: Vec<Vec<BlockId>>,
}

impl Cfg {
    /// Computes the CFG of `func` from its terminators. Blocks without a
    /// terminator (only possible mid-construction) have no successors.
    pub fn new(func: &Function) -> Self {
        let n = func.blocks.len();
        let mut succs = vec![Vec::new(); n];
        let mut preds = vec![Vec::new(); n];
        for (bb, block) in func.iter_blocks() {
            if let Some(term) = block.terminator() {
                for succ in successors(&term.op) {
                    succs[bb.index()].push(succ);
                    preds[succ.index()].push(bb);
                }
            }
        }
        Cfg { succs, preds }
    }

    /// Successors of a block.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn succs(&self, block: BlockId) -> &[BlockId] {
        &self.succs[block.index()]
    }

    /// Predecessors of a block.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn preds(&self, block: BlockId) -> &[BlockId] {
        &self.preds[block.index()]
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.succs.len()
    }

    /// Whether the CFG has no blocks.
    pub fn is_empty(&self) -> bool {
        self.succs.is_empty()
    }

    /// Blocks in reverse postorder from the entry. Unreachable blocks are
    /// excluded.
    pub fn reverse_postorder(&self, entry: BlockId) -> Vec<BlockId> {
        let mut order = self.postorder(entry);
        order.reverse();
        order
    }

    /// Blocks in postorder from the entry (iterative DFS). Unreachable
    /// blocks are excluded.
    pub fn postorder(&self, entry: BlockId) -> Vec<BlockId> {
        let n = self.len();
        let mut visited = vec![false; n];
        let mut order = Vec::with_capacity(n);
        // Each stack frame is (block, next-successor-index).
        let mut stack: Vec<(BlockId, usize)> = vec![(entry, 0)];
        visited[entry.index()] = true;
        while let Some((bb, idx)) = stack.last_mut() {
            let succs = &self.succs[bb.index()];
            if *idx < succs.len() {
                let next = succs[*idx];
                *idx += 1;
                if !visited[next.index()] {
                    visited[next.index()] = true;
                    stack.push((next, 0));
                }
            } else {
                order.push(*bb);
                stack.pop();
            }
        }
        order
    }

    /// Blocks reachable from `entry`, as a boolean vector indexed by block.
    pub fn reachable(&self, entry: BlockId) -> Vec<bool> {
        let mut seen = vec![false; self.len()];
        let mut work = vec![entry];
        seen[entry.index()] = true;
        while let Some(bb) = work.pop() {
            for &succ in self.succs(bb) {
                if !seen[succ.index()] {
                    seen[succ.index()] = true;
                    work.push(succ);
                }
            }
        }
        seen
    }
}
