//! The dominator tree, unchanged but for its imports and its unit tests,
//! left out: it is built on the reference [`Cfg`], so the reference verifier
//! needs its own copy.

use super::cfg::Cfg;
use bw_ir::BlockId;

/// A dominator tree over the blocks of one function.
#[derive(Clone, Debug)]
pub struct DomTree {
    /// Immediate dominator of each block (`None` for the entry and for
    /// unreachable blocks).
    idom: Vec<Option<BlockId>>,
    /// Reverse postorder used during construction (reachable blocks only).
    rpo: Vec<BlockId>,
    /// Position of each block in `rpo` (`usize::MAX` if unreachable).
    rpo_pos: Vec<usize>,
    entry: BlockId,
}

impl DomTree {
    /// Computes the dominator tree of `cfg` rooted at `entry`.
    pub fn new(cfg: &Cfg, entry: BlockId) -> Self {
        let n = cfg.len();
        let rpo = cfg.reverse_postorder(entry);
        let mut rpo_pos = vec![usize::MAX; n];
        for (i, &bb) in rpo.iter().enumerate() {
            rpo_pos[bb.index()] = i;
        }

        let mut idom: Vec<Option<BlockId>> = vec![None; n];
        idom[entry.index()] = Some(entry); // sentinel; cleared at the end

        let mut changed = true;
        while changed {
            changed = false;
            for &bb in rpo.iter().skip(1) {
                // First processed predecessor with a known idom.
                let mut new_idom: Option<BlockId> = None;
                for &pred in cfg.preds(bb) {
                    if idom[pred.index()].is_some() {
                        new_idom = Some(match new_idom {
                            None => pred,
                            Some(cur) => Self::intersect(&idom, &rpo_pos, pred, cur),
                        });
                    }
                }
                if let Some(nd) = new_idom {
                    if idom[bb.index()] != Some(nd) {
                        idom[bb.index()] = Some(nd);
                        changed = true;
                    }
                }
            }
        }

        idom[entry.index()] = None;
        DomTree { idom, rpo, rpo_pos, entry }
    }

    fn intersect(
        idom: &[Option<BlockId>],
        rpo_pos: &[usize],
        mut a: BlockId,
        mut b: BlockId,
    ) -> BlockId {
        while a != b {
            while rpo_pos[a.index()] > rpo_pos[b.index()] {
                a = idom[a.index()].expect("intersect walked past entry");
            }
            while rpo_pos[b.index()] > rpo_pos[a.index()] {
                b = idom[b.index()].expect("intersect walked past entry");
            }
        }
        a
    }

    /// The entry block the tree is rooted at.
    pub fn entry(&self) -> BlockId {
        self.entry
    }

    /// The immediate dominator of `block` (`None` for the entry or an
    /// unreachable block).
    pub fn idom(&self, block: BlockId) -> Option<BlockId> {
        self.idom[block.index()]
    }

    /// Whether `a` dominates `b` (reflexive: every block dominates itself).
    /// Returns `false` if either block is unreachable.
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        if self.rpo_pos[a.index()] == usize::MAX || self.rpo_pos[b.index()] == usize::MAX {
            return false;
        }
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            match self.idom[cur.index()] {
                Some(next) => cur = next,
                None => return false,
            }
        }
    }

    /// Whether `block` is reachable from the entry.
    pub fn is_reachable(&self, block: BlockId) -> bool {
        block == self.entry || self.idom[block.index()].is_some()
    }

    /// The reverse postorder of reachable blocks used by the computation.
    pub fn reverse_postorder(&self) -> &[BlockId] {
        &self.rpo
    }
}
