//! Control-flow graph: the successors and predecessors of every block.
//! Orders over it are the dominator tree's ([`crate::DomTree::reverse_postorder`]).

use crate::function::{Block, Function};
use crate::ids::BlockId;

/// The successors `block`'s terminator names (none without one).
fn succs_of(block: &Block) -> impl Iterator<Item = BlockId> + '_ {
    block.terminator().into_iter().flat_map(|t| t.op.successors())
}

/// Precomputed CFG edges for a function, flat: every block's successors and
/// predecessors are one run each of a single edge array.
///
/// Successors are in terminator order (`br`'s `then` before its `else`);
/// predecessors in block order, each once per edge — `br v, bb1, bb1` makes
/// `bb1` a successor twice and its block a predecessor of `bb1` twice.
#[derive(Clone, Debug)]
pub struct Cfg {
    /// `starts[b]..starts[b + 1]` is where the successors of block `b` lie
    /// in `edges`; `starts[n + 1 + b]..starts[n + 2 + b]` its predecessors.
    starts: Vec<u32>,
    /// All successor runs, block by block, then all predecessor runs.
    edges: Vec<BlockId>,
}

impl Cfg {
    /// Computes the CFG of `func` from its terminators. Blocks without a
    /// terminator (only possible mid-construction) have no successors.
    ///
    /// # Panics
    ///
    /// Panics if a terminator names a block out of range (the verifier
    /// rejects such functions before it builds their CFG).
    pub fn new(func: &Function) -> Self {
        let n = func.blocks.len();
        let count: usize = func.blocks.iter().map(|block| succs_of(block).count()).sum();
        let mut starts = vec![0u32; 2 * n + 3];
        let mut edges = vec![BlockId(0); 2 * count];

        // Successor runs in block order; meanwhile count every block's
        // predecessors two slots ahead (`starts[n + 3 + b]`).
        let mut next = 0;
        for (b, block) in func.blocks.iter().enumerate() {
            starts[b] = next as u32;
            for succ in succs_of(block) {
                edges[next] = succ;
                next += 1;
                starts[n + 3 + succ.index()] += 1;
            }
        }
        starts[n] = next as u32;
        // Prefix sums from the end of the successor runs turn the counts
        // into predecessor-run starts one slot ahead (`starts[n + 2 + b]`);
        // placing each run's edges advances its start to the next run's,
        // which leaves every start in its own slot.
        starts[n + 1] = next as u32;
        for i in n + 2..2 * n + 3 {
            starts[i] += starts[i - 1];
        }
        for b in 0..n {
            for i in starts[b]..starts[b + 1] {
                let succ = edges[i as usize].index();
                let slot = &mut starts[n + 2 + succ];
                edges[*slot as usize] = BlockId::from_index(b);
                *slot += 1;
            }
        }
        Cfg { starts, edges }
    }

    /// Successors of a block.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn succs(&self, block: BlockId) -> &[BlockId] {
        let b = block.index();
        assert!(b < self.len(), "{block} out of range");
        &self.edges[self.starts[b] as usize..self.starts[b + 1] as usize]
    }

    /// Predecessors of a block.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn preds(&self, block: BlockId) -> &[BlockId] {
        let b = block.index();
        assert!(b < self.len(), "{block} out of range");
        let at = self.len() + 1 + b;
        &self.edges[self.starts[at] as usize..self.starts[at + 1] as usize]
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        (self.starts.len() - 3) / 2
    }

    /// Whether the CFG has no blocks.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::dom::DomTree;
    use crate::value::Type;

    /// The reverse postorder from block 0, as the dominator tree keeps it.
    fn rpo(cfg: &Cfg) -> Vec<BlockId> {
        DomTree::new(cfg, BlockId(0)).reverse_postorder().to_vec()
    }

    fn diamond() -> Function {
        let mut b = FunctionBuilder::new("f", vec![Type::Bool], None);
        let cond = b.param(0);
        let t = b.add_block("t");
        let e = b.add_block("e");
        let j = b.add_block("j");
        b.br(cond, t, e);
        b.switch_to(t);
        b.jump(j);
        b.switch_to(e);
        b.jump(j);
        b.switch_to(j);
        b.ret(None);
        b.finish()
    }

    #[test]
    fn diamond_edges() {
        let f = diamond();
        let cfg = Cfg::new(&f);
        assert_eq!(cfg.succs(BlockId(0)), &[BlockId(1), BlockId(2)]);
        assert_eq!(cfg.preds(BlockId(3)), &[BlockId(1), BlockId(2)]);
        assert_eq!(cfg.preds(BlockId(0)), &[] as &[BlockId]);
    }

    #[test]
    fn rpo_starts_at_entry_ends_at_exit() {
        let f = diamond();
        let cfg = Cfg::new(&f);
        let rpo = rpo(&cfg);
        assert_eq!(rpo.len(), 4);
        assert_eq!(rpo[0], BlockId(0));
        assert_eq!(rpo[3], BlockId(3));
    }

    #[test]
    fn rpo_excludes_unreachable() {
        let mut b = FunctionBuilder::new("f", vec![], None);
        let dead = b.add_block("dead");
        b.ret(None);
        b.switch_to(dead);
        b.ret(None);
        let f = b.finish();
        let cfg = Cfg::new(&f);
        assert_eq!(rpo(&cfg), vec![BlockId(0)]);
    }

    #[test]
    fn loop_rpo_visits_header_before_body() {
        let mut b = FunctionBuilder::new("f", vec![], None);
        let header = b.add_block("header");
        let body = b.add_block("body");
        let exit = b.add_block("exit");
        let c = b.const_bool(true);
        b.jump(header);
        b.switch_to(header);
        b.br(c, body, exit);
        b.switch_to(body);
        b.jump(header);
        b.switch_to(exit);
        b.ret(None);
        let f = b.finish();
        let cfg = Cfg::new(&f);
        let rpo = rpo(&cfg);
        let pos =
            |bb: BlockId| rpo.iter().position(|&x| x == bb).unwrap();
        assert!(pos(header) < pos(body));
    }
}
