//! Natural-loop detection and the loop nesting forest.
//!
//! BLOCKWATCH needs loop structure for two things:
//! * the runtime branch key includes the iteration numbers of all enclosing
//!   loops (up to the paper's nesting cutoff of six), and
//! * the paper folds loop back-edge decisions into its definition of
//!   "branches".
//!
//! Loops are discovered as natural loops of back edges (`tail → header`
//! where `header` dominates `tail`); back edges sharing a header are merged
//! into one loop, matching the classical definition.

use crate::cfg::Cfg;
use crate::dom::DomTree;
use crate::ids::{BlockId, LoopId};

/// One natural loop.
#[derive(Clone, Debug)]
pub struct Loop {
    /// The loop header (target of the back edges).
    pub header: BlockId,
    /// Blocks belonging to the loop (including the header), sorted.
    pub blocks: Vec<BlockId>,
    /// The innermost enclosing loop, if any.
    pub parent: Option<LoopId>,
    /// Nesting depth: 1 for outermost loops, 2 for loops inside them, …
    pub depth: u32,
}

/// The loop nesting forest of one function.
#[derive(Clone, Debug)]
pub struct LoopForest {
    loops: Vec<Loop>,
    /// Innermost loop containing each block (`None` if the block is in no
    /// loop), indexed by block.
    innermost: Vec<Option<LoopId>>,
}

impl LoopForest {
    /// Discovers all natural loops of the function with CFG `cfg` and
    /// dominator tree `dom`.
    pub fn new(cfg: &Cfg, dom: &DomTree) -> Self {
        let n = cfg.len();

        // 1. Find back edges (tail, header), grouped by header in header
        //    order, each group's tails in block order.
        let mut back_edges: Vec<(BlockId, BlockId)> = Vec::new();
        for bb_index in 0..n {
            let bb = BlockId::from_index(bb_index);
            if !dom.is_reachable(bb) {
                continue;
            }
            for &succ in cfg.succs(bb) {
                if dom.dominates(succ, bb) {
                    back_edges.push((succ, bb));
                }
            }
        }
        back_edges.sort_by_key(|&(header, _)| header);

        // 2. For each header, collect the loop body: header plus all blocks
        //    that reach a back-edge tail without passing through the header.
        let mut loops: Vec<Loop> = Vec::new();
        let mut in_loop = vec![false; if back_edges.is_empty() { 0 } else { n }];
        let mut work: Vec<BlockId> = Vec::new();
        for group in back_edges.chunk_by(|a, b| a.0 == b.0) {
            let header = group[0].0;
            in_loop.fill(false);
            in_loop[header.index()] = true;
            for &(_, tail) in group {
                if !in_loop[tail.index()] {
                    in_loop[tail.index()] = true;
                    work.push(tail);
                }
            }
            while let Some(bb) = work.pop() {
                for &pred in cfg.preds(bb) {
                    if dom.is_reachable(pred) && !in_loop[pred.index()] {
                        in_loop[pred.index()] = true;
                        work.push(pred);
                    }
                }
            }
            let blocks: Vec<BlockId> = (0..n)
                .filter(|&i| in_loop[i])
                .map(BlockId::from_index)
                .collect();
            loops.push(Loop { header, blocks, parent: None, depth: 0 });
        }

        // 3. Establish nesting: loop A is nested in loop B iff A's header is
        //    in B's body and A ≠ B. The parent is the smallest such B.
        for i in 0..loops.len() {
            let mut best: Option<(usize, usize)> = None; // (size, index)
            for j in 0..loops.len() {
                if i == j {
                    continue;
                }
                let contains = loops[j].blocks.binary_search(&loops[i].header).is_ok();
                // Two distinct natural loops either nest or are disjoint,
                // except same-header merges which step 1 already unified.
                if contains {
                    let size = loops[j].blocks.len();
                    if best.is_none_or(|(s, _)| size < s) {
                        best = Some((size, j));
                    }
                }
            }
            loops[i].parent = best.map(|(_, j)| LoopId::from_index(j));
        }

        // 4. Depths by walking parent chains.
        for i in 0..loops.len() {
            let mut depth = 1;
            let mut cur = loops[i].parent;
            while let Some(p) = cur {
                depth += 1;
                cur = loops[p.index()].parent;
            }
            loops[i].depth = depth;
        }

        // 5. Innermost loop per block: the containing loop with the fewest
        //    blocks.
        let mut innermost: Vec<Option<LoopId>> = vec![None; n];
        for (bb_index, slot) in innermost.iter_mut().enumerate() {
            let bb = BlockId::from_index(bb_index);
            let mut best: Option<(usize, LoopId)> = None;
            for (li, l) in loops.iter().enumerate() {
                if l.blocks.binary_search(&bb).is_ok() {
                    let size = l.blocks.len();
                    if best.is_none_or(|(s, _)| size < s) {
                        best = Some((size, LoopId::from_index(li)));
                    }
                }
            }
            *slot = best.map(|(_, id)| id);
        }

        LoopForest { loops, innermost }
    }

    /// All loops, indexed by [`LoopId`].
    pub fn loops(&self) -> &[Loop] {
        &self.loops
    }

    /// The loop with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn get(&self, id: LoopId) -> &Loop {
        &self.loops[id.index()]
    }

    /// The innermost loop containing `block`, if any.
    pub fn innermost(&self, block: BlockId) -> Option<LoopId> {
        self.innermost[block.index()]
    }

    /// Nesting depth of `block`: 0 outside loops, 1 in an outermost loop, …
    pub fn depth(&self, block: BlockId) -> u32 {
        self.innermost(block).map_or(0, |l| self.get(l).depth)
    }

    /// The loop whose header is `block`, if any.
    pub fn loop_with_header(&self, block: BlockId) -> Option<LoopId> {
        self.loops
            .iter()
            .position(|l| l.header == block)
            .map(LoopId::from_index)
    }

    /// The chain of loops containing `block`, outermost first.
    pub fn loop_chain(&self, block: BlockId) -> Vec<LoopId> {
        let mut chain = Vec::new();
        let mut cur = self.innermost(block);
        while let Some(id) = cur {
            chain.push(id);
            cur = self.get(id).parent;
        }
        chain.reverse();
        chain
    }

    /// Whether `block` belongs to loop `id`.
    pub fn contains(&self, id: LoopId, block: BlockId) -> bool {
        self.get(id).blocks.binary_search(&block).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::function::Function;

    /// Two nested while loops:
    /// entry → outer_h; outer_h → {inner_h, exit}; inner_h → {body, outer_latch};
    /// body → inner_h; outer_latch → outer_h.
    fn nested_loops() -> (Function, BlockId, BlockId, BlockId, BlockId) {
        let mut b = FunctionBuilder::new("f", vec![], None);
        let outer_h = b.add_block("outer_h");
        let inner_h = b.add_block("inner_h");
        let body = b.add_block("body");
        let outer_latch = b.add_block("outer_latch");
        let exit = b.add_block("exit");
        let c = b.const_bool(true);
        b.jump(outer_h);
        b.switch_to(outer_h);
        b.br(c, inner_h, exit);
        b.switch_to(inner_h);
        b.br(c, body, outer_latch);
        b.switch_to(body);
        b.jump(inner_h);
        b.switch_to(outer_latch);
        b.jump(outer_h);
        b.switch_to(exit);
        b.ret(None);
        (b.finish(), outer_h, inner_h, body, exit)
    }

    fn forest(f: &Function) -> LoopForest {
        let cfg = Cfg::new(f);
        let dom = DomTree::new(&cfg, f.entry());
        LoopForest::new(&cfg, &dom)
    }

    #[test]
    fn finds_two_nested_loops() {
        let (f, outer_h, inner_h, body, exit) = nested_loops();
        let lf = forest(&f);
        assert_eq!(lf.loops().len(), 2);
        let outer = lf.loop_with_header(outer_h).unwrap();
        let inner = lf.loop_with_header(inner_h).unwrap();
        assert_eq!(lf.get(inner).parent, Some(outer));
        assert_eq!(lf.get(outer).parent, None);
        assert_eq!(lf.get(outer).depth, 1);
        assert_eq!(lf.get(inner).depth, 2);
        assert_eq!(lf.depth(body), 2);
        assert_eq!(lf.depth(exit), 0);
        assert_eq!(lf.innermost(body), Some(inner));
    }

    #[test]
    fn loop_chain_is_outermost_first() {
        let (f, outer_h, inner_h, body, _) = nested_loops();
        let lf = forest(&f);
        let outer = lf.loop_with_header(outer_h).unwrap();
        let inner = lf.loop_with_header(inner_h).unwrap();
        assert_eq!(lf.loop_chain(body), vec![outer, inner]);
        assert_eq!(lf.loop_chain(BlockId(0)), vec![]);
    }

    #[test]
    fn straight_line_code_has_no_loops() {
        let mut b = FunctionBuilder::new("f", vec![], None);
        b.ret(None);
        let f = b.finish();
        let lf = forest(&f);
        assert!(lf.loops().is_empty());
        assert_eq!(lf.depth(BlockId(0)), 0);
    }

    #[test]
    fn two_back_edges_one_header_merge() {
        // header with two latches: header → {a, exit}; a → {header via l1, header via l2}
        let mut b = FunctionBuilder::new("f", vec![], None);
        let header = b.add_block("header");
        let a = b.add_block("a");
        let l1 = b.add_block("l1");
        let l2 = b.add_block("l2");
        let exit = b.add_block("exit");
        let c = b.const_bool(true);
        b.jump(header);
        b.switch_to(header);
        b.br(c, a, exit);
        b.switch_to(a);
        b.br(c, l1, l2);
        b.switch_to(l1);
        b.jump(header);
        b.switch_to(l2);
        b.jump(header);
        b.switch_to(exit);
        b.ret(None);
        let f = b.finish();
        let lf = forest(&f);
        assert_eq!(lf.loops().len(), 1);
        let l = lf.loop_with_header(header).unwrap();
        assert!(lf.contains(l, l1));
        assert!(lf.contains(l, l2));
        assert!(lf.contains(l, a));
        assert!(!lf.contains(l, exit));
    }
}
