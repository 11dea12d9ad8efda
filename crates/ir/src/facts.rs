//! The control-flow facts of one function, built once and shared.

use crate::cfg::Cfg;
use crate::dom::DomTree;
use crate::function::Function;
use crate::loops::LoopForest;

/// A function's CFG, dominator tree and loop forest.
///
/// Preparing a module reads these three times — the verifier's flow checks,
/// the similarity analysis and the interpreter's decoder — and builds them
/// once: [`crate::verify_module_facts`] returns them for every function it
/// accepted, and the other two take them from there.
#[derive(Clone, Debug)]
pub struct FlowFacts {
    /// Successors and predecessors of every block.
    pub cfg: Cfg,
    /// Dominator tree rooted at the entry block; also holds the reverse
    /// postorder of the reachable blocks.
    pub dom: DomTree,
    /// Natural loops and their nesting.
    pub loops: LoopForest,
}

impl FlowFacts {
    /// Builds the facts of `func`.
    ///
    /// # Panics
    ///
    /// Panics if a terminator names a block out of range; verify the
    /// function first (or take the facts from [`crate::verify_module_facts`]).
    pub fn new(func: &Function) -> FlowFacts {
        let cfg = Cfg::new(func);
        let dom = DomTree::new(&cfg, func.entry());
        FlowFacts::from_parts(cfg, dom)
    }

    /// Completes the facts of a function whose CFG and dominator tree are
    /// built.
    pub(crate) fn from_parts(cfg: Cfg, dom: DomTree) -> FlowFacts {
        let loops = LoopForest::new(&cfg, &dom);
        FlowFacts { cfg, dom, loops }
    }
}
