//! Strongly connected components, graph condensation, and the
//! interprocedural value-dependency graph.
//!
//! The similarity analysis in `bw-analysis` is a whole-module fixpoint over
//! SSA values. Its dependency structure — "the category of `v` is computed
//! from the categories of `u₁..uₙ`" — forms a directed graph whose cycles
//! (loop-carried phis, recursive calls, mutually-recursive functions) are
//! exactly the places iteration is needed. Condensing that graph into its
//! DAG of strongly connected components turns the global fixpoint into a
//! topological schedule of small local fixpoints, which is what the
//! parallel analysis executed across a worker pool.
//!
//! That analysis was removed in PR 19 (DESIGN §15). This module's one
//! remaining caller is `bwbench` (`benchmark/src/workloads/mod.rs`, the
//! `ir.scc_us` layer metric); it goes with the `benchmark` PR that
//! retires that metric.
//!
//! [`ValueGraph`] numbers every SSA value of every function into one dense
//! global index space and records the dependency edges the analysis
//! actually follows: operand → result within a function, call argument →
//! callee parameter, and callee return operand → call result.
//! [`Condensation`] is the generic Tarjan pass over any such adjacency
//! list, emitting components in dependencies-first topological order.

use crate::ids::{FuncId, ValueId};
use crate::inst::Op;
use crate::module::Module;

/// The condensation of a directed graph: its strongly connected components
/// in dependencies-first topological order.
///
/// Edges are interpreted as `u → v` meaning "`v` depends on `u`" (data
/// flows from `u` to `v`). Components are numbered so that every edge of
/// the condensation goes from a lower-numbered component to a
/// higher-numbered one; processing components in index order therefore
/// sees every dependency finalized before its dependents.
#[derive(Clone, Debug)]
pub struct Condensation {
    /// `comp_of[node]` is the component index of `node`.
    pub comp_of: Vec<u32>,
    /// Component members, in topological order (dependencies first).
    /// Members of each component are sorted ascending, so the layout is
    /// fully determined by the input graph.
    pub comps: Vec<Vec<u32>>,
    /// Deduplicated successor components of each component (edges of the
    /// condensation DAG), sorted ascending.
    pub comp_succs: Vec<Vec<u32>>,
}

impl Condensation {
    /// Condenses the graph whose node `u` has successor list `succs[u]`
    /// (iterative Tarjan — no recursion, safe on million-node graphs).
    pub fn build(succs: &[Vec<u32>]) -> Condensation {
        let n = succs.len();
        let mut index = vec![u32::MAX; n];
        let mut low = vec![0u32; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<u32> = Vec::new();
        let mut next_index = 0u32;

        // Tarjan pops each SCC only once all components reachable from it
        // are already popped, i.e. in reverse topological order of the
        // condensation. Collect in pop order, then reverse.
        let mut comps: Vec<Vec<u32>> = Vec::new();
        let mut comp_of = vec![u32::MAX; n];

        for start in 0..n {
            if index[start] != u32::MAX {
                continue;
            }
            // Explicit work stack of (node, next child position).
            let mut work: Vec<(u32, usize)> = vec![(start as u32, 0)];
            while let Some(&mut (v, ref mut ci)) = work.last_mut() {
                let vi = v as usize;
                if *ci == 0 {
                    index[vi] = next_index;
                    low[vi] = next_index;
                    next_index += 1;
                    stack.push(v);
                    on_stack[vi] = true;
                }
                if *ci < succs[vi].len() {
                    let w = succs[vi][*ci];
                    *ci += 1;
                    let wi = w as usize;
                    if index[wi] == u32::MAX {
                        work.push((w, 0));
                    } else if on_stack[wi] {
                        low[vi] = low[vi].min(index[wi]);
                    }
                } else {
                    work.pop();
                    if let Some(&(parent, _)) = work.last() {
                        let pi = parent as usize;
                        low[pi] = low[pi].min(low[vi]);
                    }
                    if low[vi] == index[vi] {
                        let mut comp = Vec::new();
                        while let Some(w) = stack.pop() {
                            on_stack[w as usize] = false;
                            comp.push(w);
                            if w == v {
                                break;
                            }
                        }
                        comp.sort_unstable();
                        comps.push(comp);
                    }
                }
            }
        }

        // Reverse pop order → dependencies-first topological order.
        comps.reverse();
        for (ci, comp) in comps.iter().enumerate() {
            for &m in comp {
                comp_of[m as usize] = ci as u32;
            }
        }

        let mut comp_succs: Vec<Vec<u32>> = vec![Vec::new(); comps.len()];
        for (u, list) in succs.iter().enumerate() {
            let cu = comp_of[u];
            for &w in list {
                let cw = comp_of[w as usize];
                if cw != cu {
                    comp_succs[cu as usize].push(cw);
                }
            }
        }
        for list in &mut comp_succs {
            list.sort_unstable();
            list.dedup();
        }

        Condensation { comp_of, comps, comp_succs }
    }

    /// Number of components.
    pub fn num_comps(&self) -> usize {
        self.comps.len()
    }

    /// In-degree of each component in the condensation DAG (number of
    /// distinct predecessor components) — the ready counters a DAG
    /// scheduler decrements.
    pub fn in_degrees(&self) -> Vec<u32> {
        let mut deg = vec![0u32; self.comps.len()];
        for list in &self.comp_succs {
            for &s in list {
                deg[s as usize] += 1;
            }
        }
        deg
    }
}

/// The interprocedural dependency graph over every SSA value in a module.
///
/// Values are numbered densely: function `f`'s value `v` gets global index
/// `offset(f) + v`, in module function order. An edge `u → v` records that
/// the similarity (or provenance) transfer function of `v` reads the state
/// of `u`:
///
/// * instruction operand → instruction result (SSA def-use, including phi
///   incomings),
/// * call argument → callee parameter (direct and table-indirect calls),
/// * callee return operand → call result.
#[derive(Clone, Debug)]
pub struct ValueGraph {
    /// Per-function offset into the global index space (`funcs.len() + 1`
    /// entries; the last is the total).
    offsets: Vec<usize>,
    /// Dense global-index → owning-function map.
    func_of: Vec<u32>,
    /// Successor lists (deduplicated, sorted).
    succs: Vec<Vec<u32>>,
}

impl ValueGraph {
    /// Builds the dependency graph of `module`.
    pub fn build(module: &Module) -> ValueGraph {
        let nfuncs = module.funcs.len();
        let mut offsets = Vec::with_capacity(nfuncs + 1);
        let mut total = 0usize;
        for func in &module.funcs {
            offsets.push(total);
            total += func.num_values();
        }
        offsets.push(total);

        let mut func_of = vec![0u32; total];
        for (fi, w) in offsets.windows(2).enumerate() {
            for slot in &mut func_of[w[0]..w[1]] {
                *slot = fi as u32;
            }
        }

        // Return-site operands per function, needed for ret → call-result
        // edges.
        let ret_values: Vec<Vec<ValueId>> = module
            .funcs
            .iter()
            .map(|func| {
                let mut rets = Vec::new();
                for (_, block) in func.iter_blocks() {
                    if let Some(inst) = block.terminator() {
                        if let Op::Ret(Some(v)) = inst.op {
                            rets.push(v);
                        }
                    }
                }
                rets
            })
            .collect();

        let mut succs: Vec<Vec<u32>> = vec![Vec::new(); total];
        let mut edge = |from: usize, to: usize| succs[from].push(to as u32);

        for (fid, func) in module.iter_funcs() {
            let base = offsets[fid.index()];
            for (_, block) in func.iter_blocks() {
                for inst in &block.insts {
                    // Calls contribute argument → parameter edges even when
                    // the call itself defines no value (void calls).
                    let result = inst.result.map(|res| base + res.index());
                    match &inst.op {
                        Op::Bin { lhs, rhs, .. } | Op::Cmp { lhs, rhs, .. } => {
                            let r = result.expect("bin/cmp defines a value");
                            edge(base + lhs.index(), r);
                            edge(base + rhs.index(), r);
                        }
                        Op::Un { operand, .. } => {
                            edge(base + operand.index(), result.expect("un defines a value"));
                        }
                        Op::Gep { base: b, offset } => {
                            let r = result.expect("gep defines a value");
                            edge(base + b.index(), r);
                            edge(base + offset.index(), r);
                        }
                        Op::Load { addr, .. } => {
                            edge(base + addr.index(), result.expect("load defines a value"));
                        }
                        Op::Phi { incomings, .. } => {
                            let r = result.expect("phi defines a value");
                            for inc in incomings {
                                if base + inc.value.index() != r {
                                    edge(base + inc.value.index(), r);
                                }
                            }
                        }
                        Op::Call { func: callee, args, .. } => {
                            let co = offsets[callee.index()];
                            let nparams = module.func(*callee).params.len();
                            for (i, arg) in args.iter().enumerate().take(nparams) {
                                edge(base + arg.index(), co + i);
                            }
                            if let Some(r) = result {
                                for &rv in &ret_values[callee.index()] {
                                    edge(co + rv.index(), r);
                                }
                            }
                        }
                        Op::CallIndirect { table, args, .. } => {
                            for &callee in &module.tables[table.index()].funcs {
                                let co = offsets[callee.index()];
                                let nparams = module.func(callee).params.len();
                                for (i, arg) in args.iter().enumerate().take(nparams) {
                                    edge(base + arg.index(), co + i);
                                }
                                if let Some(r) = result {
                                    for &rv in &ret_values[callee.index()] {
                                        edge(co + rv.index(), r);
                                    }
                                }
                            }
                        }
                        _ => {}
                    }
                }
            }
        }

        for list in &mut succs {
            list.sort_unstable();
            list.dedup();
        }

        ValueGraph { offsets, func_of, succs }
    }

    /// Total number of values across all functions.
    pub fn num_values(&self) -> usize {
        self.func_of.len()
    }

    /// Global index of `(func, value)`.
    pub fn index(&self, func: FuncId, value: ValueId) -> usize {
        self.offsets[func.index()] + value.index()
    }

    /// Inverse of [`ValueGraph::index`].
    pub fn split(&self, global: usize) -> (FuncId, ValueId) {
        let fi = self.func_of[global] as usize;
        (FuncId::from_index(fi), ValueId::from_index(global - self.offsets[fi]))
    }

    /// Successor (dependent) lists, indexed by global value index.
    pub fn succs(&self) -> &[Vec<u32>] {
        &self.succs
    }

    /// Condenses the graph into its SCC DAG.
    pub fn condense(&self) -> Condensation {
        Condensation::build(&self.succs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn condensation_of_a_diamond_with_a_cycle() {
        // 0 → 1 ⇄ 2 → 3, 0 → 3: comps {0}, {1,2}, {3} in that order.
        let succs = vec![vec![1, 3], vec![2], vec![1, 3], vec![]];
        let c = Condensation::build(&succs);
        assert_eq!(c.num_comps(), 3);
        assert_eq!(c.comps[0], vec![0]);
        assert_eq!(c.comps[1], vec![1, 2]);
        assert_eq!(c.comps[2], vec![3]);
        assert_eq!(c.comp_of, vec![0, 1, 1, 2]);
        assert_eq!(c.comp_succs[0], vec![1, 2]);
        assert_eq!(c.comp_succs[1], vec![2]);
        assert!(c.comp_succs[2].is_empty());
        assert_eq!(c.in_degrees(), vec![0, 1, 2]);
    }

    #[test]
    fn topological_order_is_dependencies_first() {
        // A long chain with a back-edge cycle in the middle.
        let succs = vec![vec![1], vec![2], vec![3], vec![1, 4], vec![]];
        let c = Condensation::build(&succs);
        // {0}, {1,2,3}, {4}.
        assert_eq!(c.num_comps(), 3);
        for (ci, list) in c.comp_succs.iter().enumerate() {
            for &s in list {
                assert!(
                    (s as usize) > ci,
                    "edge {ci} → {s} violates dependencies-first order"
                );
            }
        }
    }

    #[test]
    fn empty_graph() {
        let c = Condensation::build(&[]);
        assert_eq!(c.num_comps(), 0);
        assert!(c.in_degrees().is_empty());
    }

    #[test]
    fn value_graph_links_calls_interprocedurally() {
        use crate::builder::FunctionBuilder;
        use crate::module::Module;

        let mut module = Module::new("vg");
        // callee(x) { return x + 1 }
        let mut b = FunctionBuilder::new("callee", vec![crate::value::Type::I64], Some(crate::value::Type::I64));
        let x = ValueId::from_index(0);
        let one = b.const_i64(1);
        let sum = b.add(x, one);
        b.ret(Some(sum));
        let callee = module.add_func(b.finish());

        // caller() { return callee(7) }
        let mut b = FunctionBuilder::new("caller", vec![], Some(crate::value::Type::I64));
        let seven = b.const_i64(7);
        let call = b.call(&mut module, callee, vec![seven]);
        b.ret(call);
        let caller = module.add_func(b.finish());

        let g = ValueGraph::build(&module);
        assert_eq!(g.num_values(), module.funcs.iter().map(|f| f.num_values()).sum::<usize>());

        // Argument feeds the callee parameter; the callee's return operand
        // feeds the call result.
        let arg = g.index(caller, seven);
        let param = g.index(callee, x);
        assert!(g.succs()[arg].contains(&(param as u32)));
        let ret_op = g.index(callee, sum);
        let result = g.index(caller, call.unwrap());
        assert!(g.succs()[ret_op].contains(&(result as u32)));

        // Round-trip of the numbering.
        assert_eq!(g.split(param), (callee, x));
        assert_eq!(g.split(result), (caller, call.unwrap()));

        // The condensation respects interprocedural dependency order: the
        // callee's add must be scheduled before the caller's call result.
        let c = g.condense();
        assert!(c.comp_of[ret_op] < c.comp_of[result]);
    }
}
