//! The module-wide similarity fixpoint (paper Figure 3, interprocedural).
//!
//! Every SSA value in every function is assigned a [`Category`]. Seeds:
//! constants and loads of shared globals are `shared`; the thread-ID
//! intrinsic (and fetch-adds on a designated thread-ID counter global) are
//! `threadID`; loads of non-shared memory are `none`. Categories propagate
//! through instructions with the Table II rules ([`combine_all`]), with the
//! deviations the paper describes:
//!
//! * **Phi nodes** are folded optimistically (`NA` incomings are skipped) so
//!   loop-carried values resolve from their initial value — the behaviour
//!   Table III requires. An if-else *merge* phi whose result would be
//!   `shared` but merges two or more distinct values is downgraded to
//!   `partial` (the paper's `private = ±1` example).
//! * **Function parameters** merge the categories of the arguments passed at
//!   every (direct or table-indirect) call site. If all sites agree, the
//!   branch instances are tracked per call site and the common category is
//!   kept (the paper's "multiple instances" policy from Figure 2); mixed
//!   non-`none` categories fall back to `partial`, which is always sound
//!   because equal condition values imply equal outcomes.
//! * **Call results** take the callee's return category; a callee with
//!   several return sites (or an indirect call with several callees) yields
//!   `partial` at best.
//!
//! Every update is a join: a value's category only climbs the lattice
//! `NA < shared < {threadID, partial} < none` ([`Category::join`]), whatever
//! the rules above compute in a pass. A chain in that lattice has at most
//! three steps, so each value changes at most three times and the pass
//! stops after at most `3 × values + 2` iterations (one pass records the
//! return sites, one finds nothing to change). The paper observes fewer
//! than ten in practice, and so do the tests here.
//!
//! The join makes the pass terminate, not the answer independent of the
//! order it visits values in: the optimistic phi rule and the merge-phi
//! downgrade read only the incomings known so far, so a module can have
//! more than one fixpoint and the pass's order picks one (fuzz seed
//! `0x307c8`, DESIGN §8).

use bw_ir::{BlockId, BranchId, FlowFacts, FuncId, Function, GlobalId, Module, Op, ValueId};

use crate::category::{combine_all, combine_optimistic, Category};

/// Where a pointer value can point, for load classification.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Prov {
    /// Not yet known (fixpoint bottom).
    Unresolved,
    /// Always into the given global region.
    Global(GlobalId),
    /// Always into thread-local memory.
    Local,
    /// Could be several places.
    Unknown,
}

impl Prov {
    /// Join of the provenance lattice (`Unresolved < {Global, Local} <
    /// Unknown`): commutative and associative, so the provenance fixpoint
    /// has a unique least solution independent of iteration order.
    fn merge(self, other: Prov) -> Prov {
        match (self, other) {
            (Prov::Unresolved, p) | (p, Prov::Unresolved) => p,
            (a, b) if a == b => a,
            _ => Prov::Unknown,
        }
    }
}

/// One conditional branch discovered in the module.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BranchInfo {
    /// Stable id (index into [`ModuleAnalysis::branches`]).
    pub id: BranchId,
    /// Function containing the branch.
    pub func: FuncId,
    /// Block whose terminator it is.
    pub block: BlockId,
    /// Instruction index of the `Br` within the block.
    pub inst_index: usize,
    /// The branch condition value.
    pub cond: ValueId,
    /// Inferred similarity category of the condition.
    pub category: Category,
    /// Loop nesting depth of the block (0 = not in a loop).
    pub loop_depth: u32,
    /// Whether the branch is reachable from the SPMD entry (the paper's
    /// "parallel section").
    pub in_parallel_section: bool,
    /// Minimum number of mutexes guaranteed held when the branch executes
    /// (> 0 means the branch is inside a critical section).
    pub min_locks_held: u32,
}

/// Result of the similarity analysis over a module.
#[derive(Clone, Debug)]
pub struct ModuleAnalysis {
    /// Per-function, per-value categories.
    value_cats: Vec<Vec<Category>>,
    /// All conditional branches, indexed by [`BranchId`].
    pub branches: Vec<BranchInfo>,
    /// Number of whole-module fixpoint iterations executed.
    pub iterations: usize,
    /// Per-iteration snapshots of every branch's category (iteration 0 is
    /// the state after the first pass). Used to reproduce the paper's
    /// Table III convergence trace.
    pub trace: Vec<Vec<Category>>,
    /// Whether each function is reachable from the SPMD entry.
    pub parallel_funcs: Vec<bool>,
}

impl ModuleAnalysis {
    /// Runs the similarity analysis on `module`: one whole-module fixpoint,
    /// as in the paper's Figure 3.
    pub fn run(module: &Module) -> ModuleAnalysis {
        let facts: Vec<FlowFacts> = module.funcs.iter().map(FlowFacts::new).collect();
        ModuleAnalysis::run_with_facts(module, &facts)
    }

    /// [`ModuleAnalysis::run`] on control-flow facts already built, one per
    /// function and indexed by [`FuncId`] — those
    /// [`bw_ir::verify_module_facts`] returns.
    ///
    /// # Panics
    ///
    /// Panics if `facts` does not hold one entry per function.
    pub fn run_with_facts(module: &Module, facts: &[FlowFacts]) -> ModuleAnalysis {
        assert_eq!(facts.len(), module.funcs.len(), "one FlowFacts per function");
        Analyzer::new(module, facts).run()
    }

    /// Leftover of the SCC-parallel analysis removed in PR 19: forwards to
    /// [`ModuleAnalysis::run`]. Its one caller is `bwbench`
    /// (`benchmark/src/workloads/mod.rs`, the `analysis.par{1,2}_us` layer
    /// metrics); it goes with the `benchmark` PR that retires them.
    #[doc(hidden)]
    pub fn run_parallel(module: &Module, _workers: usize) -> ModuleAnalysis {
        ModuleAnalysis::run(module)
    }

    /// Reports the first difference from `other` in `value_cats`,
    /// `branches` or `parallel_funcs`, or `None` if they agree.
    /// `iterations` and `trace` are deliberately not compared.
    ///
    /// Like `run_parallel`, a leftover whose one caller is `bwbench`; it
    /// goes with the same `benchmark` PR.
    pub fn divergence(&self, other: &ModuleAnalysis) -> Option<String> {
        if self.value_cats != other.value_cats {
            for (fi, (a, b)) in self.value_cats.iter().zip(&other.value_cats).enumerate() {
                for (vi, (ca, cb)) in a.iter().zip(b).enumerate() {
                    if ca != cb {
                        return Some(format!("value f{fi}:v{vi}: {ca} vs {cb}"));
                    }
                }
            }
            return Some("value table shapes differ".into());
        }
        if self.branches != other.branches {
            for (a, b) in self.branches.iter().zip(&other.branches) {
                if a != b {
                    return Some(format!(
                        "branch {}: {:?} vs {:?}",
                        a.id.index(),
                        a,
                        b
                    ));
                }
            }
            return Some("branch counts differ".into());
        }
        if self.parallel_funcs != other.parallel_funcs {
            return Some("parallel_funcs differ".into());
        }
        None
    }

    /// The category of an SSA value.
    ///
    /// # Panics
    ///
    /// Panics if the ids are out of range.
    pub fn value_category(&self, func: FuncId, value: ValueId) -> Category {
        self.value_cats[func.index()][value.index()]
    }

    /// Overrides the category recorded for one SSA value — and for any
    /// branch whose condition is that value.
    ///
    /// This is a **testing seam**, not part of the analysis: the fuzz oracle
    /// uses it to plant a deliberately wrong category (simulating a broken
    /// Table II propagation rule) and then asserts that the differential
    /// harness catches the resulting monitor misbehaviour. Production code
    /// should never call this.
    ///
    /// # Panics
    ///
    /// Panics if the ids are out of range.
    pub fn override_value_category(&mut self, func: FuncId, value: ValueId, cat: Category) {
        self.value_cats[func.index()][value.index()] = cat;
        for b in &mut self.branches {
            if b.func == func && b.cond == value {
                b.category = cat;
            }
        }
    }

    /// Branches in the parallel section only.
    pub fn parallel_branches(&self) -> impl Iterator<Item = &BranchInfo> {
        self.branches.iter().filter(|b| b.in_parallel_section)
    }

    /// Counts parallel-section branches per category
    /// `(shared, threadID, partial, none)` — the rows of the paper's
    /// Table V. `Na` branches count as `none`, as in Figure 3 line 18.
    pub fn category_histogram(&self) -> CategoryHistogram {
        let mut h = CategoryHistogram::default();
        for b in self.parallel_branches() {
            match b.category {
                Category::Shared => h.shared += 1,
                Category::ThreadId => h.thread_id += 1,
                Category::Partial => h.partial += 1,
                Category::None | Category::Na => h.none += 1,
            }
        }
        h
    }
}

/// Per-category branch counts for one program (a Table V row).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CategoryHistogram {
    /// Branches classified `shared`.
    pub shared: usize,
    /// Branches classified `threadID`.
    pub thread_id: usize,
    /// Branches classified `partial`.
    pub partial: usize,
    /// Branches classified `none` (or unresolved).
    pub none: usize,
}

impl CategoryHistogram {
    /// Total number of branches.
    pub fn total(&self) -> usize {
        self.shared + self.thread_id + self.partial + self.none
    }

    /// Fraction of branches that are checkable (not `none`).
    pub fn similar_fraction(&self) -> f64 {
        if self.total() == 0 {
            return 0.0;
        }
        (self.shared + self.thread_id + self.partial) as f64 / self.total() as f64
    }
}

struct Analyzer<'m> {
    module: &'m Module,
    facts: &'m [FlowFacts],
    cats: Vec<Vec<Category>>,
    provs: Vec<Vec<Prov>>,
    /// Every function's return sites (`ret v` terminators, in block order),
    /// all functions end to end: `rets[ret_start[f]..ret_start[f + 1]]`.
    rets: Vec<ValueId>,
    ret_start: Vec<usize>,
    /// The category of each return site's value as of the last pass.
    ret_cats: Vec<Category>,
    /// Every call, in function and block order: the calling function, the
    /// functions it may call and its arguments.
    calls: Vec<(FuncId, &'m [FuncId], &'m [ValueId])>,
    /// Every function's parameters end to end, as `rets` are: what the
    /// call sites of the current pass pass to each, merged.
    param_start: Vec<usize>,
    param_inputs: Vec<Category>,
    /// Trivial-phi resolution: `resolved[f][v]` is the value `v` is a copy
    /// of (through chains of phis whose incomings all agree), or `v` itself.
    resolved: Vec<Vec<ValueId>>,
    branches: Vec<BranchInfo>,
}

/// The phis of one function in block order, with their incoming values end
/// to end: phi `i` is `results[i]` and reads `incomings(i)`.
#[derive(Default)]
struct Phis {
    results: Vec<ValueId>,
    starts: Vec<usize>,
    values: Vec<ValueId>,
}

impl Phis {
    /// Holds the phis of `func` from now on.
    fn fill(&mut self, func: &Function) {
        self.results.clear();
        self.starts.clear();
        self.values.clear();
        for block in &func.blocks {
            for inst in block.phis() {
                self.results.push(inst.result.expect("phi has a result"));
                self.starts.push(self.values.len());
                let incomings = inst.op.phi_incomings().expect("phi");
                self.values.extend(incomings.iter().map(|inc| inc.value));
            }
        }
        self.starts.push(self.values.len());
    }

    fn incomings(&self, phi: usize) -> &[ValueId] {
        &self.values[self.starts[phi]..self.starts[phi + 1]]
    }
}

/// Computes the trivial-phi resolution map of one function: a phi all of
/// whose (non-self) incomings resolve to the same value is a copy of that
/// value, and — following Braun et al.'s redundant-SCC observation — an
/// entire strongly connected component of phis with exactly one external
/// input is a copy of that input. The front-end's incremental SSA
/// construction leaves such phis (and mutually-referencing phi cycles)
/// behind for variables read but not written across merges; without
/// resolving them, the merge-phi `partial` downgrade would fire on values
/// that are not actually merged.
///
/// `tables` are scratch, kept across the functions of a module.
fn resolve_trivial_phis(func: &Function, tables: &mut PhiTables) -> Vec<ValueId> {
    let n = func.num_values();
    let mut resolved: Vec<ValueId> = (0..n).map(ValueId::from_index).collect();
    if !func.blocks.iter().any(|b| b.phis().next().is_some()) {
        return resolved;
    }
    let PhiTables { phis, sccs } = tables;
    phis.fill(func);
    sccs.fit(n);

    // Pass 1, then pass 2, until a round changes nothing or the round
    // limit is reached. Most ports reach the limit while still changing,
    // because pass 1 can undo what pass 2 resolved (DESIGN §8,
    // `tests::radix_slave_is_not_closed_under_pass_1`).
    let mut changed = true;
    let mut rounds = 0;
    while changed && rounds <= phis.results.len() + 10 {
        rounds += 1;
        changed = resolve_phi_chains(phis, &mut resolved);

        // Pass 2: SCCs of still-unresolved phis with a single external
        // input (mutually-referencing copies through nested merges).
        if !sccs.find(phis, &resolved) {
            break;
        }
        for component in sccs.components() {
            let in_scc = |v: ValueId| component.contains(&v);
            let mut external: Option<ValueId> = None;
            let mut single = true;
            'members: for &member in component {
                let phi = sccs.phi_of[member.index()] as usize;
                for &inc in phis.incomings(phi) {
                    let r = resolved[inc.index()];
                    if in_scc(r) {
                        continue;
                    }
                    match external {
                        None => external = Some(r),
                        Some(x) if x == r => {}
                        Some(_) => {
                            single = false;
                            break 'members;
                        }
                    }
                }
            }
            if single {
                if let Some(x) = external {
                    for &member in component {
                        if resolved[member.index()] != x {
                            resolved[member.index()] = x;
                            changed = true;
                        }
                    }
                }
            }
        }
    }
    resolved
}

/// Pass 1 of [`resolve_trivial_phis`], simple chains: a phi whose
/// non-self incomings all resolve to one value is that value, and any
/// other phi is itself. Returns whether `resolved` changed.
fn resolve_phi_chains(phis: &Phis, resolved: &mut [ValueId]) -> bool {
    let mut changed = false;
    for (i, &p) in phis.results.iter().enumerate() {
        let mut target: Option<ValueId> = None;
        let mut trivial = true;
        for &inc in phis.incomings(i) {
            let r = resolved[inc.index()];
            if r == p {
                continue;
            }
            match target {
                None => target = Some(r),
                Some(t) if t == r => {}
                Some(_) => {
                    trivial = false;
                    break;
                }
            }
        }
        let new = if trivial { target.unwrap_or(p) } else { p };
        if resolved[p.index()] != new {
            resolved[p.index()] = new;
            changed = true;
        }
    }
    changed
}

/// The tables [`resolve_trivial_phis`] works in.
#[derive(Default)]
struct PhiTables {
    phis: Phis,
    sccs: PhiSccs,
}

/// Strongly connected components (size >= 2; self-loops are impossible
/// here) of the "phi resolves-through phi" graph over the unresolved phis
/// of one function, via iterative Tarjan.
#[derive(Default)]
struct PhiSccs {
    /// The phi index of each value that is a node of the current graph, or
    /// `u32::MAX`.
    phi_of: Vec<u32>,
    /// The node each value is, or `u32::MAX`.
    node_of: Vec<u32>,
    /// The unresolved phis (their results), and the nodes each resolves
    /// through: `succs[succ_start[v]..succ_start[v + 1]]`.
    nodes: Vec<ValueId>,
    succ_start: Vec<usize>,
    succs: Vec<usize>,
    /// The components found, members end to end: component `i` ends at
    /// `ends[i]`.
    members: Vec<ValueId>,
    ends: Vec<usize>,
    /// Tarjan's state per node, its node stack and its work stack of
    /// (node, child pos).
    index: Vec<usize>,
    low: Vec<usize>,
    on_stack: Vec<bool>,
    stack: Vec<usize>,
    work: Vec<(usize, usize)>,
}

impl PhiSccs {
    /// Makes room for a function of `values` values.
    fn fit(&mut self, values: usize) {
        if self.node_of.len() < values {
            self.phi_of.resize(values, u32::MAX);
            self.node_of.resize(values, u32::MAX);
        }
    }

    /// Finds the components among the phis still resolved to themselves;
    /// returns `false` if there are no such phis.
    fn find(&mut self, phis: &Phis, resolved: &[ValueId]) -> bool {
        for &v in &self.nodes {
            self.node_of[v.index()] = u32::MAX;
        }
        self.nodes.clear();
        for (i, &p) in phis.results.iter().enumerate() {
            if resolved[p.index()] == p {
                self.phi_of[p.index()] = i as u32;
                self.node_of[p.index()] = self.nodes.len() as u32;
                self.nodes.push(p);
            }
        }
        if self.nodes.is_empty() {
            return false;
        }
        self.succ_start.clear();
        self.succs.clear();
        for &p in &self.nodes {
            self.succ_start.push(self.succs.len());
            let phi = self.phi_of[p.index()] as usize;
            for &inc in phis.incomings(phi) {
                let node = self.node_of[resolved[inc.index()].index()];
                if node != u32::MAX {
                    self.succs.push(node as usize);
                }
            }
        }
        self.succ_start.push(self.succs.len());
        self.tarjan();
        true
    }

    fn tarjan(&mut self) {
        let n = self.nodes.len();
        let PhiSccs {
            nodes, succ_start, succs, members, ends, index, low, on_stack, stack, work, ..
        } = self;
        index.clear();
        index.resize(n, usize::MAX);
        low.clear();
        low.resize(n, 0);
        on_stack.clear();
        on_stack.resize(n, false);
        let mut next_index = 0usize;
        members.clear();
        ends.clear();

        for start in 0..n {
            if index[start] != usize::MAX {
                continue;
            }
            work.push((start, 0));
            while let Some(&mut (v, ref mut ci)) = work.last_mut() {
                if *ci == 0 {
                    index[v] = next_index;
                    low[v] = next_index;
                    next_index += 1;
                    stack.push(v);
                    on_stack[v] = true;
                }
                let succs = &succs[succ_start[v]..succ_start[v + 1]];
                if *ci < succs.len() {
                    let w = succs[*ci];
                    *ci += 1;
                    if index[w] == usize::MAX {
                        work.push((w, 0));
                    } else if on_stack[w] {
                        low[v] = low[v].min(index[w]);
                    }
                } else {
                    work.pop();
                    if let Some(&(parent, _)) = work.last() {
                        low[parent] = low[parent].min(low[v]);
                    }
                    if low[v] == index[v] {
                        let start = members.len();
                        while let Some(w) = stack.pop() {
                            on_stack[w] = false;
                            members.push(nodes[w]);
                            if w == v {
                                break;
                            }
                        }
                        if members.len() - start >= 2 {
                            ends.push(members.len());
                        } else {
                            members.truncate(start);
                        }
                    }
                }
            }
        }
    }

    /// The components [`PhiSccs::find`] found, in the order Tarjan closed
    /// them, each in the order its members left the stack.
    fn components(&self) -> impl Iterator<Item = &[ValueId]> {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        starts.zip(&self.ends).map(|(start, &end)| &self.members[start..end])
    }
}

impl<'m> Analyzer<'m> {
    /// Computes everything the fixpoint needs that is a pure function of
    /// the module — return sites, trivial-phi resolution, the branch list —
    /// and the all-`NA` starting state. CFG orders and loop structure are
    /// read from `facts`.
    fn new(module: &'m Module, facts: &'m [FlowFacts]) -> Self {
        let mut branches = Vec::new();
        let mut calls = Vec::new();
        let mut rets = Vec::new();
        let mut ret_start = Vec::with_capacity(module.funcs.len() + 1);
        let mut param_start = Vec::with_capacity(module.funcs.len() + 1);
        let mut params = 0;
        for ((fid, func), facts) in module.iter_funcs().zip(facts) {
            ret_start.push(rets.len());
            param_start.push(params);
            params += func.params.len();
            for (bb, block) in func.iter_blocks() {
                for (i, inst) in block.insts.iter().enumerate() {
                    match &inst.op {
                        Op::Call { func: callee, args, .. } => {
                            calls.push((fid, std::slice::from_ref(callee), &args[..]));
                        }
                        Op::CallIndirect { table, args, .. } => {
                            calls.push((fid, &module.tables[table.index()].funcs[..], &args[..]));
                        }
                        _ => {}
                    }
                    if let Op::Br { cond, .. } = inst.op {
                        branches.push(BranchInfo {
                            id: BranchId::from_index(branches.len()),
                            func: fid,
                            block: bb,
                            inst_index: i,
                            cond,
                            category: Category::Na,
                            loop_depth: facts.loops.depth(bb),
                            in_parallel_section: false,
                            min_locks_held: 0,
                        });
                    }
                }
                if let Some(Op::Ret(Some(v))) = block.terminator().map(|t| &t.op) {
                    rets.push(*v);
                }
            }
        }
        ret_start.push(rets.len());
        param_start.push(params);

        Analyzer {
            module,
            facts,
            cats: module.funcs.iter().map(|f| vec![Category::Na; f.num_values()]).collect(),
            provs: module.funcs.iter().map(|f| vec![Prov::Unresolved; f.num_values()]).collect(),
            ret_cats: vec![Category::Na; rets.len()],
            rets,
            ret_start,
            calls,
            param_inputs: vec![Category::Na; params],
            param_start,
            resolved: {
                let mut tables = PhiTables::default();
                module.funcs.iter().map(|f| resolve_trivial_phis(f, &mut tables)).collect()
            },
            branches,
        }
    }

    fn run(mut self) -> ModuleAnalysis {
        self.resolve_provenance();

        // One snapshot per pass; the module docs bound their number.
        let mut trace = Vec::new();
        loop {
            let changed = self.iterate(trace.is_empty());
            trace.push(self.branch_snapshot());
            if !changed {
                break;
            }
        }

        // Post-fixpoint: default unresolved branches to `none` (Figure 3,
        // line 18), mark the parallel section, run the critical-section
        // dataflow.
        let mut branches = self.branches;
        let parallel_funcs = reachable_from_spmd(self.module);
        for b in &mut branches {
            b.category = match self.cats[b.func.index()][b.cond.index()] {
                Category::Na => Category::None,
                cat => cat,
            };
            b.in_parallel_section = parallel_funcs[b.func.index()];
        }
        compute_critical_sections(self.module, self.facts, &mut branches);
        ModuleAnalysis {
            value_cats: self.cats,
            branches,
            iterations: trace.len(),
            trace,
            parallel_funcs,
        }
    }

    fn branch_snapshot(&self) -> Vec<Category> {
        self.branches.iter().map(|b| self.cats[b.func.index()][b.cond.index()]).collect()
    }

    /// Pointer provenance: a small forward fixpoint of its own.
    fn resolve_provenance(&mut self) {
        // Seed before iterating: parameters of pointer type are unknown
        // (pointers flowing through calls are not tracked). Seeding must
        // happen first so values derived from parameter pointers (geps,
        // loads) see `Unknown` during the fixpoint — seeding afterwards
        // would leave dependents at whatever the iteration order happened
        // to produce, making the result sensitive to function and block
        // layout.
        for (fid, func) in self.module.iter_funcs() {
            for i in 0..func.params.len() {
                if func.params[i] == bw_ir::Type::Ptr {
                    self.provs[fid.index()][i] = Prov::Unknown;
                }
            }
        }
        let facts = self.facts;
        let mut changed = true;
        while changed {
            changed = false;
            for (fid, func) in self.module.iter_funcs() {
                let provs = &mut self.provs[fid.index()];
                for &bb in facts[fid.index()].dom.reverse_postorder() {
                    for inst in &func.block(bb).insts {
                        let Some(result) = inst.result else { continue };
                        let new = match &inst.op {
                            Op::GlobalAddr(g) => Prov::Global(*g),
                            Op::Gep { base, .. } => provs[base.index()],
                            Op::Alloca { .. } => Prov::Local,
                            Op::Phi { incomings, .. } => {
                                let mut p = Prov::Unresolved;
                                for inc in incomings {
                                    if inc.value == result {
                                        continue;
                                    }
                                    p = p.merge(provs[inc.value.index()]);
                                }
                                p
                            }
                            // Pointers flowing through calls or loads are
                            // not tracked.
                            Op::Call { .. } | Op::CallIndirect { .. } | Op::Load { .. } => {
                                if inst.ty == Some(bw_ir::Type::Ptr) {
                                    Prov::Unknown
                                } else {
                                    continue;
                                }
                            }
                            _ => continue,
                        };
                        let slot = &mut provs[result.index()];
                        let merged = slot.merge(new);
                        if *slot != merged {
                            *slot = merged;
                            changed = true;
                        }
                    }
                }
            }
        }
    }

    /// One whole-module pass; returns whether anything changed. The first
    /// pass always reports a change when the module has a return site: it
    /// is the one that records the return sites' categories.
    fn iterate(&mut self, first: bool) -> bool {
        let mut changed = false;

        // 1. Merge call-site argument categories into parameter categories.
        changed |= self.update_params();

        // 2. Visit all instructions in RPO.
        let facts = self.facts;
        for (fid, func) in self.module.iter_funcs() {
            for &bb in facts[fid.index()].dom.reverse_postorder() {
                for inst in &func.block(bb).insts {
                    let Some(result) = inst.result else { continue };
                    let new = self.visit(fid, bb, inst, result);
                    changed |= climb(&mut self.cats[fid.index()][result.index()], new);
                }
            }
        }

        // 3. Refresh per-function return categories.
        changed |= first && !self.rets.is_empty();
        for (f, cats) in self.cats.iter().enumerate() {
            let sites = self.ret_start[f]..self.ret_start[f + 1];
            for (&v, slot) in self.rets[sites.clone()].iter().zip(&mut self.ret_cats[sites]) {
                if *slot != cats[v.index()] {
                    *slot = cats[v.index()];
                    changed = true;
                }
            }
        }

        changed
    }

    fn update_params(&mut self) -> bool {
        // Merge argument categories per (callee, param index).
        self.param_inputs.fill(Category::Na);
        for &(fid, callees, args) in &self.calls {
            let cats = &self.cats[fid.index()];
            for callee in callees {
                let c = callee.index();
                let inputs = &mut self.param_inputs[self.param_start[c]..self.param_start[c + 1]];
                for (input, arg) in inputs.iter_mut().zip(args) {
                    *input = merge_site(*input, cats[arg.index()]);
                }
            }
        }
        let mut changed = false;
        for (f, cats) in self.cats.iter_mut().enumerate() {
            let inputs = &self.param_inputs[self.param_start[f]..self.param_start[f + 1]];
            for (slot, &new) in cats.iter_mut().zip(inputs) {
                changed |= climb(slot, new);
            }
        }
        changed
    }

    fn visit(&self, fid: FuncId, bb: BlockId, inst: &bw_ir::Inst, result: ValueId) -> Category {
        let cats = &self.cats[fid.index()];
        let cat = |v: ValueId| cats[v.index()];
        match &inst.op {
            Op::Const(_) => Category::Shared,
            Op::GlobalAddr(_) => Category::Shared,
            Op::ThreadId => Category::ThreadId,
            Op::NumThreads => Category::Shared,
            Op::Rand { .. } => Category::None,
            Op::Alloca { .. } => Category::None,
            Op::AtomicFetchAdd { global, .. } => {
                if self.module.global(*global).tid_counter {
                    Category::ThreadId
                } else {
                    Category::None
                }
            }
            Op::Bin { lhs, rhs, .. } | Op::Cmp { lhs, rhs, .. } => {
                combine_all([cat(*lhs), cat(*rhs)])
            }
            Op::Un { operand, .. } => cat(*operand),
            Op::Gep { base, offset } => combine_all([cat(*base), cat(*offset)]),
            Op::Load { addr, .. } => match self.provs[fid.index()][addr.index()] {
                Prov::Global(g) if self.module.global(g).shared => match cat(*addr) {
                    Category::Na => Category::Na,
                    Category::Shared => Category::Shared,
                    // Value is "one of the elements of a shared array":
                    // groupable by value, hence partial.
                    _ => Category::Partial,
                },
                Prov::Unresolved => Category::Na,
                _ => Category::None,
            },
            Op::Phi { incomings, .. } => {
                // A trivial phi (all incomings agree through phi chains) is
                // a copy of its target — no merge happens at runtime.
                let resolved = &self.resolved[fid.index()];
                let target = resolved[result.index()];
                if target != result {
                    return cat(target);
                }
                // A loop phi takes a value along a back edge: from a latch,
                // a block of the loop headed by `bb` with an edge to it.
                let FlowFacts { cfg, loops, .. } = &self.facts[fid.index()];
                let is_loop_phi = loops.loop_with_header(bb).is_some_and(|l| {
                    incomings.iter().any(|inc| {
                        loops.contains(l, inc.block) && cfg.succs(inc.block).contains(&bb)
                    })
                });
                let merged = incomings
                    .iter()
                    .map(|inc| resolved[inc.value.index()])
                    .filter(|&v| v != result);
                let combined = combine_optimistic(
                    incomings
                        .iter()
                        .filter(|inc| resolved[inc.value.index()] != result)
                        .map(|inc| cat(inc.value)),
                );
                if !is_loop_phi && combined == Category::Shared {
                    // If-else convergence merging distinct shared values →
                    // partial (the paper's deviation from Table II).
                    let mut merged = merged;
                    if let Some(first) = merged.next() {
                        if merged.any(|v| v != first) {
                            return Category::Partial;
                        }
                    }
                }
                combined
            }
            Op::Call { func: callee, .. } => self.callee_result(std::slice::from_ref(callee)),
            Op::CallIndirect { table, .. } => {
                self.callee_result(&self.module.tables[table.index()].funcs)
            }
            // No result:
            Op::Store { .. }
            | Op::Output(_)
            | Op::MutexLock(_)
            | Op::MutexUnlock(_)
            | Op::Barrier(_)
            | Op::Br { .. }
            | Op::Jump(_)
            | Op::Ret(_)
            | Op::Trap => Category::Na,
        }
    }

    fn callee_result(&self, callees: &[FuncId]) -> Category {
        let site_cats = |callee: &FuncId| {
            let f = callee.index();
            &self.ret_cats[self.ret_start[f]..self.ret_start[f + 1]]
        };
        let sites: usize = callees.iter().map(|c| site_cats(c).len()).sum();
        let combined = combine_optimistic(callees.iter().flat_map(site_cats).copied());
        match combined {
            Category::Na | Category::None => combined,
            c if sites <= 1 && callees.len() <= 1 => c,
            // Result is "one of several" values: groupable at best.
            Category::Shared | Category::Partial => Category::Partial,
            // Several thread-ID-derived returns chosen by unknown control:
            // still groupable by value.
            _ => Category::Partial,
        }
    }
}

/// Which functions are reachable from the SPMD entry (the paper's
/// "parallel section").
fn reachable_from_spmd(module: &Module) -> Vec<bool> {
    let mut reachable = vec![false; module.funcs.len()];
    let Some(entry) = module.spmd_entry else {
        return reachable;
    };
    let mut work = vec![entry];
    reachable[entry.index()] = true;
    while let Some(fid) = work.pop() {
        for block in &module.func(fid).blocks {
            for inst in &block.insts {
                let callees = match &inst.op {
                    Op::Call { func, .. } => std::slice::from_ref(func),
                    Op::CallIndirect { table, .. } => &module.tables[table.index()].funcs,
                    _ => continue,
                };
                for &callee in callees {
                    if !reachable[callee.index()] {
                        reachable[callee.index()] = true;
                        work.push(callee);
                    }
                }
            }
        }
    }
    reachable
}

/// Interprocedural "minimum mutexes held" dataflow, used by the
/// critical-section optimization (branches only one thread can execute
/// at a time are not worth checking).
fn compute_critical_sections(module: &Module, facts: &[FlowFacts], branches: &mut [BranchInfo]) {
    const INF: u32 = u32::MAX / 2;
    // held_entry[f] = min locks held when f is entered.
    let mut held_entry = vec![INF; module.funcs.len()];
    for role in [module.init, module.spmd_entry, module.fini].into_iter().flatten() {
        held_entry[role.index()] = 0;
    }

    // block_in[first_block[f] + b] = min locks held entering block b of f.
    let mut first_block = Vec::with_capacity(module.funcs.len());
    let mut nblocks = 0;
    for func in &module.funcs {
        first_block.push(nblocks);
        nblocks += func.blocks.len();
    }
    let mut block_in = vec![INF; nblocks];

    let mut changed = true;
    while changed {
        changed = false;
        for (fid, func) in module.iter_funcs() {
            let entry_held = held_entry[fid.index()];
            let fi = fid.index();
            let block_in = &mut block_in[first_block[fi]..first_block[fi] + func.blocks.len()];
            if block_in[func.entry().index()] > entry_held {
                block_in[func.entry().index()] = entry_held;
                changed = true;
            }
            for &bb in facts[fi].dom.reverse_postorder() {
                let mut held = block_in[bb.index()];
                if held >= INF {
                    continue;
                }
                for inst in &func.block(bb).insts {
                    match &inst.op {
                        Op::MutexLock(_) => held += 1,
                        Op::MutexUnlock(_) => held = held.saturating_sub(1),
                        Op::Call { func: callee, .. } if held_entry[callee.index()] > held => {
                            held_entry[callee.index()] = held;
                            changed = true;
                        }
                        Op::CallIndirect { table, .. } => {
                            for &callee in &module.tables[table.index()].funcs {
                                if held_entry[callee.index()] > held {
                                    held_entry[callee.index()] = held;
                                    changed = true;
                                }
                            }
                        }
                        Op::Br { then_bb, else_bb, .. } => {
                            for succ in [*then_bb, *else_bb] {
                                if block_in[succ.index()] > held {
                                    block_in[succ.index()] = held;
                                    changed = true;
                                }
                            }
                        }
                        Op::Jump(succ) if block_in[succ.index()] > held => {
                            block_in[succ.index()] = held;
                            changed = true;
                        }
                        _ => {}
                    }
                }
            }
        }
    }

    for b in branches {
        let fi = b.func.index();
        let func = module.func(b.func);
        let mut held = block_in[first_block[fi] + b.block.index()];
        if held >= INF {
            held = 0; // unreachable branch
        } else {
            for inst in func.block(b.block).insts.iter().take(b.inst_index) {
                match &inst.op {
                    Op::MutexLock(_) => held += 1,
                    Op::MutexUnlock(_) => held = held.saturating_sub(1),
                    _ => {}
                }
            }
        }
        b.min_locks_held = held;
    }
}

/// Joins `new` into `slot`; returns whether `slot` climbed.
fn climb(slot: &mut Category, new: Category) -> bool {
    let joined = slot.join(new);
    let climbed = *slot != joined;
    *slot = joined;
    climbed
}

/// Merges one more category arriving at a parameter from its call sites
/// into what the sites before it merged to (`Na` before the first): `Na`
/// sites are skipped; unanimous sites keep their category (instances are
/// tracked per call site); mixed checkable categories fall back to
/// `partial`; any `none` poisons the merge. The result does not depend on
/// the order of the sites.
fn merge_site(merged: Category, cat: Category) -> Category {
    match (merged, cat) {
        (m, Category::Na) => m,
        (Category::Na, c) => c,
        (Category::None, _) | (_, Category::None) => Category::None,
        (m, c) if m == c => m,
        _ => Category::Partial,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn merge_sites(cats: &[Category]) -> Category {
        cats.iter().fold(Category::Na, |merged, &cat| merge_site(merged, cat))
    }

    #[test]
    fn merge_sites_rules() {
        use Category::*;
        assert_eq!(merge_sites(&[Shared, Shared]), Shared);
        assert_eq!(merge_sites(&[Shared, Na]), Shared);
        assert_eq!(merge_sites(&[Na, Na]), Na);
        assert_eq!(merge_sites(&[Shared, ThreadId]), Partial);
        assert_eq!(merge_sites(&[Shared, None]), None);
        assert_eq!(merge_sites(&[ThreadId, ThreadId]), ThreadId);
        assert_eq!(merge_sites(&[Partial, Shared]), Partial);
    }

    /// The fold agrees with merging the whole list at once, as the sites
    /// were merged before they were folded one by one: `Na` dropped, then
    /// `none` if any, the one category if unanimous, else `partial`.
    #[test]
    fn merge_site_folds_like_the_list_rule() {
        use Category::*;
        let whole = |cats: &[Category]| {
            let known: Vec<Category> = cats.iter().copied().filter(|&c| c != Na).collect();
            match known.first() {
                Option::None => Na,
                Some(_) if known.contains(&None) => None,
                Some(&first) if known.iter().all(|&c| c == first) => first,
                Some(_) => Partial,
            }
        };
        let all = [Na, Shared, ThreadId, Partial, None];
        let mut lists: Vec<Vec<Category>> = vec![vec![]];
        for _ in 0..4 {
            let longer: Vec<Vec<Category>> = lists
                .iter()
                .flat_map(|l| all.iter().map(move |&c| [l.as_slice(), &[c]].concat()))
                .collect();
            for list in &longer {
                assert_eq!(merge_sites(list), whole(list), "{list:?}");
            }
            lists = longer;
        }
    }

    /// Three phis that only pass each other around, fed from one value
    /// outside: pass 1 resolves none of them, their component resolves all
    /// three to that value. With a second value fed in, none resolves.
    #[test]
    fn a_phi_cycle_with_one_input_is_a_copy_of_it() {
        let text = |second: &str| {
            format!(
                "module m {{
  func f() {{
  bb0:
    v0: i64 = const 1
    v1: i64 = const 2
    jump bb1
  bb1:
    v2: i64 = phi [bb0, v0], [bb3, v4]
    jump bb2
  bb2:
    v3: i64 = phi [bb1, v2], [bb3, {second}]
    jump bb3
  bb3:
    v4: i64 = phi [bb2, v3], [bb1, v2]
    jump bb1
  }}
}}
"
            )
        };
        let resolve = |second: &str| {
            let module = bw_ir::parse_module(&text(second)).expect("the module parses");
            resolve_trivial_phis(&module.funcs[0], &mut PhiTables::default())
        };
        let v = ValueId::from_index;
        assert_eq!(resolve("v4")[2..], [v(0), v(0), v(0)]);
        assert_eq!(resolve("v1")[2..], [v(2), v(3), v(4)]);
    }

    /// Radix's `slave` (`tests/fixtures/ir/radix.bwir`; 98 phis, the same
    /// at every size): a defect pinned, not fixed. The resolver stops at
    /// its round limit, `phis + 10`, while rounds still change the table,
    /// so what it returns is not closed under its own pass 1. Two things
    /// keep it moving:
    ///
    /// 1. pass 1 recomputes every phi, also one that pass 2 resolved with
    ///    its component, and resets any phi whose incomings it reads as two
    ///    values to itself;
    /// 2. it reads an incoming's entry one step deep, not the end of its
    ///    chain, so a copy of a copy looks like a second value.
    ///
    /// In the table returned here `v13 = phi [v0, v294]` resolves to `v0`
    /// while `v294` resolves to itself; one more pass-1 sweep sends `v13`
    /// back to itself and moves 51 phis in all. Pass 2 then puts
    /// components back together, and the next round starts over: some
    /// functions still change after 100,000 rounds. The same limit is
    /// reached in six of the seven ports (not FFT) and in `bw-gen` seeds
    /// `0x5`, `0x239`, `0x573` and `0x645`.
    ///
    /// Where the loop stops is visible: b17 and b18, in `slave`, are
    /// `partial` at the limit and `shared` if the loop runs 100,000 rounds.
    /// At the limit, phis such as `v212` and `v246`, which resolve to one
    /// shared value given the rounds, still read as merging two, and the
    /// merge-phi downgrade makes them `partial`.
    /// `benchmark/expected.json` pins the ports' category counts, so the
    /// fix — a resolver that terminates on its own (ROADMAP, re-pin step
    /// (ii)(e)) — moves this pin, and must move it to `shared`.
    #[test]
    fn radix_slave_is_not_closed_under_pass_1() {
        let module = bw_ir::parse_module(include_str!("../../../tests/fixtures/ir/radix.bwir"))
            .expect("the fixture parses");
        let slave = module.func_by_name("slave").expect("radix has a slave");
        let mut tables = PhiTables::default();
        let resolved = resolve_trivial_phis(module.func(slave), &mut tables);
        assert_eq!(tables.phis.results.len(), 98);

        let v = ValueId::from_index;
        assert_eq!((resolved[13], resolved[294]), (v(0), v(294)));
        let mut again = resolved.clone();
        assert!(resolve_phi_chains(&tables.phis, &mut again));
        assert_eq!(again[13], v(13));
        assert_eq!(resolved.iter().zip(&again).filter(|(a, b)| a != b).count(), 51);

        let analysis = ModuleAnalysis::run(&module);
        for b in [17, 18] {
            let branch = &analysis.branches[b];
            assert_eq!((branch.func, branch.category), (slave, Category::Partial), "b{b}");
        }
    }

    #[test]
    fn prov_merge() {
        let g = Prov::Global(GlobalId(0));
        assert_eq!(Prov::Unresolved.merge(g), g);
        assert_eq!(g.merge(g), g);
        assert_eq!(g.merge(Prov::Local), Prov::Unknown);
        assert_eq!(Prov::Unknown.merge(g), Prov::Unknown);
    }
}
