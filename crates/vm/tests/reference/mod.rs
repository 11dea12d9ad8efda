//! The stepper and run loops of the parent commit, kept as a test-only
//! reference model of the decoded stepper in `src/thread.rs`.
//!
//! `step` below is the tree-walking interpreter the decoded one replaced:
//! one `match &inst.op` per step over `bw_ir::Op`, phis stepped over one
//! at a time, a `Vec` of phi writes per transfer, one register `Vec` per
//! call. It is slow and obviously right, which is the point:
//! `tests/differential.rs` runs both and compares whole `RunResult`s. The
//! code is the parent's, with three kinds of edits only: what
//! `ProgramImage` used to precompute (`FuncMeta`, `branch_at`, the
//! witness lists) is rebuilt here from its public fields; the span tracer
//! (observability only) is left out of the sim loop; and the cycle buckets
//! are plain integers, which is what the parent's relaxed-atomic counters
//! amounted to on one thread.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use bw_analysis::ConditionInfo;
use bw_ir::{
    BarrierId, BinOp, BlockId, BranchId, Cfg, CmpOp, DomTree, FuncId, LoopForest, LoopId,
    MutexId, Op, Ptr, Space, UnOp, Val, ValueId,
};
use bw_monitor::{BranchEvent, CheckTable, KeyHasher, ShardedMonitor};
use bw_vm::{
    AtomicMemory, BranchHook, EngineKind, ExecConfig, ExecMode, FaultAction, LocalMemory,
    MachineModel, MonitorMode, ProgramImage, RunOutcome, RunResult, SharedMemory, SimMemory,
    SplitMix64, TrapKind, VmTelemetry as Cycles, MAX_CALL_DEPTH,
};

/// The simulated machine (there is one; `sim.rs` reads the same constant).
const MACHINE: MachineModel = MachineModel::opteron_6128();

/// Static per-function metadata used at runtime.
struct FuncMeta {
    /// Loop chain (outermost first) of every block.
    chains: Vec<Vec<LoopId>>,
    /// The loop each block is the header of, if any.
    header_of: Vec<Option<LoopId>>,
}

/// Per-branch runtime info.
struct BranchRuntime {
    witnesses: Option<Vec<ValueId>>,
    cond_info: ConditionInfo,
}

/// What the parent's `ProgramImage` linked for its stepper.
pub struct RefImage<'a> {
    image: &'a ProgramImage,
    module: &'a bw_ir::Module,
    func_meta: Vec<FuncMeta>,
    branch_at: Vec<HashMap<BlockId, BranchId>>,
    branch_runtime: Vec<BranchRuntime>,
}

impl<'a> RefImage<'a> {
    pub fn new(image: &'a ProgramImage) -> Self {
        let module = &image.module;
        let mut func_meta = Vec::with_capacity(module.funcs.len());
        for func in &module.funcs {
            let cfg = Cfg::new(func);
            let dom = DomTree::new(&cfg, func.entry());
            let loops = LoopForest::new(&cfg, &dom);
            let chains: Vec<Vec<LoopId>> = (0..func.blocks.len())
                .map(|i| loops.loop_chain(BlockId::from_index(i)))
                .collect();
            let header_of: Vec<Option<LoopId>> = (0..func.blocks.len())
                .map(|i| loops.loop_with_header(BlockId::from_index(i)))
                .collect();
            func_meta.push(FuncMeta { chains, header_of });
        }
        let mut branch_at: Vec<HashMap<BlockId, BranchId>> =
            vec![HashMap::new(); module.funcs.len()];
        let mut branch_runtime = Vec::with_capacity(image.analysis.branches.len());
        for b in &image.analysis.branches {
            branch_at[b.func.index()].insert(b.block, b.id);
            let cond_info = ConditionInfo::extract(module.func(b.func), b.cond);
            let witnesses = image.plan.check(b.id).map(|c| c.witnesses.clone());
            branch_runtime.push(BranchRuntime { witnesses, cond_info });
        }
        RefImage { image, module, func_meta, branch_at, branch_runtime }
    }

    fn branch_id(&self, func: FuncId, block: BlockId) -> Option<BranchId> {
        self.branch_at[func.index()].get(&block).copied()
    }
}

/// Cost classification of an executed instruction; the engine translates it
/// into cycles with the machine model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CostClass {
    /// Simple ALU / compare / jump.
    Alu,
    /// Multiply.
    Mul,
    /// Divide / remainder / sqrt.
    Div,
    /// Thread-local memory access.
    LocalMem,
    /// Shared memory access to the given region.
    Shared(u32),
    /// Atomic RMW on the given region.
    Atomic(u32),
    /// Call or return.
    Call,
    /// Output append.
    Output,
    /// No cost (phi bookkeeping, constants folded into issue).
    Free,
}

/// What happened during one step.
#[derive(Debug)]
pub enum StepOutcome {
    /// An ordinary instruction ran.
    Ran {
        /// Cost classification for the engine's accounting.
        cost: CostClass,
        /// Monitor event to deliver, when an instrumented branch executed.
        event: Option<BranchEvent>,
    },
    /// The thread executed a `lock` — the engine must grant or block.
    Lock(MutexId),
    /// The thread executed an `unlock`.
    Unlock(MutexId),
    /// The thread arrived at a barrier.
    Barrier(BarrierId),
    /// The thread returned from its root frame.
    Done,
    /// The thread aborted.
    Trap(TrapKind),
}

/// One activation record.
#[derive(Debug)]
pub struct Frame {
    /// Executing function.
    pub func: FuncId,
    /// Current block.
    pub block: BlockId,
    /// Next instruction index within the block.
    pub inst: usize,
    /// Register file (indexed by `ValueId`).
    pub regs: Vec<Val>,
    /// Iteration counters of the loops currently containing the program
    /// point, outermost first.
    pub loop_stack: Vec<(bw_ir::LoopId, u64)>,
    /// Call-path hash for this frame (level-1 runtime key).
    pub path_hash: u64,
    /// Caller register to receive the return value.
    pub ret_dest: Option<ValueId>,
}

/// The full interpreter state of one thread.
pub struct ThreadState {
    /// Thread id in `0..nthreads`.
    pub tid: u32,
    /// Activation stack.
    pub frames: Vec<Frame>,
    /// Thread-local memory.
    pub local: LocalMemory,
    /// Values emitted by `output`.
    pub outputs: Vec<Val>,
    /// Deterministic PRNG for the `rand` op.
    pub rng: SplitMix64,
    /// Number of barriers passed (part of the instance key).
    pub barrier_epoch: u64,
    /// Dynamic branches executed so far.
    pub dyn_branches: u64,
    /// Monitor events produced.
    pub events_sent: u64,
    /// Set when the thread finished or trapped.
    pub finished: Option<Result<(), TrapKind>>,
    /// Instructions executed (for statistics).
    pub steps: u64,
}

impl ThreadState {
    /// Creates a thread poised to execute `func` (no arguments).
    pub fn new(tid: u32, func: FuncId, image: &RefImage<'_>, seed: u64) -> Self {
        let f = image.module.func(func);
        let frame = Frame {
            func,
            block: f.entry(),
            inst: 0,
            regs: vec![Val::I64(0); f.num_values()],
            loop_stack: Vec::new(),
            // The root path hash must be identical in every thread: the
            // call-site path is a *cross-thread* correlation key.
            path_hash: KeyHasher::new().with(0x5bd1_e995).finish(),
            ret_dest: None,
        };
        ThreadState {
            tid,
            frames: vec![frame],
            local: LocalMemory::new(),
            outputs: Vec::new(),
            rng: SplitMix64::new(seed ^ (u64::from(tid) << 32) ^ 0x1234_5678_9abc_def0),
            barrier_epoch: 0,
            dyn_branches: 0,
            events_sent: 0,
            finished: None,
            steps: 0,
        }
    }

    /// Executes one instruction. `nthreads` is the SPMD width (for the
    /// `numthreads` op); `mem` is the shared memory; `hook` may inject
    /// faults at branches.
    pub fn step(
        &mut self,
        image: &RefImage<'_>,
        mem: &dyn SharedMemory,
        nthreads: u32,
        hook: &dyn BranchHook,
    ) -> StepOutcome {
        debug_assert!(self.finished.is_none(), "stepping a finished thread");
        self.steps += 1;

        let frame_index = self.frames.len() - 1;
        let (func_id, block, inst_index) = {
            let f = &self.frames[frame_index];
            (f.func, f.block, f.inst)
        };
        let func = image.module.func(func_id);
        let inst = &func.block(block).insts[inst_index];

        macro_rules! trap {
            ($kind:expr) => {{
                self.finished = Some(Err($kind));
                return StepOutcome::Trap($kind);
            }};
        }
        macro_rules! get {
            ($v:expr) => {
                self.frames[frame_index].regs[$v.index()]
            };
        }
        macro_rules! set {
            ($val:expr) => {
                if let Some(result) = inst.result {
                    self.frames[frame_index].regs[result.index()] = $val;
                }
            };
        }
        macro_rules! advance {
            ($cost:expr) => {{
                self.frames[frame_index].inst += 1;
                return StepOutcome::Ran { cost: $cost, event: None };
            }};
        }

        match &inst.op {
            Op::Const(v) => {
                set!(*v);
                advance!(CostClass::Free)
            }
            Op::Bin { op, lhs, rhs } => {
                let (l, r) = (get!(*lhs), get!(*rhs));
                let cost = match op {
                    BinOp::Mul => CostClass::Mul,
                    BinOp::Div | BinOp::Rem => CostClass::Div,
                    _ => CostClass::Alu,
                };
                match eval_bin(*op, l, r) {
                    Ok(v) => set!(v),
                    Err(k) => trap!(k),
                }
                advance!(cost)
            }
            Op::Cmp { op, lhs, rhs } => {
                let (l, r) = (get!(*lhs), get!(*rhs));
                match eval_cmp(*op, l, r) {
                    Ok(v) => set!(Val::Bool(v)),
                    Err(k) => trap!(k),
                }
                advance!(CostClass::Alu)
            }
            Op::Un { op, operand } => {
                match eval_un(*op, get!(*operand)) {
                    Ok(v) => set!(v),
                    Err(k) => trap!(k),
                }
                advance!(CostClass::Alu)
            }
            Op::Phi { .. } => {
                // Phis are evaluated on the incoming edge (see `transfer`);
                // reaching one at inst 0 means entry-block phi, impossible.
                advance!(CostClass::Free)
            }
            Op::GlobalAddr(g) => {
                set!(Val::Ptr(Ptr::shared(g.0)));
                advance!(CostClass::Free)
            }
            Op::Gep { base, offset } => {
                let Some(p) = get!(*base).as_ptr() else { trap!(TrapKind::TypeError) };
                let Some(off) = get!(*offset).as_i64() else { trap!(TrapKind::TypeError) };
                set!(Val::Ptr(p.offset_by(off)));
                advance!(CostClass::Alu)
            }
            Op::Load { addr, .. } => {
                let Some(p) = get!(*addr).as_ptr() else { trap!(TrapKind::TypeError) };
                let (value, cost) = match p.space {
                    Space::Shared => match mem.load(p) {
                        Ok(v) => (v, CostClass::Shared(p.region)),
                        Err(k) => trap!(k),
                    },
                    Space::Local => match self.local.load(p) {
                        Ok(v) => (v, CostClass::LocalMem),
                        Err(k) => trap!(k),
                    },
                };
                self.frames[frame_index].regs[inst.result.expect("load has result").index()] =
                    value;
                self.frames[frame_index].inst += 1;
                StepOutcome::Ran { cost, event: None }
            }
            Op::Store { addr, value } => {
                let Some(p) = get!(*addr).as_ptr() else { trap!(TrapKind::TypeError) };
                let v = get!(*value);
                let cost = match p.space {
                    Space::Shared => match mem.store(p, v) {
                        Ok(()) => CostClass::Shared(p.region),
                        Err(k) => trap!(k),
                    },
                    Space::Local => match self.local.store(p, v) {
                        Ok(()) => CostClass::LocalMem,
                        Err(k) => trap!(k),
                    },
                };
                self.frames[frame_index].inst += 1;
                StepOutcome::Ran { cost, event: None }
            }
            Op::Alloca { size } => {
                let Some(n) = get!(*size).as_i64() else { trap!(TrapKind::TypeError) };
                match self.local.alloca(n) {
                    Ok(p) => set!(Val::Ptr(p)),
                    Err(k) => trap!(k),
                }
                advance!(CostClass::LocalMem)
            }
            Op::ThreadId => {
                set!(Val::I64(i64::from(self.tid)));
                advance!(CostClass::Free)
            }
            Op::NumThreads => {
                set!(Val::I64(i64::from(nthreads)));
                advance!(CostClass::Free)
            }
            Op::AtomicFetchAdd { global, delta } => {
                let Some(d) = get!(*delta).as_i64() else { trap!(TrapKind::TypeError) };
                match mem.fetch_add(global.0, d) {
                    Ok(old) => set!(Val::I64(old)),
                    Err(k) => trap!(k),
                }
                advance!(CostClass::Atomic(global.0))
            }
            Op::Rand { bound } => {
                let Some(b) = get!(*bound).as_i64() else { trap!(TrapKind::TypeError) };
                let v = self.rng.below(b);
                set!(Val::I64(v));
                advance!(CostClass::Mul)
            }
            Op::Output(v) => {
                let value = get!(*v);
                self.outputs.push(value);
                advance!(CostClass::Output)
            }
            Op::MutexLock(m) => {
                let m = *m;
                self.frames[frame_index].inst += 1;
                StepOutcome::Lock(m)
            }
            Op::MutexUnlock(m) => {
                let m = *m;
                self.frames[frame_index].inst += 1;
                StepOutcome::Unlock(m)
            }
            Op::Barrier(b) => {
                let b = *b;
                self.frames[frame_index].inst += 1;
                self.barrier_epoch += 1;
                StepOutcome::Barrier(b)
            }
            Op::Call { func: callee, args, site } => {
                if self.frames.len() >= MAX_CALL_DEPTH {
                    trap!(TrapKind::StackOverflow);
                }
                let arg_vals: Vec<Val> = args.iter().map(|a| get!(*a)).collect();
                self.push_call(image, *callee, arg_vals, site.0, inst.result);
                StepOutcome::Ran { cost: CostClass::Call, event: None }
            }
            Op::CallIndirect { table, selector, args, site } => {
                if self.frames.len() >= MAX_CALL_DEPTH {
                    trap!(TrapKind::StackOverflow);
                }
                let Some(sel) = get!(*selector).as_i64() else { trap!(TrapKind::TypeError) };
                let funcs = &image.module.tables[table.index()].funcs;
                if sel < 0 || sel as usize >= funcs.len() {
                    trap!(TrapKind::BadIndirectCall);
                }
                let callee = funcs[sel as usize];
                let arg_vals: Vec<Val> = args.iter().map(|a| get!(*a)).collect();
                self.push_call(image, callee, arg_vals, site.0, inst.result);
                StepOutcome::Ran { cost: CostClass::Call, event: None }
            }
            Op::Br { cond, then_bb, else_bb } => {
                let (then_bb, else_bb) = (*then_bb, *else_bb);
                let Some(mut outcome) = get!(*cond).as_bool() else { trap!(TrapKind::TypeError) };
                self.dyn_branches += 1;

                let branch_id =
                    image.branch_id(func_id, block).expect("every Br is registered");
                let runtime = &image.branch_runtime[branch_id.index()];

                // The witness is captured *before* the branch executes, as
                // the paper's `sendBranchCondition` call precedes the branch
                // instruction PIN injects into. A condition-data fault at
                // the branch therefore sends the clean witness but takes
                // the corrupted direction — which is exactly what makes it
                // detectable as a within-group direction mismatch.
                let witness = runtime.witnesses.as_ref().map(|witnesses| {
                    let frame = &self.frames[frame_index];
                    let mut wh = KeyHasher::new();
                    for &w in witnesses {
                        wh.write(frame.regs[w.index()].bits());
                    }
                    wh.finish()
                });

                // Fault injection hook (the fault strikes at the branch).
                if let Some(action) = hook.on_branch(self.tid, self.dyn_branches, branch_id) {
                    match action {
                        FaultAction::FlipOutcome => outcome = !outcome,
                        FaultAction::CorruptData { value_choice, bit } => {
                            let targets = &runtime.cond_info.data_values;
                            let target = targets[value_choice as usize % targets.len()];
                            let regs = &mut self.frames[frame_index].regs;
                            let old = regs[target.index()];
                            let corrupted =
                                Val::from_bits(old.ty(), old.bits() ^ (1u64 << (bit % 64)));
                            regs[target.index()] = corrupted;
                            outcome = recompute_outcome(
                                &runtime.cond_info,
                                &self.frames[frame_index].regs,
                                *cond,
                            );
                        }
                    }
                }

                let event = witness.map(|witness| {
                    let frame = &self.frames[frame_index];
                    let mut ih = KeyHasher::new();
                    for &(l, i) in &frame.loop_stack {
                        ih.write(u64::from(l.0) << 32 | (i & 0xffff_ffff));
                    }
                    ih.write(self.barrier_epoch);
                    self.events_sent += 1;
                    BranchEvent {
                        branch: branch_id.0,
                        thread: self.tid,
                        site: frame.path_hash,
                        iter: ih.finish(),
                        witness,
                        taken: outcome,
                    }
                });

                let target = if outcome { then_bb } else { else_bb };
                self.transfer(image, frame_index, block, target);
                StepOutcome::Ran { cost: CostClass::Alu, event }
            }
            Op::Jump(target) => {
                let target = *target;
                self.transfer(image, frame_index, block, target);
                StepOutcome::Ran { cost: CostClass::Alu, event: None }
            }
            Op::Ret(v) => {
                let value = v.map(|v| get!(v));
                let popped = self.frames.pop().expect("ret pops a frame");
                if let Some(caller) = self.frames.last_mut() {
                    if let (Some(dest), Some(val)) = (popped.ret_dest, value) {
                        caller.regs[dest.index()] = val;
                    }
                    StepOutcome::Ran { cost: CostClass::Call, event: None }
                } else {
                    self.finished = Some(Ok(()));
                    StepOutcome::Done
                }
            }
            Op::Trap => {
                self.finished = Some(Err(TrapKind::Explicit));
                StepOutcome::Trap(TrapKind::Explicit)
            }
        }
    }

    fn push_call(
        &mut self,
        image: &RefImage<'_>,
        callee: FuncId,
        args: Vec<Val>,
        site: u32,
        ret_dest: Option<ValueId>,
    ) {
        let caller = self.frames.last_mut().expect("call from a frame");
        caller.inst += 1; // resume after the call on return

        // The callee's instance keys must distinguish caller loop
        // iterations and call sites: fold both into the child path hash.
        let mut h = KeyHasher::new().with(caller.path_hash).with(u64::from(site));
        for &(l, i) in &caller.loop_stack {
            h.write(u64::from(l.0) << 32 | (i & 0xffff_ffff));
        }
        let path_hash = h.finish();

        let f = image.module.func(callee);
        let mut regs = vec![Val::I64(0); f.num_values()];
        for (i, v) in args.into_iter().enumerate() {
            regs[i] = v;
        }
        self.frames.push(Frame {
            func: callee,
            block: f.entry(),
            inst: 0,
            regs,
            loop_stack: Vec::new(),
            path_hash,
            ret_dest,
        });
    }

    /// Transfers control along the edge `from → to` in the current frame:
    /// evaluates the target's phis (in parallel), updates the loop-iteration
    /// stack, and repositions the frame.
    fn transfer(&mut self, image: &RefImage<'_>, frame_index: usize, from: BlockId, to: BlockId) {
        let frame = &mut self.frames[frame_index];
        let func = image.module.func(frame.func);
        let meta = &image.func_meta[frame.func.index()];

        // Parallel phi evaluation.
        let target_block = func.block(to);
        let mut phi_writes: Vec<(ValueId, Val)> = Vec::new();
        for inst in target_block.phis() {
            let incomings = inst.op.phi_incomings().expect("phis() yields phis");
            let inc = incomings
                .iter()
                .find(|inc| inc.block == from)
                .expect("verifier guarantees an incoming per predecessor");
            phi_writes.push((
                inst.result.expect("phi has a result"),
                frame.regs[inc.value.index()],
            ));
        }
        for (dest, val) in phi_writes {
            frame.regs[dest.index()] = val;
        }

        // Loop-iteration bookkeeping.
        let chain = &meta.chains[to.index()];
        while let Some(&(top, _)) = frame.loop_stack.last() {
            if chain.contains(&top) {
                break;
            }
            frame.loop_stack.pop();
        }
        if let Some(header_loop) = meta.header_of[to.index()] {
            match frame.loop_stack.last_mut() {
                Some((top, iter)) if *top == header_loop => *iter += 1, // back edge
                _ => frame.loop_stack.push((header_loop, 0)),           // loop entry
            }
        }

        frame.block = to;
        frame.inst = 0;
    }
}

fn eval_bin(op: BinOp, l: Val, r: Val) -> Result<Val, TrapKind> {
    match (l, r) {
        (Val::I64(a), Val::I64(b)) => {
            let v = match op {
                BinOp::Add => a.wrapping_add(b),
                BinOp::Sub => a.wrapping_sub(b),
                BinOp::Mul => a.wrapping_mul(b),
                BinOp::Div => {
                    if b == 0 {
                        return Err(TrapKind::DivideByZero);
                    }
                    a.wrapping_div(b)
                }
                BinOp::Rem => {
                    if b == 0 {
                        return Err(TrapKind::DivideByZero);
                    }
                    a.wrapping_rem(b)
                }
                BinOp::And => a & b,
                BinOp::Or => a | b,
                BinOp::Xor => a ^ b,
                BinOp::Shl => a.wrapping_shl(b as u32 & 63),
                BinOp::Shr => a.wrapping_shr(b as u32 & 63),
                BinOp::Min => a.min(b),
                BinOp::Max => a.max(b),
            };
            Ok(Val::I64(v))
        }
        (Val::F64(a), Val::F64(b)) => {
            let v = match op {
                BinOp::Add => a + b,
                BinOp::Sub => a - b,
                BinOp::Mul => a * b,
                BinOp::Div => a / b, // IEEE semantics: inf/NaN, no trap
                BinOp::Rem => a % b,
                BinOp::Min => a.min(b),
                BinOp::Max => a.max(b),
                _ => return Err(TrapKind::TypeError),
            };
            Ok(Val::F64(v))
        }
        (Val::Bool(a), Val::Bool(b)) => {
            let v = match op {
                BinOp::And => a && b,
                BinOp::Or => a || b,
                BinOp::Xor => a != b,
                _ => return Err(TrapKind::TypeError),
            };
            Ok(Val::Bool(v))
        }
        _ => Err(TrapKind::TypeError),
    }
}

fn eval_cmp(op: CmpOp, l: Val, r: Val) -> Result<bool, TrapKind> {
    let ord = match (l, r) {
        (Val::I64(a), Val::I64(b)) => a.partial_cmp(&b),
        (Val::F64(a), Val::F64(b)) => a.partial_cmp(&b),
        (Val::Bool(a), Val::Bool(b)) => a.partial_cmp(&b),
        (Val::Ptr(a), Val::Ptr(b)) => a.offset.partial_cmp(&b.offset),
        _ => return Err(TrapKind::TypeError),
    };
    // NaN comparisons: only Ne holds, like IEEE.
    Ok(match (op, ord) {
        (CmpOp::Ne, None) => true,
        (_, None) => false,
        (CmpOp::Eq, Some(o)) => o.is_eq(),
        (CmpOp::Ne, Some(o)) => o.is_ne(),
        (CmpOp::Lt, Some(o)) => o.is_lt(),
        (CmpOp::Le, Some(o)) => o.is_le(),
        (CmpOp::Gt, Some(o)) => o.is_gt(),
        (CmpOp::Ge, Some(o)) => o.is_ge(),
    })
}

fn eval_un(op: UnOp, v: Val) -> Result<Val, TrapKind> {
    Ok(match (op, v) {
        (UnOp::Neg, Val::I64(a)) => Val::I64(a.wrapping_neg()),
        (UnOp::Neg, Val::F64(a)) => Val::F64(-a),
        (UnOp::Not, Val::Bool(a)) => Val::Bool(!a),
        (UnOp::Not, Val::I64(a)) => Val::I64(!a),
        (UnOp::Abs, Val::I64(a)) => Val::I64(a.wrapping_abs()),
        (UnOp::Abs, Val::F64(a)) => Val::F64(a.abs()),
        (UnOp::IntToFloat, Val::I64(a)) => Val::F64(a as f64),
        (UnOp::FloatToInt, Val::F64(a)) => {
            // Saturating conversion, like Rust's `as`.
            Val::I64(a as i64)
        }
        (UnOp::Sqrt, Val::F64(a)) => Val::F64(a.sqrt()),
        _ => return Err(TrapKind::TypeError),
    })
}

/// Recomputes a branch outcome after its condition data was corrupted: if
/// the condition is a comparison, re-evaluate it on the (now corrupted)
/// registers; otherwise the condition value itself was corrupted and its
/// low bit decides.
fn recompute_outcome(
    info: &bw_analysis::ConditionInfo,
    regs: &[Val],
    cond: ValueId,
) -> bool {
    match info.cmp {
        Some((op, lhs, rhs, negated)) => {
            let raw = eval_cmp(op, regs[lhs.index()], regs[rhs.index()]).unwrap_or(false);
            raw != negated
        }
        None => regs[cond.index()].as_bool().unwrap_or_else(|| {
            // Corrupted into a non-bool encoding: use the low bit.
            regs[cond.index()].bits() & 1 != 0
        }),
    }
}


// ---- cycle attribution (the parent's `VmTelemetry`, counters made plain) ----

/// A `bw_telemetry::Counter` as the parent used it: added to through
/// `&self`.
#[derive(Default)]
struct Bucket(std::cell::Cell<u64>);

impl Bucket {
    fn add(&self, n: u64) {
        self.0.set(self.0.get() + n);
    }

    fn get(&self) -> u64 {
        self.0.get()
    }
}

#[derive(Default)]
struct VmTelemetry {
    cycles_alu: Bucket,
    cycles_mul: Bucket,
    cycles_div: Bucket,
    cycles_local_mem: Bucket,
    cycles_shared: Bucket,
    cycles_atomic: Bucket,
    cycles_call: Bucket,
    cycles_output: Bucket,
    cycles_events: Bucket,
    cycles_sync: Bucket,
}

impl VmTelemetry {
    fn new() -> Self {
        Self::default()
    }

    fn cycles_for(&self, class: CostClass) -> &Bucket {
        match class {
            CostClass::Alu | CostClass::Free => &self.cycles_alu,
            CostClass::Mul => &self.cycles_mul,
            CostClass::Div => &self.cycles_div,
            CostClass::LocalMem => &self.cycles_local_mem,
            CostClass::Shared(_) => &self.cycles_shared,
            CostClass::Atomic(_) => &self.cycles_atomic,
            CostClass::Call => &self.cycles_call,
            CostClass::Output => &self.cycles_output,
        }
    }

    fn cycles(&self) -> Cycles {
        Cycles {
            cycles_alu: self.cycles_alu.get(),
            cycles_mul: self.cycles_mul.get(),
            cycles_div: self.cycles_div.get(),
            cycles_local_mem: self.cycles_local_mem.get(),
            cycles_shared: self.cycles_shared.get(),
            cycles_atomic: self.cycles_atomic.get(),
            cycles_call: self.cycles_call.get(),
            cycles_output: self.cycles_output.get(),
            cycles_events: self.cycles_events.get(),
            cycles_sync: self.cycles_sync.get(),
        }
    }
}

/// The parent's `engine::sort_violations`.
fn sort_violations(
    violations: &mut [bw_monitor::Violation],
    reports: &mut [bw_monitor::ViolationReport],
) {
    violations.sort_unstable_by_key(|v| (v.site, v.branch, v.iter, v.kind));
    reports.sort_unstable_by_key(|r| {
        let v = r.violation;
        (v.site, v.branch, v.iter, v.kind)
    });
}

/// The parent's `run_sim_engine`.
pub fn run_sim(image: &ProgramImage, config: &ExecConfig, hook: &dyn BranchHook) -> RunResult {
    let image = RefImage::new(image);
    Sim::new(&image, config).run(hook)
}

// ---- sim (the parent's `sim.rs` run loops) ----

struct MutexState {
    owner: Option<u32>,
    waiters: Vec<u32>, // FIFO
}

struct BarrierState {
    arrivals: Vec<(u32, u64)>, // (tid, arrival clock)
}

struct Sim<'a> {
    image: &'a RefImage<'a>,
    config: &'a ExecConfig,
    mem: SimMemory,
    monitor: Option<ShardedMonitor>,
    outputs: Vec<Val>,
    total_steps: u64,
    events_sent: u64,
    /// Oversubscription factor in duplicated mode.
    dup_factor: u64,
    telemetry: VmTelemetry,
    branch_events: Vec<BranchEvent>,
}

impl<'a> Sim<'a> {
    fn new(image: &'a RefImage<'a>, config: &'a ExecConfig) -> Self {
        let monitor = match config.monitor {
            // The inline monitor partitions its pending tables across the
            // configured shard count exactly as the real engine's shard
            // workers do, so `--monitor-shards` is observable (and
            // verifiably verdict-neutral) on the deterministic engine too.
            MonitorMode::Enabled => Some(ShardedMonitor::new(
                CheckTable::from_plan(&image.image.plan),
                config.nthreads as usize,
                config.monitor_shards.unwrap_or(1),
            )),
            _ => None,
        };
        // Instruction-level duplication re-executes everything: 2x.
        let dup_factor = match config.exec {
            ExecMode::Normal => 1,
            ExecMode::Duplicated => 2,
        };
        Sim {
            image,
            config,
            mem: SimMemory::new(image.module),
            monitor,
            outputs: Vec::new(),
            total_steps: 0,
            events_sent: 0,
            dup_factor,
            telemetry: VmTelemetry::new(),
            branch_events: Vec::new(),
        }
    }

    fn cost(&self, tid: u32, class: CostClass) -> u64 {
        let m = &MACHINE;
        let n = self.config.nthreads;
        let base = match class {
            CostClass::Free => 0,
            CostClass::Alu => m.alu,
            CostClass::Mul => m.mul,
            CostClass::Div => m.div,
            CostClass::LocalMem => m.mem_local,
            CostClass::Shared(region) => {
                m.shared_access(tid, region, n) + self.determinism_tax()
            }
            CostClass::Atomic(region) => {
                m.shared_access(tid, region, n) + m.atomic + self.determinism_tax()
            }
            CostClass::Call => m.call,
            CostClass::Output => m.output,
        };
        let cycles = base * self.dup_factor;
        self.telemetry.cycles_for(class).add(cycles);
        cycles
    }

    /// The per-shared-access determinism-enforcement cost of duplicated
    /// mode, proportional to the thread count (Section VI's scaling
    /// argument). Note it is inside the ×2 duplication factor: both
    /// replicas pay it.
    fn determinism_tax(&self) -> u64 {
        match self.config.exec {
            ExecMode::Normal => 0,
            ExecMode::Duplicated => MACHINE.dup_tax * u64::from(self.config.nthreads) / 2,
        }
    }

    fn event_cost(&self, tid: u32) -> u64 {
        let m = &MACHINE;
        let cycles = (m.event_build + m.event_push(tid, self.config.nthreads)) * self.dup_factor;
        self.telemetry.cycles_events.add(cycles);
        cycles
    }

    /// Runs a single-threaded phase (init / fini) on thread 0 state.
    fn run_serial(&mut self, func: bw_ir::FuncId, hook: &dyn BranchHook) -> Result<(), RunOutcome> {
        let mut thread = ThreadState::new(0, func, self.image, self.config.seed ^ 0xfeed);
        loop {
            self.total_steps += 1;
            if self.total_steps > self.config.max_steps {
                return Err(RunOutcome::Hung);
            }
            match thread.step(self.image, &self.mem, self.config.nthreads, hook) {
                StepOutcome::Ran { .. } => {}
                // Sync ops are no-ops single-threaded (a barrier with
                // nthreads participants in init would deadlock a real
                // program; our ports never do this).
                StepOutcome::Lock(_) | StepOutcome::Unlock(_) | StepOutcome::Barrier(_) => {}
                StepOutcome::Done => {
                    self.outputs.append(&mut thread.outputs);
                    return Ok(());
                }
                StepOutcome::Trap(k) => return Err(RunOutcome::Crashed(k)),
            }
        }
    }

    fn run(mut self, hook: &dyn BranchHook) -> RunResult {
        // Phase 1: init.
        if let Some(init) = self.image.module.init {
            if let Err(outcome) = self.run_serial(init, hook) {
                return self.finish(outcome, 0, Vec::new(), Vec::new());
            }
        }

        // Phase 2: parallel section.
        let (outcome, parallel_cycles, threads) = self.run_parallel(hook);
        if outcome != RunOutcome::Completed {
            let branches = threads.iter().map(|t| t.dyn_branches).collect();
            let steps = threads.iter().map(|t| t.steps).collect();
            return self.finish(outcome, parallel_cycles, branches, steps);
        }
        let branches: Vec<u64> = threads.iter().map(|t| t.dyn_branches).collect();
        let steps: Vec<u64> = threads.iter().map(|t| t.steps).collect();
        for mut t in threads {
            self.outputs.append(&mut t.outputs);
        }

        // Phase 3: fini.
        if let Some(fini) = self.image.module.fini {
            if let Err(o) = self.run_serial(fini, hook) {
                return self.finish(o, parallel_cycles, branches, steps);
            }
        }

        self.finish(RunOutcome::Completed, parallel_cycles, branches, steps)
    }

    fn finish(
        mut self,
        outcome: RunOutcome,
        parallel_cycles: u64,
        branches_per_thread: Vec<u64>,
        steps_per_thread: Vec<u64>,
    ) -> RunResult {
        let verdict = self.monitor.take().map(|mut m| {
            // The end-of-run flush only happens if the program survived:
            // a crash or hang kills the real monitor thread along with
            // the process, so only eagerly detected violations count.
            if outcome == RunOutcome::Completed {
                m.flush();
            }
            m.into_verdict()
        });
        let (mut violations, mut violation_reports, events_processed, monitor) =
            match verdict {
                Some(v) => (v.violations, v.violation_reports, v.events_processed, Some(v.telemetry)),
                None => (Vec::new(), Vec::new(), 0, None),
            };
        sort_violations(&mut violations, &mut violation_reports);
        RunResult {
            outcome,
            outputs: self.outputs,
            parallel_cycles,
            violations,
            violation_reports,
            total_steps: self.total_steps,
            events_sent: self.events_sent,
            events_processed,
            events_dropped: 0,
            branches_per_thread,
            steps_per_thread,
            engine: EngineKind::Sim,
            cycles: self.telemetry.cycles(),
            monitor,
            branch_events: self.branch_events,
        }
    }

    #[allow(clippy::type_complexity)]
    fn run_parallel(
        &mut self,
        hook: &dyn BranchHook,
    ) -> (RunOutcome, u64, Vec<ThreadState>) {
        let n = self.config.nthreads;
        let Some(entry) = self.image.module.spmd_entry else {
            return (RunOutcome::Completed, 0, Vec::new());
        };

        let mut threads: Vec<ThreadState> =
            (0..n).map(|tid| ThreadState::new(tid, entry, self.image, self.config.seed)).collect();
        let mut clocks = vec![0u64; n as usize];
        let mut blocked = vec![false; n as usize];
        let mut finish_clock = vec![0u64; n as usize];

        let mut mutexes: Vec<MutexState> = (0..self.image.module.num_mutexes)
            .map(|_| MutexState { owner: None, waiters: Vec::new() })
            .collect();
        let mut barriers: Vec<BarrierState> = (0..self.image.module.num_barriers)
            .map(|_| BarrierState { arrivals: Vec::new() })
            .collect();

        let mut heap: BinaryHeap<Reverse<(u64, u32)>> =
            (0..n).map(|tid| Reverse((0u64, tid))).collect();

        while let Some(Reverse((clock, tid))) = heap.pop() {
            let t = tid as usize;
            if threads[t].finished.is_some() || blocked[t] {
                continue; // stale heap entry
            }
            let mut clock = clock.max(clocks[t]);

            let mut requeue = true;
            for _ in 0..self.config.quantum {
                self.total_steps += 1;
                if self.total_steps > self.config.max_steps {
                    clocks[t] = clock;
                    let max_clock = clocks.iter().copied().max().unwrap_or(0);
                    return (RunOutcome::Hung, max_clock, threads);
                }

                let outcome = {
                    let thread = &mut threads[t];
                    thread.step(self.image, &self.mem, n, hook)
                };
                match outcome {
                    StepOutcome::Ran { cost, event } => {
                        clock += self.cost(tid, cost);
                        if let Some(event) = event {
                            if self.config.capture_events {
                                self.branch_events.push(event);
                            }
                            match self.config.monitor {
                                MonitorMode::Enabled => {
                                    clock += self.event_cost(tid);
                                    self.events_sent += 1;
                                    let monitor =
                                        self.monitor.as_mut().expect("enabled monitor exists");
                                    monitor.process(event);
                                }
                                MonitorMode::SendOnly => {
                                    clock += self.event_cost(tid);
                                    self.events_sent += 1;
                                }
                                MonitorMode::Off => {}
                            }
                        }
                    }
                    StepOutcome::Lock(m) => {
                        clock += self.cost(tid, CostClass::Alu) + MACHINE.lock;
                        self.telemetry.cycles_sync.add(MACHINE.lock);
                        let ms = &mut mutexes[m.index()];
                        if ms.owner.is_none() {
                            ms.owner = Some(tid);
                        } else {
                            ms.waiters.push(tid);
                            blocked[t] = true;
                            requeue = false;
                            break;
                        }
                    }
                    StepOutcome::Unlock(m) => {
                        clock += MACHINE.lock;
                        self.telemetry.cycles_sync.add(MACHINE.lock);
                        let ms = &mut mutexes[m.index()];
                        if ms.owner != Some(tid) {
                            // Control flow corrupted into an unlock the
                            // thread does not own: crash, like glibc would.
                            let max_clock = clocks.iter().copied().max().unwrap_or(0);
                            clocks[t] = clock;
                            return (
                                RunOutcome::Crashed(TrapKind::BadUnlock),
                                max_clock.max(clock),
                                threads,
                            );
                        }
                        ms.owner = None;
                        if !ms.waiters.is_empty() {
                            let next = ms.waiters.remove(0);
                            ms.owner = Some(next);
                            let nt = next as usize;
                            clocks[nt] =
                                clocks[nt].max(clock) + MACHINE.lock_handoff;
                            blocked[nt] = false;
                            heap.push(Reverse((clocks[nt], next)));
                        }
                    }
                    StepOutcome::Barrier(b) => {
                        let bs = &mut barriers[b.index()];
                        bs.arrivals.push((tid, clock));
                        // Barriers are sized to the full thread count, like
                        // the pthread barriers in SPLASH-2: if a fault makes
                        // a thread exit early, the remaining threads
                        // deadlock here and the run is classified as hung.
                        if bs.arrivals.len() == n as usize {
                            // Release everyone at the max arrival clock.
                            let release = bs
                                .arrivals
                                .iter()
                                .map(|&(_, c)| c)
                                .max()
                                .expect("nonempty arrivals")
                                + MACHINE.barrier_latency(n);
                            self.telemetry
                                .cycles_sync
                                .add(MACHINE.barrier_latency(n));
                            for &(other, _) in &bs.arrivals {
                                let ot = other as usize;
                                clocks[ot] = release;
                                if other != tid {
                                    blocked[ot] = false;
                                    heap.push(Reverse((release, other)));
                                }
                            }
                            bs.arrivals.clear();
                            clock = release;
                        } else {
                            blocked[t] = true;
                            requeue = false;
                            break;
                        }
                    }
                    StepOutcome::Done => {
                        finish_clock[t] = clock;
                        requeue = false;
                        break;
                    }
                    StepOutcome::Trap(k) => {
                        clocks[t] = clock;
                        let max_clock = clocks.iter().copied().max().unwrap_or(0).max(clock);
                        return (RunOutcome::Crashed(k), max_clock, threads);
                    }
                }
            }

            clocks[t] = clock;
            if requeue {
                heap.push(Reverse((clock, tid)));
            }
        }

        if threads.iter().any(|t| t.finished.is_none()) {
            // Heap empty with unfinished threads: deadlock (e.g. a barrier
            // missing an arrival after a fault diverted control flow).
            let max_clock = clocks.iter().copied().max().unwrap_or(0);
            return (RunOutcome::Hung, max_clock, threads);
        }

        let parallel_cycles = finish_clock.iter().copied().max().unwrap_or(0);
        (RunOutcome::Completed, parallel_cycles, threads)
    }
}


// ---- real (the parent's `real.rs` step accounting, one thread) ----

/// What the parent's real engine did with one SPMD thread and the monitor
/// off: the serial init phase, the worker loop, the serial fini phase.
/// With one thread there is no schedule, so the outcome, the outputs and
/// every step count are a function of the program — including where
/// `max_steps`, which this engine applies per thread and one step late,
/// cuts a run off.
pub struct RealRun {
    pub outcome: RunOutcome,
    pub outputs: Vec<Val>,
    pub total_steps: u64,
    pub steps_per_thread: Vec<u64>,
    pub branches_per_thread: Vec<u64>,
}

pub fn run_real_one_thread(
    image: &ProgramImage,
    config: &ExecConfig,
    hook: &dyn BranchHook,
) -> RealRun {
    assert_eq!(config.nthreads, 1, "the model has no scheduler");
    let image = &RefImage::new(image);
    let mem = AtomicMemory::new(image.module);
    let mut run = RealRun {
        outcome: RunOutcome::Completed,
        outputs: Vec::new(),
        total_steps: 0,
        steps_per_thread: Vec::new(),
        branches_per_thread: Vec::new(),
    };

    // `run_serial_phase`: sync ops are no-ops, outputs kept on success only.
    let serial = |func: FuncId, run: &mut RealRun| {
        let mut t = ThreadState::new(0, func, image, config.seed ^ 0xfeed);
        let result = loop {
            if t.steps > config.max_steps {
                break Err(RunOutcome::Hung);
            }
            match t.step(image, &mem, config.nthreads, hook) {
                StepOutcome::Ran { .. }
                | StepOutcome::Lock(_)
                | StepOutcome::Unlock(_)
                | StepOutcome::Barrier(_) => {}
                StepOutcome::Done => break Ok(()),
                StepOutcome::Trap(k) => break Err(RunOutcome::Crashed(k)),
            }
        };
        run.total_steps += t.steps;
        if result.is_ok() {
            run.outputs.append(&mut t.outputs);
        }
        result
    };

    if let Some(init) = image.module.init {
        if let Err(outcome) = serial(init, &mut run) {
            run.outcome = outcome;
            return run;
        }
    }

    // `worker_loop` for the only thread: a lock is always free, a barrier
    // of one releases at once, an unlock of a mutex not held is a trap.
    if let Some(entry) = image.module.spmd_entry {
        let mut t = ThreadState::new(0, entry, image, config.seed);
        let mut held = vec![false; image.module.num_mutexes as usize];
        loop {
            if t.steps > config.max_steps {
                run.outcome = RunOutcome::Hung;
                break;
            }
            match t.step(image, &mem, config.nthreads, hook) {
                StepOutcome::Ran { .. } | StepOutcome::Barrier(_) => {}
                StepOutcome::Lock(m) => {
                    // A second lock of a held mutex would wait for the
                    // watchdog; no program under test does that.
                    assert!(!held[m.index()], "self-deadlock is outside the model");
                    held[m.index()] = true;
                }
                StepOutcome::Unlock(m) => {
                    if !std::mem::replace(&mut held[m.index()], false) {
                        run.outcome = RunOutcome::Crashed(TrapKind::BadUnlock);
                        break;
                    }
                }
                StepOutcome::Done => break,
                StepOutcome::Trap(k) => {
                    run.outcome = RunOutcome::Crashed(k);
                    break;
                }
            }
        }
        run.total_steps += t.steps;
        run.steps_per_thread.push(t.steps);
        run.branches_per_thread.push(t.dyn_branches);
        if run.outcome == RunOutcome::Completed {
            run.outputs.append(&mut t.outputs);
        }
    } else {
        run.steps_per_thread.push(0);
        run.branches_per_thread.push(0);
    }

    if run.outcome == RunOutcome::Completed {
        if let Some(fini) = image.module.fini {
            if let Err(outcome) = serial(fini, &mut run) {
                run.outcome = outcome;
            }
        }
    }
    run
}
