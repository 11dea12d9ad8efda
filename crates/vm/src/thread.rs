//! Per-thread interpreter state and the single-instruction step function
//! shared by both execution engines.

use bw_ir::{
    BarrierId, BinOp, BlockId, BranchId, CmpOp, FuncId, MutexId, Op, Ptr, Space, UnOp, Val,
    ValueId,
};
use bw_monitor::{BranchEvent, KeyHasher};

use crate::image::ProgramImage;
use crate::memory::{LocalMemory, SharedMemory};
use crate::trap::TrapKind;

/// Maximum call depth before a [`TrapKind::StackOverflow`].
pub const MAX_CALL_DEPTH: usize = 512;

/// A fault action requested by a [`BranchHook`] at a dynamic branch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// Flip the branch outcome (a fault in the flag register): the branch
    /// goes the wrong way but no program data is corrupted.
    FlipOutcome,
    /// Flip `bit` of one of the branch's condition-data values (chosen by
    /// `value_choice % #values`). The corruption persists in the register
    /// and the branch outcome is recomputed from the corrupted data.
    CorruptData {
        /// Index into the branch's condition-data values.
        value_choice: u32,
        /// Bit to flip (0..64).
        bit: u8,
    },
}

/// Hook consulted at every dynamic branch — the integration point for the
/// fault injector (profiling and injection runs).
///
/// One hook serves every thread of a run, and on the real engine those are
/// OS threads consulting it concurrently: hence `&self` and `Sync`.
/// Stateful hooks use interior mutability (atomics).
pub trait BranchHook: Sync {
    /// Called when `tid` is about to execute its `dyn_index`-th dynamic
    /// branch (1-based), which is static branch `branch`. Returning an
    /// action injects a fault.
    fn on_branch(&self, tid: u32, dyn_index: u64, branch: BranchId) -> Option<FaultAction>;
}

/// A no-op hook for fault-free runs.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoHook;

impl BranchHook for NoHook {
    fn on_branch(&self, _: u32, _: u64, _: BranchId) -> Option<FaultAction> {
        None
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

/// A deterministic per-thread PRNG (SplitMix64) backing the `rand` op.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// Seeds the generator.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`; 0 when `bound <= 0`.
    pub fn below(&mut self, bound: i64) -> i64 {
        if bound <= 0 {
            0
        } else {
            (self.next_u64() % bound as u64) as i64
        }
    }
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
    pub fn new(tid: u32, func: FuncId, image: &ProgramImage, seed: u64) -> Self {
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
        image: &ProgramImage,
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
        image: &ProgramImage,
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
    fn transfer(&mut self, image: &ProgramImage, frame_index: usize, from: BlockId, to: BlockId) {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_bounded() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            let x = a.below(10);
            assert_eq!(x, b.below(10));
            assert!((0..10).contains(&x));
        }
        assert_eq!(a.below(0), 0);
        assert_eq!(a.below(-5), 0);
    }

    #[test]
    fn eval_bin_int_semantics() {
        assert_eq!(eval_bin(BinOp::Add, Val::I64(2), Val::I64(3)), Ok(Val::I64(5)));
        assert_eq!(eval_bin(BinOp::Div, Val::I64(7), Val::I64(2)), Ok(Val::I64(3)));
        assert_eq!(eval_bin(BinOp::Div, Val::I64(7), Val::I64(0)), Err(TrapKind::DivideByZero));
        assert_eq!(
            eval_bin(BinOp::Add, Val::I64(i64::MAX), Val::I64(1)),
            Ok(Val::I64(i64::MIN))
        );
        assert_eq!(eval_bin(BinOp::Min, Val::I64(3), Val::I64(-2)), Ok(Val::I64(-2)));
    }

    #[test]
    fn eval_bin_float_never_traps_on_div() {
        let v = eval_bin(BinOp::Div, Val::F64(1.0), Val::F64(0.0)).unwrap();
        assert_eq!(v, Val::F64(f64::INFINITY));
    }

    #[test]
    fn eval_bin_type_mismatch() {
        assert_eq!(
            eval_bin(BinOp::Add, Val::I64(1), Val::F64(1.0)),
            Err(TrapKind::TypeError)
        );
        assert_eq!(
            eval_bin(BinOp::Shl, Val::Bool(true), Val::Bool(false)),
            Err(TrapKind::TypeError)
        );
    }

    #[test]
    fn eval_cmp_nan_semantics() {
        assert_eq!(eval_cmp(CmpOp::Eq, Val::F64(f64::NAN), Val::F64(1.0)), Ok(false));
        assert_eq!(eval_cmp(CmpOp::Ne, Val::F64(f64::NAN), Val::F64(1.0)), Ok(true));
        assert_eq!(eval_cmp(CmpOp::Lt, Val::F64(f64::NAN), Val::F64(1.0)), Ok(false));
    }

    #[test]
    fn eval_un_conversions() {
        assert_eq!(eval_un(UnOp::IntToFloat, Val::I64(3)), Ok(Val::F64(3.0)));
        assert_eq!(eval_un(UnOp::FloatToInt, Val::F64(3.9)), Ok(Val::I64(3)));
        assert_eq!(eval_un(UnOp::Sqrt, Val::F64(9.0)), Ok(Val::F64(3.0)));
        assert_eq!(eval_un(UnOp::Not, Val::Bool(true)), Ok(Val::Bool(false)));
        assert_eq!(eval_un(UnOp::Sqrt, Val::I64(9)), Err(TrapKind::TypeError));
    }
}
