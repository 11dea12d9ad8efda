//! Per-thread interpreter state and the run-to-yield stepper shared by
//! both execution engines.
//!
//! [`ThreadState::run`] executes decoded instructions
//! ([`crate::image::Inst`]) until the thread needs its scheduler — a lock,
//! an unlock, a barrier, the end of the thread, a trap — or until the step
//! budget it was given runs out.
//!
//! **What counts as a step.** Every IR instruction is one step, and a phi
//! is one `Free` step: a control transfer evaluates the target block's
//! phis (the edge's copies, put in order at link time) as part of the
//! `br`/`jump` step, and the thread then owes one zero-cost step per phi
//! before the block's first real instruction. Owed steps are consumed in
//! O(1), but they are ordinary steps to every counter: they fill a budget,
//! can straddle two calls of `run`, and count in [`ThreadState::steps`].

use bw_ir::{BarrierId, BinOp, BranchId, CmpOp, FuncId, MutexId, Space, UnOp, Val, ValueId};
use bw_monitor::{BranchEvent, KeyHasher};

use crate::image::{CallSite, Edge, Inst, PhiCopy, ProgramImage, NONE};
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
/// One hook serves every thread of a run. Only the simulator runs hooked
/// ([`SimEngine::run_hooked`](crate::SimEngine::run_hooked)), and it
/// interleaves its threads on one OS thread, so a stateful hook needs
/// interior mutability (a `Cell`) but no synchronization.
pub trait BranchHook {
    /// Called when `tid` is about to execute its `dyn_index`-th dynamic
    /// branch (1-based), which is static branch `branch`. Returning an
    /// action injects a fault.
    fn on_branch(&self, tid: u32, dyn_index: u64, branch: BranchId) -> Option<FaultAction>;

    /// Asked right after a [`FaultAction::CorruptData`] that left `branch`
    /// going the way it went anyway (`taken`), about the condition-data
    /// `value` it corrupted: whether, once the branch has gone that way,
    /// nothing reads the value before it is redefined — no instruction, no
    /// phi of an edge, no witness of a later branch. Then the fault changes
    /// nothing more, and a fork of a [`SimPrefix`](crate::SimPrefix) ends
    /// there ([`Fork::Stopped`](crate::Fork::Stopped)); every other run goes
    /// on. Provided: `false`, the answer that is never wrong.
    fn dead_after(&self, branch: BranchId, value: ValueId, taken: bool) -> bool {
        let _ = (branch, value, taken);
        false
    }
}

/// A no-op hook for fault-free runs.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoHook;

impl BranchHook for NoHook {
    fn on_branch(&self, _: u32, _: u64, _: BranchId) -> Option<FaultAction> {
        None
    }
}

/// Cost classification of an executed instruction; the simulator
/// translates it into cycles with the machine model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum CostClass {
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
}

/// What an engine does with the instructions a thread executes.
pub(crate) trait Sink {
    /// One instruction of class `class` completed. Zero-cost instructions
    /// (constants, `threadid`, phi steps) are not reported.
    fn charge(&mut self, class: CostClass);
    /// Whether the sink takes monitor events at all. When it does not, the
    /// stepper builds none: it hashes no witness and no instance key, and
    /// never calls [`Sink::event`].
    fn wants_events(&self) -> bool;
    /// An instrumented branch executed; called after the branch's own
    /// [`Sink::charge`].
    fn event(&mut self, event: BranchEvent);
}

/// The sink of the serial phases (init / fini): nothing is charged and
/// nothing is sent.
pub(crate) struct NoSink;

impl Sink for NoSink {
    fn charge(&mut self, _: CostClass) {}
    fn wants_events(&self) -> bool {
        false
    }
    fn event(&mut self, _: BranchEvent) {}
}

/// Why [`ThreadState::run`] returned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Yield {
    /// The step budget is used up.
    Budget,
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
    /// The thread executed a branch whose injected condition-data fault
    /// changed nothing the rest of the run reads
    /// ([`BranchHook::dead_after`]); it can be resumed as after
    /// [`Yield::Budget`].
    Invisible,
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
        Self::mix(self.0)
    }

    /// The generator's output finalizer, for keying derived streams.
    pub fn mix(mut z: u64) -> u64 {
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

/// One activation record: where the function's registers and loop
/// counters start on the thread's two stacks, and where it resumes.
#[derive(Clone, Copy, Debug)]
struct Frame {
    /// Next instruction (valid while the frame is suspended); pcs are
    /// module-wide, so this names the function too.
    pc: u32,
    /// Caller register to receive the return value ([`NONE`] if unused).
    ret_dst: u32,
    /// Start of the frame's register window in [`ThreadState::regs`].
    reg_base: usize,
    /// Start of the frame's loop counters in [`ThreadState::loops`].
    loop_base: usize,
    /// Call-path hash for this frame (level-1 runtime key).
    path_hash: u64,
}

/// The full interpreter state of one thread.
#[derive(Clone)]
pub(crate) struct ThreadState {
    /// Thread id in `0..nthreads`.
    pub tid: u32,
    /// Activation stack; the last frame is the running one.
    frames: Vec<Frame>,
    /// Register windows of all live frames, innermost last (a window is
    /// indexed by `ValueId`, plus one scratch register).
    regs: Vec<Val>,
    /// `(loop, iteration)` of the loops containing each live frame's
    /// program point, outermost first, innermost frame last.
    loops: Vec<(u32, u64)>,
    /// Phi steps the last transfer left to take (see the module docs).
    phi_owed: u64,
    /// Thread-local memory.
    local: LocalMemory,
    /// Values emitted by `output`.
    pub outputs: Vec<Val>,
    /// Deterministic PRNG for the `rand` op.
    rng: SplitMix64,
    /// Number of barriers passed (part of the instance key).
    barrier_epoch: u64,
    /// Dynamic branches executed so far.
    pub dyn_branches: u64,
    /// Set when the thread finished or trapped.
    pub finished: Option<Result<(), TrapKind>>,
    /// Instructions executed, phi steps included.
    pub steps: u64,
}

/// The word a loop-stack entry contributes to instance-key hashes.
fn loop_key((loop_id, iteration): (u32, u64)) -> u64 {
    u64::from(loop_id) << 32 | (iteration & 0xffff_ffff)
}

impl ThreadState {
    /// Creates a thread poised to execute `func` (no arguments).
    pub fn new(tid: u32, func: FuncId, image: &ProgramImage, seed: u64) -> Self {
        let entry = image.code.funcs[func.index()];
        let root = Frame {
            pc: entry.pc,
            ret_dst: NONE,
            reg_base: 0,
            loop_base: 0,
            // The root path hash must be identical in every thread: the
            // call-site path is a *cross-thread* correlation key.
            path_hash: KeyHasher::new().with(0x5bd1_e995).finish(),
        };
        ThreadState {
            tid,
            frames: vec![root],
            regs: vec![Val::I64(0); entry.nregs as usize],
            loops: Vec::new(),
            phi_owed: u64::from(entry.phi_steps),
            local: LocalMemory::new(),
            outputs: Vec::new(),
            rng: SplitMix64::new(seed ^ (u64::from(tid) << 32) ^ 0x1234_5678_9abc_def0),
            barrier_epoch: 0,
            dyn_branches: 0,
            finished: None,
            steps: 0,
        }
    }

    /// Executes up to `budget` steps and says why it stopped. `nthreads`
    /// is the SPMD width (for the `numthreads` op); `mem` is the shared
    /// memory; `hook` may inject faults at branches; `sink` is told of
    /// every costed instruction and every monitor event.
    ///
    /// A sync instruction (`lock`, `unlock`, `barrier`) is executed — and
    /// counted — before the matching [`Yield`] is returned; the next call
    /// resumes after it.
    pub fn run<M: SharedMemory, S: Sink>(
        &mut self,
        image: &ProgramImage,
        mem: &M,
        nthreads: u32,
        hook: &dyn BranchHook,
        budget: u64,
        sink: &mut S,
    ) -> Yield {
        debug_assert!(self.finished.is_none(), "running a finished thread");
        let code = &image.code;
        let mut left = budget;
        let yielded = 'frame: loop {
            // Phi steps owed since the last transfer or call: as many as
            // the budget allows now, the rest on the next call.
            let owed = self.phi_owed.min(left);
            self.phi_owed -= owed;
            left -= owed;

            let frame = *self.frames.last().expect("a live thread has a frame");
            let regs = &mut self.regs[frame.reg_base..];
            let mut pc = frame.pc as usize;

            macro_rules! suspend {
                ($why:expr) => {{
                    self.frames.last_mut().expect("a live thread has a frame").pc = pc as u32;
                    break 'frame $why;
                }};
            }
            macro_rules! trap {
                ($kind:expr) => {{
                    let kind = $kind;
                    self.finished = Some(Err(kind));
                    break 'frame Yield::Trap(kind);
                }};
            }
            macro_rules! bin {
                ($op:expr, $r:expr, $cost:expr) => {{
                    match eval_bin($op, regs[$r.a as usize], regs[$r.b as usize]) {
                        Ok(v) => regs[$r.dst as usize] = v,
                        Err(k) => trap!(k),
                    }
                    sink.charge($cost);
                }};
            }
            macro_rules! cmp {
                ($op:expr, $r:expr) => {{
                    match eval_cmp($op, regs[$r.a as usize], regs[$r.b as usize]) {
                        Ok(v) => regs[$r.dst as usize] = Val::Bool(v),
                        Err(k) => trap!(k),
                    }
                    sink.charge(CostClass::Alu);
                }};
            }
            macro_rules! un {
                ($op:expr, $r:expr) => {{
                    match eval_un($op, regs[$r.a as usize]) {
                        Ok(v) => regs[$r.dst as usize] = v,
                        Err(k) => trap!(k),
                    }
                    sink.charge(CostClass::Alu);
                }};
            }
            // Takes a CFG edge; the phi steps it leaves are owed from the
            // rest of this budget first.
            macro_rules! take {
                ($edge:expr) => {{
                    let edge = &code.edges[$edge as usize];
                    transfer(edge, &code.copies, regs);
                    adjust_loops(edge, &mut self.loops, frame.loop_base);
                    pc = edge.pc as usize;
                    let phis = u64::from(edge.phi_steps);
                    let now = phis.min(left);
                    left -= now;
                    self.phi_owed = phis - now;
                }};
            }

            loop {
                if left == 0 {
                    suspend!(Yield::Budget);
                }
                left -= 1;
                let inst = code.insts[pc];
                pc += 1;
                match inst {
                    Inst::Const { dst, idx } => regs[dst as usize] = code.consts[idx as usize],
                    Inst::Add(r) => bin!(BinOp::Add, r, CostClass::Alu),
                    Inst::Sub(r) => bin!(BinOp::Sub, r, CostClass::Alu),
                    Inst::Mul(r) => bin!(BinOp::Mul, r, CostClass::Mul),
                    Inst::Div(r) => bin!(BinOp::Div, r, CostClass::Div),
                    Inst::Rem(r) => bin!(BinOp::Rem, r, CostClass::Div),
                    Inst::And(r) => bin!(BinOp::And, r, CostClass::Alu),
                    Inst::Or(r) => bin!(BinOp::Or, r, CostClass::Alu),
                    Inst::Xor(r) => bin!(BinOp::Xor, r, CostClass::Alu),
                    Inst::Shl(r) => bin!(BinOp::Shl, r, CostClass::Alu),
                    Inst::Shr(r) => bin!(BinOp::Shr, r, CostClass::Alu),
                    Inst::Min(r) => bin!(BinOp::Min, r, CostClass::Alu),
                    Inst::Max(r) => bin!(BinOp::Max, r, CostClass::Alu),
                    Inst::CmpEq(r) => cmp!(CmpOp::Eq, r),
                    Inst::CmpNe(r) => cmp!(CmpOp::Ne, r),
                    Inst::CmpLt(r) => cmp!(CmpOp::Lt, r),
                    Inst::CmpLe(r) => cmp!(CmpOp::Le, r),
                    Inst::CmpGt(r) => cmp!(CmpOp::Gt, r),
                    Inst::CmpGe(r) => cmp!(CmpOp::Ge, r),
                    Inst::Neg(r) => un!(UnOp::Neg, r),
                    Inst::Not(r) => un!(UnOp::Not, r),
                    Inst::IntToFloat(r) => un!(UnOp::IntToFloat, r),
                    Inst::FloatToInt(r) => un!(UnOp::FloatToInt, r),
                    Inst::Sqrt(r) => un!(UnOp::Sqrt, r),
                    Inst::Abs(r) => un!(UnOp::Abs, r),
                    Inst::Gep(r) => {
                        let Some(p) = regs[r.a as usize].as_ptr() else { trap!(TrapKind::TypeError) };
                        let Some(off) = regs[r.b as usize].as_i64() else {
                            trap!(TrapKind::TypeError)
                        };
                        regs[r.dst as usize] = Val::Ptr(p.offset_by(off));
                        sink.charge(CostClass::Alu);
                    }
                    Inst::Load(r) => {
                        let Some(p) = regs[r.a as usize].as_ptr() else { trap!(TrapKind::TypeError) };
                        // Straight into the register: a `Result<Val, _>` in
                        // between is spilled and reloaded piecewise, a
                        // store-forwarding stall on every load.
                        let dst = &mut regs[r.dst as usize];
                        let (loaded, cost) = match p.space {
                            Space::Shared => (mem.load_to(p, dst), CostClass::Shared(p.region)),
                            Space::Local => (self.local.load_to(p, dst), CostClass::LocalMem),
                        };
                        if let Err(k) = loaded {
                            trap!(k);
                        }
                        sink.charge(cost);
                    }
                    Inst::Store { addr, value } => {
                        let Some(p) = regs[addr as usize].as_ptr() else { trap!(TrapKind::TypeError) };
                        let v = regs[value as usize];
                        let (stored, cost) = match p.space {
                            Space::Shared => (mem.store(p, v), CostClass::Shared(p.region)),
                            Space::Local => (self.local.store(p, v), CostClass::LocalMem),
                        };
                        if let Err(k) = stored {
                            trap!(k);
                        }
                        sink.charge(cost);
                    }
                    Inst::Alloca(r) => {
                        let Some(n) = regs[r.a as usize].as_i64() else { trap!(TrapKind::TypeError) };
                        match self.local.alloca(n) {
                            Ok(p) => regs[r.dst as usize] = Val::Ptr(p),
                            Err(k) => trap!(k),
                        }
                        sink.charge(CostClass::LocalMem);
                    }
                    Inst::ThreadId { dst } => regs[dst as usize] = Val::I64(i64::from(self.tid)),
                    Inst::NumThreads { dst } => regs[dst as usize] = Val::I64(i64::from(nthreads)),
                    Inst::FetchAdd { dst, global, delta } => {
                        let Some(d) = regs[delta as usize].as_i64() else { trap!(TrapKind::TypeError) };
                        match mem.fetch_add(global, d) {
                            Ok(old) => regs[dst as usize] = Val::I64(old),
                            Err(k) => trap!(k),
                        }
                        sink.charge(CostClass::Atomic(global));
                    }
                    Inst::Rand(r) => {
                        let Some(b) = regs[r.a as usize].as_i64() else { trap!(TrapKind::TypeError) };
                        regs[r.dst as usize] = Val::I64(self.rng.below(b));
                        sink.charge(CostClass::Mul);
                    }
                    Inst::Output { src } => {
                        self.outputs.push(regs[src as usize]);
                        sink.charge(CostClass::Output);
                    }
                    Inst::Lock { mutex } => suspend!(Yield::Lock(MutexId(mutex))),
                    Inst::Unlock { mutex } => suspend!(Yield::Unlock(MutexId(mutex))),
                    Inst::Barrier { barrier } => {
                        self.barrier_epoch += 1;
                        suspend!(Yield::Barrier(BarrierId(barrier)));
                    }
                    Inst::Call { call } => {
                        if self.frames.len() >= MAX_CALL_DEPTH {
                            trap!(TrapKind::StackOverflow);
                        }
                        let site = code.calls[call as usize];
                        self.push_frame(image, site, site.target, pc);
                        sink.charge(CostClass::Call);
                        continue 'frame;
                    }
                    Inst::CallIndirect { call } => {
                        if self.frames.len() >= MAX_CALL_DEPTH {
                            trap!(TrapKind::StackOverflow);
                        }
                        let site = code.calls[call as usize];
                        let Some(sel) = regs[site.selector as usize].as_i64() else {
                            trap!(TrapKind::TypeError)
                        };
                        let funcs = &image.module.tables[site.target as usize].funcs;
                        if sel < 0 || sel as usize >= funcs.len() {
                            trap!(TrapKind::BadIndirectCall);
                        }
                        self.push_frame(image, site, funcs[sel as usize].0, pc);
                        sink.charge(CostClass::Call);
                        continue 'frame;
                    }
                    Inst::Br { cond, branch, edge } => {
                        let Some(mut outcome) = regs[cond as usize].as_bool() else {
                            trap!(TrapKind::TypeError)
                        };
                        self.dyn_branches += 1;
                        let runtime = &image.branches[branch as usize];

                        // The witness is captured *before* the branch executes, as
                        // the paper's `sendBranchCondition` call precedes the branch
                        // instruction PIN injects into. A condition-data fault at
                        // the branch therefore sends the clean witness but takes
                        // the corrupted direction — which is exactly what makes it
                        // detectable as a within-group direction mismatch.
                        let witnesses =
                            runtime.witnesses.as_ref().filter(|_| sink.wants_events());
                        let witness = witnesses.map(|witnesses| {
                            let mut wh = KeyHasher::new();
                            for &w in witnesses {
                                wh.write(regs[w as usize].bits());
                            }
                            wh.finish()
                        });

                        // Fault injection hook (the fault strikes at the branch).
                        let mut invisible = false;
                        if let Some(action) =
                            hook.on_branch(self.tid, self.dyn_branches, BranchId(branch))
                        {
                            match action {
                                FaultAction::FlipOutcome => outcome = !outcome,
                                FaultAction::CorruptData { value_choice, bit } => {
                                    let targets = &runtime.cond_info.data_values;
                                    let target = targets[value_choice as usize % targets.len()];
                                    let old = regs[target.index()];
                                    regs[target.index()] =
                                        Val::from_bits(old.ty(), old.bits() ^ (1u64 << (bit % 64)));
                                    let kept = outcome;
                                    outcome =
                                        recompute_outcome(&runtime.cond_info, regs, ValueId(cond));
                                    invisible = outcome == kept
                                        && hook.dead_after(BranchId(branch), target, outcome);
                                }
                            }
                        }

                        // The instance key describes the loop iteration the
                        // branch executes in, so it is taken before the edge.
                        let event = witness.map(|witness| {
                            let mut ih = KeyHasher::new();
                            for &entry in &self.loops[frame.loop_base..] {
                                ih.write(loop_key(entry));
                            }
                            ih.write(self.barrier_epoch);
                            BranchEvent {
                                branch,
                                thread: self.tid,
                                site: frame.path_hash,
                                iter: ih.finish(),
                                witness,
                                taken: outcome,
                            }
                        });

                        take!(edge + u32::from(!outcome));
                        sink.charge(CostClass::Alu);
                        if let Some(event) = event {
                            sink.event(event);
                        }
                        if invisible {
                            suspend!(Yield::Invisible);
                        }
                    }
                    Inst::Jump { edge } => {
                        take!(edge);
                        sink.charge(CostClass::Alu);
                    }
                    Inst::Ret { src } => {
                        let value = (src != NONE).then(|| regs[src as usize]);
                        let done = self.frames.pop().expect("a live thread has a frame");
                        let Some(caller) = self.frames.last() else {
                            self.finished = Some(Ok(()));
                            break 'frame Yield::Done;
                        };
                        self.regs.truncate(done.reg_base);
                        self.loops.truncate(done.loop_base);
                        if let (true, Some(value)) = (done.ret_dst != NONE, value) {
                            self.regs[caller.reg_base + done.ret_dst as usize] = value;
                        }
                        sink.charge(CostClass::Call);
                        continue 'frame;
                    }
                    Inst::Trap => trap!(TrapKind::Explicit),
                }
            }
        };
        self.steps += budget - left;
        yielded
    }

    /// Suspends the running frame at `resume_pc` and enters `callee` with
    /// the arguments of `site`, read from the caller's window.
    fn push_frame(&mut self, image: &ProgramImage, site: CallSite, callee: u32, resume_pc: usize) {
        let caller = self.frames.last_mut().expect("call from a frame");
        caller.pc = resume_pc as u32;
        let caller = *caller;

        // The callee's instance keys must distinguish caller loop
        // iterations and call sites: fold both into the child path hash.
        let mut h = KeyHasher::new().with(caller.path_hash).with(u64::from(site.site));
        for &entry in &self.loops[caller.loop_base..] {
            h.write(loop_key(entry));
        }

        let entry = image.code.funcs[callee as usize];
        let reg_base = self.regs.len();
        self.regs.resize(reg_base + entry.nregs as usize, Val::I64(0));
        let args = &image.code.args[site.args_start as usize..site.args_end as usize];
        for (param, &arg) in args.iter().enumerate() {
            self.regs[reg_base + param] = self.regs[caller.reg_base + arg as usize];
        }
        self.frames.push(Frame {
            pc: entry.pc,
            ret_dst: site.dst,
            reg_base,
            loop_base: self.loops.len(),
            path_hash: h.finish(),
        });
        self.phi_owed = u64::from(entry.phi_steps);
    }
}

/// Evaluates the phis an edge feeds. The link stage put the copies in an
/// order in which making them one by one is making them all at once.
fn transfer(edge: &Edge, copies: &[PhiCopy], regs: &mut [Val]) {
    for c in &copies[edge.copy_start as usize..edge.copy_end as usize] {
        regs[c.dst as usize] = regs[c.src as usize];
    }
}

/// Loop-iteration bookkeeping of an edge, on the running frame's part of
/// the loop stack (`loops[floor..]`).
fn adjust_loops(edge: &Edge, loops: &mut Vec<(u32, u64)>, floor: usize) {
    // `pops` assumes the stack holds the source block's whole loop chain;
    // see `image::decode` for the one case where its first entry is missing.
    let kept = loops.len() - (edge.pops as usize).min(loops.len() - floor);
    loops.truncate(kept);
    if edge.header != NONE {
        match loops[floor..].last_mut() {
            Some((top, iteration)) if *top == edge.header => *iteration += 1, // back edge
            _ => loops.push((edge.header, 0)),                                // loop entry
        }
    }
}

#[inline(always)]
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

#[inline(always)]
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

#[inline(always)]
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
    use crate::memory::SimMemory;

    /// A sink that counts events if it wants them and panics on one if it
    /// does not.
    struct Events {
        wanted: bool,
        seen: u64,
    }

    impl Sink for Events {
        fn charge(&mut self, _: CostClass) {}
        fn wants_events(&self) -> bool {
            self.wanted
        }
        fn event(&mut self, _: BranchEvent) {
            assert!(self.wanted, "an event sent to a sink that wants none");
            self.seen += 1;
        }
    }

    /// Runs thread 1 of a program with instrumented branches to its end;
    /// returns the sink and the thread's dynamic branches.
    fn run_to_end(wanted: bool) -> (Events, u64) {
        let image = ProgramImage::prepare_default(
            bw_ir::frontend::compile(
                r#"
                shared int n = 40;
                int data[64];
                @spmd func f() {
                    var t: int = threadid();
                    for (var i: int = 0; i < n; i = i + 1) {
                        if (i % 3 == 0) { data[t] = data[t] + i; }
                    }
                    if (t == 1) { output(data[t]); }
                }
                "#,
            )
            .expect("compiles"),
        );
        let entry = image.module.spmd_entry.expect("an spmd entry");
        let mem = SimMemory::new(&image.module);
        let mut thread = ThreadState::new(1, entry, &image, 7);
        let mut sink = Events { wanted, seen: 0 };
        let yielded = thread.run(&image, &mem, 4, &NoHook, 1 << 20, &mut sink);
        assert_eq!(yielded, Yield::Done);
        (sink, thread.dyn_branches)
    }

    #[test]
    fn a_sink_that_wants_no_events_is_sent_none() {
        let (wanting, branches) = run_to_end(true);
        assert!(wanting.seen > 40, "{} events", wanting.seen);
        let (refusing, same) = run_to_end(false);
        assert_eq!(refusing.seen, 0);
        assert_eq!(same, branches, "the branches are taken all the same");
    }

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
