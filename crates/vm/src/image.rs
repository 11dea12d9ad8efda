//! Preprocessed program image: everything the interpreter needs per
//! instruction, resolved once before execution.
//!
//! The link stage decodes the module into one [`Code`]: per function a flat
//! run of fixed-size [`Inst`]s (register-index operands, the opcode
//! already specialised by `BinOp`/`CmpOp`/`UnOp`, `GlobalAddr` folded to a
//! constant pointer, the [`BranchId`] of every `br` resolved) and one
//! [`Edge`] record per CFG edge. An edge knows all that taking it involves:
//! the target pc, the parallel copies that evaluate the target's phis, how
//! many phi steps the thread owes afterwards, and what happens to the
//! loop-iteration stack. Phis therefore do not appear in the instruction
//! stream at all; they survive as copies and as a step count.

use bw_analysis::{AnalysisConfig, CheckPlan, ConditionInfo, ModuleAnalysis};
use bw_ir::{
    BinOp, BlockId, BranchId, CmpOp, Function, LoopForest, Module, Op, Ptr,
    UnOp, Val, ValueId, VerifyError,
};

/// "No register" / "no loop" in the decoded form's `u32` fields.
pub(crate) const NONE: u32 = u32::MAX;

/// `dst = a <op> b` operands, as indices into the frame's register window.
#[derive(Clone, Copy, Debug)]
pub(crate) struct R3 {
    pub dst: u32,
    pub a: u32,
    pub b: u32,
}

/// `dst = <op> a` operands.
#[derive(Clone, Copy, Debug)]
pub(crate) struct R2 {
    pub dst: u32,
    pub a: u32,
}

/// One decoded instruction (16 bytes). Every variant is one interpreter
/// step; an instruction without a result writes the frame's scratch
/// register (the one past the function's last SSA value).
#[derive(Clone, Copy, Debug)]
pub(crate) enum Inst {
    /// `dst = consts[idx]` (`const` and `global_addr`).
    Const { dst: u32, idx: u32 },
    Add(R3),
    Sub(R3),
    Mul(R3),
    Div(R3),
    Rem(R3),
    And(R3),
    Or(R3),
    Xor(R3),
    Shl(R3),
    Shr(R3),
    Min(R3),
    Max(R3),
    CmpEq(R3),
    CmpNe(R3),
    CmpLt(R3),
    CmpLe(R3),
    CmpGt(R3),
    CmpGe(R3),
    Neg(R2),
    Not(R2),
    IntToFloat(R2),
    FloatToInt(R2),
    Sqrt(R2),
    Abs(R2),
    /// `dst = a displaced by b words`.
    Gep(R3),
    Load(R2),
    Store { addr: u32, value: u32 },
    /// `dst = alloca(a words)`.
    Alloca(R2),
    ThreadId { dst: u32 },
    NumThreads { dst: u32 },
    FetchAdd { dst: u32, global: u32, delta: u32 },
    /// `dst = rand(a)`.
    Rand(R2),
    Output { src: u32 },
    Lock { mutex: u32 },
    Unlock { mutex: u32 },
    Barrier { barrier: u32 },
    /// Direct call described by `calls[call]`.
    Call { call: u32 },
    /// Table-indirect call described by `calls[call]`.
    CallIndirect { call: u32 },
    /// Conditional branch `branch`: `edges[edge]` when taken,
    /// `edges[edge + 1]` otherwise.
    Br { cond: u32, branch: u32, edge: u32 },
    Jump { edge: u32 },
    /// Return `src` ([`NONE`] for a void return).
    Ret { src: u32 },
    Trap,
}

/// What taking one CFG edge does.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Edge {
    /// pc of the target block's first non-phi instruction.
    pub pc: u32,
    /// Number of phis at the head of the target block: the steps the
    /// thread owes after the transfer (a phi is one `Free` step).
    pub phi_steps: u32,
    /// The target's phis as `copies[copy_start..copy_end]`, evaluated in
    /// parallel: all sources are read before any destination is written.
    pub copy_start: u32,
    pub copy_end: u32,
    /// Loops the edge leaves: entries popped off the frame's loop stack.
    pub pops: u32,
    /// The loop the target block heads ([`NONE`] if none): its iteration
    /// counter is bumped when it is on top of the stack (a back edge) and
    /// pushed at zero otherwise (loop entry).
    pub header: u32,
}

/// One phi evaluated on an edge: `regs[dst] = regs[src]`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct PhiCopy {
    pub dst: u32,
    pub src: u32,
}

/// A decoded call instruction.
#[derive(Clone, Copy, Debug)]
pub(crate) struct CallSite {
    /// Callee function (direct) or function table (indirect).
    pub target: u32,
    /// Selector register of an indirect call.
    pub selector: u32,
    /// Argument registers: `args[args_start..args_end]`.
    pub args_start: u32,
    pub args_end: u32,
    /// Static call-site id folded into the callee's path hash.
    pub site: u32,
    /// Caller register receiving the return value ([`NONE`] if unused).
    pub dst: u32,
}

/// The whole module, decoded: every function's instructions, edges and
/// operand pools laid end to end, so a pc or an edge index names its
/// function by itself.
#[derive(Debug, Default)]
pub(crate) struct Code {
    pub insts: Vec<Inst>,
    pub edges: Vec<Edge>,
    pub copies: Vec<PhiCopy>,
    pub consts: Vec<Val>,
    pub calls: Vec<CallSite>,
    pub args: Vec<u32>,
    /// Where each function starts, indexed by `FuncId`.
    pub funcs: Vec<FuncEntry>,
}

/// What a call needs to know of its callee.
#[derive(Clone, Copy, Debug)]
pub(crate) struct FuncEntry {
    /// Where a call lands: the entry block's first non-phi instruction…
    pub pc: u32,
    /// …after stepping over this many entry-block phis (which no edge
    /// evaluates, so they keep the zero their register was born with).
    pub phi_steps: u32,
    /// Size of a frame's register window: one register per SSA value plus
    /// the scratch register.
    pub nregs: u32,
}

/// Per-branch runtime info.
#[derive(Debug)]
pub(crate) struct BranchRuntime {
    /// Witness values to hash and send, when the branch is instrumented.
    pub witnesses: Option<Vec<ValueId>>,
    /// Condition structure used by fault injection (the branch's
    /// "condition data" and how to recompute the outcome after corrupting
    /// it).
    pub cond_info: ConditionInfo,
}

/// Wall-clock microseconds spent in each preparation stage, reported by
/// [`ProgramImage::try_prepare_timed`]. Timings are host wall-clock and
/// therefore excluded from the telemetry determinism contract.
#[derive(Debug, Clone, Copy, Default)]
pub struct PrepareTimings {
    /// IR verification, which also builds every function's CFG,
    /// dominator tree and loop forest.
    pub verify_us: u64,
    /// Similarity analysis ([`ModuleAnalysis::run`]).
    pub analyze_us: u64,
    /// Instrumentation planning ([`CheckPlan::build`]).
    pub instrument_us: u64,
    /// Linking: decoding every function, branch tables.
    pub link_us: u64,
}

/// Why [`ProgramImage::try_prepare`] refused a module.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PrepareError {
    /// The module is not well-formed SSA.
    Verify(VerifyError),
    /// The module verifies, but its similarity analysis had not settled
    /// after this many whole-module iterations: no categories to instrument
    /// from.
    NoFixpoint {
        /// Iterations executed before giving up.
        iterations: usize,
    },
}

impl std::fmt::Display for PrepareError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PrepareError::Verify(e) => write!(f, "verifier rejected module: {e}"),
            PrepareError::NoFixpoint { iterations } => {
                write!(f, "similarity fixpoint failed to converge in {iterations} iterations")
            }
        }
    }
}

impl std::error::Error for PrepareError {}

/// A fully analyzed, instrumented program ready to execute.
#[derive(Debug)]
pub struct ProgramImage {
    /// The IR module.
    pub module: Module,
    /// Similarity analysis results.
    pub analysis: ModuleAnalysis,
    /// Instrumentation plan. Replace it with
    /// [`ProgramImage::replace_plan`], which re-links what the interpreter
    /// reads from it.
    pub plan: CheckPlan,
    /// The decoded module.
    pub(crate) code: Code,
    /// Per-branch runtime info, indexed by [`BranchId`].
    pub(crate) branches: Vec<BranchRuntime>,
}

impl ProgramImage {
    /// Analyzes and instruments `module` with `config`.
    ///
    /// The module must pass [`bw_ir::verify_module`]; the front-end
    /// guarantees this for compiled sources.
    ///
    /// # Panics
    ///
    /// Panics if [`ProgramImage::try_prepare`], the fallible variant,
    /// would return an error (modules from the builder or front-end verify).
    pub fn prepare(module: Module, config: AnalysisConfig) -> ProgramImage {
        Self::try_prepare(module, config).expect("module must prepare before execution")
    }

    /// Analyzes and instruments `module` with `config`.
    ///
    /// # Errors
    ///
    /// Returns the verifier's error when the module is malformed, and
    /// [`PrepareError::NoFixpoint`] when its similarity analysis does not
    /// converge.
    pub fn try_prepare(module: Module, config: AnalysisConfig) -> Result<ProgramImage, PrepareError> {
        Self::try_prepare_timed(module, config).map(|(image, _)| image)
    }

    /// Like [`ProgramImage::try_prepare`], but also reports how long each
    /// preparation stage took (wall-clock; for telemetry, not for any
    /// deterministic comparison).
    pub fn try_prepare_timed(
        module: Module,
        config: AnalysisConfig,
    ) -> Result<(ProgramImage, PrepareTimings), PrepareError> {
        let mut timings = PrepareTimings::default();
        let t0 = std::time::Instant::now();
        // The verifier builds every function's control-flow facts; the
        // analysis and the decoder read the same ones.
        let facts = bw_ir::verify_module_facts(&module).map_err(PrepareError::Verify)?;
        timings.verify_us = t0.elapsed().as_micros() as u64;

        let t1 = std::time::Instant::now();
        let analysis = ModuleAnalysis::run_with_facts(&module, &facts);
        if !analysis.converged {
            return Err(PrepareError::NoFixpoint { iterations: analysis.iterations });
        }
        timings.analyze_us = t1.elapsed().as_micros() as u64;

        let t2 = std::time::Instant::now();
        let plan = CheckPlan::build(&module, &analysis, config);
        timings.instrument_us = t2.elapsed().as_micros() as u64;

        let t3 = std::time::Instant::now();
        // The analysis numbers every `br`; a block ends in at most one.
        // `branch_of` lists the blocks of all functions end to end.
        let mut first_block = Vec::with_capacity(module.funcs.len());
        let mut nblocks = 0;
        for func in &module.funcs {
            first_block.push(nblocks);
            nblocks += func.blocks.len();
        }
        let mut branch_of = vec![NONE; nblocks];
        for b in &analysis.branches {
            branch_of[first_block[b.func.index()] + b.block.index()] = b.id.0;
        }
        let mut code = Code::default();
        for ((func, facts), &first) in module.funcs.iter().zip(&facts).zip(&first_block) {
            decode(func, &facts.loops, &branch_of[first..first + func.blocks.len()], &mut code);
        }
        let branches = analysis
            .branches
            .iter()
            .map(|b| BranchRuntime {
                witnesses: None,
                cond_info: ConditionInfo::extract(module.func(b.func), b.cond),
            })
            .collect();
        let mut image = ProgramImage { module, analysis, plan, code, branches };
        image.link_witnesses();
        timings.link_us = t3.elapsed().as_micros() as u64;

        Ok((image, timings))
    }

    /// Prepares with the default (paper) configuration.
    pub fn prepare_default(module: Module) -> ProgramImage {
        Self::prepare(module, AnalysisConfig::default())
    }

    /// Installs `plan` and re-links the per-branch witness lists the
    /// interpreter evaluates, exactly as preparing with it would have.
    pub fn replace_plan(&mut self, plan: CheckPlan) {
        self.plan = plan;
        self.link_witnesses();
    }

    fn link_witnesses(&mut self) {
        for (id, rt) in self.branches.iter_mut().enumerate() {
            rt.witnesses =
                self.plan.check(BranchId::from_index(id)).map(|c| c.witnesses.clone());
        }
    }
}

/// Decodes one function, whose loops are `loops`, onto the end of `code`.
/// `branch_of[block]` is the id of the `br` terminating `block`.
fn decode(func: &Function, loops: &LoopForest, branch_of: &[u32], code: &mut Code) {
    let nblocks = func.blocks.len();
    let mut header_of = vec![NONE; nblocks];
    for (id, l) in loops.loops().iter().enumerate().rev() {
        header_of[l.header.index()] = id as u32;
    }

    let phi_steps: Vec<u32> = func.blocks.iter().map(|b| b.phis().count() as u32).collect();
    // Phis are not emitted, so a block starts where the non-phi
    // instructions of the blocks before it end.
    let mut block_pc = Vec::with_capacity(nblocks);
    let mut next_pc = code.insts.len() as u32;
    for (block, &phis) in func.blocks.iter().zip(&phi_steps) {
        block_pc.push(next_pc);
        next_pc += block.insts.len() as u32 - phis;
    }
    code.insts.reserve(next_pc as usize - code.insts.len());

    let scratch = func.num_values() as u32;
    code.funcs.push(FuncEntry {
        pc: block_pc[func.entry().index()],
        phi_steps: phi_steps[func.entry().index()],
        nregs: scratch + 1,
    });

    for (from, block) in func.iter_blocks() {
        let edge = |code: &mut Code, to: BlockId| {
            let copy_start = code.copies.len() as u32;
            for phi in func.block(to).phis() {
                let incomings = phi.op.phi_incomings().expect("phis() yields phis");
                // The verifier guarantees one incoming per predecessor of a
                // reachable block; an edge between unreachable blocks never
                // runs, so a phi it does not feed is simply not copied.
                if let Some(inc) = incomings.iter().find(|inc| inc.block == from) {
                    code.copies
                        .push(PhiCopy { dst: phi.result.map_or(scratch, |v| v.0), src: inc.value.0 });
                }
            }
            // Entering a loop body happens only through its header, so at
            // `from` the frame's loop stack holds the chain of loops around
            // `from` (missing its first entry while a function whose entry
            // block is itself a loop header runs its first iteration), and
            // what stays is the part shared with the chain around `to`.
            let depth = loops.depth(from);
            let kept = shared_depth(loops, from, to);
            let index = code.edges.len() as u32;
            code.edges.push(Edge {
                pc: block_pc[to.index()],
                phi_steps: phi_steps[to.index()],
                copy_start,
                copy_end: code.copies.len() as u32,
                pops: depth - kept,
                header: header_of[to.index()],
            });
            index
        };

        for inst in block.insts.iter().skip(phi_steps[from.index()] as usize) {
            let dst = inst.result.map_or(scratch, |v| v.0);
            let decoded = match &inst.op {
                Op::Const(v) => constant(code, dst, *v),
                Op::GlobalAddr(g) => constant(code, dst, Val::Ptr(Ptr::shared(g.0))),
                Op::Bin { op, lhs, rhs } => {
                    let r = R3 { dst, a: lhs.0, b: rhs.0 };
                    match op {
                        BinOp::Add => Inst::Add(r),
                        BinOp::Sub => Inst::Sub(r),
                        BinOp::Mul => Inst::Mul(r),
                        BinOp::Div => Inst::Div(r),
                        BinOp::Rem => Inst::Rem(r),
                        BinOp::And => Inst::And(r),
                        BinOp::Or => Inst::Or(r),
                        BinOp::Xor => Inst::Xor(r),
                        BinOp::Shl => Inst::Shl(r),
                        BinOp::Shr => Inst::Shr(r),
                        BinOp::Min => Inst::Min(r),
                        BinOp::Max => Inst::Max(r),
                    }
                }
                Op::Cmp { op, lhs, rhs } => {
                    let r = R3 { dst, a: lhs.0, b: rhs.0 };
                    match op {
                        CmpOp::Eq => Inst::CmpEq(r),
                        CmpOp::Ne => Inst::CmpNe(r),
                        CmpOp::Lt => Inst::CmpLt(r),
                        CmpOp::Le => Inst::CmpLe(r),
                        CmpOp::Gt => Inst::CmpGt(r),
                        CmpOp::Ge => Inst::CmpGe(r),
                    }
                }
                Op::Un { op, operand } => {
                    let r = R2 { dst, a: operand.0 };
                    match op {
                        UnOp::Neg => Inst::Neg(r),
                        UnOp::Not => Inst::Not(r),
                        UnOp::IntToFloat => Inst::IntToFloat(r),
                        UnOp::FloatToInt => Inst::FloatToInt(r),
                        UnOp::Sqrt => Inst::Sqrt(r),
                        UnOp::Abs => Inst::Abs(r),
                    }
                }
                Op::Phi { .. } => unreachable!("phis lead the block and were skipped"),
                Op::Gep { base, offset } => Inst::Gep(R3 { dst, a: base.0, b: offset.0 }),
                Op::Load { addr, .. } => Inst::Load(R2 { dst, a: addr.0 }),
                Op::Store { addr, value } => Inst::Store { addr: addr.0, value: value.0 },
                Op::Alloca { size } => Inst::Alloca(R2 { dst, a: size.0 }),
                Op::ThreadId => Inst::ThreadId { dst },
                Op::NumThreads => Inst::NumThreads { dst },
                Op::AtomicFetchAdd { global, delta } => {
                    Inst::FetchAdd { dst, global: global.0, delta: delta.0 }
                }
                Op::Rand { bound } => Inst::Rand(R2 { dst, a: bound.0 }),
                Op::Output(v) => Inst::Output { src: v.0 },
                Op::MutexLock(m) => Inst::Lock { mutex: m.0 },
                Op::MutexUnlock(m) => Inst::Unlock { mutex: m.0 },
                Op::Barrier(b) => Inst::Barrier { barrier: b.0 },
                Op::Call { func: callee, args, site } => Inst::Call {
                    call: call_site(code, callee.0, NONE, args, site.0, inst.result),
                },
                Op::CallIndirect { table, selector, args, site } => Inst::CallIndirect {
                    call: call_site(code, table.0, selector.0, args, site.0, inst.result),
                },
                Op::Br { cond, then_bb, else_bb } => {
                    let taken = edge(code, *then_bb);
                    edge(code, *else_bb);
                    Inst::Br { cond: cond.0, branch: branch_of[from.index()], edge: taken }
                }
                Op::Jump(target) => Inst::Jump { edge: edge(code, *target) },
                Op::Ret(v) => Inst::Ret { src: v.map_or(NONE, |v| v.0) },
                Op::Trap => Inst::Trap,
            };
            code.insts.push(decoded);
        }
    }
}

/// How many loops (counted from the outermost) contain both `a` and `b`:
/// the depth of their innermost loops' nearest common ancestor.
fn shared_depth(loops: &LoopForest, a: BlockId, b: BlockId) -> u32 {
    let (mut x, mut y) = (loops.innermost(a), loops.innermost(b));
    loop {
        let (Some(lx), Some(ly)) = (x, y) else { return 0 };
        if lx == ly {
            return loops.get(lx).depth;
        }
        // Step out of the deeper loop (of both, at equal depth).
        let (dx, dy) = (loops.get(lx).depth, loops.get(ly).depth);
        if dx >= dy {
            x = loops.get(lx).parent;
        }
        if dy >= dx {
            y = loops.get(ly).parent;
        }
    }
}

fn constant(code: &mut Code, dst: u32, value: Val) -> Inst {
    code.consts.push(value);
    Inst::Const { dst, idx: code.consts.len() as u32 - 1 }
}

fn call_site(
    code: &mut Code,
    target: u32,
    selector: u32,
    args: &[ValueId],
    site: u32,
    result: Option<ValueId>,
) -> u32 {
    let args_start = code.args.len() as u32;
    code.args.extend(args.iter().map(|a| a.0));
    code.calls.push(CallSite {
        target,
        selector,
        args_start,
        args_end: code.args.len() as u32,
        site,
        dst: result.map_or(NONE, |v| v.0),
    });
    code.calls.len() as u32 - 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prepares_compiled_program() {
        let module = bw_ir::frontend::compile(
            r#"
            shared int n = 4;
            @spmd func f() {
                for (var i: int = 0; i < n; i = i + 1) { output(i); }
            }
            "#,
        )
        .unwrap();
        let image = ProgramImage::prepare_default(module);
        assert_eq!(image.branches.len(), 1);
        assert!(image.branches[0].witnesses.is_some());
        let f = image.module.spmd_entry.unwrap();
        let code = &image.code;
        assert_eq!(code.funcs.len(), 1);
        assert_eq!(std::mem::size_of::<Inst>(), 16);
        // The loop's one `br` carries the analysis' id for it.
        let brs: Vec<u32> = code
            .insts
            .iter()
            .filter_map(|i| match i {
                Inst::Br { branch, .. } => Some(*branch),
                _ => None,
            })
            .collect();
        assert_eq!(brs, vec![image.analysis.branches[0].id.0]);
        // One edge enters the loop (its header is the target, nothing is
        // popped), one is the back edge (same), one leaves it.
        let header = code.edges.iter().find(|e| e.header != NONE).expect("loop header edge").header;
        assert_eq!(code.edges.iter().filter(|e| e.header == header && e.pops == 0).count(), 2);
        assert_eq!(code.edges.iter().filter(|e| e.header == NONE && e.pops == 1).count(), 1);
        // Phis are edge copies and owed steps, never instructions.
        let phis = image.module.func(f).blocks.iter().map(|b| b.phis().count()).sum::<usize>();
        assert!(phis > 0);
        assert_eq!(code.insts.len() + phis, image.module.func(f).num_insts());
        assert!(code.edges.iter().any(|e| e.phi_steps > 0 && e.copy_end > e.copy_start));
    }

    #[test]
    fn replace_plan_relinks_witnesses() {
        let module = bw_ir::frontend::compile(
            r#"
            shared int n = 4;
            @spmd func f() {
                for (var i: int = 0; i < n; i = i + 1) { output(i); }
            }
            "#,
        )
        .unwrap();
        let mut image = ProgramImage::prepare_default(module);
        let mut plan = image.plan.clone();
        let Ok(check) = plan.decisions[0].as_mut() else { panic!("branch 0 is instrumented") };
        check.witnesses.clear();
        image.replace_plan(plan);
        assert_eq!(image.branches[0].witnesses.as_deref(), Some(&[][..]));
    }
}
