//! Instruction set of the BLOCKWATCH IR.
//!
//! The IR is in SSA form: each instruction that produces a result defines a
//! fresh [`ValueId`]; operands refer to earlier definitions (or, for phi
//! nodes, to definitions flowing in along predecessor edges).
//!
//! The instruction set is deliberately small but covers everything the
//! SPLASH-2 kernel ports and the similarity analysis need: integer/float
//! arithmetic, comparisons, shared and thread-local memory, direct and
//! table-indirect calls, pthread-style synchronization, and the thread-ID
//! intrinsics that seed the `threadID` similarity category.

use crate::ids::{BarrierId, BlockId, CallSiteId, FuncId, GlobalId, MutexId, TableId, ValueId};
use crate::value::{Type, Val};

/// Binary arithmetic / logical operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Addition (wrapping for `i64`).
    Add,
    /// Subtraction (wrapping for `i64`).
    Sub,
    /// Multiplication (wrapping for `i64`).
    Mul,
    /// Division. Integer division by zero traps at runtime.
    Div,
    /// Remainder. Integer remainder by zero traps at runtime.
    Rem,
    /// Bitwise and (also boolean and).
    And,
    /// Bitwise or (also boolean or).
    Or,
    /// Bitwise xor.
    Xor,
    /// Left shift (shift amount masked to 0..64).
    Shl,
    /// Arithmetic right shift (shift amount masked to 0..64).
    Shr,
    /// Minimum of the two operands.
    Min,
    /// Maximum of the two operands.
    Max,
}

impl BinOp {
    /// Short mnemonic used by the IR printer.
    pub fn mnemonic(self) -> &'static str {
        match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::Div => "div",
            BinOp::Rem => "rem",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
            BinOp::Shl => "shl",
            BinOp::Shr => "shr",
            BinOp::Min => "min",
            BinOp::Max => "max",
        }
    }
}

/// Comparison predicates.
///
/// The predicate is recorded in branch check specs: for `threadID`-category
/// branches the runtime check depends on the comparison shape (an equality
/// against a shared value means at most one thread dissents; an ordered
/// comparison means outcomes are monotone in thread ID).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

impl CmpOp {
    /// Short mnemonic used by the IR printer.
    pub fn mnemonic(self) -> &'static str {
        match self {
            CmpOp::Eq => "eq",
            CmpOp::Ne => "ne",
            CmpOp::Lt => "lt",
            CmpOp::Le => "le",
            CmpOp::Gt => "gt",
            CmpOp::Ge => "ge",
        }
    }

    /// The predicate with operands swapped (`a < b` ⇔ `b > a`).
    pub fn swapped(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }

    /// The logically negated predicate (`!(a < b)` ⇔ `a >= b`).
    pub fn negated(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Le => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Le,
            CmpOp::Ge => CmpOp::Lt,
        }
    }
}

/// Unary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Boolean / bitwise not.
    Not,
    /// Convert `i64` to `f64`.
    IntToFloat,
    /// Truncate `f64` to `i64`.
    FloatToInt,
    /// Square root (f64).
    Sqrt,
    /// Absolute value.
    Abs,
}

impl UnOp {
    /// Short mnemonic used by the IR printer.
    pub fn mnemonic(self) -> &'static str {
        match self {
            UnOp::Neg => "neg",
            UnOp::Not => "not",
            UnOp::IntToFloat => "i2f",
            UnOp::FloatToInt => "f2i",
            UnOp::Sqrt => "sqrt",
            UnOp::Abs => "abs",
        }
    }
}

/// One incoming edge of a phi node.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PhiIncoming {
    /// Predecessor block the value flows in from.
    pub block: BlockId,
    /// Value defined on that path.
    pub value: ValueId,
}

/// The operation performed by an instruction.
#[derive(Clone, Debug, PartialEq)]
#[allow(missing_docs)] // variant fields are self-describing; variants are documented
pub enum Op {
    /// A literal constant.
    Const(Val),
    /// Binary operation.
    Bin { op: BinOp, lhs: ValueId, rhs: ValueId },
    /// Comparison producing a `Bool`.
    Cmp { op: CmpOp, lhs: ValueId, rhs: ValueId },
    /// Unary operation.
    Un { op: UnOp, operand: ValueId },
    /// SSA phi node. Must appear at the start of a block.
    Phi { incomings: Vec<PhiIncoming>, ty: Type },
    /// Address of a global (scalar or array base).
    GlobalAddr(GlobalId),
    /// Pointer arithmetic: `base` displaced by `offset` words (i64).
    Gep { base: ValueId, offset: ValueId },
    /// Load one word from memory.
    Load { addr: ValueId, ty: Type },
    /// Store one word to memory.
    Store { addr: ValueId, value: ValueId },
    /// Allocate `size` words (i64 value) of thread-local memory; yields a
    /// `Ptr` to the start. Local allocations live until the thread exits.
    Alloca { size: ValueId },
    /// The executing thread's ID in `0..nthreads`. Seeds the `threadID`
    /// similarity category.
    ThreadId,
    /// The number of threads executing the parallel section. A shared value.
    NumThreads,
    /// Atomic fetch-and-add on a shared global scalar; yields the value
    /// before the addition. When the global is marked as a thread-ID counter
    /// (the `procid = id++` pattern of the paper) the result seeds the
    /// `threadID` category.
    AtomicFetchAdd { global: GlobalId, delta: ValueId },
    /// Direct call. `site` is the module-unique static call-site ID used in
    /// the runtime branch key.
    Call { func: FuncId, args: Vec<ValueId>, site: CallSiteId },
    /// Indirect call through a function table (`raytrace`-style function
    /// pointers): calls `table[selector % table.len()]`. A selector outside
    /// the table bounds traps.
    CallIndirect { table: TableId, selector: ValueId, args: Vec<ValueId>, site: CallSiteId },
    /// Append a value to the program output (used for golden-run / SDC
    /// comparison).
    Output(ValueId),
    /// Acquire a mutex.
    MutexLock(MutexId),
    /// Release a mutex.
    MutexUnlock(MutexId),
    /// Wait at a barrier until all threads arrive.
    Barrier(BarrierId),
    /// Pseudo-random i64 in `[0, bound)` drawn from the thread's
    /// deterministic PRNG stream. Used by workload generators inside ports.
    Rand { bound: ValueId },
    /// Conditional branch terminator.
    Br { cond: ValueId, then_bb: BlockId, else_bb: BlockId },
    /// Unconditional jump terminator.
    Jump(BlockId),
    /// Return terminator with an optional value.
    Ret(Option<ValueId>),
    /// Trap terminator: abort the executing thread with an error (used to
    /// model assertion failures in ports).
    Trap,
}

impl Op {
    /// Whether this op is a block terminator.
    pub fn is_terminator(&self) -> bool {
        matches!(self, Op::Br { .. } | Op::Jump(_) | Op::Ret(_) | Op::Trap)
    }

    /// Whether this op is a phi node.
    pub fn is_phi(&self) -> bool {
        matches!(self, Op::Phi { .. })
    }

    /// Iterates over the value operands of this op. A phi's incomings are
    /// not among them: each flows in along an edge, so they need edge
    /// context; use [`Op::phi_incomings`] for those.
    pub fn operands(&self) -> impl Iterator<Item = ValueId> + '_ {
        const NO: ValueId = ValueId(u32::MAX);
        let (fixed, n, rest): ([ValueId; 2], usize, &[ValueId]) = match self {
            Op::Const(_)
            | Op::GlobalAddr(_)
            | Op::ThreadId
            | Op::NumThreads
            | Op::MutexLock(_)
            | Op::MutexUnlock(_)
            | Op::Barrier(_)
            | Op::Jump(_)
            | Op::Trap
            | Op::Phi { .. }
            | Op::Ret(None) => ([NO, NO], 0, &[]),
            Op::Bin { lhs, rhs, .. } | Op::Cmp { lhs, rhs, .. } => ([*lhs, *rhs], 2, &[]),
            Op::Gep { base: a, offset: b } | Op::Store { addr: a, value: b } => ([*a, *b], 2, &[]),
            Op::Un { operand: v, .. }
            | Op::Load { addr: v, .. }
            | Op::Alloca { size: v }
            | Op::AtomicFetchAdd { delta: v, .. }
            | Op::Output(v)
            | Op::Rand { bound: v }
            | Op::Br { cond: v, .. }
            | Op::Ret(Some(v)) => ([*v, NO], 1, &[]),
            Op::Call { args, .. } => ([NO, NO], 0, args),
            Op::CallIndirect { selector, args, .. } => ([*selector, NO], 1, args),
        };
        fixed.into_iter().take(n).chain(rest.iter().copied())
    }

    /// The phi incomings, if this is a phi node.
    pub fn phi_incomings(&self) -> Option<&[PhiIncoming]> {
        match self {
            Op::Phi { incomings, .. } => Some(incomings),
            _ => None,
        }
    }

    /// The successor blocks of this op, in branch order (`then` before
    /// `else`, twice the same block if both name it); none unless it is a
    /// `br` or a `jump`.
    pub fn successors(&self) -> impl ExactSizeIterator<Item = BlockId> {
        let (fixed, n) = match self {
            Op::Br { then_bb, else_bb, .. } => ([*then_bb, *else_bb], 2),
            Op::Jump(bb) => ([*bb, *bb], 1),
            _ => ([BlockId(0), BlockId(0)], 0),
        };
        fixed.into_iter().take(n)
    }
}

/// An instruction: an op plus its (optional) result value and type.
#[derive(Clone, Debug, PartialEq)]
pub struct Inst {
    /// The operation.
    pub op: Op,
    /// The SSA value this instruction defines, if any.
    pub result: Option<ValueId>,
    /// The type of the result, if any.
    pub ty: Option<Type>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminator_classification() {
        assert!(Op::Jump(BlockId(0)).is_terminator());
        assert!(Op::Ret(None).is_terminator());
        assert!(Op::Trap.is_terminator());
        assert!(Op::Br { cond: ValueId(0), then_bb: BlockId(1), else_bb: BlockId(2) }
            .is_terminator());
        assert!(!Op::ThreadId.is_terminator());
    }

    #[test]
    fn successors_of_terminators() {
        let br = Op::Br { cond: ValueId(0), then_bb: BlockId(1), else_bb: BlockId(2) };
        assert_eq!(br.successors().collect::<Vec<_>>(), vec![BlockId(1), BlockId(2)]);
        let twice = Op::Br { cond: ValueId(0), then_bb: BlockId(3), else_bb: BlockId(3) };
        assert_eq!(twice.successors().collect::<Vec<_>>(), vec![BlockId(3), BlockId(3)]);
        assert_eq!(Op::Jump(BlockId(7)).successors().collect::<Vec<_>>(), vec![BlockId(7)]);
        assert_eq!(Op::Ret(None).successors().len(), 0);
    }

    #[test]
    fn operand_lists() {
        let bin = Op::Bin { op: BinOp::Add, lhs: ValueId(1), rhs: ValueId(2) };
        let operands = |op: &Op| op.operands().collect::<Vec<_>>();
        assert_eq!(operands(&bin), vec![ValueId(1), ValueId(2)]);
        let call = Op::Call { func: FuncId(0), args: vec![ValueId(3)], site: CallSiteId(0) };
        assert_eq!(operands(&call), vec![ValueId(3)]);
        let ci = Op::CallIndirect {
            table: TableId(0),
            selector: ValueId(9),
            args: vec![ValueId(1)],
            site: CallSiteId(1),
        };
        assert_eq!(operands(&ci), vec![ValueId(9), ValueId(1)]);
        assert_eq!(operands(&Op::Ret(Some(ValueId(4)))), vec![ValueId(4)]);
        assert_eq!(operands(&Op::Ret(None)), vec![]);
        // A phi's incomings come with their edges, from `phi_incomings`.
        let phi = Op::Phi {
            incomings: vec![PhiIncoming { block: BlockId(0), value: ValueId(5) }],
            ty: Type::I64,
        };
        assert_eq!(operands(&phi), vec![]);
    }

    #[test]
    fn cmp_op_swapped_and_negated() {
        assert_eq!(CmpOp::Lt.swapped(), CmpOp::Gt);
        assert_eq!(CmpOp::Eq.swapped(), CmpOp::Eq);
        assert_eq!(CmpOp::Le.negated(), CmpOp::Gt);
        assert_eq!(CmpOp::Ne.negated(), CmpOp::Eq);
    }
}
