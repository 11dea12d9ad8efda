//! # bw-ir — SSA intermediate representation for BLOCKWATCH
//!
//! This crate provides the compiler substrate that the BLOCKWATCH
//! reproduction is built on: a small SSA-form intermediate representation
//! for SPMD shared-memory parallel programs, together with
//!
//! * a [`FunctionBuilder`] for programmatic construction,
//! * a textual front-end (a C-like mini language) that lowers to SSA
//!   ([`frontend`]),
//! * CFG utilities ([`Cfg`]), dominators ([`DomTree`]) and natural-loop
//!   analysis ([`LoopForest`]),
//! * a structural + SSA [verifier](verify_module), and
//! * a [printer](ModulePrinter) for diagnostics.
//!
//! The instruction set mirrors what the paper's LLVM-based analysis
//! consumes: branches (including loop branches), phi nodes, shared vs.
//! thread-local memory, the thread-ID intrinsic, pthread-style mutexes and
//! barriers, and table-indirect calls (to model `raytrace`'s function
//! pointers).
//!
//! # Examples
//!
//! Build the paper's Figure 1 "branch 1" (`if (procid == 0)`) and verify it:
//!
//! ```
//! use bw_ir::{Module, FunctionBuilder, CmpOp, verify_module};
//!
//! let mut module = Module::new("figure1");
//! let mut b = FunctionBuilder::new("slave", vec![], None);
//! let tid = b.thread_id();
//! let zero = b.const_i64(0);
//! let is_leader = b.cmp(CmpOp::Eq, tid, zero);
//! let leader = b.add_block("leader");
//! let join = b.add_block("join");
//! b.br(is_leader, leader, join);
//! b.switch_to(leader);
//! b.jump(join);
//! b.switch_to(join);
//! b.ret(None);
//! let slave = module.add_func(b.finish());
//! module.spmd_entry = Some(slave);
//! verify_module(&module)?;
//! # Ok::<(), bw_ir::VerifyError>(())
//! ```

#![warn(missing_docs)]

mod builder;
mod cfg;
mod dom;
mod facts;
mod function;
mod ids;
mod inst;
mod loops;
mod module;
mod print;
mod scc;
mod text;
mod value;
mod verify;

pub mod frontend;

pub use builder::FunctionBuilder;
pub use cfg::Cfg;
pub use dom::DomTree;
pub use facts::FlowFacts;
pub use function::{Block, Function, ValueDef};
pub use ids::{
    BarrierId, BlockId, BranchId, CallSiteId, FuncId, GlobalId, LoopId, MutexId, TableId, ValueId,
};
pub use inst::{BinOp, CmpOp, Inst, Op, PhiIncoming, UnOp};
pub use loops::{Loop, LoopForest};
pub use module::{FuncTable, Global, Module};
pub use print::{FunctionPrinter, ModulePrinter};
pub use scc::{Condensation, ValueGraph};
pub use text::{parse_module, TextError};
pub use value::{Ptr, Space, Type, Val};
pub use verify::{verify_function, verify_module, verify_module_facts, VerifyError};
