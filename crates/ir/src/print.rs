//! The textual form of IR modules and functions, which
//! [`crate::parse_module`] reads back: one writer family that appends to a
//! single [`fmt::Write`] output, and the `Display` wrappers over it.

use std::fmt::{self, Write};

use crate::function::Function;
use crate::inst::{Inst, Op};
use crate::module::Module;

/// Wrapper that displays a function as readable pseudo-assembly.
pub struct FunctionPrinter<'a>(pub &'a Function);

/// Wrapper that displays a whole module.
pub struct ModulePrinter<'a>(pub &'a Module);

impl fmt::Display for FunctionPrinter<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_function(f, self.0, "")
    }
}

impl fmt::Display for ModulePrinter<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_module(f, self.0)
    }
}

/// Writes `items` separated by `", "`.
fn list<T: fmt::Display>(out: &mut impl Write, items: impl IntoIterator<Item = T>) -> fmt::Result {
    for (i, item) in items.into_iter().enumerate() {
        write!(out, "{}{item}", if i == 0 { "" } else { ", " })?;
    }
    Ok(())
}

fn write_module(out: &mut impl Write, m: &Module) -> fmt::Result {
    writeln!(out, "module {} {{", m.name)?;
    for g in &m.globals {
        let shared = if g.shared { " shared" } else { "" };
        let tid_counter = if g.tid_counter { " tid_counter" } else { "" };
        let (name, ty, len, init) = (&g.name, g.ty, g.len, g.init);
        writeln!(out, "  global {name} : {ty} x{len}{shared}{tid_counter} = {init}")?;
    }
    for t in &m.tables {
        write!(out, "  table {} = [", t.name)?;
        list(out, t.funcs.iter().map(|&fid| &m.func(fid).name))?;
        out.write_str("]\n")?;
    }
    // Resource counts and role bindings. Emitted so the textual form is
    // lossless: `crate::text::parse_module` reads these back. Zero counts
    // and absent roles are omitted (the parser defaults them).
    let counts =
        [("mutexes", m.num_mutexes), ("barriers", m.num_barriers), ("callsites", m.num_call_sites)];
    for (directive, n) in counts {
        if n > 0 {
            writeln!(out, "  {directive} {n}")?;
        }
    }
    for (role, fid) in [("init", m.init), ("spmd", m.spmd_entry), ("fini", m.fini)] {
        if let Some(fid) = fid {
            writeln!(out, "  {role} {}", m.func(fid).name)?;
        }
    }
    for func in &m.funcs {
        write_function(out, func, "  ")?;
    }
    out.write_str("}\n")
}

/// Writes `func`, every line after `indent`.
fn write_function(out: &mut impl Write, func: &Function, indent: &str) -> fmt::Result {
    write!(out, "{indent}func {}(", func.name)?;
    for (i, ty) in func.params.iter().enumerate() {
        write!(out, "{}v{i}: {ty}", if i == 0 { "" } else { ", " })?;
    }
    out.write_char(')')?;
    if let Some(t) = func.ret {
        write!(out, " -> {t}")?;
    }
    out.write_str(" {\n")?;
    for (bb, block) in func.iter_blocks() {
        match block.name.as_deref() {
            Some(name) if !name.is_empty() => writeln!(out, "{indent}{bb}: ; {name}")?,
            _ => writeln!(out, "{indent}{bb}:")?,
        }
        for inst in &block.insts {
            write!(out, "{indent}  ")?;
            write_inst(out, func, inst)?;
            out.write_char('\n')?;
        }
    }
    writeln!(out, "{indent}}}")
}

/// Writes one instruction, without indent or line break.
fn write_inst(out: &mut impl Write, func: &Function, inst: &Inst) -> fmt::Result {
    if let Some(r) = inst.result {
        write!(out, "{r}: {} = ", func.value_type(r))?;
    }
    match &inst.op {
        Op::Const(v) => write!(out, "const {v}"),
        Op::Bin { op, lhs, rhs } => write!(out, "{} {lhs}, {rhs}", op.mnemonic()),
        Op::Cmp { op, lhs, rhs } => write!(out, "cmp.{} {lhs}, {rhs}", op.mnemonic()),
        Op::Un { op, operand } => write!(out, "{} {operand}", op.mnemonic()),
        Op::Phi { incomings, .. } => {
            out.write_str("phi ")?;
            for (i, inc) in incomings.iter().enumerate() {
                let sep = if i == 0 { "" } else { ", " };
                write!(out, "{sep}[{}, {}]", inc.block, inc.value)?;
            }
            Ok(())
        }
        Op::GlobalAddr(g) => write!(out, "globaladdr {g}"),
        Op::Gep { base, offset } => write!(out, "gep {base}, {offset}"),
        Op::Load { addr, ty } => write!(out, "load.{ty} {addr}"),
        Op::Store { addr, value } => write!(out, "store {value} -> {addr}"),
        Op::Alloca { size } => write!(out, "alloca {size}"),
        Op::ThreadId => out.write_str("threadid"),
        Op::NumThreads => out.write_str("numthreads"),
        Op::AtomicFetchAdd { global, delta } => write!(out, "fetchadd {global}, {delta}"),
        Op::Call { func, args, site } => {
            write!(out, "call {func}(")?;
            list(out, args)?;
            write!(out, ") @{site}")
        }
        Op::CallIndirect { table, selector, args, site } => {
            write!(out, "icall {table}[{selector}](")?;
            list(out, args)?;
            write!(out, ") @{site}")
        }
        Op::Output(v) => write!(out, "output {v}"),
        Op::MutexLock(m) => write!(out, "lock {m}"),
        Op::MutexUnlock(m) => write!(out, "unlock {m}"),
        Op::Barrier(b) => write!(out, "barrier {b}"),
        Op::Rand { bound } => write!(out, "rand {bound}"),
        Op::Br { cond, then_bb, else_bb } => write!(out, "br {cond}, {then_bb}, {else_bb}"),
        Op::Jump(bb) => write!(out, "jump {bb}"),
        Op::Ret(Some(v)) => write!(out, "ret {v}"),
        Op::Ret(None) => out.write_str("ret"),
        Op::Trap => out.write_str("trap"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::inst::CmpOp;
    use crate::value::{Type, Val};

    #[test]
    fn prints_function_with_all_shapes() {
        let mut m = Module::new("demo");
        let g = m.add_global("n", Type::I64, Val::I64(4), true);
        let mut b = FunctionBuilder::new("slave", vec![], None);
        let tid = b.thread_id();
        let n = b.load_global(&m, g);
        let c = b.cmp(CmpOp::Lt, tid, n);
        let t = b.add_block("t");
        let e = b.add_block("e");
        b.br(c, t, e);
        b.switch_to(t);
        b.output(tid);
        b.jump(e);
        b.switch_to(e);
        b.ret(None);
        m.add_func(b.finish());
        let text = ModulePrinter(&m).to_string();
        assert!(text.contains("module demo"), "{text}");
        assert!(text.contains("global n : i64 x1 shared = 4"), "{text}");
        assert!(text.contains("threadid"), "{text}");
        assert!(text.contains("cmp.lt"), "{text}");
        assert!(text.contains("br "), "{text}");
        assert!(text.contains("output"), "{text}");
    }

    #[test]
    fn debug_representation_is_never_empty() {
        let f = Function::new("empty_fn", vec![], None);
        let text = FunctionPrinter(&f).to_string();
        assert!(!text.is_empty());
        assert!(text.contains("func empty_fn"));
    }
}
