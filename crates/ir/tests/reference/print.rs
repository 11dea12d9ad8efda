//! The printer as it was before it wrote into one buffer: a `String` per
//! instruction, `join`ed lists, and a module's functions rendered apart and
//! re-split by `lines()` to indent them. Unchanged but for its imports.

use std::fmt::{self, Write as _};

use bw_ir::{Function, Inst, Module, Op};

/// Wrapper that displays a function as readable pseudo-assembly.
pub struct FunctionPrinter<'a>(pub &'a Function);

/// Wrapper that displays a whole module.
pub struct ModulePrinter<'a>(pub &'a Module);

impl fmt::Display for FunctionPrinter<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_function(f, self.0)
    }
}

impl fmt::Display for ModulePrinter<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let m = self.0;
        writeln!(f, "module {} {{", m.name)?;
        for g in &m.globals {
            writeln!(
                f,
                "  global {} : {} x{}{}{} = {}",
                g.name,
                g.ty,
                g.len,
                if g.shared { " shared" } else { "" },
                if g.tid_counter { " tid_counter" } else { "" },
                g.init
            )?;
        }
        for t in &m.tables {
            let funcs: Vec<String> =
                t.funcs.iter().map(|&fid| m.func(fid).name.clone()).collect();
            writeln!(f, "  table {} = [{}]", t.name, funcs.join(", "))?;
        }
        // Resource counts and role bindings. Emitted so the textual form is
        // lossless: `crate::text::parse_module` reads these back. Zero counts
        // and absent roles are omitted (the parser defaults them).
        if m.num_mutexes > 0 {
            writeln!(f, "  mutexes {}", m.num_mutexes)?;
        }
        if m.num_barriers > 0 {
            writeln!(f, "  barriers {}", m.num_barriers)?;
        }
        if m.num_call_sites > 0 {
            writeln!(f, "  callsites {}", m.num_call_sites)?;
        }
        for (role, fid) in
            [("init", m.init), ("spmd", m.spmd_entry), ("fini", m.fini)]
        {
            if let Some(fid) = fid {
                writeln!(f, "  {role} {}", m.func(fid).name)?;
            }
        }
        for func in &m.funcs {
            let mut body = String::new();
            write_function_into(&mut body, func).map_err(|_| fmt::Error)?;
            for line in body.lines() {
                writeln!(f, "  {line}")?;
            }
        }
        writeln!(f, "}}")
    }
}

fn write_function(f: &mut fmt::Formatter<'_>, func: &Function) -> fmt::Result {
    let mut s = String::new();
    write_function_into(&mut s, func).map_err(|_| fmt::Error)?;
    f.write_str(&s)
}

fn write_function_into(out: &mut String, func: &Function) -> fmt::Result {
    let params: Vec<String> =
        func.params.iter().enumerate().map(|(i, ty)| format!("v{i}: {ty}")).collect();
    let ret = func.ret.map(|t| format!(" -> {t}")).unwrap_or_default();
    writeln!(out, "func {}({}){} {{", func.name, params.join(", "), ret)?;
    for (bb, block) in func.iter_blocks() {
        let name = block.name.as_deref().unwrap_or("");
        if name.is_empty() {
            writeln!(out, "{bb}:")?;
        } else {
            writeln!(out, "{bb}: ; {name}")?;
        }
        for inst in &block.insts {
            writeln!(out, "  {}", format_inst(func, inst))?;
        }
    }
    writeln!(out, "}}")
}

/// Formats one instruction as text.
pub fn format_inst(func: &Function, inst: &Inst) -> String {
    let lhs = match inst.result {
        Some(r) => format!("{r}: {} = ", func.value_type(r)),
        None => String::new(),
    };
    let rhs = format_op(&inst.op);
    format!("{lhs}{rhs}")
}

fn format_op(op: &Op) -> String {
    match op {
        Op::Const(v) => format!("const {v}"),
        Op::Bin { op, lhs, rhs } => format!("{} {lhs}, {rhs}", op.mnemonic()),
        Op::Cmp { op, lhs, rhs } => format!("cmp.{} {lhs}, {rhs}", op.mnemonic()),
        Op::Un { op, operand } => format!("{} {operand}", op.mnemonic()),
        Op::Phi { incomings, .. } => {
            let parts: Vec<String> =
                incomings.iter().map(|inc| format!("[{}, {}]", inc.block, inc.value)).collect();
            format!("phi {}", parts.join(", "))
        }
        Op::GlobalAddr(g) => format!("globaladdr {g}"),
        Op::Gep { base, offset } => format!("gep {base}, {offset}"),
        Op::Load { addr, ty } => format!("load.{ty} {addr}"),
        Op::Store { addr, value } => format!("store {value} -> {addr}"),
        Op::Alloca { size } => format!("alloca {size}"),
        Op::ThreadId => "threadid".to_string(),
        Op::NumThreads => "numthreads".to_string(),
        Op::AtomicFetchAdd { global, delta } => format!("fetchadd {global}, {delta}"),
        Op::Call { func, args, site } => {
            let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
            format!("call {func}({}) @{site}", args.join(", "))
        }
        Op::CallIndirect { table, selector, args, site } => {
            let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
            format!("icall {table}[{selector}]({}) @{site}", args.join(", "))
        }
        Op::Output(v) => format!("output {v}"),
        Op::MutexLock(m) => format!("lock {m}"),
        Op::MutexUnlock(m) => format!("unlock {m}"),
        Op::Barrier(b) => format!("barrier {b}"),
        Op::Rand { bound } => format!("rand {bound}"),
        Op::Br { cond, then_bb, else_bb } => format!("br {cond}, {then_bb}, {else_bb}"),
        Op::Jump(bb) => format!("jump {bb}"),
        Op::Ret(Some(v)) => format!("ret {v}"),
        Op::Ret(None) => "ret".to_string(),
        Op::Trap => "trap".to_string(),
    }
}

