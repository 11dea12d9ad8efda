//! The verifier as it was before it shared its control-flow facts: a
//! SipHash `HashSet` of predecessors per block and of incomings per phi,
//! over the reference [`Cfg`] and [`DomTree`]. Unchanged but for its imports,
//! its unit tests, left out, and `Op::operands`, which returned a `Vec` and
//! is kept here as [`operands`]; it returns `bw_ir::VerifyError`.

use std::collections::HashSet;

use super::cfg::Cfg;
use super::dom::DomTree;
use bw_ir::{BinOp, BlockId, FuncId, Function, Module, Op, Type, UnOp, ValueDef, ValueId, VerifyError};

/// Verifies a whole module.
///
/// # Errors
///
/// Returns the first structural or SSA violation found.
pub fn verify_module(module: &Module) -> Result<(), VerifyError> {
    let module_err = |message: String| VerifyError { func: None, message };

    for role in [module.init, module.spmd_entry, module.fini].into_iter().flatten() {
        if role.index() >= module.funcs.len() {
            return Err(module_err(format!("entry function {role} out of range")));
        }
    }
    for table in &module.tables {
        if table.funcs.is_empty() {
            return Err(module_err(format!("function table `{}` is empty", table.name)));
        }
        let first = table.funcs[0];
        for &f in &table.funcs {
            if f.index() >= module.funcs.len() {
                return Err(module_err(format!("table `{}` references {f} out of range", table.name)));
            }
            let (a, b) = (module.func(first), module.func(f));
            if a.params != b.params || a.ret != b.ret {
                return Err(module_err(format!(
                    "table `{}` mixes signatures: `{}` vs `{}`",
                    table.name, a.name, b.name
                )));
            }
        }
    }

    let mut names = HashSet::new();
    for func in &module.funcs {
        if !names.insert(func.name.as_str()) {
            return Err(module_err(format!("duplicate function name `{}`", func.name)));
        }
    }

    for func in &module.funcs {
        verify_function(module, func)?;
    }
    Ok(())
}

/// Verifies a single function.
///
/// # Errors
///
/// Returns the first violation found.
pub fn verify_function(module: &Module, func: &Function) -> Result<(), VerifyError> {
    let err = |message: String| VerifyError { func: Some(func.name.clone()), message };

    if func.blocks.is_empty() {
        return Err(err("function has no blocks".into()));
    }
    if func.defs.len() != func.value_types.len() {
        return Err(err("defs/value_types length mismatch".into()));
    }

    // Structural checks (terminators, phi placement, id ranges).
    for (bb, block) in func.iter_blocks() {
        let Some(last) = block.insts.last() else {
            return Err(err(format!("{bb} is empty")));
        };
        if !last.op.is_terminator() {
            return Err(err(format!("{bb} does not end in a terminator")));
        }
        let mut seen_non_phi = false;
        for (i, inst) in block.insts.iter().enumerate() {
            if inst.op.is_terminator() && i + 1 != block.insts.len() {
                return Err(err(format!("terminator in the middle of {bb}")));
            }
            if inst.op.is_phi() {
                if seen_non_phi {
                    return Err(err(format!("phi after non-phi in {bb}")));
                }
            } else {
                seen_non_phi = true;
            }
            check_ids_in_range(module, func, bb, &inst.op).map_err(&err)?;

            // Result bookkeeping must point back at this instruction.
            if let Some(result) = inst.result {
                match func.defs.get(result.index()) {
                    Some(ValueDef::Inst { block, inst_index })
                        if *block == bb && *inst_index == i => {}
                    _ => {
                        return Err(err(format!(
                            "result {result} of {bb}[{i}] has a stale definition record"
                        )))
                    }
                }
                let declared = inst.ty;
                if declared != Some(func.value_type(result)) {
                    return Err(err(format!("result {result} type mismatch in {bb}")));
                }
            }
        }
    }

    let cfg = Cfg::new(func);
    let dom = DomTree::new(&cfg, func.entry());

    // Phi incoming edges must match predecessors exactly (reachable blocks).
    for (bb, block) in func.iter_blocks() {
        if !dom.is_reachable(bb) {
            continue;
        }
        let preds: HashSet<BlockId> = cfg.preds(bb).iter().copied().collect();
        for inst in block.phis() {
            let incomings = inst.op.phi_incomings().expect("phis() yields phis");
            let mut seen = HashSet::new();
            for inc in incomings {
                if !preds.contains(&inc.block) {
                    return Err(err(format!(
                        "phi in {bb} has incoming from non-predecessor {}",
                        inc.block
                    )));
                }
                if !seen.insert(inc.block) {
                    return Err(err(format!(
                        "phi in {bb} has duplicate incoming from {}",
                        inc.block
                    )));
                }
            }
            if seen.len() != preds.len() {
                return Err(err(format!(
                    "phi in {bb} covers {} of {} predecessor edges",
                    seen.len(),
                    preds.len()
                )));
            }
        }
    }

    // SSA dominance: each use must be dominated by its definition.
    for (bb, block) in func.iter_blocks() {
        if !dom.is_reachable(bb) {
            continue;
        }
        for (i, inst) in block.insts.iter().enumerate() {
            if let Some(incomings) = inst.op.phi_incomings() {
                for inc in incomings {
                    check_use_dominated(func, &dom, inc.value, inc.block, usize::MAX)
                        .map_err(&err)?;
                }
            } else {
                for operand in operands(&inst.op) {
                    check_use_dominated(func, &dom, operand, bb, i).map_err(&err)?;
                }
            }
            check_types(module, func, bb, &inst.op).map_err(&err)?;
        }
    }

    // Return type consistency.
    for (bb, block) in func.iter_blocks() {
        if let Some(inst) = block.terminator() {
            if let Op::Ret(v) = &inst.op {
                match (v, func.ret) {
                    (Some(v), Some(ret_ty)) => {
                        if func.value_type(*v) != ret_ty {
                            return Err(err(format!("{bb}: return value type mismatch")));
                        }
                    }
                    (None, None) => {}
                    (Some(_), None) => {
                        return Err(err(format!("{bb}: value returned from void function")))
                    }
                    (None, Some(_)) => {
                        return Err(err(format!("{bb}: missing return value")))
                    }
                }
            }
        }
    }

    Ok(())
}

fn check_use_dominated(
    func: &Function,
    dom: &DomTree,
    value: ValueId,
    use_block: BlockId,
    use_index: usize,
) -> Result<(), String> {
    let Some(def) = func.defs.get(value.index()) else {
        return Err(format!("use of undefined value {value}"));
    };
    match def {
        ValueDef::Param(_) => Ok(()),
        ValueDef::Inst { block, inst_index } => {
            if *block == use_block {
                if *inst_index < use_index {
                    Ok(())
                } else {
                    Err(format!("{value} used at or before its definition in {use_block}"))
                }
            } else if dom.dominates(*block, use_block) {
                Ok(())
            } else {
                Err(format!(
                    "use of {value} in {use_block} not dominated by its definition in {block}"
                ))
            }
        }
    }
}

fn check_ids_in_range(
    module: &Module,
    func: &Function,
    bb: BlockId,
    op: &Op,
) -> Result<(), String> {
    let block_ok = |b: BlockId| -> Result<(), String> {
        if b.index() < func.blocks.len() {
            Ok(())
        } else {
            Err(format!("{bb}: branch target {b} out of range"))
        }
    };
    match op {
        Op::Br { then_bb, else_bb, .. } => {
            block_ok(*then_bb)?;
            block_ok(*else_bb)
        }
        Op::Jump(target) => block_ok(*target),
        Op::GlobalAddr(g) | Op::AtomicFetchAdd { global: g, .. } => {
            if g.index() < module.globals.len() {
                Ok(())
            } else {
                Err(format!("{bb}: global {g} out of range"))
            }
        }
        Op::Call { func: f, args, .. } => {
            if f.index() >= module.funcs.len() {
                return Err(format!("{bb}: callee {f} out of range"));
            }
            check_call_signature(module.func(*f).params.len(), args.len(), *f, bb)
        }
        Op::CallIndirect { table, args, .. } => {
            if table.index() >= module.tables.len() {
                return Err(format!("{bb}: table {table} out of range"));
            }
            let first = module.tables[table.index()].funcs[0];
            check_call_signature(module.func(first).params.len(), args.len(), first, bb)
        }
        Op::MutexLock(m) | Op::MutexUnlock(m) => {
            if m.0 < module.num_mutexes {
                Ok(())
            } else {
                Err(format!("{bb}: mutex {m} out of range"))
            }
        }
        Op::Barrier(b) => {
            if b.0 < module.num_barriers {
                Ok(())
            } else {
                Err(format!("{bb}: barrier {b} out of range"))
            }
        }
        _ => Ok(()),
    }
}

fn check_call_signature(
    expected: usize,
    actual: usize,
    callee: FuncId,
    bb: BlockId,
) -> Result<(), String> {
    if expected == actual {
        Ok(())
    } else {
        Err(format!("{bb}: call to {callee} passes {actual} args, expected {expected}"))
    }
}

fn check_types(module: &Module, func: &Function, bb: BlockId, op: &Op) -> Result<(), String> {
    let ty = |v: ValueId| func.value_type(v);
    match op {
        Op::Bin { op: bin, lhs, rhs } => {
            let (l, r) = (ty(*lhs), ty(*rhs));
            if l != r {
                return Err(format!("{bb}: binop {} with mixed types {l}/{r}", bin.mnemonic()));
            }
            let numeric = matches!(l, Type::I64 | Type::F64);
            let ok = match bin {
                BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Rem => numeric,
                BinOp::Min | BinOp::Max => numeric,
                BinOp::And | BinOp::Or | BinOp::Xor => matches!(l, Type::I64 | Type::Bool),
                BinOp::Shl | BinOp::Shr => l == Type::I64,
            };
            if !ok {
                return Err(format!("{bb}: binop {} on {l}", bin.mnemonic()));
            }
            Ok(())
        }
        Op::Cmp { lhs, rhs, .. } => {
            let (l, r) = (ty(*lhs), ty(*rhs));
            if l != r {
                return Err(format!("{bb}: comparison with mixed types {l}/{r}"));
            }
            Ok(())
        }
        Op::Un { op: un, operand } => {
            let t = ty(*operand);
            let ok = match un {
                UnOp::Neg | UnOp::Abs => matches!(t, Type::I64 | Type::F64),
                UnOp::Not => matches!(t, Type::I64 | Type::Bool),
                UnOp::IntToFloat => t == Type::I64,
                UnOp::FloatToInt | UnOp::Sqrt => t == Type::F64,
            };
            if !ok {
                return Err(format!("{bb}: unop {} on {t}", un.mnemonic()));
            }
            Ok(())
        }
        Op::Phi { incomings, ty: phi_ty } => {
            for inc in incomings {
                if ty(inc.value) != *phi_ty {
                    return Err(format!(
                        "{bb}: phi incoming {} has type {}, expected {phi_ty}",
                        inc.value,
                        ty(inc.value)
                    ));
                }
            }
            Ok(())
        }
        Op::Gep { base, offset } => {
            if ty(*base) != Type::Ptr {
                return Err(format!("{bb}: gep base is {}", ty(*base)));
            }
            if ty(*offset) != Type::I64 {
                return Err(format!("{bb}: gep offset is {}", ty(*offset)));
            }
            Ok(())
        }
        Op::Load { addr, .. } => {
            if ty(*addr) != Type::Ptr {
                return Err(format!("{bb}: load address is {}", ty(*addr)));
            }
            Ok(())
        }
        Op::Store { addr, .. } => {
            if ty(*addr) != Type::Ptr {
                return Err(format!("{bb}: store address is {}", ty(*addr)));
            }
            Ok(())
        }
        Op::Alloca { size } | Op::Rand { bound: size } => {
            if ty(*size) != Type::I64 {
                return Err(format!("{bb}: size/bound operand is {}", ty(*size)));
            }
            Ok(())
        }
        Op::AtomicFetchAdd { delta, .. } => {
            if ty(*delta) != Type::I64 {
                return Err(format!("{bb}: fetch-add delta is {}", ty(*delta)));
            }
            Ok(())
        }
        Op::Br { cond, .. } => {
            if ty(*cond) != Type::Bool {
                return Err(format!("{bb}: branch condition is {}", ty(*cond)));
            }
            Ok(())
        }
        Op::Call { func: f, args, .. } => {
            let callee = module.func(*f);
            for (arg, expected) in args.iter().zip(&callee.params) {
                if ty(*arg) != *expected {
                    return Err(format!("{bb}: argument type mismatch calling `{}`", callee.name));
                }
            }
            Ok(())
        }
        Op::CallIndirect { table, selector, args, .. } => {
            if ty(*selector) != Type::I64 {
                return Err(format!("{bb}: indirect-call selector is {}", ty(*selector)));
            }
            let callee = module.func(module.tables[table.index()].funcs[0]);
            for (arg, expected) in args.iter().zip(&callee.params) {
                if ty(*arg) != *expected {
                    return Err(format!("{bb}: argument type mismatch in indirect call"));
                }
            }
            Ok(())
        }
        _ => Ok(()),
    }
}

/// Iterates over the value operands of this op (excluding phi incomings,
/// which require edge context; use [`Op::phi_incomings`] for those).
pub fn operands(op: &Op) -> Vec<ValueId> {
    match op {
        Op::Const(_)
        | Op::GlobalAddr(_)
        | Op::ThreadId
        | Op::NumThreads
        | Op::MutexLock(_)
        | Op::MutexUnlock(_)
        | Op::Barrier(_)
        | Op::Jump(_)
        | Op::Trap => Vec::new(),
        Op::Phi { incomings, .. } => incomings.iter().map(|inc| inc.value).collect(),
        Op::Bin { lhs, rhs, .. } | Op::Cmp { lhs, rhs, .. } => vec![*lhs, *rhs],
        Op::Un { operand, .. } => vec![*operand],
        Op::Gep { base, offset } => vec![*base, *offset],
        Op::Load { addr, .. } => vec![*addr],
        Op::Store { addr, value } => vec![*addr, *value],
        Op::Alloca { size } => vec![*size],
        Op::AtomicFetchAdd { delta, .. } => vec![*delta],
        Op::Call { args, .. } => args.clone(),
        Op::CallIndirect { selector, args, .. } => {
            let mut v = vec![*selector];
            v.extend_from_slice(args);
            v
        }
        Op::Output(v) => vec![*v],
        Op::Rand { bound } => vec![*bound],
        Op::Br { cond, .. } => vec![*cond],
        Op::Ret(v) => v.iter().copied().collect(),
    }
}
