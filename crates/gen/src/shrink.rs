//! Greedy, verifier-gated test-case minimization.
//!
//! Given a module and a predicate that holds on it ("still fails"), the
//! shrinker repeatedly tries structural reductions — dropping instructions,
//! resolving conditional branches to one arm, deleting unreferenced
//! functions and the init/fini roles, and simplifying result-producing
//! instructions to plain constants — keeping any candidate that still
//! verifies *and* still satisfies the predicate. Candidates are produced by
//! rebuilding the function with dense value/block renumbering, so every
//! intermediate module remains printable and re-parsable (the textual
//! format requires dense `vN`/`bbN` numbering).

use bw_ir::{
    verify_module, Block, BlockId, FuncId, Function, Inst, Module, Op, PhiIncoming, Type, Val,
    ValueDef, ValueId,
};

/// Minimizes `module` while `failing` keeps returning `true`.
///
/// `failing` must hold on the input module; if it does not, the input is
/// returned unchanged. Every module handed to `failing` passes
/// [`verify_module`]. The result is a fixed point: no single reduction the
/// shrinker knows about can be applied to it without losing the failure.
pub fn shrink<F: FnMut(&Module) -> bool>(module: &Module, mut failing: F) -> Module {
    let mut cur = module.clone();
    if !failing(&cur) {
        return cur;
    }
    loop {
        match step(&cur, &mut failing) {
            Some(smaller) => cur = smaller,
            None => return cur,
        }
    }
}

/// Tries every known reduction on `cur`, returning the first accepted one.
fn step<F: FnMut(&Module) -> bool>(cur: &Module, failing: &mut F) -> Option<Module> {
    let accept = |cand: Module, failing: &mut F| -> Option<Module> {
        (verify_module(&cand).is_ok()
            && cand.funcs.iter().all(all_blocks_reach_exit)
            && failing(&cand))
        .then_some(cand)
    };

    // Drop the init / fini roles (their functions then become removable).
    for role in [RoleSlot::Init, RoleSlot::Fini] {
        let mut cand = cur.clone();
        let slot = match role {
            RoleSlot::Init => &mut cand.init,
            RoleSlot::Fini => &mut cand.fini,
        };
        if slot.take().is_some() {
            if let Some(m) = accept(cand, failing) {
                return Some(m);
            }
        }
    }

    // Remove whole unreferenced functions.
    for fi in (0..cur.funcs.len()).rev() {
        if let Some(cand) = remove_function(cur, fi) {
            if let Some(m) = accept(cand, failing) {
                return Some(m);
            }
        }
    }

    // Resolve a conditional branch to one of its arms (unreachable blocks
    // and severed phi edges are cleaned up in the rebuild).
    for (fi, f) in cur.funcs.iter().enumerate() {
        for (bi, block) in f.blocks.iter().enumerate() {
            let Some(&Inst { op: Op::Br { then_bb, else_bb, .. }, .. }) = block.insts.last()
            else {
                continue;
            };
            for target in [then_bb, else_bb] {
                if let Some(nf) = resolve_branch(f, bi, target) {
                    let mut cand = cur.clone();
                    cand.funcs[fi] = nf;
                    if let Some(m) = accept(cand, failing) {
                        return Some(m);
                    }
                }
            }
        }
    }

    // Merge straight-line block chains: a block whose unconditional jump is
    // the only way into its target absorbs the target wholesale. Without
    // this pass every surviving block pins a jump terminator, so chain-heavy
    // repros bottom out at 2–3 instructions *per block* no matter how much
    // the other passes remove.
    for (fi, f) in cur.funcs.iter().enumerate() {
        for bi in 0..f.blocks.len() {
            if let Some(nf) = merge_chain(f, bi) {
                let mut cand = cur.clone();
                cand.funcs[fi] = nf;
                if let Some(m) = accept(cand, failing) {
                    return Some(m);
                }
            }
        }
    }

    // Remove a single non-terminator instruction. Rebuilding fails (and the
    // candidate is skipped) when the removed value is still used.
    for (fi, f) in cur.funcs.iter().enumerate() {
        for bi in 0..f.blocks.len() {
            for ii in (0..f.blocks[bi].insts.len()).rev() {
                if f.blocks[bi].insts[ii].op.is_terminator() {
                    continue;
                }
                let keep = vec![true; f.blocks.len()];
                if let Some(nf) = rebuild(f, &keep, Some((bi, ii))) {
                    let mut cand = cur.clone();
                    cand.funcs[fi] = nf;
                    if let Some(m) = accept(cand, failing) {
                        return Some(m);
                    }
                }
            }
        }
    }

    // Simplify a result-producing instruction to a constant of its type.
    // This does not shrink the instruction count by itself, but it severs
    // the instruction's operand uses, letting the removal passes above
    // delete whole now-dead computation chains on later iterations —
    // repros whose failure only needs *a* value, not the computed one,
    // drop below the floor that operand chains would otherwise pin.
    // Each acceptance turns one non-const instruction into a const, so
    // the pass contributes only finitely many steps to the fixed point.
    for (fi, f) in cur.funcs.iter().enumerate() {
        for (bi, block) in f.blocks.iter().enumerate() {
            for (ii, inst) in block.insts.iter().enumerate() {
                if inst.result.is_none() || matches!(inst.op, Op::Const(_)) {
                    continue;
                }
                for val in candidate_consts(inst.ty) {
                    let mut cand = cur.clone();
                    cand.funcs[fi].blocks[bi].insts[ii].op = Op::Const(val);
                    if let Some(m) = accept(cand, failing) {
                        return Some(m);
                    }
                }
            }
        }
    }

    None
}

/// The constants the operand-to-constant pass tries, smallest first, for a
/// result of type `ty`. Pointers are never constant-folded: a forged
/// address cannot round-trip through the textual format.
fn candidate_consts(ty: Option<Type>) -> Vec<Val> {
    match ty {
        Some(Type::I64) => vec![Val::I64(0), Val::I64(1), Val::I64(2)],
        Some(Type::F64) => vec![Val::F64(0.0), Val::F64(1.0)],
        Some(Type::Bool) => vec![Val::Bool(false), Val::Bool(true)],
        _ => Vec::new(),
    }
}

enum RoleSlot {
    Init,
    Fini,
}

/// Whether every reachable block can still reach a `ret`/`trap`. Resolving
/// a loop-header branch to its back-edge arm produces a structurally valid
/// but obviously non-terminating function; rejecting those statically saves
/// the predicate a full hung simulation per candidate.
fn all_blocks_reach_exit(f: &Function) -> bool {
    let n = f.blocks.len();
    // Blocks from which an exit terminator is reachable (reverse walk).
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut exits = Vec::new();
    for (bi, block) in f.blocks.iter().enumerate() {
        match block.terminator() {
            Some(t) if t.op.successors().next().is_none() => exits.push(bi),
            Some(t) => {
                for succ in t.op.successors() {
                    preds[succ.index()].push(bi);
                }
            }
            None => return false,
        }
    }
    let mut reaches_exit = vec![false; n];
    while let Some(b) = exits.pop() {
        if std::mem::replace(&mut reaches_exit[b], true) {
            continue;
        }
        exits.extend(&preds[b]);
    }
    // Forward reachability from the entry.
    let mut reachable = vec![false; n];
    let mut stack = vec![0usize];
    while let Some(b) = stack.pop() {
        if std::mem::replace(&mut reachable[b], true) {
            continue;
        }
        if let Some(t) = f.blocks[b].terminator() {
            stack.extend(t.op.successors().map(|s| s.index()));
        }
    }
    (0..n).all(|b| !reachable[b] || reaches_exit[b])
}

/// Merges block `bi`'s unconditional jump target into `bi` when the target
/// has exactly one incoming edge and carries no phis. The target's
/// instructions keep their order (dominance is preserved: `bi` was the
/// target's only predecessor), phi incomings in the target's successors are
/// re-pointed at the merged block, and the emptied target is dropped by the
/// rebuild.
fn merge_chain(f: &Function, bi: usize) -> Option<Function> {
    let Some(&Inst { op: Op::Jump(target), .. }) = f.blocks[bi].insts.last() else {
        return None;
    };
    let ti = target.index();
    if ti == 0 || ti == bi {
        return None;
    }
    // Count *edges*, not predecessor blocks: a `Br` with both arms on the
    // target contributes two, and such a target cannot be absorbed.
    let incoming = f
        .blocks
        .iter()
        .filter_map(|b| b.terminator())
        .flat_map(|t| t.op.successors())
        .filter(|s| s.index() == ti)
        .count();
    if incoming != 1 {
        return None;
    }
    if f.blocks[ti].insts.iter().any(|i| matches!(i.op, Op::Phi { .. })) {
        return None;
    }
    let mut nf = f.clone();
    nf.blocks[bi].insts.pop(); // the jump into the target
    let moved = std::mem::take(&mut nf.blocks[ti].insts);
    nf.blocks[bi].insts.extend(moved);
    // Edges that used to leave the target now leave the merged block.
    let merged = BlockId::from_index(bi);
    for block in &mut nf.blocks {
        for inst in &mut block.insts {
            if let Op::Phi { incomings, .. } = &mut inst.op {
                for inc in incomings {
                    if inc.block == target {
                        inc.block = merged;
                    }
                }
            }
        }
    }
    let mut keep = vec![true; nf.blocks.len()];
    keep[ti] = false;
    rebuild(&nf, &keep, None)
}

/// Removes `funcs[fi]` if nothing references it, remapping later `FuncId`s.
fn remove_function(m: &Module, fi: usize) -> Option<Module> {
    let fid = FuncId::from_index(fi);
    let referenced = [m.init, m.spmd_entry, m.fini].contains(&Some(fid))
        || m.tables.iter().any(|t| t.funcs.contains(&fid))
        || m.funcs.iter().any(|f| {
            f.blocks
                .iter()
                .flat_map(|b| &b.insts)
                .any(|i| matches!(i.op, Op::Call { func, .. } if func == fid))
        });
    if referenced {
        return None;
    }
    let remap = |id: FuncId| if id.index() > fi { FuncId::from_index(id.index() - 1) } else { id };
    let mut out = m.clone();
    out.funcs.remove(fi);
    for t in &mut out.tables {
        for f in &mut t.funcs {
            *f = remap(*f);
        }
    }
    for slot in [&mut out.init, &mut out.spmd_entry, &mut out.fini] {
        *slot = slot.map(remap);
    }
    for f in &mut out.funcs {
        for b in &mut f.blocks {
            for i in &mut b.insts {
                if let Op::Call { func, .. } = &mut i.op {
                    *func = remap(*func);
                }
            }
        }
    }
    Some(out)
}

/// Replaces the `Br` terminating block `bi` with `Jump(target)`, prunes phi
/// incomings along severed edges, and drops blocks that become unreachable.
fn resolve_branch(f: &Function, bi: usize, target: BlockId) -> Option<Function> {
    let mut nf = f.clone();
    let term = nf.blocks[bi].insts.last_mut()?;
    term.op = Op::Jump(target);

    // Prune phi incomings whose edge no longer exists.
    let mut edges: Vec<(usize, BlockId)> = Vec::new();
    for (src, block) in nf.blocks.iter().enumerate() {
        if let Some(t) = block.terminator() {
            for succ in t.op.successors() {
                edges.push((src, succ));
            }
        }
    }
    for di in 0..nf.blocks.len() {
        let dst = BlockId::from_index(di);
        for inst in &mut nf.blocks[di].insts {
            if let Op::Phi { incomings, .. } = &mut inst.op {
                incomings.retain(|inc| edges.contains(&(inc.block.index(), dst)));
            }
        }
    }

    // Drop unreachable blocks.
    let mut reachable = vec![false; nf.blocks.len()];
    let mut stack = vec![0usize];
    while let Some(b) = stack.pop() {
        if std::mem::replace(&mut reachable[b], true) {
            continue;
        }
        if let Some(t) = nf.blocks[b].terminator() {
            for succ in t.op.successors() {
                stack.push(succ.index());
            }
        }
    }
    rebuild(&nf, &reachable, None)
}

/// Rebuilds `f` keeping only the blocks where `keep_block` is true and
/// skipping the instruction at `skip_inst` (`(block index, inst index)`),
/// renumbering values and blocks densely. Returns `None` when the result
/// would be malformed — entry removed, or a kept instruction still uses a
/// dropped value.
fn rebuild(
    f: &Function,
    keep_block: &[bool],
    skip_inst: Option<(usize, usize)>,
) -> Option<Function> {
    if !keep_block.first().copied().unwrap_or(false) {
        return None;
    }
    let nparams = f.params.len();
    let mut block_map: Vec<Option<BlockId>> = vec![None; f.blocks.len()];
    let mut next_block = 0;
    for (i, &k) in keep_block.iter().enumerate() {
        if k {
            block_map[i] = Some(BlockId::from_index(next_block));
            next_block += 1;
        }
    }
    let kept = |bi: usize, ii: usize| keep_block[bi] && skip_inst != Some((bi, ii));

    let mut value_map: Vec<Option<ValueId>> = vec![None; f.num_values()];
    let mut next_val = 0;
    for slot in value_map.iter_mut().take(nparams) {
        *slot = Some(ValueId::from_index(next_val));
        next_val += 1;
    }
    for (bi, block) in f.blocks.iter().enumerate() {
        for (ii, inst) in block.insts.iter().enumerate() {
            if kept(bi, ii) {
                if let Some(r) = inst.result {
                    value_map[r.index()] = Some(ValueId::from_index(next_val));
                    next_val += 1;
                }
            }
        }
    }

    let mut out = Function {
        name: f.name.clone(),
        params: f.params.clone(),
        ret: f.ret,
        blocks: Vec::new(),
        defs: (0..nparams).map(ValueDef::Param).collect(),
        value_types: f.params.clone(),
    };
    for (bi, block) in f.blocks.iter().enumerate() {
        if !keep_block[bi] {
            continue;
        }
        let new_block = BlockId::from_index(out.blocks.len());
        let mut insts = Vec::new();
        for (ii, inst) in block.insts.iter().enumerate() {
            if !kept(bi, ii) {
                continue;
            }
            let op = remap_op(&inst.op, &value_map, &block_map)?;
            let result = match inst.result {
                Some(r) => {
                    let nr = value_map[r.index()]?;
                    out.defs.push(ValueDef::Inst { block: new_block, inst_index: insts.len() });
                    out.value_types.push(inst.ty?);
                    Some(nr)
                }
                None => None,
            };
            insts.push(Inst { op, result, ty: inst.ty });
        }
        out.blocks.push(Block { insts, name: block.name.clone() });
    }
    Some(out)
}

/// Rewrites every value/block reference in `op` through the maps. Phi
/// incomings from dropped blocks are removed (their edge is gone); any
/// other reference to a dropped value or block fails the rebuild.
fn remap_op(
    op: &Op,
    vmap: &[Option<ValueId>],
    bmap: &[Option<BlockId>],
) -> Option<Op> {
    let v = |id: ValueId| vmap.get(id.index()).copied().flatten();
    let b = |id: BlockId| bmap.get(id.index()).copied().flatten();
    Some(match op {
        Op::Const(val) => Op::Const(*val),
        Op::Bin { op, lhs, rhs } => Op::Bin { op: *op, lhs: v(*lhs)?, rhs: v(*rhs)? },
        Op::Cmp { op, lhs, rhs } => Op::Cmp { op: *op, lhs: v(*lhs)?, rhs: v(*rhs)? },
        Op::Un { op, operand } => Op::Un { op: *op, operand: v(*operand)? },
        Op::Phi { incomings, ty } => {
            let mut mapped = Vec::new();
            for inc in incomings {
                let Some(block) = b(inc.block) else { continue };
                mapped.push(PhiIncoming { block, value: v(inc.value)? });
            }
            if mapped.is_empty() {
                return None;
            }
            Op::Phi { incomings: mapped, ty: *ty }
        }
        Op::GlobalAddr(g) => Op::GlobalAddr(*g),
        Op::Gep { base, offset } => Op::Gep { base: v(*base)?, offset: v(*offset)? },
        Op::Load { addr, ty } => Op::Load { addr: v(*addr)?, ty: *ty },
        Op::Store { addr, value } => Op::Store { addr: v(*addr)?, value: v(*value)? },
        Op::Alloca { size } => Op::Alloca { size: v(*size)? },
        Op::ThreadId => Op::ThreadId,
        Op::NumThreads => Op::NumThreads,
        Op::AtomicFetchAdd { global, delta } => {
            Op::AtomicFetchAdd { global: *global, delta: v(*delta)? }
        }
        Op::Call { func, args, site } => Op::Call {
            func: *func,
            args: args.iter().map(|a| v(*a)).collect::<Option<_>>()?,
            site: *site,
        },
        Op::CallIndirect { table, selector, args, site } => Op::CallIndirect {
            table: *table,
            selector: v(*selector)?,
            args: args.iter().map(|a| v(*a)).collect::<Option<_>>()?,
            site: *site,
        },
        Op::Output(x) => Op::Output(v(*x)?),
        Op::MutexLock(m) => Op::MutexLock(*m),
        Op::MutexUnlock(m) => Op::MutexUnlock(*m),
        Op::Barrier(bar) => Op::Barrier(*bar),
        Op::Rand { bound } => Op::Rand { bound: v(*bound)? },
        Op::Br { cond, then_bb, else_bb } => {
            Op::Br { cond: v(*cond)?, then_bb: b(*then_bb)?, else_bb: b(*else_bb)? }
        }
        Op::Jump(t) => Op::Jump(b(*t)?),
        Op::Ret(x) => Op::Ret(match x {
            Some(x) => Some(v(*x)?),
            None => None,
        }),
        Op::Trap => Op::Trap,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bw_ir::{CmpOp, FunctionBuilder};

    fn branchy_module() -> Module {
        let mut m = Module::new("shrinkme");
        let mut b = FunctionBuilder::new("spmd", vec![], None);
        let tid = b.thread_id();
        let zero = b.const_i64(0);
        let dead = b.const_i64(42);
        let _dead2 = b.bin(bw_ir::BinOp::Add, dead, dead);
        let c = b.cmp(CmpOp::Eq, tid, zero);
        let t = b.add_block("t");
        let e = b.add_block("e");
        let j = b.add_block("j");
        b.br(c, t, e);
        b.switch_to(t);
        let x = b.const_i64(1);
        b.output(x);
        b.jump(j);
        b.switch_to(e);
        let y = b.const_i64(2);
        b.output(y);
        b.jump(j);
        b.switch_to(j);
        b.ret(None);
        let spmd = m.add_func(b.finish());
        m.spmd_entry = Some(spmd);
        verify_module(&m).unwrap();
        m
    }

    #[test]
    fn shrinks_to_fixed_point_preserving_predicate() {
        let m = branchy_module();
        // Predicate: the module still outputs something on some path (has an
        // Output instruction at all).
        let has_output = |m: &Module| {
            m.funcs
                .iter()
                .flat_map(|f| f.blocks.iter().flat_map(|b| &b.insts))
                .any(|i| matches!(i.op, Op::Output(_)))
        };
        let small = shrink(&m, has_output);
        assert!(has_output(&small));
        assert!(verify_module(&small).is_ok());
        assert!(small.num_insts() < m.num_insts());
        // The branch resolves to one arm, dead consts go, and the
        // block-merging pass collapses the surviving jump chain: a single
        // block holding const + output + ret.
        assert_eq!(small.num_branches(), 0);
        assert_eq!(small.funcs[0].blocks.len(), 1, "chain did not merge");
        assert_eq!(small.num_insts(), 3, "got {}", small.num_insts());
    }

    #[test]
    fn straight_line_jump_chains_merge_to_one_block() {
        // A chain of trivial blocks linked by unconditional jumps: each
        // block's jump terminator is irremovable on its own, so without the
        // merging pass this repro is stuck at four blocks forever.
        let mut m = Module::new("chainy");
        let mut b = FunctionBuilder::new("spmd", vec![], None);
        let b1 = b.add_block("b1");
        let b2 = b.add_block("b2");
        let b3 = b.add_block("b3");
        b.jump(b1);
        b.switch_to(b1);
        let x = b.const_i64(7);
        b.jump(b2);
        b.switch_to(b2);
        b.output(x);
        b.jump(b3);
        b.switch_to(b3);
        b.ret(None);
        let spmd = m.add_func(b.finish());
        m.spmd_entry = Some(spmd);
        verify_module(&m).unwrap();

        let has_output = |m: &Module| {
            m.funcs
                .iter()
                .flat_map(|f| f.blocks.iter().flat_map(|b| &b.insts))
                .any(|i| matches!(i.op, Op::Output(_)))
        };
        let small = shrink(&m, has_output);
        assert!(has_output(&small));
        assert!(verify_module(&small).is_ok());
        assert_eq!(small.funcs[0].blocks.len(), 1, "chain did not merge");
        // const + output + ret.
        assert_eq!(small.num_insts(), 3, "got {}", small.num_insts());
    }

    #[test]
    fn const_simplification_breaks_operand_chains() {
        // `output(threadid() + numthreads())`: the output's operand chain
        // pins three instructions, so pure removal bottoms out at 5
        // (threadid, numthreads, add, output, ret). The constant pass
        // replaces the add with a literal, the chain dies, and the repro
        // drops below that floor.
        let mut m = Module::new("constfold");
        let mut b = FunctionBuilder::new("spmd", vec![], None);
        let t = b.thread_id();
        let n = b.num_threads();
        let x = b.add(t, n);
        b.output(x);
        b.ret(None);
        let spmd = m.add_func(b.finish());
        m.spmd_entry = Some(spmd);
        verify_module(&m).unwrap();

        let has_output = |m: &Module| {
            m.funcs
                .iter()
                .flat_map(|f| f.blocks.iter().flat_map(|b| &b.insts))
                .any(|i| matches!(i.op, Op::Output(_)))
        };
        let small = shrink(&m, has_output);
        assert!(has_output(&small));
        assert!(verify_module(&small).is_ok());
        // const + output + ret.
        assert_eq!(small.num_insts(), 3, "got {}", small.num_insts());
    }

    #[test]
    fn non_failing_input_is_returned_unchanged() {
        let m = branchy_module();
        let out = shrink(&m, |_| false);
        assert_eq!(out, m);
    }
}
