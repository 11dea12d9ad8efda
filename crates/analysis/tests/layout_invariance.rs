//! Regression test: analysis results must not depend on module layout.
//!
//! Pointer-typed parameters are seeded `Unknown` provenance *before* the
//! interprocedural provenance fixpoint. An earlier version seeded them
//! after the loop, so a callee declared before its caller could reach the
//! fixpoint with a different (more precise, layout-dependent) provenance
//! than the same callee declared after it. This builds the same logical
//! program in both declaration orders and requires identical results.

use bw_analysis::{Category, ModuleAnalysis};
use bw_ir::{FuncId, FunctionBuilder, Module, Op, Type, Val, ValueId};

/// Builds `helper(p: ptr) { v = *p; if (v < lim) output(v); }` —
/// its branch depends on the provenance seeded for the pointer param.
fn build_helper(module: &mut Module, lim: bw_ir::GlobalId) -> bw_ir::Function {
    let mut b = FunctionBuilder::new("helper", vec![Type::Ptr], None);
    let p = ValueId::from_index(0);
    let v = b.load(p, Type::I64);
    let bound = b.load_global(module, lim);
    let c = b.cmp(bw_ir::CmpOp::Lt, v, bound);
    let then_bb = b.add_block("then");
    let exit_bb = b.add_block("exit");
    b.br(c, then_bb, exit_bb);
    b.switch_to(then_bb);
    b.output(v);
    b.jump(exit_bb);
    b.switch_to(exit_bb);
    b.ret(None);
    b.finish()
}

/// Builds `slave() { helper(&buf[tid]); helper(&buf[0]); }`, calling a
/// helper that will live at `helper_id` (possibly not yet declared — the
/// call op is emitted directly to allow a forward reference).
fn build_slave(
    module: &mut Module,
    buf: bw_ir::GlobalId,
    helper_id: FuncId,
) -> bw_ir::Function {
    let mut b = FunctionBuilder::new("slave", vec![], None);
    let base = b.global_addr(buf);
    let tid = b.thread_id();
    let p1 = b.gep(base, tid);
    let site = module.new_call_site();
    b.emit(Op::Call { func: helper_id, args: vec![p1], site }, None);
    let zero = b.const_i64(0);
    let p2 = b.gep(base, zero);
    let site = module.new_call_site();
    b.emit(Op::Call { func: helper_id, args: vec![p2], site }, None);
    b.ret(None);
    b.finish()
}

/// The same program with the two possible function declaration orders.
fn build(helper_first: bool) -> Module {
    let mut module = Module::new("layout");
    let lim = module.add_global("lim", Type::I64, Val::I64(8), true);
    let buf = module.add_array("buf", Type::I64, 16, Val::I64(0), true);
    let (helper_id, slave_id) = if helper_first {
        (FuncId::from_index(0), FuncId::from_index(1))
    } else {
        (FuncId::from_index(1), FuncId::from_index(0))
    };
    let helper = build_helper(&mut module, lim);
    let slave = build_slave(&mut module, buf, helper_id);
    if helper_first {
        module.add_func(helper);
        module.add_func(slave);
    } else {
        module.add_func(slave);
        module.add_func(helper);
    }
    module.spmd_entry = Some(slave_id);
    bw_ir::verify_module(&module).expect("layout test module must verify");
    module
}

/// Per-value categories of the named function, position-aligned (the
/// function body is identical in both layouts, so ValueIds line up).
fn cats_of(module: &Module, analysis: &ModuleAnalysis, name: &str) -> Vec<Category> {
    let f = module.func_by_name(name).unwrap();
    (0..module.func(f).num_values())
        .map(|i| analysis.value_category(f, ValueId::from_index(i)))
        .collect()
}

#[test]
fn analysis_is_function_order_invariant() {
    let m_a = build(true);
    let m_b = build(false);
    let a = ModuleAnalysis::run(&m_a);
    let b = ModuleAnalysis::run(&m_b);

    for name in ["helper", "slave"] {
        assert_eq!(
            cats_of(&m_a, &a, name),
            cats_of(&m_b, &b, name),
            "per-value categories of `{name}` depend on declaration order"
        );
    }

    // Branch categories, keyed by owning function name so the comparison
    // survives the FuncId renumbering.
    let branch_cats = |m: &Module, an: &ModuleAnalysis| {
        let mut v: Vec<(String, Category)> = an
            .branches
            .iter()
            .map(|br| (m.func(br.func).name.clone(), br.category))
            .collect();
        v.sort();
        v
    };
    assert_eq!(branch_cats(&m_a, &a), branch_cats(&m_b, &b));
}
