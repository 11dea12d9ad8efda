//! Working below the front-end: build a program with the IR builder API,
//! inspect the textual IR and the analysis internals, and run it on both
//! execution engines.
//!
//! Run with: `cargo run -p blockwatch --example ir_pipeline`

use std::sync::Arc;

use blockwatch::ir::{CmpOp, FunctionBuilder, Module, ModulePrinter, Type, Val};
use blockwatch::vm::{Engine, ExecConfig, ProgramImage, RealEngine, SimEngine};
use blockwatch::Category;

fn main() {
    // Build: every thread checks `tid < limit` against a shared limit and
    // outputs its id if below.
    let mut module = Module::new("builder_demo");
    let limit = module.add_global("limit", Type::I64, Val::I64(3), true);

    let mut b = FunctionBuilder::new("slave", vec![], None);
    let tid = b.thread_id();
    let lim = b.load_global(&module, limit);
    let below = b.cmp(CmpOp::Lt, tid, lim);
    let then_bb = b.add_block("below");
    let done_bb = b.add_block("done");
    b.br(below, then_bb, done_bb);
    b.switch_to(then_bb);
    b.output(tid);
    b.jump(done_bb);
    b.switch_to(done_bb);
    b.ret(None);
    let slave = module.add_func(b.finish());
    module.spmd_entry = Some(slave);

    println!("== textual IR ==\n{}", ModulePrinter(&module));

    let image = ProgramImage::prepare_default(module);
    let branch = &image.analysis.branches[0];
    println!("branch category: {} (expected threadID)", branch.category);
    assert_eq!(branch.category, Category::ThreadId);
    let check = image.plan.check(branch.id).expect("instrumented");
    println!("runtime check: {:?}", check.kind);

    let sim = SimEngine.run(&image, &ExecConfig::new(8));
    println!("\nsimulated run, 8 threads: outputs {:?}", sim.outputs);

    let real = RealEngine.run(&Arc::new(image), &ExecConfig::new(8));
    println!("real-threads run, 8 threads: outputs {:?}", real.outputs);
    assert_eq!(sim.outputs, real.outputs);
    println!("\nboth engines agree; the prefix predicate held in both.");
}
