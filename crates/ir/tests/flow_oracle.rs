//! The flat CFG and the verifier that shares its control-flow facts,
//! against the pair they replaced.
//!
//! `reference/` keeps `cfg.rs` and `verify.rs` (with the `dom.rs` built on
//! that CFG) as they were before. Both sides must say the same of every
//! input: the same successor and predecessor lists for every block — order
//! and duplicates included, as `br v, bb1, bb1` makes them — and the same
//! verdict, `Ok` or the identical `VerifyError`, from `verify_module` and
//! from `verify_module_facts`, whose facts must be the CFG and dominator
//! tree the reference builds. The inputs are the seven SPLASH ports at all
//! three sizes, `bw-gen` seeds 0–1999 at the four statement budgets
//! `prepare-pipeline` draws from, and every parsable one-byte mutant of
//! `text_oracle.rs`'s sweep. No input may panic the new side.
//!
//! Debug builds thin the generated seeds and the mutated positions and
//! leave the ports out of the mutation sweep; `scripts/ci.sh bwir` runs this
//! file in the release profile.

mod reference;
mod sweep;

use std::panic::{catch_unwind, AssertUnwindSafe};

use bw_gen::{generate_module, GenConfig};
use bw_ir::{
    parse_module, verify_module, verify_module_facts, BlockId, Cfg, FlowFacts, Function,
    FunctionBuilder, Module, Op, Type, VerifyError,
};
use bw_splash::{Benchmark, Size};
use sweep::{mutants, mutation_inputs, BUDGETS, KITCHEN_SINK};

/// Demands equal successor and predecessor lists from both CFGs.
fn same_cfg(what: &str, func: &Function, new: &Cfg, old: &reference::cfg::Cfg) {
    assert_eq!(new.len(), old.len(), "{what}: `{}` block count", func.name);
    for b in 0..new.len() {
        let bb = BlockId::from_index(b);
        assert_eq!(new.succs(bb), old.succs(bb), "{what}: `{}` successors of {bb}", func.name);
        assert_eq!(new.preds(bb), old.preds(bb), "{what}: `{}` predecessors of {bb}", func.name);
    }
}

/// Whether every terminator of `func` names a block of it: the functions
/// the old CFG could be built for at all.
fn targets_in_range(func: &Function) -> bool {
    func.blocks.iter().filter_map(|b| b.terminator()).all(|t| match t.op {
        Op::Br { then_bb, else_bb, .. } => {
            then_bb.index() < func.blocks.len() && else_bb.index() < func.blocks.len()
        }
        Op::Jump(to) => to.index() < func.blocks.len(),
        _ => true,
    })
}

/// Demands that both sides agree on `module`; returns whether it verified.
fn agree(what: &str, module: &Module) -> bool {
    for func in module.funcs.iter().filter(|f| targets_in_range(f)) {
        let new = catch_unwind(|| Cfg::new(func))
            .unwrap_or_else(|_| panic!("{what}: the CFG of `{}` panicked", func.name));
        same_cfg(what, func, &new, &reference::cfg::Cfg::new(func));
    }

    let verdict = catch_unwind(|| verify_module(module))
        .unwrap_or_else(|_| panic!("{what}: verify_module panicked"));
    let facts = catch_unwind(|| verify_module_facts(module))
        .unwrap_or_else(|_| panic!("{what}: verify_module_facts panicked"));
    let old = catch_unwind(AssertUnwindSafe(|| reference::verify::verify_module(module)));
    // Where the old verifier panicked the new one must still answer; an
    // input the old one answered must get the same answer.
    if let Ok(old) = old {
        assert_eq!(verdict, old, "{what}: the verifiers disagree");
    }
    let facts_verdict: Result<(), VerifyError> = facts.as_ref().map(drop).map_err(Clone::clone);
    assert_eq!(facts_verdict, verdict, "{what}: verify_module_facts and verify_module disagree");

    let Ok(facts) = facts else { return false };
    assert_eq!(facts.len(), module.funcs.len(), "{what}: one FlowFacts per function");
    for (func, facts) in module.funcs.iter().zip(&facts) {
        let old = reference::cfg::Cfg::new(func);
        same_cfg(what, func, &facts.cfg, &old);
        let old_dom = reference::dom::DomTree::new(&old, func.entry());
        assert_eq!(
            facts.dom.reverse_postorder(),
            old_dom.reverse_postorder(),
            "{what}: `{}` reverse postorder",
            func.name
        );
        for b in 0..func.blocks.len() {
            let bb = BlockId::from_index(b);
            let name = &func.name;
            assert_eq!(facts.dom.idom(bb), old_dom.idom(bb), "{what}: `{name}` idom of {bb}");
        }
        let rebuilt = FlowFacts::new(func);
        assert_eq!(
            format!("{:?}", rebuilt.loops),
            format!("{:?}", facts.loops),
            "{what}: `{}` loop forest",
            func.name
        );
    }
    true
}

#[test]
fn the_ports_agree_at_every_size() {
    for bench in Benchmark::ALL {
        for size in [Size::Test, Size::Small, Size::Reference] {
            let module = bench.module(size).expect("the port compiles");
            assert!(agree(&format!("{} {size:?}", bench.name()), &module));
        }
    }
}

#[test]
fn generated_modules_agree_at_every_budget() {
    let stride = if cfg!(debug_assertions) { 20 } else { 1 };
    for max_stmts in BUDGETS {
        let config = GenConfig { max_stmts, ..GenConfig::default() };
        for seed in (0..2000u64).step_by(stride) {
            let what = format!("seed {seed} at {max_stmts}");
            assert!(agree(&what, &generate_module(seed, &config)), "{what} verifies");
        }
    }
}

#[test]
fn every_parsable_one_byte_mutant_agrees() {
    let (mut parsed, mut verified) = (0, 0);
    for (what, text, stride) in &mutation_inputs() {
        for mutant in mutants(text, *stride) {
            let Ok(module) = parse_module(&mutant) else { continue };
            parsed += 1;
            verified += usize::from(agree(&format!("{what}, mutant\n{mutant}"), &module));
        }
    }
    println!("{parsed} mutants parse, {verified} of them verify");
    // Most parsable mutants are the unmutated module again (a doubled line
    // break or space); some are not, and the verifier rejects them.
    assert!(verified > 0 && verified < parsed, "{verified} of {parsed} parsable mutants verify");
}

/// A function whose entry branches to `bb1` on both arms: `bb1` is a
/// successor twice and the entry a predecessor of `bb1` twice; a phi there
/// has one incoming per predecessor block, not per edge.
fn double_edge(incomings: usize) -> Module {
    let mut b = FunctionBuilder::new("f", vec![Type::Bool], None);
    let cond = b.param(0);
    let entry = b.current_block();
    let next = b.add_block("next");
    let one = b.const_i64(1);
    b.br(cond, next, next);
    b.switch_to(next);
    b.phi(Type::I64, vec![(entry, one); incomings]);
    b.ret(None);
    let mut m = Module::new("t");
    m.add_func(b.finish());
    m
}

#[test]
fn a_doubled_edge_is_listed_twice() {
    let m = double_edge(1);
    assert!(agree("double edge", &m));
    let cfg = Cfg::new(&m.funcs[0]);
    assert_eq!(cfg.succs(BlockId(0)), &[BlockId(1), BlockId(1)]);
    assert_eq!(cfg.preds(BlockId(1)), &[BlockId(0), BlockId(0)]);
    assert_eq!(cfg.preds(BlockId(0)), &[] as &[BlockId]);

    let m = double_edge(2);
    assert!(!agree("double edge, phi incoming twice", &m));
    let err = verify_module(&m).unwrap_err();
    assert!(err.message.contains("duplicate incoming from bb0"), "{err}");
}

#[test]
fn a_block_out_of_range_is_a_verify_error() {
    // A branch target past the last block, and a phi incoming from one.
    let mut jump = double_edge(1);
    let entry = &mut jump.funcs[0].blocks[0];
    entry.insts.last_mut().expect("terminated").op = Op::Jump(BlockId(7));
    assert!(!agree("jump out of range", &jump));
    let err = verify_module(&jump).unwrap_err();
    assert!(err.message.contains("branch target bb7 out of range"), "{err}");

    let mut phi = double_edge(1);
    let Op::Phi { incomings, .. } = &mut phi.funcs[0].blocks[1].insts[0].op else {
        panic!("bb1 starts with its phi")
    };
    incomings[0].block = BlockId(9);
    assert!(!agree("phi incoming out of range", &phi));
    let err = verify_module(&phi).unwrap_err();
    assert!(err.message.contains("incoming from non-predecessor bb9"), "{err}");
}

#[test]
fn the_kitchen_sink_agrees() {
    // Every construct of the grammar, but not well-typed SSA.
    let module = parse_module(KITCHEN_SINK).expect("the kitchen sink parses");
    assert!(!agree("kitchen sink", &module));
}
