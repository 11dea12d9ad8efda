//! The allocation budget of the IR text path and of verification.
//!
//! Printing writes into one output: it may allocate only as that output
//! grows, never per instruction, so a module printed into a buffer with
//! room for it allocates nothing and `to_string` only for the `String`'s
//! doublings. Parsing allocates the module it builds — names, blocks,
//! instruction and value tables, phi and call operand lists — and nothing
//! per line beyond that. A function's CFG is two allocations, and the
//! verifier allocates per function (that CFG, the dominator tree) and per
//! module, never per block or instruction. The shared counting allocator
//! measures all of it over the seven ports and the generated modules
//! `prepare-pipeline` draws.

#[path = "../../../tests/support/counting.rs"]
mod counting;
mod reference;

use std::fmt::Write;

use bw_gen::{generate_module, GenConfig};
use bw_ir::{parse_module, verify_module, Cfg, Module, ModulePrinter};
use bw_splash::{Benchmark, Size};
use counting::{allocations, gate};

/// The seven ports at `Test` size and 64 generated modules at each of
/// `prepare-pipeline`'s four statement budgets.
fn corpus() -> Vec<Module> {
    let mut modules: Vec<Module> = Benchmark::ALL
        .iter()
        .map(|bench| bench.module(Size::Test).expect("the port compiles"))
        .collect();
    for max_stmts in [60, 120, 240, 480] {
        let config = GenConfig { max_stmts, ..GenConfig::default() };
        modules.extend((0..64).map(|seed| generate_module(seed, &config)));
    }
    modules
}

fn instructions(m: &Module) -> usize {
    m.funcs.iter().flat_map(|f| &f.blocks).map(|b| b.insts.len()).sum()
}

#[test]
fn printing_allocates_only_for_output_growth() {
    let (mut presized, mut tightest) = (0, (0, u64::MAX));
    for module in corpus() {
        let len = ModulePrinter(&module).to_string().len();
        let mut buffer = String::with_capacity(len);
        let (n, written) = allocations(|| write!(buffer, "{}", ModulePrinter(&module)));
        written.expect("a String takes any text");
        assert_eq!(n, 0, "`{}` allocated printing into a buffer with room", module.name);
        presized = presized.max(n);

        // `to_string` starts empty and doubles: one allocation, then one
        // per doubling from the first 8 bytes to `len`.
        let doublings = (len as f64 / 8.0).log2().ceil() as u64;
        let (n, _) = allocations(|| ModulePrinter(&module).to_string());
        assert!(n <= 1 + doublings, "`{}`: {n} allocations for {len} bytes", module.name);
        tightest = std::cmp::min_by_key(tightest, (n, 1 + doublings), |&(n, b)| b - n);
    }
    gate("ir.print.presized", presized, 0);
    gate("ir.print.to_string", tightest.0, tightest.1);
}

#[test]
fn parsing_allocates_for_the_module_it_builds() {
    let texts: Vec<(String, usize)> = corpus()
        .iter()
        .map(|m| (ModulePrinter(m).to_string(), instructions(m)))
        .collect();
    let insts: usize = texts.iter().map(|(_, n)| n).sum();
    let (mut new, mut old) = (0, 0);
    for (text, _) in &texts {
        let (n, parsed) = allocations(|| parse_module(text));
        parsed.expect("printed text parses");
        new += n;
        let (n, parsed) = allocations(|| reference::text::parse_module(text));
        parsed.expect("printed text parses");
        old += n;
    }
    let (per_inst, ref_per_inst) = (new as f64 / insts as f64, old as f64 / insts as f64);
    println!(
        "{} modules, {insts} instructions: {new} allocations ({per_inst:.3} an instruction), \
         {old} by the reference parser ({ref_per_inst:.3})",
        texts.len()
    );
    // Measured: 0.580 an instruction (30,415 over 52,415), against 0.710
    // for the reference, which grew every block's instruction list by
    // doubling and built its value table as a third vector.
    gate("ir.parse.per_instruction", per_inst, 0.61);
}

#[test]
fn a_cfg_is_two_allocations() {
    let mut most = 0;
    for module in corpus() {
        for func in &module.funcs {
            let (n, _) = allocations(|| Cfg::new(func));
            assert!(n <= 2, "`{}` in `{}`: {n} allocations", func.name, module.name);
            most = most.max(n);
        }
    }
    gate("ir.cfg", most, 2);
}

#[test]
fn verification_allocates_per_function_not_per_instruction() {
    let modules = corpus();
    let (mut new, mut old, mut tightest) = (0, 0, (0, u64::MAX));
    for module in &modules {
        let (n, verdict) = allocations(|| verify_module(module));
        verdict.expect("the corpus verifies");
        // The name set and the two block-mark tables; per function the
        // CFG's two arrays and the dominator tree's four (positions,
        // order, DFS stack, immediate dominators).
        let bound = 3 + 6 * module.funcs.len() as u64;
        assert!(n <= bound, "`{}`: {n} allocations, more than {bound}", module.name);
        tightest = std::cmp::min_by_key(tightest, (n, bound), |&(n, b)| b - n);
        new += n;
        let (n, _) = allocations(|| reference::verify::verify_module(module));
        old += n;
    }
    let (per_module, ref_per_module) =
        (new as f64 / modules.len() as f64, old as f64 / modules.len() as f64);
    println!(
        "{} modules: {new} allocations verifying ({per_module:.1} a module), {old} by the \
         reference verifier ({ref_per_module:.1})",
        modules.len()
    );
    // Measured: 22.9 a module (6,017 over 263), against 241.6 for the
    // reference, which built a `HashSet` per block with phis and per phi, a
    // `Vec` per instruction for its operands and per terminator for its
    // successors, and two per block for the CFG.
    gate("ir.verify", tightest.0, tightest.1);
    gate("ir.verify.per_module", per_module, 24.0);
}
