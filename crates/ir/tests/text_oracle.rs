//! The one-buffer printer and the one-pass parser against the pair they
//! replaced.
//!
//! `reference/` keeps `print.rs` and `text.rs` as they were before (with the
//! parser fixes both sides carry, listed there). Both pairs must say the same
//! of every input: the printers the same text, byte for byte, of every module
//! and of every function on its own; the parsers the same `Module`, or the
//! same `TextError`, line and message. The inputs are the seven SPLASH ports
//! at all three sizes, `bw-gen` seeds 0–1999 at the four statement budgets
//! `prepare-pipeline` draws from, a module that uses every construct of the
//! grammar, and every deletion, duplication and grammar-byte substitution of
//! printed modules.
//!
//! Debug builds thin the generated seeds and the mutated positions and
//! leave the ports out of the mutation sweep; `scripts/ci.sh bwir` runs this
//! file in the release profile (about a minute).

mod reference;
mod sweep;

use bw_gen::{generate_module, GenConfig};
use bw_ir::{parse_module, FunctionPrinter, Module, ModulePrinter};
use sweep::{mutants, mutation_inputs, BUDGETS, KITCHEN_SINK};
use bw_splash::{Benchmark, Size};

/// Demands that both printers write `module` alike, function by function
/// too, and that both parsers read the text back into `module`.
fn agree(what: &str, module: &Module) -> String {
    let text = ModulePrinter(module).to_string();
    assert_eq!(text, reference::print::ModulePrinter(module).to_string(), "{what}");
    for func in &module.funcs {
        assert_eq!(
            FunctionPrinter(func).to_string(),
            reference::print::FunctionPrinter(func).to_string(),
            "{what}: function `{}`",
            func.name
        );
    }
    let parsed = parse_module(&text);
    assert_eq!(parsed, reference::text::parse_module(&text), "{what}");
    assert_eq!(parsed.as_ref(), Ok(module), "{what}");
    text
}

#[test]
fn the_ports_print_and_parse_alike_at_every_size() {
    for bench in Benchmark::ALL {
        for size in [Size::Test, Size::Small, Size::Reference] {
            let module = bench.module(size).expect("the port compiles");
            agree(&format!("{} {size:?}", bench.name()), &module);
        }
    }
}

#[test]
fn generated_modules_print_and_parse_alike_at_every_budget() {
    let stride = if cfg!(debug_assertions) { 20 } else { 1 };
    for max_stmts in BUDGETS {
        let config = GenConfig { max_stmts, ..GenConfig::default() };
        for seed in (0..2000u64).step_by(stride) {
            agree(&format!("seed {seed} at {max_stmts}"), &generate_module(seed, &config));
        }
    }
}

#[test]
fn the_kitchen_sink_is_printer_output() {
    let module = parse_module(KITCHEN_SINK).expect("the kitchen sink parses");
    assert_eq!(agree("kitchen sink", &module), KITCHEN_SINK);
}

/// Parses every mutant of `text` with both parsers and demands the same
/// result; returns how many parsed.
fn sweep(what: &str, text: &str, stride: usize) -> (usize, usize) {
    let (mut total, mut parsed) = (0, 0);
    for mutant in mutants(text, stride) {
        let new = std::panic::catch_unwind(|| parse_module(&mutant))
            .unwrap_or_else(|_| panic!("{what}: the parser panicked on\n{mutant}"));
        let old = reference::text::parse_module(&mutant);
        if new != old {
            panic!("{what}: the parsers disagree on\n{mutant}\nnew: {new:?}\nold: {old:?}");
        }
        total += 1;
        parsed += usize::from(new.is_ok());
    }
    (total, parsed)
}

#[test]
fn every_one_byte_mutant_parses_alike() {
    let (mut total, mut parsed) = (0, 0);
    for (what, text, stride) in &mutation_inputs() {
        let (n, ok) = sweep(what, text, *stride);
        total += n;
        parsed += ok;
    }
    println!("{total} mutants, {parsed} of them parse");
    // A duplicated line break, a space that becomes one, and the like parse;
    // nearly everything else is an error, positioned alike by both.
    assert!(parsed > 0 && parsed < total / 2, "{parsed} of {total} mutants parse");
}
