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

use bw_gen::{generate_module, GenConfig};
use bw_ir::{parse_module, FunctionPrinter, Module, ModulePrinter};
use bw_splash::{Benchmark, Size};

/// The statement budgets of `prepare-pipeline`'s module groups.
const BUDGETS: [u32; 4] = [60, 120, 240, 480];

/// Every top-level directive, every instruction shape, block names and
/// none, parameters and a return type, every literal kind.
const KITCHEN_SINK: &str = "\
module sink {
  global n : i64 x1 shared = 8
  global id : i64 x1 tid_counter = 0
  global data : f64 x16 shared = 0.5
  global flag : bool x1 = true
  global p : ptr x2 shared tid_counter = &shared[0+-3]
  table tab = [helper, slave]
  mutexes 2
  barriers 1
  callsites 3
  init setup
  spmd slave
  fini helper
  func helper(v0: i64, v1: f64) -> i64 {
  bb0: ; entry
    v2: i64 = max v0, v0
    v3: bool = cmp.eq v2, v0
    br v3, bb1, bb2
  bb1:
    ret v2
  bb2:
    trap
  }
  func setup() {
  bb0:
    v0: i64 = const 4
    v1: ptr = alloca v0
    v2: ptr = globaladdr g2
    v3: i64 = const -7
    v4: ptr = gep v2, v3
    v5: f64 = load.f64 v4
    store v5 -> v1
    v6: f64 = sqrt v5
    v7: bool = const false
    v8: ptr = const &local[1+2]
    v9: f64 = const 1e300
    ret
  }
  func slave() {
  bb0: ; entry
    v0: i64 = threadid
    v1: i64 = numthreads
    v2: i64 = fetchadd g1, v0
    v3: bool = cmp.lt v0, v1
    br v3, bb1, bb2
  bb1: ; then
    lock mtx1
    v4: f64 = i2f v0
    v5: i64 = call fn0(v0, v4) @cs0
    output v5
    unlock mtx1
    v6: i64 = icall tbl0[v0](v0, v4) @cs1
    call fn1() @cs2
    jump bb2
  bb2:
    v7: i64 = phi [bb0, v0], [bb1, v6]
    barrier bar0
    v8: i64 = rand v1
    v9: bool = not v3
    ret
  }
}
";

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

/// The bytes a mutation writes: the grammar's separators and brackets, a
/// digit and an id prefix, and a line break.
const GRAMMAR: &[u8] = b" ,:=[]+0v\n";

/// Every text one byte away from `text`: each byte deleted, duplicated, and
/// replaced by each [`GRAMMAR`] byte it is not. `stride` skips positions.
fn mutants(text: &str, stride: usize) -> impl Iterator<Item = String> + '_ {
    let bytes = text.as_bytes();
    (0..bytes.len()).step_by(stride).flat_map(move |i| {
        let edit = move |with: &[u8]| {
            let mut m = Vec::with_capacity(bytes.len() + 1);
            m.extend_from_slice(&bytes[..i]);
            m.extend_from_slice(with);
            m.extend_from_slice(&bytes[i + 1..]);
            String::from_utf8(m).expect("printed modules are ASCII")
        };
        let replaced = GRAMMAR.iter().filter(move |&&g| g != bytes[i]).map(move |&g| edit(&[g]));
        [edit(&[]), edit(&[bytes[i], bytes[i]])].into_iter().chain(replaced)
    })
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
    // Every position of the small inputs; the ports, 14–25 kB each, at
    // every 13th (release only).
    let thin = if cfg!(debug_assertions) { 7 } else { 1 };
    let mut inputs = vec![("kitchen sink".to_string(), KITCHEN_SINK.to_string(), thin)];
    for seed in 0..3 {
        let module = generate_module(seed, &GenConfig::default());
        inputs.push((format!("seed {seed}"), ModulePrinter(&module).to_string(), thin));
    }
    if !cfg!(debug_assertions) {
        for bench in Benchmark::ALL {
            let module = bench.module(Size::Test).expect("the port compiles");
            inputs.push((bench.name().to_string(), ModulePrinter(&module).to_string(), 13));
        }
    }
    let (mut total, mut parsed) = (0, 0);
    for (what, text, stride) in &inputs {
        let (n, ok) = sweep(what, text, *stride);
        total += n;
        parsed += ok;
    }
    println!("{total} mutants, {parsed} of them parse");
    // A duplicated line break, a space that becomes one, and the like parse;
    // nearly everything else is an error, positioned alike by both.
    assert!(parsed > 0 && parsed < total / 2, "{parsed} of {total} mutants parse");
}
