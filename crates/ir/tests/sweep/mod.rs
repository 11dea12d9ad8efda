//! The inputs the IR oracles sweep: a module that uses every construct of
//! the grammar, the statement budgets generated modules are drawn at, and
//! every one-byte mutant of printed modules.

#![allow(dead_code)]

use bw_gen::{generate_module, GenConfig};
use bw_ir::ModulePrinter;
use bw_splash::{Benchmark, Size};

/// The statement budgets of `prepare-pipeline`'s module groups.
pub const BUDGETS: [u32; 4] = [60, 120, 240, 480];

/// Every top-level directive, every instruction shape, block names and
/// none, parameters and a return type, every literal kind.
pub const KITCHEN_SINK: &str = "\
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

/// The bytes a mutation writes: the grammar's separators and brackets, a
/// digit and an id prefix, and a line break.
pub const GRAMMAR: &[u8] = b" ,:=[]+0v\n";

/// Every text one byte away from `text`: each byte deleted, duplicated, and
/// replaced by each [`GRAMMAR`] byte it is not. `stride` skips positions.
pub fn mutants(text: &str, stride: usize) -> impl Iterator<Item = String> + '_ {
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

/// The printed modules the mutation sweeps start from, each with the
/// stride of the positions mutated: every position of the kitchen sink and
/// three generated modules; the ports, 14–25 kB each, at every 13th
/// (release only; debug builds also thin the small inputs).
pub fn mutation_inputs() -> Vec<(String, String, usize)> {
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
    inputs
}
