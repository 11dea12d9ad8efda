//! The similarity pass always settles, within the bound its join gives:
//! every update climbs the lattice `NA < shared < {threadID, partial} <
//! none`, a value climbs at most three times, so a pass that changes
//! nothing comes after at most `3 × values + 2` passes (one pass records
//! the return sites). Checked on seed `0x7019d`, which oscillated for as
//! long as a pass could move a category down, on the SPLASH ports at every
//! size and on generated modules at five statement budgets.

use std::panic;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::thread;
use std::time::Duration;

use bw_analysis::ModuleAnalysis;
use bw_gen::{generate_module, GenConfig};
use bw_ir::Module;
use bw_splash::{Benchmark, Size};

/// Asserts the bound on `module`; returns its pass count. The pass runs on
/// a thread of its own, so that one which never settles fails the test
/// instead of hanging it.
fn check(name: &str, module: Module) -> usize {
    let values: usize = module.funcs.iter().map(|f| f.num_values()).sum();
    let (tx, rx) = mpsc::channel();
    let pass = thread::spawn(move || tx.send(ModuleAnalysis::run(&module).iterations));
    let iterations = match rx.recv_timeout(Duration::from_secs(60)) {
        Ok(iterations) => iterations,
        Err(RecvTimeoutError::Timeout) => panic!("{name}: the pass did not settle in 60 s"),
        Err(RecvTimeoutError::Disconnected) => {
            panic::resume_unwind(pass.join().expect_err("no result, so the pass panicked"))
        }
    };
    assert!(
        iterations <= 3 * values + 2,
        "{name}: {iterations} passes over {values} values exceed 3 × values + 2"
    );
    iterations
}

#[test]
fn the_pass_settles_within_three_climbs_a_value() {
    assert_eq!(check("seed 0x7019d", generate_module(0x7019d, &GenConfig::default())), 5);
    for size in [Size::Test, Size::Small, Size::Reference] {
        for bench in Benchmark::ALL {
            check(&format!("{bench:?} at {size:?}"), bench.module(size).expect("it compiles"));
        }
    }
    for max_stmts in [40, 60, 120, 240, 480] {
        let config = GenConfig { max_stmts, ..GenConfig::default() };
        for seed in 0..2000 {
            check(&format!("seed {seed:#x} at {max_stmts}"), generate_module(seed, &config));
        }
    }
}
