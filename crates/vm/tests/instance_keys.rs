//! Tests of the runtime instance keying (paper Section III-B): branch
//! instances must align across threads — and stay distinct across call
//! sites, caller-loop iterations and barrier epochs — for the checks to be
//! simultaneously sound and precise.

use std::sync::atomic::{AtomicBool, Ordering};

use bw_ir::BranchId;
use bw_vm::{
    BranchHook, Engine, ExecConfig, FaultAction, ProgramImage, RunOutcome, SimEngine,
};

/// Minimal one-shot flip hook (the full injector lives in `bw-fault`,
/// which depends on this crate).
struct FlipAt {
    tid: u32,
    dyn_index: u64,
    fired: AtomicBool,
}

impl BranchHook for FlipAt {
    fn on_branch(&self, tid: u32, dyn_index: u64, _branch: BranchId) -> Option<FaultAction> {
        if tid == self.tid && dyn_index == self.dyn_index && !self.fired.swap(true, Ordering::AcqRel)
        {
            Some(FaultAction::FlipOutcome)
        } else {
            None
        }
    }
}

fn image(src: &str) -> ProgramImage {
    ProgramImage::prepare_default(bw_ir::frontend::compile(src).expect("compile"))
}

/// A shared branch inside a function called from two call sites: the paper
/// (Figure 2) tracks each call site separately. Different arguments per
/// site must not trip the check.
#[test]
fn call_sites_are_tracked_separately() {
    let image = image(
        r#"
        shared bool gate = true;
        func foo(arg: int) {
            for (var i: int = 0; i < 5; i = i + 1) {
                if (i < arg) { output(i); }
            }
        }
        @spmd func slave() {
            foo(1);
            if (gate) { foo(4); }
        }
        "#,
    );
    let result = SimEngine.run(&image, &ExecConfig::new(4));
    assert_eq!(result.outcome, RunOutcome::Completed);
    assert!(!result.detected(), "{:?}", result.violations);
}

/// A function called from inside a loop: every caller iteration is a new
/// instance of the callee's branches. The shared value changes per
/// iteration; mixing iterations would be a false positive.
#[test]
fn caller_loop_iterations_separate_callee_instances() {
    let image = image(
        r#"
        shared int rounds = 6;
        func check(bound: int) {
            if (bound > 2) { output(bound); }
        }
        @spmd func slave() {
            for (var r: int = 0; r < rounds; r = r + 1) {
                check(r);
            }
        }
        "#,
    );
    let result = SimEngine.run(&image, &ExecConfig::new(4));
    assert_eq!(result.outcome, RunOutcome::Completed);
    assert!(!result.detected(), "{:?}", result.violations);
}

/// ... and a fault in ONE caller iteration is still caught, which proves
/// the callee instances really do correlate across threads per iteration.
#[test]
fn fault_inside_called_function_is_caught_at_the_right_iteration() {
    let image = image(
        r#"
        shared int rounds = 6;
        func check(bound: int) {
            if (bound > 2) { output(bound); }
        }
        @spmd func slave() {
            for (var r: int = 0; r < rounds; r = r + 1) {
                check(r);
            }
        }
        "#,
    );
    let config = ExecConfig::new(4);
    // Thread 1's dynamic branches: loop branch, callee branch, loop, callee…
    // Hit a callee branch (even indices are the loop header).
    let mut detected = false;
    for dyn_index in [2u64, 4, 6, 8] {
        let hook = FlipAt { tid: 1, dyn_index, fired: AtomicBool::new(false) };
        let result = SimEngine.run_hooked(&image, &config, &hook);
        if result.detected() {
            detected = true;
            break;
        }
    }
    assert!(detected, "no callee-branch flip was detected");
}

/// Shared state legitimately changes across barrier phases; the barrier
/// epoch in the key keeps pre- and post-barrier instances separate.
#[test]
fn barrier_epochs_separate_phases() {
    let image = image(
        r#"
        shared int phases = 4;
        int stage = 0;
        barrier sync;
        @spmd func slave() {
            for (var p: int = 0; p < phases; p = p + 1) {
                if (threadid() == 0) {
                    stage = stage + 1;
                }
                barrier(sync);
                // Data-dependent branch on state that changes every phase;
                // promoted to group-by-witness. All threads agree within a
                // phase; phases must not mix.
                if (stage > 2) { output(stage); }
                barrier(sync);
            }
        }
        "#,
    );
    for n in [2u32, 4, 8] {
        let result = SimEngine.run(&image, &ExecConfig::new(n));
        assert_eq!(result.outcome, RunOutcome::Completed);
        assert!(!result.detected(), "n={n}: {:?}", result.violations);
    }
}

/// Recursion: each recursion depth is a distinct call path, so the same
/// static branch at different depths must not be cross-checked.
#[test]
fn recursion_depths_are_distinct_instances() {
    let image = image(
        r#"
        func fib(x: int) -> int {
            if (x < 2) { return x; }
            return fib(x - 1) + fib(x - 2);
        }
        @spmd func slave() {
            output(fib(8));
        }
        "#,
    );
    let result = SimEngine.run(&image, &ExecConfig::new(4));
    assert_eq!(result.outcome, RunOutcome::Completed);
    assert!(!result.detected(), "{:?}", result.violations);
    assert_eq!(result.outputs, vec![bw_ir::Val::I64(21); 4]);
}

/// Deep recursion overflows the interpreter stack and crashes (rather than
/// aborting the process).
#[test]
fn unbounded_recursion_traps() {
    let image = image(
        r#"
        func spin(x: int) -> int {
            return spin(x + 1);
        }
        @spmd func slave() {
            output(spin(0));
        }
        "#,
    );
    let result = SimEngine.run(&image, &ExecConfig::new(1));
    assert_eq!(
        result.outcome,
        RunOutcome::Crashed(bw_vm::TrapKind::StackOverflow)
    );
}

/// Indirect calls with a corrupted selector trap (the raytrace
/// function-pointer crash mode).
#[test]
fn corrupted_indirect_selector_traps() {
    let image = image(
        r#"
        table fs = { a, b };
        func a(x: int) -> int { return x + 1; }
        func b(x: int) -> int { return x - 1; }
        int sel = 7;
        @spmd func slave() {
            output(fs[sel](threadid()));
        }
        "#,
    );
    let result = SimEngine.run(&image, &ExecConfig::new(2));
    assert_eq!(
        result.outcome,
        RunOutcome::Crashed(bw_vm::TrapKind::BadIndirectCall)
    );
}
