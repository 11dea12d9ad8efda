//! Unit tests of the outcome-classification priority logic (paper §IV):
//! Detected > Crashed > Hung > output comparison.

use bw_fault::{classify, FaultOutcome};
use bw_monitor::{Violation, ViolationKind};
use bw_vm::{EngineKind, RunOutcome, RunResult};
use bw_ir::Val;

fn result(outcome: RunOutcome, outputs: Vec<Val>, detected: bool) -> RunResult {
    RunResult {
        outcome,
        outputs,
        parallel_cycles: 0,
        violations: if detected {
            vec![Violation {
                branch: 0,
                site: 0,
                iter: 0,
                kind: ViolationKind::DirectionMismatch,
                reporters: 2,
            }]
        } else {
            Vec::new()
        },
        violation_reports: Vec::new(),
        total_steps: 0,
        events_sent: 0,
        events_processed: 0,
        branches_per_thread: vec![0],
        steps_per_thread: vec![0],
        engine: EngineKind::Sim,
        cycles: Default::default(),
        monitor: None,
        branch_events: Vec::new(),
    }
}

fn golden() -> RunResult {
    result(RunOutcome::Completed, vec![Val::I64(42)], false)
}

#[test]
fn not_activated_takes_precedence() {
    let r = result(RunOutcome::Completed, vec![Val::I64(0)], true);
    assert_eq!(classify(&r, &golden(), false), FaultOutcome::NotActivated);
}

#[test]
fn detection_beats_everything_observable() {
    let detected_sdc = result(RunOutcome::Completed, vec![Val::I64(0)], true);
    assert_eq!(classify(&detected_sdc, &golden(), true), FaultOutcome::Detected);
    let detected_crash =
        result(RunOutcome::Crashed(bw_vm::TrapKind::OutOfBounds), vec![], true);
    assert_eq!(classify(&detected_crash, &golden(), true), FaultOutcome::Detected);
}

#[test]
fn crash_beats_output_comparison() {
    let r = result(RunOutcome::Crashed(bw_vm::TrapKind::DivideByZero), vec![], false);
    assert_eq!(classify(&r, &golden(), true), FaultOutcome::Crashed);
}

#[test]
fn hang_is_not_an_sdc() {
    let r = result(RunOutcome::Hung, vec![], false);
    assert_eq!(classify(&r, &golden(), true), FaultOutcome::Hung);
}

#[test]
fn matching_output_is_masked() {
    let r = result(RunOutcome::Completed, vec![Val::I64(42)], false);
    assert_eq!(classify(&r, &golden(), true), FaultOutcome::Masked);
}

#[test]
fn differing_output_is_sdc() {
    let r = result(RunOutcome::Completed, vec![Val::I64(41)], false);
    assert_eq!(classify(&r, &golden(), true), FaultOutcome::Sdc);
    // Missing outputs are SDCs too.
    let r = result(RunOutcome::Completed, vec![], false);
    assert_eq!(classify(&r, &golden(), true), FaultOutcome::Sdc);
}
