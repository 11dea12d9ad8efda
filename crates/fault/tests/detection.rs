//! End-to-end detection tests: inject faults into branches of each
//! similarity category and verify the monitor catches what the paper says
//! it catches.

use bw_fault::{
    classify, run_campaign, CampaignConfig, CampaignResult, FaultModel, FaultOutcome,
    InjectionHook, InjectionPlan,
};
use bw_vm::{Engine, ExecConfig, ProgramImage, RunOutcome, SimEngine};

fn image(src: &str) -> ProgramImage {
    ProgramImage::prepare_default(bw_ir::frontend::compile(src).expect("compile"))
}

/// A program whose only branch is `shared`, executed many times.
fn shared_branch_program() -> ProgramImage {
    image(
        r#"
        shared int n = 64;
        @spmd func slave() {
            var acc: int = 0;
            for (var i: int = 0; i < n; i = i + 1) {
                acc = acc + i;
            }
            output(acc);
        }
        "#,
    )
}

#[test]
fn branch_flip_on_shared_branch_is_detected() {
    let image = shared_branch_program();
    let config = ExecConfig::new(4);
    let golden = SimEngine.run(&image, &config);
    assert_eq!(golden.outcome, RunOutcome::Completed);

    // Flip thread 2's 10th dynamic branch (a loop-exit decision).
    let hook = InjectionHook::new(InjectionPlan {
        tid: 2,
        dyn_index: 10,
        model: FaultModel::BranchFlip,
        value_choice: 0,
        bit: 0,
    });
    let result = SimEngine.run_hooked(&image, &config, &hook);
    assert!(hook.activated());
    assert_eq!(classify(&result, &golden, true), FaultOutcome::Detected);
}

#[test]
fn condition_bit_flip_on_shared_branch_is_detected_even_without_flip() {
    let image = shared_branch_program();
    let config = ExecConfig::new(4);
    let _golden = SimEngine.run(&image, &config);

    // Flip a *high* bit of the loop counter of thread 1: i changes sign /
    // magnitude massively, the comparison outcome may or may not change,
    // but the witness diverges from the other threads either way.
    let hook = InjectionHook::new(InjectionPlan {
        tid: 1,
        dyn_index: 5,
        model: FaultModel::ConditionBitFlip,
        value_choice: 0,
        bit: 62,
    });
    let result = SimEngine.run_hooked(&image, &config, &hook);
    assert!(hook.activated());
    assert!(result.detected(), "witness mismatch must be flagged");
}

#[test]
fn threadid_branch_flip_is_detected() {
    // Paper Section II-D: corrupt procid so a second thread takes the
    // leader branch — "no more than one thread takes the branch".
    let image = image(
        r#"
        @spmd func slave() {
            var procid: int = threadid();
            if (procid == 0) {
                output(procid);
            }
            output(1);
        }
        "#,
    );
    let config = ExecConfig::new(4);
    let golden = SimEngine.run(&image, &config);

    let hook = InjectionHook::new(InjectionPlan {
        tid: 2,
        dyn_index: 1,
        model: FaultModel::BranchFlip,
        value_choice: 0,
        bit: 0,
    });
    let result = SimEngine.run_hooked(&image, &config, &hook);
    assert!(hook.activated());
    assert_eq!(classify(&result, &golden, true), FaultOutcome::Detected);
}

#[test]
fn partial_branch_flip_is_detected_when_groups_split() {
    // `private` is 1 or -1 depending on shared data: all threads read the
    // same element, so they form one witness group; a flipped branch splits
    // the group.
    let image = image(
        r#"
        shared int data[8];
        shared int lim = 3;
        @init func setup() {
            for (var i: int = 0; i < 8; i = i + 1) { data[i] = i; }
        }
        @spmd func slave() {
            var private: int = 0;
            for (var i: int = 0; i < 8; i = i + 1) {
                if (data[i] > lim) { private = 1; } else { private = 0 - 1; }
                if (private > 0) { output(i); }
            }
        }
        "#,
    );
    let config = ExecConfig::new(4);
    let golden = SimEngine.run(&image, &config);
    assert_eq!(golden.outcome, RunOutcome::Completed);

    // Find and flip a partial branch instance in thread 3. Dynamic branches
    // per thread: loop branch + 2 ifs per iteration; pick an inner `if`.
    let mut detected = false;
    for dyn_index in 2..6 {
        let hook = InjectionHook::new(InjectionPlan {
            tid: 3,
            dyn_index,
            model: FaultModel::BranchFlip,
            value_choice: 0,
            bit: 0,
        });
        let result = SimEngine.run_hooked(&image, &config, &hook);
        if result.detected() {
            detected = true;
            break;
        }
    }
    assert!(detected, "at least one flipped partial branch must be caught");
}

#[test]
fn fault_in_none_branch_with_promotion_can_be_detected() {
    // A `none` branch on thread-indexed data: promotion groups threads by
    // value. With identical per-thread data the groups align, so a flip is
    // caught.
    let image = image(
        r#"
        int data[32];
        @init func setup() {
            for (var i: int = 0; i < 32; i = i + 1) { data[i] = 7; }
        }
        @spmd func slave() {
            var t: int = threadid();
            if (data[t] > 3) { output(t); }
        }
        "#,
    );
    let config = ExecConfig::new(4);
    let golden = SimEngine.run(&image, &config);

    let hook = InjectionHook::new(InjectionPlan {
        tid: 1,
        dyn_index: 1,
        model: FaultModel::BranchFlip,
        value_choice: 0,
        bit: 0,
    });
    let result = SimEngine.run_hooked(&image, &config, &hook);
    assert!(hook.activated());
    assert_eq!(classify(&result, &golden, true), FaultOutcome::Detected);
}

#[test]
fn unprotected_program_lets_sdc_through() {
    // Same shared-branch program, monitor off: the flipped loop exit cuts
    // one thread's sum short -> SDC (or crash), never Detected.
    let image = shared_branch_program();
    let mut config = ExecConfig::new(4);
    config.monitor = bw_vm::MonitorMode::Off;
    let golden = SimEngine.run(&image, &config);

    let hook = InjectionHook::new(InjectionPlan {
        tid: 2,
        dyn_index: 10,
        model: FaultModel::BranchFlip,
        value_choice: 0,
        bit: 0,
    });
    let result = SimEngine.run_hooked(&image, &config, &hook);
    let outcome = classify(&result, &golden, hook.activated());
    assert_ne!(outcome, FaultOutcome::Detected);
    assert_eq!(outcome, FaultOutcome::Sdc, "early loop exit changes the sum");
}

#[test]
fn campaign_improves_coverage_over_baseline() {
    let image = shared_branch_program();

    let protected = CampaignConfig::new(60, FaultModel::BranchFlip, 4).seed(7);
    let with = run_campaign(&image, &protected).expect("golden run completes");

    let mut baseline = CampaignConfig::new(60, FaultModel::BranchFlip, 4).seed(7);
    baseline.sim.monitor = bw_vm::MonitorMode::Off;
    let without = run_campaign(&image, &baseline).expect("golden run completes");

    assert!(with.counts.detected > 0, "{:?}", with.counts);
    assert_eq!(without.counts.detected, 0);
    assert!(
        with.coverage() >= without.coverage(),
        "protected {:?} vs baseline {:?}",
        with.counts,
        without.counts
    );
    // Same seed, same profile: identical injection targets.
    let plans = |campaign: &CampaignResult| -> Vec<InjectionPlan> {
        campaign.records.iter().map(|record| record.plan).collect()
    };
    assert_eq!(plans(&with), plans(&without));
}

#[test]
fn campaign_is_reproducible() {
    let image = shared_branch_program();
    let config = CampaignConfig::new(30, FaultModel::ConditionBitFlip, 4);
    let a = run_campaign(&image, &config).expect("golden run completes");
    let b = run_campaign(&image, &config).expect("golden run completes");
    assert_eq!(a.counts, b.counts);
    assert_eq!(a.records, b.records);
}

#[test]
fn false_positive_sweep_is_clean() {
    let image = shared_branch_program();
    let fps = bw_fault::false_positive_runs(&image, &ExecConfig::new(4), 20);
    assert_eq!(fps, 0);
}
