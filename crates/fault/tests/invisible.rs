//! Condition-bit flips that change nothing end at the fault.
//!
//! A condition-bit-flip campaign forks each injection from a fault-free
//! prefix, and a fork stops right after its fault when the branch kept its
//! direction and the corrupted value is dead from the edge it took
//! ([`ConditionLiveness`]): the campaign then books the golden run for it.
//! That is only right if the run from step 0 really is the golden run.
//!
//! The targeted modules pin the rule case by case, each with a fault whose
//! full replay does differ from the golden run where the fork must go on: a
//! value read only by a later branch's witness, one carried around a loop
//! through phis, one the branch's own edge copies into a phi, a call
//! argument, a returned value, a loop bound the same compare reads again,
//! and a flip that changes the branch's direction. A
//! dead value under a kept direction must stop, and must not under a span
//! sink. The sweeps compare whole campaigns with plan-by-plan replays: the
//! seven ports at `Size::Test` and `Size::Small`, 2 and 4 threads, two
//! campaign seeds, and 200 generated modules; every replay whose fault is
//! invisible must return the golden `RunResult` field for field. Debug
//! builds thin the port sweep (`scripts/ci.sh` runs it in release).
//!
//! Mutation check — each of these was run against this file in the
//! release profile and fails the tests named:
//! * liveness without witness uses (`function_liveness` not reading the
//!   plan's witness lists) → `a_value_only_a_later_witness_reads…`;
//! * liveness without phi-edge uses: no phi incoming read at the end of its
//!   edge's source block in `function_liveness` → `a_loop_carried_value…`,
//!   `an_operand_the_compare_reads_again…` and both sweeps; the phis of the
//!   branch's own edge not read in `on_edge` →
//!   `a_value_the_branch_edge_copies_into_a_phi…` alone (no frontend branch
//!   feeds a phi straight from its edge, hence the module in IR text);
//! * stopping without the outcome check (`invisible` set from `dead_after`
//!   alone in `ThreadState::run`) → `a_flip_that_changes_the_outcome…` and
//!   both sweeps.

use std::cell::Cell;
use std::sync::{Arc, Mutex, MutexGuard};

use bw_fault::{
    classify, plan_campaign, run_campaign_with_golden_recorded, CampaignConfig, ConditionLiveness,
    FaultModel, FaultOutcome, InjectionHook, InjectionPlan, InjectionRecord,
};
use bw_gen::{generate_module, GenConfig};
use bw_ir::{BranchId, Type, Val, ValueId};
use bw_splash::{Benchmark, Size};
use bw_telemetry::{NullRecorder, NULL_RECORDER};
use bw_vm::{
    BranchHook, Engine, ExecConfig, FaultAction, Fork, ProgramImage, RunOutcome, RunResult,
    SimEngine, SimPrefix,
};

/// Held by every test here: one of them installs the process-global span
/// sink, under which no fork may stop.
static SINK_LOCK: Mutex<()> = Mutex::new(());

fn sink_lock() -> MutexGuard<'static, ()> {
    SINK_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Values by type and bit pattern, so a NaN equals itself.
fn bits(values: &[Val]) -> Vec<(Type, u64)> {
    values.iter().map(|v| (v.ty(), v.bits())).collect()
}

/// Every field of two runs, the instruments included.
fn same(a: &RunResult, b: &RunResult) -> bool {
    a.outcome == b.outcome
        && a.total_steps == b.total_steps
        && a.steps_per_thread == b.steps_per_thread
        && a.branches_per_thread == b.branches_per_thread
        && a.parallel_cycles == b.parallel_cycles
        && bits(&a.outputs) == bits(&b.outputs)
        && a.events_sent == b.events_sent
        && a.events_processed == b.events_processed
        && a.branch_events == b.branch_events
        && a.violations == b.violations
        && a.violation_reports == b.violation_reports
        && a.engine == b.engine
        && a.cycles == b.cycles
        && a.monitor == b.monitor
}

/// A campaign's hook that notes whether its fault was invisible: whether
/// the run asked `dead_after`, and heard yes.
struct Probe<'a> {
    hook: InjectionHook<'a>,
    invisible: Cell<bool>,
}

impl BranchHook for Probe<'_> {
    fn on_branch(&self, tid: u32, dyn_index: u64, branch: BranchId) -> Option<FaultAction> {
        self.hook.on_branch(tid, dyn_index, branch)
    }

    fn dead_after(&self, branch: BranchId, value: ValueId, taken: bool) -> bool {
        let dead = self.hook.dead_after(branch, value, taken);
        self.invisible.set(self.invisible.get() || dead);
        dead
    }
}

/// The campaign's hang cut-off.
fn faulty(config: &ExecConfig, golden: &RunResult) -> ExecConfig {
    config.clone().max_steps(golden.total_steps.saturating_mul(8).saturating_add(100_000))
}

/// Replays `plan` from step 0 and books it as a campaign does; also says
/// whether its fault was invisible.
fn replay(
    image: &ProgramImage,
    faulty: &ExecConfig,
    golden: &RunResult,
    liveness: &ConditionLiveness,
    plan: InjectionPlan,
) -> (InjectionRecord, RunResult, bool) {
    let probe = Probe { hook: InjectionHook::pruning(plan, liveness), invisible: Cell::new(false) };
    let result = SimEngine.run_hooked(image, faulty, &probe);
    let outcome = classify(&result, golden, probe.hook.activated());
    let report = (outcome == FaultOutcome::Detected)
        .then(|| result.violation_reports.first().cloned().map(Box::new))
        .flatten();
    let record = InjectionRecord {
        plan,
        branch: probe.hook.injected_branch().map(|b| b.0),
        outcome,
        detection_latency: report.as_ref().and_then(|r| r.detection_latency),
        report,
    };
    (record, result, probe.invisible.get())
}

/// Runs a condition-bit-flip campaign on one worker and compares it with
/// the plan-by-plan replays: every record, the steps run and skipped
/// against the replays' total, and for every invisible fault the golden
/// run. Returns how many faults were invisible, or `None` if the program's
/// golden run fails.
#[track_caller]
fn check_campaign(
    image: &ProgramImage,
    nthreads: u32,
    injections: usize,
    seed: u64,
    what: &str,
) -> Option<usize> {
    let config = CampaignConfig::new(injections, FaultModel::ConditionBitFlip, nthreads)
        .seed(seed)
        .workers(1);
    let golden = SimEngine.run(image, &config.sim);
    if golden.outcome != RunOutcome::Completed {
        return None;
    }
    let campaign = run_campaign_with_golden_recorded(image, &config, &golden, None, &NULL_RECORDER)
        .expect("the golden run completes");
    let faulty = faulty(&config.sim, &golden);
    let liveness = ConditionLiveness::new(image);
    let plans = plan_campaign(&golden.branches_per_thread, &config);
    let (mut invisible, mut replayed) = (0, 0);
    for (i, (&plan, record)) in plans.iter().zip(&campaign.records).enumerate() {
        let (replay_record, result, hidden) = replay(image, &faulty, &golden, &liveness, plan);
        assert_eq!(record, &replay_record, "{what}: record {i}");
        if hidden {
            assert!(same(&result, &golden), "{what}: invisible fault {i} {plan:?}");
            invisible += 1;
        }
        replayed += result.total_steps;
    }
    let stats = &campaign.worker_stats;
    let accounted: u64 = stats.iter().map(|w| w.steps_run + w.steps_skipped).sum();
    assert_eq!(accounted, replayed, "{what}: steps run and skipped");
    Some(invisible)
}

#[test]
fn pruned_campaigns_equal_plan_by_plan_replays() {
    let _lock = sink_lock();
    let full = !cfg!(debug_assertions);
    let mut total = 0;
    for bench in Benchmark::ALL {
        // Debug builds take the `Test` size at 2 threads, one seed, few plans.
        let sizes: &[Size] = if full { &[Size::Test, Size::Small] } else { &[Size::Test] };
        for &size in sizes {
            let image = ProgramImage::prepare_default(bench.module(size).expect("port compiles"));
            let started = std::time::Instant::now();
            let liveness = ConditionLiveness::new(&image);
            let built_us = started.elapsed().as_secs_f64() * 1e6;
            std::hint::black_box(liveness);
            for nthreads in if full { vec![2, 4] } else { vec![2] } {
                for seed in if full { vec![0, 1] } else { vec![0] } {
                    let injections = match (full, size) {
                        (false, _) => 6,
                        (true, Size::Test) => 60,
                        (true, _) => 30,
                    };
                    let what = format!("{} {size:?} t{nthreads} seed {seed}", bench.name());
                    let invisible = check_campaign(&image, nthreads, injections, seed, &what)
                        .expect("the port's golden run completes");
                    println!(
                        "{what}: {invisible} of {injections} invisible ({built_us:.0} us table)"
                    );
                    total += invisible;
                }
            }
        }
    }
    assert!(!full || total > 0, "no fault was invisible");
}

#[test]
fn pruned_campaigns_of_generated_modules_equal_plan_by_plan_replays() {
    let _lock = sink_lock();
    let gen = GenConfig::default();
    let (mut checked, mut invisible) = (0, 0);
    for seed in 0..200u64 {
        let image = ProgramImage::prepare_default(generate_module(seed, &gen));
        let nthreads = [1u32, 2, 4, 8][seed as usize % 4];
        let what = format!("generated seed {seed:#x} t{nthreads}");
        if let Some(n) = check_campaign(&image, nthreads, 6, seed, &what) {
            checked += 1;
            invisible += n;
        }
    }
    println!("{checked} generated modules, {invisible} invisible faults");
    assert!(checked > 150 && invisible > 0, "{checked} modules, {invisible} invisible");
}

/// One SPMD program on four threads and its golden run.
struct Case {
    image: ProgramImage,
    config: ExecConfig,
    golden: RunResult,
}

impl Case {
    fn new(source: &str) -> Case {
        Case::of(bw_ir::frontend::compile(source).expect("compiles"))
    }

    fn of(module: bw_ir::Module) -> Case {
        let image = ProgramImage::prepare_default(module);
        let base = ExecConfig::new(4);
        let golden = SimEngine.run(&image, &base);
        assert_eq!(golden.outcome, RunOutcome::Completed);
        Case { config: faulty(&base, &golden), image, golden }
    }

    /// A flip of `bit` of data value `value_choice` of static branch
    /// `branch` of function `func`, at its first execution by thread 1.
    fn plan(&self, func: &str, branch: usize, value_choice: u32, bit: u8) -> InjectionPlan {
        let analysis = &self.image.analysis;
        let mut ours =
            analysis.branches.iter().filter(|b| self.image.module.func(b.func).name == func);
        let target = ours.nth(branch).expect("the branch exists").id;
        // The static branch of each of thread 1's dynamic branches, in order.
        struct Log(std::cell::RefCell<Vec<BranchId>>);
        impl BranchHook for Log {
            fn on_branch(&self, tid: u32, _: u64, branch: BranchId) -> Option<FaultAction> {
                if tid == 1 {
                    self.0.borrow_mut().push(branch);
                }
                None
            }
        }
        let log = Log(Default::default());
        SimEngine.run_hooked(&self.image, &self.config, &log);
        let at = log.0.borrow().iter().position(|&b| b == target).expect("thread 1 reaches it");
        let model = FaultModel::ConditionBitFlip;
        InjectionPlan { tid: 1, dyn_index: at as u64 + 1, model, value_choice, bit }
    }

    /// Whether a campaign's fork at `plan` stops at the fault. The full
    /// replay must equal the golden run exactly when it does.
    #[track_caller]
    fn stops(&self, plan: InjectionPlan) -> bool {
        let liveness = ConditionLiveness::new(&self.image);
        let mut prefix = SimPrefix::new(&self.image, &self.config);
        let mut targets = vec![None; 4];
        targets[plan.tid as usize] = Some(plan.dyn_index);
        assert_eq!(prefix.advance_to(&targets), Some(plan.tid));
        let hook = InjectionHook::pruning(plan, &liveness);
        let stopped = matches!(prefix.resume(&hook), Fork::Stopped { .. });
        assert!(hook.activated());
        let full = SimEngine.run_hooked(&self.image, &self.config, &InjectionHook::new(plan));
        assert_eq!(same(&full, &self.golden), stopped, "the fault is invisible iff the fork stops");
        stopped
    }
}

/// `x` is read by the branch alone.
const DEAD: &str = r#"
    int data[8];
    @spmd func f() {
        var t: int = threadid();
        var x: int = data[t];
        if (x > 100) { output(1); } else { output(2); }
        output(t);
    }
"#;

#[test]
fn a_dead_value_whose_branch_kept_its_direction_stops() {
    let lock = sink_lock();
    let case = Case::new(DEAD);
    // `x` is 0: with bit 1 flipped it is 2, still not above 100.
    let plan = case.plan("f", 0, 0, 1);
    assert!(case.stops(plan));
    // Under a span sink the fork owes the sink every span of its run.
    bw_telemetry::set_trace_sink(Some(Arc::new(NullRecorder)));
    let mut prefix = SimPrefix::new(&case.image, &case.config);
    prefix.advance_to(&[None, Some(plan.dyn_index)]);
    let liveness = ConditionLiveness::new(&case.image);
    let traced = prefix.resume(&InjectionHook::pruning(plan, &liveness));
    bw_telemetry::set_trace_sink(None);
    drop(lock);
    assert!(matches!(traced, Fork::Ran(_)), "a traced fork stopped");
}

#[test]
fn a_flip_that_changes_the_outcome_does_not_stop() {
    let _lock = sink_lock();
    let case = Case::new(DEAD);
    // Bit 7 makes `x` 128: the branch goes the other way, on an edge where
    // `x` is as dead as on the one it should have taken.
    assert!(!case.stops(case.plan("f", 0, 0, 7)));
}

#[test]
fn a_value_only_a_later_witness_reads_does_not_stop() {
    let _lock = sink_lock();
    // `c` is computed before the first branch; the second branch's witness
    // is `c`'s operand `x`, which nothing else reads after the first.
    let case = Case::new(
        r#"
        shared int n = 4;
        @spmd func f() {
            var t: int = threadid();
            var x: int = n;
            var c: bool = x > 2;
            if (x > 100) { output(1); }
            if (c) { output(t); }
        }
        "#,
    );
    assert!(!case.stops(case.plan("f", 0, 0, 1)));
}

#[test]
fn a_loop_carried_value_does_not_stop() {
    let _lock = sink_lock();
    // The compared `s` goes round the loop through phis, and out of it.
    let case = Case::new(
        r#"
        int data[8];
        @spmd func f() {
            var t: int = threadid();
            var s: int = data[t];
            for (var i: int = 0; i < 4; i = i + 1) {
                s = s + 1;
                if (s > 100) { output(1); }
            }
            output(s);
        }
        "#,
    );
    assert!(!case.stops(case.plan("f", 1, 0, 1)));
}

#[test]
fn a_value_the_branch_edge_copies_into_a_phi_does_not_stop() {
    let _lock = sink_lock();
    // The else edge goes straight to the join, whose phi takes `v3` (`x`,
    // 0 on thread 1) from it: 2 is output instead.
    let case = Case::of(
        bw_ir::parse_module(
            "module main {
  global data : i64 x8 = 0
  spmd f
  func f() {
  bb0:
    v0: i64 = threadid
    v1: ptr = globaladdr g0
    v2: ptr = gep v1, v0
    v3: i64 = load.i64 v2
    v4: i64 = const 100
    v5: bool = cmp.gt v3, v4
    br v5, bb1, bb2
  bb1:
    v6: i64 = const 1
    jump bb2
  bb2:
    v7: i64 = phi [bb0, v3], [bb1, v6]
    output v7
    ret
  }
}
",
        )
        .expect("parses"),
    );
    assert!(!case.stops(case.plan("f", 0, 0, 1)));
}

#[test]
fn a_call_argument_does_not_stop() {
    let _lock = sink_lock();
    let case = Case::new(
        r#"
        int data[8];
        func g(a: int) { output(a); }
        @spmd func f() {
            var t: int = threadid();
            var x: int = data[t];
            if (x > 100) { output(1); } else { g(x); }
        }
        "#,
    );
    assert!(!case.stops(case.plan("f", 0, 0, 1)));
}

#[test]
fn a_returned_value_does_not_stop() {
    let _lock = sink_lock();
    let case = Case::new(
        r#"
        int data[8];
        func h(p: int) -> int {
            var x: int = data[p];
            if (x > 100) { return 0; }
            return x;
        }
        @spmd func f() {
            var t: int = threadid();
            output(h(t));
        }
        "#,
    );
    assert!(!case.stops(case.plan("h", 0, 0, 1)));
}

#[test]
fn an_operand_the_compare_reads_again_does_not_stop() {
    let _lock = sink_lock();
    // The loop bound `m` (3 on thread 1) is the compare's second data
    // value; 7 still lets the first iteration in, and then four more.
    let case = Case::new(
        r#"
        int data[8];
        @spmd func f() {
            var t: int = threadid();
            var m: int = data[t] + 3;
            for (var i: int = 0; i < m; i = i + 1) { output(i); }
        }
        "#,
    );
    assert!(!case.stops(case.plan("f", 0, 1, 2)));
}
