//! The decoded stepper against the stepper it replaced.
//!
//! `reference/` holds the parent commit's tree-walking `ThreadState::step`
//! and run loops. Every test here runs a program through both and demands
//! the same [`RunResult`], field for field: outcome, outputs, cycles, step
//! and branch counts per thread, events, violations with their reports,
//! the telemetry snapshot and the captured event stream. "Close" does not
//! exist: a phi step counted in the wrong slot moves a clock, and a clock
//! moves the schedule.
//!
//! Debug builds thin the port sweep and shorten the campaigns (the
//! reference model takes ~0.3 µs a step there); `scripts/ci.sh` runs this
//! file in the release profile, where both are complete.
//!
//! Mutation check — each of these, applied to `src/thread.rs`, fails the
//! tests named: phi steps not counted → all six; a phi run counted whole
//! instead of split at the end of the budget → all but the real-threads
//! test; loop-stack pops off by one (either way) → the same five; the hook
//! consulted before the witness is captured → `injected_runs_match…` (its
//! condition-bit flips). Applied to `src/image.rs`'s link stage: the copies
//! of an edge made in the order the phis are written, cycles not broken →
//! `a_swap_and_a_rotation…` and `the_step_cut_lands_on_the_same_step` (no
//! port and no generated module carries a cyclic copy); entry-block phis
//! allowed to share their source's register →
//! `an_entry_block_trivial_phi…` alone; the branches' condition values not
//! kept in registers of their own → `injected_runs_match…` alone here (and
//! `tests/campaign_cost.rs` in the umbrella crate), because a corrupted
//! operand then leaks into the phis that share it.

mod reference;

use bw_fault::{plan_campaign, CampaignConfig, FaultModel, InjectionHook};
use bw_gen::{generate_module, GenConfig};
use bw_ir::{BinOp, CmpOp, FunctionBuilder, Module, Type, Val};
use bw_splash::{Benchmark, Size};
use bw_vm::{
    BranchHook, Engine, ExecConfig, ExecMode, MonitorMode, NoHook, ProgramImage, RealEngine,
    RunOutcome, RunResult, SimEngine,
};

/// Values by type and bit pattern, so a NaN equals itself.
fn bits(values: &[Val]) -> Vec<(Type, u64)> {
    values.iter().map(|v| (v.ty(), v.bits())).collect()
}

#[track_caller]
fn assert_same(new: &RunResult, old: &RunResult, what: &str) {
    assert_eq!(new.outcome, old.outcome, "outcome: {what}");
    assert_eq!(new.total_steps, old.total_steps, "total_steps: {what}");
    assert_eq!(new.steps_per_thread, old.steps_per_thread, "steps_per_thread: {what}");
    assert_eq!(new.branches_per_thread, old.branches_per_thread, "branches_per_thread: {what}");
    assert_eq!(new.parallel_cycles, old.parallel_cycles, "parallel_cycles: {what}");
    assert_eq!(bits(&new.outputs), bits(&old.outputs), "outputs: {what}");
    assert_eq!(new.events_sent, old.events_sent, "events_sent: {what}");
    assert_eq!(new.events_processed, old.events_processed, "events_processed: {what}");
    assert_eq!(new.branch_events, old.branch_events, "branch_events: {what}");
    assert_eq!(new.violations, old.violations, "violations: {what}");
    assert_eq!(new.violation_reports, old.violation_reports, "violation_reports: {what}");
    assert_eq!(new.engine, old.engine, "engine: {what}");
    assert_eq!(new.cycles, old.cycles, "cycles: {what}");
    assert_eq!(new.monitor, old.monitor, "monitor: {what}");
}

/// Runs `image` on the sim engine and on the reference model, each with
/// its own hook from `hook`, and compares everything.
#[track_caller]
fn check<H: BranchHook>(
    image: &ProgramImage,
    config: &ExecConfig,
    hook: impl Fn() -> H,
    what: &str,
) -> RunResult {
    let new = SimEngine.run_hooked(image, config, &hook());
    let old = reference::run_sim(image, config, &hook());
    assert_same(&new, &old, what);
    new
}

fn port(bench: Benchmark, size: Size) -> ProgramImage {
    ProgramImage::prepare_default(bench.module(size).expect("port compiles"))
}

#[test]
fn ports_match_the_reference_model() {
    let full = !cfg!(debug_assertions);
    let sizes: &[Size] = if full { &[Size::Test, Size::Small] } else { &[Size::Test] };
    let threads: &[u32] = if full { &[1, 2, 4, 8, 32] } else { &[1, 4, 32] };
    for bench in Benchmark::ALL {
        for &size in sizes {
            let image = port(bench, size);
            let mut case = 0usize;
            for &nthreads in threads {
                for monitor in [MonitorMode::Off, MonitorMode::SendOnly, MonitorMode::Enabled] {
                    for exec in [ExecMode::Normal, ExecMode::Duplicated] {
                        for quantum in [1, 3, 64] {
                            case += 1;
                            // Every seventh point of the grid in debug builds
                            // (7 is coprime to its 3 × 2 × 3 inner axes, so
                            // every value of each axis still comes up).
                            if !full && !case.is_multiple_of(7) {
                                continue;
                            }
                            let config = ExecConfig::new(nthreads)
                                .monitor(monitor)
                                .exec(exec)
                                .quantum(quantum)
                                .capture_events(true);
                            let what = format!(
                                "{} {size:?} t{nthreads} {monitor:?} {exec:?} q{quantum}",
                                bench.name()
                            );
                            let result = check(&image, &config, || NoHook, &what);
                            assert_eq!(result.outcome, RunOutcome::Completed, "{what}");
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn generated_modules_match_the_reference_model() {
    let gen = GenConfig::default();
    for seed in 0..200u64 {
        let image = ProgramImage::prepare_default(generate_module(seed, &gen));
        for nthreads in [1, 2, 4, 8] {
            // Every quantum and monitor mode comes round as seeds advance.
            let quantum = [1, 3, 64][(seed as usize + nthreads as usize) % 3];
            let monitor = [MonitorMode::Enabled, MonitorMode::SendOnly, MonitorMode::Off]
                [(seed as usize / 3) % 3];
            let config =
                ExecConfig::new(nthreads).monitor(monitor).quantum(quantum).capture_events(true);
            check(&image, &config, || NoHook, &format!("seed {seed:#x} t{nthreads} q{quantum}"));
        }
    }
}

/// Every run of a campaign, so that crashed and hung runs are compared by
/// their step counts and clocks, not only by their class.
#[test]
fn injected_runs_match_the_reference_model() {
    let injections = if cfg!(debug_assertions) { 20 } else { 200 };
    for bench in [Benchmark::Raytrace, Benchmark::Fmm] {
        let image = port(bench, Size::Test);
        let base = ExecConfig::new(4).capture_events(true);
        let golden = check(&image, &base, || NoHook, bench.name());
        // The campaign's own hang cut-off (bw-fault's `validate_and_plan`).
        let faulty =
            base.max_steps(golden.total_steps.saturating_mul(8).saturating_add(100_000));
        let mut outcomes = std::collections::BTreeMap::new();
        for model in [FaultModel::BranchFlip, FaultModel::ConditionBitFlip] {
            let campaign = CampaignConfig::new(injections, model, 4).seed(0x15_d1ff);
            for (i, plan) in
                plan_campaign(&golden.branches_per_thread, &campaign).into_iter().enumerate()
            {
                let what = format!("{} {model:?} #{i} {plan:?}", bench.name());
                let new_hook = InjectionHook::new(plan);
                let old_hook = InjectionHook::new(plan);
                let new = SimEngine.run_hooked(&image, &faulty, &new_hook);
                let old = reference::run_sim(&image, &faulty, &old_hook);
                assert_same(&new, &old, &what);
                assert_eq!(new_hook.injected_branch(), old_hook.injected_branch(), "{what}");
                *outcomes.entry(format!("{:?}", new.outcome)).or_insert(0usize) += 1;
            }
        }
        // The comparison is only worth its name if faults did derail runs.
        assert!(outcomes.len() > 1, "{}: every injected run ended as {outcomes:?}", bench.name());
    }
}

/// A program small enough to try every `max_steps`: phis on every loop
/// header (two of them swapping values, a cyclic parallel copy), nested
/// loops, a call in a loop, and loops in the serial phases too.
const TINY: &str = r#"
    shared int n = 3;
    int acc[32];
    mutex m;
    barrier b;
    func weigh(x: int, y: int) -> int {
        var w: int = 0;
        for (var k: int = 0; k < y; k = k + 1) { w = w + x; }
        return w;
    }
    @init func setup() {
        for (var i: int = 0; i < 4; i = i + 1) { acc[i] = i; }
    }
    @spmd func f() {
        var t: int = threadid();
        var a: int = 1;
        var c: int = 2;
        var sum: int = 0;
        // The header's phis for `a` and `c` read each other: a parallel
        // copy that is a cycle.
        for (var s: int = 0; s < 3; s = s + 1) {
            var swap: int = a;
            a = c;
            c = swap;
        }
        for (var i: int = 0; i < n; i = i + 1) {
            for (var j: int = 0; j < 2; j = j + 1) {
                sum = sum + weigh(a, j) + i;
                if (sum > 4) { output(sum); }
            }
        }
        lock(m);
        acc[t] = acc[t] + sum;
        unlock(m);
        barrier(b);
        output(a);
        output(c);
    }
    @fini func done() {
        var total: int = 0;
        for (var i: int = 0; i < 4; i = i + 1) { total = total + acc[i]; }
        output(total);
    }
"#;

#[test]
fn the_step_cut_lands_on_the_same_step() {
    let image = ProgramImage::prepare_default(bw_ir::frontend::compile(TINY).expect("compiles"));
    for nthreads in [1, 2, 3] {
        for quantum in [1, 3, 64] {
            let config = ExecConfig::new(nthreads).quantum(quantum).capture_events(true);
            let whole = check(&image, &config, || NoHook, "tiny, uncut");
            assert_eq!(whole.outcome, RunOutcome::Completed);
            // Every cut from "not one step" to "two to spare": N−2..N+2 of
            // the issue, and every phi run on the way there.
            let mut hung = 0;
            for max_steps in 0..=whole.total_steps + 2 {
                let cut = check(
                    &image,
                    &config.clone().max_steps(max_steps),
                    || NoHook,
                    &format!("tiny t{nthreads} q{quantum} max_steps {max_steps}"),
                );
                hung += usize::from(cut.outcome == RunOutcome::Hung);
            }
            assert_eq!(hung as u64, whole.total_steps, "every short budget hangs");
        }
    }

    // The real engine counts per thread and cuts one step late; with one
    // thread it is as deterministic as the model of it.
    let config = ExecConfig::new(1).monitor(MonitorMode::Off);
    let whole = reference::run_real_one_thread(&image, &config, &NoHook);
    assert_eq!(whole.outcome, RunOutcome::Completed);
    let longest = *whole.steps_per_thread.iter().max().expect("one thread");
    for max_steps in 0..=longest + 2 {
        let config = config.clone().max_steps(max_steps);
        let new = RealEngine.run(&image, &config);
        let old = reference::run_real_one_thread(&image, &config, &NoHook);
        let what = format!("tiny on real threads, max_steps {max_steps}");
        assert_eq!(new.outcome, old.outcome, "outcome: {what}");
        assert_eq!(new.total_steps, old.total_steps, "total_steps: {what}");
        assert_eq!(new.steps_per_thread, old.steps_per_thread, "steps_per_thread: {what}");
        assert_eq!(new.branches_per_thread, old.branches_per_thread, "branches: {what}");
        assert_eq!(bits(&new.outputs), bits(&old.outputs), "outputs: {what}");
    }
}

/// The real engine's workers against the model's per-thread counts: a
/// program whose control flow no schedule can reach (no float reduction
/// under a lock feeding a branch, no racing store) takes the same steps and
/// branches per thread, sends as many events and prints the same.
#[test]
fn real_threads_take_the_same_steps() {
    for bench in [Benchmark::Radix, Benchmark::Raytrace] {
        let image = port(bench, Size::Test);
        let config = ExecConfig::new(4);
        let old = reference::run_sim(&image, &config, &NoHook);
        let new = RealEngine.run(&image, &config);
        let what = bench.name();
        assert_eq!(new.outcome, old.outcome, "outcome: {what}");
        assert_eq!(new.steps_per_thread, old.steps_per_thread, "steps_per_thread: {what}");
        assert_eq!(new.branches_per_thread, old.branches_per_thread, "branches: {what}");
        assert_eq!(new.total_steps, old.total_steps, "total_steps: {what}");
        assert_eq!(new.events_sent, old.events_sent, "events_sent: {what}");
        assert_eq!(bits(&new.outputs), bits(&old.outputs), "outputs: {what}");
        assert!(new.violations.is_empty(), "{what}: {:?}", new.violations);
    }
}

/// A function whose *entry block* heads a loop (legal IR that no front end
/// here emits): called, it starts inside the loop with an empty loop stack
/// and phis no edge has fed, and the loop only appears on the stack at the
/// first back edge. Instance keys of the branches inside depend on all of
/// that; so do the phi steps owed on entry.
fn entry_block_loop() -> Module {
    let mut m = Module::new("entry_loop");
    let bound = m.add_global("bound", Type::I64, Val::I64(3), true);

    // func spin(): i = phi(latch: next); inner loop with a shared branch.
    let mut f = FunctionBuilder::new("spin", vec![], None);
    let head = f.current_block();
    let inner = f.add_block("inner");
    let body = f.add_block("body");
    let latch = f.add_block("latch");
    let exit = f.add_block("exit");
    let i = f.phi(Type::I64, vec![]);
    let limit = f.load_global(&m, bound);
    let more = f.cmp(CmpOp::Lt, i, limit);
    let zero = f.const_i64(0);
    f.br(more, inner, exit);
    f.switch_to(inner);
    let j = f.phi(Type::I64, vec![(head, zero)]);
    let two = f.const_i64(2);
    let again = f.cmp(CmpOp::Lt, j, two);
    f.br(again, body, latch);
    f.switch_to(body);
    let one = f.const_i64(1);
    let j_next = f.add(j, one);
    f.add_phi_incoming(j, body, j_next);
    let mixed = f.bin(BinOp::Add, i, j);
    f.output(mixed);
    f.jump(inner);
    f.switch_to(latch);
    let one = f.const_i64(1);
    let next = f.add(i, one);
    f.add_phi_incoming(i, latch, next);
    f.jump(head);
    f.switch_to(exit);
    f.ret(None);
    let spin = m.add_func(f.finish());

    // @spmd: call it from inside a loop, so the callee's floor on the loop
    // stack is not zero.
    let mut s = FunctionBuilder::new("slave", vec![], None);
    let entry = s.current_block();
    let header = s.add_block("header");
    let call = s.add_block("call");
    let done = s.add_block("done");
    let zero = s.const_i64(0);
    s.jump(header);
    s.switch_to(header);
    let r = s.phi(Type::I64, vec![(entry, zero)]);
    let two = s.const_i64(2);
    let more = s.cmp(CmpOp::Lt, r, two);
    s.br(more, call, done);
    s.switch_to(call);
    s.call(&mut m, spin, vec![]);
    let one = s.const_i64(1);
    let r_next = s.add(r, one);
    s.add_phi_incoming(r, call, r_next);
    s.jump(header);
    s.switch_to(done);
    s.ret(None);
    let slave = m.add_func(s.finish());
    m.spmd_entry = Some(slave);
    m
}

#[test]
fn a_loop_headed_by_the_entry_block_matches() {
    let image = ProgramImage::try_prepare(entry_block_loop(), Default::default())
        .expect("a back edge to the entry block verifies");
    for nthreads in [1, 4] {
        for quantum in [1, 3, 64] {
            let config = ExecConfig::new(nthreads).quantum(quantum).capture_events(true);
            let what = format!("entry loop t{nthreads} q{quantum}");
            let result = check(&image, &config, || NoHook, &what);
            assert_eq!(result.outcome, RunOutcome::Completed, "{what}");
            assert!(result.events_sent > 0, "{what}: the inner branches are instrumented");
            assert!(!result.detected(), "{what}: {:?}", result.violations);
        }
    }
}

/// A function whose entry block heads a loop and carries a *trivial* phi,
/// `p = phi(body: x)`, read again in the body after `x` is redefined there.
/// Outside the entry block such a phi shares `x`'s register; here it must
/// not: on the first iteration no edge has fed it, so it still reads the
/// zero it was born with while `x` already holds 7.
fn entry_block_trivial_phi() -> Module {
    let mut m = Module::new("entry_trivial");
    let mut f = FunctionBuilder::new("echo", vec![], None);
    let head = f.current_block();
    let body = f.add_block("body");
    let exit = f.add_block("exit");
    let i = f.phi(Type::I64, vec![]);
    let p = f.phi(Type::I64, vec![]);
    let three = f.const_i64(3);
    let more = f.cmp(CmpOp::Lt, i, three);
    f.br(more, body, exit);
    f.switch_to(body);
    f.output(p);
    let seven = f.const_i64(7);
    let x = f.add(i, seven);
    f.output(p);
    f.output(x);
    let one = f.const_i64(1);
    let next = f.add(i, one);
    f.add_phi_incoming(i, body, next);
    f.add_phi_incoming(p, body, x);
    f.jump(head);
    f.switch_to(exit);
    f.output(p);
    f.ret(None);
    let echo = m.add_func(f.finish());

    let mut s = FunctionBuilder::new("slave", vec![], None);
    s.call(&mut m, echo, vec![]);
    s.ret(None);
    let slave = m.add_func(s.finish());
    m.spmd_entry = Some(slave);
    m
}

#[test]
fn an_entry_block_trivial_phi_keeps_its_own_register() {
    let image = ProgramImage::try_prepare(entry_block_trivial_phi(), Default::default())
        .expect("a back edge to the entry block verifies");
    for nthreads in [1, 3] {
        for quantum in [1, 3, 64] {
            let config = ExecConfig::new(nthreads).quantum(quantum).capture_events(true);
            let what = format!("entry-block trivial phi t{nthreads} q{quantum}");
            let result = check(&image, &config, || NoHook, &what);
            assert_eq!(result.outcome, RunOutcome::Completed, "{what}");
            // Each thread prints p, p, x per iteration, then p.
            let one = [0, 0, 7, 7, 7, 8, 8, 8, 9, 9];
            let want: Vec<Val> =
                (0..nthreads).flat_map(|_| one).map(Val::I64).collect();
            assert_eq!(bits(&result.outputs), bits(&want), "{what}");
        }
    }
}

/// A loop whose header carries a two-phi swap `(a, b) = (b, a)` and a
/// three-phi rotation `(c, d, e) = (d, e, c)` around its back edge: parallel
/// copies that are cycles, which copying in the order the phis are written
/// gets wrong. Each thread also offsets the values by its id, so the copies
/// are not the same in every thread.
fn swap_and_rotation() -> Module {
    let mut m = Module::new("cycles");
    let mut f = FunctionBuilder::new("slave", vec![], None);
    let entry = f.current_block();
    let head = f.add_block("head");
    let body = f.add_block("body");
    let exit = f.add_block("exit");
    let t = f.thread_id();
    let zero = f.const_i64(0);
    let starts: Vec<_> = (1..=5)
        .map(|k| {
            let k = f.const_i64(k * 10);
            f.add(k, t)
        })
        .collect();
    f.jump(head);
    f.switch_to(head);
    let k = f.phi(Type::I64, vec![(entry, zero)]);
    let phis: Vec<_> = starts.iter().map(|&v| f.phi(Type::I64, vec![(entry, v)])).collect();
    let (a, b, c, d, e) = (phis[0], phis[1], phis[2], phis[3], phis[4]);
    let four = f.const_i64(4);
    let more = f.cmp(CmpOp::Lt, k, four);
    f.br(more, body, exit);
    f.switch_to(body);
    f.output(a);
    f.output(c);
    let one = f.const_i64(1);
    let next = f.add(k, one);
    f.add_phi_incoming(k, body, next);
    for (phi, from) in [(a, b), (b, a), (c, d), (d, e), (e, c)] {
        f.add_phi_incoming(phi, body, from);
    }
    f.jump(head);
    f.switch_to(exit);
    for v in phis {
        f.output(v);
    }
    f.ret(None);
    let slave = m.add_func(f.finish());
    m.spmd_entry = Some(slave);
    m
}

#[test]
fn a_swap_and_a_rotation_around_a_loop_match() {
    let image = ProgramImage::try_prepare(swap_and_rotation(), Default::default())
        .expect("the cycles module verifies");
    for nthreads in [1, 4] {
        for quantum in [1, 3, 64] {
            let config = ExecConfig::new(nthreads).quantum(quantum).capture_events(true);
            let what = format!("swap and rotation t{nthreads} q{quantum}");
            let result = check(&image, &config, || NoHook, &what);
            assert_eq!(result.outcome, RunOutcome::Completed, "{what}");
            // Thread 0: (a, c) per iteration, then a..e after four of them.
            let want: Vec<i64> = vec![10, 30, 20, 40, 10, 50, 20, 30, 10, 20, 40, 50, 30];
            let first: Vec<i64> = result.outputs[..want.len()]
                .iter()
                .map(|v| v.as_i64().expect("integers"))
                .collect();
            assert_eq!(first, want, "{what}");
        }
    }
}
