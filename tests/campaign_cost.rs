//! The exact cost of the three benchmark campaigns.
//!
//! `bwbench`'s `campaign-*` workloads time campaigns on a shared host,
//! where a few percent cannot be resolved from run to run. What a campaign
//! executes is deterministic, so this file pins it exactly instead: the
//! same three configurations at seed 0 on one worker — raytrace `Test`, 160
//! branch flips; FMM `Test`, 26 condition-bit flips; ocean-noncontig
//! `Small`, 80 branch flips — must run and skip exactly the interpreter
//! steps they do today (`WorkerStats::{steps_run, steps_skipped}`), so a
//! change that adds a step to every fork, or loses a fork, fails here.
//! FMM's five condition-bit flips that change nothing end at the fault and
//! skip their tails; their sum, 18,036,663 steps, is still what replaying
//! every plan from step 0 executes.
//!
//! FMM's checking is most of its cost, and its heap is pinned too, with the
//! shared counting allocator: allocations per injection, and the peak of
//! live heap bytes over the campaign. A fork continues a clone of the
//! prefix's monitor; when each fork built a fresh monitor and replayed the
//! prefix's event log into it, every fork paid each table doubling again
//! (220 allocations an injection), and while every run's result named its
//! metrics, each fork built ~30 names and merged a second copy of the
//! monitor's (168 an injection). The counters are per thread, which holds
//! the whole campaign: at one worker it runs on the calling thread.
//!
//! Since a fork checks only what differs from the golden run, the paths
//! the forks take are pinned as well, on FMM and on a water-nsquared `Test`
//! campaign of 40 branch flips at four threads (`bw_vm::ForkLedger`, a
//! `ledger:` line each): how many forks the difference monitor decided,
//! how many took the exact path, the copies made of a prefix's monitor and
//! the events a full monitor processed. A change that sends more forks down
//! the exact path, or checks more events in full, fails there.

#[path = "support/counting.rs"]
mod counting;

use std::cell::Cell;

use blockwatch::{Benchmark, Blockwatch, CampaignResult, ExecConfig, FaultModel, Size};
use bw_fault::{plan_campaign, CampaignConfig, ConditionLiveness, InjectionHook};
use bw_ir::{BranchId, ValueId};
use bw_vm::{BranchHook, FaultAction, ForkLedger, SimEngine, SimPrefix};
use counting::{allocations, gate, peak_bytes};

/// One campaign as `bwbench` runs it: four threads, one worker, seed 0,
/// the golden run made (and cached) before the campaign starts.
struct Measured {
    result: CampaignResult,
    /// Allocations the campaign made, golden run excluded.
    allocations: u64,
    /// The most heap the campaign held at once, above what was live before.
    peak_bytes: u64,
    /// The paths its forks took.
    forks: ForkLedger,
}

fn campaign(bw: &Blockwatch, model: FaultModel, injections: usize) -> Measured {
    bw.golden(&ExecConfig::new(4));
    let runner = bw.campaign_runner(injections, model, 4).seed(0).workers(1);
    let before = ForkLedger::of_this_thread();
    let (allocations, (peak_bytes, result)) = allocations(|| peak_bytes(|| runner.run()));
    let forks = ForkLedger::of_this_thread().since(before);
    Measured { result: result.expect("the golden run completes"), allocations, peak_bytes, forks }
}

/// Prints a campaign's fork paths as `ledger:` lines, then demands them:
/// `(difference, exact, monitor clones, full-monitor events)`.
#[track_caller]
fn pin_forks(name: &str, forks: ForkLedger, expected: (u64, u64, u64, u64)) {
    let counts = [
        ("difference_forks", forks.difference, expected.0),
        ("exact_forks", forks.exact, expected.1),
        ("monitor_clones", forks.monitor_clones, expected.2),
        ("full_monitor_events", forks.full_monitor_events, expected.3),
    ];
    for (what, value, pinned) in counts {
        println!("ledger: campaign.{name}.{what} {value} (pinned {pinned})");
    }
    let got = (forks.difference, forks.exact, forks.monitor_clones, forks.full_monitor_events);
    assert_eq!(got, expected, "{name}: forks (difference, exact, clones, full-monitor events)");
}

/// A plan's hook that notes whether its fault was invisible: whether the
/// run asked `dead_after`, and heard yes.
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

/// The forks of a seed-0 condition-bit-flip campaign of `injections` on
/// four threads that end at their fault: the plans whose fault is
/// invisible in a replay from step 0, less those that fire in `@init`
/// (the campaign replays those, and a replay never stops).
fn tail_less_forks(bw: &Blockwatch, injections: usize) -> usize {
    let image = bw.image();
    let config = CampaignConfig::new(injections, FaultModel::ConditionBitFlip, 4).seed(0);
    let golden = bw.golden(&config.sim);
    let faulty = config.sim.clone().max_steps(golden.total_steps * 8 + 100_000);
    let init = SimPrefix::new(image, &faulty, &golden).init_branches();
    let liveness = ConditionLiveness::new(image);
    let plans = plan_campaign(&golden.branches_per_thread, &config);
    let forked = plans.into_iter().filter(|p| p.tid != 0 || p.dyn_index > init);
    let invisible = |plan| {
        let probe =
            Probe { hook: InjectionHook::pruning(plan, &liveness), invisible: Cell::new(false) };
        SimEngine.run_hooked(image, &faulty, &probe);
        probe.invisible.get()
    };
    forked.filter(|&plan| invisible(plan)).count()
}

/// `(steps_run, steps_skipped)` over the campaign's workers.
fn steps(result: &CampaignResult) -> (u64, u64) {
    let stats = &result.worker_stats;
    (stats.iter().map(|w| w.steps_run).sum(), stats.iter().map(|w| w.steps_skipped).sum())
}

#[test]
fn the_benchmark_campaigns_cost_what_they_did() {
    let port = |bench: Benchmark, size| {
        Blockwatch::compile(&bench.source(size)).expect("the port compiles")
    };
    let raytrace = campaign(&port(Benchmark::Raytrace, Size::Test), FaultModel::BranchFlip, 160);
    assert_eq!(steps(&raytrace.result), (23_918_866, 19_223_070), "raytrace");

    let ocean = port(Benchmark::OceanNoncontig, Size::Small);
    let ocean = campaign(&ocean, FaultModel::BranchFlip, 80);
    assert_eq!(steps(&ocean.result), (19_391_360, 16_343_434), "ocean-noncontig");

    let injections = 26;
    let bw = port(Benchmark::Fmm, Size::Test);
    let fmm = campaign(&bw, FaultModel::ConditionBitFlip, injections);
    assert_eq!(steps(&fmm.result), (6_080_039, 11_956_624), "fmm");
    let per_injection = fmm.allocations as f64 / injections as f64;
    let peak_mb = fmm.peak_bytes as f64 / (1 << 20) as f64;
    gate("campaign.fmm.per_injection", per_injection, 112.0);
    gate("campaign.fmm.peak_mb", peak_mb, 10.0);
    pin_forks("fmm", fmm.forks, (20, 6, 5, 190_939));
    assert_eq!(tail_less_forks(&bw, injections), 5, "fmm: forks that end at the fault");

    let water = port(Benchmark::WaterNsquared, Size::Test);
    let water = campaign(&water, FaultModel::BranchFlip, 40);
    pin_forks("water", water.forks, (34, 5, 5, 49_968));
}
