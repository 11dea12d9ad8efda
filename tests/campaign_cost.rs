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
//! FMM's checking is most of its cost, and its heap is pinned too, with a
//! counting global allocator: allocations per injection, and the peak of
//! live heap bytes over the campaign. A fork continues a clone of the
//! prefix's monitor; when each fork built a fresh monitor and replayed the
//! prefix's event log into it, every fork paid each table doubling again
//! (220 allocations an injection), and while every run's result named its
//! metrics, each fork built ~30 names and merged a second copy of the
//! monitor's (168 an injection). The allocator's counters are
//! process-wide, so this file holds one test: no other test of the same
//! binary allocates while it measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use blockwatch::{Benchmark, Blockwatch, CampaignResult, ExecConfig, FaultModel, Size};
use bw_fault::{plan_campaign, CampaignConfig, ConditionLiveness, InjectionHook};
use bw_ir::{BranchId, ValueId};
use bw_vm::{BranchHook, FaultAction, SimEngine, SimPrefix};

/// Allocations and reallocations made.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
/// Bytes allocated and not freed.
static LIVE: AtomicU64 = AtomicU64::new(0);
/// The most `LIVE` has been since it was last reset.
static PEAK: AtomicU64 = AtomicU64::new(0);

struct Counting;

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are statics updated with
// atomic operations, which neither allocate nor re-enter the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        grow(layout.size());
        // SAFETY: the caller's obligations are `System.alloc`'s own.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        grow(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        if new_size > layout.size() {
            grow(new_size - layout.size());
        } else {
            shrink(layout.size() - new_size);
        }
        // SAFETY: `ptr` came from this allocator, that is from `System`,
        // with `layout`; the caller guarantees the rest.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        // SAFETY: `ptr` came from `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// One campaign as `bwbench` runs it: four threads, one worker, seed 0,
/// the golden run made (and cached) before the campaign starts.
struct Measured {
    result: CampaignResult,
    /// Allocations the campaign made, golden run excluded.
    allocations: u64,
    /// The most heap the campaign held at once, above what was live before.
    peak_bytes: u64,
}

fn campaign(bw: &Blockwatch, model: FaultModel, injections: usize) -> Measured {
    bw.golden(&ExecConfig::new(4));
    let runner = bw.campaign_runner(injections, model, 4).seed(0).workers(1);
    let (allocations, live) = (ALLOCATIONS.load(Ordering::Relaxed), LIVE.load(Ordering::Relaxed));
    PEAK.store(live, Ordering::Relaxed);
    let result = runner.run().expect("the golden run completes");
    Measured {
        allocations: ALLOCATIONS.load(Ordering::Relaxed) - allocations,
        peak_bytes: PEAK.load(Ordering::Relaxed) - live,
        result,
    }
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
    let init = SimPrefix::new(image, &faulty).init_branches();
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
    println!("fmm: {per_injection:.1} allocations an injection, peak {peak_mb:.2} MB live");
    assert!(per_injection <= 112.0, "fmm: {per_injection:.1} allocations an injection");
    assert!(peak_mb <= 10.0, "fmm: peak {peak_mb:.2} MB of live heap");
    assert_eq!(tail_less_forks(&bw, injections), 5, "fmm: forks that end at the fault");
}
