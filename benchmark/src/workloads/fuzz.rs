//! `fuzz-oracle`: generated modules through the differential oracle.
//!
//! One unit of work is `generate_module(seed)` → `check_module(..,
//! DEFAULT_THREADS, seed)` for a fixed run of seeds starting at `--seed` ·
//! 65536, default `GenConfig`; the unit is repeated until `--seconds` have
//! passed and must return the same verdicts every time. A seed the oracle
//! fails is a defect of the program under test: counted against
//! `success_rate`, not shrunk.
//!
//! `check_module` spawns a four-worker pool for its analysis-parity
//! invariant; that is the program's behaviour, and the only place any
//! workload has more than two runnable threads.

use bw_gen::{check_image, check_module, generate_module, GenConfig, DEFAULT_THREADS};
use bw_ir::{parse_module, ModulePrinter};

use super::{caught, prepare_staged, state_shape, Ctx, Shape};
use crate::clock::Reps;
use crate::stats::{median, percentile};
use crate::trace::{Layer, Tracer};

/// Seeds per unit of work.
const SEEDS: usize = 600;
/// Seeds per unit under `--quick`.
const QUICK_SEEDS: usize = 40;
/// Seeds per calibrated slice (≈35 ms).
const CHUNK: usize = 25;

/// Verdict on one seed: `None` when the oracle passes, else the failure
/// class.
type Verdict = Option<&'static str>;

fn seed_at(base: u64, index: usize) -> u64 {
    base.wrapping_mul(65536).wrapping_add(index as u64)
}

/// `check_module` taken apart, each stage in a span. Returns the verdict
/// and the oracle runs, and adds the module's shape to `shape`.
fn check_staged(tracer: &mut Tracer, seed: u64, shape: &mut Shape) -> (Verdict, u64) {
    tracer.set_op(seed);
    let open = tracer.enter(Layer::Gen, "gen.seed");
    let staged = caught(|| {
        let module = tracer
            .span(Layer::Gen, "gen.generate", || generate_module(seed, &GenConfig::default()));
        let text = tracer.span(Layer::Ir, "ir.text.print", || ModulePrinter(&module).to_string());
        let reparsed = tracer.span(Layer::Ir, "ir.text.parse", || parse_module(&text));
        if !matches!(&reparsed, Ok(m) if *m == module) {
            return (Some("round-trip"), 0);
        }
        match prepare_staged(tracer, module) {
            Err((class, _)) => (Some(class), 0),
            Ok(image) => {
                shape.add(Shape::of(&image));
                match tracer
                    .span(Layer::Gen, "gen.oracle", || check_image(&image, &DEFAULT_THREADS, seed))
                {
                    Ok(stats) => (None, stats.runs),
                    Err(failure) => (Some(failure.class()), 0),
                }
            }
        }
    });
    match staged {
        Some(verdict) => {
            tracer.exit(open);
            verdict
        }
        None => {
            tracer.abandon(open);
            (Some("panic"), 0)
        }
    }
}

/// Runs the workload.
pub fn run(ctx: &mut Ctx) {
    let n = ctx.count(SEEDS, QUICK_SEEDS);
    let base = ctx.seed;

    // Set-up: the first slice's seeds once through the whole pipeline, so
    // lazily built state (allocator arenas, the live-metric registry) is in
    // place before the timed region.
    ctx.setup(|_| {
        for i in 0..CHUNK.min(n) {
            let seed = seed_at(base, i);
            std::hint::black_box(caught(|| {
                let module = generate_module(seed, &GenConfig::default());
                check_module(&module, &DEFAULT_THREADS, seed).is_ok()
            }));
        }
    });

    let traced = ctx.traced;
    let (seconds, min_reps) = if traced { (0.0, 2) } else { (ctx.seconds, ctx.min_reps()) };
    let mut first: Option<(Vec<Verdict>, u64)> = None;
    let mut diverged = 0usize;
    let reps = Reps::run(&mut ctx.meter, seconds, min_reps, 256, |meter, _| {
        let mut verdicts = Vec::with_capacity(n);
        let mut oracle_runs = 0;
        meter.begin();
        for i in 0..n {
            let seed = seed_at(base, i);
            let checked = caught(|| {
                let module = generate_module(seed, &GenConfig::default());
                check_module(&module, &DEFAULT_THREADS, seed)
            });
            match checked {
                Some(Ok(stats)) => {
                    oracle_runs += stats.runs;
                    verdicts.push(None);
                }
                Some(Err(failure)) => verdicts.push(Some(failure.class)),
                None => verdicts.push(Some("panic")),
            }
            if (i + 1) % CHUNK == 0 || i + 1 == n {
                meter.mark(((i % CHUNK) + 1) as u64);
            }
        }
        match &first {
            None => first = Some((verdicts, oracle_runs)),
            Some(f) => diverged += usize::from(f.0 != verdicts || f.1 != oracle_runs),
        }
    });
    let (verdicts, oracle_runs) = first.expect("at least one repetition");
    if diverged > 0 {
        ctx.wrong(format!(
            "{diverged} repetition(s) returned different verdicts for the same seeds"
        ));
    }

    let failing: Vec<String> = verdicts
        .iter()
        .enumerate()
        .filter_map(|(i, v)| v.map(|class| format!("{:#x}:{class}", seed_at(base, i))))
        .collect();
    ctx.out.attempted = n as u64;
    ctx.out.defects = failing.len() as u64;
    ctx.seed_fact("fuzz.failing_seeds", failing.join(" "));
    ctx.seed_fact("fuzz.oracle_runs", oracle_runs);
    // The typical slice of 25 seeds, not the mean one: generated programs'
    // costs have a long tail, and which block of seeds draws how much of it
    // moved the mean rate by 10 % from seed to seed, the median slice's by 6.
    ctx.metric("seeds_per_s", reps.typical_rate(|_| true));
    ctx.info("seeds_per_s_mean", format!("{:.1}", reps.rate(|_| true)));
    ctx.info("seeds_per_raw_s", format!("{:.1}", reps.raw_rate(|_| true)));
    ctx.info("repetitions", reps.reps.len());
    ctx.info("seeds_per_unit", n);
    ctx.info(
        "failing_seeds",
        if failing.is_empty() { "none".to_string() } else { failing.join(" ") },
    );

    if traced {
        let root = ctx.tracer.enter(Layer::Bench, "timed");
        let mut shape = Shape::default();
        let mut staged_runs = 0;
        ctx.meter.begin();
        let staged: Vec<Verdict> = (0..n)
            .map(|i| {
                let (verdict, runs) = check_staged(&mut ctx.tracer, seed_at(base, i), &mut shape);
                staged_runs += runs;
                verdict
            })
            .collect();
        ctx.meter.mark(n as u64);
        ctx.tracer.exit(root);
        let staged_nominal_s = ctx.meter.take()[0].nominal_s;
        if staged != verdicts || staged_runs != oracle_runs {
            let differing = staged.iter().zip(&verdicts).filter(|(a, b)| a != b).count();
            ctx.wrong(format!(
                "stage-by-stage verdicts differ from check_module's on {differing} seed(s) \
                 ({staged_runs} vs {oracle_runs} oracle runs)"
            ));
        }
        let opaque_nominal_s: f64 = reps.slice_times().iter().sum();
        ctx.layer("bench.trace_overhead_ratio", staged_nominal_s / opaque_nominal_s);
        state_shape(ctx, "fuzz", shape, true);
        layer_metrics(ctx, shape, oracle_runs, failing.len());
    }
}

fn layer_metrics(ctx: &mut Ctx, shape: Shape, oracle_runs: u64, failed: usize) {
    let t = &ctx.tracer;
    let seed_us: Vec<f64> = t.durations("gen.seed").iter().map(|s| s * 1e6).collect();
    let metrics = [
        ("gen.generate_us", t.mean_us("gen.generate")),
        ("gen.roundtrip_us", t.mean_us("ir.text.print") + t.mean_us("ir.text.parse")),
        (
            "gen.parity_us",
            t.mean_us("analysis.seq") + t.mean_us("analysis.par1") + t.mean_us("analysis.par2"),
        ),
        ("gen.prepare_us", t.mean_us("vm.prepare")),
        ("gen.oracle_us", t.mean_us("gen.oracle")),
        ("gen.seed_us_p50", median(&seed_us)),
        ("gen.seed_us_p99", percentile(&seed_us, 0.99)),
        ("gen.oracle_runs", oracle_runs as f64),
        ("gen.failed_seeds", failed as f64),
        ("analysis.seq_values_per_s", shape.values as f64 / t.total("analysis.seq")),
    ];
    for (name, value) in metrics {
        ctx.layer(name, value);
    }
    ctx.layer_metrics_from_spans();
}
