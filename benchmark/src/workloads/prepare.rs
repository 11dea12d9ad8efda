//! `prepare-pipeline`: everything before the first simulated step.
//!
//! Set-up generates the corpus: the seven port sources at reference size
//! and 256 generated modules at each of four statement budgets (seeds from
//! `--seed` · 65536). One unit of work compiles the seven sources with
//! `Blockwatch::compile` and takes every generated module through print →
//! `parse_module` → `ProgramImage::try_prepare`. No program runs.

use blockwatch::{Benchmark, Blockwatch, Size};
use bw_gen::{generate_module, GenConfig};
use bw_ir::{parse_module, Module, ModulePrinter};
use bw_vm::ProgramImage;

use super::{caught, port_source, prepare_staged, state_shape, Ctx, Shape};
use crate::clock::{Meter, Reps};
use crate::spec::slug;
use crate::trace::{Layer, Tracer};

/// Statement budgets of the generated modules.
const MAX_STMTS: [u32; 4] = [60, 120, 240, 480];
/// Modules per budget.
const MODULES: usize = 256;
/// Modules per budget under `--quick`.
const QUICK_MODULES: usize = 8;

/// The inputs set-up generates.
struct Corpus {
    sources: Vec<(Benchmark, String)>,
    /// One group of modules per statement budget.
    groups: Vec<Vec<Module>>,
}

/// What one unit of work produced.
#[derive(Default, PartialEq)]
struct UnitResult {
    ports: Vec<Shape>,
    generated: Shape,
    failed: u64,
}

/// One unit through the opaque entry points, one slice for the ports and
/// one per module group.
fn unit(meter: &mut Meter, tracer: &mut Tracer, corpus: &Corpus) -> UnitResult {
    let mut out = UnitResult::default();
    meter.begin();
    for (_, source) in &corpus.sources {
        match tracer.span(Layer::Core, "core.compile", || Blockwatch::compile(source)) {
            Ok(bw) => out.ports.push(Shape::of(bw.image())),
            Err(_) => out.failed += 1,
        }
    }
    meter.mark(corpus.sources.len() as u64);
    for group in &corpus.groups {
        for module in group {
            let prepared = caught(|| {
                let text = ModulePrinter(module).to_string();
                parse_module(&text).ok().filter(|reparsed| reparsed == module).and_then(
                    |reparsed| ProgramImage::try_prepare(reparsed, Default::default()).ok(),
                )
            });
            match prepared.flatten() {
                Some(image) => out.generated.add(Shape::of(&image)),
                None => out.failed += 1,
            }
        }
        meter.mark(group.len() as u64);
    }
    out
}

/// The same unit stage by stage, every call in a span.
fn unit_staged(tracer: &mut Tracer, corpus: &Corpus) -> UnitResult {
    let mut out = UnitResult::default();
    let mut op = 0;
    for (_, source) in &corpus.sources {
        tracer.set_op(op);
        op += 1;
        let prepared = tracer
            .span(Layer::Ir, "ir.frontend.compile", || bw_ir::frontend::compile(source))
            .ok()
            .and_then(|module| prepare_staged(tracer, module).ok());
        match prepared {
            Some(image) => out.ports.push(Shape::of(&image)),
            None => out.failed += 1,
        }
    }
    for module in corpus.groups.iter().flatten() {
        tracer.set_op(op);
        op += 1;
        let open = tracer.enter(Layer::Bench, "module");
        let prepared = caught(|| {
            let text =
                tracer.span(Layer::Ir, "ir.text.print", || ModulePrinter(module).to_string());
            tracer
                .span(Layer::Ir, "ir.text.parse", || parse_module(&text))
                .ok()
                .filter(|reparsed| reparsed == module)
                .and_then(|reparsed| prepare_staged(tracer, reparsed).ok())
        });
        match prepared {
            Some(prepared) => {
                tracer.exit(open);
                match prepared {
                    Some(image) => out.generated.add(Shape::of(&image)),
                    None => out.failed += 1,
                }
            }
            None => {
                tracer.abandon(open);
                out.failed += 1;
            }
        }
    }
    out
}

/// Runs the workload.
pub fn run(ctx: &mut Ctx) {
    let size = if ctx.quick { Size::Test } else { Size::Reference };
    let per_group = ctx.count(MODULES, QUICK_MODULES);
    let base = ctx.seed.wrapping_mul(65536);

    let corpus = ctx.setup(|tracer| Corpus {
        sources: Benchmark::ALL.iter().map(|&b| (b, port_source(tracer, b, size))).collect(),
        groups: MAX_STMTS
            .iter()
            .enumerate()
            .map(|(group, &max_stmts)| {
                let config = GenConfig { max_stmts, ..GenConfig::default() };
                // Every group draws its own seeds. A seed the generator
                // itself panics on yields no module and is reported below as
                // a defect.
                let first = base.wrapping_add((group * per_group) as u64);
                (0..per_group as u64)
                    .filter_map(|i| {
                        tracer.span(Layer::Gen, "gen.generate", || {
                            caught(|| generate_module(first.wrapping_add(i), &config))
                        })
                    })
                    .collect()
            })
            .collect(),
    });
    let modules = corpus.sources.len() + corpus.groups.iter().map(Vec::len).sum::<usize>();

    let traced = ctx.traced;
    let (seconds, min_reps) = if traced { (0.0, 2) } else { (ctx.seconds, ctx.min_reps()) };
    let mut first: Option<UnitResult> = None;
    let mut diverged = 0usize;
    let tracer = &mut ctx.tracer;
    let reps = Reps::run(&mut ctx.meter, seconds, min_reps, 4096, |meter, _| {
        let result = unit(meter, tracer, &corpus);
        match &first {
            None => first = Some(result),
            Some(f) => diverged += usize::from(*f != result),
        }
    });
    let first = first.expect("at least one repetition");
    if diverged > 0 {
        ctx.wrong(format!("{diverged} repetition(s) prepared the same corpus differently"));
    }

    let ungenerated = (MAX_STMTS.len() * per_group + corpus.sources.len() - modules) as u64;
    ctx.out.attempted = modules as u64 + ungenerated;
    ctx.out.defects = first.failed + ungenerated;
    for ((bench, _), shape) in corpus.sources.iter().zip(&first.ports) {
        state_shape(ctx, &format!("prepare.{}", slug(*bench)), *shape, false);
    }
    state_shape(ctx, "prepare.generated", first.generated, true);
    ctx.metric("modules_per_s", reps.rate(|_| true));
    ctx.info("modules_per_raw_s", format!("{:.1}", reps.raw_rate(|_| true)));
    ctx.info("repetitions", reps.reps.len());
    ctx.info("modules_per_unit", modules);

    if traced {
        let root = ctx.tracer.enter(Layer::Bench, "timed");
        ctx.meter.begin();
        let staged = unit_staged(&mut ctx.tracer, &corpus);
        ctx.meter.mark(modules as u64);
        ctx.tracer.exit(root);
        let staged_nominal_s = ctx.meter.take()[0].nominal_s;
        if staged != first {
            ctx.wrong("the stage-by-stage pipeline prepared different programs".to_string());
        }
        let opaque_nominal_s: f64 = reps.slice_times().iter().sum();
        ctx.layer("bench.trace_overhead_ratio", staged_nominal_s / opaque_nominal_s);

        let mut all = first.generated;
        first.ports.iter().for_each(|s| all.add(*s));
        for (name, value) in all.fields() {
            ctx.layer(name, value as f64);
        }
        let source_bytes: usize = corpus.sources.iter().map(|(_, s)| s.len()).sum();
        ctx.layer("splash.source_bytes", source_bytes as f64);
        ctx.layer(
            "ir.frontend.mb_per_s",
            source_bytes as f64 / 1e6 / ctx.tracer.total("ir.frontend.compile"),
        );
        ctx.layer(
            "analysis.seq_values_per_s",
            all.values as f64 / ctx.tracer.total("analysis.seq"),
        );
        ctx.layer("gen.generate_us", ctx.tracer.mean_us("gen.generate"));
        ctx.layer_metrics_from_spans();
    }
}
