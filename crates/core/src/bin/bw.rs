//! `bw` — the BLOCKWATCH command-line tool: compile, analyze, protect and
//! fault-test SPMD mini-language programs. `bw help` prints the synopsis of
//! every subcommand and what every flag does; that text is rendered from
//! the [`COMMANDS`] and [`FLAGS`] tables below, which are also what the
//! parser ([`blockwatch::cli`]) accepts — a subcommand or flag is added by
//! adding a row. A `--flag` its subcommand does not list is an error (exit
//! 1 with the usage), never silently ignored.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use blockwatch::cli::{command, emit, flag, Args, Cli, Command, Flag};
use blockwatch::ir::ModulePrinter;
use blockwatch::timeline::TimelineReport;
use blockwatch::trace::{
    render_histograms, render_telemetry, ForensicsReport, SeriesReport, TraceSummary,
};
use blockwatch::telemetry::{JsonlRecorder, MetricRegistry, Recorder, Sampler};
use blockwatch::vm::MonitorMode;
use blockwatch::{
    Benchmark, Blockwatch, CampaignProgress, EngineKind, ExecConfig, FaultModel, RunOutcome, Size,
    TelemetrySnapshot, WorkerStats,
};

const COMMANDS: &[Command] = &[
    command("analyze", Some("<file>"), "print per-branch similarity categories"),
    command("run", Some("<file>"), "run under the monitor"),
    command("ir", Some("<file>"), "dump the SSA IR"),
    command("campaign", Some("<file>"), "fault-injection campaign with and without BLOCKWATCH"),
    command(
        "fuzz",
        None,
        "generate random SPMD programs and run the differential oracle; failures are shrunk and \
         saved as fuzz-<seed>.bwir",
    ),
    command("gen", None, "dump a seeded random SPMD module as textual IR (replayable with bw run)"),
    command("stats", Some("<trace.jsonl>"), "summarize a JSONL telemetry trace"),
    command(
        "top",
        Some("<trace.jsonl>"),
        "time-series view of a sampled trace: per-tick events/s, campaign progress with ETA, \
         per-shard queue depth",
    ),
    command("timeline", Some("<trace.jsonl>"), "per-thread span lanes from a --trace-spans trace"),
    command(
        "report",
        Some("<trace.jsonl>"),
        "violation forensics from a trace: per-category detection matrix, top violating sites, \
         deviant-thread tables",
    ),
];

const LOADING: &[&str] = &["analyze", "run", "ir", "campaign"];
const EXECUTING: &[&str] = &["run", "campaign", "fuzz"];

/// Every flag `bw` knows, each defined once, in the order the synopses list
/// them: name, how the usage writes its value (`None` = a switch), the
/// subcommands that accept it, what it does.
const FLAGS: &[Flag] = &[
    flag("--size", Some("test|small|reference"), LOADING, "input size of a splash:<name> port"),
    flag("--threads", Some("N"), &["run", "campaign"], "SPMD threads (default 4)"),
    flag("--injections", Some("K"), &["campaign"], "faults to inject, one per run (default 200)"),
    flag("--model", Some("flip|cond"), &["campaign"], "flip the branch, or a bit of its condition"),
    flag(
        "--workers",
        Some("W"),
        &["campaign"],
        "worker threads (default 0: available parallelism); results are identical at any W",
    ),
    flag("--seeds", Some("N"), &["fuzz"], "how many seeds to sweep (default 100)"),
    flag("--start", Some("S"), &["fuzz"], "first seed, decimal or 0x-hex (default 0)"),
    flag("--threads", Some("T1,T2,.."), &["fuzz"], "thread counts of the oracle (default 1,2,4,8)"),
    flag("--inject", Some("K"), &["fuzz"], "also run a K-injection campaign on every passing seed"),
    flag("--seed", Some("S"), &["gen"], "module seed, decimal or 0x-hex (default 0)"),
    flag("--max-stmts", Some("M"), &["fuzz", "gen"], "statements per SPMD body (default 40)"),
    flag("--out", Some("FILE"), &["gen"], "write the module there instead of stdout"),
    flag("--engine", Some("sim|real"), &["run"], "deterministic simulator (default), OS threads"),
    flag(
        "--real-cross-check",
        None,
        &["fuzz"],
        "re-run every oracle run on OS threads; what is schedule-independent must agree",
    ),
    flag(
        "--monitor-shards",
        Some("S"),
        &["run"],
        "split the monitor ingest across S workers, each owning a disjoint (site, branch) slice; \
         verdicts are byte-identical at any S. Throughput on the real engine, whose shards are \
         threads; the simulator runs them inline",
    ),
    flag("--require-coverage", None, &["fuzz"], "fail unless every check kind was exercised"),
    flag("--progress", None, &["campaign"], "live injections/s and ETA on stderr"),
    flag("--stats", None, &["run", "campaign"], "print the telemetry summary table"),
    flag("--series", None, &["stats"], "also render the trace's sample records as a time series"),
    flag("--format", Some("text|json"), &["stats"], "output form"),
    flag("--chrome", Some("OUT.json"), &["timeline"], "also export Chrome Trace Event JSON"),
    flag("--phase-profile", None, &["timeline"], "flag straggler threads per barrier phase"),
    flag("--telemetry", Some("T.jsonl"), EXECUTING, "write a JSONL trace for the trace readers"),
    flag(
        "--sample-interval-ms",
        Some("MS"),
        EXECUTING,
        "background sampler appending `sample` records (counter deltas, gauge levels) to the \
         --telemetry trace, for `bw top` and `bw stats --series`",
    ),
    flag(
        "--trace-spans",
        None,
        EXECUTING,
        "stream causal `tspan` records into the --telemetry trace, for `bw timeline`: barrier \
         phases, lock wait/hold, monitor-shard flushes, campaign stages and injections, and flow \
         arrows from a deviant thread's branch event to the verdict that flagged it",
    ),
];

static CLI: Cli = Cli {
    prefix: "bw ",
    commands: COMMANDS,
    flags: FLAGS,
    notes: "  <file> is a source path, a .bwir textual-IR dump (e.g. a fuzz repro), or
  splash:<name> (fft, fmm, radix, raytrace, water, ocean-contig,
  ocean-noncontig).

  --sample-interval-ms and --trace-spans are observability-only: verdicts,
  results and `bw report` output are byte-identical with or without.",
};

fn main() -> ExitCode {
    CLI.main(None, |args| match args.command() {
        "analyze" => cmd_analyze(args),
        "run" => cmd_run(args),
        "ir" => cmd_ir(args),
        "campaign" => cmd_campaign(args),
        "fuzz" => cmd_fuzz(args),
        "gen" => cmd_gen(args),
        "stats" => cmd_stats(args),
        "top" => cmd_top(args),
        "timeline" => cmd_timeline(args),
        "report" => cmd_report(args),
        other => Err(format!("`bw {other}` is in COMMANDS but has no body")),
    })
}

/// The program the `<file>` operand names.
fn load(args: &Args) -> Result<Blockwatch, String> {
    let spec = args.operand()?;
    if let Some(name) = spec.strip_prefix("splash:") {
        let bench = match name {
            "ocean-contig" | "ocean" => Benchmark::OceanContig,
            "fft" => Benchmark::Fft,
            "fmm" => Benchmark::Fmm,
            "ocean-noncontig" => Benchmark::OceanNoncontig,
            "radix" => Benchmark::Radix,
            "raytrace" => Benchmark::Raytrace,
            "water" | "water-nsquared" => Benchmark::WaterNsquared,
            other => return Err(format!("unknown SPLASH benchmark `{other}`")),
        };
        let size = args.choice(
            "--size",
            &[("test", Size::Test), ("small", Size::Small), ("reference", Size::Reference)],
        )?;
        let module = bench.module(size).map_err(|e| format!("{e}"))?;
        return Blockwatch::from_module(module).map_err(|e| format!("{e}"));
    }
    let source =
        std::fs::read_to_string(spec).map_err(|e| format!("cannot read `{spec}`: {e}"))?;
    if spec.ends_with(".bwir") {
        let module = blockwatch::ir::parse_module(&source).map_err(|e| format!("{e}"))?;
        return Blockwatch::from_module(module).map_err(|e| format!("{e}"));
    }
    Blockwatch::compile(&source).map_err(|e| format!("{e}"))
}

/// What the three tracing flags set up, for as long as the traced work
/// runs: the `--telemetry` recorder, the `--sample-interval-ms` sampler
/// appending to the same trace (it reads the global [`MetricRegistry`])
/// and the `--trace-spans` global span sink.
struct Tracing {
    recorder: Option<Arc<JsonlRecorder>>,
    sampler: Option<Sampler>,
    spans: bool,
}

impl Tracing {
    fn start(args: &Args) -> Result<Tracing, String> {
        let recorder = match args.get("--telemetry") {
            Some(path) => Some(Arc::new(
                JsonlRecorder::create(std::path::Path::new(path))
                    .map_err(|e| format!("cannot create `{path}`: {e}"))?,
            )),
            None => None,
        };
        let file = |flag: &str| match &recorder {
            Some(recorder) => Ok(Arc::clone(recorder) as Arc<dyn Recorder>),
            None => Err(format!("{flag} needs --telemetry to give its records a file")),
        };
        let sampler = match args.positive("--sample-interval-ms")? {
            Some(ms) => Some(
                Sampler::start(
                    MetricRegistry::global(),
                    file("--sample-interval-ms")?,
                    Duration::from_millis(ms),
                )
                .map_err(|e| format!("cannot start the sampler: {e}"))?,
            ),
            None => None,
        };
        let spans = args.has("--trace-spans");
        if spans {
            blockwatch::telemetry::set_trace_sink(Some(file("--trace-spans")?));
        }
        Ok(Tracing { recorder, sampler, spans })
    }

    /// Takes the span sink down, so that spans from later work (a second
    /// campaign, test neighbours) cannot leak into the trace.
    fn stop_spans(&mut self) {
        if std::mem::take(&mut self.spans) {
            blockwatch::telemetry::set_trace_sink(None);
        }
    }

    /// Ends the traced work: the span sink comes down, the sampler stops
    /// (flushing its final tick), and what the work measured goes into the
    /// trace, which is flushed.
    fn finish(mut self, measured: Option<&TelemetrySnapshot>) {
        self.stop_spans();
        if let Some(sampler) = self.sampler.take() {
            sampler.stop();
        }
        if let (Some(recorder), Some(measured)) = (&self.recorder, measured) {
            measured.record_to(recorder.as_ref());
            recorder.flush();
        }
    }
}

impl Drop for Tracing {
    fn drop(&mut self) {
        self.stop_spans();
    }
}

/// The trace the `<trace.jsonl>` operand names: its path and its text.
fn read_trace(args: &Args) -> Result<(&str, String), String> {
    let path = args.operand()?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    Ok((path, text))
}

/// The time series in a trace's sample records, which it must have.
fn sampled<'s, 'a>(path: &str, series: &'s SeriesReport<'a>) -> Result<&'s SeriesReport<'a>, String> {
    if series.ticks.is_empty() {
        return Err(format!(
            "no sample records in `{path}` — re-run with --sample-interval-ms MS \
             (and --telemetry) to collect them"
        ));
    }
    Ok(series)
}

/// Warns on stderr when the monitor lost events to full queues.
fn warn_dropped(telemetry: &TelemetrySnapshot) {
    if let Some(dropped) = telemetry.counter("monitor.events_dropped") {
        if dropped > 0 {
            eprintln!(
                "warning: {dropped} event(s) dropped on full queues; \
                 detection coverage may be reduced"
            );
        }
    }
}

fn cmd_analyze(args: &Args) -> Result<(), String> {
    let bw = load(args)?;
    println!("{:<8} {:<20} {:<10} {:<6} check", "branch", "function", "category", "depth");
    for b in bw.analysis().branches.iter() {
        let func = &bw.image().module.func(b.func).name;
        let check = match bw.plan().check(b.id) {
            Some(c) => format!("{:?}", c.kind),
            None => {
                let reason = bw.plan().decisions[b.id.index()].as_ref().unwrap_err();
                format!("skipped ({reason:?})")
            }
        };
        println!(
            "{:<8} {:<20} {:<10} {:<6} {}",
            b.id.to_string(),
            func,
            b.category.to_string(),
            b.loop_depth,
            check
        );
    }
    let h = bw.histogram();
    println!(
        "\nparallel section: {} branches | {} shared, {} threadID, {} partial, {} none | {} instrumented",
        h.total(),
        h.shared,
        h.thread_id,
        h.partial,
        h.none,
        bw.plan().num_instrumented()
    );
    Ok(())
}

fn cmd_run(args: &Args) -> Result<(), String> {
    let bw = load(args)?;
    let n = args.count("--threads", 4)?;
    let kind = args.choice("--engine", &[("sim", EngineKind::Sim), ("real", EngineKind::Real)])?;
    let shards = args.positive("--monitor-shards")?;
    let tracing = Tracing::start(args)?;

    // The pipeline's own telemetry plus the run's: one merged snapshot.
    let mut telemetry = bw.telemetry();
    let result = bw.run_on(kind, &ExecConfig::new(n).monitor_shards(shards));
    telemetry.merge(&result.telemetry());
    tracing.finish(Some(&telemetry));
    println!("outcome: {:?} ({} engine)", result.outcome, kind.name());
    match kind {
        EngineKind::Sim => {
            println!("outputs: {:?}", result.outputs);
            println!(
                "parallel cycles: {} | events: {} | violations: {}",
                result.parallel_cycles,
                result.events_sent,
                result.violations.len()
            );
        }
        EngineKind::Real => {
            println!(
                "events processed: {} | dropped: {} | violations: {}",
                result.events_processed,
                result.events_dropped,
                result.violations.len()
            );
        }
    }
    for v in &result.violations {
        println!("  violation: branch {} {:?} ({} reporters)", v.branch, v.kind, v.reporters);
    }
    warn_dropped(&telemetry);
    if args.has("--stats") {
        print!("{}", render_telemetry(&telemetry));
    }
    if result.outcome != RunOutcome::Completed {
        return Err("program did not complete".into());
    }
    Ok(())
}

fn cmd_ir(args: &Args) -> Result<(), String> {
    let bw = load(args)?;
    println!("{}", ModulePrinter(&bw.image().module));
    Ok(())
}

fn cmd_fuzz(args: &Args) -> Result<(), String> {
    let seeds = args.seed("--seeds", 100)?;
    let start_seed = args.seed("--start", 0)?;
    let threads: Vec<u32> =
        args.list("--threads")?.unwrap_or_else(|| blockwatch::gen::DEFAULT_THREADS.to_vec());
    if threads.contains(&0) {
        return Err("--threads needs a comma-separated list of positive counts".into());
    }
    let injections = args.count("--inject", 0)?;
    let gen = gen_config(args)?;
    let real_cross_check = args.has("--real-cross-check");
    let config =
        blockwatch::gen::FuzzConfig { seeds, start_seed, threads, gen, injections, real_cross_check };
    let tracing = Tracing::start(args)?;
    let recorder: &dyn Recorder = match &tracing.recorder {
        Some(recorder) => recorder.as_ref(),
        None => &blockwatch::telemetry::NULL_RECORDER,
    };
    let report = blockwatch::gen::run_fuzz(&config, recorder);
    tracing.finish(None);
    emit(&report.render());

    // Save each minimized reproducer; replay with `bw run fuzz-<seed>.bwir`.
    for f in &report.failures {
        let path = format!("fuzz-{:08x}.bwir", f.seed);
        std::fs::write(&path, &f.minimized)
            .map_err(|e| format!("cannot write `{path}`: {e}"))?;
        println!("wrote {path}");
    }
    if !report.ok() {
        return Err(format!("{} seed(s) failed the oracle", report.failures.len()));
    }
    if args.has("--require-coverage") {
        let unexercised = report.stats.coverage.unexercised();
        if !unexercised.is_empty() {
            return Err(format!(
                "check kind(s) never exercised: {} — the session proves nothing \
                 about those checkers; widen the seed window",
                unexercised.join(", ")
            ));
        }
    }
    Ok(())
}

/// The generator configuration, with `--max-stmts` applied.
fn gen_config(args: &Args) -> Result<blockwatch::gen::GenConfig, String> {
    let mut gen = blockwatch::gen::GenConfig::default();
    gen.max_stmts = args.count("--max-stmts", gen.max_stmts)?;
    Ok(gen)
}

fn cmd_gen(args: &Args) -> Result<(), String> {
    let seed = args.seed("--seed", 0)?;
    let gen = gen_config(args)?;
    let module = blockwatch::gen::generate_module(seed, &gen);
    let text = format!("{}", ModulePrinter(&module));
    match args.get("--out") {
        Some(path) => {
            std::fs::write(path, &text).map_err(|e| format!("cannot write `{path}`: {e}"))?;
            println!("wrote {path}");
        }
        None => emit(&text),
    }
    Ok(())
}

fn cmd_stats(args: &Args) -> Result<(), String> {
    let (path, text) = read_trace(args)?;
    let summary = TraceSummary::parse(&text)?;
    if args.choice("--format", &[("text", false), ("json", true)])? {
        emit(&summary.to_json());
    } else {
        emit(&summary.render());
    }
    if args.has("--series") {
        emit(&sampled(path, &summary.series)?.render());
    }
    Ok(())
}

fn cmd_top(args: &Args) -> Result<(), String> {
    let (path, text) = read_trace(args)?;
    let summary = TraceSummary::parse(&text)?;
    emit(&sampled(path, &summary.series)?.render());
    // Latency context under the series: the trace's histogram aggregates
    // (detection latency, injection duration) with quantiles from their
    // recorded buckets.
    emit(&render_histograms(summary.metrics.histograms()));
    Ok(())
}

fn cmd_timeline(args: &Args) -> Result<(), String> {
    let (path, text) = read_trace(args)?;
    let report = TimelineReport::parse(&text)?;
    if report.events.is_empty() {
        return Err(format!(
            "no tspan records in `{path}` — re-run with --telemetry T.jsonl --trace-spans \
             to collect spans"
        ));
    }
    if let Some(out) = args.get("--chrome") {
        std::fs::write(out, report.to_chrome_json())
            .map_err(|e| format!("cannot write `{out}`: {e}"))?;
        println!("wrote {out} (load in Perfetto or chrome://tracing)");
    }
    emit(&report.render());
    if args.has("--phase-profile") {
        emit(&report.phase_profile().render());
    }
    Ok(())
}

fn cmd_report(args: &Args) -> Result<(), String> {
    let (_, text) = read_trace(args)?;
    let report = ForensicsReport::parse(&text)?;
    emit(&report.render());
    if !report.has_detections() {
        eprintln!("note: no detections in this trace; run the campaign with --telemetry");
    }
    Ok(())
}

fn cmd_campaign(args: &Args) -> Result<(), String> {
    let bw = load(args)?;
    let n = args.count("--threads", 4)?;
    let injections = args.count("--injections", 200)?;
    let model = args.choice(
        "--model",
        &[("flip", FaultModel::BranchFlip), ("cond", FaultModel::ConditionBitFlip)],
    )?;

    let workers = args.count("--workers", 0)?;
    let show_progress = args.has("--progress");
    let mut tracing = Tracing::start(args)?;
    let recorder = tracing.recorder.clone();
    let progress = |label: &'static str| {
        move |p: CampaignProgress| {
            match p.eta_us() {
                Some(eta) => eprint!(
                    "\r{label}: {}/{} ({:.1} inj/s, eta {:.1}s) ",
                    p.completed,
                    p.total,
                    p.rate(),
                    eta as f64 / 1e6
                ),
                None => eprint!("\r{label}: {}/{}", p.completed, p.total),
            }
            if p.completed == p.total {
                eprintln!();
            }
        }
    };

    let run = |monitor: MonitorMode, label: &'static str, traced: bool| {
        let mut runner = bw
            .campaign_runner(injections, model, n)
            .workers(workers)
            .monitor(monitor);
        let callback = progress(label);
        if show_progress {
            runner = runner.on_progress(callback);
        }
        if traced {
            if let Some(recorder) = &recorder {
                runner = runner.recorder(recorder.as_ref());
            }
        }
        runner.run().map_err(|e| e.to_string())
    };

    // Only the protected campaign is traced: the JSONL file then describes
    // one campaign, not two interleaved ones. The span sink comes down
    // before the baseline campaign for the same reason.
    let protected = run(MonitorMode::Enabled, "with BLOCKWATCH", true)?;
    tracing.stop_spans();
    let baseline = run(MonitorMode::Off, "without BLOCKWATCH", false)?;
    tracing.finish(Some(&protected.telemetry));

    println!("{model:?}, {injections} injections, {n} threads");
    println!("  without BLOCKWATCH: {:?}", baseline.counts);
    println!("  with    BLOCKWATCH: {:?}", protected.counts);
    println!(
        "  coverage: {:.1}% -> {:.1}%",
        100.0 * baseline.coverage(),
        100.0 * protected.coverage()
    );
    // What forking injections from a shared fault-free prefix saved, over
    // both campaigns.
    let mut total = WorkerStats::default();
    for w in protected.worker_stats.iter().chain(&baseline.worker_stats) {
        total.steps_run += w.steps_run;
        total.steps_skipped += w.steps_skipped;
    }
    println!(
        "  steps: {} run, {} skipped ({:.1}% of a full replay of every injection)",
        total.steps_run,
        total.steps_skipped,
        100.0 * total.skipped_share()
    );
    for w in &protected.worker_stats {
        println!(
            "  worker {:<3} {} injections, {:.1} inj/s",
            w.worker,
            w.injections,
            w.throughput()
        );
    }
    warn_dropped(&protected.telemetry);
    if args.has("--stats") {
        print!("{}", render_telemetry(&protected.telemetry));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The usage is rendered from the tables, so it cannot leave a flag
    /// out; what a row can still get wrong is checked here.
    #[test]
    fn every_flag_has_help_and_names_only_existing_commands() {
        for f in FLAGS {
            assert!(!f.help.is_empty() && !f.commands.is_empty(), "{}", f.name);
            for command in f.commands {
                assert!(COMMANDS.iter().any(|c| c.name == *command), "{}: {command}", f.name);
            }
        }
    }
}
