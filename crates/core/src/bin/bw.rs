//! `bw` — the BLOCKWATCH command-line tool.
//!
//! Compile, analyze, protect and fault-test SPMD mini-language programs:
//!
//! ```text
//! bw analyze  <file>                 print per-branch similarity categories
//! bw run      <file> [--threads N] [--engine sim|real] [--monitor-shards S]
//!             [--stats] [--telemetry T.jsonl]
//!                                    run under the monitor
//! bw ir       <file>                 dump the SSA IR
//! bw campaign <file> [--threads N] [--injections K] [--model flip|cond]
//!             [--workers W] [--engine sim|real] [--monitor-shards S]
//!             [--progress] [--stats]
//!             [--telemetry T.jsonl]  fault-injection campaign with and
//!                                    without BLOCKWATCH
//! bw gen      [--seed S] [--max-stmts M] [--out FILE]
//!                                    dump a seeded random SPMD module as
//!                                    textual IR (replayable with bw run)
//! bw stats    <trace.jsonl> [--series] [--format text|json]
//!                                    summarize a JSONL telemetry trace
//! bw top      <trace.jsonl>          time-series view of a sampled trace
//! bw timeline <trace.jsonl> [--chrome OUT.json] [--phase-profile]
//!                                    per-thread span lanes from a trace
//! bw report   <trace.jsonl>          violation forensics from a trace
//! ```
//!
//! Traced commands also take `--sample-interval-ms MS` (background
//! sampler appending `sample` records for `bw top`), `--trace-spans`
//! (causal span records for `bw timeline`) and
//! `--metrics-addr HOST:PORT` (live Prometheus `/metrics` endpoint).
//!
//! Every executing command takes `--engine sim|real`: `sim` is the
//! deterministic simulated scheduler, `real` runs on OS threads.
//!
//! A `--flag` the subcommand does not list is an error (exit 1 with the
//! usage), never silently ignored; `--help` after any subcommand prints
//! the usage.
//!
//! `<file>` is a mini-language source path, or `splash:<name>` for a
//! built-in SPLASH-2 port (`splash:fft`, `splash:radix`, …) sized with
//! `--size test|small|reference`.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use blockwatch::ir::ModulePrinter;
use blockwatch::reports::{render_telemetry, ForensicsReport, SeriesReport, TraceSummary};
use blockwatch::timeline::TimelineReport;
use blockwatch::telemetry::{JsonlRecorder, MetricRegistry, MetricsServer, Recorder, Sampler};
use blockwatch::vm::MonitorMode;
use blockwatch::{
    AnalysisConfig, Benchmark, Blockwatch, CampaignProgress, EngineKind, ExecConfig, FaultModel,
    RunOutcome, Size, TelemetrySnapshot,
};

type Command = fn(&[String]) -> Result<(), String>;

const COMMANDS: &[(&str, Command)] = &[
    ("analyze", cmd_analyze),
    ("run", cmd_run),
    ("ir", cmd_ir),
    ("campaign", cmd_campaign),
    ("fuzz", cmd_fuzz),
    ("gen", cmd_gen),
    ("stats", cmd_stats),
    ("top", cmd_top),
    ("timeline", cmd_timeline),
    ("report", cmd_report),
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    if args.iter().any(|a| a == "--help" || a == "-h") || command == "help" {
        emit(&format!("{USAGE}\n"));
        return ExitCode::SUCCESS;
    }
    let result = match COMMANDS.iter().find(|(name, _)| name == command) {
        Some((_, run)) => check_flags(command, rest).and_then(|()| run(rest)),
        None => Err(format!("unknown command `{command}`\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  bw analyze  <file>                  print per-branch similarity categories
  bw run      <file> [--threads N] [--engine sim|real] [--monitor-shards S]
              [--stats] [--telemetry T.jsonl] [--sample-interval-ms MS]
              [--trace-spans] [--metrics-addr HOST:PORT]
                                      run under the monitor
  bw ir       <file>                  dump the SSA IR
  bw campaign <file> [--threads N] [--injections K] [--model flip|cond]
              [--workers W] [--engine sim|real] [--monitor-shards S]
              [--progress] [--stats] [--telemetry T.jsonl]
              [--sample-interval-ms MS] [--trace-spans]
              [--metrics-addr HOST:PORT]
  bw fuzz     [--seeds N] [--start S] [--threads T1,T2,..] [--inject K]
              [--max-stmts M] [--engine sim|real] [--real-cross-check]
              [--monitor-shards S] [--require-coverage] [--telemetry T.jsonl]
              [--sample-interval-ms MS] [--trace-spans]
              [--metrics-addr HOST:PORT]
                                      generate random SPMD programs and run
                                      the differential oracle; failures are
                                      shrunk and saved as fuzz-<seed>.bwir
  bw gen      [--seed S] [--max-stmts M] [--out FILE]
                                      dump a seeded random SPMD module as
                                      textual IR (replayable with bw run)
  bw stats    <trace.jsonl> [--series] [--format text|json]
                                      summarize a JSONL telemetry trace
  bw top      <trace.jsonl>           time-series view of a sampled trace:
                                      per-tick events/s, campaign progress
                                      with ETA, per-shard queue depth
  bw timeline <trace.jsonl> [--chrome OUT.json] [--phase-profile]
                                      per-thread span lanes from a
                                      --trace-spans trace; --chrome exports
                                      Chrome Trace Event JSON (open in
                                      Perfetto or chrome://tracing);
                                      --phase-profile flags straggler
                                      threads per barrier phase
  bw report   <trace.jsonl>           violation forensics from a trace:
                                      per-category detection matrix, top
                                      violating sites, deviant-thread tables

  --engine selects the scheduler: `sim` (deterministic, default) or `real`
  (OS threads).

  --monitor-shards splits the monitor ingest across S workers, each owning
  a disjoint (site, branch) slice. Verdicts are byte-identical at any S —
  it is purely a throughput knob (see `events_per_s` in bwbench).

  --sample-interval-ms starts a background sampler that appends timestamped
  `sample` records (counter deltas, gauge levels) to the --telemetry trace;
  render them with `bw top` or `bw stats --series`. --metrics-addr serves
  the live registry as Prometheus text at http://HOST:PORT/metrics. Both
  are observability-only: verdicts, results and `bw report` output are
  byte-identical with or without them.

  --trace-spans streams causal span records (`tspan`) into the --telemetry
  trace: barrier phases, lock wait/hold intervals and per-phase work counts
  from both engines, monitor-shard queue-wait/flush-batch spans, campaign
  stage and per-injection spans, and flow arrows from a deviant thread's
  branch event to the monitor verdict that flagged it. Render with
  `bw timeline`. Like the sampler it is observability-only: all verdicts
  and results are byte-identical with or without it.

  <file> is a source path, a .bwir textual-IR dump (e.g. a fuzz repro), or
  splash:<name> (fft, fmm, radix, raytrace, water, ocean-contig,
  ocean-noncontig) sized with --size test|small|reference";

fn load(spec: &str, rest: &[String]) -> Result<Blockwatch, String> {
    let config = AnalysisConfig::default();
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
        let size = match flag(rest, "--size").as_deref() {
            None | Some("test") => Size::Test,
            Some("small") => Size::Small,
            Some("reference") => Size::Reference,
            Some(other) => {
                return Err(format!("unknown size `{other}` (use test|small|reference)"))
            }
        };
        let module = bench.module(size).map_err(|e| format!("{e}"))?;
        return Blockwatch::from_module_with(module, config).map_err(|e| format!("{e}"));
    }
    let source =
        std::fs::read_to_string(spec).map_err(|e| format!("cannot read `{spec}`: {e}"))?;
    if spec.ends_with(".bwir") {
        let module = blockwatch::ir::parse_module(&source).map_err(|e| format!("{e}"))?;
        return Blockwatch::from_module_with(module, config).map_err(|e| format!("{e}"));
    }
    Blockwatch::compile_with(&source, config).map_err(|e| format!("{e}"))
}

/// Opens the JSONL recorder named by `--telemetry`, if the flag is given.
/// Shared (`Arc`) so the background sampler can append to the same trace.
fn telemetry_recorder(rest: &[String]) -> Result<Option<Arc<JsonlRecorder>>, String> {
    match flag(rest, "--telemetry") {
        Some(path) => JsonlRecorder::create(std::path::Path::new(&path))
            .map(|r| Some(Arc::new(r)))
            .map_err(|e| format!("cannot create `{path}`: {e}")),
        None => Ok(None),
    }
}

/// Live-observability guards: the background sampler and the `/metrics`
/// endpoint stay up while this value is alive and shut down on drop.
struct Observability {
    sampler: Option<Sampler>,
    server: Option<MetricsServer>,
}

impl Observability {
    /// Stops the sampler (flushing its final tick) before the caller
    /// flushes and closes the trace.
    fn finish(&mut self) {
        if let Some(sampler) = self.sampler.take() {
            sampler.stop();
        }
    }
}

/// Starts the observability sidecars requested by `--sample-interval-ms`
/// and `--metrics-addr`, both reading the global [`MetricRegistry`].
fn start_observability(
    rest: &[String],
    recorder: Option<&Arc<JsonlRecorder>>,
) -> Result<Observability, String> {
    let mut obs = Observability { sampler: None, server: None };
    if let Some(ms) = flag(rest, "--sample-interval-ms") {
        let ms: u64 = ms
            .parse()
            .ok()
            .filter(|&ms| ms > 0)
            .ok_or_else(|| format!("--sample-interval-ms needs a positive count, got `{ms}`"))?;
        let Some(recorder) = recorder else {
            return Err("--sample-interval-ms needs --telemetry to give the samples a file".into());
        };
        obs.sampler = Some(Sampler::start(
            MetricRegistry::global(),
            Arc::clone(recorder) as Arc<dyn Recorder>,
            Duration::from_millis(ms),
        ));
    }
    if let Some(addr) = flag(rest, "--metrics-addr") {
        let server = MetricsServer::bind(&addr, MetricRegistry::global())
            .map_err(|e| format!("cannot serve metrics on `{addr}`: {e}"))?;
        eprintln!("serving metrics at http://{}/metrics", server.local_addr());
        obs.server = Some(server);
    }
    Ok(obs)
}

/// Keeps the `--trace-spans` global span sink installed for as long as the
/// traced work runs, and removes it on drop so spans from later work (a
/// second campaign, test neighbours) cannot leak into the trace.
struct TraceGuard;

impl TraceGuard {
    fn install(recorder: &Arc<JsonlRecorder>) -> TraceGuard {
        blockwatch::telemetry::set_trace_sink(Some(
            Arc::clone(recorder) as Arc<dyn Recorder>
        ));
        TraceGuard
    }
}

impl Drop for TraceGuard {
    fn drop(&mut self) {
        blockwatch::telemetry::set_trace_sink(None);
    }
}

/// Handles `--trace-spans`: installs the span sink over the `--telemetry`
/// recorder and returns the guard that removes it again.
fn trace_spans_guard(
    rest: &[String],
    recorder: Option<&Arc<JsonlRecorder>>,
) -> Result<Option<TraceGuard>, String> {
    if !switch(rest, "--trace-spans") {
        return Ok(None);
    }
    let Some(recorder) = recorder else {
        return Err("--trace-spans needs --telemetry to give the spans a file".into());
    };
    Ok(Some(TraceGuard::install(recorder)))
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

/// One `--flag` of the command line.
struct Flag {
    name: &'static str,
    /// Whether it consumes the following argument as its value (otherwise
    /// it is a switch). [`file_arg`] needs the distinction to tell a
    /// flag's value from the positional `<file>`.
    value: bool,
    /// The subcommands that accept it.
    commands: &'static [&'static str],
}

/// Every flag `bw` knows, each defined once: [`check_flags`] rejects
/// anything else before a subcommand runs, and [`flag`] / [`switch`] /
/// [`file_arg`] look their flags up here.
const FLAGS: &[Flag] = &[
    Flag { name: "--chrome", value: true, commands: &["timeline"] },
    Flag { name: "--engine", value: true, commands: &["run", "campaign", "fuzz"] },
    Flag { name: "--format", value: true, commands: &["stats"] },
    Flag { name: "--inject", value: true, commands: &["fuzz"] },
    Flag { name: "--injections", value: true, commands: &["campaign"] },
    Flag { name: "--max-stmts", value: true, commands: &["fuzz", "gen"] },
    Flag { name: "--metrics-addr", value: true, commands: &["run", "campaign", "fuzz"] },
    Flag { name: "--model", value: true, commands: &["campaign"] },
    Flag { name: "--monitor-shards", value: true, commands: &["run", "campaign", "fuzz"] },
    Flag { name: "--out", value: true, commands: &["gen"] },
    Flag { name: "--phase-profile", value: false, commands: &["timeline"] },
    Flag { name: "--progress", value: false, commands: &["campaign"] },
    Flag { name: "--real-cross-check", value: false, commands: &["fuzz"] },
    Flag { name: "--require-coverage", value: false, commands: &["fuzz"] },
    Flag { name: "--sample-interval-ms", value: true, commands: &["run", "campaign", "fuzz"] },
    Flag { name: "--seed", value: true, commands: &["gen"] },
    Flag { name: "--seeds", value: true, commands: &["fuzz"] },
    Flag { name: "--series", value: false, commands: &["stats"] },
    Flag { name: "--size", value: true, commands: &["analyze", "run", "ir", "campaign"] },
    Flag { name: "--start", value: true, commands: &["fuzz"] },
    Flag { name: "--stats", value: false, commands: &["run", "campaign"] },
    Flag { name: "--telemetry", value: true, commands: &["run", "campaign", "fuzz"] },
    Flag { name: "--threads", value: true, commands: &["run", "campaign", "fuzz"] },
    Flag { name: "--trace-spans", value: false, commands: &["run", "campaign", "fuzz"] },
    Flag { name: "--workers", value: true, commands: &["campaign"] },
];

fn lookup(name: &str) -> Option<&'static Flag> {
    FLAGS.iter().find(|f| f.name == name)
}

/// Rejects every `--flag` in `rest` that `bw <command>` does not accept,
/// and a value flag with nothing after it.
fn check_flags(command: &str, rest: &[String]) -> Result<(), String> {
    let mut args = rest.iter();
    while let Some(arg) = args.next() {
        if !arg.starts_with("--") {
            continue;
        }
        let Some(f) = lookup(arg).filter(|f| f.commands.contains(&command)) else {
            return Err(format!("unknown flag `{arg}` for `bw {command}`\n{USAGE}"));
        };
        if f.value && args.next().is_none() {
            return Err(format!("flag `{arg}` needs a value"));
        }
    }
    Ok(())
}

/// The value of value flag `name`, if given.
fn flag(rest: &[String], name: &str) -> Option<String> {
    debug_assert!(lookup(name).is_some_and(|f| f.value), "{name} is not a value flag in FLAGS");
    rest.iter().position(|a| a == name).and_then(|i| rest.get(i + 1)).cloned()
}

/// Whether switch `name` is given.
fn switch(rest: &[String], name: &str) -> bool {
    debug_assert!(lookup(name).is_some_and(|f| !f.value), "{name} is not a switch in FLAGS");
    rest.iter().any(|a| a == name)
}

/// Parses numeric flag `name`: absent = `default`, malformed = an error
/// naming the flag and the value (never a silent fallback).
fn num_flag<T: std::str::FromStr>(rest: &[String], name: &str, default: T) -> Result<T, String> {
    match flag(rest, name) {
        None => Ok(default),
        Some(s) => s.parse().map_err(|_| format!("invalid {name} `{s}` (expected a number)")),
    }
}

/// [`num_flag`] for seeds, which are reported (and repro files named) in
/// hex: accepts both `26` and `0x1a`.
fn seed_flag(rest: &[String], name: &str, default: u64) -> Result<u64, String> {
    let Some(s) = flag(rest, name) else { return Ok(default) };
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
    .ok_or_else(|| format!("invalid {name} `{s}` (expected a decimal or 0x-hex number)"))
}

/// Writes a rendered report to stdout. A closed pipe (`bw top … | head`,
/// `… | grep -q`) is a normal way to consume these, so EPIPE is a clean
/// exit, not a panic like `print!` would give.
fn emit(s: &str) {
    use std::io::Write;
    if std::io::stdout().write_all(s.as_bytes()).is_err() {
        std::process::exit(0);
    }
}

/// The positional `<file>`: the first argument that is neither a flag nor
/// the value of a value flag.
fn file_arg(rest: &[String]) -> Result<String, String> {
    let mut args = rest.iter();
    while let Some(arg) = args.next() {
        if lookup(arg).is_some_and(|f| f.value) {
            args.next();
        } else if !arg.starts_with("--") {
            return Ok(arg.clone());
        }
    }
    Err(format!("missing <file> argument\n{USAGE}"))
}

fn threads(rest: &[String]) -> Result<u32, String> {
    num_flag(rest, "--threads", 4)
}

/// Parses `--monitor-shards S` (must be positive when given).
fn monitor_shards(rest: &[String]) -> Result<Option<usize>, String> {
    match flag(rest, "--monitor-shards") {
        Some(s) => match s.parse::<usize>() {
            Ok(n) if n > 0 => Ok(Some(n)),
            _ => Err(format!("--monitor-shards needs a positive count, got `{s}`")),
        },
        None => Ok(None),
    }
}

/// Parses `--engine sim|real`.
fn engine_kind(rest: &[String]) -> Result<EngineKind, String> {
    match flag(rest, "--engine") {
        Some(name) => name.parse(),
        None => Ok(EngineKind::Sim),
    }
}

fn cmd_analyze(rest: &[String]) -> Result<(), String> {
    let bw = load(&file_arg(rest)?, rest)?;
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

fn cmd_run(rest: &[String]) -> Result<(), String> {
    let bw = load(&file_arg(rest)?, rest)?;
    let n = threads(rest)?;
    let recorder = telemetry_recorder(rest)?;
    let mut obs = start_observability(rest, recorder.as_ref())?;
    let trace = trace_spans_guard(rest, recorder.as_ref())?;

    let kind = engine_kind(rest)?;
    let shards = monitor_shards(rest)?;

    // The pipeline's own telemetry plus the run's: one merged snapshot.
    let mut telemetry = bw.telemetry();
    let result = bw.run_on(kind, &ExecConfig::new(n).monitor_shards(shards));
    drop(trace);
    obs.finish();
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
    telemetry.merge(&result.telemetry);
    let (outcome, violations) = (result.outcome, result.violations);
    for v in &violations {
        println!("  violation: branch {} {:?} ({} reporters)", v.branch, v.kind, v.reporters);
    }
    warn_dropped(&telemetry);
    if let Some(recorder) = &recorder {
        telemetry.record_to(recorder.as_ref());
        recorder.flush();
    }
    if switch(rest, "--stats") {
        print!("{}", render_telemetry(&telemetry));
    }
    if outcome != RunOutcome::Completed {
        return Err("program did not complete".into());
    }
    Ok(())
}

fn cmd_ir(rest: &[String]) -> Result<(), String> {
    let bw = load(&file_arg(rest)?, rest)?;
    println!("{}", ModulePrinter(&bw.image().module));
    Ok(())
}

fn cmd_fuzz(rest: &[String]) -> Result<(), String> {
    let seeds = seed_flag(rest, "--seeds", 100)?;
    let start_seed = seed_flag(rest, "--start", 0)?;
    let threads = match flag(rest, "--threads") {
        Some(list) => list
            .split(',')
            .map(|t| t.trim().parse::<u32>().map_err(|e| format!("bad thread count `{t}`: {e}")))
            .collect::<Result<Vec<u32>, String>>()?,
        None => blockwatch::gen::DEFAULT_THREADS.to_vec(),
    };
    if threads.is_empty() || threads.contains(&0) {
        return Err("--threads needs a comma-separated list of positive counts".into());
    }
    let injections = num_flag(rest, "--inject", 0)?;
    let gen = gen_config(rest)?;
    let kind = engine_kind(rest)?;
    let real_cross_check = switch(rest, "--real-cross-check");
    let shards = monitor_shards(rest)?;
    let recorder = telemetry_recorder(rest)?;
    let mut obs = start_observability(rest, recorder.as_ref())?;

    let config = blockwatch::gen::FuzzConfig {
        seeds,
        start_seed,
        threads,
        gen,
        injections,
        engine: kind,
        real_cross_check,
        monitor_shards: shards,
    };
    let trace = trace_spans_guard(rest, recorder.as_ref())?;
    let report = match &recorder {
        Some(recorder) => blockwatch::gen::run_fuzz_recorded(&config, recorder.as_ref()),
        None => blockwatch::gen::run_fuzz(&config),
    };
    drop(trace);
    obs.finish();
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
    if switch(rest, "--require-coverage") {
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
fn gen_config(rest: &[String]) -> Result<blockwatch::gen::GenConfig, String> {
    let mut gen = blockwatch::gen::GenConfig::default();
    gen.max_stmts = num_flag(rest, "--max-stmts", gen.max_stmts)?;
    Ok(gen)
}

fn cmd_gen(rest: &[String]) -> Result<(), String> {
    let seed = seed_flag(rest, "--seed", 0)?;
    let gen = gen_config(rest)?;
    let module = blockwatch::gen::generate_module(seed, &gen);
    let text = format!("{}", ModulePrinter(&module));
    match flag(rest, "--out") {
        Some(path) => {
            std::fs::write(&path, &text).map_err(|e| format!("cannot write `{path}`: {e}"))?;
            println!("wrote {path}");
        }
        None => emit(&text),
    }
    Ok(())
}

fn cmd_stats(rest: &[String]) -> Result<(), String> {
    let path = file_arg(rest)?;
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let summary = TraceSummary::parse(&text)?;
    match flag(rest, "--format").as_deref() {
        None | Some("text") => emit(&summary.render()),
        Some("json") => emit(&summary.to_json()),
        Some(other) => return Err(format!("unknown format `{other}` (use text|json)")),
    }
    if switch(rest, "--series") {
        let series = SeriesReport::parse(&text)?;
        if series.ticks.is_empty() {
            return Err(format!(
                "no sample records in `{path}` — re-run with --sample-interval-ms MS \
                 (and --telemetry) to collect them"
            ));
        }
        emit(&series.render());
    }
    Ok(())
}

fn cmd_top(rest: &[String]) -> Result<(), String> {
    let path = file_arg(rest)?;
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let series = SeriesReport::parse(&text)?;
    if series.ticks.is_empty() {
        return Err(format!(
            "no sample records in `{path}` — re-run with --sample-interval-ms MS \
             (and --telemetry) to collect them"
        ));
    }
    emit(&series.render());
    // Latency context under the series: the trace's histogram aggregates
    // (detection latency, injection duration) with quantiles from their
    // recorded buckets.
    let summary = TraceSummary::parse(&text)?;
    if !summary.histograms.is_empty() {
        let mut snapshot = TelemetrySnapshot::new();
        for h in &summary.histograms {
            snapshot.push_histogram(h.name.as_str(), h.snapshot());
        }
        emit(&render_telemetry(&snapshot));
    }
    Ok(())
}

fn cmd_timeline(rest: &[String]) -> Result<(), String> {
    let path = file_arg(rest)?;
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let report = TimelineReport::parse(&text)?;
    if report.events.is_empty() {
        return Err(format!(
            "no tspan records in `{path}` — re-run with --telemetry T.jsonl --trace-spans \
             to collect spans"
        ));
    }
    if let Some(out) = flag(rest, "--chrome") {
        std::fs::write(&out, report.to_chrome_json())
            .map_err(|e| format!("cannot write `{out}`: {e}"))?;
        println!("wrote {out} (load in Perfetto or chrome://tracing)");
    }
    emit(&report.render());
    if switch(rest, "--phase-profile") {
        emit(&report.phase_profile().render());
    }
    Ok(())
}

fn cmd_report(rest: &[String]) -> Result<(), String> {
    let path = file_arg(rest)?;
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let report = ForensicsReport::parse(&text)?;
    emit(&report.render());
    if !report.has_detections() {
        eprintln!(
            "note: no detections in this trace; run the campaign with \
             --telemetry and the `provenance` feature enabled"
        );
    }
    Ok(())
}

fn cmd_campaign(rest: &[String]) -> Result<(), String> {
    let bw = load(&file_arg(rest)?, rest)?;
    let n = threads(rest)?;
    let recorder = telemetry_recorder(rest)?;
    let mut obs = start_observability(rest, recorder.as_ref())?;
    let injections = num_flag(rest, "--injections", 200)?;
    let model = match flag(rest, "--model").as_deref() {
        None | Some("flip") => FaultModel::BranchFlip,
        Some("cond") => FaultModel::ConditionBitFlip,
        Some(other) => return Err(format!("unknown model `{other}` (use flip|cond)")),
    };

    let workers = num_flag(rest, "--workers", 0)?;
    let kind = engine_kind(rest)?;
    let shards = monitor_shards(rest)?;
    let show_progress = switch(rest, "--progress");
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
            .engine(kind)
            .monitor(monitor)
            .monitor_shards(shards);
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
    let trace = trace_spans_guard(rest, recorder.as_ref())?;
    let protected = run(MonitorMode::Enabled, "with BLOCKWATCH", true)?;
    drop(trace);
    let baseline = run(MonitorMode::Off, "without BLOCKWATCH", false)?;
    obs.finish();

    println!("{model:?}, {injections} injections, {n} threads, {} engine", kind.name());
    println!("  without BLOCKWATCH: {:?}", baseline.counts);
    println!("  with    BLOCKWATCH: {:?}", protected.counts);
    println!(
        "  coverage: {:.1}% -> {:.1}%",
        100.0 * baseline.coverage(),
        100.0 * protected.coverage()
    );
    // What forking injections from a shared fault-free prefix saved, over
    // both campaigns (0% on the real engine, where every injection is a
    // full replay).
    let stats = || protected.worker_stats.iter().chain(&baseline.worker_stats);
    let run: u64 = stats().map(|w| w.steps_run).sum();
    let skipped: u64 = stats().map(|w| w.steps_skipped).sum();
    println!(
        "  steps: {run} run, {skipped} skipped ({:.1}% of a full replay of every injection)",
        100.0 * skipped as f64 / (run + skipped).max(1) as f64
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
    if let Some(recorder) = &recorder {
        protected.telemetry.record_to(recorder.as_ref());
        recorder.flush();
    }
    if switch(rest, "--stats") {
        print!("{}", render_telemetry(&protected.telemetry));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The other direction of `tests/cli.rs`'s usage check: nothing in the
    /// flag table is undocumented or names a subcommand that does not exist.
    #[test]
    fn every_flag_in_the_table_is_in_the_usage() {
        for f in FLAGS {
            assert!(USAGE.contains(f.name), "{} is not in the usage text", f.name);
            for command in f.commands {
                assert!(COMMANDS.iter().any(|(name, _)| name == command), "{}: {command}", f.name);
            }
        }
    }
}
