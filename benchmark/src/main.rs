//! `bwbench` — the layered, repeatable benchmark of the BLOCKWATCH
//! reproduction.
//!
//! ```text
//! bwbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--quick] [--tsv FILE]
//! bwbench [--seed N] [--seconds S] [--traced] [--quick] [--tsv FILE]
//! bwbench --compare FIRST.tsv SECOND.tsv
//! bwbench --write-expected | --print-benchmark-json
//! ```
//!
//! With `--workload` the process runs that one workload and prints, as its
//! last line, the result object `BENCHMARK.json`'s contract asks for.
//! Without it, every workload runs in a child process of its own (a clean
//! allocator and its own `VmHWM`), untraced and — with `--traced` — traced.
//! See `README.md` beside `Cargo.toml`.

mod clock;
mod json;
mod oracle;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::io::Write as _;
use std::process::{Command, ExitCode};
use std::sync::Mutex;

use clock::Clock;
use json::{number, quote, Fact};
use spec::{END_TO_END, NOT_EXERCISED, WORKLOADS};
use workloads::{Ctx, Outcome};

/// Where the traced run writes its spans, relative to the working
/// directory (the repository root when run through `BENCHMARK.json`).
const OUT_DIR: &str = "benchmark/out";

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    quick: bool,
    tsv: Option<String>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: bwbench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1 | --traced] \
         [--quick] [--tsv FILE]\n       bwbench --compare FIRST.tsv SECOND.tsv\n       \
         bwbench --write-expected | --print-benchmark-json\nworkloads: {}",
        WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>().join(", ")
    );
    ExitCode::from(2)
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 0,
        seconds: spec::RUN_SECONDS as f64,
        traced: false,
        quick: false,
        tsv: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?.clone()),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds >= 0.0 && args.seconds <= 3600.0) {
                    return Err("--seconds must be between 0 and 3600".into());
                }
            }
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--traced" => args.traced = true,
            "--quick" => args.quick = true,
            "--tsv" => args.tsv = Some(value()?.clone()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if let Some(name) = &args.workload {
        if !WORKLOADS.iter().any(|w| w.name == name) {
            return Err(format!("unknown workload {name:?}"));
        }
    }
    Ok(args)
}

/// Peak resident set of this process in MB (`VmHWM`), 0 where `/proc` is
/// not available.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The header record: what ran, where, built how.
fn header(name: &str, args: &Args, pinned: Option<usize>) -> String {
    let nproc = std::fs::read_to_string("/proc/cpuinfo")
        .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
        .unwrap_or(0);
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut features = Vec::new();
    if bw_telemetry::ENABLED {
        features.push("telemetry");
    }
    if bw_monitor::PROVENANCE_ENABLED {
        features.push("provenance");
    }
    format!(
        "{{\"schema\":\"bwbench/v1\",\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\
         \"quick\":{},\"nproc\":{nproc},\"available_parallelism\":{parallelism},\"rustc\":{},\
         \"features\":{},\"nominal_walks_per_s\":{},\"pinned_cpu\":{}}}",
        quote(name),
        args.seed,
        number(args.seconds),
        u8::from(args.traced),
        args.quick,
        quote(env!("BWBENCH_RUSTC_VERSION")),
        quote(&features.join(",")),
        number(clock::NOMINAL_WALKS_PER_S),
        pinned.map_or("null".to_string(), |cpu| cpu.to_string()),
    )
}

/// The metrics the result line carries: every end-to-end metric untraced,
/// every per-layer metric traced, with the unit each was declared with.
fn result_metrics(out: &Outcome, traced: bool) -> Vec<(String, f64, &'static str)> {
    if traced {
        spec::per_layer()
            .into_iter()
            .map(|m| {
                let value = out.per_layer.get(&m.name).copied().filter(|v| v.is_finite());
                (m.name, value.unwrap_or(0.0), m.unit)
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| {
                let value = out.end_to_end.get(m.name).copied().filter(|v| v.is_finite());
                (m.name.to_string(), value.unwrap_or(NOT_EXERCISED), m.unit)
            })
            .collect()
    }
}

/// The result object, exactly as the contract spells it.
fn result_line(out: &Outcome, traced: bool) -> String {
    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.wrong.is_empty(),
        out.attempted.max(1),
        out.failed
    );
    for (i, (name, value, unit)) in result_metrics(out, traced).iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            line,
            "{sep}{}: {{\"value\": {}, \"unit\": {}}}",
            quote(name),
            number(*value),
            quote(unit)
        );
    }
    line.push_str("}}");
    line
}

/// Runs one workload in this process and prints its report.
fn run_one(name: &str, args: &Args) -> ExitCode {
    let workload = WORKLOADS.iter().find(|w| w.name == name).expect("workload was validated");
    // CPU time is only the program's own if no thread of it ever waits for
    // a CPU the hypervisor has taken away: with the process on one CPU,
    // none does.
    let pinned =
        if workload.clock == Clock::ProcessCpu { clock::pin_to_current_cpu() } else { None };
    let head = header(name, args, pinned);
    println!("# bwbench {name}");
    println!("header {head}");
    let mut ctx = Ctx::new(workload.clock, args.seed, args.seconds, args.traced, args.quick);
    (workload.run)(&mut ctx);

    ctx.metric("peak_rss_mb", peak_rss_mb());
    ctx.info("clock", format!("{:?}", ctx.meter.clock()));
    ctx.info("clock_ratio", format!("{:.3}", ctx.meter.clock_ratio()));
    if args.traced {
        let path = format!("{OUT_DIR}/trace-{name}.jsonl");
        let written = std::fs::create_dir_all(OUT_DIR)
            .and_then(|()| std::fs::write(&path, ctx.tracer.to_jsonl(&head)));
        match written {
            Ok(()) => ctx.info("trace_file", &path),
            Err(e) => ctx.wrong(format!("cannot write {path}: {e}")),
        }
    }
    for line in std::mem::take(&mut ctx.oracle.mismatches) {
        ctx.wrong(format!("oracle: {line}"));
    }
    let attempted = ctx.out.attempted.max(1);
    if !ctx.out.wrong.is_empty() {
        // An output that is wrong fails every operation that produced it.
        ctx.out.failed = attempted;
        ctx.out.defects = 0;
    }
    let error_rate = (ctx.out.failed + ctx.out.defects) as f64 / attempted as f64;
    ctx.metric("success_rate", 1.0 - error_rate);

    let out = &ctx.out;
    for (key, value) in &out.info {
        println!("info   {key} = {value}");
    }
    println!(
        "metric error_rate = {} share  ({} failed and {} defective of {})",
        number(error_rate),
        out.failed,
        out.defects,
        out.attempted
    );
    // Only what this workload exercises; the result line has the rest too.
    let live: Vec<(String, f64, &str)> = result_metrics(out, args.traced)
        .into_iter()
        .filter(|(n, ..)| out.per_layer.contains_key(n) || out.end_to_end.contains_key(n.as_str()))
        .collect();
    for (metric, value, unit) in &live {
        println!("metric {metric} = {} {unit}", number(*value));
    }
    for why in &out.wrong {
        println!("wrong  {why}");
    }

    if let Some(path) = &args.tsv {
        let mut rows = format!(
            "{name}\t{}\terror_rate\t{}\tshare\n",
            u8::from(args.traced),
            number(error_rate)
        );
        for (metric, value, unit) in &live {
            let _ = writeln!(
                rows,
                "{name}\t{}\t{metric}\t{}\t{unit}",
                u8::from(args.traced),
                number(*value)
            );
        }
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all(rows.as_bytes()));
        if let Err(e) = appended {
            eprintln!("bwbench: cannot append to {path}: {e}");
            return ExitCode::FAILURE;
        }
    }

    println!("{}", result_line(out, args.traced));
    if out.wrong.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload in a child process of its own.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("bwbench: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut failed = Vec::new();
    let traces: &[bool] = if args.traced { &[false, true] } else { &[false] };
    for workload in &WORKLOADS {
        for &traced in traces {
            let mut child = Command::new(&exe);
            child
                .args(["--workload", workload.name])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }]);
            if args.quick {
                child.arg("--quick");
            }
            if let Some(tsv) = &args.tsv {
                child.args(["--tsv", tsv]);
            }
            // `status` waits for the child to end.
            match child.status() {
                Ok(status) if status.success() => {}
                Ok(status) => {
                    failed.push(format!("{} (trace {}): {status}", workload.name, u8::from(traced)))
                }
                Err(e) => failed.push(format!("{}: cannot start: {e}", workload.name)),
            }
            println!();
        }
    }
    if failed.is_empty() {
        println!("bwbench: all {} workloads correct", WORKLOADS.len());
        ExitCode::SUCCESS
    } else {
        for f in &failed {
            println!("bwbench: FAILED {f}");
        }
        ExitCode::FAILURE
    }
}

/// Rows of a `--tsv` file: `(workload, trace, metric) → (value, unit)`.
type Rows = BTreeMap<(String, String, String), (f64, String)>;

fn read_tsv(path: &str) -> Result<Rows, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut rows = BTreeMap::new();
    for line in text.lines() {
        let cols: Vec<&str> = line.split('\t').collect();
        let [workload, trace, metric, value, unit] = cols[..] else {
            return Err(format!("{path}: malformed row {line:?}"));
        };
        let value: f64 = value.parse().map_err(|e| format!("{path}: {line:?}: {e}"))?;
        rows.insert(
            (workload.to_string(), trace.to_string(), metric.to_string()),
            (value, unit.to_string()),
        );
    }
    Ok(rows)
}

/// Compares two complete sets of runs of the same commit and seed against
/// the benchmark's own bounds: exact metrics and per-layer counts must be
/// identical, timed end-to-end metrics within their bound. Per-layer times
/// are printed, not judged.
fn compare(first: &str, second: &str) -> ExitCode {
    let (a, b) = match (read_tsv(first), read_tsv(second)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("bwbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut failures = 0;
    println!(
        "{:<24} {:<34} {:>14} {:>14} {:>8} {:>7}  verdict",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    for (key @ (workload, trace, metric), (x, unit)) in &a {
        let Some((y, _)) = b.get(key) else {
            println!("{workload:<24} {metric:<34} missing from {second}");
            failures += 1;
            continue;
        };
        let (x, y) = (*x, *y);
        let diff = if x == y { 0.0 } else { (x - y).abs() / x.abs().max(f64::MIN_POSITIVE) };
        let spec = END_TO_END.iter().find(|m| trace == "0" && m.name == metric);
        // The trace's byte count moves with the digits of its timestamps.
        let exact = metric == "error_rate"
            || spec.is_some_and(|m| m.exact)
            || (spec.is_none() && unit == "count" && metric != "telemetry.trace_bytes");
        let (bound, verdict) = match spec {
            _ if exact => ("exact".to_string(), if x == y { "ok" } else { "DIFFERS" }),
            Some(m) => (
                format!("{:.1}%", m.bound * 100.0),
                if diff <= m.bound { "ok" } else { "OUT OF BOUND" },
            ),
            None => ("-".to_string(), "layer"),
        };
        if verdict != "ok" && verdict != "layer" {
            failures += 1;
        }
        println!(
            "{workload:<24} {metric:<34} {x:>14.6} {y:>14.6} {:>7.2}% {bound:>7}  {verdict}",
            diff * 100.0
        );
    }
    for key in b.keys().filter(|k| !a.contains_key(*k)) {
        println!("{:<24} {:<34} missing from {first}", key.0, key.2);
        failures += 1;
    }
    if failures == 0 {
        println!("bwbench: the two sets agree within the benchmark's bounds");
        ExitCode::SUCCESS
    } else {
        println!("bwbench: {failures} metric(s) disagree");
        ExitCode::FAILURE
    }
}

/// Regenerates `expected.json` from this commit: every workload, full and
/// quick, untraced and traced, at seed 0, then the Figure 6 facts against
/// `results/figure6.txt`.
fn write_expected() -> ExitCode {
    let mut facts: BTreeMap<String, Fact> = BTreeMap::new();
    for workload in &WORKLOADS {
        for quick in [false, true] {
            for traced in [false, true] {
                eprintln!("bwbench: collecting {} quick={quick} traced={traced}", workload.name);
                let mut ctx = Ctx::new(workload.clock, 0, 0.0, traced, quick);
                (workload.run)(&mut ctx);
                if !ctx.out.wrong.is_empty() {
                    eprintln!(
                        "bwbench: {} is wrong on this commit: {:?}",
                        workload.name, ctx.out.wrong
                    );
                    return ExitCode::FAILURE;
                }
                for (key, fact) in std::mem::take(&mut ctx.oracle.stated) {
                    if let Some(old) = facts.insert(key.clone(), fact.clone()) {
                        if old != fact {
                            eprintln!("bwbench: {key} is not deterministic: {old} vs {fact}");
                            return ExitCode::FAILURE;
                        }
                    }
                }
            }
        }
    }
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
    let ports: Vec<(&str, &str)> =
        blockwatch::Benchmark::ALL.iter().map(|&b| (b.name(), spec::slug(b))).collect();
    match std::fs::read_to_string(format!("{root}/results/figure6.txt")) {
        Ok(figure6) => {
            if let Err(errors) = oracle::check_against_figure6(&facts, &figure6, &ports) {
                for e in errors {
                    eprintln!("bwbench: {e}");
                }
                return ExitCode::FAILURE;
            }
            eprintln!("bwbench: Figure 6 facts agree with results/figure6.txt");
        }
        Err(e) => {
            eprintln!("bwbench: cannot cross-check against results/figure6.txt: {e}");
            return ExitCode::FAILURE;
        }
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/expected.json");
    match std::fs::write(path, json::write_flat(&facts)) {
        Ok(()) => {
            eprintln!("bwbench: wrote {} facts to {path}; rebuild to compile them in", facts.len());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("bwbench: cannot write {path}: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    // One line per distinct panic, no backtrace: the fuzzing workloads catch
    // panics of the program under test, and a module that panics does so
    // again in every repetition.
    static SEEN: Mutex<BTreeSet<String>> = Mutex::new(BTreeSet::new());
    std::panic::set_hook(Box::new(|info| {
        let message = info.to_string();
        // A poisoned lock means the hook itself panicked; print regardless.
        if SEEN.lock().map_or(true, |mut seen| seen.insert(message.clone())) {
            eprintln!("bwbench: panic: {message}");
        }
    }));
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("--help" | "-h") => return usage(),
        Some("--print-benchmark-json") => {
            print!("{}", spec::benchmark_json());
            return ExitCode::SUCCESS;
        }
        Some("--write-expected") => return write_expected(),
        Some("--compare") => {
            return match &argv[1..] {
                [first, second] => compare(first, second),
                _ => usage(),
            };
        }
        _ => {}
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("bwbench: {e}");
            return usage();
        }
    };
    match &args.workload {
        Some(name) => run_one(name, &args),
        None => run_all(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn parses_the_drivers_command_line() {
        let args = parse_args(&argv(&[
            "--workload",
            "fuzz-oracle",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(args.workload.as_deref(), Some("fuzz-oracle"));
        assert_eq!((args.seed, args.seconds, args.traced, args.quick), (7, 3.0, true, false));
        assert!(parse_args(&argv(&["--workload", "nope"])).is_err());
        assert!(parse_args(&argv(&["--seed"])).is_err());
        assert!(parse_args(&argv(&["--seconds", "-1"])).is_err());
        assert!(parse_args(&argv(&["--trace", "2"])).is_err());
    }

    /// The result line carries exactly the declared metrics, in the
    /// contract's spelling: every end-to-end metric untraced (never 0, a
    /// metric the workload does not exercise reads `NOT_EXERCISED`), every
    /// per-layer metric traced.
    #[test]
    fn result_line_follows_the_output_schema() {
        let mut out = Outcome { attempted: 10, failed: 1, ..Outcome::default() };
        out.end_to_end.insert("setup_s", 0.25);
        out.end_to_end.insert("seeds_per_s", f64::NAN);
        out.per_layer.insert("gen.oracle_us".to_string(), 12.5);

        let line = result_line(&out, false);
        assert!(line.starts_with(
            "{\"correct\": true, \"attempted\": 10, \"failed\": 1, \"metrics\": {\"setup_s\": \
             {\"value\": 0.25, \"unit\": \"s\"}, "
        ));
        assert!(line.ends_with("}}}"));
        for m in &END_TO_END {
            assert_eq!(line.matches(&format!("\"{}\": {{\"value\": ", m.name)).count(), 1);
        }
        assert!(line.contains("\"seeds_per_s\": {\"value\": 1, \"unit\": \"1/s\"}"));
        assert!(!line.contains("\"value\": 0,") && !line.contains("null"));
        assert!(!line.contains("gen.oracle_us"));

        let traced = result_line(&out, true);
        let layers = spec::per_layer();
        assert_eq!(traced.matches("\"value\": ").count(), layers.len());
        for m in &layers {
            assert!(traced.contains(&format!("\"{}\": {{\"value\": ", m.name)), "{}", m.name);
        }
        assert!(traced.contains("\"gen.oracle_us\": {\"value\": 12.5, \"unit\": \"us\"}"));
        assert!(traced.contains("\"gen.generate_us\": {\"value\": 0, \"unit\": \"us\"}"));

        out.wrong.push("oracle mismatch".into());
        assert!(result_line(&out, false).starts_with("{\"correct\": false, "));
    }
}
