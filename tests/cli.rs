//! The `bw` binary's argument handling, driven as a subprocess: the
//! positional `<file>` is found wherever the flags are, malformed numeric
//! flag values are errors, never silent defaults, and a flag the
//! subcommand does not know is an error, never silently ignored.

use std::path::PathBuf;
use std::process::{Command, Output};

fn bw(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bw")).args(args).output().expect("bw runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn file_argument_is_found_before_and_after_switches() {
    // A switch before the file must not swallow it...
    for args in [["run", "--stats", "splash:fft"], ["run", "splash:fft", "--stats"]] {
        let out = bw(&args);
        assert!(out.status.success(), "bw {args:?}: {}", stderr(&out));
    }

    // ...on the trace readers too, whose switches tend to come first.
    let trace: PathBuf =
        [env!("CARGO_TARGET_TMPDIR"), "cli-file-arg.jsonl"].iter().collect();
    let trace = trace.to_str().expect("utf-8 temp path");
    let traced = bw(&[
        "campaign", "splash:fft", "--injections", "4", "--workers", "1",
        "--telemetry", trace, "--trace-spans", "--sample-interval-ms", "1",
    ]);
    assert!(traced.status.success(), "{}", stderr(&traced));
    for (command, switch) in [("stats", "--series"), ("timeline", "--phase-profile")] {
        let file_first = bw(&[command, trace, switch]);
        let switch_first = bw(&[command, switch, trace]);
        assert!(
            !stderr(&switch_first).contains("missing <file>"),
            "bw {command} {switch} <file>: {}",
            stderr(&switch_first)
        );
        assert_eq!(file_first.status, switch_first.status, "bw {command} {switch}");
        assert_eq!(file_first.stdout, switch_first.stdout, "bw {command} {switch}");
    }
    // A flag's value is still not mistaken for the file.
    let valued = bw(&["stats", "--format", "json", trace]);
    assert!(valued.status.success(), "{}", stderr(&valued));
    assert_eq!(valued.stdout, bw(&["stats", trace, "--format", "json"]).stdout);
}

#[test]
fn malformed_numeric_flags_are_errors_naming_flag_and_value() {
    for (command, flag) in [
        (&["run", "splash:fft"][..], "--threads"),
        (&["campaign", "splash:fft"], "--threads"),
        (&["campaign", "splash:fft"], "--injections"),
        (&["campaign", "splash:fft"], "--workers"),
        (&["fuzz"], "--seeds"),
        (&["fuzz"], "--start"),
        (&["fuzz"], "--inject"),
        (&["fuzz"], "--max-stmts"),
        (&["gen"], "--max-stmts"),
        (&["gen"], "--seed"),
    ] {
        let mut args = command.to_vec();
        args.extend([flag, "abc"]);
        let out = bw(&args);
        let err = stderr(&out);
        assert!(!out.status.success(), "bw {args:?} accepted a malformed value");
        assert!(err.contains(flag) && err.contains("`abc`"), "bw {args:?}: {err}");
    }
    // Well-formed values, hex seeds included, still parse.
    assert!(bw(&["gen", "--seed", "0x1a", "--max-stmts", "8"]).status.success());
}

/// Every build traces and samples — there is no telemetry-off one: the
/// flags leave their records in the file.
#[test]
fn trace_spans_and_sampling_write_their_records_in_every_build() {
    let trace: PathBuf = [env!("CARGO_TARGET_TMPDIR"), "cli-spans.jsonl"].iter().collect();
    let trace = trace.to_str().expect("utf-8 temp path");
    let run = bw(&["run", "splash:fft", "--threads", "4", "--telemetry", trace, "--trace-spans"]);
    assert!(run.status.success(), "{}", stderr(&run));
    assert!(!stderr(&run).contains("records nothing"), "{}", stderr(&run));
    let text = std::fs::read_to_string(trace).expect("trace written");
    assert!(text.contains("\"ev\":\"tspan\""), "no span record in {trace}");

    let campaign = bw(&[
        "campaign", "splash:fft", "--injections", "4", "--workers", "1",
        "--telemetry", trace, "--sample-interval-ms", "5",
    ]);
    assert!(campaign.status.success(), "{}", stderr(&campaign));
    let text = std::fs::read_to_string(trace).expect("trace written");
    assert!(text.contains("\"ev\":\"sample\""), "no sample record in {trace}");
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn unknown_flags_are_errors_not_ignored() {
    for (args, flag, command) in [
        // A typo used to run at the default thread count and exit 0.
        (&["run", "splash:fft", "--thread", "8"][..], "--thread", "run"),
        // A flag removed in PR 19: a script still passing it must fail
        // loudly, not run the one analysis in silence.
        (&["analyze", "splash:fft", "--analysis-workers", "1"], "--analysis-workers", "analyze"),
        // Likewise the flag of the removed `/metrics` pull server: a campaign
        // asked to serve it must not run unwatched.
        (&["campaign", "splash:fft", "--metrics-addr", "127.0.0.1:0"], "--metrics-addr", "campaign"),
        // Faults are injected on the simulator only: asking a campaign or
        // the fuzzer's injection stage for OS threads must not run on the
        // simulator in silence.
        (&["campaign", "splash:fft", "--engine", "real"], "--engine", "campaign"),
        (&["fuzz", "--engine", "real"], "--engine", "fuzz"),
        // A campaign's monitor shards are inline on the simulator's one
        // thread: they buy nothing, so neither injecting command takes them.
        (&["campaign", "splash:fft", "--monitor-shards", "2"], "--monitor-shards", "campaign"),
        (&["fuzz", "--monitor-shards", "2"], "--monitor-shards", "fuzz"),
        // A real flag, on a subcommand that does not take it.
        (&["analyze", "splash:fft", "--threads", "8"], "--threads", "analyze"),
        (&["gen", "--seeds", "3"], "--seeds", "gen"),
        (&["report", "--series", "x.jsonl"], "--series", "report"),
    ] {
        let out = bw(args);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(1), "bw {args:?}: {err}");
        assert!(
            err.contains(&format!("unknown flag `{flag}` for `bw {command}`")),
            "bw {args:?}: {err}"
        );
        assert!(err.contains("usage:"), "bw {args:?} does not print the usage: {err}");
        assert!(out.stdout.is_empty(), "bw {args:?} ran anyway: {}", stdout(&out));
    }
    // A value flag with nothing after it is not its default.
    let out = bw(&["run", "splash:fft", "--threads"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("`--threads` needs a value"), "{}", stderr(&out));
}

#[test]
fn help_after_any_subcommand_prints_the_usage() {
    let usage = stdout(&bw(&["help"]));
    assert!(usage.starts_with("usage:"), "{usage}");
    // `bw fuzz --help` used to run a 100-seed fuzz session.
    for args in [&["fuzz", "--help"][..], &["fuzz", "-h"], &["run", "splash:fft", "--help"]] {
        let out = bw(args);
        assert!(out.status.success(), "bw {args:?}: {}", stderr(&out));
        assert_eq!(stdout(&out), usage, "bw {args:?}");
    }
}

/// Every `[--flag]` / `[--flag VALUE]` in a subcommand's usage synopsis,
/// as `(subcommand, flag, takes a value)`.
fn flags_the_usage_names(usage: &str) -> Vec<(String, String, bool)> {
    let mut named = Vec::new();
    let mut command = String::new();
    for line in usage.lines() {
        if let Some(synopsis) = line.strip_prefix("  bw ") {
            command = synopsis.split_whitespace().next().expect("a subcommand").to_string();
        } else if line.trim().is_empty() {
            command.clear(); // the paragraphs under the synopses
        }
        if command.is_empty() {
            continue;
        }
        for bracket in line.split('[').skip(1) {
            let inner = bracket.split(']').next().expect("text after `[`");
            if inner.starts_with("--") {
                let mut words = inner.split_whitespace();
                let flag = words.next().expect("a flag").to_string();
                named.push((command.clone(), flag, words.next().is_some()));
            }
        }
    }
    named
}

/// The usage text and the flag table cannot drift: every flag the usage
/// lists under a subcommand is accepted by that subcommand (and `--size`,
/// which the usage documents with `<file>`, by the four that load one).
#[test]
fn every_flag_the_usage_names_is_accepted_where_it_is_listed() {
    let usage = stdout(&bw(&["help"]));
    let mut named = flags_the_usage_names(&usage);
    assert!(named.len() >= 37, "the usage parser lost the synopses: {named:?}");
    assert!(named.contains(&("timeline".into(), "--chrome".into(), true)), "{named:?}");
    assert!(named.contains(&("fuzz".into(), "--real-cross-check".into(), false)), "{named:?}");
    let engine: Vec<_> = named.iter().filter(|(_, flag, _)| flag == "--engine").collect();
    assert_eq!(engine, [&("run".to_string(), "--engine".to_string(), true)], "{named:?}");
    for command in ["analyze", "run", "ir", "campaign"] {
        named.push((command.into(), "--size".into(), true));
    }

    // Run from an empty scratch directory (`--out 1` and `--telemetry 1`
    // create a file named `1`), on arguments that end every subcommand at
    // once: a `<file>` that does not exist, or zero seeds. Whatever else
    // the command then says, it must not be that the flag is unknown.
    let scratch: PathBuf = [env!("CARGO_TARGET_TMPDIR"), "cli-usage-flags"].iter().collect();
    std::fs::create_dir_all(&scratch).expect("scratch directory");
    for (command, flag, valued) in named {
        let mut args = vec![command.as_str()];
        match command.as_str() {
            "fuzz" => args.extend(["--seeds", "0"]),
            "gen" => args.extend(["--max-stmts", "4"]),
            _ => args.push("no-such-file"),
        }
        args.push(&flag);
        if valued {
            args.push("1");
        }
        let out = Command::new(env!("CARGO_BIN_EXE_bw"))
            .args(&args)
            .current_dir(&scratch)
            .output()
            .expect("bw runs");
        let err = stderr(&out);
        assert!(
            !err.contains("unknown flag") && !err.contains("needs a value"),
            "the usage lists `{flag}` under `bw {command}`, but: {err}"
        );
    }
}

/// Every `--flag` word in `text`.
fn flag_words(text: &str) -> std::collections::BTreeSet<String> {
    text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
        .filter(|w| w.len() > 2 && w.starts_with("--") && !w.ends_with('-'))
        .map(String::from)
        .collect()
}

/// README's CLI section does not restate the usage, but it does name the
/// flags; it and the flag table cannot drift either: the section names
/// every flag `bw help` lists and no flag `bw help` does not.
#[test]
fn the_readme_names_the_flags_bw_help_lists() {
    let readme: PathBuf = [env!("CARGO_MANIFEST_DIR"), "..", "..", "README.md"].iter().collect();
    let readme = std::fs::read_to_string(readme).expect("README.md");
    let section = readme.split("\n## ").find(|s| s.starts_with("The `bw` CLI")).expect("the section");
    let mut listed = flag_words(&stdout(&bw(&["help"])));
    assert!(listed.len() >= 24, "the usage lost its flags: {listed:?}");
    listed.insert("--help".into());
    listed.insert("--bin".into()); // `cargo run --release --bin bw --` in the examples
    listed.insert("--release".into());
    let named = flag_words(section);
    let (missing, stale): (Vec<_>, Vec<_>) =
        (listed.difference(&named).collect(), named.difference(&listed).collect());
    assert!(missing.is_empty() && stale.is_empty(), "README lacks {missing:?}, has stale {stale:?}");
}

/// `bw fuzz 500` used to sweep the default 100 seeds and `bw run a b` to
/// run `a`: an argument nothing reads is an error like an unknown flag is.
#[test]
fn an_argument_the_subcommand_does_not_take_is_an_error() {
    for (args, extra) in [(&["fuzz", "500"][..], "500"), (&["run", "splash:fft", "splash:fmm"], "splash:fmm")] {
        let out = bw(args);
        assert_eq!(out.status.code(), Some(1), "bw {args:?}");
        let expected = format!("unexpected argument `{extra}`");
        assert!(stderr(&out).contains(&expected), "bw {args:?}: {}", stderr(&out));
        assert!(out.stdout.is_empty(), "bw {args:?} ran anyway: {}", stdout(&out));
    }
}

/// The usage names the oracle's default thread counts as
/// `blockwatch::gen::DEFAULT_THREADS` holds them: the help text is written
/// by hand, so nothing else keeps the two in step.
#[test]
fn the_fuzz_usage_names_the_default_thread_counts() {
    let counts: Vec<String> =
        blockwatch::gen::DEFAULT_THREADS.iter().map(u32::to_string).collect();
    let usage = stdout(&bw(&["help"]));
    let expected = format!("(default {})", counts.join(","));
    let help = usage.lines().skip_while(|line| line.trim() != "--threads T1,T2,..").nth(1);
    let help = help.expect("the usage explains `--threads T1,T2,..`");
    assert!(help.contains(&expected), "`bw fuzz --threads` help lacks {expected}: {help:?}");
}
