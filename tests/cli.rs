//! The `bw` binary's argument handling, driven as a subprocess: the
//! positional `<file>` is found wherever the flags are, and malformed
//! numeric flag values are errors, never silent defaults.

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
