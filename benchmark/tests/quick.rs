//! Drives the built `bwbench` binary in `--quick` mode: every workload,
//! untraced and traced, must finish correct against the `quick.*` oracle,
//! end its output with the result object, and (traced) write its spans.

use std::path::PathBuf;
use std::process::Command;

const WORKLOADS: [&str; 7] = [
    "fig6-overhead",
    "campaign-raytrace-flip",
    "campaign-fmm-cond",
    "campaign-ocean-traced",
    "monitor-replay",
    "fuzz-oracle",
    "prepare-pipeline",
];

/// A working directory of this test's own, so parallel tests do not share
/// `benchmark/out`.
fn workdir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn bwbench(dir: &PathBuf, args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_bwbench"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("bwbench starts");
    (out.status.success(), String::from_utf8(out.stdout).expect("UTF-8 output"))
}

#[test]
fn every_workload_is_correct_in_quick_mode() {
    let dir = workdir("quick-untraced");
    for workload in WORKLOADS {
        let (ok, stdout) =
            bwbench(&dir, &["--workload", workload, "--quick", "--seconds", "0", "--trace", "0"]);
        let last = stdout.lines().last().unwrap_or_default();
        assert!(ok, "{workload} failed:\n{stdout}");
        assert!(last.starts_with("{\"correct\": true, \"attempted\": "), "{workload}: {last}");
        assert!(last.contains("\"setup_s\": {\"value\": "), "{workload}: {last}");
        assert!(
            stdout.contains("\nheader {\"schema\":\"bwbench/v1\""),
            "{workload}: no header record"
        );
    }
}

#[test]
fn every_traced_workload_writes_its_spans() {
    let dir = workdir("quick-traced");
    for workload in WORKLOADS {
        let (ok, stdout) =
            bwbench(&dir, &["--workload", workload, "--quick", "--seconds", "0", "--trace", "1"]);
        let last = stdout.lines().last().unwrap_or_default();
        assert!(ok, "{workload} failed:\n{stdout}");
        assert!(last.starts_with("{\"correct\": true, "), "{workload}: {last}");
        assert!(last.contains("\"bench.attributed_share\": {\"value\": "), "{workload}: {last}");
        let trace = dir.join(format!("benchmark/out/trace-{workload}.jsonl"));
        let text = std::fs::read_to_string(&trace).expect("trace file written");
        let mut lines = text.lines();
        assert!(lines.next().is_some_and(|l| l.starts_with("{\"schema\":\"bwbench/v1\"")));
        assert!(lines.any(|l| l.contains("\"name\":\"timed\"")), "{workload}: no timed root span");
    }
}

#[test]
fn a_different_seed_without_an_oracle_entry_is_still_checked() {
    let dir = workdir("quick-seed");
    let (ok, stdout) = bwbench(
        &dir,
        &["--workload", "campaign-raytrace-flip", "--quick", "--seconds", "0", "--seed", "7"],
    );
    assert!(ok, "{stdout}");
    assert!(stdout.lines().last().is_some_and(|l| l.starts_with("{\"correct\": true")));
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    let dir = workdir("quick-args");
    let (ok, stdout) = bwbench(&dir, &["--workload", "no-such-workload"]);
    assert!(!ok);
    assert!(stdout.is_empty());
    let (ok, _) = bwbench(&dir, &["--trace", "2"]);
    assert!(!ok);
}
