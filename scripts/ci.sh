#!/usr/bin/env bash
# The repo's CI gate, one shell function per leg. `scripts/ci.sh` runs every
# leg in order; `scripts/ci.sh <leg>...` runs the named ones, which is all a
# job of .github/workflows/ci.yml does — a leg is defined once, here.
# What a leg writes lands in $CI_OUT (default: a temp directory, removed).
set -euo pipefail
cd "$(dirname "$0")/.."

legs=(test fuzz-smoke forensics shards sampled traced traced-vs-untraced
      leftover-guard schema-guard bwir bwbench real-engine)

if [ -n "${CI_OUT:-}" ]; then
  mkdir -p "$CI_OUT"
  out="$(cd "$CI_OUT" && pwd)"
else
  out="$(mktemp -d)"
  trap 'rm -rf "$out"' EXIT
fi

bw() { cargo run --release --quiet --bin bw -- "$@"; }

# campaign <name> <program and flags...>: a seeded campaign with a trace,
# and the forensics `bw report` reconstructs from it: $out/<name>.{jsonl,txt}.
campaign() {
  local name="$1"; shift
  bw campaign "$@" --telemetry "$out/$name.jsonl" >/dev/null
  bw report "$out/$name.jsonl" > "$out/$name.txt"
}

# The forensics every byte-equality leg compares with: one worker, one
# monitor, no sampler, no span sink. The campaign seed is fixed, and the
# report ignores arrival order, worker ids and timestamps.
w1() {
  if [ ! -f "$out/w1.txt" ]; then campaign w1 splash:fft --injections 40 --workers 1; fi
}

# Release build, full test suite and a zero-warning clippy pass over every
# target — the one build configuration: there is no cargo feature. Then
# `bw-vm` again in the release profile: its
# differential test compares whole RunResults with the reference stepper
# kept under crates/vm/tests/reference/, its prefix test every fork of a
# `SimPrefix` with the full replay, and both thin their sweeps in debug
# builds, so the complete ones (and the allocation budget) run here. The
# workspace passes run the five other allocation budgets with a counting
# allocator: the IR text path's (`crates/ir/tests/alloc_budget.rs`: printing
# allocates only as its output grows, parsing per instruction), the
# monitor's (`crates/monitor/tests/alloc_budget.rs`), the
# fuzz oracle's (`crates/gen/tests/alloc_budget.rs`: per run over 600
# seeds), the trace read path's (`tests/trace_alloc_budget.rs`: one
# allocation per record, none per field) and the benchmark campaigns'
# exact cost (`tests/campaign_cost.rs`: steps run and skipped, FMM's
# allocations per injection and peak heap; ~5 s in the debug profile).
leg_test() {
  cargo build --release --workspace
  cargo test -q --workspace
  cargo clippy --workspace --all-targets -- -D warnings
  cargo test --release -q -p bw-vm
}

# A bounded random-program sweep through the whole pipeline (generate →
# round-trip → prepare → oracle). 200 seeds keep this under two minutes;
# the nightly job goes deeper. A failure leaves fuzz-<seed>.bwir in the cwd.
leg_fuzz_smoke() { bw fuzz --seeds 200 --inject 2; }

# A seeded campaign must leave a trace that `bw report` can reconstruct
# into per-injection evidence, byte-identical at any worker count. No abort
# flag here: early-abort with multiple workers can overshoot differently.
leg_forensics() {
  w1
  campaign w4 splash:fft --injections 40 --workers 4
  diff "$out/w1.txt" "$out/w4.txt"
  grep -q "DEVIANT" "$out/w1.txt"
  grep -q "top violating sites" "$out/w1.txt"
}

# Sharding the monitor ingest is a throughput knob, never a semantic one:
# the same campaign at 1 and 4 monitor shards (and any worker count) must
# reconstruct the unsharded forensics, and the sharded trace must carry
# per-shard health counters for `bw stats`.
leg_shards() {
  w1
  campaign s1 splash:fft --injections 40 --workers 4 --monitor-shards 1
  campaign s4 splash:fft --injections 40 --workers 4 --monitor-shards 4
  diff "$out/s1.txt" "$out/s4.txt"
  diff "$out/w1.txt" "$out/s4.txt"
  bw stats "$out/s4.jsonl" | grep -q "monitor shards:"
}

# Live sampling is observability-only: the sampled campaign's forensics
# equal the unsampled ones, while its trace carries `sample` records that
# `bw top` / `bw stats --series` render into a time series.
leg_sampled() {
  w1
  campaign sampled splash:fft --injections 40 --workers 1 --sample-interval-ms 5
  grep -q '"ev":"sample"' "$out/sampled.jsonl"
  diff "$out/w1.txt" "$out/sampled.txt"
  bw top "$out/sampled.jsonl" | grep -q "totals:"
  bw stats "$out/sampled.jsonl" --series | grep -q "samples:"
  bw stats "$out/sampled.jsonl" --format json | grep -q '"events.sample":'
}

# Span tracing is observability-only. A traced run must leave tspan records
# that `bw timeline` renders into per-thread lanes and a cross-thread phase
# profile, the Chrome export must be well-formed Trace Event JSON (ph/ts/tid
# keys, Perfetto-loadable), and a campaign traced with --trace-spans must
# reconstruct the untraced forensics.
leg_traced() {
  w1
  bw run splash:fft --threads 4 --telemetry "$out/spans.jsonl" --trace-spans >/dev/null
  grep -q '"ev":"tspan"' "$out/spans.jsonl"
  bw timeline "$out/spans.jsonl" --chrome "$out/spans.chrome.json" --phase-profile \
    > "$out/timeline.txt"
  grep -q 'timeline \[cyc\]' "$out/timeline.txt"
  grep -q 'phase profile \[cyc\]' "$out/timeline.txt"
  if command -v python3 >/dev/null 2>&1; then
    python3 - "$out/spans.chrome.json" <<'PY'
import json, sys
events = json.load(open(sys.argv[1]))["traceEvents"]
assert events, "empty traceEvents"
assert any(e.get("ph") == "X" and "ts" in e and "tid" in e for e in events), \
    "no complete duration event with ph/ts/tid"
PY
  else
    for key in '"ph":"X"' '"ts":' '"tid":'; do grep -q "$key" "$out/spans.chrome.json"; done
  fi
  campaign traced splash:fft --injections 40 --workers 1 --trace-spans
  diff "$out/w1.txt" "$out/traced.txt"
}

# A campaign forks its injections from a shared fault-free prefix, with or
# without a span sink (under one the prefix holds its spans back and every
# fork writes them, then its own). All three ways of running it — 1 worker,
# 4 workers, 1 worker traced — must fork and must reconstruct the same
# forensics, on the three ports the benchmark injects into. (The full-replay
# side of the comparison is the release `bw-vm` tests, `prefix.rs`, and
# `telemetry_determinism`'s plan-by-plan test.)
leg_traced_vs_untraced() {
  local spec port run
  for spec in "raytrace --injections 64" "fmm --model cond --injections 32" \
      "ocean-noncontig --size small --injections 40"; do
    port="${spec%% *}"
    # shellcheck disable=SC2086  # $spec is a flag list
    campaign "$port.w1" splash:$spec --workers 1
    # shellcheck disable=SC2086
    campaign "$port.w4" splash:$spec --workers 4
    # shellcheck disable=SC2086
    campaign "$port.traced" splash:$spec --workers 1 --trace-spans
    for run in w1 w4 traced; do
      grep -q '"steps_skipped":[1-9]' "$out/$port.$run.jsonl"
    done
    diff "$out/$port.w1.txt" "$out/$port.w4.txt"
    diff "$out/$port.w1.txt" "$out/$port.traced.txt"
    grep -q '"cat":"barrier_phase"' "$out/$port.traced.jsonl"
  done
}

# PR 19 removed the SCC-parallel analysis (DESIGN §15). Three symbols
# outlive it only because bwbench still calls them: nobody in the workspace
# may re-adopt `ModuleAnalysis::run_parallel`, `ModuleAnalysis::divergence`
# or `bw_ir::{ValueGraph, Condensation}` (the definitions in analysis.rs /
# scc.rs and the `bw_ir` re-export are the only matches allowed); the
# analysis — and with it `check_module` — spawns no thread; and no manifest
# names serde again. PR 20 removed the `telemetry` cargo feature (DESIGN
# §10) and vendor/crossbeam; `bw_telemetry::ENABLED` survives,
# `#[doc(hidden)]`, for bwbench's run header only and may have no reader.
# The `provenance` feature (DESIGN §12) went the same way. The `/metrics`
# pull server and its Prometheus text format are gone too (DESIGN §14):
# `sample` trace records are the one live view. The similarity pass always
# settles, because every category update is a join (DESIGN §4.1): no
# iteration cap, no `converged` flag and no `NoFixpoint` refusal.
leg_leftover_guard() {
  if grep -rnE 'ModuleAnalysis::run_parallel|fn run_parallel\(module|ValueGraph|\.divergence\(' \
      crates tests examples \
    | grep -vE '^crates/ir/src/scc\.rs:|^crates/ir/src/lib\.rs:[0-9]+:pub use scc::|^crates/analysis/src/analysis\.rs:[0-9]+: *pub fn run_parallel\(module'; then
    echo "ci: a leftover of the parallel analysis has a caller again" >&2; return 1
  fi
  if grep -rnE 'std::thread|Condvar|std::sync::atomic' crates/analysis/src; then
    echo "ci: bw-analysis must stay single-threaded" >&2; return 1
  fi
  if grep -rn serde Cargo.toml crates/*/Cargo.toml; then
    echo "ci: serde is back in a workspace manifest" >&2; return 1
  fi
  if grep -rnE 'feature = "telemetry"|tm_(add|inc|gauge_max|observe|event|span)!|NoopSpan|(telemetry|crate)::ENABLED' \
      crates tests examples; then
    echo "ci: the telemetry feature gate is back" >&2; return 1
  fi
  if grep -nE '^telemetry *=|crossbeam' Cargo.toml crates/*/Cargo.toml; then
    echo "ci: a workspace manifest declares \`telemetry\` or names crossbeam" >&2; return 1
  fi
  if grep -rn 'feature = "provenance"' crates tests examples \
      || grep -n provenance Cargo.toml crates/*/Cargo.toml; then
    echo "ci: the provenance feature gate is back" >&2; return 1
  fi
  if grep -rnE 'MetricsServer|to_prometheus|metrics-addr' crates tests examples \
    | grep -v '^tests/cli\.rs:.*"--metrics-addr"'; then
    echo "ci: the /metrics pull server is back" >&2; return 1
  fi
  if grep -rnE 'NoFixpoint|PrepareError|\.converged\b|max_iterations' crates tests examples; then
    echo "ci: the similarity pass's iteration cap or its refusal is back" >&2; return 1
  fi
}

# One owner per trace record kind (DESIGN §10, "Trace schema"): the file that
# writes a kind also decodes it, so a field name that belongs to one kind is
# spelled in that one source file (its in-file tests included; the `tests.rs`
# files of other modules quote whole trace lines and are left out), and the
# trace views in crates/core read decoded records, never a field by name.
# `tests/trace_schema.rs` — the parent-written fixtures, the hostile-input
# sweep and DESIGN's table against the encoders — runs in the `test` leg.
leg_schema_guard() {
  local field owner spelled
  while read -r field owner; do
    spelled="$(grep -rlE --include='*.rs' "\"$field\\\\?\"" crates/*/src \
      | grep -v '/tests\.rs$' | sort | tr '\n' ' ')"
    if [ "$spelled" != "$owner " ]; then
      echo "ci: \"$field\" belongs to $owner alone; spelled in: $spelled" >&2; return 1
    fi
  done <<'FIELDS'
steps_skipped crates/fault/src/campaign.rs
detected_seq crates/monitor/src/provenance.rs
dt_us crates/telemetry/src/sampler.rs
buckets crates/telemetry/src/snapshot.rs
track crates/telemetry/src/trace.rs
FIELDS
  if grep -rnE --include='*.rs' '\.field(_u64|_str)?\("' crates/core/src | grep -v '/tests\.rs:'; then
    echo "ci: a trace view reads a record field by name again" >&2; return 1
  fi
}

# The IR text format. `tests/fixtures/ir/` holds `bw ir` of the seven ports
# at `--size test` and `bw gen` of seeds 0-2, written by the binary that
# preceded the one-buffer printer and the one-pass parser: this binary must
# write the same bytes, and reprint every fixture unchanged once it has
# parsed it (`bw ir` ends its dump with a blank line, `bw gen` does not).
# Then the text path's differential and mutation tests
# (crates/ir/tests/text_oracle.rs: the printer and parser they replaced,
# kept under tests/reference/) and the control-flow facts' (flow_oracle.rs:
# the CFG and verifier they replaced, kept there too) in the release
# profile, where they are complete, with the allocation budgets of the text
# path, of verification and of preparing a module.
leg_bwir() {
  local fx=tests/fixtures/ir port seed f
  for port in fft fmm ocean-contig ocean-noncontig radix raytrace water-nsquared; do
    bw ir "splash:$port" --size test | diff - "$fx/$port.bwir"
  done
  for seed in 0 1 2; do
    bw gen --seed "$seed" | diff - "$fx/gen-$seed.bwir"
  done
  for f in "$fx"/*.bwir; do
    diff <(bw ir "$f") <(cat "$f"; case "$f" in */gen-*) echo ;; esac)
  done
  cargo test --release -q -p bw-ir --test text_oracle --test flow_oracle --test alloc_budget
  cargo test --release -q -p bw-vm --test prepare_alloc_budget
}

# bwbench (benchmark/, its own workspace) must build against this tree's
# public surface and reproduce its exact-count oracle in quick mode, so a
# change that breaks what the benchmark compiles against fails here rather
# than in the benchmark run.
leg_bwbench() { cargo test --release --offline --manifest-path benchmark/Cargo.toml; }

# The OS-thread scheduler must satisfy the same Engine contract as the
# simulator on every SPLASH port (parity suite), and survive a fuzz smoke
# with real-engine campaigns and the sim-vs-real oracle cross-check. The
# window is small: these runs cost wall-clock time on real threads.
leg_real_engine() {
  cargo test -q -p blockwatch --test engine_parity
  bw fuzz --seeds 25 --inject 2 --engine real --real-cross-check
}

if [ $# -eq 0 ]; then
  set -- "${legs[@]}"
  verdict="all gates passed"
else
  verdict="passed: $*"
fi
for leg in "$@"; do
  declare -F "leg_${leg//-/_}" >/dev/null \
    || { echo "ci: no leg \`$leg\` (legs: ${legs[*]})" >&2; exit 2; }
  echo "ci: leg $leg" >&2
  "leg_${leg//-/_}"
done
echo "ci: $verdict"
