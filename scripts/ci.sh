#!/usr/bin/env bash
# The repo's CI gate: release build, full test suite, and a zero-warning
# clippy pass over every target. Run from the workspace root.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --workspace
cargo test -q --workspace
cargo clippy --workspace --all-targets -- -D warnings

# The `provenance`-off build, the one other configuration (telemetry is
# always compiled in): no flight recorder, so no level-1 site table in the
# monitor and no `ViolationReport`s. Builds, tests and lints clean.
cargo build --workspace --no-default-features
cargo test -q --workspace --no-default-features
cargo clippy --workspace --all-targets --no-default-features -- -D warnings

# The interpreter against the stepper it replaced: `bw-vm`'s differential
# test compares whole RunResults with the reference model kept under
# crates/vm/tests/reference/, and its prefix test compares every fork of a
# `SimPrefix` with the full replay. Both thin their sweeps in debug builds
# (the workspace legs above ran that), so the complete ones run here, in
# the release profile, with the allocation budget.
cargo test --release -q -p bw-vm

# Fuzz smoke: a bounded random-program sweep through the whole pipeline
# (generate → round-trip → prepare → oracle). 200 seeds keep this under
# two minutes; the nightly job goes deeper.
cargo run --release --quiet --bin bw -- fuzz --seeds 200 --inject 2

# Forensics smoke: a seeded campaign must leave a trace that `bw report`
# can reconstruct into per-injection evidence, and that evidence must be
# byte-identical at any worker count (the campaign seed is fixed, and the
# report ignores arrival order, worker ids and timestamps). No abort flag
# here: early-abort with multiple workers can overshoot differently.
tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT
cargo run --release --quiet --bin bw -- campaign splash:fft \
  --injections 40 --workers 1 --telemetry "$tmpdir/w1.jsonl" >/dev/null
cargo run --release --quiet --bin bw -- campaign splash:fft \
  --injections 40 --workers 4 --telemetry "$tmpdir/w4.jsonl" >/dev/null
cargo run --release --quiet --bin bw -- report "$tmpdir/w1.jsonl" \
  > "$tmpdir/w1.txt"
cargo run --release --quiet --bin bw -- report "$tmpdir/w4.jsonl" \
  > "$tmpdir/w4.txt"
diff "$tmpdir/w1.txt" "$tmpdir/w4.txt"
grep -q "DEVIANT" "$tmpdir/w1.txt"
grep -q "top violating sites" "$tmpdir/w1.txt"

# Sharded-ingest leg: sharding the monitor is a throughput knob, never a
# semantic one. The same seeded campaign with 1 and 4 monitor shards (and
# any worker count) must reconstruct byte-identical forensics, and the
# sharded trace must carry per-shard health counters for `bw stats`.
cargo run --release --quiet --bin bw -- campaign splash:fft \
  --injections 40 --workers 4 --monitor-shards 1 \
  --telemetry "$tmpdir/s1.jsonl" >/dev/null
cargo run --release --quiet --bin bw -- campaign splash:fft \
  --injections 40 --workers 4 --monitor-shards 4 \
  --telemetry "$tmpdir/s4.jsonl" >/dev/null
cargo run --release --quiet --bin bw -- report "$tmpdir/s1.jsonl" \
  > "$tmpdir/s1.txt"
cargo run --release --quiet --bin bw -- report "$tmpdir/s4.jsonl" \
  > "$tmpdir/s4.txt"
diff "$tmpdir/s1.txt" "$tmpdir/s4.txt"
# Sharded or not, the forensics must match the unsharded campaign above.
diff "$tmpdir/w1.txt" "$tmpdir/s4.txt"
cargo run --release --quiet --bin bw -- stats "$tmpdir/s4.jsonl" \
  | grep -q "monitor shards:"

# Observability leg. Live sampling is observability-only: the same seeded
# campaign traced with --sample-interval-ms must yield a `bw report`
# byte-identical to the unsampled w1 trace above, while the sampled trace
# itself carries `sample` records that `bw top` / `bw stats --series`
# render into a time series.
cargo run --release --quiet --bin bw -- campaign splash:fft \
  --injections 40 --workers 1 --telemetry "$tmpdir/sampled.jsonl" \
  --sample-interval-ms 5 >/dev/null
grep -q '"ev":"sample"' "$tmpdir/sampled.jsonl"
cargo run --release --quiet --bin bw -- report "$tmpdir/sampled.jsonl" \
  > "$tmpdir/sampled.txt"
diff "$tmpdir/w1.txt" "$tmpdir/sampled.txt"
cargo run --release --quiet --bin bw -- top "$tmpdir/sampled.jsonl" \
  | grep -q "totals:"
cargo run --release --quiet --bin bw -- stats "$tmpdir/sampled.jsonl" --series \
  | grep -q "samples:"
cargo run --release --quiet --bin bw -- stats "$tmpdir/sampled.jsonl" \
  --format json | grep -q '"events.sample":'

# Timeline leg: span tracing is observability-only. A traced run must
# leave tspan records that `bw timeline` renders into per-thread lanes
# and a cross-thread phase profile, the Chrome export must be well-formed
# Trace Event JSON (ph/ts/tid keys, Perfetto-loadable), and a seeded
# campaign traced with --trace-spans must reconstruct a `bw report`
# byte-identical to the untraced w1 forensics above.
cargo run --release --quiet --bin bw -- run splash:fft --threads 4 \
  --telemetry "$tmpdir/spans.jsonl" --trace-spans >/dev/null
grep -q '"ev":"tspan"' "$tmpdir/spans.jsonl"
cargo run --release --quiet --bin bw -- timeline "$tmpdir/spans.jsonl" \
  --chrome "$tmpdir/spans.chrome.json" --phase-profile > "$tmpdir/timeline.txt"
grep -q 'timeline \[cyc\]' "$tmpdir/timeline.txt"
grep -q 'phase profile \[cyc\]' "$tmpdir/timeline.txt"
if command -v python3 >/dev/null 2>&1; then
  python3 - "$tmpdir/spans.chrome.json" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
events = doc["traceEvents"]
assert events, "empty traceEvents"
assert any(e.get("ph") == "X" and "ts" in e and "tid" in e for e in events), \
    "no complete duration event with ph/ts/tid"
PY
else
  grep -q '"ph":"X"' "$tmpdir/spans.chrome.json"
  grep -q '"ts":' "$tmpdir/spans.chrome.json"
  grep -q '"tid":' "$tmpdir/spans.chrome.json"
fi
cargo run --release --quiet --bin bw -- campaign splash:fft \
  --injections 40 --workers 1 --telemetry "$tmpdir/traced.jsonl" \
  --trace-spans >/dev/null
cargo run --release --quiet --bin bw -- report "$tmpdir/traced.jsonl" \
  > "$tmpdir/traced.txt"
diff "$tmpdir/w1.txt" "$tmpdir/traced.txt"

# Traced-vs-untraced leg: a campaign forks its injections from a shared
# fault-free prefix, with or without a span sink (under one the prefix
# holds its spans back and every fork writes them, then its own). All
# three ways of running it — 1 worker, 4 workers, 1 worker traced — must
# fork and must reconstruct the same forensics, on the three ports the
# benchmark injects into. (The full-replay side of the comparison is the
# release `bw-vm` leg above, `prefix.rs`, and `telemetry_determinism`'s
# plan-by-plan test.)
for spec in "raytrace --injections 64" "fmm --model cond --injections 32" \
    "ocean-noncontig --size small --injections 40"; do
  port="${spec%% *}"
  # shellcheck disable=SC2086  # $spec is a flag list
  cargo run --release --quiet --bin bw -- campaign splash:$spec \
    --workers 1 --telemetry "$tmpdir/$port.w1.jsonl" >/dev/null
  # shellcheck disable=SC2086
  cargo run --release --quiet --bin bw -- campaign splash:$spec \
    --workers 4 --telemetry "$tmpdir/$port.w4.jsonl" >/dev/null
  # shellcheck disable=SC2086
  cargo run --release --quiet --bin bw -- campaign splash:$spec \
    --workers 1 --telemetry "$tmpdir/$port.traced.jsonl" --trace-spans >/dev/null
  for run in w1 w4 traced; do
    cargo run --release --quiet --bin bw -- report "$tmpdir/$port.$run.jsonl" \
      > "$tmpdir/$port.$run.txt"
    grep -q '"steps_skipped":[1-9]' "$tmpdir/$port.$run.jsonl"
  done
  diff "$tmpdir/$port.w1.txt" "$tmpdir/$port.w4.txt"
  diff "$tmpdir/$port.w1.txt" "$tmpdir/$port.traced.txt"
  grep -q '"cat":"barrier_phase"' "$tmpdir/$port.traced.jsonl"
done

# Metrics-endpoint smoke: a campaign serving --metrics-addr must answer
# GET /metrics with bw_-prefixed Prometheus text while it runs.
cargo run --release --quiet --bin bw -- campaign splash:fft \
  --injections 3000 --workers 2 --metrics-addr 127.0.0.1:9187 \
  >/dev/null 2>&1 &
metrics_pid=$!
got_metrics=""
for _ in $(seq 1 50); do
  if body="$(curl -sf http://127.0.0.1:9187/metrics 2>/dev/null)" \
     || body="$( (exec 3<>/dev/tcp/127.0.0.1/9187 \
          && printf 'GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n' >&3 \
          && cat <&3) 2>/dev/null)"; then
    if grep -q "bw_live_" <<<"$body"; then got_metrics=yes; break; fi
  fi
  sleep 0.1
done
wait "$metrics_pid"
[ -n "$got_metrics" ] || { echo "metrics endpoint never served bw_ metrics" >&2; exit 1; }

# Leftover guard (PR 19 removed the SCC-parallel analysis, DESIGN §15).
# Three symbols outlive it only because bwbench still calls them:
# nobody in the workspace may re-adopt `ModuleAnalysis::run_parallel`,
# `ModuleAnalysis::divergence` or `bw_ir::{ValueGraph, Condensation}`
# (the definitions in analysis.rs / scc.rs and the `bw_ir` re-export are
# the only matches allowed); the analysis — and with it `check_module` —
# spawns no thread; and no manifest names serde again.
if grep -rnE 'ModuleAnalysis::run_parallel|fn run_parallel\(module|ValueGraph|\.divergence\(' \
    crates tests examples \
  | grep -vE '^crates/ir/src/scc\.rs:|^crates/ir/src/lib\.rs:[0-9]+:pub use scc::|^crates/analysis/src/analysis\.rs:[0-9]+: *pub fn run_parallel\(module'; then
  echo "ci: a leftover of the parallel analysis has a caller again" >&2; exit 1
fi
if grep -rnE 'std::thread|Condvar|std::sync::atomic' crates/analysis/src; then
  echo "ci: bw-analysis must stay single-threaded" >&2; exit 1
fi
if grep -rn serde Cargo.toml crates/*/Cargo.toml; then
  echo "ci: serde is back in a workspace manifest" >&2; exit 1
fi
# PR 20 removed the `telemetry` cargo feature (DESIGN §10) and
# vendor/crossbeam; `bw_telemetry::ENABLED` survives, `#[doc(hidden)]`,
# for bwbench's run header only and may have no reader here.
if grep -rnE 'feature = "telemetry"|tm_(add|inc|gauge_max|observe|event|span)!|NoopSpan|(telemetry|crate)::ENABLED' \
    crates tests examples; then
  echo "ci: the telemetry feature gate is back" >&2; exit 1
fi
if grep -nE '^telemetry *=|crossbeam' Cargo.toml crates/*/Cargo.toml; then
  echo "ci: a workspace manifest declares \`telemetry\` or names crossbeam" >&2; exit 1
fi

# Benchmark gate: bwbench (benchmark/, its own workspace) must build
# against this tree's public surface and reproduce its exact-count oracle
# in quick mode, so a change that breaks what the benchmark compiles
# against fails here rather than in the benchmark run.
cargo test --release --offline --manifest-path benchmark/Cargo.toml

# Real-engine leg: the OS-thread scheduler must satisfy the same Engine
# contract as the simulator on every SPLASH port (parity suite), and
# survive a fuzz smoke with real-engine campaigns and the sim-vs-real
# oracle cross-check. The window is small: these runs cost wall-clock
# time on real threads, not simulated cycles.
cargo test -q -p blockwatch --test engine_parity
cargo run --release --quiet --bin bw -- fuzz --seeds 25 --inject 2 \
  --engine real --real-cross-check

echo "ci: all gates passed"
