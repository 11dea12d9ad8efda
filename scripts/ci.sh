#!/usr/bin/env bash
# The repo's CI gate, one shell function per leg. `scripts/ci.sh` runs every
# leg in order; `scripts/ci.sh <leg>...` runs the named ones, which is all a
# job of .github/workflows/ci.yml does — a leg is defined once, here.
# `ledger` is part of `test` and not in `legs`; `scripts/ci.sh ledger` runs
# it alone.
# What a leg writes lands in $CI_OUT (default: a temp directory, removed).
set -euo pipefail
cd "$(dirname "$0")/.."

legs=(test difference fuzz-smoke forensics shards sampled traced traced-vs-untraced
      leftover-guard schema-guard bwir bwbench exhibits real-engine)

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
# builds, so the complete ones run here. The allocation budgets run first,
# as the ledger (`leg_ledger` below). Then the full sweep of
# `crates/fault/tests/invisible.rs` (thinned in debug builds):
# condition-bit-flip campaigns whose forks stop at a fault that changes
# nothing, against plan-by-plan replays (~45 s in release).
# Last, the front-end's properties with the full one-byte mutation sweep of
# the seven ports' sources through `compile` (every 13th byte in debug
# builds): about 94,500 mutants, none of which may panic.
leg_test() {
  cargo build --release --workspace
  leg_ledger
  cargo test -q --workspace
  cargo clippy --workspace --all-targets -- -D warnings
  cargo test --release -q -p bw-vm
  cargo test --release -q -p bw-fault --test invisible
  cargo test --release -q -p bw-ir --test proptest_frontend
}

# The allocation ledger: the seven counting-allocator gates (DESIGN §7) in
# the release profile, one `ledger: <name> <value> (budget <budget>)` line
# per budget, sorted by name. A gate prints its line, then asserts it. Part
# of `test`; `scripts/ci.sh ledger` runs it alone, so a change can quote the
# whole ledger before and after.
leg_ledger() {
  cargo test --release -q -p bw-ir -p bw-gen -p bw-monitor -p bw-vm -p blockwatch \
      --test alloc_budget --test prepare_alloc_budget --test trace_alloc_budget \
      --test campaign_cost -- --nocapture \
    | grep -o 'ledger: .*' | sort
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

# Sharding the monitor ingest never changes a verdict: the simulator's
# output at 4 shards must be the unsharded output, byte for byte, and a
# sharded run on the real engine (where the shards are threads) must leave
# per-shard health counters in its trace for `bw stats`.
# Forks that check only what differs from the golden run against forks
# that check their whole tail, every plan of the sweep (debug builds take
# every eighth): the seven ports at `Test`, both fault models, 4 and 32
# threads, and 200 generated modules; then the monitor-level sweep.
leg_difference() {
  cargo test --release -q -p bw-vm --test difference
  cargo test --release -q -p bw-monitor --test difference
}

leg_shards() {
  bw run splash:fft > "$out/run-s1.txt"
  bw run splash:fft --monitor-shards 4 > "$out/run-s4.txt"
  diff "$out/run-s1.txt" "$out/run-s4.txt"
  bw run splash:fft --engine real --monitor-shards 4 --telemetry "$out/real-s4.jsonl" >/dev/null
  bw stats "$out/real-s4.jsonl" | grep -q "monitor shards:"
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
# iteration cap, no `converged` flag and no `NoFixpoint` refusal. A
# campaign runs every injection it plans (DESIGN §5.1): no early abort, no
# golden-run copies on `CampaignResult` and no engine-generic
# false-positive sweep. Faults are injected on the simulator only (DESIGN
# §5.1): no engine knob on a campaign, the fuzzer or the golden cache, no
# hooked run on the `Engine` trait, and a hook that need not be `Sync`.
# And `unsafe` code in `crates/*/src` stays where it is listed: the SPSC
# ring (`spsc.rs`) and the instance-index prefetch (`table.rs`, DESIGN
# §4.3). The simulator hands its inline monitor batches (DESIGN §4.3,
# "Ingest"): `sim.rs` never calls the per-event `process(`, which would
# jump an event ahead of the ones held back before it. A campaign is one
# program (DESIGN §5.1): no cross-program batch or chunked fuzz injection,
# and no `image` field on the `injection` and `violation` records. A
# transfer makes its edge's copies one by one, in the order the link stage
# gave them (DESIGN §4.5): no value buffer for a parallel phi copy. The
# liveness table of branch condition data is a condition-flip campaign's
# (DESIGN §5.1, "Invisible condition flips"): preparing an image
# (`image.rs`) never builds it. The workspace has no external crate
# (DESIGN §3): no `vendor/` stub, and no manifest or lockfile names
# proptest; the property tests are plain fixed-seed loops (DESIGN §7). The
# fuzz oracle is one table of legs with one comparator (DESIGN §11): no
# per-leg `diff_` function, one entry point per job (no `_cross` or
# `_recorded` twin), and a campaign stage is measured once (DESIGN §10), so
# the RAII stage timer stays gone. The allocation gates share one counting
# allocator (DESIGN §7): no `GlobalAlloc` impl or `#[global_allocator]`
# outside tests/support/counting.rs. The paper's ten exhibits are `bw`
# commands (DESIGN §3, §5): no `crates/bench`, no `bw-bench` crate with a
# binary per exhibit, and no second command table (`EXHIBITS`), which is
# what gave `Cli` a usage prefix and `Cli::main` a fixed command. The
# real engine detects deadlock by counting (DESIGN §4.5): no wait is timed.
# A sender waits on a full queue and never drops an event (DESIGN §13): no
# drop sink, spin budget, drop counter or drop warning.
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
  if [ -e vendor ] || grep -n proptest Cargo.toml crates/*/Cargo.toml Cargo.lock; then
    echo "ci: vendor/ or proptest is back" >&2; return 1
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
  if grep -rnE 'abort_after_sdc|abort_on_detection|\.aborted\b|golden_outputs_len|false_positive_runs_on' \
      crates tests examples; then
    echo "ci: campaign early abort or a deleted CampaignResult field is back" >&2; return 1
  fi
  if grep -rnE 'golden_on|BranchHook: Sync|fn deterministic\(|\.engine\(|config\.engine\b' \
      crates tests examples \
    || grep -n AtomicU64 crates/fault/src/injector.rs; then
    echo "ci: fault injection chooses an engine again" >&2; return 1
  fi
  if grep -rnE '\bunsafe +(\{|fn|impl|trait|extern)' crates/*/src \
    | grep -vE '^crates/monitor/src/spsc\.rs:|^crates/monitor/src/table\.rs:[0-9]+: +unsafe \{ _mm_prefetch::'; then
    echo "ci: \`unsafe\` outside the SPSC ring and the index prefetch" >&2; return 1
  fi
  if grep -nE '(\.|::)process\(' crates/vm/src/sim.rs; then
    echo "ci: the simulator calls the monitor per event outside its batch drain" >&2; return 1
  fi
  if grep -rnE 'CampaignBatch|BatchResult|INJECT_CHUNK' crates tests examples \
    || grep -n '"image"' crates/fault/src/campaign.rs crates/monitor/src/provenance.rs; then
    echo "ci: the cross-program campaign batch or its \`image\` trace tag is back" >&2; return 1
  fi
  if grep -rnE 'phi_buf|in_flight' crates/vm/src; then
    echo "ci: the stepper copies phis through a buffer again; the link stage orders them" >&2; return 1
  fi
  if grep -niE 'ConditionLiveness|liveness' crates/vm/src/image.rs; then
    echo "ci: preparing builds the condition-liveness table; only a condition-flip campaign needs it" >&2; return 1
  fi
  if grep -rnE 'check_image_cross|check_module_cross|run_fuzz_recorded|Span::enter' \
      crates tests examples \
    || grep -n 'fn diff_' crates/gen/src/oracle.rs; then
    echo "ci: a second oracle entry point, a per-leg comparator or the stage timer is back" >&2; return 1
  fi
  if grep -rnE 'impl +([A-Za-z_]+::)*GlobalAlloc\b|#\[global_allocator\]' crates tests examples \
    | grep -v '^tests/support/counting\.rs:'; then
    echo "ci: a second counting allocator; the gates share tests/support/counting.rs" >&2; return 1
  fi
  if [ -e crates/bench ] || grep -rnE 'bw_bench|bw-bench|EXHIBITS' crates tests examples; then
    echo "ci: the exhibit crate or its second command table is back; exhibits are \`bw\` commands" >&2
    return 1
  fi
  if grep -rnE 'watchdog|wait_timeout|deadline' crates/vm/src; then
    echo "ci: the real engine times its waits again; it detects deadlock by counting" >&2; return 1
  fi
  if grep -rnE 'drop_sink|spin_budget|record_dropped|warn_dropped' crates; then
    echo "ci: senders drop events again, or a layer counts the drops; a sender waits on a full queue" >&2
    return 1
  fi
  if grep -nF '0..self.table.rows()' crates/monitor/src/monitor.rs; then
    echo "ci: the flush walks every instance row again; it checks only the instances that can fail" >&2
    return 1
  fi
  if grep -rnE 'RealTracer|ThreadTrace' crates/vm/src \
    || grep -rnE 'phase_start|steps_base|hold_since' crates/*/src | grep -v '^crates/vm/src/span\.rs:'; then
    echo "ci: an engine keeps its own lane bookkeeping again; both engines share \`Lanes\` in span.rs" >&2
    return 1
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

# The paper's exhibits must reproduce byte for byte: each `bw` exhibit
# command is run and diffed against its archived text in results/ (about
# four minutes in release; figure8 and figure9 at 300 injections a cell take
# two of them). EXPERIMENTS.md's regeneration loop passes the same arguments.
leg_exhibits() {
  local spec name args
  for spec in table3 table4 table5 figure6 figure7 "figure8 300" "figure9 300" \
      false_positives duplication "ablations 200"; do
    read -r name args <<<"$spec"
    # shellcheck disable=SC2086  # $args is an argument list
    bw "$name" $args > "$out/$name.txt"
    diff "$out/$name.txt" "results/$name.txt"
  done
}

# The OS-thread scheduler must satisfy the same Engine contract as the
# simulator on every SPLASH port and reach its verdicts on a program with a
# failing check (parity suite, in release: its 32-thread repeats are thinned
# in debug builds), and agree with it on fuzzed programs (the sim-vs-real
# oracle cross-check). Faults are injected on the simulator
# only; fuzz-smoke runs the injection stage. The window is small: these
# runs cost wall-clock time on real threads. Last, water at reference size
# on 32 threads (~3 s on 2 cores): a long run with many parked waiters and
# full queues, which must complete however slow the host, with every one of
# the simulator's 2,999,780 events (`fig6.water-nsquared.t32.on.events`)
# checked and none flagged.
leg_real_engine() {
  cargo test --release -q -p blockwatch --test engine_parity
  bw fuzz --seeds 25 --real-cross-check
  bw run splash:water --size reference --engine real --threads 32 | tee "$out/water32.txt"
  grep -qx 'outcome: Completed (real engine)' "$out/water32.txt" \
    || { echo "ci: the 32-thread water run did not complete" >&2; return 1; }
  grep -qx 'events processed: 2999780 | violations: 0' "$out/water32.txt" \
    || { echo "ci: the 32-thread water run did not check every event, or flagged one" >&2; return 1; }
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
