#!/usr/bin/env bash
# Runs the full benchmark twice on the same commit with the same seed and
# compares the two sets of results against the benchmark's own bounds:
# every exact metric must be identical, every wall-clock metric within its
# bound. Exits nonzero otherwise.
#
#   benchmark/repeat.sh [--seed N] [--seconds S] [--traced] [--quick]
#
# Run it from the repository root. Arguments are passed on to bwbench. Two
# full passes take about two minutes each; `--quick` runs are too short for
# their timed metrics to agree.
set -euo pipefail

cd "$(dirname "$0")/.."
out=benchmark/out
mkdir -p "$out"
rm -f "$out/repeat-1.tsv" "$out/repeat-2.tsv"

run() {
    cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- "$@"
}

for pass in 1 2; do
    echo "== pass $pass"
    run "$@" --tsv "$out/repeat-$pass.tsv"
done

echo "== comparison"
run --compare "$out/repeat-1.tsv" "$out/repeat-2.tsv"
