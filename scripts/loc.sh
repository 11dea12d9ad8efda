#!/usr/bin/env bash
# Lines of Rust per crate, counted two ways:
#   all   every .rs file under crates/ outside a tests/ directory — the
#         measure the tree's size has long been tracked by (`find crates
#         -name '*.rs' -not -path '*/tests/*' | xargs cat | wc -l`);
#   code  the same files without their #[cfg(test)] items (the in-file test
#         modules) and without tests.rs files: the code that ships.
# Usage: scripts/loc.sh [tree]   (default: the tree this script is in)
set -euo pipefail
scripts="$(cd "$(dirname "$0")" && pwd)"
cd "${1:-$scripts/..}"

. "$scripts/rust_code.sh"

printf '%-12s %8s %8s\n' crate all code
total_all=0
total_code=0
for dir in crates/*/; do
  dir=${dir%/}
  all=$(sources "$dir" | xargs -r cat | wc -l)
  code=$(sources "$dir" | grep -v '/tests\.rs$' | code_only | wc -l)
  printf '%-12s %8d %8d\n' "${dir#*/}" "$all" "$code"
  total_all=$((total_all + all))
  total_code=$((total_code + code))
done
printf '%-12s %8d %8d\n' total "$total_all" "$total_code"
