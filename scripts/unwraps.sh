#!/usr/bin/env bash
# `unwrap(` and `expect(` call sites per crate in the code that ships: the
# files and lines loc.sh's `code` column counts (outside tests/ directories,
# #[cfg(test)] items and tests.rs files). A parser's own `expect` method
# returns an error and never panics: its calls (`self.expect(Tok::…)?` in
# the frontend, `p.expect(b'{')?` in the JSON reader) and its definition
# are left out.
# Usage: scripts/unwraps.sh [tree]   (default: the tree this script is in)
set -euo pipefail
scripts="$(cd "$(dirname "$0")" && pwd)"
cd "${1:-$scripts/..}"

. "$scripts/rust_code.sh"

printf '%-12s %8s\n' crate sites
total=0
for dir in crates/*/; do
  dir=${dir%/}
  sites=$(sources "$dir" | grep -v '/tests\.rs$' | code_only \
    | grep -v 'fn expect(' | sed -E "s/expect\((Tok::|b')//g" \
    | { grep -oE '\b(unwrap|expect)\(' || true; } | wc -l)
  printf '%-12s %8d\n' "${dir#*/}" "$sites"
  total=$((total + sites))
done
printf '%-12s %8d\n' total "$total"
