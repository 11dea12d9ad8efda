#!/usr/bin/env bash
# Lines of Rust per crate, counted two ways:
#   all   every .rs file outside a tests/ directory — the measure the
#         tree's size has long been tracked by (`find crates vendor -name
#         '*.rs' -not -path '*/tests/*' | xargs cat | wc -l`);
#   code  the same files without their #[cfg(test)] items (the in-file test
#         modules) and without tests.rs files: the code that ships.
# Usage: scripts/loc.sh [tree]   (default: the tree this script is in)
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

# Lines of the files named on stdin outside #[cfg(test)] items: the item
# after the attribute is skipped to its closing brace (or its `;`). Braces
# in string and char literals on a line are not counted.
code_lines() {
  xargs -r awk '
    FNR == 1 { skip = 0; pending = 0; depth = 0 }
    function braces(line) {
      gsub(/"([^"\\]|\\.)*"/, "", line)
      gsub(/'"'"'([^'"'"'\\]|\\.)'"'"'/, "", line)
      return gsub(/\{/, "{", line) - gsub(/\}/, "}", line)
    }
    skip { depth += braces($0); if (depth <= 0) skip = 0; next }
    pending { pending = 0; depth = braces($0); if (depth > 0) skip = 1; next }
    /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ { pending = 1; next }
    { n++ }
    END { print n + 0 }
  ' | awk '{ n += $1 } END { print n + 0 }'
}

sources() { find "$1" -name '*.rs' -not -path '*/tests/*' | sort; }

printf '%-12s %8s %8s\n' crate all code
total_all=0
total_code=0
for dir in crates/*/ vendor/*/; do
  dir=${dir%/}
  all=$(sources "$dir" | xargs -r cat | wc -l)
  code=$(sources "$dir" | grep -v '/tests\.rs$' | code_lines)
  printf '%-12s %8d %8d\n' "${dir#*/}" "$all" "$code"
  total_all=$((total_all + all))
  total_code=$((total_code + code))
done
printf '%-12s %8d %8d\n' total "$total_all" "$total_code"
