# Sourced by loc.sh and unwraps.sh.

# sources <dir>: the .rs files under <dir> outside a tests/ directory.
sources() { find "$1" -name '*.rs' -not -path '*/tests/*' | sort; }

# code_only: prints the lines of the Rust files named on stdin that are
# outside #[cfg(test)] items: the item after the attribute is skipped to its
# closing brace (or its `;`). Braces in string and char literals on a line
# are not counted.
code_only() {
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
    { print }
  '
}
