#!/usr/bin/env bash
# Prints the code lines per crate (non-test, non-comment) of the
# checkout at the given root (default: the current directory) as a
# Markdown table. Everything from a file's first `#[cfg(test)]` on is
# test code. CI appends the table to its step summary; to compare two
# commits, run it on a checkout of each:
#
#   scripts/code-lines.sh              # this checkout
#   scripts/code-lines.sh ../parent    # another checkout
set -euo pipefail
cd "${1:-.}"
echo "### Code lines per crate (non-test, non-comment)"
echo "| crate | lines |"
echo "|---|---:|"
total=0
for c in crates/*/; do
  n=0
  for f in $(find "$c" -name '*.rs' -not -path '*/tests/*' -not -path '*/benches/*'); do
    n=$((n + $(sed '/^#\[cfg(test)\]/,$d' "$f" | grep -cvE '^\s*(//|$)' || true)))
  done
  echo "| $(basename "$c") | $n |"
  total=$((total + n))
done
echo "| **total** | **$total** |"
