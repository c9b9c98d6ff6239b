#!/usr/bin/env bash
# Prints the exact per-result counts of the benchmark's --smoke run —
# each workload's wire_bytes_per_result and frames_per_result — as a
# Markdown table. Both are seeded and exact: they move only if the
# protocol did. CI appends the table to its step summary; to compare
# two commits, run it on a checkout of each:
#
#   scripts/exact-counts.sh              # this checkout
#   scripts/exact-counts.sh ../parent    # another checkout
set -euo pipefail
cd "${1:-.}"
smoke=$(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --smoke)
echo "### Exact counts per result (benchmark --smoke)"
echo "| workload | wire_bytes_per_result | frames_per_result |"
echo "|---|---:|---:|"
awk '
  function trim(v) { sub(/\.?0+$/, "", v); return v }
  /^[a-z0-9_]+ \(/ { workload = $1 }
  $1 == "wire_bytes_per_result" { bytes = trim($2) }
  $1 == "frames_per_result" { print "| " workload " | " bytes " | " trim($2) " |" }
' <<<"$smoke"
