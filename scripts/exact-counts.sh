#!/usr/bin/env bash
# Prints the exact per-result counts of the benchmark's --smoke run —
# each workload's wire_bytes_per_result and frames_per_result — as a
# Markdown table. Both are seeded and exact: they move only if the
# protocol did. To compare two commits, run it on a checkout of each:
#
#   scripts/exact-counts.sh              # this checkout
#   scripts/exact-counts.sh ../parent    # another checkout
#
# With --check FILE it also compares the table with FILE and exits
# non-zero, printing the difference, when any count differs. CI checks
# against the pinned scripts/exact-counts.expected, so a change to the
# wire updates that file in the same diff:
#
#   scripts/exact-counts.sh --check scripts/exact-counts.expected
set -euo pipefail
expected=""
if [[ "${1:-}" == "--check" ]]; then
  expected=$(realpath "${2:?--check needs the file of pinned counts}")
  shift 2
fi
cd "${1:-.}"
smoke=$(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --smoke)
table=$(
  echo "### Exact counts per result (benchmark --smoke)"
  echo "| workload | wire_bytes_per_result | frames_per_result |"
  echo "|---|---:|---:|"
  awk '
    function trim(v) { sub(/\.?0+$/, "", v); return v }
    /^[a-z0-9_]+ \(/ { workload = $1 }
    $1 == "wire_bytes_per_result" { bytes = trim($2) }
    $1 == "frames_per_result" { print "| " workload " | " bytes " | " trim($2) " |" }
  ' <<<"$smoke"
)
echo "$table"
if [[ -n "$expected" ]] && ! diff "$expected" <(echo "$table") >&2; then
  echo "exact counts differ from $expected (< pinned, > measured)" >&2
  exit 1
fi
