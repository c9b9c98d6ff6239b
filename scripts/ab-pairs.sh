#!/usr/bin/env bash
# Runs alternating parent/change pairs of one benchmark workload and
# prints them as Markdown: one row per seed with each side's
# request_p10_ms, setup_s and peak_rss_mb, then per metric each side's
# median and quartiles and the change/parent ratio of the medians, and
# in how many pairs the change read the lower request_p10_ms.
#
#   scripts/ab-pairs.sh <parent-checkout> <workload> <pairs> <first-seed>
#   scripts/ab-pairs.sh ../parent fleet_sim_tcp 10 71
#
# The change is the checkout this script lives in. Both benchmarks are
# built first, each into its own checkout's benchmark/target; nothing
# under benchmark/ is edited. Pair i runs seed <first-seed> + i on both
# sides at the benchmark's own run length, and which side runs first
# alternates from pair to pair. Each run's full output is kept in a
# temporary directory whose path is printed at the end.
set -euo pipefail
if [ $# -ne 4 ]; then
  echo "usage: $0 <parent-checkout> <workload> <pairs> <first-seed>" >&2
  exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$(dirname "$0")/.." && pwd)
workload=$2
pairs=$3
first_seed=$4
for dir in "$parent" "$change"; do
  cargo build --release --offline --quiet --manifest-path "$dir/benchmark/Cargo.toml"
done
logs=$(mktemp -d)

# run <side> <seed>: one run; prints its result line (the last line).
run() {
  local dir=$parent
  [ "$1" = change ] && dir=$change
  (cd "$dir" && ./benchmark/target/release/ppcs-benchmark \
    --workload "$workload" --seed "$2" --trace 0) >"$logs/$1_$2.txt"
  tail -n 1 "$logs/$1_$2.txt"
}

# metric <name> <result line>: the metric's value.
metric() {
  grep -o "\"$1\":{\"value\":[^,}]*" <<<"$2" | cut -d: -f3
}

names=(request_p10_ms setup_s peak_rss_mb)
declare -A values
failed=(0 0)
echo "| seed | first | parent p10 ms | change p10 ms | parent setup s | change setup s | parent RSS MiB | change RSS MiB |"
echo "|---:|---|---:|---:|---:|---:|---:|---:|"
for ((i = 0; i < pairs; i++)); do
  seed=$((first_seed + i))
  order=(parent change)
  ((i % 2 == 1)) && order=(change parent)
  declare -A line
  for side in "${order[@]}"; do
    line[$side]=$(run "$side" "$seed")
  done
  row="| $seed | ${order[0]} |"
  for name in "${names[@]}"; do
    for side in parent change; do
      v=$(metric "$name" "${line[$side]}")
      values[$name,$side]+="$v "
      row+=" $(printf '%.4g' "$v") |"
    done
  done
  echo "$row"
  for k in 0 1; do
    side=(parent change)
    f=$(grep -o '"failed":[0-9]*' <<<"${line[${side[$k]}]}" | cut -d: -f2)
    failed[$k]=$((failed[k] + f))
  done
done

# stats <values>: median, first and third quartile (linear
# interpolation between the order statistics).
stats() {
  tr ' ' '\n' <<<"$1" | grep . | sort -g | awk '
    { v[NR] = $1 }
    function q(p,  h, lo) {
      h = (NR - 1) * p + 1; lo = int(h)
      return lo >= NR ? v[NR] : v[lo] + (h - lo) * (v[lo + 1] - v[lo])
    }
    END { printf "%.4g %.4g %.4g\n", q(0.5), q(0.25), q(0.75) }'
}

echo
echo "| metric | parent median (q1 – q3) | change median (q1 – q3) | change / parent |"
echo "|---|---:|---:|---:|"
for name in "${names[@]}"; do
  read -r pm pq1 pq3 <<<"$(stats "${values[$name,parent]}")"
  read -r cm cq1 cq3 <<<"$(stats "${values[$name,change]}")"
  ratio=$(awk -v c="$cm" -v p="$pm" 'BEGIN { printf "%.3f", c / p }')
  echo "| $name | $pm ($pq1 – $pq3) | $cm ($cq1 – $cq3) | $ratio |"
done

read -ra p10_parent <<<"${values[request_p10_ms,parent]}"
read -ra p10_change <<<"${values[request_p10_ms,change]}"
better=0
for ((i = 0; i < pairs; i++)); do
  if awk -v c="${p10_change[i]}" -v p="${p10_parent[i]}" 'BEGIN { exit !(c < p) }'; then
    better=$((better + 1))
  fi
done
echo
echo "request_p10_ms: the change is better in $better of $pairs pairs."
echo "Results that failed the oracle check: parent ${failed[0]}, change ${failed[1]}."
echo "Run outputs: $logs"
