#!/usr/bin/env bash
# A/B host-time comparison of this working tree against a parent revision.
#
#   tools/host_ab.sh <parent-rev> [--pairs <n>] [--seconds <s>] [--seed <n>]
#                    [--workloads "<name> ..."] [--trace <0|1>] [--out <dir>]
#
# Unpacks <parent-rev> with `git archive` into a temporary directory and
# builds both trees' host benchmarks first. Then it runs <n> pairs (default
# 10): in each pair every workload runs once in the parent tree (side A)
# and once in this tree (side B), each with its own tree's
# bench/host/run.sh, into <dir>/A and <dir>/B. Odd pairs run A first, even
# pairs B first, so drift of the machine's speed hits both sides alike.
#
# Each run appends one line to <dir>/runs.tsv and prints it: pair, side,
# workload, host_mtuples_per_s ("failed(<code>)" when run.sh failed; its
# log is under <dir>/logs), the run's child CPU seconds (user + system),
# and the machine's steal time during the run (seconds of CPU time the
# hypervisor gave to other guests, from /proc/stat), so wall-clock gains
# can be told from a busier machine. The script ends with
# bench/host/compare.py <dir>/A <dir>/B and, per workload, the number of
# pairs in which B's host_mtuples_per_s beat A's and each side's median
# child CPU seconds and steal seconds per run.
#
# Defaults: --seconds 10, --seed 42, all four workloads, --trace 0, <dir> a
# new directory under ${TMPDIR:-/tmp}. The exit status is compare.py's.

set -euo pipefail

usage() {
  sed -n '2,26p' "${BASH_SOURCE[0]}" | sed 's/^# \{0,1\}//' >&2
  exit 2
}

[ $# -ge 1 ] || usage
rev=$1
shift
pairs=10 seconds=10 seed=42 trace=0 out=""
workloads="triton-ooc npj-ooc sanitized serve-mixed"
while [ $# -gt 0 ]; do
  case "$1" in
    --pairs) pairs=$2; shift 2 ;;
    --seconds) seconds=$2; shift 2 ;;
    --seed) seed=$2; shift 2 ;;
    --workloads) workloads=$2; shift 2 ;;
    --trace) trace=$2; shift 2 ;;
    --out) out=$2; shift 2 ;;
    *) echo "host_ab.sh: unknown argument '$1'" >&2; usage ;;
  esac
done

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
parent=$(mktemp -d "${TMPDIR:-/tmp}/host_ab_parent.XXXXXX")
trap 'rm -rf "$parent"' EXIT
git -C "$root" archive "$rev" | tar -x -C "$parent"
out=${out:-$(mktemp -d "${TMPDIR:-/tmp}/host_ab.XXXXXX")}
mkdir -p "$out/A" "$out/B" "$out/logs"
out=$(cd "$out" && pwd)

# Build both trees up front, the way run.sh does, so that no timed run
# pays for a build.
for tree in "$parent" "$root"; do
  build="$tree/.bench_build/host"
  mkdir -p "$build"
  if ! { cmake -S "$tree/bench/host" -B "$build" -DCMAKE_BUILD_TYPE=Release &&
         cmake --build "$build" -j 4; } > "$build/build.log" 2>&1; then
    cat "$build/build.log" >&2
    echo "host_ab.sh: build failed in $tree" >&2
    exit 2
  fi
done

# Machine-wide steal time so far, in clock ticks (the 8th value of the
# aggregate "cpu" line of /proc/stat).
steal_ticks() { awk '$1 == "cpu" { print $9; exit }' /proc/stat; }
clk_tck=$(getconf CLK_TCK)

# run_one <pair> <side> <workload>
run_one() {
  local pair=$1 side=$2 workload=$3 tree=$root code=0 cpu mtuples steal
  [ "$side" = A ] && tree=$parent
  local log="$out/logs/$pair-$side-$workload.log"
  local TIMEFORMAT='%U %S'
  local steal_before
  steal_before=$(steal_ticks)
  { time bash "$tree/bench/host/run.sh" --workload "$workload" \
      --seed "$seed" --seconds "$seconds" --trace "$trace" \
      --out "$out/$side" > "$log" 2>&1; } 2> "$log.time" || code=$?
  steal=$(awk -v a="$steal_before" -v b="$(steal_ticks)" -v hz="$clk_tck" \
    'BEGIN { printf "%.2f", (b - a) / hz }')
  cpu=$(awk '{ printf "%.2f", $1 + $2 }' "$log.time")
  mtuples=$(tail -n 1 "$log" | python3 -c '
import json, sys
m = json.load(sys.stdin)["metrics"].get("host_mtuples_per_s")
print("%.3f" % m["value"] if m else "-")' 2> /dev/null) || mtuples="-"
  [ "$code" = 0 ] || mtuples="failed($code)"
  printf '%s\t%s\t%s\t%s\t%s\t%s\n' "$pair" "$side" "$workload" \
    "$mtuples" "$cpu" "$steal" | tee -a "$out/runs.tsv"
}

printf 'pair\tside\tworkload\thost_mtuples_per_s\tcpu_s\tsteal_s\n' |
  tee "$out/runs.tsv"
for pair in $(seq 1 "$pairs"); do
  order="A B"
  [ $((pair % 2)) = 0 ] && order="B A"
  for workload in $workloads; do
    for side in $order; do
      run_one "$pair" "$side" "$workload"
    done
  done
done

status=0
python3 "$root/bench/host/compare.py" "$out/A" "$out/B" || status=$?
python3 - "$out/runs.tsv" <<'EOF'
import collections, csv, statistics, sys

runs = collections.defaultdict(dict)
cpu = collections.defaultdict(list)
steal = collections.defaultdict(list)
with open(sys.argv[1]) as f:
    for row in csv.DictReader(f, delimiter="\t"):
        runs[(row["workload"], row["pair"])][row["side"]] = row
        cpu[(row["workload"], row["side"])].append(float(row["cpu_s"]))
        steal[(row["workload"], row["side"])].append(float(row["steal_s"]))
won = collections.Counter()
total = collections.Counter()
for (workload, _), sides in runs.items():
    try:
        a, b = (float(sides[side]["host_mtuples_per_s"]) for side in "AB")
    except (KeyError, ValueError):  # a side missing, failed or traced
        continue
    total[workload] += 1
    won[workload] += b > a
print()
for workload in total:
    ca, cb = (statistics.median(cpu[(workload, side)]) for side in "AB")
    sa, sb = (statistics.median(steal[(workload, side)]) for side in "AB")
    print(f"{workload}: B won {won[workload]}/{total[workload]} pairs "
          f"on host_mtuples_per_s; median cpu_s A {ca:.2f}, B {cb:.2f}; "
          f"median steal_s A {sa:.2f}, B {sb:.2f}")
EOF
echo "results in $out"
exit $status
