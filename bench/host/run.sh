#!/usr/bin/env bash
# Builds the standalone Release host-time benchmark and runs it.
#
#   bench/host/run.sh                  every workload, each in its own process
#   bench/host/run.sh --smoke          every workload at a small scale, traced,
#                                      all oracles on (a quick harness check)
#   bench/host/run.sh --workload <name> [--seed <n>] [--seconds <s>]
#                     [--trace <0|1>]  one workload; the last stdout line is
#                                      its JSON summary
#
# Common options: --out <dir> (result files; default .bench_build/host/results),
# --seconds <s> (measured phase per workload, default 10), --seed <n>
# (default 42), --trace <0|1> (1 = the traced run: per-layer metrics and a
# Chrome trace file beside the result).
#
# Every run uses --threads=3 with TRITON_SANITIZER, TRITON_FASTPATH and
# TRITON_THREADS unset, so it always measures the default program. Each run
# writes one JSON result file; compare two directories of them with
# bench/host/compare.py. Exits non-zero when the build fails, a workload
# fails an output check, or the binary was built without NDEBUG (exit 2).

set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(cd "$here/../.." && pwd)
build="$root/.bench_build/host"
workloads=(triton-ooc npj-ooc sanitized serve-mixed)

workload="" seed=42 seconds=10 trace=0 scale=256 out="" smoke=0
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) workload=$2; shift 2 ;;
    --seed) seed=$2; shift 2 ;;
    --seconds) seconds=$2; shift 2 ;;
    --trace) trace=$2; shift 2 ;;
    --out) out=$2; shift 2 ;;
    --smoke) smoke=1; shift ;;
    *) echo "run.sh: unknown argument '$1'" >&2; exit 2 ;;
  esac
done
if [ "$smoke" = 1 ]; then
  # 2048 M tuples is the Triton join's out-of-core size; below scale 512 its
  # pipeline reservations no longer fit the shrunken GPU memory.
  scale=512 seconds=0.2 trace=1
fi

if [ ! -f "$root/src/CMakeLists.txt" ]; then
  echo "run.sh: library sources not found under $root/src" >&2
  exit 2
fi

unset TRITON_SANITIZER TRITON_FASTPATH TRITON_THREADS

mkdir -p "$build"
generator=()
if [ ! -f "$build/CMakeCache.txt" ] && command -v ninja > /dev/null; then
  generator=(-G Ninja)
fi
if ! { cmake -S "$here" -B "$build" "${generator[@]}" \
         -DCMAKE_BUILD_TYPE=Release &&
       cmake --build "$build" -j 4; } > "$build/build.log" 2>&1; then
  cat "$build/build.log" >&2
  echo "run.sh: build failed" >&2
  exit 2
fi

out=${out:-$build/results}
mkdir -p "$out"

run_one() {
  local name=$1 stamp args
  stamp="$name-seed$seed-$(date +%Y%m%d-%H%M%S)-$$"
  args=(--workload="$name" --seed="$seed" --seconds="$seconds" --threads=3
        --scale="$scale" --out="$out/$stamp.json")
  if [ "$trace" = 1 ]; then
    args+=(--trace="$out/$stamp.trace.json")
  fi
  "$build/bench_host" "${args[@]}"
}

if [ -n "$workload" ]; then
  run_one "$workload"
  exit $?
fi

status=0
for name in "${workloads[@]}"; do
  code=0
  run_one "$name" || code=$?
  if [ "$code" != 0 ]; then
    echo "run.sh: $name exited with $code" >&2
    [ "$code" = 2 ] && exit 2
    status=1
  fi
done
echo "results in $out"
exit $status
