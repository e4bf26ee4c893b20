#!/usr/bin/env bash
# Builds the benchmark in Release and runs one workload.
#
#   benchmark/run.sh --workload W [--seed S] [--seconds N] [--trace [0|1]]
#                    [--smoke] [--results DIR]
#
# Flags take "--flag value" or "--flag=value". Prints one line per
# metric and, last, one JSON object; exits non-zero on any correctness
# failure. Build output goes to stderr. The build, the result files and
# the run's temporary files live under $CARGO_TARGET_DIR (default
# .bench_build) in the checkout.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

args=()
while [ $# -gt 0 ]; do
  case "$1" in
    --trace)
      if [ $# -gt 1 ] && { [ "$2" = 0 ] || [ "$2" = 1 ]; }; then
        args+=("--trace=$2")
        shift
      else
        args+=("--trace=1")
      fi ;;
    --smoke | --help | --*=*) args+=("$1") ;;
    --workload | --seed | --seconds | --results)
      if [ $# -lt 2 ]; then echo "run.sh: $1 needs a value" >&2; exit 2; fi
      args+=("$1=$2")
      shift ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
  shift
done

build="${CARGO_TARGET_DIR:-.bench_build}"
cmake -S benchmark -B "$build/benchmark" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build/benchmark" -j "$(nproc)" >&2

commit=unknown
if [ -e .git ]; then commit="$(git rev-parse HEAD 2>/dev/null || echo unknown)"; fi

# Simulation workloads run single-threaded; the knobs that select other
# code paths stay at their defaults.
export TVP_JOBS=1
unset TVP_COLUMNAR TVP_RNG_BUFFER TVP_SCALE TVP_SEEDS TVP_FAILPOINTS

exec "$build/benchmark/tvp_benchmark" --spec=BENCHMARK.json --inputs=benchmark \
  --workdir="$build/work-$$" --results="$build/results" --commit="$commit" \
  "${args[@]}"
