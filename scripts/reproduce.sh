#!/usr/bin/env bash
# Artifact-evaluation entry point: build everything, run the test suite,
# then regenerate every table/figure into results/.
#
#   scripts/reproduce.sh [--full] [--seeds N]
#
# --full      paper-scale runs (16 banks, 6 refresh windows; slower)
# --seeds N   seed count for the mu/sigma columns (default 5)
set -euo pipefail
cd "$(dirname "$0")/.."

SEEDS=5
for arg in "$@"; do
  case "$arg" in
    --full) export TVP_SCALE=full ;;
    --seeds) ;;  # value handled below
    *) if [[ "${prev:-}" == "--seeds" ]]; then SEEDS="$arg"; fi ;;
  esac
  prev="$arg"
done
export TVP_SEEDS="$SEEDS"

echo "== configure + build =="
cmake -B build -G Ninja >/dev/null
cmake --build build

echo "== test suite =="
ctest --test-dir build --output-on-failure

echo "== reproduction benches (TVP_SCALE=${TVP_SCALE:-default}, TVP_SEEDS=$TVP_SEEDS) =="
mkdir -p results
for bench in build/bench/*; do
  [[ -x "$bench" && -f "$bench" ]] || continue
  name="$(basename "$bench")"
  echo "-- $name"
  (cd results && "../$bench") | tee "results/$name.txt"
done

echo "== done: see results/ and EXPERIMENTS.md =="
