#!/usr/bin/env bash
# Builds the replay benchmark in Release and measures corpus
# record/replay throughput against workload generation.
#
#   scripts/bench_replay.sh [--smoke] [extra replay_bench flags...]
#
# --smoke   CI-sized run (500k records instead of 2M) — same shape,
#           seconds not minutes. All other flags are forwarded to
#           replay_bench (--acts=N, --seed=S, --min-speedup=X, ...).
#
# Writes BENCH_replay.json into the repo root and exits non-zero when
# shared (steady-state) replay through span_lanes is not at least 5x
# faster than workload generation, or when a record that next_batch
# rebuilds differs from the generated one. Uses
# the dedicated build-release/ tree so a default RelWithDebInfo build/
# is untouched.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release \
      -DTVP_BUILD_TESTS=OFF -DTVP_BUILD_EXAMPLES=OFF >/dev/null
cmake --build build-release -j --target replay_bench >/dev/null

exec ./build-release/bench/replay_bench --out=BENCH_replay.json "$@"
