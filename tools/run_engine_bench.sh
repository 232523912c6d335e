#!/usr/bin/env bash
# Runs the engine microbenchmarks (bench_engine_micro) and writes
# google-benchmark JSON, by default the committed BENCH_engine.json
# (docs/engine.md says how to read the numbers). tools/ab.sh runs the
# same list against another commit in alternating pairs.
#
# Usage:
#   tools/run_engine_bench.sh                  # default: build/ -> BENCH_engine.json
#                                              # (refused above load nproc/2
#                                              #  or from a non-Release tree)
#   BUILD_DIR=out OUT=/tmp/b.json REPS=5 tools/run_engine_bench.sh
#   FILTER='SchedulerEventThroughput' tools/run_engine_bench.sh
#
# FILTER (a --benchmark_filter regex) replaces the default benchmark list
# below.
#
# Build the benchmark binary first (Release for stable numbers):
#   cmake -B build -S . -DCMAKE_BUILD_TYPE=Release && cmake --build build -j
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"
REPS="${REPS:-5}"
OUT="${OUT:-BENCH_engine.json}"
FILTER="${FILTER:-SchedulerEventThroughput|SchedulerCancelChurn|SchedulerResumeLaterHops|SchedulerDistinctTimes|SchedulerShortDelayServing|FairShareManyJobs|ParallelSweep|RollupRecord|SketchMergeMany}"

BIN="${BUILD_DIR}/bench/bench_engine_micro"
if [[ ! -x "${BIN}" ]]; then
  echo "error: ${BIN} not found; build it first:" >&2
  echo "  cmake -B ${BUILD_DIR} -S . -DCMAKE_BUILD_TYPE=Release && cmake --build ${BUILD_DIR} -j" >&2
  exit 1
fi

# The host's state rides along in the JSON context. Writing the
# committed baseline follows perfbench's --baseline rule: refused when
# the 1-minute load average exceeds nproc/2 (a busy host records
# interference, not the code) or when the tree is not a Release build.
# Runs to other files (tools/ab.sh) are never refused.
LOAD1="$(cut -d' ' -f1 /proc/loadavg)"
NPROC="$(nproc)"
BUILD_TYPE="$(sed -n 's/^CMAKE_BUILD_TYPE:STRING=//p' \
  "${BUILD_DIR}/CMakeCache.txt" 2>/dev/null || true)"
if [[ "$(realpath -m "${OUT}")" == "$(realpath -m BENCH_engine.json)" ]]; then
  if awk -v l="${LOAD1}" -v n="${NPROC}" 'BEGIN { exit !(l > n / 2) }'; then
    echo "error: refusing a baseline: load average ${LOAD1} > nproc/2 (nproc ${NPROC})" >&2
    exit 3
  fi
  if [[ "${BUILD_TYPE}" != "Release" ]]; then
    echo "error: refusing a baseline from a '${BUILD_TYPE:-default}' build;" \
      "configure ${BUILD_DIR} with -DCMAKE_BUILD_TYPE=Release" >&2
    exit 3
  fi
fi

# Raw repetitions (not just aggregates) go into the JSON so consumers
# can use the best-of-REPS repetition: interference on a shared host
# only ever slows a repetition down, so the per-benchmark max is the
# most stable estimate of what the code can actually do (tools/ab.sh
# compares on it).
"${BIN}" \
  --benchmark_context="load1=${LOAD1},nproc=${NPROC},wimpy_build_type=${BUILD_TYPE:-default}" \
  --benchmark_filter="${FILTER}" \
  --benchmark_repetitions="${REPS}" \
  --benchmark_report_aggregates_only=false \
  --benchmark_out="${OUT}" \
  --benchmark_out_format=json

echo "wrote ${OUT}"
