#!/usr/bin/env bash
# Runs a benchmark suite and writes google-benchmark JSON.
#
#   SUITE=engine (default): engine microbenchmarks -> BENCH_engine.json
#                           (see docs/engine.md for how to read the numbers)
#   SUITE=macro:            end-to-end replication bench (bench_scale_macro,
#                           whole-run throughput + peak RSS at 10k/100k
#                           connections) -> BENCH_macro.json (docs/scale.md)
#   SUITE=shard:            sharded scale-out sweep (bench_shard_scaleout,
#                           simulated goodput/p99/rebalance over replication
#                           x oversubscription) -> BENCH_shard.json
#                           (docs/sharding.md; deterministic, REPS unused)
#   SUITE=slo:              open-loop SLO sweep (bench_slo_openloop, arrival
#                           rate x burstiness x SLO, under-SLO goodput and
#                           slo_goodput_per_joule) -> BENCH_slo.json
#                           (docs/openloop.md; deterministic, REPS unused)
#
# Usage:
#   tools/run_engine_bench.sh                  # default: build/ -> BENCH_engine.json
#                                              # (refused above load nproc/2
#                                              #  or from a non-Release tree)
#   BUILD_DIR=out OUT=/tmp/b.json REPS=5 tools/run_engine_bench.sh
#   FILTER='SchedulerEventThroughput' tools/run_engine_bench.sh
#   SUITE=macro REPS=3 tools/run_engine_bench.sh
#
# Build the benchmark binaries first (Release recommended for stable numbers):
#   cmake -B build -S . -DCMAKE_BUILD_TYPE=Release && cmake --build build -j
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"
SUITE="${SUITE:-engine}"
REPS="${REPS:-5}"

if [[ "${SUITE}" == "macro" ]]; then
  OUT="${OUT:-BENCH_macro.json}"
  BIN="${BUILD_DIR}/bench/bench_scale_macro"
  if [[ ! -x "${BIN}" ]]; then
    echo "error: ${BIN} not found; build it first:" >&2
    echo "  cmake -B ${BUILD_DIR} -S . -DCMAKE_BUILD_TYPE=Release && cmake --build ${BUILD_DIR} -j" >&2
    exit 1
  fi
  # The macro bench emits raw repetitions itself (run_type "iteration");
  # items_per_second is whole replications per wall second, so best-of
  # consumers work the same way as for the micro suite.
  ARGS=(--reps="${REPS}" --json="${OUT}")
  if [[ -n "${FILTER:-}" ]]; then
    ARGS+=(--filter="${FILTER}")
  fi
  "${BIN}" "${ARGS[@]}"
  echo "wrote ${OUT}"
  exit 0
fi

if [[ "${SUITE}" == "shard" ]]; then
  OUT="${OUT:-BENCH_shard.json}"
  BIN="${BUILD_DIR}/bench/bench_shard_scaleout"
  if [[ ! -x "${BIN}" ]]; then
    echo "error: ${BIN} not found; build it first:" >&2
    echo "  cmake -B ${BUILD_DIR} -S . -DCMAKE_BUILD_TYPE=Release && cmake --build ${BUILD_DIR} -j" >&2
    exit 1
  fi
  # items_per_second is simulated in-window goodput qps — a pure function
  # of the seed, so one replication suffices and FILTER (used by targeted
  # regression re-runs) is a no-op: the whole sweep re-runs, cheaply.
  "${BIN}" --replications=1 --json="${OUT}"
  echo "wrote ${OUT}"
  exit 0
fi

if [[ "${SUITE}" == "slo" ]]; then
  OUT="${OUT:-BENCH_slo.json}"
  BIN="${BUILD_DIR}/bench/bench_slo_openloop"
  if [[ ! -x "${BIN}" ]]; then
    echo "error: ${BIN} not found; build it first:" >&2
    echo "  cmake -B ${BUILD_DIR} -S . -DCMAKE_BUILD_TYPE=Release && cmake --build ${BUILD_DIR} -j" >&2
    exit 1
  fi
  # items_per_second is simulated under-SLO completions per second
  # (coordinated-omission-free) — a pure function of the seed, so one
  # replication suffices and FILTER is a no-op like the shard suite.
  "${BIN}" --replications=1 --json="${OUT}"
  echo "wrote ${OUT}"
  exit 0
fi

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
# Comparison runs to other files (tools/check_bench_regression.sh) are
# never refused.
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
# most stable estimate of what the code can actually do
# (tools/check_bench_regression.sh compares on it).
"${BIN}" \
  --benchmark_context="load1=${LOAD1},nproc=${NPROC},wimpy_build_type=${BUILD_TYPE:-default}" \
  --benchmark_filter="${FILTER}" \
  --benchmark_repetitions="${REPS}" \
  --benchmark_report_aggregates_only=false \
  --benchmark_out="${OUT}" \
  --benchmark_out_format=json

echo "wrote ${OUT}"
