#!/usr/bin/env bash
# The speed gate: commit BASE against the working tree, in alternating
# pairs. Exits 1 if any measurement regressed.
#
# Usage:
#   tools/ab.sh BASE [PAIRS [REGEX]]   # PAIRS defaults to 10
#   tools/ab.sh HEAD~1 4
#   tools/ab.sh HEAD 10 'SchedulerEventThroughput/100000'
#
# BASE is exported with `git archive` to ${TMPDIR:-/tmp}/wimpy-ab/<sha>
# and kept there, so a later A/B against the same commit skips its build.
# The pairs are kept next to it, in <sha>-pairs.tsv (the next A/B against
# that commit overwrites them), and the script prints their path.
# Each tree builds three targets in Release: perfbench under
# .bench_build/perfbench (as perfbench/run.py does), and bench_engine_micro
# and bench_scale_macro under .bench_build/wimpy.
#
# The suites then run one process at a time, alternating which side of a
# pair goes first. Each side of a pair is one invocation:
#   - every BENCHMARK.json workload: one perfbench e2e job at seed 77 for
#     the spec's run_seconds, through perfbench/run.py (its end_to_end
#     metrics, replication and fingerprint checks), PAIRS pairs;
#   - the engine microbenchmarks: tools/run_engine_bench.sh's default
#     list, PAIRS pairs, and OBS_PAIRS - 1 times as many more pairs of
#     the 2%-bound benchmark alone (tools/ab_verdict.py);
#   - the bench_scale_macro cells (web and KV at 10k and 100k), PAIRS
#     pairs.
# REGEX (grep -E; bench_scale_macro's --filter) keeps only the workloads
# and benchmarks whose names match.
#
# tools/ab_verdict.py turns each pair into one value per side and judges
# them: a measurement regressed when its median per-pair change is worse
# than its bound and a one-sided sign test on the pairs it lost gives
# p <= 0.05. The bounds are BENCHMARK.json's for perfbench metrics, 2%
# for the untraced scheduler path and 20% for every other benchmark. A
# workload also regresses if the two sides' simulated outputs differ in
# any pair. With fewer than 5 pairs nothing can be flagged.
set -euo pipefail

cd "$(dirname "$0")/.."

if [[ $# -lt 1 || $# -gt 3 ]]; then
  echo "usage: tools/ab.sh BASE [PAIRS [REGEX]]" >&2
  exit 2
fi
BASE_SHA="$(git rev-parse --verify --quiet "$1^{commit}")" || {
  echo "error: '$1' is not a commit" >&2
  exit 2
}
PAIRS="${2:-10}"
if [[ ! "${PAIRS}" =~ ^[1-9][0-9]*$ ]]; then
  echo "error: PAIRS must be a positive integer, got '${PAIRS}'" >&2
  exit 2
fi
FILTER="${3:-}"

BASE_DIR="${TMPDIR:-/tmp}/wimpy-ab/${BASE_SHA}"
if [[ ! -f "${BASE_DIR}/perfbench/CMakeLists.txt" ]]; then
  rm -rf "${BASE_DIR}"
  mkdir -p "${BASE_DIR}"
  git archive "${BASE_SHA}" | tar -x -C "${BASE_DIR}"
fi
declare -A TREE=([base]="${BASE_DIR}" [change]="${PWD}")

# Builds the three benchmark targets of the tree rooted at $1 (log on
# stderr).
build() {
  local pb="$1/.bench_build/perfbench" lib="$1/.bench_build/wimpy"
  [[ -f "${pb}/CMakeCache.txt" ]] ||
    cmake -S "$1/perfbench" -B "${pb}" -DCMAKE_BUILD_TYPE=Release >&2
  [[ -f "${lib}/CMakeCache.txt" ]] ||
    cmake -S "$1" -B "${lib}" -DCMAKE_BUILD_TYPE=Release >&2
  cmake --build "${pb}" -j "$(nproc)" >&2
  cmake --build "${lib}" -j "$(nproc)" \
    --target bench_engine_micro bench_scale_macro >&2
}
build "${BASE_DIR}"
build "${PWD}"

read -r RUN_S OBS_PAIRS OBS WORKLOADS < <(python3 -c '
import json, sys
sys.path.insert(0, "tools")
import ab_verdict
spec = json.load(open("BENCHMARK.json"))
print(spec["run_seconds"], ab_verdict.OBS_PAIRS,
      "|".join(ab_verdict.OBS_BENCHMARKS),
      " ".join(w["name"] for w in spec["workloads"]))')

# The anchored regex of the run_engine_bench.sh default-list benchmarks
# whose names match every regex given; empty if none does.
ENGINE_LIST="$(sed -n 's/^FILTER="\${FILTER:-\(.*\)}"$/\1/p' \
  tools/run_engine_bench.sh)"
engine_names() {
  local names re
  names="$(.bench_build/wimpy/bench/bench_engine_micro --benchmark_list_tests \
    --benchmark_filter="${ENGINE_LIST}")"
  for re in "$@"; do names="$(grep -E -- "${re}" <<< "${names}" || true)"; done
  [[ -z "${names}" ]] || echo "^($(paste -sd'|' <<< "${names}"))\$"
}
declare -A ENGINE=([engine]="$(engine_names "${FILTER:-.}")"
                   [obs]="$(engine_names "${FILTER:-.}" "^(${OBS})\$")")

RESULTS="$(mktemp -d "${TMPDIR:-/tmp}/wimpy_ab.XXXXXX")"
trap 'rm -rf "${RESULTS}"' EXIT
mkdir "${RESULTS}/bench"
PAIRS_TSV="${BASE_DIR}-pairs.tsv"
: > "${PAIRS_TSV}"

# Runs suite $1 once on side $2, writing its JSON to ${RESULTS}/$2.json.
# Both sides run their binary from ${RESULTS}/bench with the same
# arguments and environment, which sit on the process stack: the length
# of its path alone moved one bench_engine_micro binary by ~27%.
run() {
  local bin="${TREE[$2]}/.bench_build" out="${RESULTS}/out.json"
  case "$1" in
    engine|obs)
      cp "${bin}/wimpy/bench/bench_engine_micro" "${RESULTS}/bench"
      BUILD_DIR="${RESULTS}" OUT="${out}" FILTER="${ENGINE[$1]}" \
        tools/run_engine_bench.sh > /dev/null ;;
    macro)
      cp "${bin}/wimpy/bench/bench_scale_macro" "${RESULTS}/bench"
      "${RESULTS}/bench/bench_scale_macro" --json="${out}" \
        ${FILTER:+--filter="${FILTER}"} > /dev/null ;;
    *)
      cp "${bin}/perfbench/perfbench" "${RESULTS}/bench"
      python3 tools/ab_verdict.py e2e "$1" "${RESULTS}/bench/perfbench" \
        "${RUN_S}" > "${out}" ;;
  esac
  mv "${out}" "${RESULTS}/$2.json"
}

SUITES=($(tr ' ' '\n' <<< "${WORKLOADS}" | grep -E -- "${FILTER:-.}" || true)
        ${ENGINE[engine]:+engine} ${ENGINE[obs]:+obs} macro)

for suite in "${SUITES[@]}"; do
  n="${PAIRS}"
  if [[ "${suite}" == obs ]]; then n=$((PAIRS * (OBS_PAIRS - 1))); fi
  for ((i = 0; i < n; i++)); do
    order=(base change)
    if ((i % 2)); then order=(change base); fi
    for side in "${order[@]}"; do
      echo "ab: ${suite} pair $((i + 1))/${n} ${side}" >&2
      run "${suite}" "${side}"
    done
    python3 tools/ab_verdict.py pair "${suite}" "${RESULTS}/base.json" \
      "${RESULTS}/change.json" >> "${PAIRS_TSV}"
    rm -f "${RESULTS}/base.json" "${RESULTS}/change.json"
  done
done

echo "A/B: base ${BASE_SHA:0:12} vs working tree, ${PAIRS} pairs${FILTER:+, filter '${FILTER}'}"
echo "pairs: ${PAIRS_TSV}"
python3 tools/ab_verdict.py verdict "${PAIRS_TSV}"
