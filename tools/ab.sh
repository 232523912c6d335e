#!/usr/bin/env bash
# Paired A/B of the perfbench end-to-end job: commit BASE against the
# working tree.
#
# Usage:
#   tools/ab.sh BASE [PAIRS]          # PAIRS defaults to 10
#   tools/ab.sh HEAD~1 4
#
# BASE is exported with `git archive` to ${TMPDIR:-/tmp}/wimpy-ab/<sha>
# and kept there, so a later A/B against the same commit skips its build.
# Both trees' perfbench binaries are built in Release (this tree's under
# .bench_build/, as perfbench/run.py does). Then, for every workload in
# BENCHMARK.json, PAIRS pairs of `perfbench --job=e2e` run at seed 77 for
# the spec's run_seconds each, one process at a time, alternating which
# side of a pair goes first.
#
# For wall_s, setup_s and peak_rss_mib it prints each side's median and
# quartiles, the change in the median, and the pairs the working tree won
# (a strictly lower value). Host times are the best sample of a run, as
# in perfbench/run.py; peak RSS is the run's VmHWM. A last line per
# workload says whether the two sides' simulated outputs were identical
# for every seed both ran.
set -euo pipefail

cd "$(dirname "$0")/.."

if [[ $# -lt 1 || $# -gt 2 ]]; then
  echo "usage: tools/ab.sh BASE [PAIRS]" >&2
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

BASE_DIR="${TMPDIR:-/tmp}/wimpy-ab/${BASE_SHA}"
if [[ ! -f "${BASE_DIR}/perfbench/CMakeLists.txt" ]]; then
  rm -rf "${BASE_DIR}"
  mkdir -p "${BASE_DIR}"
  git archive "${BASE_SHA}" | tar -x -C "${BASE_DIR}"
fi

# Builds the perfbench of the tree rooted at $1 (build log on stderr).
build() {
  local out="$1/.bench_build/perfbench"
  if [[ ! -f "${out}/CMakeCache.txt" ]]; then
    cmake -S "$1/perfbench" -B "${out}" -DCMAKE_BUILD_TYPE=Release >&2
  fi
  cmake --build "${out}" -j "$(nproc)" >&2
}
build "${BASE_DIR}"
build "${PWD}"
declare -A EXE=(
  [base]="${BASE_DIR}/.bench_build/perfbench/perfbench"
  [change]="${PWD}/.bench_build/perfbench/perfbench"
)

read -r RUN_S WORKLOADS < <(python3 -c '
import json
spec = json.load(open("BENCHMARK.json"))
print(spec["run_seconds"], " ".join(w["name"] for w in spec["workloads"]))')

RESULTS="$(mktemp -d "${TMPDIR:-/tmp}/wimpy_ab.XXXXXX")"
trap 'rm -rf "${RESULTS}"' EXIT

for w in ${WORKLOADS}; do
  for ((i = 0; i < PAIRS; i++)); do
    order=(base change)
    if ((i % 2)); then order=(change base); fi
    for side in "${order[@]}"; do
      echo "ab: ${w} pair $((i + 1))/${PAIRS} ${side}" >&2
      "${EXE[${side}]}" --workload="${w}" --seed=77 --job=e2e \
        --seconds="${RUN_S}" | tail -n 1 > "${RESULTS}/${w}.${side}.${i}.json"
    done
  done
done

python3 - "${RESULTS}" "${PAIRS}" "${BASE_SHA:0:12}" ${WORKLOADS} <<'EOF'
import json
import os
import statistics
import sys

results, pairs, base = sys.argv[1], int(sys.argv[2]), sys.argv[3]
workloads = sys.argv[4:]


def load(workload, side, i):
    with open(os.path.join(results, "%s.%s.%d.json" % (workload, side, i))) as f:
        return json.load(f)


def value(out, metric):
    return min(out[metric]) if metric in ("wall_s", "setup_s") else out[metric]


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def sims(out):
    return {r["seed"]: r for r in out["reps"]}


print("A/B: base %s vs working tree, %d pairs per workload" % (base, pairs))
print("%-18s %-13s %-30s %-30s %8s %6s" % (
    "workload", "metric", "base median [q1-q3]", "change median [q1-q3]",
    "delta", "won"))
for w in workloads:
    runs = [(load(w, "base", i), load(w, "change", i)) for i in range(pairs)]
    for metric in ("wall_s", "setup_s", "peak_rss_mib"):
        b = [value(x, metric) for x, _ in runs]
        c = [value(y, metric) for _, y in runs]
        bq, cq = quartiles(b), quartiles(c)
        won = sum(cy < bx for bx, cy in zip(b, c))
        print("%-18s %-13s %-30s %-30s %+7.1f%% %3d/%d" % (
            w, metric, "%.4g [%.4g-%.4g]" % (bq[1], bq[0], bq[2]),
            "%.4g [%.4g-%.4g]" % (cq[1], cq[0], cq[2]),
            100 * (cq[1] / bq[1] - 1), won, pairs))
    same = 0
    for x, y in runs:
        sx, sy = sims(x), sims(y)
        same += all(sx[s] == sy[s] for s in sx.keys() & sy.keys())
    print("%-18s simulated outputs identical in %d/%d pairs" % (w, same, pairs))
EOF
