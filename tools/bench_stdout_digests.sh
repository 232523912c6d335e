#!/usr/bin/env bash
# Prints one `sha256sum` line per bench binary: the digest of its stdout
# at --seed=77 --threads=4, minus the host-timed lines (the `Sweep: ... in
# X s` footer and the fig2_3/sec42 host-reference measurements). Every
# other byte is a pure function of the seed (docs/parallel.md), so the
# committed digests in tests/data/bench_stdout_seed77.sha256 pin the
# simulated output of every bench across commits; tools/ci.sh diffs them.
#
# bench_engine_micro and bench_scale_macro are skipped: their stdout is
# host wall-clock measurements.
#
# Usage:
#   cmake -B build -S . && cmake --build build -j
#   tools/bench_stdout_digests.sh
#   BUILD_DIR=out tools/bench_stdout_digests.sh
#
# To re-baseline after an intended change to simulated output:
#   tools/bench_stdout_digests.sh > tests/data/bench_stdout_seed77.sha256
# and give the reason in CHANGES.md.
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"
WORK="$(mktemp -d /tmp/wimpy_digests.XXXXXX)"
trap 'rm -rf "${WORK}"' EXIT

for src in bench/bench_*.cc; do
  name="$(basename "${src}" .cc)"
  case "${name}" in
    bench_engine_micro | bench_scale_macro) continue ;;
  esac
  if [[ ! -x "${BUILD_DIR}/bench/${name}" ]]; then
    echo "error: ${BUILD_DIR}/bench/${name} not found; build it first:" >&2
    echo "  cmake -B ${BUILD_DIR} -S . && cmake --build ${BUILD_DIR} -j" >&2
    exit 1
  fi
  "${BUILD_DIR}/bench/${name}" --seed=77 --threads=4 > "${WORK}/out"
  digest="$(sed -E '/^(Sweep: |Host (reference|memcpy reference))/d' \
              "${WORK}/out" | sha256sum)"
  echo "${digest%% *}  ${name}"
done
