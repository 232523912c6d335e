#!/usr/bin/env bash
# Re-runs the engine microbenchmarks (the scheduler/fair-share families,
# the distinct-timestamps pending-heap loop, the short-delay serving loop,
# plus the BM_ParallelSweep replication runner) and compares best-of
# throughput against the checked-in BENCH_engine.json. Exits nonzero if
# any benchmark regressed by more than THRESHOLD_PCT percent — the CI-able
# guard for the engine's performance envelope (docs/engine.md).
#
# Usage:
#   cmake -B build -S . -DCMAKE_BUILD_TYPE=Release && cmake --build build -j
#   tools/check_bench_regression.sh
#   BUILD_DIR=out THRESHOLD_PCT=10 REPS=9 RUNS=3 tools/check_bench_regression.sh
#   OBS_THRESHOLD_PCT=5 SKIP_OBS_RUN=1 tools/check_bench_regression.sh
#   SKIP_MACRO=1 MACRO_REPS=3 MACRO_RUNS=2 tools/check_bench_regression.sh
#   SKIP_SHARD=1 tools/check_bench_regression.sh
#   SKIP_SLO=1 tools/check_bench_regression.sh
#
# After the engine microbenchmarks, the end-to-end macro suite
# (bench_scale_macro: whole-replication throughput at 10k/100k simulated
# connections, docs/scale.md) is gated the same way against the committed
# BENCH_macro.json; set SKIP_MACRO=1 to skip it. Then the sharded
# scale-out sweep (bench_shard_scaleout, docs/sharding.md) is gated
# against BENCH_shard.json with the same threshold; its items_per_second
# is simulated in-window goodput qps — deterministic for the pinned seed,
# so one run with no retries suffices and any >THRESHOLD_PCT delta is a
# real behavioral change (e.g. the oversubscription bend moving), not
# host noise. Set SKIP_SHARD=1 to skip it. The open-loop SLO sweep
# (bench_slo_openloop, docs/openloop.md) is gated the same deterministic
# way against BENCH_slo.json — its items_per_second is under-SLO
# completions per second, so a delta means the latency distribution or
# the admission/shedding behavior moved. Set SKIP_SLO=1 to skip it.
#
# Benchmarks present in only one of the two runs (e.g. newly added ones
# with no baseline yet) are reported but never fail the check.
#
# Observability contract (docs/observability.md): the hooks-disabled
# scheduler path (BM_SchedulerEventThroughput/100000) gets a stricter
# OBS_THRESHOLD_PCT check (default 2%) — an attached-but-absent tracer
# must stay in the noise — and the hooks-enabled variant's delta is
# reported alongside. Unless SKIP_OBS_RUN=1, the non-benchmark CI gates
# (tools/ci.sh: WIMPY_TSAN smoke plus the tools/check_trace.sh export
# validation — trace/metrics schema, causal ids, flow arrows, flamegraph
# folding, and the trace_analyze.py seed-77 golden) then run end to end.
#
# Defenses against shared-host noise (CPU steal, frequency scaling),
# which on some hosts swings results ±30% between invocations:
#   1. The comparison statistic is the best (max) repetition —
#      interference is one-sided, it only ever slows a repetition down,
#      so the max is the most stable estimate of code speed.
#   2. The suite runs RUNS times (default 2) in separate invocations and
#      the per-benchmark best across all of them is used, because
#      interference bursts can outlast a single invocation.
#   3. The gate uses host-normalized deltas: each benchmark is measured
#      against the median delta across the whole suite, so a uniform
#      machine-speed swing between the baseline capture and this run
#      cancels out. Raw deltas are printed alongside.
#   4. On failure, the failing benchmarks are re-run in up to RETRIES
#      (default 2) additional targeted invocations and the results
#      merged — the automated version of "re-run before believing",
#      sound because the baseline numbers were demonstrably achieved on
#      this machine, so a healthy benchmark can reach them again.
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"
BASELINE="${BASELINE:-BENCH_engine.json}"
MACRO_BASELINE="${MACRO_BASELINE:-BENCH_macro.json}"
SHARD_BASELINE="${SHARD_BASELINE:-BENCH_shard.json}"
SLO_BASELINE="${SLO_BASELINE:-BENCH_slo.json}"
THRESHOLD_PCT="${THRESHOLD_PCT:-20}"
OBS_THRESHOLD_PCT="${OBS_THRESHOLD_PCT:-2}"
REPS="${REPS:-5}"
RUNS="${RUNS:-2}"
RETRIES="${RETRIES:-2}"
MACRO_REPS="${MACRO_REPS:-3}"
MACRO_RUNS="${MACRO_RUNS:-2}"

if [[ ! -f "${BASELINE}" ]]; then
  echo "error: baseline ${BASELINE} not found" >&2
  exit 1
fi

CURRENT_FILES=()
MACRO_FILES=()
SHARD_FILES=()
SLO_FILES=()
RETRY_FILTER="$(mktemp /tmp/bench_retry.XXXXXX)"
trap 'rm -f "${CURRENT_FILES[@]}" "${MACRO_FILES[@]}" "${SHARD_FILES[@]}" \
  "${SLO_FILES[@]}" "${RETRY_FILTER}"' EXIT
for run in $(seq "${RUNS}"); do
  echo "== suite invocation ${run}/${RUNS} =="
  f="$(mktemp /tmp/bench_engine.XXXXXX.json)"
  CURRENT_FILES+=("${f}")
  BUILD_DIR="${BUILD_DIR}" OUT="${f}" REPS="${REPS}" \
    tools/run_engine_bench.sh
done

# compare <baseline> <current>... — best-of/host-normalized gate shared by
# the engine and macro suites; the obs-contract section only engages when
# its benchmark names are present (i.e. the engine suite).
compare() {
  local baseline="$1"
  shift
  python3 - "${THRESHOLD_PCT}" "${OBS_THRESHOLD_PCT}" "${RETRY_FILTER}" \
    "${baseline}" "$@" <<'EOF'
import json
import sys

threshold_pct = float(sys.argv[1])
obs_threshold_pct = float(sys.argv[2])
retry_filter_path = sys.argv[3]
baseline_path = sys.argv[4]
current_paths = sys.argv[5:]

def items_per_second(paths):
    """run_name -> items/sec. Prefers the best (max) raw repetition
    across every file — interference on a shared host only ever slows a
    repetition down, so the per-benchmark max is the most stable
    estimate of code speed — and falls back to the median then mean
    aggregate for older baseline files that recorded aggregates only."""
    raw, agg = {}, {}
    for path in paths:
        with open(path) as f:
            data = json.load(f)
        for b in data.get("benchmarks", []):
            ips = b.get("items_per_second")
            if ips is None:
                continue
            if b.get("run_type") == "aggregate":
                rank = {"median": 0, "mean": 1}.get(b.get("aggregate_name"))
                if rank is not None:
                    slot = agg.setdefault(b["run_name"], {})
                    slot[rank] = max(slot.get(rank, 0.0), ips)
            else:
                name = b.get("run_name", b["name"])
                raw[name] = max(raw.get(name, 0.0), ips)
    out = {name: ranks[min(ranks)] for name, ranks in agg.items()}
    out.update(raw)
    return out

base = items_per_second([baseline_path])
curr = items_per_second(current_paths)

# Host-speed normalization: shared/virtualized hosts swing the entire
# suite up or down together between invocations. The median ratio across
# all common benchmarks estimates that swing; each benchmark is then
# gated on its delta relative to the suite median, which cancels uniform
# host noise while preserving anything benchmark-specific.
common = sorted(set(base) & set(curr))
ratios = sorted(curr[n] / base[n] for n in common)
host = ratios[len(ratios) // 2] if ratios else 1.0
host_pct = 100.0 * (host - 1.0)

failures = []
print(f"\nhost-speed factor (suite median delta): {host_pct:+.1f}%")
print(f"{'benchmark':44s} {'baseline':>12s} {'current':>12s} "
      f"{'raw':>8s} {'norm':>8s}")
for name in sorted(set(base) | set(curr)):
    if name not in base:
        print(f"{name:44s} {'(none)':>12s} {curr[name]:12.3e}    new")
        continue
    if name not in curr:
        print(f"{name:44s} {base[name]:12.3e} {'(none)':>12s}    gone")
        continue
    delta_pct = 100.0 * (curr[name] - base[name]) / base[name]
    norm_pct = 100.0 * (curr[name] / (base[name] * host) - 1.0)
    verdict = "ok"
    if norm_pct < -threshold_pct:
        verdict = "REGRESSED"
        failures.append((name, norm_pct))
    print(f"{name:44s} {base[name]:12.3e} {curr[name]:12.3e} "
          f"{delta_pct:+7.1f}% {norm_pct:+7.1f}% {verdict}")

# Observability overhead contract: the disabled paths must stay within
# the (stricter) obs threshold of the baseline after removing the host
# swing; on shared hosts these are the numbers to re-run before
# believing. Two disabled paths are pinned: the untraced scheduler loop
# (an attached-but-absent tracer) and the disabled telemetry plane's
# Record (a single branch, docs/telemetry.md).
obs_pairs = [
    ("BM_SchedulerEventThroughput/100000", "obs disabled-path"),
    ("BM_RollupRecordDisabled/100000", "telemetry disabled-path"),
]
for disabled, label in obs_pairs:
    if disabled in base and disabled in curr:
        norm_pct = 100.0 * (curr[disabled] / (base[disabled] * host) - 1.0)
        verdict = "ok" if norm_pct >= -obs_threshold_pct else "REGRESSED"
        print(f"\n{label} overhead ({disabled}): {norm_pct:+.1f}% "
              f"host-normalized (threshold -{obs_threshold_pct:.0f}%) "
              f"{verdict}")
        if verdict == "REGRESSED":
            failures.append((f"{disabled} [{label}]", norm_pct))
traced = "BM_SchedulerEventThroughputTraced/100000"
disabled = "BM_SchedulerEventThroughput/100000"
if disabled in curr and traced in curr:
    enabled_pct = 100.0 * (curr[traced] - curr[disabled]) / curr[disabled]
    print(f"obs enabled-vs-disabled delta ({traced}): {enabled_pct:+.1f}% "
          f"(informational: full per-event recording cost)")
tel_on = "BM_RollupRecord/100000"
tel_off = "BM_RollupRecordDisabled/100000"
if tel_on in curr and tel_off in curr:
    enabled_pct = 100.0 * (curr[tel_on] - curr[tel_off]) / curr[tel_off]
    print(f"telemetry enabled-vs-disabled delta ({tel_on}): "
          f"{enabled_pct:+.1f}% (informational: per-Record rollup+sketch "
          f"cost)")

if failures:
    print(f"\n{len(failures)} benchmark(s) regressed (host-normalized):")
    for name, delta in failures:
        print(f"  {name}: {delta:+.1f}%")
    # Emit a --benchmark_filter regex for a targeted re-run of just the
    # failing benchmarks. Statistic suffixes (/real_time etc.) are part
    # of the reported name but not of what the filter matches first, so
    # match the name with or without a trailing /component.
    suffixes = ("/real_time", "/manual_time", "/process_time")
    parts = []
    for name, _ in failures:
        if name.endswith("]"):  # synthetic entries like "[obs disabled-path]"
            name = name.split(" [")[0]
        for s in suffixes:
            if name.endswith(s):
                name = name[: -len(s)]
        parts.append(name + "(/|$)")
    with open(retry_filter_path, "w") as f:
        f.write("|".join(sorted(set(parts))))
    sys.exit(1)
print(f"\nOK: no benchmark regressed more than {threshold_pct:.0f}% "
      f"host-normalized vs {baseline_path}.")
EOF
}

attempt=0
until compare "${BASELINE}" "${CURRENT_FILES[@]}"; do
  if (( attempt >= RETRIES )); then
    echo "FAIL: regressions persisted after ${RETRIES} targeted re-run(s)."
    exit 1
  fi
  attempt=$((attempt + 1))
  echo
  echo "== targeted re-run ${attempt}/${RETRIES}: $(cat "${RETRY_FILTER}") =="
  f="$(mktemp /tmp/bench_engine.XXXXXX.json)"
  CURRENT_FILES+=("${f}")
  BUILD_DIR="${BUILD_DIR}" OUT="${f}" REPS="${REPS}" \
    FILTER="$(cat "${RETRY_FILTER}")" tools/run_engine_bench.sh
done

# End-to-end macro gate: whole-replication throughput (1/wall) at 10k and
# 100k simulated connections vs the committed BENCH_macro.json — the
# steady-state model-layer performance envelope (docs/scale.md). Same
# best-of + host-normalized + targeted-retry machinery as above.
if [[ "${SKIP_MACRO:-0}" == "0" && -f "${MACRO_BASELINE}" ]]; then
  echo
  for run in $(seq "${MACRO_RUNS}"); do
    echo "== macro suite invocation ${run}/${MACRO_RUNS} (SKIP_MACRO=1 to skip) =="
    f="$(mktemp /tmp/bench_macro.XXXXXX.json)"
    MACRO_FILES+=("${f}")
    BUILD_DIR="${BUILD_DIR}" SUITE=macro OUT="${f}" REPS="${MACRO_REPS}" \
      tools/run_engine_bench.sh
  done
  attempt=0
  until compare "${MACRO_BASELINE}" "${MACRO_FILES[@]}"; do
    if (( attempt >= RETRIES )); then
      echo "FAIL: macro regressions persisted after ${RETRIES} targeted re-run(s)."
      exit 1
    fi
    attempt=$((attempt + 1))
    echo
    echo "== macro targeted re-run ${attempt}/${RETRIES}: $(cat "${RETRY_FILTER}") =="
    f="$(mktemp /tmp/bench_macro.XXXXXX.json)"
    MACRO_FILES+=("${f}")
    BUILD_DIR="${BUILD_DIR}" SUITE=macro OUT="${f}" REPS="${MACRO_REPS}" \
      FILTER="$(cat "${RETRY_FILTER}")" tools/run_engine_bench.sh
  done
fi

# Sharded scale-out gate: simulated goodput per cell vs the committed
# BENCH_shard.json. Deterministic for the pinned seed (the sim is a pure
# function of it), so a single run with no targeted retries — a delta
# here is a behavioral change in the router/migrator/topology, never
# host noise.
if [[ "${SKIP_SHARD:-0}" == "0" && -f "${SHARD_BASELINE}" ]]; then
  echo
  echo "== shard scale-out suite (SKIP_SHARD=1 to skip) =="
  f="$(mktemp /tmp/bench_shard.XXXXXX.json)"
  SHARD_FILES+=("${f}")
  BUILD_DIR="${BUILD_DIR}" SUITE=shard OUT="${f}" tools/run_engine_bench.sh
  if ! compare "${SHARD_BASELINE}" "${f}"; then
    echo "FAIL: shard scale-out sweep drifted from ${SHARD_BASELINE}."
    exit 1
  fi
fi

# Open-loop SLO gate: under-SLO goodput per cell vs the committed
# BENCH_slo.json. Deterministic like the shard sweep — a delta is a real
# change in tail latency, admission, or energy accounting.
if [[ "${SKIP_SLO:-0}" == "0" && -f "${SLO_BASELINE}" ]]; then
  echo
  echo "== open-loop SLO suite (SKIP_SLO=1 to skip) =="
  f="$(mktemp /tmp/bench_slo.XXXXXX.json)"
  SLO_FILES+=("${f}")
  BUILD_DIR="${BUILD_DIR}" SUITE=slo OUT="${f}" tools/run_engine_bench.sh
  if ! compare "${SLO_BASELINE}" "${f}"; then
    echo "FAIL: open-loop SLO sweep drifted from ${SLO_BASELINE}."
    exit 1
  fi
fi

if [[ "${SKIP_OBS_RUN:-0}" == "0" ]]; then
  echo
  echo "== non-benchmark CI gates (SKIP_OBS_RUN=1 to skip) =="
  BUILD_DIR="${BUILD_DIR}" tools/ci.sh
fi
