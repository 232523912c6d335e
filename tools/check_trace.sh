#!/usr/bin/env bash
# Exports a Chrome trace + metrics CSV from bench_fig4_7_web_light,
# bench_fig10_11_delay_hist, and bench_fig12_17_mr_timelines (the last
# also pins that cross-track flow arrows are present — MapReduce task
# attempts live on per-node tracks under the job span) and
# validates them: the trace must be parseable JSON in trace-event format
# (every event carries ph/ts/name/pid/tid/cat, instants carry the scope
# key, ts is monotonic per (pid, tid) track, span begins/ends balance,
# causal ids are consistent, and cross-track flow arrows come in matched
# s/f pairs with shared string ids) and the CSV must be well-formed long
# format (docs/observability.md). The trace is also folded through
# tools/flamegraph.py as a smoke test of the flame-graph pipeline.
#
# A third section validates the causal exports of
# bench_kv_queries_per_joule at --seed=77: the trace passes the
# schema/causal-id validation and the --trace-summary CSV has its header.
# The trace_analyze.py output over both is pinned by ctest
# (tools_trace_analyze_kv_seed77_golden).
#
# A fourth section runs bench_scale_macro --determinism at 100k simulated
# connections (both workloads) at --threads=1 and 8 and requires
# byte-identical stats + golden-trace prefixes (docs/scale.md).
#
# A fifth section validates the sharded scale-out exports
# (bench_shard_scaleout, docs/sharding.md): the seed-77 trace must pass
# the schema/causal-id validation and contain shard_hop routing spans AND
# migration spans (shard_move) from the churn cells; --determinism output
# must be byte-identical at --threads=1 vs 8. Its trace_analyze.py output
# is pinned by ctest (tools_trace_analyze_shard_seed77_golden).
#
# A sixth section validates the telemetry plane (docs/telemetry.md):
# the kv bench with --telemetry/--alerts at --seed=77 must emit alert and
# node-health instants on the trace, health.* metric columns and
# schema-valid rollup + alert CSVs; the telemetry-enabled trace is
# smoke-tested through flamegraph.py and trace_analyze.py, which must
# ignore the new instant categories. The alerts golden and the
# --threads=1 vs 8 comparison of both CSVs are ctest's
# obs_alerts_kv_seed77_golden.
#
# A seventh section validates the open-loop SLO surface (docs/openloop.md):
# the --slo-ms trace-summary schema (base header unchanged, under_slo
# column appended with 0/1 values, slo_goodput_per_joule roll-up printed)
# and bench_slo_openloop --determinism byte-identical at --threads=1 vs 8.
#
# Usage:
#   cmake -B build -S . && cmake --build build -j
#   tools/check_trace.sh
#   BUILD_DIR=out tools/check_trace.sh
#   CHECK_DETERMINISM=1 tools/check_trace.sh   # also run --threads=1 vs 8
#
# CHECK_DETERMINISM re-runs each bench at two worker-thread counts with the
# same seed and requires byte-identical exports (the contract obs tests
# pin at unit level; this checks it end to end, ~3x the runtime).
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"
BENCHES=(bench_fig4_7_web_light bench_fig10_11_delay_hist
         bench_fig12_17_mr_timelines)
for name in "${BENCHES[@]}" bench_kv_queries_per_joule bench_scale_macro \
            bench_shard_scaleout bench_slo_openloop; do
  if [[ ! -x "${BUILD_DIR}/bench/${name}" ]]; then
    echo "error: ${BUILD_DIR}/bench/${name} not found; build it first:" >&2
    echo "  cmake -B ${BUILD_DIR} -S . && cmake --build ${BUILD_DIR} -j" >&2
    exit 1
  fi
done

WORK="$(mktemp -d /tmp/wimpy_trace.XXXXXX)"
trap 'rm -rf "${WORK}"' EXIT

validate_trace() {
  python3 - "$1" <<'EOF'
import json
import sys

with open(sys.argv[1]) as f:
    doc = json.load(f)

events = doc["traceEvents"]
assert events, "traceEvents is empty"
last_ts = {}
phases = set()
categories = set()
for e in events:
    for key in ("ph", "ts", "name", "pid", "tid", "cat"):
        assert key in e, f"event missing {key!r}: {e}"
    phases.add(e["ph"])
    categories.add(e["cat"])
    if e["ph"] == "i":
        assert e.get("s") == "t", f"instant without scope: {e}"
    track = (e["pid"], e["tid"])
    prev = last_ts.get(track)
    assert prev is None or e["ts"] >= prev, \
        f"ts went backwards on track {track}: {prev} -> {e['ts']}"
    last_ts[track] = e["ts"]

begins = sum(1 for e in events if e["ph"] == "B")
ends = sum(1 for e in events if e["ph"] == "E")
assert begins == ends, f"unbalanced spans: {begins} B vs {ends} E"

# Causal identity (docs/observability.md): span B/E events may carry
# args.trace/span/parent; every causal child's parent id must be another
# span id of the same trace (or an unsampled enclosing span is absent —
# only the root may be parentless), and ids are never self-referential.
causal = 0
spans_by_trace = {}
for e in events:
    if e["ph"] not in ("B", "E"):
        continue
    args = e.get("args", {})
    if args.get("trace", 0) == 0 or args.get("span", 0) == 0:
        continue
    causal += 1
    assert args["span"] != args.get("parent", 0), f"self-parent: {e}"
    if e["ph"] == "B":
        spans_by_trace.setdefault(args["trace"], set()).add(args["span"])
orphans = 0
for e in events:
    if e["ph"] != "B":
        continue
    args = e.get("args", {})
    parent = args.get("parent", 0)
    if args.get("trace", 0) == 0 or parent == 0:
        continue
    if parent not in spans_by_trace.get(args["trace"], set()):
        orphans += 1
assert orphans == 0, f"{orphans} causal spans with unknown parent ids"

# Flow arrows: every s (start) pairs with exactly one f (finish) on the
# same string id, the finish binds to its enclosing slice (bp == "e"),
# and both endpoints share pid and ts (they mark one causal edge).
flows = {}
for e in events:
    if e["ph"] in ("s", "f"):
        assert "id" in e, f"flow event without id: {e}"
        flows.setdefault(e["id"], []).append(e)
for fid, pair in flows.items():
    kinds = sorted(p["ph"] for p in pair)
    assert kinds == ["f", "s"], f"unpaired flow {fid}: {kinds}"
    f_ev = next(p for p in pair if p["ph"] == "f")
    s_ev = next(p for p in pair if p["ph"] == "s")
    assert f_ev.get("bp") == "e", f"flow finish without bp=e: {f_ev}"
    assert f_ev["pid"] == s_ev["pid"] and f_ev["ts"] == s_ev["ts"], \
        f"flow endpoints disagree: {s_ev} vs {f_ev}"
    assert f_ev["tid"] != s_ev["tid"], f"flow within one track: {fid}"

horizon_closed = sum(1 for e in events
                     if e.get("args", {}).get("closed_at_horizon"))
print(f"trace OK: {len(events)} events on {len(last_ts)} tracks, "
      f"phases {sorted(phases)}, categories {sorted(categories)}, "
      f"{begins} balanced spans, {causal} causal span events, "
      f"{len(flows)} flow arrows, {horizon_closed} closed at horizon")
EOF
}

validate_metrics() {
  # Metrics CSV: exact header, every row 4 comma-separated fields.
  head -n 1 "$1" | grep -qx 'series,time_s,metric,value' \
    || { echo "error: bad metrics CSV header" >&2; exit 1; }
  local rows bad
  rows="$(tail -n +2 "$1" | wc -l)"
  bad="$(tail -n +2 "$1" | awk -F, 'NF != 4' | head -n 3)"
  if [[ -n "${bad}" ]]; then
    echo "error: malformed metrics CSV rows:" >&2
    echo "${bad}" >&2
    exit 1
  fi
  echo "metrics OK: ${rows} rows"
}

check_bench() {
  local name="$1"
  local bin="${BUILD_DIR}/bench/${name}"
  local trace="${WORK}/${name}.trace.json"
  local metrics="${WORK}/${name}.metrics.csv"
  echo "== ${name} =="
  echo "running ${bin} with --trace/--metrics export..."
  "${bin}" --replications=1 --trace="${trace}" --metrics="${metrics}" \
    > "${WORK}/${name}.stdout.txt"
  validate_trace "${trace}"
  validate_metrics "${metrics}"

  # MapReduce task attempts run on per-node tracks under the job span, so
  # its export must contain cross-track flow arrows — the guard that the
  # exporter's s/f emission didn't silently go dead (web/kv request trees
  # stay on one track each and legitimately carry none).
  if [[ "${name}" == "bench_fig12_17_mr_timelines" ]]; then
    local n_flows
    n_flows="$(grep -c '"ph":"s"' "${trace}" || true)"
    if [[ "${n_flows}" -eq 0 ]]; then
      echo "error: ${name} trace has no flow arrows" >&2
      exit 1
    fi
    echo "flow arrows OK: ${n_flows} cross-track causal edges"
  fi

  # Fold the trace for a flame graph; any non-empty output means the span
  # nesting survived the round trip (goldens pin exact values in ctest).
  local folded="${WORK}/${name}.folded"
  python3 tools/flamegraph.py "${trace}" -o "${folded}"
  [[ -s "${folded}" ]] \
    || { echo "error: flamegraph.py produced no folded stacks" >&2; exit 1; }
  echo "flamegraph OK: $(wc -l < "${folded}") folded stacks"

  if [[ "${CHECK_DETERMINISM:-0}" != "0" ]]; then
    echo "re-running at --threads=1 and --threads=8 (same seed)..."
    for t in 1 8; do
      "${bin}" --replications=2 --threads="${t}" \
        --trace="${WORK}/${name}.trace_t${t}.json" \
        --metrics="${WORK}/${name}.metrics_t${t}.csv" > /dev/null
    done
    cmp "${WORK}/${name}.trace_t1.json" "${WORK}/${name}.trace_t8.json" \
      || { echo "error: trace differs across --threads" >&2; exit 1; }
    cmp "${WORK}/${name}.metrics_t1.csv" "${WORK}/${name}.metrics_t8.csv" \
      || { echo "error: metrics differ across --threads" >&2; exit 1; }
    echo "determinism OK: exports byte-identical at --threads=1 and 8"
  fi
}

for name in "${BENCHES[@]}"; do
  check_bench "${name}"
done

# --- causal tracing exports ---------------------------------------------
# bench_kv_queries_per_joule at a pinned seed exports the causal trace and
# the --trace-summary roll-up.
kv_bin="${BUILD_DIR}/bench/bench_kv_queries_per_joule"
kv_trace="${WORK}/kv77.trace.json"
kv_summary="${WORK}/kv77.summary.csv"
echo "== bench_kv_queries_per_joule (causal exports, --seed=77) =="
"${kv_bin}" --replications=1 --threads=1 --seed=77 \
  --trace="${kv_trace}" --trace-summary="${kv_summary}" \
  > "${WORK}/kv77.stdout.txt"
validate_trace "${kv_trace}"
head -n 1 "${kv_summary}" \
  | grep -qx 'series,trace_id,root,begin_s,latency_s,spans,complete,joules' \
  || { echo "error: bad trace-summary CSV header" >&2; exit 1; }
echo "trace summary OK: $(($(wc -l < "${kv_summary}") - 1)) rows"

if [[ "${CHECK_DETERMINISM:-0}" != "0" ]]; then
  echo "re-running causal exports at --threads=8 (same seed)..."
  "${kv_bin}" --replications=1 --threads=8 --seed=77 \
    --trace="${WORK}/kv77.trace_t8.json" \
    --trace-summary="${WORK}/kv77.summary_t8.csv" > /dev/null
  cmp "${kv_trace}" "${WORK}/kv77.trace_t8.json" \
    || { echo "error: causal trace differs across --threads" >&2; exit 1; }
  cmp "${kv_summary}" "${WORK}/kv77.summary_t8.csv" \
    || { echo "error: trace summary differs across --threads" >&2; exit 1; }
  echo "determinism OK: causal trace + summary byte-identical at --threads=1 and 8"
fi

# --- large-N determinism: macro bench at 100k connections ----------------
# bench_scale_macro --determinism prints per-replication final stats plus a
# golden-trace prefix, a pure function of (cells, seed, reps). At the macro
# scale (100k simulated connections, web-heavy and KV workloads) the output
# must be byte-identical across worker-thread counts — the end-to-end guard
# that the pooled/interned steady-state model layer (docs/scale.md)
# preserves the bit-identical-at-any---threads contract.
macro_bin="${BUILD_DIR}/bench/bench_scale_macro"
echo "== bench_scale_macro (large-N determinism, 100k connections) =="
for t in 1 8; do
  "${macro_bin}" --determinism --connections=100000 --reps=2 --seed=77 \
    --threads="${t}" > "${WORK}/macro_det_t${t}.txt"
done
cmp "${WORK}/macro_det_t1.txt" "${WORK}/macro_det_t8.txt" \
  || { echo "error: macro determinism output differs across --threads" >&2; \
       exit 1; }
echo "determinism OK: 100k-connection stats + trace prefix byte-identical" \
     "at --threads=1 and 8 ($(wc -l < "${WORK}/macro_det_t1.txt") lines)"

# --- sharded scale-out exports + migration spans + determinism ----------
# bench_shard_scaleout at the pinned seed: validate the causal trace and
# require both the routing spans (shard_hop) and the live-rebalance spans
# (shard_move, from the churn cells).
shard_bin="${BUILD_DIR}/bench/bench_shard_scaleout"
shard_trace="${WORK}/shard77.trace.json"
shard_summary="${WORK}/shard77.summary.csv"
echo "== bench_shard_scaleout (scale-out exports, --seed=77) =="
"${shard_bin}" --replications=1 --threads=1 --seed=77 \
  --trace="${shard_trace}" --trace-summary="${shard_summary}" \
  > "${WORK}/shard77.stdout.txt"
validate_trace "${shard_trace}"
for span in shard_hop shard_move migration migrate_batch cutover; do
  grep -q "\"name\":\"${span}\"" "${shard_trace}" \
    || { echo "error: shard trace has no ${span} spans" >&2; exit 1; }
done
echo "shard spans OK: routing + migration spans present"

# Determinism at any --threads is part of the sweep's contract (the ring
# map, migration schedule, and every report number are pure functions of
# the seed), so this one runs unconditionally.
echo "re-running --determinism at --threads=1 and 8 (same seed)..."
for t in 1 8; do
  "${shard_bin}" --determinism --replications=2 --seed=77 \
    --threads="${t}" > "${WORK}/shard_det_t${t}.txt"
done
cmp "${WORK}/shard_det_t1.txt" "${WORK}/shard_det_t8.txt" \
  || { echo "error: shard determinism output differs across --threads" >&2; \
       exit 1; }
echo "determinism OK: shard sweep stats + trace prefix byte-identical" \
     "at --threads=1 and 8 ($(wc -l < "${WORK}/shard_det_t1.txt") lines)"

if [[ "${CHECK_DETERMINISM:-0}" != "0" ]]; then
  echo "re-running shard exports at --threads=8 (same seed)..."
  "${shard_bin}" --replications=1 --threads=8 --seed=77 \
    --trace="${WORK}/shard77.trace_t8.json" \
    --trace-summary="${WORK}/shard77.summary_t8.csv" > /dev/null
  cmp "${shard_trace}" "${WORK}/shard77.trace_t8.json" \
    || { echo "error: shard trace differs across --threads" >&2; exit 1; }
  cmp "${shard_summary}" "${WORK}/shard77.summary_t8.csv" \
    || { echo "error: shard summary differs across --threads" >&2; exit 1; }
  echo "determinism OK: shard trace + summary byte-identical at --threads=1 and 8"
fi

# --- telemetry plane: rollups, alerts, node health (docs/telemetry.md) --
# bench_kv_queries_per_joule with --telemetry/--alerts at the pinned seed:
# the trace must carry alert + health instants, the metrics CSV the
# health.* columns, the telemetry CSV the 4-field rollup schema, and the
# alerts CSV the 7-field schema. The telemetry-enabled trace is also
# pushed through flamegraph.py and trace_analyze.py as the pipeline smoke
# test that the new instant categories are ignored.
tel_csv="${WORK}/kv77.telemetry.csv"
alerts_csv="${WORK}/kv77.alerts.csv"
tel_trace="${WORK}/kv77_tel.trace.json"
tel_metrics="${WORK}/kv77_tel.metrics.csv"
echo "== telemetry plane (--seed=77, --slo-ms=8) =="
"${kv_bin}" --replications=1 --threads=1 --seed=77 --slo-ms=8 \
  --trace="${tel_trace}" --metrics="${tel_metrics}" \
  --telemetry="${tel_csv}" --alerts="${alerts_csv}" \
  > "${WORK}/kv77_tel.stdout.txt"
validate_trace "${tel_trace}"
validate_metrics "${tel_metrics}"
for cat in alert health; do
  grep -q "\"cat\":\"${cat}\"" "${tel_trace}" \
    || { echo "error: telemetry trace has no ${cat} instants" >&2; exit 1; }
done
grep -q ',health\.' "${tel_metrics}" \
  || { echo "error: metrics CSV has no health.* columns" >&2; exit 1; }
echo "instants OK: $(grep -c '"cat":"alert"' "${tel_trace}") alert," \
     "$(grep -c '"cat":"health"' "${tel_trace}") health;" \
     "$(grep -c ',health\.' "${tel_metrics}") health metric rows"

head -n 1 "${tel_csv}" | grep -qx 'series,time_s,metric,value' \
  || { echo "error: bad telemetry CSV header" >&2; exit 1; }
bad="$(tail -n +2 "${tel_csv}" | awk -F, 'NF != 4' | head -n 3)"
if [[ -n "${bad}" ]]; then
  echo "error: malformed telemetry CSV rows:" >&2
  echo "${bad}" >&2
  exit 1
fi
echo "telemetry CSV OK: $(($(wc -l < "${tel_csv}") - 1)) rollup rows"

head -n 1 "${alerts_csv}" \
  | grep -qx 'series,time_s,rule,metric,value,threshold,window_s' \
  || { echo "error: bad alerts CSV header" >&2; exit 1; }
bad="$(tail -n +2 "${alerts_csv}" | awk -F, 'NF != 7' | head -n 3)"
if [[ -n "${bad}" ]]; then
  echo "error: malformed alerts CSV rows:" >&2
  echo "${bad}" >&2
  exit 1
fi
echo "alerts CSV OK: $(($(wc -l < "${alerts_csv}") - 1)) firings"

# Pipeline smoke: the alert/health instants must not break or leak into
# the span-based analyzers.
python3 tools/flamegraph.py "${tel_trace}" -o "${WORK}/kv77_tel.folded"
[[ -s "${WORK}/kv77_tel.folded" ]] \
  || { echo "error: flamegraph.py choked on telemetry trace" >&2; exit 1; }
python3 tools/trace_analyze.py "${tel_trace}" \
  -o "${WORK}/kv77_tel.analysis.txt"
[[ -s "${WORK}/kv77_tel.analysis.txt" ]] \
  || { echo "error: trace_analyze.py choked on telemetry trace" >&2; exit 1; }
echo "pipeline OK: flamegraph + trace_analyze ignore alert/health instants"

# --- open-loop SLO surface: --slo-ms schema + sweep determinism ---------
# The --slo-ms flag must append exactly one under_slo column (0/1) to the
# trace-summary CSV — the default header is pinned above, so existing
# consumers never see it — and print the slo_goodput_per_joule roll-up
# re-derived from exports alone (docs/openloop.md).
slo_summary="${WORK}/kv77_slo.summary.csv"
echo "== --slo-ms trace-summary schema (--seed=77, --slo-ms=8) =="
"${kv_bin}" --replications=1 --threads=1 --seed=77 --slo-ms=8 \
  --trace-summary="${slo_summary}" > "${WORK}/kv77_slo.stdout.txt"
head -n 1 "${slo_summary}" | grep -qx \
  'series,trace_id,root,begin_s,latency_s,spans,complete,joules,under_slo' \
  || { echo "error: bad --slo-ms trace-summary header" >&2; exit 1; }
bad="$(tail -n +2 "${slo_summary}" \
  | awk -F, 'NF != 9 || ($9 != 0 && $9 != 1)' | head -n 3)"
if [[ -n "${bad}" ]]; then
  echo "error: malformed under_slo rows:" >&2
  echo "${bad}" >&2
  exit 1
fi
grep -q 'slo_goodput_per_joule=' "${WORK}/kv77_slo.stdout.txt" \
  || { echo "error: --slo-ms did not print the SLO roll-up" >&2; exit 1; }
under="$(tail -n +2 "${slo_summary}" | awk -F, '$9 == 1' | wc -l)"
total="$(($(wc -l < "${slo_summary}") - 1))"
echo "under_slo column OK: ${under}/${total} rows within the 8 ms bound"

# The open-loop sweep itself (arrival schedules, gate, recorder, energy
# roll-up) is a pure function of the seed at any --threads.
slo_bin="${BUILD_DIR}/bench/bench_slo_openloop"
echo "== bench_slo_openloop (open-loop sweep determinism, --seed=77) =="
for t in 1 8; do
  "${slo_bin}" --determinism --replications=2 --seed=77 \
    --threads="${t}" > "${WORK}/slo_det_t${t}.txt"
done
cmp "${WORK}/slo_det_t1.txt" "${WORK}/slo_det_t8.txt" \
  || { echo "error: open-loop determinism output differs across --threads" >&2; \
       exit 1; }
echo "determinism OK: open-loop sweep stats byte-identical" \
     "at --threads=1 and 8 ($(wc -l < "${WORK}/slo_det_t1.txt") lines)"

echo "OK: trace and metrics exports validate"
