#!/usr/bin/env bash
# Single CI entry point for the repo's non-benchmark gates
# (docs/parallel.md, docs/observability.md):
#
#   1. WIMPY_TSAN smoke — configures/builds a -fsanitize=thread tree and
#      runs the concurrency-sensitive tests (the replication sweep runner
#      and the hw profile registry) under TSan, the guard for the
#      "bit-identical at any --threads" machinery actually being
#      data-race-free.
#   2. WIMPY_ASAN smoke — configures/builds a -fsanitize=address,undefined
#      tree and runs the model-layer tests that exercise the pooled
#      steady-state request path (coroutine frame pool, ring buffers,
#      interned-id fabric tables — docs/scale.md). The frame pool disables
#      itself under ASan so every coroutine frame goes through the real
#      allocator and gets poisoned/unpoisoned individually.
#   3. Debug build + full ctest — every tier-1 and bench build defines
#      NDEBUG, so the library's asserts (the scheduler's clock and slot
#      invariants among them) only run here.
#   4. tools/check_trace.sh — obs export validation: trace-event JSON
#      schema + causal ids + flow arrows, metrics CSV shape, flamegraph
#      folding, the trace_analyze.py seed-77 golden, and (with
#      CHECK_DETERMINISM=1) byte-identical exports across --threads.
#
# tools/check_bench_regression.sh calls this after its performance gate;
# it can also run standalone.
#
# Usage:
#   tools/ci.sh
#   BUILD_DIR=out tools/ci.sh            # tree used by check_trace.sh
#   SKIP_TSAN=1 SKIP_ASAN=1 tools/ci.sh  # skip the sanitizer builds
#   SKIP_DEBUG=1 tools/ci.sh             # skip the assert-enabled build
#   TSAN_BUILD_DIR=build-tsan ASAN_BUILD_DIR=build-asan tools/ci.sh
#   DEBUG_BUILD_DIR=build-debug tools/ci.sh
#   CHECK_DETERMINISM=1 tools/ci.sh      # forwarded to check_trace.sh
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"
TSAN_BUILD_DIR="${TSAN_BUILD_DIR:-build-tsan}"
TSAN_TESTS="${TSAN_TESTS:-replication|profiles_concurrency}"
ASAN_BUILD_DIR="${ASAN_BUILD_DIR:-build-asan}"
# The ASan smoke's test binaries: the one list both the build targets
# and the default ctest filter (exact names) come from.
ASAN_SMOKE=(sim_scheduler_test sim_scheduler_stress_test
            sim_process_test sim_semaphore_test
            sim_fair_share_test sim_frame_pool_test net_fabric_test
            net_tcp_test net_topology_test web_service_test kv_store_test
            kv_failover_test load_openloop_test obs_energy_test
            obs_causal_test obs_telemetry_test shard_experiment_test
            shard_router_test web_server_unit_test obs_metrics_test
            cluster_test mapreduce_job_test)
ASAN_TESTS="${ASAN_TESTS:-^($(IFS='|'; echo "${ASAN_SMOKE[*]}"))\$}"
DEBUG_BUILD_DIR="${DEBUG_BUILD_DIR:-build-debug}"

if [[ "${SKIP_TSAN:-0}" == "0" ]]; then
  echo "== WIMPY_TSAN smoke (SKIP_TSAN=1 to skip) =="
  if [[ ! -f "${TSAN_BUILD_DIR}/CMakeCache.txt" ]]; then
    cmake -B "${TSAN_BUILD_DIR}" -S . -DWIMPY_TSAN=ON \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo
  fi
  # Only the concurrency-sensitive test binaries: a full TSan build of
  # every bench would dominate CI time without adding coverage.
  cmake --build "${TSAN_BUILD_DIR}" -j "$(nproc)" \
    --target sim_replication_test hw_profiles_concurrency_test
  (cd "${TSAN_BUILD_DIR}" && ctest -R "${TSAN_TESTS}" --output-on-failure)
  echo "TSan smoke OK"
else
  echo "== WIMPY_TSAN smoke skipped (SKIP_TSAN=1) =="
fi

if [[ "${SKIP_ASAN:-0}" == "0" ]]; then
  echo
  echo "== WIMPY_ASAN smoke (SKIP_ASAN=1 to skip) =="
  if [[ ! -f "${ASAN_BUILD_DIR}/CMakeCache.txt" ]]; then
    cmake -B "${ASAN_BUILD_DIR}" -S . -DWIMPY_ASAN=ON \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo
  fi
  # The model-layer tests that cover the pooled steady-state request path
  # (scheduler, coroutine frames, semaphores, fair-share, fabric, TCP,
  # web serve, KV store) — the code where pooling bugs would hide — and
  # the frame pool's own test, which asserts the pool is compiled out
  # here, plus
  # the energy attributor, whose ledger outlives the testbeds it observed,
  # the sampled span/residency records that callees borrow by reference
  # (causal tests, traced shard experiment), the arrival driver and
  # run-observation helper, which hold the gate, recorder and nodes by
  # reference across suspensions (open-loop, telemetry, topology tests),
  # the router's serving table, which the kv and shard runs read
  # through chain views held across suspensions (router tests), the
  # web reply awaiter, whose fabric join points into the awaiting
  # connection's frame (web server unit tests), and the metrics
  # registry, whose probes borrow the cluster and the MapReduce testbed
  # for the whole run (metrics, cluster and MapReduce job tests). The
  # scheduler stress test
  # rides along because the pending heap holds every cancelled or
  # rescheduled chain until it reaches the top, and its slots are freed
  # and reused from there.
  cmake --build "${ASAN_BUILD_DIR}" -j "$(nproc)" --target "${ASAN_SMOKE[@]}"
  (cd "${ASAN_BUILD_DIR}" && ctest -R "${ASAN_TESTS}" --output-on-failure)
  echo "ASan smoke OK"
else
  echo "== WIMPY_ASAN smoke skipped (SKIP_ASAN=1) =="
fi

if [[ "${SKIP_DEBUG:-0}" == "0" ]]; then
  echo
  echo "== Debug build + full ctest (SKIP_DEBUG=1 to skip) =="
  if [[ ! -f "${DEBUG_BUILD_DIR}/CMakeCache.txt" ]]; then
    cmake -B "${DEBUG_BUILD_DIR}" -S . -DCMAKE_BUILD_TYPE=Debug
  fi
  cmake --build "${DEBUG_BUILD_DIR}" -j "$(nproc)"
  (cd "${DEBUG_BUILD_DIR}" && ctest -j "$(nproc)" --output-on-failure)
  echo "Debug ctest OK"
else
  echo "== Debug build + full ctest skipped (SKIP_DEBUG=1) =="
fi

echo
echo "== observability export checks =="
BUILD_DIR="${BUILD_DIR}" tools/check_trace.sh

echo
echo "OK: ci.sh gates passed"
