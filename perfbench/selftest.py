#!/usr/bin/env python3
"""Fast self-test of the benchmark on the tiny geometry (~20 s).

    python3 perfbench/selftest.py

Checks that every metric prints with its unit, that the correctness check
trips on a perturbed fingerprint, and that a zero-window probe executes
only bookkeeping events. Exits non-zero on the first failure.
"""

import json
import os
import subprocess
import sys

import run

# Events a zero-window, no-load probe may execute: the window marks, the
# arrival process's spawn and first delay, and (shard) telemetry ticks.
MAX_PROBE_EVENTS = 8


def fail(message):
    print("selftest FAILED: " + message)
    sys.exit(1)


def bench(*extra):
    cmd = [sys.executable, os.path.join(run.HERE, "run.py"), "--tiny",
           "--seconds", "1"] + list(extra)
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                       text=True, timeout=300)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        fail("%s exited %d" % (" ".join(cmd), p.returncode))
    return lines, json.loads(lines[-1])


def check_prints_units(workload, trace, spec):
    section = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in spec[section]}
    lines, result = bench("--workload", workload, "--trace", str(trace))
    if not result["correct"] or result["failed"] != 0:
        fail("%s trace=%d is not correct: %s" % (workload, trace, lines))
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected:
        fail("%s trace=%d metrics %s != BENCHMARK.json %s"
             % (workload, trace, got, expected))
    printed = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) >= 3:
            printed[parts[0]] = parts[2]
    if not trace:
        expected.update({"sim_error_rate": "fraction",
                         "failed_frac": "fraction"})
    for name, unit in expected.items():
        if printed.get(name) != unit:
            fail("%s trace=%d does not print %s with unit %s"
                 % (workload, trace, name, unit))


def check_fingerprint_trips():
    with open(run.FINGERPRINT) as f:
        fingerprints = json.load(f)
    fingerprints["kv_read_64n/tiny"][0]["p99_ms"] *= 1.001
    os.makedirs(run.BUILD, exist_ok=True)
    path = os.path.join(run.BUILD, "selftest-fingerprint.json")
    with open(path, "w") as f:
        json.dump(fingerprints, f)
    _, result = bench("--workload", "kv_read_64n", "--fingerprint", path)
    os.remove(path)
    if result["correct"] or result["failed"] == 0:
        fail("a perturbed fingerprint passed: %s" % result)
    # Only the perturbed seed's replications fail.
    if result["failed"] >= result["attempted"]:
        fail("every replication failed, not just the perturbed seed's")


def check_probe_events(exe):
    for workload in run.WORKLOADS:
        p = subprocess.run([exe, "--workload=" + workload, "--seed=77",
                            "--job=e2e", "--seconds=0.1", "--tiny"],
                           stdout=subprocess.PIPE, text=True, timeout=120)
        events = json.loads(p.stdout.strip().splitlines()[-1])["setup_events"]
        if p.returncode != 0 or max(events) > MAX_PROBE_EVENTS:
            fail("%s zero-window probe ran %s events" % (workload, events))


def main():
    exe = run.build()
    with open(run.SPEC) as f:
        spec = json.load(f)
    check_probe_events(exe)
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            check_prints_units(workload, trace, spec)
    check_fingerprint_trips()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
