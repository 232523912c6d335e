#!/usr/bin/env python3
"""Builds the perfbench binary, runs one workload and prints its metrics.

    python3 perfbench/run.py --workload kv_read_64n --seed 77 --seconds 20 \
        --trace 0

`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer ones
(README.md defines both). Every replication's outputs are checked; the
last stdout line is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
FINGERPRINT = os.path.join(HERE, "fingerprint.json")
DEFAULT_SEED = 77
WORKLOADS = ("web_closed_100k", "kv_read_64n", "shard_churn_write")
JOB_TIMEOUT_S = 170

def die(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="small geometry (self-test only)")
    p.add_argument("--fingerprint", default=FINGERPRINT,
                   help="simulated outputs expected at the default seed")
    p.add_argument("--write-fingerprint", action="store_true",
                   help="record this run's simulated outputs as the "
                        "fingerprint (default seed only)")
    p.add_argument("--baseline", metavar="FILE",
                   help="also write the result with its host context to "
                        "FILE; refused on a non-Release build or a loaded "
                        "host")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    if args.write_fingerprint and (args.seed != DEFAULT_SEED or args.trace):
        p.error("--write-fingerprint needs --trace 0 and the default seed %d"
                % DEFAULT_SEED)
    return args


def build():
    """Configures (once) and builds the perfbench binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("library sources not found under %s" % ROOT, 2)
    if not os.path.isfile(SPEC):
        die("BENCHMARK.json not found under %s" % ROOT, 2)
    log = sys.stderr
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=Release"] + gen
        if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
            die("cmake configure failed")
    cmd = ["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1)]
    if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
        die("build failed")
    return os.path.join(BUILD, "perfbench")


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        loose = os.path.join(ROOT, ".git", ref)
        if os.path.isfile(loose):
            with open(loose) as f:
                return f.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_context(job_host):
    return {
        "nproc": os.cpu_count(),
        "load1": round(os.getloadavg()[0], 2),
        "build_type": job_host["build_type"],
        "compiler": job_host["compiler"],
        "commit": git_commit(),
    }


def run_job(exe, args, job, out_prefix=None):
    cmd = [exe, "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--job=" + job, "--seconds=%g" % args.seconds]
    if args.tiny:
        cmd.append("--tiny")
    if out_prefix:
        cmd.append("--out-prefix=" + out_prefix)
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=JOB_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("%s job exceeded %d s" % (job, JOB_TIMEOUT_S))
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        die("%s job failed (exit %d)" % (job, p.returncode))
    return json.loads(lines[-1])


def load_fingerprint(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError):
        return {}


def expected_for(fingerprint, sim):
    """The fingerprinted outputs for `sim`'s seed, or None."""
    if fingerprint is None:
        return None
    for entry in fingerprint:
        if entry["seed"] == sim["seed"]:
            return entry
    return {"seed": sim["seed"]}  # not fingerprinted: always a mismatch


def check_replication(workload, sim, reference, expected):
    """Problems with one replication's simulated outputs (empty = correct).

    `reference` is the invocation's first replication: the same seed must
    give the same outputs. `expected` is the committed fingerprint, or None
    when the seed is not the default one.
    """
    problems = []
    for key in ("goodput_per_s", "p99_ms", "work_per_joule"):
        v = sim[key]
        if v is None or not math.isfinite(v) or v <= 0:
            problems.append("%s is %r" % (key, v))
    if sim != reference:
        problems.append("outputs differ from the first replication")
    if workload != "web_closed_100k":
        total = sim["ok"] + sim["failed"] + sim["shed"]
        if sim["offered"] <= 0 or sim["offered"] != total:
            problems.append("offered %d != completed %d + failed %d + shed %d"
                            % (sim["offered"], sim["ok"], sim["failed"],
                               sim["shed"]))
    if workload == "shard_churn_write":
        if not sim["migration_done"] or sim["shards_moved"] <= 0:
            problems.append("join migration did not finish")
        if sim["failed"] != 0:
            problems.append("%d requests failed during the join"
                            % sim["failed"])
    if expected is not None and sim != expected:
        diff = sorted(k for k in set(sim) | set(expected)
                      if sim.get(k) != expected.get(k))
        problems.append("fingerprint mismatch in " + ", ".join(diff))
    return problems


def check_energy(workload, energy, sim):
    problems = []
    total = energy["total"]
    if abs(energy["attributed"] + energy["unattributed"] - total) > 1e-9 * total:
        problems.append("attributed + unattributed joules != integral of P")
    window, report = energy["window"], sim["window_joules"]
    if workload == "web_closed_100k":
        # The ledger also observes the database tier; the report's window
        # energy covers the web and cache tiers only.
        ok = window >= report * (1 - 1e-9)
    else:
        ok = abs(window - report) <= 1e-9 * report
    if not ok:
        problems.append("ledger window joules %r vs report %r"
                        % (window, report))
    return problems


def repro_problems(repro):
    if repro["total"] <= 0 or repro["holds"] != repro["total"]:
        return ["reproduction checks hold %d/%d"
                % (repro["holds"], repro["total"])]
    return []


def end_to_end(exe, args, fingerprint):
    """Host times are the best of the run's samples, not the median: on a
    shared host, co-tenant bursts slow a replication by up to ~1.8x, and a
    run's median moves with the share of it spent in a burst. The best
    sample is the uncontended cost, which is what a code change moves."""
    out = run_job(exe, args, "e2e")
    reps = out["reps"]
    # kv and shard cycle through several seeds per run; each seed's first
    # replication is the reference its later ones must repeat exactly.
    firsts = {}
    for sim in reps:
        firsts.setdefault(sim["seed"], sim)
    failures = []
    for i, sim in enumerate(reps):
        problems = check_replication(args.workload, sim, firsts[sim["seed"]],
                                     expected_for(fingerprint, sim))
        if problems:
            failures.append("replication %d: %s" % (i, "; ".join(problems)))
    repro = repro_problems(out["repro"])
    failed = len(reps) if repro else len(failures)
    sims = list(firsts.values())

    def sim_median(key):
        return statistics.median(s[key] for s in sims)

    over = "median over %d seeds; " % len(sims) if len(sims) > 1 else ""
    metrics = {
        "setup_s": (min(out["setup_s"]), "s",
                    "best of %d setup probes (median %.6g), %d events each"
                    % (len(out["setup_s"]), statistics.median(out["setup_s"]),
                       max(out["setup_events"]))),
        "wall_s": (min(out["wall_s"]), "s",
                   "best of %d replications (median %.6g)"
                   % (len(out["wall_s"]), statistics.median(out["wall_s"]))),
        "peak_rss_mib": (out["peak_rss_mib"], "MiB",
                         "VmHWM after one replication per seed"),
        "sim_goodput_per_s": (sim_median("goodput_per_s"), "req/s",
                              over.rstrip("; ")),
        "sim_p99_ms": (sim_median("p99_ms"), "ms",
                       "%ssamples %s" % (over, "/".join(
                           str(s["p99_samples"]) for s in sims))),
        "sim_work_per_joule": (sim_median("work_per_joule"), "req/J",
                               over.rstrip("; ")),
        "sim_error_rate": (sim_median("error_rate"), "fraction",
                           "%soffered %s" % (over, "/".join(
                               str(s["offered"]) for s in sims))),
        "failed_frac": (failed / len(reps), "fraction",
                        "%d of %d replications" % (failed, len(reps))),
    }
    return out, metrics, len(reps), failed, failures + repro, sims


def traced(exe, args, fingerprint):
    out_dir = os.path.join(BUILD, "out")
    os.makedirs(out_dir, exist_ok=True)
    prefix = os.path.join(out_dir, "%s-seed%d-" % (args.workload, args.seed))
    out = run_job(exe, args, "traced", prefix)
    untraced, tr = out["untraced"], out["traced"]
    failures = []
    problems = check_replication(args.workload, untraced, untraced,
                                 expected_for(fingerprint, untraced))
    if problems:
        failures.append("untraced replication: " + "; ".join(problems))
    same = {k: v for k, v in untraced.items() if k != "events"}
    problems = check_energy(args.workload, out["energy"], tr)
    if {k: v for k, v in tr.items() if k != "events"} != same:
        problems.append("simulated outputs differ from the untraced run")
    if problems:
        failures.append("traced replication: " + "; ".join(problems))
    repro = repro_problems(out["repro"])
    failed = 2 if repro else len(failures)
    for path in out["trace_files"]:
        print("trace: %s" % os.path.relpath(path, ROOT))
    return out, 2, failed, failures + repro


def fmt(value):
    return "%.6g" % value if isinstance(value, float) else str(value)


def main(argv):
    args = parse_args(argv)
    exe = build()
    with open(SPEC) as f:
        spec = json.load(f)
    if args.baseline:
        load, nproc = os.getloadavg()[0], os.cpu_count() or 1
        if load > nproc / 2:
            die("refusing a baseline: load average %.2f > nproc/2 = %g"
                % (load, nproc / 2), 3)

    fingerprints = load_fingerprint(args.fingerprint)
    key = args.workload + ("/tiny" if args.tiny else "")
    expected = None
    if args.seed == DEFAULT_SEED and not args.write_fingerprint:
        expected = fingerprints.get(key)
        if expected is None:
            die("no fingerprint for %s in %s" % (key, args.fingerprint))

    if args.trace:
        out, attempted, failed, failures = traced(exe, args, expected)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = out["layers"]
        shown = {name: (values[name], unit, "") for name, unit in units.items()}
    else:
        out, shown, attempted, failed, failures, sims = end_to_end(
            exe, args, expected)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}

    host = host_context(out["host"])
    print("perfbench %s seed=%d trace=%d host=%s" % (
        args.workload, args.seed, args.trace, json.dumps(host, sort_keys=True)))
    for name, (value, unit, note) in shown.items():
        print("  %-28s %14s %-9s %s" % (name, fmt(value), unit, note))
    for line in failures:
        print("FAILED " + line)
    print("checks: %d of %d replications passed; reproduction %d/%d" % (
        attempted - failed, attempted, out["repro"]["holds"],
        out["repro"]["total"]))

    correct = not failures
    if args.write_fingerprint and correct:
        fingerprints[key] = sims
        with open(args.fingerprint, "w") as f:
            json.dump(fingerprints, f, indent=1, sort_keys=True)
            f.write("\n")
        print("fingerprint: recorded %s in %s" % (key, args.fingerprint))

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": shown[name][0], "unit": unit}
                    for name, unit in units.items()},
    }
    if args.baseline:
        if host["build_type"] != "Release":
            die("refusing a baseline from a %s build" % host["build_type"], 3)
        with open(args.baseline, "w") as f:
            json.dump(dict(result, workload=args.workload, seed=args.seed,
                           seconds=args.seconds, host=host), f, indent=1)
            f.write("\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
