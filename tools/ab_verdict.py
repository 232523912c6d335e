#!/usr/bin/env python3
"""Measures and judges the pairs that tools/ab.sh runs.

    ab_verdict.py e2e WORKLOAD PERFBENCH SECONDS > side.json
    ab_verdict.py pair SUITE BASE.json CHANGE.json >> pairs.tsv
    ab_verdict.py verdict pairs.tsv

`e2e` runs one perfbench e2e job of the PERFBENCH binary through
perfbench/run.py's own `end_to_end`, so its metrics are the ones run.py
prints (best-of host times, per-seed medians of the simulated metrics)
and its replications pass run.py's replication and fingerprint checks. It
prints the metrics, the replications and the failed checks as one JSON
object.

`pair` reads one invocation of each side: an `e2e` object (SUITE is its
workload) or a google-benchmark JSON file (bench_engine_micro,
bench_scale_macro; SUITE unused). A missing file counts as an empty one.
It prints one line per measurement, "name<TAB>base<TAB>change", with "-"
for a side that lacks it. A benchmark's value is its invocation's best
repetition, the highest items_per_second. A workload also gets the line
"WORKLOAD.outputs_identical<TAB>1<TAB>1", whose change reads 0 when the
two sides' replications of a seed differ or the change failed a check.

`verdict` reads those lines, one per pair in pair order, and prints per
name both sides' medians, the median of the per-pair changes, the pairs
the change won and lost, the sign test's p-value, the bound and both
sides' quartiles [Q1, Q3], so a gain can be read against the base's
spread. A name regressed when its median per-pair change is worse than
its bound and the change lost so many of the pairs that differ that a
fair coin does so with probability at most ALPHA (one-sided sign test).
An outputs_identical name regressed if any pair reads 0. The exit status
is 1 if any name regressed.
"""

import argparse
import importlib.util
import json
import math
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    # perfbench metrics keep their BENCHMARK.json direction and bound.
    E2E = {m["name"]: m for m in json.load(f)["end_to_end"]}
# Every other measurement is items per second: higher is better.
BENCH_BOUND = 0.20
# The untraced scheduler path, which every run pays for the tracer's hook
# point, must stay in the noise. ab.sh runs it in OBS_PAIRS times as many
# pairs: on a shared 4-CPU host the change/base ratio of one pair of
# identical binaries has a standard deviation of ~16%, so a sign test
# needs ~40 pairs to tell a ~10% loss from that noise.
OBS_BOUND = 0.02
OBS_BENCHMARKS = ("BM_SchedulerEventThroughput/100000",)
OBS_PAIRS = 4
# The largest sign-test p-value that still counts as a loss. With fewer
# than 5 pairs that differ, no loss can reach it.
ALPHA = 0.05
IDENTICAL = "outputs_identical"


def e2e(workload, exe, seconds):
    path = os.path.join(ROOT, "perfbench", "run.py")
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    args = argparse.Namespace(workload=workload, seed=run.DEFAULT_SEED,
                              seconds=float(seconds), tiny=False)
    expected = run.load_fingerprint(run.FINGERPRINT).get(workload)
    out, metrics, _, _, failures, _ = run.end_to_end(exe, args, expected)
    json.dump({"metrics": {m: metrics[m][0] for m in E2E},
               "reps": out["reps"], "failures": failures}, sys.stdout)
    print()


def load(path):
    if not os.path.isfile(path):
        return {}
    with open(path) as f:
        return json.load(f)


def values(suite, out):
    if "metrics" in out:
        return {"%s.%s" % (suite, m): v for m, v in out["metrics"].items()}
    best = {}
    for b in out.get("benchmarks", []):
        if b.get("run_type") == "aggregate" or "items_per_second" not in b:
            continue
        name = b.get("run_name", b["name"])
        best[name] = max(best.get(name, -math.inf), b["items_per_second"])
    return best


def identical(base, change):
    """Whether both sides simulated the same outputs for every seed."""
    if "reps" not in change or change["failures"]:
        return False
    bs = {r["seed"]: r for r in base.get("reps", [])}
    cs = {r["seed"]: r for r in change["reps"]}
    seeds = bs.keys() & cs.keys()
    return bool(seeds) and all(bs[s] == cs[s] for s in seeds)


def pair(suite, base_path, change_path):
    base, change = load(base_path), load(change_path)
    bv, cv = values(suite, base), values(suite, change)
    for name in sorted(bv.keys() | cv.keys()):
        print("\t".join([name] + [repr(side[name]) if name in side else "-"
                                  for side in (bv, cv)]))
    if "reps" in base or "reps" in change:
        print("%s.%s\t1\t%d" % (suite, IDENTICAL, identical(base, change)))


def bound_and_sign(name):
    """(bound, +1 if higher is better else -1) for a measurement name."""
    metric = name.rpartition(".")[2]
    if metric in E2E:
        better = E2E[metric]["better"]
        return E2E[metric]["bound"], 1 if better == "higher" else -1
    return (OBS_BOUND if name in OBS_BENCHMARKS else BENCH_BOUND), 1


def gain(b, c, sign):
    """The change's relative gain over the base in one pair (< 0: loss)."""
    if c == b:
        return 0.0
    if b == 0:
        return math.copysign(math.inf, sign * (c - b))
    return sign * (c - b) / abs(b)


def sign_test(lost, n):
    """P(a fair coin loses at least `lost` of `n` pairs)."""
    return sum(math.comb(n, k) for k in range(lost, n + 1)) / 2 ** n


def quartiles(xs):
    """'[Q1, Q3]' of one side's values (inclusive method, as numpy's)."""
    xs = list(xs)
    q1, _, q3 = (statistics.quantiles(xs, n=4, method="inclusive")
                 if len(xs) > 1 else xs * 3)
    return "[%.4g, %.4g]" % (q1, q3)


def verdict(path):
    pairs = {}
    with open(path) as f:
        for line in f:
            if not line.strip() or line.startswith("#"):
                continue
            name, b, c = line.split()
            pairs.setdefault(name, []).append(tuple(
                None if v == "-" else float(v) for v in (b, c)))

    print("%-42s %10s %10s %8s %5s %5s %6s %6s %21s %21s" % (
        "measurement", "base med", "change med", "paired", "won", "lost",
        "p", "bound", "base [Q1, Q3]", "change [Q1, Q3]"))
    regressed = 0
    for name, sides in pairs.items():
        both = [(b, c) for b, c in sides if b is not None and c is not None]
        if not both:
            print("%-42s only one side measured it" % name)
            continue
        if name.endswith("." + IDENTICAL):
            same = sum(c == b for b, c in both)
            bad = same < len(both)
            regressed += bad
            print("%-42s simulated outputs identical in %d/%d pairs %s" % (
                name, same, len(both), "REGRESSED" if bad else "ok"))
            continue
        bound, sign = bound_and_sign(name)
        gains = [gain(b, c, sign) for b, c in both]
        won = sum(g > 0 for g in gains)
        lost = sum(g < 0 for g in gains)
        p = sign_test(lost, won + lost)
        paired = statistics.median(gains)
        bad = p <= ALPHA and paired < -bound
        regressed += bad
        print("%-42s %10.4g %10.4g %+7.1f%% %2d/%-2d %2d/%-2d %6.3f %5.0f%% "
              "%21s %21s %s"
              % (name, statistics.median(b for b, _ in both),
                 statistics.median(c for _, c in both),
                 100 * sign * paired + 0.0, won, len(both), lost, len(both),
                 p, 100 * bound, quartiles(b for b, _ in both),
                 quartiles(c for _, c in both),
                 "REGRESSED" if bad else "ok"))
    if regressed:
        print("ab: %d of %d measurements regressed" % (regressed, len(pairs)))
        return 1
    print("ab: no regression in %d measurements" % len(pairs))
    return 0


def main(argv):
    if len(argv) == 5 and argv[1] in ("e2e", "pair"):
        (e2e if argv[1] == "e2e" else pair)(*argv[2:])
        return 0
    if len(argv) == 3 and argv[1] == "verdict":
        return verdict(argv[2])
    print(__doc__.split("\n\n")[1], file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
