#!/usr/bin/env python3
"""Critical-path/joule profiler over causal trace exports.

Reads a Chrome trace-event JSON written by obs::WriteChromeTrace
(--trace exports) and optionally the per-trace roll-up CSV written by
obs::WriteTraceSummaryCsv (--trace-summary exports), rebuilds each
sampled request/job's span tree from the causal ids the events carry
(args.trace/span/parent), and reports per root-span-name aggregates:

  * trace counts (and how many were cut by the run horizon),
  * latency statistics of the root span,
  * the critical-path latency decomposition — for every trace, a
    backward walk from the root's end attributes each instant of the
    root's latency to exactly one span (the deepest child still
    running), so the per-name totals answer "where did the time go"
    (Table 7's db/cache/serve split, a MapReduce job's map vs reduce
    vs shuffle time),
  * attributed joules per trace when a summary CSV is given.

This is the project's only critical-path walk. Its tie-breaks
(bottleneck child = latest effective end, ties toward the later begin
then the larger span id) and the %.9g float contract of the C++
exporters make the output a pure function of the export. ctest pins it
three ways: tests/data/trace_analyze_ties.json exercises the walk's
rules on a hand-written trace, and the kv and shard seed-77 goldens pin
the whole export chain.

Usage:
    trace_analyze.py TRACE.json [--summary SUMMARY.csv] [-o OUT]
"""

import argparse
import json
import sys


def num(v):
    """C++ exporter float contract: printf %.9g."""
    return "%.9g" % v


class Span:
    __slots__ = ("span_id", "parent_id", "name", "begin", "end",
                 "complete", "children")

    def __init__(self, span_id, parent_id, name, begin):
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.begin = begin
        self.end = begin
        self.complete = False
        self.children = []


def build_trees(events):
    """Rebuilds {trace_id: [Span...]} per pid from one export's events.

    Returns {pid: {trace_id: (spans, root_index)}} with spans sorted by
    (begin, span_id) and children as indices — the same shape
    obs::BuildTraceTrees produces. Exporter-synthesized closes
    (closed_at_horizon) end the span but leave it marked incomplete,
    matching the C++ builder's handling of the in-memory log.
    """
    per_pid = {}
    for e in events:
        if e.get("ph") not in ("B", "E"):
            continue
        # Telemetry-plane instants (cat "alert"/"health") are point
        # events outside any causal span tree; skip them explicitly so
        # a future durationed form can never masquerade as a span.
        if e.get("cat") in ("alert", "health"):
            continue
        args = e.get("args", {})
        trace_id = args.get("trace", 0)
        span_id = args.get("span", 0)
        if trace_id == 0 or span_id == 0:
            continue
        pid = e.get("pid", 0)
        ts = float(e.get("ts", 0.0)) / 1e6  # simulated seconds
        traces = per_pid.setdefault(pid, {})
        spans = traces.setdefault(trace_id, {})
        if e["ph"] == "B":
            spans[span_id] = Span(span_id, args.get("parent", 0),
                                  e.get("name", "?"), ts)
        else:
            span = spans.get(span_id)
            if span is not None:
                span.end = ts
                span.complete = args.get("closed_at_horizon", 0) == 0

    out = {}
    for pid, traces in per_pid.items():
        built = {}
        for trace_id, by_id in traces.items():
            spans = sorted(by_id.values(),
                           key=lambda s: (s.begin, s.span_id))
            index = {s.span_id: i for i, s in enumerate(spans)}
            root = None
            for i, s in enumerate(spans):
                parent = index.get(s.parent_id)
                if s.parent_id != 0 and parent is not None:
                    spans[parent].children.append(i)
                elif root is None:
                    root = i
            built[trace_id] = (spans, root)
        out[pid] = built
    return out


def critical_path(spans, root):
    """[(span_index, begin, end)] tiling [root.begin, root.end] in
    forward time order. Walks backward from the root's end: at each point
    the path descends into the child whose effective end (min(child end,
    current time)) is largest; gaps with no child running are the
    parent's own self time."""
    segments = []

    def walk(si, until):
        s = spans[si]
        t = min(until, s.end)
        while t > s.begin:
            best = None
            best_ce = 0.0
            for ci in s.children:
                c = spans[ci]
                if c.begin >= t:
                    continue
                ce = min(c.end, t)
                if ce <= s.begin:
                    continue
                b = None if best is None else spans[best]
                if (b is None or ce > best_ce or
                        (ce == best_ce and
                         (c.begin > b.begin or
                          (c.begin == b.begin and c.span_id > b.span_id)))):
                    best = ci
                    best_ce = ce
            if best is None:
                segments.append((si, s.begin, t))
                return
            if best_ce < t:
                segments.append((si, best_ce, t))
            walk(best, best_ce)
            t = max(spans[best].begin, s.begin)

    if spans:
        walk(root, spans[root].end)
    segments.reverse()
    return segments


def read_summary(path):
    """{(series, trace_id): joules} from a --trace-summary CSV."""
    joules = {}
    with open(path, "r", encoding="utf-8") as f:
        header = f.readline().strip()
        expected = "series,trace_id,root,begin_s,latency_s,spans,complete,joules"
        if header != expected:
            sys.exit(f"error: unexpected summary header: {header}")
        for line in f:
            parts = line.strip().split(",")
            if len(parts) != 8:
                sys.exit(f"error: malformed summary row: {line.strip()}")
            joules[(int(parts[0]), int(parts[1]))] = float(parts[7])
    return joules


def analyze(doc, joules_by_trace):
    lines = []
    trees = build_trees(doc.get("traceEvents", []))
    for pid in sorted(trees):
        # Group this export's traces by root-span name.
        groups = {}
        for trace_id in sorted(trees[pid]):
            spans, root = trees[pid][trace_id]
            if root is None:
                continue
            groups.setdefault(spans[root].name, []).append(trace_id)
        lines.append(f"pid {pid}: {sum(len(g) for g in groups.values())} "
                     f"traces, {len(groups)} root name(s)")
        for name in sorted(groups):
            ids = groups[name]
            complete = 0
            latency_sum = 0.0
            latency_min = None
            latency_max = None
            decomp = {}
            joules_sum = 0.0
            joules_n = 0
            for trace_id in ids:
                spans, root = trees[pid][trace_id]
                r = spans[root]
                latency = r.end - r.begin
                latency_sum += latency
                latency_min = (latency if latency_min is None
                               else min(latency_min, latency))
                latency_max = (latency if latency_max is None
                               else max(latency_max, latency))
                if all(s.complete for s in spans):
                    complete += 1
                for si, begin, end in critical_path(spans, root):
                    decomp[spans[si].name] = (
                        decomp.get(spans[si].name, 0.0) + (end - begin))
                j = joules_by_trace.get((pid, trace_id))
                if j is not None:
                    joules_sum += j
                    joules_n += 1
            n = len(ids)
            lines.append(f'  root "{name}": count={n} complete={complete}')
            lines.append(
                f"    latency_s mean={num(latency_sum / n)} "
                f"min={num(latency_min)} max={num(latency_max)}")
            total = sum(decomp.values())
            for span_name in sorted(decomp):
                share = 100.0 * decomp[span_name] / total if total > 0 else 0.0
                lines.append(
                    f"    critical_path {span_name}: "
                    f"{num(decomp[span_name])} s ({num(share)}%)")
            if joules_n > 0:
                lines.append(
                    f"    joules mean={num(joules_sum / joules_n)} "
                    f"per_trace_n={joules_n}")
    return "\n".join(lines) + ("\n" if lines else "")


def main():
    parser = argparse.ArgumentParser(
        description="Per-trace critical-path/joule analysis of a causal "
                    "trace export.")
    parser.add_argument("input", help="Chrome trace JSON (--trace export)")
    parser.add_argument("--summary", default=None,
                        help="per-trace roll-up CSV (--trace-summary "
                             "export) for the joules column")
    parser.add_argument("-o", "--output", default="-",
                        help="output file (default stdout)")
    args = parser.parse_args()

    with open(args.input, "r", encoding="utf-8") as f:
        doc = json.load(f)
    joules = read_summary(args.summary) if args.summary else {}

    text = analyze(doc, joules)
    if args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as f:
            f.write(text)


if __name__ == "__main__":
    main()
