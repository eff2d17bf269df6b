#!/usr/bin/env python3
"""Compares two sets of benchmark runs, metric by metric.

Usage, from the root of the repository:

    python3 perfbench/compare.py BASE HEAD

BASE and HEAD are directories (or single files) holding the saved
standard output of perfbench/run.py, one run per file. Runs are grouped by
workload, and traced runs apart from untraced ones. For every
(workload, metric) the script prints each side's median and quartiles
(statistics.quantiles, n=4), the move of the median, and a verdict:

    worse       the median moved the wrong way by more than the bound
    better      the median moved the right way by more than the bound
    same        the move is within the bound
    unresolved  a side's spread, (q3 - q1) / median, exceeds the bound,
                so the move cannot be told from noise (unless every run
                of one side beats every run of the other)
    -           the metric has no bound (per-layer metrics)

Bounds and directions come from BENCHMARK.json; the report-only metrics
below, which some workloads do not produce or always read 0, carry their
own. Exits 1 when any metric is worse, else 0.
"""

import json
import os
import statistics
import sys

# Report-only end-to-end metrics: (unit, better, bound). They are printed by
# every run that has them but kept out of BENCHMARK.json's end_to_end list,
# whose metrics every workload must report and never as 0.
REPORT_ONLY = {
    "commit_ms_p50": ("ms", "lower", 0.25),
    "commit_ms_p90": ("ms", "lower", 0.25),
    "give_up_share": ("ratio", "lower", 0.25),
}


def load_spec():
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                        "BENCHMARK.json")
    with open(path) as f:
        spec = json.load(f)
    rules = dict(REPORT_ONLY)
    for m in spec["end_to_end"]:
        rules[m["name"]] = (m["unit"], m["better"], m["bound"])
    for m in spec["per_layer"]:
        rules[m["name"]] = (m["unit"], m["better"], None)
    return rules


def parse_run(text):
    """(workload, traced, {metric: value}) from one run's stdout, or None
    when the run printed no report."""
    for line in reversed(text.strip().split("\n")):
        if line.startswith('{"report"'):
            report = json.loads(line)["report"]
            values = {name: m["value"] for name, m in report["metrics"].items()}
            return report["workload"], report["trace"], values
    return None


def load_runs(path):
    files = [path] if os.path.isfile(path) else sorted(
        os.path.join(path, f) for f in os.listdir(path))
    runs = {}
    for f in files:
        if not os.path.isfile(f):
            continue
        with open(f) as fh:
            parsed = parse_run(fh.read())
        if parsed is None:
            continue
        workload, traced, values = parsed
        group = runs.setdefault((workload, traced), {})
        for name, v in values.items():
            group.setdefault(name, []).append(v)
    return runs


def summary(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def spread(values):
    med, q1, q3 = summary(values)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(base, head, better, bound):
    """One of worse / better / same / unresolved / - (see module doc)."""
    if bound is None:
        return "-"
    b_med, h_med = statistics.median(base), statistics.median(head)
    sign = 1.0 if better == "higher" else -1.0
    if b_med == 0:
        return "same" if h_med == 0 else ("better" if sign * h_med > 0
                                          else "worse")
    move = sign * (h_med - b_med) / abs(b_med)
    if spread(base) > bound or spread(head) > bound:
        if all(sign * h > sign * b for h in head for b in base):
            return "better"
        if all(sign * h < sign * b for h in head for b in base):
            return "worse"
        return "unresolved"
    if move < -bound:
        return "worse"
    if move > bound:
        return "better"
    return "same"


def compare(base_runs, head_runs, rules):
    """Rows of (workload, traced, metric, unit, base, head, move, verdict)."""
    rows = []
    for key in sorted(set(base_runs) & set(head_runs)):
        base, head = base_runs[key], head_runs[key]
        for name in sorted(set(base) & set(head)):
            unit, better, bound = rules.get(name, ("?", "lower", None))
            b_med, h_med = statistics.median(base[name]), statistics.median(head[name])
            move = (h_med - b_med) / abs(b_med) if b_med else 0.0
            rows.append((key[0], key[1], name, unit, summary(base[name]),
                         summary(head[name]), move,
                         verdict(base[name], head[name], better, bound)))
    return rows


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    rules = load_spec()
    rows = compare(load_runs(argv[0]), load_runs(argv[1]), rules)
    if not rows:
        print("no (workload, metric) pair appears on both sides", file=sys.stderr)
        return 2
    fmt = "%-13s %-5s %-34s %-10s %-36s %-36s %8s  %s"
    print(fmt % ("workload", "trace", "metric", "unit", "base median [q1, q3]",
                 "head median [q1, q3]", "move", "verdict"))
    for workload, traced, name, unit, b, h, move, v in rows:
        cell = lambda s: "%.6g [%.6g, %.6g]" % s
        bound = rules.get(name, (None, None, None))[2]
        print(fmt % (workload, int(traced), name, unit, cell(b), cell(h),
                     "%+.2f%%" % (100 * move),
                     v + ("" if bound is None else " (bound %g)" % bound)))
    return 1 if any(r[7] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
