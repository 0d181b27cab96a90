"""Compare two sets of benchmark results, workload by workload.

    python3 bench/compare.py parent.out change.out

Each file holds the captured standard output of `bench/run.py` runs; the
tool reads their `record ...` lines and the bounds in the BENCHMARK.json
next to this directory. Runs are paired by (workload, seed); without common
seeds they are paired in order. For every metric the tool prints each
side's median and quartiles, the share of pairs the change wins (ties
count for neither side) and a verdict:

  improved    at least 10 pairs, the change wins at least 9 in 10 of them
              and the medians differ by more than the parent's own
              quartile spread
  worse       the same rule with the sides swapped
  no worse    the change's median is worse by at most the metric's bound
              from BENCHMARK.json, or every change run beats every parent run
  unresolved  the run-to-run spread is wider than the bound, or the metric
              has no bound (per-layer metrics)
"""

import argparse
import json
import os
import statistics
import sys
from collections import defaultdict

WIN_SHARE = 0.9
MIN_PAIRS = 10


def load_records(path):
    records = []
    with open(path) as fh:
        for line in fh:
            if line.startswith("record "):
                records.append(json.loads(line[len("record "):]))
    return records


def metric_table(records):
    """(workload, trace) -> seed -> {metric: value}."""
    table = defaultdict(dict)
    for rec in records:
        values = rec["per_layer"] if rec["trace"] else rec["end_to_end"]
        table[(rec["workload"], rec["trace"])][rec["seed"]] = values
    return table


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, pairs, higher_is_better, bound):
    sign = 1.0 if higher_is_better else -1.0
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    gain = (cm - pm) * sign
    wins = sum(1 for a, b in pairs if (b - a) * sign > 0)
    losses = sum(1 for a, b in pairs if (b - a) * sign < 0)
    win_share = wins / len(pairs) if pairs else 0.0
    enough = len(pairs) >= MIN_PAIRS
    if enough and wins >= WIN_SHARE * len(pairs) and gain > p3 - p1:
        return "improved", win_share
    if enough and losses >= WIN_SHARE * len(pairs) and -gain > p3 - p1:
        return "worse", win_share
    if bound is None:
        return "unresolved", win_share
    if min(v * sign for v in change) > max(v * sign for v in parent):
        return "no worse", win_share
    spread = max((p3 - p1) / abs(pm), (c3 - c1) / abs(cm)) if pm and cm else float("inf")
    if spread > bound:
        return "unresolved", win_share
    return ("no worse" if -gain <= bound * abs(pm) else "worse"), win_share


def compare(parent_records, change_records, spec):
    kinds = {m["name"]: (m["better"] == "higher", m.get("bound"))
             for m in spec["end_to_end"] + spec["per_layer"]}
    parent, change = metric_table(parent_records), metric_table(change_records)
    rows = []
    for key in sorted(set(parent) & set(change)):
        p_runs, c_runs = parent[key], change[key]
        common = sorted(set(p_runs) & set(c_runs))
        if common:
            pairs_of = [(p_runs[s], c_runs[s]) for s in common]
        else:
            pairs_of = list(zip(p_runs.values(), c_runs.values()))
        for metric, (higher, bound) in kinds.items():
            p_vals = [run[metric] for run in p_runs.values() if metric in run]
            c_vals = [run[metric] for run in c_runs.values() if metric in run]
            if not p_vals or not c_vals:
                continue
            pairs = [(a[metric], b[metric]) for a, b in pairs_of
                     if metric in a and metric in b]
            word, win_share = verdict(p_vals, c_vals, pairs, higher, bound)
            rows.append((key[0], key[1], metric, quartiles(p_vals),
                         quartiles(c_vals), len(p_vals), len(c_vals),
                         win_share, len(pairs), word))
    return rows


def main(argv=None):
    here = os.path.dirname(os.path.abspath(__file__))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    with open(os.path.join(here, "..", "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    rows = compare(load_records(args.parent), load_records(args.change), spec)
    if not rows:
        sys.exit("no workload appears in both files")
    header = (f"{'workload':<17} {'tr':>2} {'metric':<36} "
              f"{'parent median [q1, q3] (n)':<38} {'change median [q1, q3] (n)':<38} "
              f"{'wins':>9}  verdict")
    print(header)
    for workload, trace, metric, p, c, pn, cn, win_share, npairs, word in rows:
        print(f"{workload:<17} {trace:>2} {metric:<36} "
              f"{_cell(p, pn):<38} {_cell(c, cn):<38} "
              f"{win_share:>5.0%} of {npairs:<2} {word}")
    return 0


def _cell(q, n):
    return f"{q[1]:.6g} [{q[0]:.4g}, {q[2]:.4g}] ({n})"


if __name__ == "__main__":
    sys.exit(main())
