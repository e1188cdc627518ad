#!/usr/bin/env python3
"""Compares two sets of benchmark run records, workload by workload.

    python3 perfbench/compare.py BASE.jsonl CHANGED.jsonl

Each file holds the JSON lines run.py appends to
.bench_build/perfbench/runs/records.jsonl. For every workload and metric it
prints both sides' median and quartiles and the change of the medians. A
workload whose runs were made from different inputs (the input fingerprint
differs for some seed present on both sides) is reported as incomparable,
with no change figure: the generators may have changed, not the engine.
"""

import json
import statistics
import sys


def load(path):
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                r = json.loads(line)
                runs.setdefault((r["workload"], r["trace"]), []).append(r)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    base, changed = load(sys.argv[1]), load(sys.argv[2])
    for key in sorted(set(base) & set(changed)):
        workload, trace = key
        a, b = base[key], changed[key]
        fp_a = {r["seed"]: r["fingerprint"] for r in a}
        fp_b = {r["seed"]: r["fingerprint"] for r in b}
        clash = sorted(s for s in set(fp_a) & set(fp_b) if fp_a[s] != fp_b[s])
        print("== %s (trace %d): %d vs %d runs" % (workload, trace, len(a), len(b)))
        if clash:
            print("   INCOMPARABLE: input fingerprints differ for seeds %s"
                  % ", ".join(map(str, clash)))
        for metric in sorted(a[0]["metrics"]):
            va = [r["metrics"][metric] for r in a if metric in r["metrics"]]
            vb = [r["metrics"][metric] for r in b if metric in r["metrics"]]
            if not va or not vb:
                continue
            qa, qb = quartiles(va), quartiles(vb)
            line = "   %-34s %12.6g [%.6g, %.6g]  %12.6g [%.6g, %.6g]" % (
                metric, qa[1], qa[0], qa[2], qb[1], qb[0], qb[2])
            if not clash and qa[1] != 0:
                line += "  %+.1f%%" % (100.0 * (qb[1] - qa[1]) / qa[1])
            print(line)


if __name__ == "__main__":
    main()
