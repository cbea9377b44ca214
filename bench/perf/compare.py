#!/usr/bin/env python3
"""Compare two benchmark records (run.py --all) against BENCHMARK.json.

    python3 bench/perf/compare.py A.json B.json

Prints one row per (end-to-end metric, workload): the median of each
record, the spread of each (interquartile range over median), B's change
against A in the metric's worse direction, and a verdict:

  ok          B is not worse than A by more than the metric's bound
  regression  B is worse than A by more than the bound
  unresolved  a record's spread exceeds the bound, so a change of that
              size cannot be told from noise (unless every run of B reads
              better than every run of A)

fail_frac (failed / attempted over a workload's runs) gets its own row
per workload; its bound is "no increase". Refuses traced records and
records whose runs do not all share one host fingerprint (exit 2);
exits 1 when any row is a regression.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(path):
    with open(path) as f:
        record = json.load(f)
    if record["trace"]:
        print("%s is a traced record: its metrics are per-layer and carry "
              "no bounds" % path)
        sys.exit(2)
    return record["runs"]


def by_workload(runs):
    grouped = {}
    for run in runs:
        grouped.setdefault(run["workload"], []).append(run)
    return grouped


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def fail_frac(runs):
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    with open(os.path.join(HERE, "..", "..", "BENCHMARK.json")) as f:
        contract = json.load(f)
    a_runs, b_runs = load(sys.argv[1]), load(sys.argv[2])
    prints = {json.dumps(r["fingerprint"], sort_keys=True)
              for r in a_runs + b_runs}
    if len(prints) != 1:
        print("refusing to compare: the runs come from %d host "
              "fingerprints:" % len(prints))
        for p in sorted(prints):
            print("  " + p)
        sys.exit(2)

    a, b = by_workload(a_runs), by_workload(b_runs)
    print("%-16s %-20s %12s %12s %7s %7s %8s %6s  %s" % (
        "metric", "workload", "median A", "median B", "sprdA", "sprdB",
        "worse", "bound", "verdict"))
    regressions = 0
    for metric in contract["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        sign = 1.0 if metric["better"] == "lower" else -1.0
        for workload in sorted(set(a) & set(b)):
            va = [r["metrics"][name]["value"] for r in a[workload]]
            vb = [r["metrics"][name]["value"] for r in b[workload]]
            ma, mb = statistics.median(va), statistics.median(vb)
            worse = sign * (mb - ma) / ma
            all_better = all(sign * (x - y) < 0 for x in vb for y in va)
            if worse > bound:
                verdict = "regression"
                regressions += 1
            elif max(spread(va), spread(vb)) > bound and not all_better:
                verdict = "unresolved"
            else:
                verdict = "ok"
            print("%-16s %-20s %12.6g %12.6g %6.1f%% %6.1f%% %+7.1f%% "
                  "%5.0f%%  %s" % (name, workload, ma, mb,
                                   100 * spread(va), 100 * spread(vb),
                                   100 * worse, 100 * bound, verdict))
    for workload in sorted(set(a) & set(b)):
        fa, fb = fail_frac(a[workload]), fail_frac(b[workload])
        verdict = "regression" if fb > fa else "ok"
        regressions += verdict == "regression"
        print("%-16s %-20s %12.6g %12.6g %7s %7s %8s %6s  %s" % (
            "fail_frac", workload, fa, fb, "", "", "", "none", verdict))
    sys.exit(1 if regressions else 0)


if __name__ == "__main__":
    main()
