#!/usr/bin/env python3
"""Summarise and compare benchmark records written by ``run.py --save``.

    python3 perfbench/compare.py BEFORE.json [BEFORE2.json ...] [--vs AFTER.json ...]

For every workload and every metric a run printed, it prints each side's
median and the spread between its quartiles as a share of the median
(``statistics.quantiles``, n=4), and with ``--vs`` the ratio of the
medians, after/before.  Records from different scalar backends
(``Fraction`` against ``gmpy2.mpq``) measure different programs, so mixing
them is refused with exit code 2.
"""

import argparse
import json
import statistics
import sys


def load(paths):
    records = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            records.append(json.load(fh))
    return records


def table(record):
    """Metric -> value: every printed metric, bounded or not."""
    return record.get("table") or {n: m["value"] for n, m in record["metrics"].items()}


def summary(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else 0.0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("before", nargs="+")
    p.add_argument("--vs", nargs="+", default=[], dest="after")
    args = p.parse_args(argv)
    sides = [load(args.before), load(args.after)]
    backends = {r["env"]["backend"] for side in sides for r in side}
    if len(backends) > 1:
        print("refusing to compare records from different backends: %s" % sorted(backends), file=sys.stderr)
        return 2
    workloads = sorted({r["env"]["workload"] for side in sides for r in side})
    for wl in workloads:
        groups = [[r for r in side if r["env"]["workload"] == wl] for side in sides]
        print("== %s (runs: %s; failed: %s)" % (
            wl, "/".join(str(len(g)) for g in groups if g),
            "/".join(str(sum(r["failed"] for r in g)) for g in groups if g)))
        names = [n for g in groups for r in g for n in table(r)]
        for name in dict.fromkeys(names):
            cols = []
            meds = []
            for g in groups:
                vals = [table(r)[name] for r in g if name in table(r)]
                if vals:
                    med, spread = summary(vals)
                    meds.append(med)
                    cols.append("%12.6g  iqr %6.1f%%" % (med, 100 * spread))
            ratio = "  after/before %.3f" % (meds[1] / meds[0]) if len(meds) == 2 and meds[0] else ""
            print("  %-44s %s%s" % (name, "  |  ".join(cols), ratio))
    return 0


if __name__ == "__main__":
    sys.exit(main())
