#!/usr/bin/env python3
"""Per-layer diff of two traced benchmark runs.

A traced run (`--trace 1`) writes perfbench/_run/trace-<workload>-seed<N>.json
with the self time and span count of every layer in every phase. Compare two
such files, or two directories of them (matched by workload and seed):

    python3 perfbench/bench_diff.py BEFORE.json AFTER.json
    python3 perfbench/bench_diff.py before_dir/ after_dir/

Phase self times are per traced design of the run that wrote the file, all
repetitions of a repeated phase included; the per-layer metrics count each
phase once per design.
"""

import glob
import json
import os
import sys


def load(path):
    with open(path) as f:
        return json.load(f)


def pairs(a, b):
    if os.path.isdir(a) and os.path.isdir(b):
        for fa in sorted(glob.glob(os.path.join(a, "trace-*.json"))):
            fb = os.path.join(b, os.path.basename(fa))
            if os.path.exists(fb):
                yield load(fa), load(fb)
    else:
        yield load(a), load(b)


def runs(doc):
    """Number of traced iterations behind the file's span totals."""
    return max(1, len({s["run"] for s in doc["spans"]}))


def layers(doc):
    n = runs(doc)
    return {(p["phase"], p["layer"]): (p["self_s"] / n, p["count"] / n) for p in doc["phases"]}


def pct(a, b):
    return "%+7.1f%%" % (100.0 * (b - a) / a) if a else "    new"


def diff(a, b):
    print("== %s (seed %s -> seed %s)" % (a["workload"], a["seed"], b["seed"]))
    print("%-16s %-22s %10s %10s %8s %9s %9s" %
          ("phase", "layer", "self_s A", "self_s B", "delta", "count A", "count B"))
    la, lb = layers(a), layers(b)
    for key in sorted(set(la) | set(lb)):
        (ta, ca), (tb, cb) = la.get(key, (0.0, 0)), lb.get(key, (0.0, 0))
        print("%-16s %-22s %10.4f %10.4f %8s %9.1f %9.1f" % (key + (ta, tb, pct(ta, tb), ca, cb)))
    print()
    print("%-32s %14s %14s %8s" % ("per-layer metric", "A", "B", "delta"))
    ma, mb = a["per_layer"], b["per_layer"]
    for name in sorted(set(ma) | set(mb)):
        va, vb = ma.get(name), mb.get(name)
        if va is None or vb is None:
            print("%-32s %14s %14s" % (name, va, vb))
        else:
            print("%-32s %14.6g %14.6g %8s" % (name, va, vb, pct(va, vb)))
    print()


def main():
    if len(sys.argv) != 3:
        sys.stderr.write(__doc__)
        return 2
    found = False
    for a, b in pairs(sys.argv[1], sys.argv[2]):
        found = True
        diff(a, b)
    if not found:
        sys.stderr.write("bench_diff: no matching trace files\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
