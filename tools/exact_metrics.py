#!/usr/bin/env python3
"""Compares the exact metrics of two experiment reports (schema redep-bench/v1).

    exact_metrics.py CHECKED_IN FRESH

A metric is exact when its name contains none of `secs`, `_ms`, `per_sec`,
`speedup`: counts, placement values and the like, which a seeded run
reproduces bit for bit on any machine. Every exact metric present in both
reports must be equal. Either path may be `-` for stdin, e.g.

    git show HEAD:BENCH_algorithms.json | exact_metrics.py - BENCH_algorithms.json

Prints each difference and exits 1 when there is one, or when the reports
share no exact metric at all (a renamed metric must not pass vacuously).
"""
import json
import sys

TIMED = ("secs", "_ms", "per_sec", "speedup")


def metrics(path):
    with (sys.stdin if path == "-" else open(path)) as f:
        return json.load(f)["metrics"]


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__.split("\n\n")[1])
    checked_in, fresh = (metrics(p) for p in sys.argv[1:])
    shared = sorted(
        k for k in checked_in if k in fresh and not any(t in k for t in TIMED)
    )
    differ = [k for k in shared if checked_in[k] != fresh[k]]
    for k in differ:
        print(f"{k}: checked in {checked_in[k]!r}, fresh {fresh[k]!r}")
    if not shared:
        print("no exact metric in common")
        sys.exit(1)
    print(f"{len(shared) - len(differ)} of {len(shared)} exact metrics equal")
    sys.exit(1 if differ else 0)


if __name__ == "__main__":
    main()
