#!/usr/bin/env python3
"""Checks the benchmark's steadiness the way its acceptance does.

Runs the command of BENCHMARK.json ten times on each workload, each time with
another --seed, and takes for each end-to-end metric the distance between the
first and the third quartile of its ten values (statistics.quantiles, n=4) as
a share of their median. With --sets 2 it does so twice and also compares the
medians of the two sets. A spread must stay within the metric's bound (the
spread of setup_s is reported but not judged); a second median must not be
worse than the first by more than the bound. Aim for spreads below a third of
the bound.

Run from the repository root:

    python3 benchmark/check_spread.py [--sets 2] [--workload NAME ...] [--runs 10]
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds):
    argv = command + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    started = time.monotonic()
    done = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=900)
    wall = time.monotonic() - started
    if done.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit code {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}")
    return {k: v["value"] for k, v in result["metrics"].items()}, wall


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    ok = True
    for workload in workloads:
        medians = []
        for s in range(args.sets):
            # Other seeds in every set, as the driver uses.
            seeds = [100 * s + i + 1 for i in range(args.runs)]
            runs = [run_once(spec["command"], workload, seed, spec["run_seconds"]) for seed in seeds]
            walls = [w for _, w in runs]
            print(f"{workload}  set {s + 1}  seeds {seeds[0]}..{seeds[-1]}  "
                  f"run wall median {statistics.median(walls):.1f} s max {max(walls):.1f} s")
            set_medians = {}
            for metric in spec["end_to_end"]:
                name, bound = metric["name"], metric["bound"]
                values = [m[name] for m, _ in runs]
                q = statistics.quantiles(values, n=4)
                median = statistics.median(values)
                spread = (q[2] - q[0]) / median
                judged = name != "setup_s"
                verdict = "ok" if spread <= bound or not judged else "TOO WIDE"
                if spread > bound / 3 and verdict == "ok" and judged:
                    verdict = "ok (above a third of the bound)"
                ok &= verdict != "TOO WIDE"
                set_medians[name] = median
                print(f"  {name:<14} median {median:>14.4f} {metric['unit']:<6} "
                      f"spread {spread * 100:6.2f} %  bound {bound * 100:4.0f} %  "
                      f"{verdict if judged else 'not judged'}")
            medians.append(set_medians)
        for metric in spec["end_to_end"] if len(medians) > 1 else []:
            name, bound = metric["name"], metric["bound"]
            first, second = medians[0][name], medians[1][name]
            worse = (second - first) / first
            if metric["better"] == "higher":
                worse = -worse
            verdict = "ok" if worse <= bound else "SECOND SET WORSE"
            ok &= verdict == "ok"
            print(f"  {name:<14} second median worse by {worse * 100:6.2f} %  "
                  f"bound {bound * 100:4.0f} %  {verdict}")
    print("steady" if ok else "NOT STEADY")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
