#!/usr/bin/env python3
"""Alternating pairs of two built benchmark binaries on one workload.

    python3 tools/bench_pairs.py PARENT_BIN CHANGE_BIN --workload place-scale \
        --seeds 31-40 [--seconds 10] [--trace 0] [--metric work_per_s]

Each seed runs both binaries once, `--workload W --seed S --seconds N
--trace T`; an odd seed runs the parent first, an even one the change
first. Prints each pair's metric, each side's median and quartiles, how
many pairs the change won (ties count for neither side), and the gap
between the medians against the distance between the parent's quartiles:
a gain is claimed when the change wins at least nine tenths of the pairs
and the gap exceeds that spread. Each side's median of every other
end-to-end metric follows. Exits 1 if any pair differs in `sim_digest`,
`availability` or the failed count, or a run fails.
"""

import argparse
import json
import statistics
import subprocess
import sys

HIGHER_IS_BETTER = {"work_per_s": True, "setup_s": False, "availability": True}


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run(binary, args, seed):
    cmd = [binary, "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    digest = next((l.split()[-1] for l in lines if l.startswith("# sim_digest")), None)
    result = json.loads(lines[-1])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    return {"digest": digest, "failed": result["failed"], "metrics": metrics}


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="e.g. 31-40 or 1,3,5-7")
    ap.add_argument("--seconds", default=10)
    ap.add_argument("--trace", default=0)
    ap.add_argument("--metric", default="work_per_s")
    args = ap.parse_args()
    higher = HIGHER_IS_BETTER.get(args.metric, True)

    parent, change, mismatches = [], [], []
    others = {}
    print(f"{'seed':>5} {'first':>7} {'parent':>14} {'change':>14} {'ratio':>7}")
    for seed in seeds(args.seeds):
        sides = [("parent", args.parent), ("change", args.change)]
        if seed % 2 == 0:
            sides.reverse()
        got = {name: run(binary, args, seed) for name, binary in sides}
        p, c = got["parent"], got["change"]
        for key, a, b in [("sim_digest", p["digest"], c["digest"]),
                          ("availability", p["metrics"].get("availability"),
                           c["metrics"].get("availability")),
                          ("failed", p["failed"], c["failed"])]:
            if a != b:
                mismatches.append(f"seed {seed}: {key} {a} != {b}")
        for key in p["metrics"]:
            if key != args.metric:
                medians = others.setdefault(key, ([], []))
                medians[0].append(p["metrics"][key])
                medians[1].append(c["metrics"].get(key, float("nan")))
        pv, cv = p["metrics"][args.metric], c["metrics"][args.metric]
        parent.append(pv)
        change.append(cv)
        print(f"{seed:>5} {sides[0][0]:>7} {pv:>14.6g} {cv:>14.6g} {cv / pv:>7.3f}")

    wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
    losses = sum((c < p) if higher else (c > p) for p, c in zip(parent, change))
    if len(parent) >= 2:
        (p1, pm, p3), (c1, cm, c3) = quartiles(parent), quartiles(change)
        print(f"parent median {pm:.6g} [{p1:.6g}, {p3:.6g}]")
        print(f"change median {cm:.6g} [{c1:.6g}, {c3:.6g}]  ({cm / pm:.3f}x)")
        gap, spread = (cm - pm) if higher else (pm - cm), p3 - p1
        claim = wins * 10 >= 9 * len(parent) and gap > spread
        print(f"change won {wins} of {len(parent)} pairs ({losses} lost); median gap "
              f"{gap:.6g} against the parent's quartile spread {spread:.6g}: "
              f"{'gain' if claim else 'no claim'}")
    for key, (ps, cs) in sorted(others.items()):
        print(f"{key}: parent median {statistics.median(ps):.6g}, "
              f"change median {statistics.median(cs):.6g}")
    for m in mismatches:
        print("MISMATCH", m)
    sys.exit(1 if mismatches else 0)


if __name__ == "__main__":
    main()
