#!/usr/bin/env python3
"""Folds a sigprof.c dump into self % / inclusive % per function of one binary.

    fold.py prof.out path/to/binary [--top N] [--callers SUBSTRING]

Addresses are resolved with `nm -C` against the binary's own symbol table
(release builds keep it). A frame outside the binary is libc — malloc, free,
memcpy, the signal trampoline — so a sample's *self* function is the first
frame that resolves, and *inclusive* counts every function once per stack it
appears in. `--callers` lists who called the functions matching SUBSTRING.
Exits 1 when no stack resolves (the CI check that the pair still works).
"""
import argparse
import bisect
import collections
import os
import signal
import subprocess
import sys


def main():
    # Piped into `head`, exit quietly when the reader closes the pipe, as
    # a shell tool does, instead of raising BrokenPipeError on the write.
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("dump")
    ap.add_argument("binary")
    ap.add_argument("--top", type=int, default=30)
    ap.add_argument("--callers", metavar="SUBSTRING")
    args = ap.parse_args()

    binary = os.path.realpath(args.binary)
    nm = subprocess.run(["nm", "-C", "--defined-only", binary], capture_output=True, text=True, check=True)
    symbols = sorted(
        (int(addr, 16), name)
        for addr, kind, name in (line.split(" ", 2) for line in nm.stdout.splitlines() if line.count(" ") >= 2)
        if kind in "tTwW"
    )
    starts = [addr for addr, _ in symbols]

    spans, stacks = [], []
    for line in open(args.dump):
        if line.startswith("M "):
            fields = line.split()
            if len(fields) >= 7 and os.path.realpath(fields[6]) == binary:
                lo, hi = (int(x, 16) for x in fields[1].split("-"))
                spans.append((lo, hi))
        elif line.startswith("S"):
            stacks.append([int(x, 16) for x in line.split()[1:]])
    if not spans:
        sys.exit(f"{binary} is not mapped in {args.dump}")
    # A position-independent executable's first segment has virtual address
    # 0, so its lowest mapping is the load bias; a fixed one has bias 0.
    with open(binary, "rb") as f:
        pie = f.read(18)[16] == 3
    bias = min(lo for lo, _ in spans) if pie else 0

    def resolve(addr):
        if not any(lo <= addr < hi for lo, hi in spans):
            return None
        at = bisect.bisect_right(starts, addr - bias) - 1
        return symbols[at][1] if at >= 0 else None

    self_n, incl_n, callers = collections.Counter(), collections.Counter(), collections.Counter()
    resolved = 0
    for stack in stacks:
        # Every frame above the interrupted one holds a return address.
        names = [n for n in (resolve(a - 1) for a in stack) if n]
        if not names:
            continue
        resolved += 1
        self_n[names[0]] += 1
        incl_n.update(set(names))
        if args.callers:
            for callee, caller in zip(names, names[1:]):
                if args.callers in callee and args.callers not in caller:
                    callers[caller] += 1
    print(f"{len(stacks)} stacks, {resolved} with a frame in {os.path.basename(binary)}")
    if not resolved:
        sys.exit(1)
    for title, table in (("self", self_n), ("inclusive", incl_n)) + ((("callers of " + args.callers, callers),) if args.callers else ()):
        print(f"\n{title:>9} %   function")
        for name, n in table.most_common(args.top):
            print(f"{100.0 * n / resolved:11.1f}   {name}")


if __name__ == "__main__":
    main()
