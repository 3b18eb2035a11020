"""Count the `qfield._pmul` calls that take each of its paths, per workload.

    python3 tools/pmul_paths.py [--workload NAME ...] [--seed 13]

Runs each benchmark workload's commands (`perfbench/workloads.py`) through
`cli.run_command` in a fresh interpreter, so the caches start cold as in
the benchmark, with `_pmul` wrapped by a counter that applies `_pmul`'s own
tests in the same order to each call's operands:

    zero        an operand is ()
    unit        an operand is (1,)
    monomial    one operand is c * q**k
    schoolbook  the shorter operand, q-power split off, is below _KRONECKER_MIN
    word        Kronecker with machine-word chunks, packed by `array`
    bytes       Kronecker with wider chunks, packed one coefficient at a time

The wrapper calls the real `_pmul`, so outputs are unchanged; nothing under
`src/` or `perfbench/` is modified.  Prints one row per workload.
"""
from __future__ import annotations

import argparse
import os
import subprocess
import sys
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

from qabel import qfield  # noqa: E402
from qabel.cli import run_command  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

PATHS = ("zero", "unit", "monomial", "schoolbook", "word", "bytes")


def path_of(f, g) -> str:
    if not f or not g:
        return "zero"
    if f == (1,) or g == (1,):
        return "unit"
    f, g = sorted((f[qfield._valuation(f):], g[qfield._valuation(g):]), key=len)
    if len(f) == 1:
        return "monomial"
    if len(f) < qfield._KRONECKER_MIN:
        return "schoolbook"
    w = max(map(abs, f)).bit_length() + max(map(abs, g)).bit_length() + len(f).bit_length() + 1
    return "word" if (w + 7) // 8 in qfield._WORDS else "bytes"


def count_paths(argvs) -> Counter:
    counts = Counter()
    pmul = qfield._pmul

    def counting(f, g):
        counts[path_of(f, g)] += 1
        return pmul(f, g)

    qfield._pmul = counting
    try:
        for argv in argvs:
            run_command(list(argv))
    finally:
        qfield._pmul = pmul
    return counts


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=13)
    ap.add_argument("--one", choices=sorted(WORKLOADS), help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.one:
        counts = count_paths(cmd.argv for cmd in WORKLOADS[args.one].commands(args.seed))
        cells = [f"{counts[p]:,}" for p in PATHS] + [f"{sum(counts.values()):,}"]
        print(f"| {args.one} | " + " | ".join(cells) + " |")
        return 0
    print("| workload | " + " | ".join(PATHS) + " | total |")
    print("|---" * (len(PATHS) + 2) + "|", flush=True)
    for name in args.workload or list(WORKLOADS):
        subprocess.run([sys.executable, __file__, "--one", name, "--seed", str(args.seed)], check=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
