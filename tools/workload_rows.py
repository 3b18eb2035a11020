"""The driver that `pmul_paths.py`, `gcd_paths.py` and `qrat_lanes.py` share:
one table row of counts per benchmark workload.

Each workload runs in a fresh interpreter, so the caches start cold as in
the benchmark.  Its commands come from `perfbench/workloads.py`, each run
through `cli.run_command`, with any `--jobs N` set to `--jobs 1`: `verify
--jobs N` runs its checks in forked worker processes, whose calls no
counter in this process sees.  The outputs do not depend on `--jobs`.
"""
from __future__ import annotations

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

from workloads import WORKLOADS  # noqa: E402


def serial_argvs(name: str, seed: int) -> list[list[str]]:
    """The argv of each command of the workload, with `--jobs 1`."""
    out = []
    for cmd in WORKLOADS[name].commands(seed):
        argv = list(cmd.argv)
        if "--jobs" in argv:
            argv[argv.index("--jobs") + 1] = "1"
        out.append(argv)
    return out


def main(tool: str, doc: str, columns, row) -> int:
    """Print the header of `columns`, then run `tool --one NAME` in a fresh
    interpreter for each chosen workload; that run prints the cells that
    row(argvs) gives for the workload's `serial_argvs`."""
    ap = argparse.ArgumentParser(description=doc.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=13)
    ap.add_argument("--one", choices=sorted(WORKLOADS), help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.one:
        print(f"| {args.one} | " + " | ".join(row(serial_argvs(args.one, args.seed))) + " |")
        return 0
    print("| workload | " + " | ".join(columns) + " |")
    print("|---" * (len(columns) + 1) + "|", flush=True)
    for name in args.workload or list(WORKLOADS):
        subprocess.run([sys.executable, tool, "--one", name, "--seed", str(args.seed)], check=True)
    return 0
