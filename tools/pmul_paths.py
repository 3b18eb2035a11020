"""Count the `qfield._pmul` calls that take each of its paths, per workload.

    python3 tools/pmul_paths.py [--workload NAME ...] [--seed 13]

Runs each benchmark workload's commands (`perfbench/workloads.py`) through
`cli.run_command` in a fresh interpreter, so the caches start cold as in
the benchmark, and with `--jobs 1`, so every check runs in the counting
process (`workload_rows.py`).  `_pmul` is wrapped by a counter that applies
`_pmul`'s own tests in the same order to each call's operands:

    zero        an operand is ()
    unit        an operand is (1,)
    monomial    one operand is c * q**k
    window      one operand is c * q**k * [m], m equal coefficients
    schoolbook  the shorter operand, q-power split off, is below _KRONECKER_MIN
    word        Kronecker with machine-word chunks, packed by `array`
    bytes       Kronecker with wider chunks, packed one coefficient at a time

The wrapper calls the real `_pmul`, so outputs are unchanged; nothing under
`src/` or `perfbench/` is modified.  Prints one row per workload.
"""
from __future__ import annotations

import sys
from collections import Counter

from workload_rows import main  # puts src/ and perfbench/ on sys.path

from qabel import qfield
from qabel.cli import run_command

PATHS = ("zero", "unit", "monomial", "window", "schoolbook", "word", "bytes")


def path_of(f, g) -> str:
    if not f or not g:
        return "zero"
    if f == (1,) or g == (1,):
        return "unit"
    f, g = sorted((f[qfield._valuation(f):], g[qfield._valuation(g):]), key=len)
    if len(f) == 1:
        return "monomial"
    if f.count(f[0]) == len(f) or g.count(g[0]) == len(g):
        return "window"
    if len(f) < qfield._KRONECKER_MIN:
        return "schoolbook"
    w = max(map(abs, f)).bit_length() + max(map(abs, g)).bit_length() + len(f).bit_length() + 1
    return "word" if qfield._chunk_bytes(w) in qfield._CODES else "bytes"


def count_paths(argvs) -> Counter:
    counts = Counter()
    pmul = qfield._pmul

    def counting(f, g):
        counts[path_of(f, g)] += 1
        return pmul(f, g)

    qfield._pmul = counting
    try:
        for argv in argvs:
            run_command(argv)
    finally:
        qfield._pmul = pmul
    return counts


def row(argvs) -> list[str]:
    counts = count_paths(argvs)
    return [f"{counts[p]:,}" for p in PATHS] + [f"{sum(counts.values()):,}"]


if __name__ == "__main__":
    sys.exit(main(__file__, __doc__, PATHS + ("total",), row))
