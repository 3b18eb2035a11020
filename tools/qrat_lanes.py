"""Count the `QRat` products and sums that take each lane, and the sums
of products that `mpoly.dot` forms on packed integers, per workload.

    python3 tools/qrat_lanes.py [--workload NAME ...] [--seed 13]

Runs each benchmark workload's commands (`perfbench/workloads.py`) through
`cli.run_command` in a fresh interpreter, so the caches start cold as in
the benchmark, and with `--jobs 1`, so every check runs in the counting
process (`workload_rows.py`), with `QRat.__mul__`/`__rmul__` and
`__add__`/`__radd__` wrapped by a counter that sorts each call by its
operands, after the same coercion the operator applies:

    zero      an operand is zero, and the other one (or zero) is returned
    laurent   both stored denominators are (1,): values q**v * n, no gcd
    general   any other pair: Henrici's sum or the cross-reduced product

Differences and quotients are counted as the sums and products they
become.  A `dot` of two or more nonzero pairs first tries the packed lane,
`mpoly._packed_dot`, whose term-pair products and sums are integer
operations that no `QRat` counter sees.  That function is wrapped too, and
each call is counted as

    packed     the lane formed the sum
    general    it fell back: some coefficient is not Laurent
    too wide   it fell back: every coefficient is Laurent, but the sum's
               coefficients need more than a machine word
    pair products   the term-pair products the packed dots formed

The wrappers call the real functions, so outputs are unchanged; nothing
under `src/` or `perfbench/` is modified.  Prints one row per workload.
"""
from __future__ import annotations

import sys
from collections import Counter

from workload_rows import main  # puts src/ and perfbench/ on sys.path

from qabel import mpoly, qfield
from qabel.cli import run_command

LANES = ("zero", "laurent", "general")
COLUMNS = [(op, lane) for op in ("mul", "add") for lane in LANES]
COLUMNS += [("dot", kind) for kind in ("packed", "general", "too wide", "pair products")]


def lane_of(r, other) -> str | None:
    s = qfield._coerce(other)
    if s is NotImplemented:
        return None
    if r.is_zero() or s.is_zero():
        return "zero"
    return "laurent" if r._d == (1,) and s._d == (1,) else "general"


def count_lanes(argvs) -> Counter:
    counts = Counter()
    cls = qfield.QRat
    saved = {name: getattr(cls, name) for name in ("__mul__", "__rmul__", "__add__", "__radd__")}

    def counting(op, fn):
        def wrapper(self, other):
            lane = lane_of(self, other)
            if lane:
                counts[op, lane] += 1
            return fn(self, other)
        return wrapper

    packed_dot = mpoly._packed_dot

    def counting_dot(tables):
        out = packed_dot(tables)
        if out is not None:
            counts["dot", "packed"] += 1
            counts["dot", "pair products"] += sum(len(u) * len(v) for u, v in tables)
        elif all(c._d == (1,) for pair in tables for t in pair for c in t.values()):
            counts["dot", "too wide"] += 1
        else:
            counts["dot", "general"] += 1
        return out

    for name, fn in saved.items():
        setattr(cls, name, counting("mul" if "mul" in name else "add", fn))
    mpoly._packed_dot = counting_dot
    try:
        for argv in argvs:
            run_command(argv)
    finally:
        for name, fn in saved.items():
            setattr(cls, name, fn)
        mpoly._packed_dot = packed_dot
    return counts


def row(argvs) -> list[str]:
    counts = count_lanes(argvs)
    return [f"{counts[c]:,}" for c in COLUMNS]


if __name__ == "__main__":
    sys.exit(main(__file__, __doc__, [f"{op} {lane}" for op, lane in COLUMNS], row))
