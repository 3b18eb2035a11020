"""Count the `qfield._pgcd` calls that take each of its paths, per workload.

    python3 tools/gcd_paths.py [--workload NAME ...] [--seed 13]

Runs each benchmark workload's commands (`perfbench/workloads.py`) through
`cli.run_command` in a fresh interpreter, so the caches start cold as in
the benchmark, and with `--jobs 1`, so every check runs in the counting
process (`workload_rows.py`), with `_pgcd` wrapped by a counter.  Each call falls in one
of these paths, in the order `_pgcd` tries them:

    unit        an operand is (1,)
    constant    a primitive part is a constant, so its gcd is 1
    equal       the two primitive parts are equal, so either is the gcd
    trivial     the heuristic gcd reads back the candidate 1
    bound       the heuristic gcd, each cofactor proven by the norm bound
    multiply    the heuristic gcd, a cofactor proven by multiplying back
    prs         the heuristic gcd gave up, and the PRS found the gcd

Two more columns: `retried`, the evaluation points that failed, over all
heuristic gcds, and `h = 1`, the share of calls whose gcd is 1, whatever
the path.  The heuristic gcd's paths are told apart by wrappers on
`_heu_gcd`, `_prs_gcd`, `_primitive` (called there once per point, on the
read-back) and `_pmul` (called there only to multiply back).  The wrappers call the real
functions, so outputs are unchanged; nothing under `src/` or `perfbench/`
is modified.  Prints one row per workload.
"""
from __future__ import annotations

import sys
from collections import Counter

from workload_rows import main  # puts src/ and perfbench/ on sys.path

from qabel import qfield
from qabel.cli import run_command

PATHS = ("unit", "constant", "equal", "trivial", "bound", "multiply", "prs")


def count_paths(argvs) -> Counter:
    counts = Counter()
    call = Counter()  # what the current _pgcd call did inside the heuristic gcd
    real = {name: getattr(qfield, name) for name in ("_pgcd", "_heu_gcd", "_prs_gcd", "_primitive", "_pmul")}

    def heu_gcd(f, g):
        call["heu"] += 1
        r = real["_heu_gcd"](f, g)
        call["heu"] -= 1
        call["trivial"] += r is not None and r[0] == (1,)
        return r

    def inside(name, key):
        def wrapped(*args):
            if call["heu"]:
                call[key] += 1
            return real[name](*args)
        return wrapped

    def prs_gcd(f, g):
        call["prs"] += 1
        return real["_prs_gcd"](f, g)

    def pgcd(f, g):
        call.clear()
        r = real["_pgcd"](f, g)
        if f == (1,) or g == (1,):
            path = "unit"
        elif call["prs"]:
            path = "prs"
        elif not call["points"]:
            fp, gp = (qfield._primitive(p[qfield._valuation(p):])[1] for p in (f, g))
            path = "constant" if len(fp) == 1 or len(gp) == 1 else "equal"
        elif call["trivial"]:
            path = "trivial"
        else:
            path = "multiply" if call["products"] else "bound"
        counts[path] += 1
        if call["points"]:
            counts["retried"] += call["points"] - (path != "prs")
        counts["h = 1"] += r[0] == (1,)
        return r

    wrappers = {"_pgcd": pgcd, "_heu_gcd": heu_gcd, "_prs_gcd": prs_gcd,
                "_primitive": inside("_primitive", "points"), "_pmul": inside("_pmul", "products")}
    for name, fn in wrappers.items():
        setattr(qfield, name, fn)
    try:
        for argv in argvs:
            run_command(argv)
    finally:
        for name, fn in real.items():
            setattr(qfield, name, fn)
    return counts


def row(argvs) -> list[str]:
    counts = count_paths(argvs)
    total = sum(counts[p] for p in PATHS)
    return [f"{counts[p]:,}" for p in PATHS] + [f"{total:,}", f"{counts['retried']:,}",
                                                f"{counts['h = 1'] / max(total, 1):.3f}"]


if __name__ == "__main__":
    sys.exit(main(__file__, __doc__, PATHS + ("total", "retried", "h = 1"), row))
