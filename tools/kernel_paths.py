"""Count the calls that take each path of qabel's kernels, per workload.

    python3 tools/kernel_paths.py [--workload NAME ...] [--seed 13]

Runs each benchmark workload's commands (`perfbench/workloads.py`) once
through `cli.run_command`, with every counter below installed, and prints
three tables of one row per workload.  Each workload runs in a child forked
from this process, which has only imported qabel, so the caches start cold
as in the benchmark.  `--jobs N` becomes `--jobs 1`, so every check runs in
the counting process; outputs do not depend on `--jobs`.  The counters call
the real functions, so outputs are unchanged.

`_pmul` calls by path, in the order `_pmul` tests its operands:

    zero        an operand is ()
    unit        an operand is (1,)
    monomial    one operand is a constant c
    window      one operand is c * [m], m equal coefficients
    schoolbook  the shorter operand is below _KRONECKER_MIN
    word        Kronecker with machine-word chunks, packed by `array`
    bytes       Kronecker with wider chunks, packed one coefficient at a time

`_pgcd` calls by path, in the order `_pgcd` tries them:

    unit        an operand is (1,)
    constant    a primitive part is a constant, so its gcd is 1
    equal       the two primitive parts are equal, so either is the gcd
    trivial     the heuristic gcd reads back the candidate 1
    bound       the heuristic gcd, each cofactor proven by the norm bound
    multiply    the heuristic gcd, a cofactor proven by multiplying back
    prs         the heuristic gcd gave up, and the PRS found the gcd

plus `retried`, the evaluation points that failed, over all heuristic gcds,
and `h = 1`, the share of calls whose gcd is 1, whatever the path.  The
heuristic gcd's paths are told apart by the wrappers on `_heu_gcd`,
`_prs_gcd`, `_primitive` (called there once per point, on the read-back)
and `_pmul` (called there only to multiply back).

`QRat` products and sums by lane, after the coercion the operator applies
(differences and quotients count as the sums and products they become):

    zero      an operand is zero, and the other one (or zero) is returned
    laurent   both stored denominators are (1,): values q**v * n, no gcd
    general   any other pair: Henrici's sum or the cross-reduced product

and the calls of `mpoly._packed_dot`, the packed lane that a `dot` of two
or more nonzero pairs tries first, whose integer products and sums no
`QRat` counter sees:

    packed     the lane formed the sum
    general    it fell back: some coefficient is not Laurent
    too wide   it fell back: every coefficient is Laurent, but the sum's
               coefficients need more than a machine word
    pair products   the term-pair products the packed dots formed
"""
from __future__ import annotations

import argparse
import multiprocessing
import os
import sys
from collections import Counter
from concurrent.futures import ProcessPoolExecutor

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

from workloads import WORKLOADS  # noqa: E402

from qabel import mpoly, qfield  # noqa: E402
from qabel.cli import run_command  # noqa: E402

PMUL_PATHS = ("zero", "unit", "monomial", "window", "schoolbook", "word", "bytes")
PGCD_PATHS = ("unit", "constant", "equal", "trivial", "bound", "multiply", "prs")
QRAT_COLUMNS = [(op, lane) for op in ("mul", "add") for lane in ("zero", "laurent", "general")]
QRAT_COLUMNS += [("dot", kind) for kind in ("packed", "general", "too wide", "pair products")]
# (owner, attribute) of every function that `count` wraps; no name repeats.
WRAPPED = [(qfield, name) for name in ("_pmul", "_pgcd", "_heu_gcd", "_prs_gcd", "_primitive")]
WRAPPED += [(qfield.QRat, name) for name in ("__mul__", "__rmul__", "__add__", "__radd__")]
WRAPPED += [(mpoly, "_packed_dot")]


def serial_argvs(name: str, seed: int) -> list[list[str]]:
    """The argv of each command of the workload, with `--jobs 1`."""
    out = []
    for cmd in WORKLOADS[name].commands(seed):
        argv = list(cmd.argv)
        if "--jobs" in argv:
            argv[argv.index("--jobs") + 1] = "1"
        out.append(argv)
    return out


def path_of(f, g) -> str:
    """The path `_pmul`(f, g) takes, by `_pmul`'s own tests in its order."""
    if not f or not g:
        return "zero"
    if f == (1,) or g == (1,):
        return "unit"
    f, g = sorted((f, g), key=len)
    if len(f) == 1:
        return "monomial"
    if f.count(f[0]) == len(f) or g.count(g[0]) == len(g):
        return "window"
    if len(f) < qfield._KRONECKER_MIN:
        return "schoolbook"
    w = max(map(abs, f)).bit_length() + max(map(abs, g)).bit_length() + len(f).bit_length() + 1
    return "word" if qfield._chunk_bytes(w) in qfield._CODES else "bytes"


def lane_of(r, other) -> str | None:
    """The lane of the `QRat` operator on r and other; None when it returns
    NotImplemented."""
    s = qfield._coerce(other)
    if s is NotImplemented:
        return None
    if r.is_zero() or s.is_zero():
        return "zero"
    return "laurent" if r._d == (1,) and s._d == (1,) else "general"


def count(argvs) -> Counter:
    """Run each argv through `run_command` with every function of `WRAPPED`
    wrapped by a counter; the counts are keyed ("pmul", path), ("pgcd",
    path), ("pgcd", "retried"), ("pgcd", "h = 1") and (op, lane) for the
    columns of `QRAT_COLUMNS`.  The real functions are restored on return."""
    counts = Counter()
    call = Counter()  # what the current _pgcd call did inside the heuristic gcd
    real = {name: getattr(owner, name) for owner, name in WRAPPED}

    def pmul(f, g):
        counts["pmul", path_of(f, g)] += 1
        if call["heu"]:
            call["products"] += 1
        return real["_pmul"](f, g)

    def primitive(f):
        if call["heu"]:
            call["points"] += 1
        return real["_primitive"](f)

    def heu_gcd(f, g):
        call["heu"] += 1
        r = real["_heu_gcd"](f, g)
        call["heu"] -= 1
        call["trivial"] += r is not None and r[0] == (1,)
        return r

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
            fp, gp = (qfield._primitive(p)[1] for p in (f, g))
            path = "constant" if len(fp) == 1 or len(gp) == 1 else "equal"
        elif call["trivial"]:
            path = "trivial"
        else:
            path = "multiply" if call["products"] else "bound"
        counts["pgcd", path] += 1
        if call["points"]:
            counts["pgcd", "retried"] += call["points"] - (path != "prs")
        counts["pgcd", "h = 1"] += r[0] == (1,)
        return r

    def lane_counter(op, fn):
        def wrapper(self, other):
            lane = lane_of(self, other)
            if lane:
                counts[op, lane] += 1
            return fn(self, other)
        return wrapper

    def packed_dot(tables):
        out = real["_packed_dot"](tables)
        if out is not None:
            counts["dot", "packed"] += 1
            counts["dot", "pair products"] += sum(len(u) * len(v) for u, v in tables)
        elif all(c._d == (1,) for pair in tables for t in pair for c in t.values()):
            counts["dot", "too wide"] += 1
        else:
            counts["dot", "general"] += 1
        return out

    wrappers = {"_pmul": pmul, "_pgcd": pgcd, "_heu_gcd": heu_gcd, "_prs_gcd": prs_gcd,
                "_primitive": primitive, "_packed_dot": packed_dot}
    wrappers.update((name, lane_counter("mul" if "mul" in name else "add", real[name]))
                    for owner, name in WRAPPED if owner is qfield.QRat)
    for owner, name in WRAPPED:
        setattr(owner, name, wrappers[name])
    try:
        for argv in argvs:
            run_command(argv)
    finally:
        for owner, name in WRAPPED:
            setattr(owner, name, real[name])
    return counts


def count_cold(argvs) -> Counter:
    """`count`(argvs) in a child forked from this process, so the caches
    start as this process left them: cold, when it has run no command.
    A pool on fork starts its worker before its own thread, and this
    process runs no other, so the fork copies no thread's locks."""
    with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("fork")) as pool:
        return pool.submit(count, argvs).result()


def pmul_row(c: Counter) -> list[str]:
    cells = [c["pmul", p] for p in PMUL_PATHS]
    return [f"{n:,}" for n in cells + [sum(cells)]]


def pgcd_row(c: Counter) -> list[str]:
    cells = [c["pgcd", p] for p in PGCD_PATHS]
    total = sum(cells)
    h1 = c["pgcd", "h = 1"] / max(total, 1)
    return [f"{n:,}" for n in cells + [total, c["pgcd", "retried"]]] + [f"{h1:.3f}"]


def qrat_row(c: Counter) -> list[str]:
    return [f"{c[col]:,}" for col in QRAT_COLUMNS]


TABLES = [
    ("`_pmul` calls by path", PMUL_PATHS + ("total",), pmul_row),
    ("`_pgcd` calls by path", PGCD_PATHS + ("total", "retried", "h = 1"), pgcd_row),
    ("`QRat` lanes and `dot` paths", [f"{op} {lane}" for op, lane in QRAT_COLUMNS], qrat_row),
]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=13)
    args = ap.parse_args(argv)
    counts = {name: count_cold(serial_argvs(name, args.seed)) for name in args.workload or list(WORKLOADS)}
    for i, (title, columns, row) in enumerate(TABLES):
        print(("\n" if i else "") + title + "\n")
        print("| workload | " + " | ".join(columns) + " |")
        print("|---" * (len(columns) + 1) + "|")
        for name, c in counts.items():
            print(f"| {name} | " + " | ".join(row(c)) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
