"""One sha256 per CLI command over its stdout, stderr and exit code.

    python3 tools/outputs.py [--src DIR] > digests.txt

Runs a fixed set of commands in-process with `qabel.cli.run_command`,
importing qabel from DIR (default: this checkout's `src`), and prints one
line per command: the digest, then the command.  The elapsed times that
`verify` prints are masked first, so two runs of the same code print the
same lines.  Run it against two trees and `diff` the outputs: an empty diff
means every command printed the same bytes and exited the same way.

`tests/outputs.sha256` holds this tool's output for the current tree, and
`tests/test_outputs.py` reruns every command against it.  After a
deliberate change of output, or of the command set, re-pin with

    python3 tools/outputs.py > tests/outputs.sha256

and say in the change's notes which commands changed and why.

The set: `verify` as text and as `--json` at the defaults, `verify --json
--max-n 8 --order 10`, `list`, every family at n = 0, 1, 3, 7, `poly G 16`,
every `lagrange` mode and built-in at 7 terms, seven `expand`s and two
`eval`s (among them unary minus and `^` of a q-only base);
then outputs whose coefficients carry a rational scalar beside a
q-denominator, larger `poly` runs (A at 14 and 24, w at 12 and 24), a
shifted `qpoch` expanded and evaluated, and larger `lagrange` runs: every
mode and built-in at 12 terms, `E_xz` at 14, and the series identities 1.5, 4.8,
4.13 and 3.3-vs-3.5 at `--max-n 9 --order 11`; every mode of `z` and
`E_neg_yz` at 16 terms, the benchmark's x-degree-14 `expand` (seed 0 of
`perfbench/workloads.py`'s `seeded_polynomial`) and an `expand` whose
coefficients carry q-denominators; an `expand` with sparse exponents up
to x^24 and a dense one of x-degree 13 over a q-denominator; and an
`expand` and an `eval` whose expression starts with "-", given as its own
token and, for `expand`, also behind "--".  Last comes the error
corpus: usage errors, parse errors, every message of an invalid function
index, evaluation errors, inputs past the interpreter's depth limit, and
an index and an exponent too large for a tuple's length, each of which
must exit 2 with its own `error: ...` line.  The three
`verify --json` commands come once more at the end with `--jobs 2`, run on
worker processes; each must print the same bytes as its in-process twin.
"""
from __future__ import annotations

import argparse
import hashlib
import io
import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FAMILIES = ("A", "B", "Bg", "G", "S", "abelc", "w")
MODES = ("plain", "general", "buermann")
BUILTINS = ("e_xz", "E_xz", "E_neg_yz", "z")
EXPANDS = (
    "x^3", "(x + a)^3", "qbinom(4,2)*x^2 + a*x", "x^4/(1-q)", "G(3) + 2*x", "w(2) - x*qpoch(a,3)",
    "-(x - a)^3 + (1 - q)^2*x",
)
# seeded_polynomial(0, 14) of perfbench/workloads.py, the expand-lagrange workload's input
SEEDED_EXPAND = (
    "-9*a^2 + 4*q^3 - 6*q^3*x + 7*q^3*a^2*b^2*x - 8*a*x^2 - 7*q^3*a*x^2 + 8*q*a*b*x^3 + 7*q^2*a^2*x^3"
    " - 8*q^2*a*b^2*x^4 - 1*a^2*b*x^4 - 2*q^2*a^2*b^2*x^5 + 9*q^3*b*x^5 + 7*q^3*a*b*x^6 + 4*q^2*a*b*x^6"
    " + 1*a^2*x^7 + 3*q*a^2*x^7 + 4*q^2*b^2*x^8 - 8*q^2*a*b*x^8 + 9*a*b*x^9 - 9*q^2*b*x^9 + 9*q*b^2*x^10"
    " + 8*q^3*b*x^10 - 8*q^2*a*x^11 + 7*q^3*a*b*x^11 - 3*q*a*x^12 - 3*a*b*x^12 + 8*a^2*b*x^13"
    " + 9*q^3*a*b^2*x^13 + 4*q^2*a*b*x^14 - 4*q^2*a^2*x^14"
)
USAGE_ERRORS = (
    [], ["frobnicate"], ["verify", "--order", "x"], ["verify", "--jobs", "0"], ["verify", "--max-n", "-1"],
    ["verify", "--id", "99.9"], ["verify", "--id", "99.9", "--max-n", "-1"], ["poly", "H", "2"], ["poly", "G", "-1"],
    ["lagrange", "--mode", "weird", "--f", "z", "--terms", "2"],
    ["lagrange", "--mode", "plain", "--f", "frob", "--terms", "2"],
    ["lagrange", "--mode", "plain", "--f", "z", "--terms", "-1"], ["lagrange", "--mode", "plain", "--f", "z"],
)
PARSE_ERRORS = ("x +", "1 2", "x^a", "x ? 1", "G", "z + 1", "(x", "frob(2)", "qbinom(4)")
INDEX_ERRORS = ("qnum(x)", "qnum(q)", "qnum(1/2)", "qfac(0-1)", "qbinom(0-3,1)", "qpoch(x,0-1)", "G(0-1)")
EVAL_ERRORS = (
    ["expand", "1/x"], ["expand", "x/(1-1)"], ["eval", "x/(1-q)", "--q", "1", "--x", "1"], ["eval", "x + 1", "--q", "1"],
    ["expand", "(" * 2000 + "x" + ")" * 2000], ["eval", "qfac(1500)", "--q", "1"], ["eval", "qbinom(1500,3)", "--q", "1"],
    ["poly", "G", "99999999999999999999"], ["expand", "x^999999999999999999999999999999"],
)

# `(0.3 ms)` in verify's text report, `"elapsed_ms": 0.246` in its JSON.
_ELAPSED = re.compile(r"\(\d+\.\d ms\)|\"elapsed_ms\": [-+.\deE]+")


def commands() -> list[list[str]]:
    cmds = [["verify"], ["verify", "--json"], ["verify", "--json", "--max-n", "8", "--order", "10"], ["list"]]
    cmds += [["poly", f, str(n)] for f in FAMILIES for n in (0, 1, 3, 7)]
    cmds += [["poly", "G", "16"]]
    cmds += [["lagrange", "--mode", m, "--f", f, "--terms", "7"] for m in MODES for f in BUILTINS]
    cmds += [["expand", e] for e in EXPANDS]
    cmds += [["eval", "qbinom(6,3)*x + a/(1+q)", "--q", "2/3", "--x", "3", "--a", "1/2"],
             ["eval", "-(1 - q)^3*x + (a - q)^2", "--q", "2/3", "--x", "3", "--a", "1/2"]]
    cmds += [["expand", "3/7*q^2*x^3 - 5/(2*q-4)*a*x"], ["expand", "(x + a)^4/(1-2*q)"],
             ["eval", "qfac(4)/(2-3*q) + x/6", "--q", "5/3", "--x", "1/2"]]
    cmds += [["poly", "A", "14"], ["poly", "w", "12"]]
    cmds += [["poly", "A", "24"], ["poly", "w", "24"], ["expand", "qpoch(x + a*q, 6)"],
             ["eval", "qpoch(x - a, 7)", "--q", "2/3", "--x", "3", "--a", "1/2"]]
    cmds += [["lagrange", "--mode", m, "--f", "E_xz", "--terms", "12"] for m in MODES]
    cmds += [["lagrange", "--mode", m, "--f", f, "--terms", "12"] for m in MODES for f in ("e_xz", "E_neg_yz", "z")]
    cmds += [["verify", "--json", "--max-n", "9", "--order", "11", "--id", "1.5", "--id", "4.8", "--id", "4.13",
              "--id", "3.3-vs-3.5"]]
    cmds += [["lagrange", "--mode", m, "--f", "E_xz", "--terms", "14"] for m in MODES]
    cmds += [["lagrange", "--mode", m, "--f", f, "--terms", "16"] for m in MODES for f in ("z", "E_neg_yz")]
    cmds += [["expand", SEEDED_EXPAND], ["expand", "x^9*a/(q^2+1) - 3*q*x^4*b + 1/q"]]
    cmds += [["expand", "x^24 + a*x^17 - 2*q*b*x^11"], ["expand", "(x + a)^9*(x - b)^4/(1 + q)"]]
    cmds += [["expand", "-x^2"], ["expand", "--", "-x^2"], ["eval", "-x", "--q", "1", "--x", "2"]]
    cmds += [list(c) for c in USAGE_ERRORS] + [["expand", e] for e in PARSE_ERRORS + INDEX_ERRORS]
    cmds += [list(c) for c in EVAL_ERRORS]
    cmds += [c + ["--jobs", "2"] for c in cmds if c[:2] == ["verify", "--json"]]
    return cmds


def digest(out: str, err: str, code: int) -> str:
    h = hashlib.sha256()
    for part in (out, "\0", err, "\0", str(code)):
        h.update(_ELAPSED.sub("_", part).encode())
    return h.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--src", default=os.path.join(ROOT, "src"), help="directory to import qabel from")
    args = ap.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    from qabel.cli import __file__ as cli_file, run_command

    print(f"qabel imported from {os.path.dirname(cli_file)}", file=sys.stderr)
    for argv_ in commands():
        err = io.StringIO()
        out, code = run_command(argv_, stderr=err)
        print(digest(out, err.getvalue(), code), " ".join(argv_), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
