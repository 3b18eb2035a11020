"""Command-line front end.

Subcommands: verify (run identity checks), poly (print a family member),
expand (Abel-basis coefficients of an expression), lagrange (coefficient
extraction for the built-in series), eval (exact rational evaluation), and
list (registered identities).  Exit codes: 0 all checks passed, 1 any check
failed, 2 usage or parse errors.

The expression language covers integers, the symbols x y a b q, the
operators + - * / ^ with the usual precedence, and the function calls
qnum, qfac, qbinom, qpoch, A, G, B, Bg, w, S, abelc.  Exponents are
nonnegative integer literals and division is only by q-only expressions.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from . import registry
from .abel import FamilyId, abel_expand, abel_poly, lagrange_coeffs
from .mpoly import A, B, MPoly, Symbol, X, Y
from .operators import InvalidIndex
from .qcomb import qbinom, qfac, qint, qpoch
from .qfield import DivisionByZero, PoleAtPoint, QRat
from .registry import CheckResult, UnknownIdentity, WorkerDied
from .series import PowerSeries, ps_exp


class ParseError(ValueError):
    """Syntax error with byte offset and the set of tokens that would fit."""

    def __init__(self, message: str, offset: int, expected: set[str]):
        hint = f" (expected {', '.join(sorted(expected))})" if expected else ""
        super().__init__(f"{message} at offset {offset}{hint}")
        self.message = message
        self.offset = offset
        self.expected = frozenset(expected)

    def __reduce__(self):
        return type(self), (self.message, self.offset, self.expected)


class UnknownFunction(ValueError):
    pass


class ArityError(ValueError):
    pass


class NonScalarDenominator(ArithmeticError):
    """Division by an expression involving x, y, a or b."""


# --------------------------------------------------------------------------
# Expression language.
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class IntLit:
    value: int


@dataclass(frozen=True)
class SymRef:
    name: str


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple["Expr", ...]


Expr = Union[IntLit, SymRef, BinOp, Call]

_SYMBOLS = {"x": X, "y": Y, "a": A, "b": B, "q": MPoly.const(QRat.q_power(1))}

_FAMILY_BY_NAME = {
    "A": FamilyId.A,
    "G": FamilyId.G,
    "B": FamilyId.B_PLAIN,
    "Bg": FamilyId.B_GENERAL,
    "w": FamilyId.W,
    "S": FamilyId.S,
    "abelc": FamilyId.CLASSICAL,
}


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    toks: list[tuple[str, object, int]] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(("INT", int(text[i:j]), i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("NAME", text[i:j], i))
            i = j
            continue
        if ch in "+-*/^(),":
            toks.append(("OP", ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i, set())
    toks.append(("EOF", None, n))
    return toks


class _Parser:
    def __init__(self, toks):
        self.toks = toks
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def advance(self):
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def at_op(self, *ops: str) -> bool:
        kind, value, _ = self.peek()
        return kind == "OP" and value in ops

    def expect_op(self, op: str):
        kind, value, pos = self.peek()
        if kind != "OP" or value != op:
            raise ParseError("unexpected token", pos, {repr(op)})
        return self.advance()

    def expr(self) -> Expr:
        if self.at_op("-"):
            self.advance()
            left: Expr = BinOp("-", IntLit(0), self.term())
        else:
            left = self.term()
        while self.at_op("+", "-"):
            op = self.advance()[1]
            left = BinOp(op, left, self.term())
        return left

    def term(self) -> Expr:
        left = self.factor()
        while self.at_op("*", "/"):
            op = self.advance()[1]
            left = BinOp(op, left, self.factor())
        return left

    def factor(self) -> Expr:
        base = self.base()
        if self.at_op("^"):
            self.advance()
            kind, value, pos = self.peek()
            if kind != "INT":
                raise ParseError("exponent must be an integer literal", pos, {"integer"})
            self.advance()
            return BinOp("^", base, IntLit(value))
        return base

    def base(self) -> Expr:
        kind, value, pos = self.peek()
        if kind == "INT":
            self.advance()
            return IntLit(value)
        if kind == "NAME":
            self.advance()
            if self.at_op("("):
                return self.call(value, pos)
            if value in _SYMBOLS:
                return SymRef(value)
            if value in _CALLS:
                raise ParseError(f"function {value!r} needs arguments", pos, {"("})
            raise ParseError(f"unknown symbol {value!r}", pos, set(_SYMBOLS))
        if kind == "OP" and value == "(":
            self.advance()
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise ParseError("expected a value", pos, {"integer", "symbol", "(", "function"})

    def call(self, name: str, pos: int) -> Expr:
        if name not in _CALLS:
            raise UnknownFunction(f"unknown function {name!r}")
        self.expect_op("(")
        args = [self.expr()]
        while self.at_op(","):
            self.advance()
            args.append(self.expr())
        self.expect_op(")")
        arity = _CALLS[name][0]
        if len(args) != arity:
            raise ArityError(f"{name} takes {arity} argument(s), got {len(args)}")
        return Call(name, tuple(args))


def parse_expr(text: str) -> Expr:
    """Parse the expression language into an abstract syntax tree."""
    parser = _Parser(_tokenize(text))
    tree = parser.expr()
    kind, _, pos = parser.peek()
    if kind != "EOF":
        raise ParseError("unexpected trailing input", pos, {"end of input"})
    return tree


def _index_arg(value: MPoly, what: str, allow_negative: bool = False) -> int:
    if not value.is_constant():
        raise InvalidIndex(f"{what} must be a constant integer")
    c = value.constant_coeff()
    if not c.is_constant():
        raise InvalidIndex(f"{what} must be free of q")
    f = c.as_fraction()
    if f.denominator != 1:
        raise InvalidIndex(f"{what} must be an integer")
    n = int(f)
    if n < 0 and not allow_negative:
        raise InvalidIndex(f"{what} must be nonnegative")
    return n


def _family_call(family: FamilyId):
    return lambda n: abel_poly(family, _index_arg(n, "family index"))


# Each expression function: its arity and the builder applied to its
# evaluated arguments.
_CALLS = {
    "qnum": (1, lambda n: MPoly.const(qint(_index_arg(n, "q-integer index")))),
    "qfac": (1, lambda n: MPoly.const(qfac(_index_arg(n, "q-factorial index")))),
    "qbinom": (2, lambda n, k: MPoly.const(qbinom(_index_arg(n, "upper index"),
                                                   _index_arg(k, "lower index", allow_negative=True)))),
    "qpoch": (2, lambda u, n: qpoch(u, _index_arg(n, "product length"))),
    **{name: (1, _family_call(family)) for name, family in _FAMILY_BY_NAME.items()},
}


def eval_expr(tree: Expr) -> MPoly:
    """Evaluate a parsed expression to a polynomial over the q-field.

    The left spine of a chain of binary operators other than ^ is walked in
    a loop, so a long flat sum or product recurses only into its operands.
    """
    spine = []
    while isinstance(tree, BinOp) and tree.op != "^":
        spine.append(tree)
        tree = tree.left
    out = _eval_leaf(tree)
    for node in reversed(spine):
        out = _binop(node.op, out, eval_expr(node.right))
    return out


def _binop(op: str, left: MPoly, right: MPoly) -> MPoly:
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        if not right.is_constant():
            raise NonScalarDenominator("denominator must be a q-only expression")
        c = right.constant_coeff()
        if c.is_zero():
            raise DivisionByZero("division by zero")
        return left.scale(c.inv())
    raise ValueError(f"unknown operator {op!r}")


def _eval_leaf(tree: Expr) -> MPoly:
    """A literal, a symbol, a power or a call: anything but a spine node."""
    if isinstance(tree, IntLit):
        return MPoly.const(tree.value)
    if isinstance(tree, SymRef):
        return _SYMBOLS[tree.name]
    if isinstance(tree, BinOp):
        return eval_expr(tree.left) ** tree.right.value
    if isinstance(tree, Call):
        return _CALLS[tree.name][1](*[eval_expr(arg) for arg in tree.args])
    raise TypeError(f"not an expression node: {tree!r}")


# --------------------------------------------------------------------------
# Reports.
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Report:
    entries: tuple[CheckResult, ...]
    format: str = "text"

    def render(self) -> str:
        total = len(self.entries)
        passed = sum(1 for e in self.entries if e.passed)
        if self.format == "json":
            payload = {
                "entries": [
                    {
                        "identity": e.identity_id,
                        "params": e.params,
                        "status": e.status,
                        "difference": e.difference,
                        "elapsed_ms": round(e.elapsed * 1000, 3),
                    }
                    for e in self.entries
                ],
                "total": total,
                "passed": passed,
                "failed": total - passed,
            }
            return json.dumps(payload, indent=2) + "\n"
        lines = []
        for e in self.entries:
            params = " ".join(f"{k}={v}" for k, v in e.params.items())
            line = f"{'pass' if e.passed else 'FAIL'}  {e.identity_id}  {params}  ({e.elapsed * 1000:.1f} ms)"
            if e.difference is not None:
                line += f"  difference: {e.difference}"
            lines.append(line)
        lines.append(f"total {total}  passed {passed}  failed {total - passed}")
        return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# Command execution.
# --------------------------------------------------------------------------

class _UsageError(Exception):
    pass


# The lagrange built-in series (--f), each built at a given order, and the
# CLI's names for the library's lagrange modes (--mode).
_SERIES = {
    "e_xz": lambda order: ps_exp("small_e", X, order),
    "E_xz": lambda order: ps_exp("big_E", X, order),
    "E_neg_yz": lambda order: ps_exp("big_E", -Y, order),
    "z": lambda order: PowerSeries.monomial(1, order),
}

_MODES = {"plain": "plain", "general": "general_b", "buermann": "buermann"}


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_arg_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="qabel", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run identity checks")
    p_verify.add_argument("--id", action="append", dest="ids", metavar="ID")
    p_verify.add_argument("--max-n", type=int, default=registry.DEFAULT_MAX_N)
    p_verify.add_argument("--order", type=int, default=registry.DEFAULT_ORDER)
    p_verify.add_argument("--json", action="store_true")
    p_verify.add_argument("--jobs", type=int, default=1)

    p_poly = sub.add_parser("poly", help="print a family polynomial")
    p_poly.add_argument("family", choices=sorted(_FAMILY_BY_NAME))
    p_poly.add_argument("n", type=int)

    p_expand = sub.add_parser("expand", help="Abel-basis coefficients of an expression")
    p_expand.add_argument("expression")

    p_lagrange = sub.add_parser("lagrange", help="coefficient extraction for built-in series")
    p_lagrange.add_argument("--mode", required=True, choices=_MODES)
    p_lagrange.add_argument("--f", required=True, dest="builtin", choices=_SERIES)
    p_lagrange.add_argument("--terms", required=True, type=int)

    p_eval = sub.add_parser("eval", help="exact rational evaluation of an expression")
    p_eval.add_argument("expression")
    p_eval.add_argument("--q", required=True)
    for name in ("x", "y", "a", "b"):
        p_eval.add_argument(f"--{name}")

    sub.add_parser("list", help="list registered identities")
    return parser


def _parse_rational(text: str, what: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise _UsageError(f"{what} must be an integer or p/r rational, got {text!r}") from None


def _cmd_verify(ns) -> tuple[str, int]:
    if ns.ids:
        for identity_id in ns.ids:
            registry.get_identity(identity_id)
    if ns.max_n < 0 or ns.order < 0 or ns.jobs < 1:
        raise _UsageError("--max-n and --order must be nonnegative, --jobs positive")
    results = registry.verify(ns.ids, max_n=ns.max_n, order=ns.order, jobs=ns.jobs)
    report = Report(tuple(results), format="json" if ns.json else "text")
    return report.render(), 0 if all(e.passed for e in results) else 1


def _cmd_poly(ns) -> tuple[str, int]:
    return str(abel_poly(_FAMILY_BY_NAME[ns.family], ns.n)) + "\n", 0


def _numbered(coeffs) -> str:
    """One `k: c` line per coefficient."""
    return "\n".join(f"{k}: {c}" for k, c in enumerate(coeffs)) + "\n"


def _cmd_expand(ns) -> tuple[str, int]:
    return _numbered(abel_expand(eval_expr(parse_expr(ns.expression))).coeffs), 0


def _cmd_lagrange(ns) -> tuple[str, int]:
    if ns.terms < 0:
        raise _UsageError("--terms must be nonnegative")
    return _numbered(lagrange_coeffs(_SERIES[ns.builtin](ns.terms), _MODES[ns.mode], ns.terms)), 0


def _cmd_eval(ns) -> tuple[str, int]:
    poly = eval_expr(parse_expr(ns.expression))
    q0 = _parse_rational(ns.q, "--q")
    values: dict[Symbol, Fraction] = {}
    for name in ("x", "y", "a", "b"):
        given = getattr(ns, name)
        sym = Symbol[name]
        if given is not None:
            values[sym] = _parse_rational(given, f"--{name}")
        elif not poly.free_of(sym):
            raise _UsageError(f"expression uses {name} but --{name} was not given")
    return str(poly.eval_at(q0, values)) + "\n", 0


def _cmd_list(ns) -> tuple[str, int]:
    idents = [registry.get_identity(identity_id) for identity_id in registry.identity_ids()]
    width = max(len(ident.verified) for ident in idents)
    lines = []
    for ident in idents:
        params = ", ".join(ident.params)
        verified = ident.verified.ljust(width)
        lines.append(f"{ident.id:12s} params: {params:8s} verified: {verified} {ident.description}")
    return "\n".join(lines) + "\n", 0


_DISPATCH = {
    "verify": _cmd_verify,
    "poly": _cmd_poly,
    "expand": _cmd_expand,
    "lagrange": _cmd_lagrange,
    "eval": _cmd_eval,
    "list": _cmd_list,
}


def run_command(argv: list[str], stderr=None) -> tuple[str, int]:
    """Execute one CLI invocation; returns (stdout text, exit code).

    Error text goes to stderr (or the supplied stream).  Exit codes: 0 all
    checks passed, 1 a verification entry failed, 2 usage or input errors.
    """
    err = stderr if stderr is not None else sys.stderr
    parser = _build_arg_parser()
    try:
        ns = parser.parse_args(argv)
        return _DISPATCH[ns.command](ns)
    except SystemExit as exc:
        return "", int(exc.code or 0)
    except (_UsageError, NonScalarDenominator, DivisionByZero, PoleAtPoint, UnknownIdentity, ValueError,
            WorkerDied) as exc:
        print(f"error: {exc}", file=err)
        return "", 2
    except RecursionError:
        print("error: input nested too deeply or index too large to evaluate", file=err)
        return "", 2


def main(argv: list[str] | None = None) -> None:
    out, code = run_command(sys.argv[1:] if argv is None else argv)
    if out:
        sys.stdout.write(out)
    raise SystemExit(code)


if __name__ == "__main__":
    main()
