"""Independent oracles for the benchmark's correctness gate.

Nothing here imports qabel.  The program's canonical text output is read
back by a small evaluator over `fractions.Fraction`, and compared with
closed formulas computed directly:

* G_n(x) = (x - b) * prod_{j=1}^{n-1} (q^j x - [n] a - b), G_0 = 1;
* E(w z) = sum_k q^C(k,2) w^k z^k / [k]!.
"""
from __future__ import annotations

import re
from fractions import Fraction

_TOKEN = re.compile(r"\s*(?:(\d+)|([a-z]+)|(.))")


def _tokens(text: str) -> list:
    out = []
    for num, name, op in _TOKEN.findall(text):
        if num:
            out.append(int(num))
        elif name:
            out.append(("name", name))
        elif op:
            out.append(op)
    out.append(None)
    return out


class _Evaluator:
    """Recursive descent over expr := ['-'] term (('+'|'-') term)*,
    term := factor (('*'|'/') factor)*, factor := base ('^' int)?,
    base := int | name | '(' expr ')'."""

    def __init__(self, text: str, point: dict[str, Fraction]):
        self.toks = _tokens(text)
        self.i = 0
        self.point = point
        self.powers: dict[tuple[str, int], Fraction] = {}

    def take(self):
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def expr(self) -> Fraction:
        if self.toks[self.i] == "-":
            self.i += 1
            acc = -self.term()
        else:
            acc = self.term()
        while self.toks[self.i] in ("+", "-"):
            if self.take() == "+":
                acc += self.term()
            else:
                acc -= self.term()
        return acc

    def term(self) -> Fraction:
        acc = self.factor()
        while self.toks[self.i] in ("*", "/"):
            if self.take() == "*":
                acc *= self.factor()
            else:
                acc /= self.factor()
        return acc

    def factor(self) -> Fraction:
        tok = self.toks[self.i]
        if type(tok) is tuple and self.toks[self.i + 1] == "^":
            name, exp = tok[1], self.toks[self.i + 2]
            if type(exp) is not int:
                raise ValueError(f"bad exponent at token {self.i + 2}")
            self.i += 3
            key = (name, exp)
            val = self.powers.get(key)
            if val is None:
                val = self.powers[key] = self.point[name] ** exp
            return val
        base = self.base()
        if self.toks[self.i] == "^":
            self.i += 1
            exp = self.take()
            if type(exp) is not int:
                raise ValueError(f"bad exponent at token {self.i - 1}")
            return base ** exp
        return base

    def base(self) -> Fraction:
        tok = self.take()
        if type(tok) is int:
            return Fraction(tok)
        if type(tok) is tuple:
            return self.point[tok[1]]
        if tok == "(":
            val = self.expr()
            if self.take() != ")":
                raise ValueError(f"unbalanced parenthesis before token {self.i}")
            return val
        raise ValueError(f"unexpected token {tok!r} at {self.i - 1}")


def eval_text(text: str, point: dict[str, Fraction]) -> Fraction:
    """Value of one canonically rendered polynomial at a rational point."""
    ev = _Evaluator(text, point)
    val = ev.expr()
    if ev.toks[ev.i] is not None:
        raise ValueError(f"trailing input at token {ev.i}")
    return val


def parse_indexed_lines(text: str) -> list[str]:
    """Split `k: <poly>` lines into a list indexed by k; checks the indices."""
    out = []
    for k, line in enumerate(text.splitlines()):
        head, sep, body = line.partition(": ")
        if not sep or head != str(k):
            raise ValueError(f"line {k} is not indexed {k}: {line[:40]!r}")
        out.append(body)
    return out


def qint(n: int, q: Fraction) -> Fraction:
    return sum((q ** i for i in range(n)), Fraction(0))


def qfac(n: int, q: Fraction) -> Fraction:
    out = Fraction(1)
    for k in range(1, n + 1):
        out *= qint(k, q)
    return out


def g_family(n: int, p: dict[str, Fraction]) -> Fraction:
    """G_n at the point p, from the product formula."""
    if n == 0:
        return Fraction(1)
    q, x, a, b = p["q"], p["x"], p["a"], p["b"]
    shift = qint(n, q) * a + b
    out = x - b
    for j in range(1, n):
        out *= q ** j * x - shift
    return out


def lagrange_shift(mode: str, n: int, p: dict[str, Fraction]) -> Fraction:
    """The shift s_n in sum_n c_n/[n]! z^n E(s_n z): [n]a, or [n]a + q^n b."""
    q, a, b = p["q"], p["a"], p["b"]
    if mode == "plain":
        return qint(n, q) * a
    if mode == "general":
        return qint(n, q) * a + q ** n * b
    raise ValueError(f"no oracle for mode {mode!r}")


def big_e_coeffs(w: Fraction, order: int, q: Fraction) -> list[Fraction]:
    """The z^k coefficients of E(w z), k = 0..order."""
    return [q ** (k * (k - 1) // 2) * w ** k / qfac(k, q) for k in range(order + 1)]
