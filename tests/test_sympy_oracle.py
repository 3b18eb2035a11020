"""QRat arithmetic, the gcd in Z[q] and the family polynomials against sympy,
an independent implementation of Q(q) and Z[q].

Each operand is drawn as a pair of Fraction coefficient lists; the same
lists build the QRat and the sympy expression.  A result is right when
sympy cancels its difference with the sympy result to 0, and canonical
when its public num/den views are coprime and the denominator is a
primitive integer polynomial with positive leading coefficient.
`_pgcd` and its two cofactors are compared with sympy's gcd and cofactors
over ZZ on operands that share a planted factor and carry integer contents.  Each family polynomial is
compared, term by term in x, a and b, with sympy's expansion of its
defining product.
sympy is a test-only dependency: without it this module is skipped.
"""
import operator
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, strategies as st

from qabel.abel import FamilyId, abel_poly
from qabel.mpoly import Symbol
from qabel.qfield import QRat, _pgcd

sympy = pytest.importorskip("sympy")
q, x, a, b = sympy.symbols("q x a b")

_coeffs = st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=6), min_size=1, max_size=4)
operands = st.tuples(_coeffs, _coeffs.filter(any))


def _sym_poly(coeffs) -> "sympy.Expr":
    return sum((sympy.Rational(c.numerator, c.denominator) * q**i for i, c in enumerate(coeffs)), sympy.Integer(0))


def ours(pair) -> QRat:
    return QRat(*pair)


def theirs(pair) -> "sympy.Expr":
    num, den = pair
    return _sym_poly(num) / _sym_poly(den)


def check(r: QRat, expected) -> None:
    num, den = r.num.coeffs, r.den.coeffs
    assert sympy.cancel(_sym_poly(num) / _sym_poly(den) - expected) == 0
    assert all(isinstance(c, Fraction) and c.denominator == 1 for c in den)
    ints = [int(c) for c in den]
    assert ints[-1] > 0 and gcd(*ints) == 1
    if not num:
        assert ints == [1]
    else:
        g = sympy.Poly(_sym_poly(num), q, domain="QQ").gcd(sympy.Poly(_sym_poly(den), q, domain="QQ"))
        assert g.degree() == 0


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul, operator.truediv],
                         ids=["add", "sub", "mul", "div"])
@given(operands, operands)
def test_binary_op_matches_sympy(op, a, b):
    if op is operator.truediv:
        assume(any(b[0]))
    check(op(ours(a), ours(b)), op(theirs(a), theirs(b)))


@given(operands, st.integers(-3, 3))
def test_pow_matches_sympy(a, n):
    if n < 0:
        assume(any(a[0]))
    check(ours(a) ** n, theirs(a) ** n)


@given(operands)
def test_construction_matches_sympy(a):
    check(ours(a), theirs(a))


# Nonzero integer polynomials, little endian, trimmed; low zeros plant
# powers of q.
_zpolys = st.lists(st.integers(-20, 20), min_size=1, max_size=5).filter(lambda cs: cs[-1] != 0)
_contents = st.integers(-12, 12).filter(bool)


def _zz(coeffs, k=1) -> "sympy.Poly":
    return sympy.Poly(list(reversed(coeffs)), q, domain="ZZ") * k


def _coeffs(p: "sympy.Poly") -> tuple:
    return tuple(int(c) for c in reversed(p.all_coeffs()))


@given(_zpolys, _zpolys, _zpolys, _contents, _contents)
def test_pgcd_matches_sympy(f, g, h, k1, k2):
    u, v = _zz(f, k1) * _zz(h), _zz(g, k2) * _zz(h)
    assert _pgcd(_coeffs(u), _coeffs(v)) == tuple(_coeffs(p) for p in u.cofactors(v))


def _qint(n):
    return sum((q**i for i in range(n)), sympy.Integer(0))


def _defining_product(family: FamilyId, n: int) -> "sympy.Expr":
    if family is FamilyId.CLASSICAL:
        return (x - b) * (x - b - n * a) ** (n - 1)
    if family is FamilyId.A:
        return (x - b) * sympy.Mul(*(q**j * x - _qint(n) * a - q**n * b for j in range(1, n)))
    if family is FamilyId.G:
        return (x - b) * sympy.Mul(*(q**j * x - _qint(n) * a - b for j in range(1, n)))
    if family is FamilyId.W:
        return sympy.Mul(*(q**j * x - _qint(n) * a - b for j in range(n)))
    return x**n + _qint(n) * a * x ** (n - 1)  # FamilyId.S


_XAB = (Symbol.x, Symbol.a, Symbol.b)


@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("family", [FamilyId.CLASSICAL, FamilyId.A, FamilyId.G, FamilyId.W, FamilyId.S],
                         ids=lambda f: f.value)
def test_family_polynomial_matches_sympy(family, n):
    expected = sympy.Poly(sympy.expand(_defining_product(family, n)), x, a, b)
    theirs = dict(expected.terms())
    ours = {}
    for mono, c in abel_poly(family, n).terms.items():
        e = mono.exponents
        assert set(e) <= set(_XAB)
        ours[tuple(e.get(s, 0) for s in _XAB)] = _sym_poly(c.num.coeffs) / _sym_poly(c.den.coeffs)
    assert set(ours) == set(theirs)
    for exps, c in ours.items():
        assert sympy.cancel(c - theirs[exps]) == 0, exps
