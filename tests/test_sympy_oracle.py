"""QRat arithmetic against sympy, an independent implementation of Q(q).

Each operand is drawn as a pair of Fraction coefficient lists; the same
lists build the QRat and the sympy expression.  A result is right when
sympy cancels its difference with the sympy result to 0, and canonical
when its public num/den views are coprime and the denominator is a
primitive integer polynomial with positive leading coefficient.
sympy is a test-only dependency: without it this module is skipped.
"""
import operator
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, strategies as st

from qabel.qfield import QRat

sympy = pytest.importorskip("sympy")
q = sympy.Symbol("q")

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
