from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from qabel.mpoly import MPoly, Monomial, Symbol, dot, mp_arith, mp_coeffs_in, mp_eval_q1, mp_subst
from qabel.qcomb import qint
from qabel.qfield import PoleAtPoint, QRat

X = MPoly.var(Symbol.x)
Y = MPoly.var(Symbol.y)
A = MPoly.var(Symbol.a)
B = MPoly.var(Symbol.b)
Q = QRat.q_power(1)


def qp(k):
    return QRat.q_power(k)


@st.composite
def mpolys(draw):
    terms = draw(st.lists(
        st.tuples(
            st.tuples(*(st.integers(0, 2) for _ in range(5))),
            st.integers(-5, 5),
            st.integers(0, 2),
        ),
        max_size=4,
    ))
    out = MPoly.zero()
    for exps, m, e in terms:
        out = out + MPoly({exps: QRat.from_scalar(m) * qp(e)})
    return out


class TestArith:
    def test_difference_of_squares(self):
        assert mp_arith("mul", X + A, X - A) == X ** 2 - A ** 2

    def test_mul_zero(self):
        assert mp_arith("mul", MPoly.zero(), X + A) == MPoly.zero()

    def test_family_style_product(self):
        # (x - b)(qx - (1+q)a - q^2 b)
        lhs = (X - B) * (X.scale(Q) - A.scale(QRat([1, 1])) - B.scale(qp(2)))
        expected = (
            X.scale(Q) * X
            - (A * X).scale(QRat([1, 1]))
            - (B * X).scale(QRat([0, 1, 1]))
            + (A * B).scale(QRat([1, 1]))
            + (B * B).scale(qp(2))
        )
        assert lhs == expected

    def test_pow(self):
        assert mp_arith("pow", X + A, 2) == X ** 2 + (X * A).scale(2) + A ** 2
        p = X - A.scale(Q) + 2
        folded = MPoly.one()
        for n in range(8):
            assert p ** n == folded
            folded = folded * p

    def test_sub_is_add_of_negation(self):
        p = X - A.scale(Q) + 2
        r = QRat([1, -1], [3, 1])
        assert p - r == p + (-r)
        assert r - p == r + (-p)
        assert Fraction(1, 3) - p == Fraction(1, 3) + (-p)

    def test_sub_of_foreign_type_is_type_error(self):
        with pytest.raises(TypeError, match=r"unsupported operand type\(s\) for -:"):
            X - object()

    def test_scale(self):
        assert mp_arith("scale", X, QRat([1, 1])) == X + X.scale(Q)
        # A scalar operand on either side of * scales, and one left of - subtracts.
        p = X + A.scale(Q)
        for c in (3, Fraction(1, 2), qint(3)):
            assert p * c == c * p == p.scale(c)
        assert 3 - p == -(p - 3)


class TestSubst:
    def test_constant_substitution(self):
        p = X.scale(QRat([1, 1]))
        v = (A + B).scale(qp(-1))
        assert mp_subst(p, Symbol.x, v) == (A + B).scale(QRat([1, 1]) * qp(-1))

    def test_shifted_product_at_zero(self):
        # (y + x)(y + qx)(y + q^2 x) at y = 0 collapses to q^3 x^3
        p = (Y + X) * (Y + X.scale(Q)) * (Y + X.scale(qp(2)))
        assert mp_subst(p, Symbol.y, MPoly.zero()) == (X ** 3).scale(qp(3))

    def test_subst_is_ring_hom_concrete(self):
        p, r = X + A, X * B - A
        v = B + A
        assert mp_subst(p * r, Symbol.x, v) == mp_subst(p, Symbol.x, v) * mp_subst(r, Symbol.x, v)

    def test_subst_many_is_simultaneous(self):
        # a <- q a together with b <- b + a must not rescale the fresh a
        p = A + B
        out = p.subst_many({Symbol.a: A.scale(Q), Symbol.b: B + A})
        assert out == A.scale(Q) + B + A


class TestEvalQ1:
    def test_simple(self):
        p = MPoly.const(QRat([1, 1, 1]))
        assert mp_eval_q1(p) == MPoly.const(3)

    def test_pole(self):
        p = MPoly.const(QRat([1], [1, -1]))
        with pytest.raises(PoleAtPoint):
            mp_eval_q1(p)

    def test_cancelling_pole_is_fine(self):
        p = X.scale(QRat([1, 0, -1], [1, -1]))  # (1-q^2)/(1-q) == 1 + q
        assert mp_eval_q1(p) == X.scale(2)


class TestCoeffsIn:
    def test_constant(self):
        assert mp_coeffs_in(MPoly.const(7), Symbol.x) == [MPoly.const(7)]

    def test_pure_power(self):
        out = mp_coeffs_in(X ** 3, Symbol.x)
        assert out == [MPoly.zero(), MPoly.zero(), MPoly.zero(), MPoly.one()]

    def test_recombination(self):
        p = (X + A) * (X.scale(Q) - B) + Y
        parts = mp_coeffs_in(p, Symbol.x)
        total = MPoly.zero()
        for d, c in enumerate(parts):
            total = total + c * X ** d
        assert total == p

    def test_degree_two_family_member(self):
        one_plus_q = QRat([1, 1])
        g2 = (X - B) * (X.scale(Q) - A.scale(one_plus_q) - B)
        assert mp_coeffs_in(g2, Symbol.x) == [
            (A * B).scale(one_plus_q) + B ** 2,
            (A + B).scale(-one_plus_q),
            MPoly.const(Q),
        ]


class TestRendering:
    def test_graded_lex_descending(self):
        p = (X ** 2).scale(Q) - (A * X + B * X).scale(QRat([1, 1])) \
            + (A * B).scale(QRat([1, 1])) + B ** 2
        assert str(p) == "q*x^2 - (q + 1)*x*a - (q + 1)*x*b + (q + 1)*a*b + b^2"

    def test_exponent_one_omitted(self):
        assert str(X * Y ** 2) == "x*y^2"

    def test_zero(self):
        assert str(MPoly.zero()) == "0"

    def test_unit_coefficient_omitted(self):
        assert str(X - Y) == "x - y"

    def test_constant_fraction(self):
        assert str(MPoly.const(QRat([1], [0, 1]))) == "1/q"


class TestMonomial:
    def test_exponents_view_drops_zeros(self):
        mono = Monomial((2, 0, 1, 0, 0))
        assert mono.exponents == {Symbol.x: 2, Symbol.a: 1}

    def test_terms_view(self):
        p = X ** 2 + A
        keys = list(p.terms)
        assert keys[0] == Monomial((2, 0, 0, 0, 0))


@given(mpolys(), mpolys(), mpolys())
def test_subst_ring_hom(p, r, v):
    lhs = mp_subst(p * r, Symbol.x, v)
    rhs = mp_subst(p, Symbol.x, v) * mp_subst(r, Symbol.x, v)
    assert lhs == rhs


@given(mpolys())
def test_coeffs_in_recombines(p):
    parts = mp_coeffs_in(p, Symbol.a)
    total = MPoly.zero()
    for d, c in enumerate(parts):
        assert c.free_of(Symbol.a)
        total = total + c * MPoly.var(Symbol.a) ** d
    assert total == p


@given(st.lists(st.tuples(*[st.one_of(st.just(MPoly.zero()), mpolys())] * 2), max_size=5))
@example([])
@example([(MPoly.zero(), X + A), (X - B, Y), (X, MPoly.zero()), (-X, Y)])
def test_dot_is_the_sum_of_products(pairs):
    acc = MPoly.zero()
    for u, v in pairs:
        acc = acc + u * v
    assert dot(pairs) == acc
    point = {s: Fraction(i + 2, 3) for i, s in enumerate(Symbol)}
    at = Fraction(5, 7)
    assert dot(pairs).eval_at(at, point) == sum(u.eval_at(at, point) * v.eval_at(at, point) for u, v in pairs)


@given(mpolys(), mpolys())
def test_add_commutes(p, r):
    assert p + r == r + p


@pytest.mark.parametrize(
    "scalar, element",
    [
        (0, QRat.from_scalar(0)),
        (1, QRat.from_scalar(1)),
        (Fraction(1, 2), QRat.from_scalar(Fraction(1, 2))),
        (0, MPoly.zero()),
        (1, MPoly.one()),
        (Fraction(1, 2), MPoly.const(Fraction(1, 2))),
        (Q, MPoly.const(Q)),
    ],
)
def test_hash_agrees_with_equality(scalar, element):
    assert element == scalar
    assert hash(element) == hash(scalar)
    assert scalar in {element} and element in {scalar}
