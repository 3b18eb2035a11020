import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from qabel.mpoly import MPoly, Symbol
from qabel.qcomb import (
    binom2, exp_coeffs, exp_powers, powers, qbinom, qfac, qint, qpoch, qpow, qprod, qprod_coeffs,
)
from qabel.qfield import ONE, QRat

X = MPoly.var(Symbol.x)
Y = MPoly.var(Symbol.y)
A = MPoly.var(Symbol.a)
B = MPoly.var(Symbol.b)


def poly(*coeffs):
    return QRat(coeffs)


class TestQInt:
    def test_zero(self):
        assert qint(0) == QRat((0,))

    def test_one(self):
        assert qint(1) == ONE

    def test_three(self):
        assert qint(3) == poly(1, 1, 1)

    def test_matches_quotient_form(self):
        # (1 - q^n)/(1 - q) for a few n, as an independent route
        for n in range(8):
            quotient = QRat([1] + [0] * (n - 1) + [-1] if n else [0], [1, -1])
            assert qint(n) == quotient


class TestQFac:
    def test_base(self):
        assert qfac(0) == ONE

    def test_two(self):
        assert qfac(2) == poly(1, 1)

    def test_three_frozen(self):
        # [1][2][3] = (1+q)(1+q+q^2) multiplied out by hand
        assert qfac(3) == poly(1, 2, 2, 1)

    def test_product_oracle(self):
        acc = ONE
        for j in range(1, 9):
            acc = acc * qint(j)
        assert qfac(8) == acc


class TestQBinom:
    def test_edge(self):
        assert qbinom(5, 0) == ONE
        assert qbinom(5, 5) == ONE
        assert qbinom(5, 6) == QRat((0,))
        assert qbinom(5, -1) == QRat((0,))

    def test_two_one(self):
        assert qbinom(2, 1) == poly(1, 1)

    def test_four_two_frozen(self):
        # cross-checked against the factorial quotient below
        assert qbinom(4, 2) == poly(1, 1, 2, 1, 1)

    @pytest.mark.parametrize("n,k", [(n, k) for n in range(9) for k in range(n + 1)])
    def test_factorial_quotient_oracle(self, n, k):
        assert qbinom(n, k) == qfac(n) / (qfac(k) * qfac(n - k))

    @given(st.integers(0, 10), st.integers(0, 10))
    def test_symmetry(self, n, k):
        if k <= n:
            assert qbinom(n, k) == qbinom(n, n - k)

    @given(st.integers(2, 10), st.integers(1, 9))
    def test_q_pascal(self, n, k):
        if 1 <= k <= n - 1:
            assert qbinom(n, k) == qbinom(n - 1, k - 1) + qpow(k) * qbinom(n - 1, k)

    @pytest.mark.parametrize("n,k", [(n, k) for n in range(7) for k in range(n + 1)])
    def test_q1_limit_is_binomial(self, n, k):
        from math import comb

        assert qbinom(n, k).eval(1) == comb(n, k)


class TestExpWeight:
    @pytest.mark.parametrize("k", range(8))
    def test_weights_invert_the_factorial(self, k):
        one = MPoly.one()
        assert exp_coeffs("small_e", one, k)[k].scale(qfac(k)) == one
        assert exp_coeffs("big_E", one, k)[k].scale(qfac(k)) == MPoly.const(qpow(binom2(k)))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            exp_coeffs("tiny_e", X, 1)
        with pytest.raises(ValueError):
            exp_powers("tiny_e", X, 1)

    def test_powers_are_the_numerators(self):
        assert exp_powers("small_e", X + Y, 3) == [MPoly.one(), X + Y, (X + Y) ** 2, (X + Y) ** 3]
        big = exp_powers("big_E", X + Y, 4)
        assert big[3] == ((X + Y) ** 3).scale(qpow(3))
        assert [p.scale(qfac(k).inv()) for k, p in enumerate(big)] == exp_coeffs("big_E", X + Y, 4)

    def test_powers_multiply_up(self):
        assert powers(X + Y, 0) == [MPoly.one()]
        assert powers(X - Y, 3) == [MPoly.one(), X - Y, (X - Y) ** 2, (X - Y) ** 3]
        assert powers(MPoly.zero(), 2) == [MPoly.one(), MPoly.zero(), MPoly.zero()]

    def test_coeffs_are_weighted_powers(self):
        cs = exp_coeffs("big_E", X + Y, 4)
        assert len(cs) == 5
        assert cs[0] == MPoly.one()
        assert cs[3] == ((X + Y) ** 3).scale(qpow(3) * qfac(3).inv())


def _qprod_by_factors(y, x, n, sign):
    """The shifted product multiplied out one linear factor at a time."""
    step = x if sign == "plus" else -x
    out = MPoly.one()
    for j in range(n):
        out = out * (y + step.scale(qpow(j)))
    return out


# Operands of every shape the product meets: zero, a constant, a monomial,
# two- and three-term sums (one with a negative power of q), and a sum whose
# coefficient 1/(1+q) is not a Laurent polynomial.
OPERANDS = {
    "zero": MPoly.zero(),
    "const": MPoly.const(Fraction(-3, 2)),
    "monomial": (X * A).scale(qpow(2)),
    "two-term": X + A.scale(poly(0, 1)),
    "three-term": Y - X.scale(2) + B.scale(qpow(-1)),
    "non-laurent": A.scale(ONE / poly(1, 1)) + B,
}
OPERAND_PAIRS = [(ny, nx) for ny in OPERANDS for nx in OPERANDS]


class TestQProd:
    @pytest.mark.parametrize("sign", ["plus", "minus"])
    @pytest.mark.parametrize("n", range(8))
    def test_matches_factor_by_factor(self, n, sign):
        for ny, nx in OPERAND_PAIRS:
            y, x = OPERANDS[ny], OPERANDS[nx]
            assert qprod(y, x, n, sign) == _qprod_by_factors(y, x, n, sign), (ny, nx)

    @pytest.mark.parametrize("sign", ["plus", "minus"])
    @pytest.mark.parametrize("n", range(8))
    def test_matches_fraction_product_at_points(self, n, sign):
        rng = random.Random(f"qprod:{n}:{sign}")
        for ny, nx in OPERAND_PAIRS:
            y, x = OPERANDS[ny], OPERANDS[nx]
            p = qprod(y, x, n, sign)
            for _ in range(3):
                q0 = rng.choice([-1, 1]) * Fraction(rng.randint(2, 9), rng.randint(1, 9))
                if q0 == -1:  # the pole of 1/(1+q)
                    q0 = Fraction(-1, 2)
                point = {s: Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for s in Symbol}
                y0, x0 = y.eval_at(q0, point), x.eval_at(q0, point)
                expected = Fraction(1)
                for j in range(n):
                    expected *= y0 + q0 ** j * x0 if sign == "plus" else y0 - q0 ** j * x0
                assert p.eval_at(q0, point) == expected, (ny, nx, q0)

    @pytest.mark.parametrize("n", range(13))
    def test_atom_coefficients_follow_the_q_binomial_theorem(self, n):
        # (Y + X)(Y + qX)...(Y + q^(n-1)X) = sum_k q^(k choose 2) [n k] X^k Y^(n-k):
        # the Gaussian binomial is the oracle here, never inside qprod
        assert qprod_coeffs(n) == tuple(qpow(binom2(k)) * qbinom(n, k) for k in range(n + 1))

    def test_negative_length(self):
        with pytest.raises(ValueError):
            qprod_coeffs(-1)
        with pytest.raises(ValueError):
            qprod(Y, X, -1)

    def test_unknown_sign(self):
        with pytest.raises(ValueError):
            qprod(Y, X, 2, "times")

    def test_empty(self):
        assert qprod(Y, X, 0, "plus") == MPoly.one()

    def test_two_plus(self):
        expected = Y ** 2 + (X * Y).scale(poly(1, 1)) + (X ** 2).scale(qpow(1))
        assert qprod(Y, X, 2, "plus") == expected

    def test_self_minus_vanishes(self):
        assert qprod(Y, Y, 1, "minus") == MPoly.zero()

    @pytest.mark.parametrize("n", range(9))
    def test_y_zero_collapses(self, n):
        out = qprod(Y, X, n, "plus").subst(Symbol.y, MPoly.zero())
        assert out == (X ** n).scale(qpow(binom2(n)))


class TestQPoch:
    def test_empty(self):
        assert qpoch(X, 0) == MPoly.one()

    def test_two(self):
        expected = MPoly.one() - X.scale(poly(1, 1)) + (X ** 2).scale(qpow(1))
        assert qpoch(X, 2) == expected

    def test_at_one_vanishes(self):
        assert qpoch(MPoly.one(), 3) == MPoly.zero()

    def test_negative_length(self):
        with pytest.raises(ValueError):
            qpoch(X, -1)


@given(st.integers(0, 12), st.integers(0, 12))
def test_qint_splits_at_k(n, k):
    if k <= n:
        assert qint(n) == qint(k) + qpow(k) * qint(n - k)


def test_binom2_small_values():
    assert [binom2(n) for n in range(6)] == [0, 0, 1, 3, 6, 10]
