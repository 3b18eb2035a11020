import random

import pytest
from hypothesis import given, strategies as st

from helpers import random_rational_poly
from qabel.mpoly import MPoly, Symbol
from qabel.operators import (
    DSeries,
    InvalidIndex,
    L_functional,
    Qn_apply,
    V_op,
    delta_op,
    divided_derivative,
    dseries_apply,
    make_exp_dseries,
    pincherle_residual,
    qderiv,
)
from qabel.qcomb import binom2, qfac, qint, qpow
from qabel.qfield import ONE

X = MPoly.var(Symbol.x)
Y = MPoly.var(Symbol.y)
A = MPoly.var(Symbol.a)
B = MPoly.var(Symbol.b)
T = MPoly.var(Symbol.t)

ONE_MINUS_Q = ONE - qpow(1)


def g2():
    # (x - b)(qx - (1+q)a - b) written out
    return (X - B) * (X.scale(qpow(1)) - A.scale(qint(2)) - B)


def w2():
    return (X - A.scale(qint(2)) - B) * (X.scale(qpow(1)) - A.scale(qint(2)) - B)


def bracket_t():
    return (MPoly.one() - T).scale(ONE_MINUS_Q.inv())


class TestQDeriv:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_monomial_rule(self, n):
        assert qderiv(X ** n, Symbol.x) == (X ** (n - 1)).scale(qint(n))

    def test_constant(self):
        assert qderiv(MPoly.const(5), Symbol.x) == MPoly.zero()

    def test_second_derivative_of_g2(self):
        assert qderiv(g2(), Symbol.x, 2) == MPoly.const(qpow(1) * qfac(2))

    def test_kfold_matches_iterated(self):
        p = (X + A) ** 4 * (X - B)
        assert qderiv(p, Symbol.x, 3) == qderiv(qderiv(qderiv(p, Symbol.x), Symbol.x), Symbol.x)

    def test_difference_quotient_agreement(self):
        # (f(x) - f(qx)) / ((1-q) x) on a concrete polynomial
        f = X ** 3 + (X ** 2).scale(qint(2)) + A * X
        fq = f.subst(Symbol.x, X.scale(qpow(1)))
        diff = f - fq
        # divide termwise by (1-q) x
        expected = qderiv(f, Symbol.x)
        rebuilt = MPoly.zero()
        for d, c in enumerate(expected.coeffs_in(Symbol.x)):
            rebuilt = rebuilt + (c * X ** (d + 1)).scale(ONE_MINUS_Q)
        assert rebuilt == diff


class TestDividedDerivative:
    # D^k p / [k]! read off Gaussian binomials against the k-fold derivative,
    # whose q-integers are multiplied out, over [k]!
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_kfold_derivative(self, seed):
        p = random_rational_poly(random.Random(seed), (Symbol.x, Symbol.a, Symbol.b), max_deg=6)
        for v in (Symbol.x, Symbol.a):
            for k in range(p.degree_in(v) + 3):
                assert divided_derivative(p, v, k) == qderiv(p, v, k).scale(qfac(k).inv()), (v, k)

    def test_order_above_degree_is_zero(self):
        assert divided_derivative((X + A) ** 5, Symbol.x, 6) == MPoly.zero()

    def test_monomial_is_gaussian_binomial(self):
        # [7 1] = [7] and [7 2] = [7][6]/[2]
        assert divided_derivative(X ** 7, Symbol.x, 1) == (X ** 6).scale(qint(7))
        assert divided_derivative(X ** 7, Symbol.x, 2) == (X ** 5).scale(qint(7) * qint(6) * qint(2).inv())


@given(st.integers(0, 5), st.integers(0, 5), st.integers(-3, 3), st.integers(-3, 3))
def test_q_leibniz(dp, dr, cp, cr):
    p = (X ** dp).scale(cp) + A
    r = (X ** dr).scale(cr) + B
    lhs = qderiv(p * r, Symbol.x)
    rhs = p * qderiv(r, Symbol.x) + qderiv(p, Symbol.x) * r.subst(Symbol.x, X.scale(qpow(1)))
    assert lhs == rhs


class TestDSeries:
    def test_one_plus_aD_on_w2(self):
        op = DSeries.from_coeffs([MPoly.one(), A])
        assert dseries_apply(op, w2()) == g2()

    def test_exp_translates_x(self):
        c = A + B
        assert dseries_apply(make_exp_dseries("small_e", c), X) == X + c

    def test_operator_form_of_w2(self):
        c = (A.scale(qint(2)) + B).scale(qpow(-1))
        out = dseries_apply(make_exp_dseries("big_E", -c), X ** 2).scale(qpow(binom2(2)))
        assert out == w2()

    @pytest.mark.parametrize("n", range(9))
    def test_big_E_gives_rising_product(self, n):
        from qabel.qcomb import qprod

        out = dseries_apply(make_exp_dseries("big_E", A), Y ** n, Symbol.y)
        assert out == qprod(Y, A, n, "plus")

    def test_zero_exponential_is_identity(self):
        op = make_exp_dseries("small_e", MPoly.zero())
        p = (X + A) ** 3
        assert dseries_apply(op, p) == p

    def test_plain_b_building_block(self):
        out = dseries_apply(make_exp_dseries("small_e", -A.scale(qint(2))), X)
        assert X * out == X ** 2 - (A * X).scale(qint(2))

    @pytest.mark.parametrize("d", range(9))
    def test_exponential_pair_inverts(self, d):
        c = A + B.scale(qpow(2))
        p = X ** d
        out = dseries_apply(make_exp_dseries("big_E", -c), dseries_apply(make_exp_dseries("small_e", c), p))
        assert out == p


class TestFunctionals:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_L_kills_positive_powers(self, n):
        assert L_functional(X ** n) == MPoly.zero()

    @pytest.mark.parametrize("n,k", [(n, k) for n in range(6) for k in range(6)])
    def test_L_of_derivative_powers(self, n, k):
        out = L_functional(qderiv(X ** n, Symbol.x, k))
        assert out == (MPoly.const(qfac(n)) if k == n else MPoly.zero())

    def test_L_keeps_constant_part(self):
        assert L_functional(MPoly.const(3) + X.scale(2)) == MPoly.const(3)

    def test_V_fixes_constants(self):
        assert V_op(MPoly.one()) == MPoly.one()

    def test_V_unscales_q_weight(self):
        assert V_op((X ** 2).scale(qpow(1))) == X ** 2

    def test_V_on_A2_at_b0(self):
        a2 = X * (X.scale(qpow(1)) - A.scale(qint(2)))
        assert V_op(a2) == X ** 2 - (A * X).scale(qint(2))


class TestDelta:
    @pytest.mark.parametrize("k", range(6))
    def test_on_one(self, k):
        assert delta_op(MPoly.one(), k) == MPoly.const(ONE_MINUS_Q ** k * qfac(k))

    def test_kills_t(self):
        assert delta_op(T, 2) == MPoly.zero()

    def test_bracket_square(self):
        assert delta_op(bracket_t() ** 2, 2) == MPoly.const(qfac(2))

    @pytest.mark.parametrize("i,m,k", [(1, 0, 2), (2, 1, 3), (1, 2, 4), (3, 1, 5)])
    def test_mixed_annihilation(self, i, m, k):
        assert delta_op(T ** i * bracket_t() ** m, k) == MPoly.zero()


class TestQn:
    def test_lowers_g2(self):
        assert Qn_apply(2, g2(), "closed") == (X - B).scale(qint(2))

    def test_lowers_g1_to_one(self):
        assert Qn_apply(1, X - B, "closed") == MPoly.one()

    @pytest.mark.parametrize("form", ["closed", "series"])
    def test_kills_constants(self, form):
        assert Qn_apply(3, MPoly.const(7), form) == MPoly.zero()

    def test_invalid_index(self):
        with pytest.raises(InvalidIndex):
            Qn_apply(0, X, "closed")

    @pytest.mark.parametrize("n,d", [(n, d) for n in range(1, 5) for d in range(5)])
    def test_forms_agree(self, n, d):
        p = X ** d
        assert Qn_apply(n, p, "closed") == Qn_apply(n, p, "series")


class TestPincherle:
    @pytest.mark.parametrize("m,n", [(0, 0), (0, 4), (1, 3), (3, 5), (5, 8), (2, 0)])
    def test_residual_vanishes(self, m, n):
        assert pincherle_residual(m, n) == MPoly.zero()

    @given(st.lists(st.integers(-4, 4), min_size=1, max_size=4), st.integers(0, 6))
    def test_linear_combinations_vanish(self, weights, n):
        # linearity: the commutation residual of sum_m w_m D^m is zero too
        p = X ** n
        lhs = MPoly.zero()
        mid = MPoly.zero()
        fprime = MPoly.zero()
        for m, w in enumerate(weights):
            lhs = lhs + qderiv(X * p, Symbol.x, m).scale(w)
            mid = mid + (X * qderiv(p, Symbol.x, m)).scale(w * qpow(m))
            if m:
                fprime = fprime + qderiv(p, Symbol.x, m - 1).scale(w * qint(m))
        assert lhs - mid - fprime == MPoly.zero()


class TestSladder:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_derivative_ladder(self, n):
        s_n = X ** n + (A * X ** (n - 1)).scale(qint(n))
        s_prev = X ** (n - 1) + ((A * X ** (n - 2)).scale(qint(n - 1)) if n >= 2 else MPoly.zero())
        assert qderiv(s_n, Symbol.x) == s_prev.scale(qint(n))
