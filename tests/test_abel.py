import random

import pytest

from helpers import (
    abel_expand_reference,
    eval_functional,
    lagrange_reference,
    random_q_monomial_poly,
    random_rational_poly,
    random_series,
    triangular_expand,
    triangular_series_coeffs,
)
from qabel.abel import (
    AbelCoefficients,
    FamilyId,
    OrderTooSmall,
    abel_expand,
    abel_poly,
    lagrange_coeffs,
    lagrange_shift,
)
from qabel.mpoly import MPoly, Symbol
from qabel.operators import V_op
from qabel.qcomb import qint, qpow, qprod
from qabel.qfield import QRat
from qabel.series import PowerSeries, abel_sum, ps_exp

X = MPoly.var(Symbol.x)
Y = MPoly.var(Symbol.y)
A = MPoly.var(Symbol.a)
B = MPoly.var(Symbol.b)

ONE_MINUS_Q = QRat([1, -1])


class TestFamilies:
    @pytest.mark.parametrize("family", list(FamilyId))
    def test_index_zero_is_one(self, family):
        assert abel_poly(family, 0) == MPoly.one()

    def test_A1(self):
        assert abel_poly(FamilyId.A, 1) == X - B

    def test_A2_frozen(self):
        expected = (X - B) * (X.scale(qpow(1)) - A.scale(qint(2)) - B.scale(qpow(2)))
        assert abel_poly(FamilyId.A, 2) == expected

    def test_G2_frozen(self):
        expected = (X - B) * (X.scale(qpow(1)) - A.scale(qint(2)) - B)
        assert abel_poly(FamilyId.G, 2) == expected

    def test_classical2(self):
        assert abel_poly(FamilyId.CLASSICAL, 2) == (X - B) * (X - B - A.scale(2))

    def test_B_plain_2(self):
        assert abel_poly(FamilyId.B_PLAIN, 2) == X ** 2 - (A * X).scale(qint(2))

    def test_B_general_2_frozen(self):
        # worked out by rescaling A_2 degree by degree
        expected = (
            X ** 2
            - (A * X).scale(qint(2))
            - (B * X).scale(QRat([0, 1, 1]))
            + (A * B).scale(qint(2))
            + (B ** 2).scale(qpow(2))
        )
        assert abel_poly(FamilyId.B_GENERAL, 2) == expected

    def test_w2(self):
        shift = A.scale(qint(2)) + B
        assert abel_poly(FamilyId.W, 2) == (X - shift) * (X.scale(qpow(1)) - shift)

    def test_S3(self):
        assert abel_poly(FamilyId.S, 3) == X ** 3 + (A * X ** 2).scale(qint(3))

    @pytest.mark.parametrize("n", range(9))
    def test_G_is_widened_A(self, n):
        widened = abel_poly(FamilyId.A, n).subst(Symbol.a, A + B.scale(ONE_MINUS_Q))
        assert abel_poly(FamilyId.G, n) == widened

    @pytest.mark.parametrize("n", range(9))
    def test_B_general_is_V_of_A(self, n):
        assert abel_poly(FamilyId.B_GENERAL, n) == V_op(abel_poly(FamilyId.A, n))

    @pytest.mark.parametrize("n", range(9))
    def test_classical_limit(self, n):
        classical = abel_poly(FamilyId.CLASSICAL, n)
        assert abel_poly(FamilyId.A, n).eval_q1() == classical
        assert abel_poly(FamilyId.G, n).eval_q1() == classical

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            abel_poly(FamilyId.A, -1)


class TestAbelExpand:
    def test_constant(self):
        ac = abel_expand(MPoly.one())
        assert ac.coeffs == (MPoly.one(),)

    def test_x_squared_frozen(self):
        # checked against the triangular solve below
        ac = abel_expand(X ** 2)
        assert ac.coeffs == (
            B ** 2,
            (A + B).scale(QRat([1, 1]) * qpow(-1)),
            MPoly.const(qpow(-1)),
        )

    def test_basis_element_gives_unit_vector(self):
        ac = abel_expand(abel_poly(FamilyId.G, 3))
        for k, c in enumerate(ac.coeffs):
            assert c == (MPoly.one() if k == 3 else MPoly.zero())

    def test_rejects_y(self):
        with pytest.raises(ValueError):
            abel_expand(Y)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_triangular_oracle(self, seed):
        rng = random.Random(seed)
        f = random_q_monomial_poly(rng)
        closed = abel_expand(f)
        oracle = triangular_expand(f)
        assert list(closed.coeffs) == oracle
        assert closed.reconstruct() == f

    def test_coeffs_must_be_x_free(self):
        with pytest.raises(ValueError):
            AbelCoefficients(FamilyId.G, (X,))


class TestLagrangePlain:
    def test_constant(self):
        cs = lagrange_coeffs(PowerSeries.constant(1, 5), "plain", 5)
        assert cs[0] == MPoly.one()
        assert all(c.is_zero() for c in cs[1:])

    def test_identity_series(self):
        cs = lagrange_coeffs(PowerSeries.monomial(1, 6), "plain", 6)
        assert cs[0].is_zero()
        for n in range(1, 7):
            assert cs[n] == (-A.scale(qint(n))) ** (n - 1)

    @pytest.mark.parametrize("order", [6])
    def test_exp_gives_plain_B(self, order):
        cs = lagrange_coeffs(ps_exp("small_e", X, order), "plain", order)
        for k in range(order + 1):
            assert cs[k] == abel_poly(FamilyId.B_PLAIN, k)

    def test_matches_triangular_oracle(self):
        f = ps_exp("big_E", X, 6)
        cs = lagrange_coeffs(f, "plain", 6)
        oracle = triangular_series_coeffs(f, lambda k: A.scale(qint(k)), 6)
        assert cs == oracle

    def test_order_too_small(self):
        with pytest.raises(OrderTooSmall):
            lagrange_coeffs(PowerSeries.constant(1, 3), "plain", 4)


class TestLagrangeGeneral:
    def test_exp_big_gives_A_family(self):
        # expanding E(xz) over the shifted basis recovers the A family
        cs = lagrange_coeffs(ps_exp("big_E", X, 6), "general_b", 6)
        for k in range(7):
            assert cs[k] == abel_poly(FamilyId.A, k)

    def test_reconstruction(self):
        f = ps_exp("small_e", X, 6)
        cs = lagrange_coeffs(f, "general_b", 6)
        recon = abel_sum(lambda k: cs[k], lambda k: lagrange_shift("general_b", k), 6)
        assert recon == f

    def test_matches_functional_route(self):
        # c_n also reads as L f(D) applied to the general B family member;
        # the expansion parameter must stay clear of x, the operator variable
        f = ps_exp("small_e", Y, 6)
        cs = lagrange_coeffs(f, "general_b", 6)
        for n in range(7):
            assert cs[n] == eval_functional(f, abel_poly(FamilyId.B_GENERAL, n))

    def test_b_zero_degenerates_to_plain(self):
        f = ps_exp("small_e", X, 5)
        general = lagrange_coeffs(f, "general_b", 5)
        plain = lagrange_coeffs(f, "plain", 5)
        for g, p in zip(general, plain):
            assert g.subst(Symbol.b, MPoly.zero()) == p


class TestLagrangeBuermann:
    @pytest.mark.parametrize("n", range(7))
    def test_falling_exponential_product(self, n):
        f = ps_exp("big_E", -Y, n)
        cs = lagrange_coeffs(f, "buermann", n)
        c = (B.scale(qpow(n)) + A.scale(qint(n))).scale(qpow(-1))
        assert cs[n] == qprod(-c, Y, n, "minus")

    def test_expands_damped_series(self):
        # buermann coefficients expand f/(1 + a z / q)
        f = ps_exp("big_E", X, 6)
        cs = lagrange_coeffs(f, "buermann", 6)
        den = PowerSeries.constant(1, 6) + PowerSeries.monomial(1, 6, A.scale(qpow(-1)))
        target = f / den
        oracle = triangular_series_coeffs(target, lambda k: lagrange_shift("buermann", k).scale(qpow(1)), 6)
        assert cs == oracle

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            lagrange_coeffs(PowerSeries.constant(1, 2), "sideways", 2)


MODES = ("plain", "general_b", "buermann")


class TestFractionFree:
    """The fraction-free sums against the formulas that divide by [k]!."""

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("series", [
        lambda n: ps_exp("small_e", X, n), lambda n: ps_exp("big_E", X, n), lambda n: ps_exp("big_E", -Y, n),
        lambda n: PowerSeries.monomial(1, n),
    ], ids=["e_xz", "E_xz", "E_neg_yz", "z"])
    def test_lagrange_matches_reference(self, mode, series):
        f = series(8)
        assert lagrange_coeffs(f, mode, 8) == lagrange_reference(f, mode, 8)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("seed", range(3))
    def test_lagrange_q_denominators_match_reference(self, mode, seed):
        f = random_series(random.Random(seed), 6)
        assert lagrange_coeffs(f, mode, 5) == lagrange_reference(f, mode, 5)

    @pytest.mark.parametrize("seed", range(6))
    def test_expand_matches_reference(self, seed):
        f = random_rational_poly(random.Random(seed), (Symbol.x, Symbol.a, Symbol.b), max_deg=5)
        closed = abel_expand(f)
        assert list(closed.coeffs) == abel_expand_reference(f)
        assert closed.reconstruct() == f
