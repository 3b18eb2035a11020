import pickle
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from qabel.qfield import (
    ONE,
    Q,
    ZERO,
    DivisionByZero,
    PoleAtPoint,
    QPoly,
    QRat,
    qrat_arith,
    qrat_equal,
    qrat_eval,
    render_poly,
)
from qabel.qfield import _pgcd, _pmul


def R(num, den=(1,)):
    return QRat(num, den)


# strategy: small random nonzero rational functions
_coeff = st.integers(min_value=-6, max_value=6)
_poly = st.lists(_coeff, min_size=1, max_size=4)
_nonzero_poly = _poly.filter(lambda cs: any(c != 0 for c in cs))


@st.composite
def qrats(draw, allow_zero=True):
    num = draw(_poly if allow_zero else _nonzero_poly)
    den = draw(_nonzero_poly)
    return QRat(num, den)


class TestCanonicalForm:
    def test_cancellation_to_polynomial(self):
        # (1 - q^2)/(1 - q) reduces to 1 + q
        assert R([1, 0, -1], [1, -1]) == R([1, 1])

    def test_geometric_factor(self):
        assert R([1, 0, 0, -1], [1, -1]) == R([1, 1, 1])

    def test_inequality(self):
        assert R([1, 1]) != R([1, 1, 1])

    def test_zero_is_num0_den1(self):
        z = R([0, 0], [3, 5])
        assert z == ZERO
        assert z.num.is_zero() and z.den.coeffs == (Fraction(1),)

    def test_denominator_normalization(self):
        # 1/(2 - 2q): den becomes primitive positive-led q - 1, scalar -1/2 in num
        r = R([1], [2, -2])
        assert r.den.coeffs == (Fraction(-1), Fraction(1))
        assert r.num.coeffs == (Fraction(-1, 2),)

    def test_zero_denominator_rejected(self):
        with pytest.raises(DivisionByZero):
            R([1], [0])

    def test_rational_coefficients_absorbed(self):
        assert R([Fraction(1, 2), Fraction(1, 2)]) == R([1, 1]) / 2


class TestArith:
    def test_mul_cancel(self):
        assert qrat_arith("mul", R([1, 0, -1], [1, -1]), ONE) == R([1, 1])

    def test_mul_expand(self):
        assert qrat_arith("mul", R([1, 1]), R([1, 1])) == R([1, 2, 1])

    def test_sub_self_is_zero(self):
        r = R([3, -2, 7], [1, 5])
        assert qrat_arith("sub", r, r) == ZERO
        assert 2 - r == -(r - 2)

    def test_sub_of_foreign_type_is_type_error(self):
        r = R([1, 2], [3, -1])
        with pytest.raises(TypeError, match=r"unsupported operand type\(s\) for -:"):
            r - "x"
        with pytest.raises(TypeError, match=r"unsupported operand type\(s\) for -:"):
            "x" - r

    def test_add(self):
        # 1/(1-q) + 1/(1+q) = 2/(1-q^2)
        lhs, rhs = R([1], [1, -1]), R([1], [1, 1])
        assert lhs + rhs == R([2], [1, 0, -1])
        assert qrat_arith("add", lhs, rhs) == lhs + rhs

    def test_div(self):
        r = R([1, 2, 1], [5])
        assert qrat_arith("div", r, R([1, 1])) == R([1, 1], [5])
        assert Fraction(1, 3) / r == r.inv() * Fraction(1, 3) == R([5], [3, 6, 3])

    def test_div_by_zero(self):
        with pytest.raises(DivisionByZero):
            qrat_arith("div", ONE, ZERO)

    def test_pow_negative(self):
        assert qrat_arith("pow", Q, -2) == R([1], [0, 0, 1])

    def test_zero_pow_negative(self):
        with pytest.raises(DivisionByZero):
            qrat_arith("pow", ZERO, -1)

    def test_neg(self):
        assert qrat_arith("neg", Q, None) + Q == ZERO


class TestEval:
    def test_simple(self):
        assert qrat_eval(R([1, 1]), Fraction(1, 2)) == Fraction(3, 2)

    def test_integer_point(self):
        assert qrat_eval(R([1, 1, 1]), 2) == 7

    def test_pole(self):
        with pytest.raises(PoleAtPoint) as exc:
            qrat_eval(R([1], [1, -1]), 1)
        assert exc.value.point == 1

    def test_pole_pickles(self):
        # verify --jobs re-raises a worker's exception here from a pickle
        err = PoleAtPoint(Fraction(2, 3))
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is PoleAtPoint
        assert str(back) == str(err) == "denominator vanishes at q = 2/3"
        assert back.point == err.point

    def test_pole_only_when_reduced(self):
        # (1 - q^2)/(1 - q) is 1 + q after reduction: no pole at q = 1
        assert qrat_eval(R([1, 0, -1], [1, -1]), 1) == 2


class TestRendering:
    def test_fraction_form(self):
        assert str(R([1, 1, 1], [1, 1])) == "(q^2 + q + 1)/(q + 1)"

    def test_polynomial_form(self):
        assert str(R([1, 2, 2, 1])) == "q^3 + 2*q^2 + 2*q + 1"

    def test_den_one_omitted(self):
        assert str(ONE) == "1"
        assert str(ZERO) == "0"

    def test_negative_leading(self):
        assert str(R([1, -1])) == "-q + 1"

    def test_monomial_denominator(self):
        assert str(R([1], [0, 0, 1])) == "1/q^2"

    def test_scalar_content(self):
        assert str(R([1], [2])) == "1/2"
        assert str(R([0, 3], [2])) == "3/2*q"


class TestPowerOfQ:
    """Values are stored as q^v * n/d; a Laurent polynomial has d = 1."""

    def test_mixed_operands(self):
        # (1 + q)/q^2 is Laurent; (1 - q)/(q + q^2) is not.
        lau, gen = R([1, 1], [0, 0, 1]), R([1, -1], [0, 1, 1])
        assert lau + gen == gen + lau == R([1, 3], [0, 0, 1, 1])
        assert lau * gen == gen * lau == R([1, -1], [0, 0, 0, 1])
        assert lau / gen == R([1, 2, 1], [0, 1, -1])
        assert gen / lau == R([0, 1, -1], [1, 2, 1])

    def test_power_cancels_completely(self):
        r = QRat.q_power(3) * QRat.q_power(-3)
        assert r == ONE and r.is_one() and r.is_constant()
        assert hash(r) == hash(1) == hash(ONE)
        assert str(r) == "1"

    def test_laurent_sum_with_cancelled_low_terms(self):
        # (1 + q + q^3)/q^2 - (1 + q)/q^2 = q: the power of q rises to 1.
        r = R([1, 1, 0, 1], [0, 0, 1]) - R([1, 1], [0, 0, 1])
        assert r == Q and hash(r) == hash(Q) and str(r) == "q"
        # The same through the general sum: (1 + 2q^2)/(1 - q) - 1/(1 - q).
        r = R([1, 0, 2], [1, -1]) - R([1], [1, -1])
        assert r == R([0, 0, 2], [1, -1]) and str(r) == "-2*q^2/(q - 1)"

    def test_power_of_q_in_both_parts_reduces(self):
        r, s = QRat((0, 0, 2), (0, 4)), QRat((0, 1), (2,))
        assert r == s and str(r) == str(s) == "1/2*q" and hash(r) == hash(s)

    def test_eval_at_zero(self):
        with pytest.raises(PoleAtPoint):
            QRat.q_power(-2).eval(0)
        assert QRat.q_power(2).eval(0) == 0
        assert QRat.q_power(0).eval(0) == 1

    def test_views_multiply_the_power_back(self):
        r = QRat.q_power(-3)
        assert r.num.coeffs == (1,) and r.den.coeffs == (0, 0, 0, 1)
        assert str(r) == "1/q^3"
        r = R([0, 0, 1], [1, -1])
        assert r.num.coeffs == (0, 0, -1) and r.den.coeffs == (-1, 1)
        assert str(r) == "-q^2/(q - 1)"


class TestQPoly:
    def test_of_trims(self):
        p = QPoly.of([1, 2, 0])
        assert p.degree == 1

    def test_zero_degree_sentinel(self):
        assert QPoly.of([]).degree == -1

    def test_top_nonzero_enforced(self):
        with pytest.raises(ValueError):
            QPoly((Fraction(1), Fraction(0)))


def _cross_reduced_product(r: QRat, s: QRat) -> QRat:
    """r * s with both numerators reduced against the other denominator,
    whatever the denominators are."""
    _, n1, d2 = _pgcd(r._n, s._d)
    _, n2, d1 = _pgcd(s._n, r._d)
    return QRat._make(r._v + s._v, _pmul(n1, n2), _pmul(d1, d2))


@st.composite
def unit_sided(draw):
    """Nonzero n/q^k, whose denominator is (1,) (the Laurent values), or
    q^k/d, whose numerator is (1,)."""
    poly, k = QRat(draw(_nonzero_poly)), draw(st.integers(-3, 3))
    if not draw(st.booleans()):
        poly = (-poly if poly.is_negative() else poly).inv()
    return poly * Q ** k


class TestLaurentTimesGeneral:
    """A product skips the cross-reduction of a numerator and a denominator
    when either is (1,); the other pair is still reduced."""

    @given(unit_sided(), qrats(allow_zero=False))
    def test_matches_cross_reduced_product(self, unit, general):
        assert (1,) in (unit._n, unit._d)
        expected = _cross_reduced_product(unit, general)
        assert unit * general == expected
        assert general * unit == expected

    def test_numerator_cancels_against_general_denominator(self):
        # (1 - q^2)/q^2 * 1/(1 - q) = (1 + q)/q^2
        laurent, general = R([1, 0, -1]) * Q ** -2, R([1], [1, -1])
        assert laurent * general == general * laurent == R([1, 1]) * Q ** -2
        assert (laurent * general)._d == (1,)


# Values with powers of q, Laurent and not.
_shifted = st.builds(lambda r, k: r * Q ** k, qrats(), st.integers(-3, 3))


@given(_shifted, _shifted, st.integers(-3, 3), _poly, _nonzero_poly)
@example(R([1, 1, 0, 1], [0, 0, 1]), -R([1, 1], [0, 0, 1]), 2, [0, 0, 2], [0, 4])
@example(R([1, 0, 2], [1, -1]), -R([1], [1, -1]), -1, [0, 0, -3], [0, -6, 3])
def test_every_result_keeps_the_stored_form(r, s, m, num, den):
    # The kernels split no power of q off their operands, so every value
    # must store n(0) != 0, d(0) != 0 and a positive-led d; zero is
    # (0, (), (1,)).
    results = [QRat(num, den), r + s, r - s, r * s]
    if not r.is_zero():
        results += [r.inv(), r / r, r ** m]
    if not s.is_zero():
        results += [r / s]
    for t in results:
        if t.is_zero():
            assert (t._v, t._n, t._d) == (0, (), (1,))
        else:
            assert t._n[0] != 0 and t._d[0] != 0 and t._d[-1] > 0


@given(qrats(), qrats(allow_zero=False))
def test_mul_div_round_trip(r, s):
    assert (r / s) * s == r


@given(qrats())
def test_equality_via_difference(r):
    assert qrat_equal(r + r - r, r)


@given(qrats(allow_zero=False), st.integers(-4, 4), st.integers(-4, 4))
def test_pow_additive(r, m, n):
    assert r ** (m + n) == (r ** m) * (r ** n)


@given(qrats(), qrats(), st.integers(0, 5).map(lambda k: Fraction(k, 3)))
def test_eval_is_ring_hom(r, s, q0):
    try:
        lhs = qrat_eval(r * s, q0)
        rv, sv = qrat_eval(r, q0), qrat_eval(s, q0)
    except PoleAtPoint:
        return
    assert lhs == rv * sv


@given(qrats(), qrats(), qrats())
def test_add_associative(r, s, t):
    assert (r + s) + t == r + (s + t)


@given(qrats(), qrats(), qrats())
def test_mul_distributes(r, s, t):
    assert r * (s + t) == r * s + r * t


def render_poly_reference(coeffs) -> str:
    """The two-pass rendering of a polynomial in q: (negative, body) pairs,
    highest power first, then the join with the first sign fixed."""
    pairs = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c == 0:
            continue
        neg = c < 0
        mag = -c if neg else c
        if i == 0:
            body = str(mag)
        else:
            var = "q" if i == 1 else f"q^{i}"
            body = var if mag == 1 else f"{mag}*{var}"
        pairs.append((neg, body))
    parts = []
    for neg, body in pairs:
        if not parts:
            parts.append(("-" + body) if neg else body)
        else:
            parts.append(("- " if neg else "+ ") + body)
    return " ".join(parts) if parts else "0"


_render_coeff = st.one_of(st.just(0), st.sampled_from([1, -1, Fraction(1), Fraction(-1)]),
                          st.integers(-(2**70), 2**70), st.fractions(max_denominator=50))


@given(st.lists(_render_coeff, max_size=12))
def test_render_poly_matches_two_pass(coeffs):
    assert render_poly(coeffs) == render_poly_reference(coeffs)


@pytest.mark.parametrize("coeffs, text", [
    ((), "0"), ((0, 0), "0"), ((5,), "5"), ((-5,), "-5"), ((Fraction(-1, 2),), "-1/2"),
    ((0, -1), "-q"), ((1, 0, 0, -1), "-q^3 + 1"), ((0, 2, -1), "-q^2 + 2*q"),
])
def test_render_poly_fixed(coeffs, text):
    assert render_poly(coeffs) == render_poly_reference(coeffs) == text


def _reference_str(r: QRat) -> str:
    """The rendering through the num/den views, one Fraction per coefficient."""
    num_s = render_poly_reference(r.num.coeffs)
    if r.den.coeffs == (Fraction(1),):
        return num_s
    den_s = render_poly_reference(r.den.coeffs)
    if " " in num_s:
        num_s = f"({num_s})"
    if " " in den_s:
        den_s = f"({den_s})"
    return f"{num_s}/{den_s}"


_frac_poly = st.lists(st.fractions(min_value=-6, max_value=6, max_denominator=6), min_size=1, max_size=4)


@given(st.one_of(qrats(), st.builds(QRat, _frac_poly, _frac_poly.filter(any))))
def test_str_matches_num_den_rendering(r):
    assert str(r) == _reference_str(r)


_nonzero_fraction = st.fractions(min_value=-6, max_value=6, max_denominator=6).filter(bool)


@given(qrats(), qrats(allow_zero=False))
def test_hash_agrees_after_round_trip(r, s):
    t = (r * s) / s
    assert t == r and hash(t) == hash(r)


@given(_frac_poly, _frac_poly.filter(any), _nonzero_fraction)
def test_hash_agrees_under_common_factor(num, den, k):
    r, t = QRat(num, den), QRat([k * c for c in num], [k * c for c in den])
    assert t == r and hash(t) == hash(r)


@given(st.fractions(max_denominator=50), _nonzero_fraction)
def test_constant_hashes_as_fraction(v, k):
    r = QRat([v * k], [k])
    assert r.is_constant() and r.as_fraction() == v
    assert hash(r) == hash(v) and hash(QRat.from_scalar(v)) == hash(v)
