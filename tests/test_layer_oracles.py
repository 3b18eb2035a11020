"""Independent oracles for the coefficient field, the polynomial layer and
the operators on it.

Every property compares a symbolic result with plain function values: both
sides are evaluated at rational points with `QRat.eval` or `MPoly.eval_at`
and `Fraction` arithmetic only, so none of the code under test appears on
the oracle side.  A point where some coefficient has a pole is skipped.
"""
from fractions import Fraction

from hypothesis import assume, given, strategies as st

from qabel.abel import lagrange_coeffs, lagrange_shift
from qabel.mpoly import A, MPoly, Symbol, X
from qabel.operators import DSeries, L_functional, delta_op, dseries_apply, make_exp_dseries, qderiv
from qabel.qcomb import shift_a
from qabel.qfield import ONE, PoleAtPoint, QRat
from qabel.series import abel_sum, ps_exp

from helpers import apply_series_of_D

# Field values q^v * n/d, v in -4..4, drawn as (v, n, d): d is 1 (a
# Laurent polynomial) or any nonzero integer polynomial.
_ipoly = st.lists(st.integers(-3, 3), min_size=1, max_size=4)
field_values = st.tuples(st.integers(-4, 4), _ipoly, st.one_of(st.just([1]), _ipoly.filter(any)))
field_points = st.sampled_from([Fraction(2), Fraction(-3), Fraction(5, 7)])


def _build(v: int, n: list, d: list) -> QRat:
    """q^v * n/d from one constructor call, the power of q shifted into n or d."""
    return QRat([0] * v + n, d) if v >= 0 else QRat(n, [0] * -v + d)


def _horner(cs: list, q0: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(cs):
        acc = acc * q0 + c
    return acc


def _field_value(v: int, n: list, d: list, q0: Fraction) -> Fraction:
    """q0^v * n(q0)/d(q0), or a skipped example when d(q0) = 0."""
    dv = _horner(d, q0)
    assume(dv != 0)
    return q0 ** v * _horner(n, q0) / dv


@given(field_values, field_values, field_points)
def test_field_ops_match_values(a, b, q0):
    r, s = _build(*a), _build(*b)
    x, y = _field_value(*a, q0), _field_value(*b, q0)
    results = [(r + s, x + y), (r - s, x - y), (r * s, x * y)]
    if y:
        results += [(r / s, x / y), (s.inv(), 1 / y)]
    for t, want in results:
        assert t.eval(q0) == want
        # Rebuilt from its views, a result is the same value in the same form.
        u = QRat(t.num.coeffs, t.den.coeffs)
        assert u == t and hash(u) == hash(t)


@given(field_values, field_values)
def test_equal_values_by_other_routes_hash_equal(a, b):
    (v, n, d), r, s = a, _build(*a), _build(*b)
    # r = head + tail, split after n's constant term; r - head cancels it.
    head, tail = _build(v, n[:1], d), _build(v + 1, n[1:] or [0], d)
    assert r - head == tail and hash(r - head) == hash(tail)
    routes = [QRat.q_power(v) * QRat(n, d), head + tail, (r + s) - s]
    if not s.is_zero():
        routes.append((r * s) / s)
    for t in routes:
        assert t == r and hash(t) == hash(r)


# Denominators 1, 1 - q, 1 + q and q: poles at q = 1, -1 and 0.
_DENS = [(1,), (1, -1), (1, 1), (0, 1)]

coeffs = st.builds(
    QRat,
    st.lists(st.integers(-3, 3), min_size=1, max_size=3),
    st.sampled_from(_DENS),
)
exps = st.tuples(*(st.integers(0, 3) for _ in Symbol))
mpolys = st.builds(MPoly, st.dictionaries(exps, coeffs, max_size=4))
rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)
# q stays away from 0 and 1, so x/q, t/q and 1/(1 - q) are defined.
q_points = rationals.filter(lambda f: f not in (0, 1))
points = st.fixed_dictionaries({s: rationals for s in Symbol})
# Operator coefficients: D acts on x, so they are free of x.
x_free = st.builds(MPoly, st.dictionaries(exps.map(lambda e: (0,) + e[1:]), coeffs, max_size=3))
# Away from q = -1 as well, so that every [k]! is nonzero.
q_regular = q_points.filter(lambda f: f != -1)


def value(p: MPoly, q0: Fraction, pt: dict) -> Fraction:
    """p at the point, or a skipped example when a coefficient has a pole there."""
    try:
        return p.eval_at(q0, pt)
    except PoleAtPoint:
        assume(False)


@given(mpolys, mpolys, q_points, points)
def test_add_and_mul_match_values(p, r, q0, pt):
    vp, vr = value(p, q0, pt), value(r, q0, pt)
    assert value(p + r, q0, pt) == vp + vr
    assert value(p * r, q0, pt) == vp * vr
    assert value(p - r, q0, pt) == vp - vr


@given(
    mpolys,
    st.dictionaries(st.sampled_from(list(Symbol)), st.one_of(mpolys, rationals), max_size=3),
    q_points,
    points,
)
def test_subst_many_matches_values(p, assignment, q0, pt):
    moved = dict(pt)
    for s, v in assignment.items():
        moved[s] = value(v, q0, pt) if isinstance(v, MPoly) else v
    assert value(p.subst_many(assignment), q0, pt) == value(p, q0, moved)


def _difference_quotient(p: MPoly, k: int, q0: Fraction, pt: dict) -> Fraction:
    """k-fold (f(x) - f(qx)) / ((1 - q) x) of p's values, x = pt[x] != 0."""
    if k == 0:
        return value(p, q0, pt)
    x0 = pt[Symbol.x]
    shifted = dict(pt)
    shifted[Symbol.x] = q0 * x0
    return (_difference_quotient(p, k - 1, q0, pt) - _difference_quotient(p, k - 1, q0, shifted)) / (
        (1 - q0) * x0
    )


@given(mpolys, st.integers(0, 4), q_points, points)
def test_qderiv_matches_difference_quotient(p, k, q0, pt):
    assume(pt[Symbol.x] != 0)
    assert value(qderiv(p, Symbol.x, k), q0, pt) == _difference_quotient(p, k, q0, pt)


@given(mpolys, st.sampled_from(list(Symbol)), q_points, points)
def test_L_functional_is_evaluation_at_zero(p, v, q0, pt):
    at_zero = dict(pt)
    at_zero[v] = Fraction(0)
    assert value(L_functional(p, v), q0, pt) == value(p, q0, at_zero)


def _delta_values(p: MPoly, k: int, q0: Fraction, pt: dict) -> Fraction:
    """f(t) -> f(t) - q^j f(t/q) applied to p's values for j = 1..k."""
    if k == 0:
        return value(p, q0, pt)
    scaled = dict(pt)
    scaled[Symbol.t] = pt[Symbol.t] / q0
    return _delta_values(p, k - 1, q0, pt) - q0 ** k * _delta_values(p, k - 1, q0, scaled)


@given(mpolys, st.integers(0, 4), q_points, points)
def test_delta_op_matches_values(p, k, q0, pt):
    assert value(delta_op(p, k), q0, pt) == _delta_values(p, k, q0, pt)


def _qfac(k: int, q0: Fraction) -> Fraction:
    """[k]! at q = q0 from the quotients (1 - q0^j)/(1 - q0)."""
    out = Fraction(1)
    for j in range(1, k + 1):
        out *= (1 - q0 ** j) / (1 - q0)
    return out


def _exp_weight(kind: str, k: int, q0: Fraction) -> Fraction:
    """Term k of e(z) or E(z) at q = q0, without the power of z."""
    return (q0 ** (k * (k - 1) // 2) if kind == "big_E" else 1) / _qfac(k, q0)


@given(st.sampled_from(["small_e", "big_E"]), x_free, mpolys, q_regular, points)
def test_exp_dseries_matches_sum_of_derivatives(kind, c, p, q0, pt):
    assume(pt[Symbol.x] != 0)
    deg = p.degree_in(Symbol.x)
    got = value(dseries_apply(make_exp_dseries(kind, c), p), q0, pt)
    assert got == value(apply_series_of_D(ps_exp(kind, c, deg), p), q0, pt)
    c0 = value(c, q0, pt)
    assert got == sum(_exp_weight(kind, k, q0) * c0 ** k * _difference_quotient(p, k, q0, pt) for k in range(deg + 1))


@given(mpolys, st.integers(0, 4), q_regular, points)
def test_divided_power_is_derivative_over_factorial(p, k, q0, pt):
    unit_k = DSeries(lambda d: [MPoly.one() if i == k else MPoly.zero() for i in range(d + 1)])
    assert value(dseries_apply(unit_k, p), q0, pt) == value(qderiv(p, Symbol.x, k), q0, pt) / _qfac(k, q0)


@given(mpolys, st.lists(x_free, max_size=4), q_points, points)
def test_from_coeffs_takes_coefficients_of_powers_of_D(p, cs, q0, pt):
    assume(pt[Symbol.x] != 0)
    got = value(dseries_apply(DSeries.from_coeffs([ONE, A]), p), q0, pt)
    assert got == value(p, q0, pt) + pt[Symbol.a] * _difference_quotient(p, 1, q0, pt)
    got = value(dseries_apply(DSeries.from_coeffs(cs), p), q0, pt)
    assert got == sum(value(c, q0, pt) * _difference_quotient(p, k, q0, pt) for k, c in enumerate(cs))


def _abel_sum_values(coeff, shift, order: int, q0: Fraction, pt: dict) -> list:
    """z^m coefficients of sum_k coeff_k/[k]! z^k E(s_k z) as the double sum
    over k + j = m of coeff_k/[k]! q^(j choose 2) s_k^j/[j]!, in Fractions."""
    out = []
    for m in range(order + 1):
        total = Fraction(0)
        for k in range(m + 1):
            j = m - k
            total += value(coeff(k), q0, pt) / _qfac(k, q0) * _exp_weight("big_E", j, q0) * value(shift(k), q0, pt) ** j
        out.append(total)
    return out


def _check_abel_sum(coeff, shift, order: int, q0: Fraction, pt: dict):
    got = [value(c, q0, pt) for c in abel_sum(coeff, shift, order).coeffs]
    assert got == _abel_sum_values(coeff, shift, order, q0, pt)


@given(st.lists(mpolys, min_size=4, max_size=4), st.lists(mpolys, min_size=4, max_size=4), q_regular, points)
def test_abel_sum_matches_double_sum(cs, ss, q0, pt):
    # Every other shift is divided by q, so Laurent coefficients occur.
    shifts = [s.scale(QRat.q_power(-(k % 2))) for k, s in enumerate(ss)]
    _check_abel_sum(lambda k: cs[k], lambda k: shifts[k], 3, q0, pt)


@given(q_regular, points)
def test_abel_sum_with_laurent_shift_and_rational_coefficients(q0, pt):
    # The buermann coefficients of E(xz) carry powers of q in their
    # denominators; the shifts are the buermann one, (q^n b + [n]a)/q, and
    # the geometric family's -q s_k.
    cs = lagrange_coeffs(ps_exp("big_E", X, 4), "buermann", 4)
    _check_abel_sum(lambda k: cs[k], lambda k: lagrange_shift("buermann", k), 4, q0, pt)
    _check_abel_sum(lambda k: cs[k], lambda k: -shift_a(k).scale(QRat.q_power(1)), 4, q0, pt)
    gb = lagrange_coeffs(ps_exp("small_e", X, 4), "general_b", 4)
    _check_abel_sum(lambda k: gb[k], shift_a, 4, q0, pt)
