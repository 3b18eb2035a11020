"""Independent oracles for the polynomial layer and the operators on it.

Every property compares a symbolic result with plain function values: both
sides are evaluated at rational points with `MPoly.eval_at` and `Fraction`
arithmetic only, so none of the code under test appears on the oracle side.
A point where some coefficient has a pole is skipped.
"""
from fractions import Fraction

from hypothesis import assume, given, strategies as st

from qabel.mpoly import MPoly, Symbol
from qabel.operators import L_functional, delta_op, qderiv
from qabel.qfield import PoleAtPoint, QRat

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
