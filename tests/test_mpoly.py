import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from helpers import random_rational_poly, subst_reference
from qabel import mpoly
from qabel.mpoly import MPoly, Monomial, Symbol, dot, mp_arith, mp_coeffs_in, mp_eval_q1, mp_subst
from qabel.qcomb import qint
from qabel.qfield import _CODES, PoleAtPoint, QRat, _laurent_pack, _laurent_unpack, _laurent_word

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


# Laurent polynomials q^v * n for the packed lane of `dot`, v in -4..4, up
# to three terms.  The coefficients are small or near 2^bits, give or take
# one; with bits in 7, 15, 31 and 63, and drawn once for each side of a
# `dot`, the chunk width lands on each machine word and past the widest one,
# where `dot` falls back.
_BITS = st.sampled_from([1, 7, 15, 31, 63])


@st.composite
def wide_coeffs(draw, bits: int):
    edge = st.builds(lambda d, s: s * (2 ** bits + d), st.integers(-1, 1), st.sampled_from([1, -1]))
    cs = draw(st.lists(st.one_of(st.integers(-3, 3), edge), min_size=1, max_size=4))
    return qp(draw(st.integers(-4, 4))) * QRat(cs)


@st.composite
def wide_mpolys(draw, bits: int):
    keys = draw(st.lists(st.tuples(*(st.integers(0, 2) for _ in range(5))), max_size=3, unique=True))
    return MPoly({k: draw(wide_coeffs(bits)) for k in keys})


@st.composite
def wide_pairs(draw):
    """2 to 5 (u, v) pairs, some of them zero."""
    lb, rb = draw(_BITS), draw(_BITS)
    return draw(st.lists(st.tuples(wide_mpolys(lb), wide_mpolys(rb)), min_size=2, max_size=5))


def _pairwise(pairs) -> MPoly:
    """The sum of u * v, one product and one sum at a time."""
    acc = MPoly.zero()
    for u, v in pairs:
        acc = acc + u * v
    return acc


class TestConstructor:
    @pytest.mark.parametrize("key", [(1,), (1, 0, 0, 0, 0, 7), (-1, 0, 0, 0, 0)])
    def test_malformed_exponent_key_is_rejected(self, key):
        with pytest.raises(ValueError, match="exponent key"):
            MPoly({key: 1})

    def test_monomial_and_tuple_keys_agree(self):
        assert MPoly({Monomial((1, 0, 2, 0, 0)): 3}) == MPoly({(1, 0, 2, 0, 0): 3}) == (X * A ** 2).scale(3)


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


class TestSubstManyReference:
    """subst_many's one `dot` against term-by-term substitution."""

    P = dot([(X ** 2 + A * Y, B.scale(qp(-1)) + X), (A ** 2, X * Y.scale(3)), (B, MPoly.const(7))])

    def test_several_symbols_at_once(self):
        assignment = {Symbol.x: A + B.scale(Q), Symbol.a: X.scale(qp(-2)) - Y, Symbol.b: A * B}
        assert self.P.subst_many(assignment) == subst_reference(self.P, assignment)

    def test_zero_and_constant(self):
        for assignment in ({Symbol.x: MPoly.zero()}, {Symbol.y: 0, Symbol.b: Fraction(-2, 3)},
                           {Symbol.x: QRat([1, 1]), Symbol.a: MPoly.zero()}):
            assert self.P.subst_many(assignment) == subst_reference(self.P, assignment)

    def test_value_with_q_denominator(self):
        # not Laurent, so the dot is formed on QRat values
        assignment = {Symbol.x: A.scale(QRat([1], [1, 0, 1])) + B, Symbol.y: MPoly.const(QRat([2], [3, -1]))}
        assert self.P.subst_many(assignment) == subst_reference(self.P, assignment)

    def test_exponent_gaps(self):
        # exponents 1, 2, 3 (gaps of one) then 7, 8 and 15 (larger gaps) of x,
        # and 2, 5 of a, so each power is built from the previous one
        p = X + X ** 2 * A ** 2 - (X ** 3).scale(Q) + X ** 7 * A ** 5 + X ** 8 + (X ** 15 * B).scale(qp(-1))
        for assignment in ({Symbol.x: A + B.scale(Q)}, {Symbol.x: X - Y, Symbol.a: X.scale(QRat([1], [1, 1]))}):
            assert p.subst_many(assignment) == subst_reference(p, assignment)

    def test_random_rational_polynomials(self):
        rng = random.Random(5)
        for _ in range(5):
            p = random_rational_poly(rng, (Symbol.x, Symbol.y, Symbol.a))
            assignment = {Symbol.x: random_rational_poly(rng, (Symbol.a, Symbol.b), 2, 2),
                          Symbol.a: random_rational_poly(rng, (Symbol.x,), 1, 2)}
            assert p.subst_many(assignment) == subst_reference(p, assignment)


@given(mpolys(), mpolys(), mpolys())
def test_subst_many_matches_term_by_term(p, u, v):
    assignment = {Symbol.x: u, Symbol.b: v}
    assert p.subst_many(assignment) == subst_reference(p, assignment)


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

    @pytest.mark.parametrize("p, text", [
        (-(X ** 2) + X, "-x^2 + x"),
        (X.scale(QRat([-2])) - Y, "-2*x - y"),
        (X.scale(QRat([1, -1])) + Y, "-(q - 1)*x + y"),
        (X.scale(QRat([-1], [1, 1])) - 1, "-1/(q + 1)*x - 1"),
        (MPoly.const(QRat([-3])), "-3"),
        (MPoly.const(QRat([1, -1])), "-(q - 1)"),
    ])
    def test_first_term_negative(self, p, text):
        assert str(p) == text

    def test_coefficient_wrapped_when_a_sum(self):
        c = QRat([1, -1], [1, 1])
        assert str(X.scale(c) + MPoly.const(QRat([1, 1]))) == "-(q - 1)/(q + 1)*x + (q + 1)"
        assert str(X.scale(QRat([0, 2], [3, 1]))) == "2*q/(q + 3)*x"

    @given(st.lists(st.integers(-3, 3), min_size=1, max_size=4),
           st.lists(st.integers(-3, 3), min_size=1, max_size=4).filter(any),
           st.lists(st.integers(1, 4), max_size=3))
    def test_wrap_matches_depth_scan(self, num, den, scale):
        # The wrap of a coefficient's text against a scan for a space at
        # parenthesis depth zero.
        def depth_scan(s):
            depth = 0
            for ch in s:
                depth += (ch == "(") - (ch == ")")
                if ch == " " and depth == 0:
                    return f"({s})"
            return s

        c = QRat(num, den) * QRat([1], scale or [1])
        assert mpoly._wrap_coeff(str(c)) == depth_scan(str(c))


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


@settings(max_examples=200)
@given(st.one_of(st.lists(st.tuples(*[st.one_of(st.just(MPoly.zero()), mpolys())] * 2), max_size=5), wide_pairs()))
@example([])
@example([(MPoly.zero(), X + A), (X - B, Y), (X, MPoly.zero()), (-X, Y)])
@example([(X.scale(QRat([1], [1, 1])), A.scale(2 ** 40)), (X.scale(qp(-3)), A.scale(QRat([5, -2 ** 31])))])
def test_dot_is_the_sum_of_products(pairs):
    # Compared with the pairwise sum, which forms every product and sum on
    # QRat values, and with Fraction values at a point.
    out = dot(pairs)
    assert out == _pairwise(pairs)
    assert hash(out) == hash(_pairwise(pairs))
    point = {s: Fraction(i + 2, 3) for i, s in enumerate(Symbol)}
    at = Fraction(5, 7)
    assert out.eval_at(at, point) == sum(u.eval_at(at, point) * v.eval_at(at, point) for u, v in pairs)


@given(_BITS.flatmap(wide_coeffs), st.sampled_from(sorted(_CODES)), st.integers(0, 3))
def test_laurent_pack_round_trip(c, nb, below):
    # A nonzero value whose coefficients fit the word reads back as itself,
    # packed against a lowest power of q at or below its own.
    assume(not c.is_zero() and max(abs(k) for k in c.num.coeffs) < 2 ** (8 * nb - 1))
    v = next(i for i, k in enumerate(c.num.coeffs) if k) - c.den.degree
    low = v - below
    ((key, shift, packed),) = _laurent_pack([("k", c)], nb, low)
    assert _laurent_unpack([(key, packed << shift)], nb, low) == {"k": c}


class TestPackedDot:
    """Edge cases of `dot`'s packed lane (`mpoly._packed_dot`)."""

    # Three pairs of single terms, each numerator three coefficients of
    # -(2^b - 1): the width bound is lb + rb + bits(3) + bits(3) + 1, and the
    # middle coefficient of the sum, 9 * (2^lb - 1) * (2^rb - 1), is as
    # large as it allows.  At 65 bits the sum would overflow a 64-bit chunk.
    @pytest.mark.parametrize("lb, rb, nb", [(1, 2, 1), (2, 2, 2), (5, 6, 2), (6, 6, 4), (13, 14, 4),
                                            (14, 14, 8), (29, 30, 8), (30, 30, None)])
    def test_width_edges(self, lb, rb, nb):
        cu, cv = QRat([1 - 2 ** lb] * 3), QRat([1 - 2 ** rb] * 3)
        pairs = [(X.scale(cu), A.scale(cv)) for _ in range(3)]
        lane = _laurent_word([cu] * 3, [cv] * 3, 3)
        assert lane == (None if nb is None else (nb, 0, 0))
        packed = mpoly._packed_dot([(u._t, v._t) for u, v in pairs])
        assert (packed is None) == (nb is None)
        assert dot(pairs) == (X * A).scale(cu * cv * 3) == _pairwise(pairs)

    def test_general_coefficient_falls_back(self):
        pairs = [(X.scale(QRat([1], [1, 1])), A), (X, A)]
        assert mpoly._packed_dot([(u._t, v._t) for u, v in pairs]) is None
        assert dot(pairs) == (X * A).scale(QRat([2, 1], [1, 1]))

    def test_all_terms_cancel(self):
        out = dot([(X, A.scale(QRat([1, 2]))), (X.scale(-1), A), (X.scale(-2), A.scale(Q))])
        assert out == MPoly.zero() and out.is_zero()

    def test_low_powers_cancel(self):
        # (1 + q) x a - x a: the constant term cancels, so v rises to 1.
        out = dot([(X, A.scale(QRat([1, 1]))), (X, -A)])
        assert out == (X * A).scale(Q)
        assert str(out) == "q*x*a"

    def test_power_of_q_cancels(self):
        # (1/q + 1) * q - q: v runs -1, 0 and 1 across the terms, and the sum is 1.
        out = dot([(MPoly.const(QRat([1, 1], [0, 1])), MPoly.const(Q)), (MPoly.const(-1), MPoly.const(Q))])
        assert out == MPoly.one()
        assert hash(out) == hash(1) == hash(MPoly.one())

    def test_table_on_both_sides(self):
        # P is a left and a right operand, its powers of q from q^-3 to q^4.
        # The lowest power is q^-5 on the left (R) and q^-3 on the right (P),
        # so P's terms need a different shift on each side.
        p = X.scale(qp(-3) * QRat([2, -1])) + Y.scale(qp(4) * 5) + A.scale(QRat([1, 1]))
        r = B.scale(qp(-5) * QRat([3, 0, 1]))
        s = X.scale(qp(2) * 7)
        for pairs in ([(p, p), (r, s)], [(p, r), (p, p)], [(p, p), (p, s), (r, p)]):
            assert mpoly._packed_dot([(u._t, v._t) for u, v in pairs]) is not None
            assert dot(pairs) == _pairwise(pairs)

    def test_substitution_by_zero(self):
        # y := 0 empties the factor table of every term that holds y.
        p = dot([(X + Y, Y + A), (Y, X.scale(Q)), (A, B)])
        assert p.subst(Symbol.y, MPoly.zero()) == X * A + A * B
        gone = Y.subst(Symbol.y, 0)
        assert gone.is_zero()
        assert dot([(gone, X), (A, B), (X, gone)]) == A * B
        assert dot([(gone, X), (X, gone)]) == MPoly.zero()


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
