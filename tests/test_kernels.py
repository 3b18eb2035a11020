"""Oracles for the integer-polynomial kernels of `qfield`.

`_pmul` is compared with a schoolbook product on operands that carry powers
of q, which `QRat` never passes but which must stay exact, on monomials
c * q**k, on multiples c * q**k * [m] of q-integers, which take the window
sum and pack nothing when k = 0, and on q-factorials.  The
Kronecker branch, `_kmul`, is run at chunk widths from one byte to nine:
past eight, the machine-word chunks packed by `array` give way to the
byte-loop fallback, which also runs on small operands with the word sizes
switched off.  `_divexact` undoes it, and
`_prem` agrees with a pseudo-remainder loop up to content.  `_pgcd` returns
the gcd in Z[q] and the two cofactors, also of operands that carry a power
of q.  Its gcd, from the heuristic gcd and,
with the heuristic switched off, from the PRS fallback, is compared with the
gcd of the integer contents times the primitive-PRS gcd over Q, with no
fast path for constant arguments; its cofactors times the gcd must give the
operands back.  Both references are kept here, so the code under test never
appears on the oracle side.  The closed forms at the end use `math.comb`
only.
"""
from math import comb, gcd

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from qabel import qfield
from qabel.qcomb import qfac
from qabel.qfield import _KRONECKER_MIN, QRat, _divexact, _kmul, _pgcd, _pmul, _prem, _primitive


def schoolbook(f, g):
    if not f or not g:
        return ()
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _primitive_part(f):
    c = 0
    for x in f:
        c = gcd(c, x)
    if f[-1] < 0:
        c = -c
    return tuple(x // c for x in f)


def _prem_reference(f, g):
    dg, lg = len(g) - 1, g[-1]
    cur = list(f)
    while len(cur) - 1 >= dg and cur:
        lf = cur[-1]
        cur = [c * lg for c in cur]
        shift = len(cur) - 1 - dg
        for i, gc in enumerate(g):
            cur[shift + i] -= lf * gc
        while cur and cur[-1] == 0:
            cur.pop()
    return tuple(cur)


def pgcd_reference(f, g):
    """The primitive-PRS gcd, with no fast path for constant arguments."""
    if not f:
        return _primitive_part(g) if g else ()
    if not g:
        return _primitive_part(f)
    vf = next(i for i, c in enumerate(f) if c)
    vg = next(i for i, c in enumerate(g) if c)
    f, g = _primitive_part(f[vf:]), _primitive_part(g[vg:])
    if len(f) < len(g):
        f, g = g, f
    while g:
        if len(g) == 1:
            f = (1,)
            break
        r = _prem_reference(f, g)
        g, f = (_primitive_part(r) if r else ()), g
    return (0,) * min(vf, vg) + f


def zgcd_reference(f, g):
    """gcd in Z[q]: gcd(content f, content g) times the primitive-PRS gcd."""
    c = gcd(gcd(*f), gcd(*g))
    return tuple(c * x for x in pgcd_reference(f, g))


@st.composite
def ipolys(draw, max_len=40, max_bits=300, max_shift=3):
    """Trimmed integer polynomials of one coefficient bit size, with zeros,
    a nonzero one times q**k for k up to max_shift."""
    bits = draw(st.integers(0, max_bits))
    bound = 2 ** bits
    coeff = st.one_of(st.just(0), st.integers(-bound, bound))
    cs = draw(st.lists(coeff, max_size=max_len))
    if cs and cs[-1] == 0:
        cs[-1] = draw(st.sampled_from([-bound, bound]))
    if cs:
        cs = [0] * draw(st.integers(0, max_shift)) + cs
    return tuple(cs)


class TestPmul:
    @given(ipolys(), ipolys())
    def test_matches_schoolbook(self, f, g):
        assert _pmul(f, g) == schoolbook(f, g)

    @given(ipolys(max_len=2 * _KRONECKER_MIN), ipolys(max_len=2 * _KRONECKER_MIN))
    def test_matches_schoolbook_near_threshold(self, f, g):
        assert _pmul(f, g) == schoolbook(f, g)

    @given(ipolys(), ipolys())
    def test_byte_fallback_matches_schoolbook(self, f, g):
        # With no machine word to pack into, every Kronecker product takes
        # the byte loop, which the benchmarks reach only at their largest
        # coefficients.
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(qfield, "_CODES", {})
            assert _pmul(f, g) == schoolbook(f, g)

    @given(st.integers(0, 2 * _KRONECKER_MIN), st.sampled_from([1, -1, 3, -(2**64 + 1), 2**200 + 7]),
           ipolys(max_len=3 * _KRONECKER_MIN))
    def test_monomial_operand(self, k, c, f):
        # c * q**k against operands on both sides of _KRONECKER_MIN, which
        # carry their own power of q.
        m = (0,) * k + (c,)
        assert _pmul(m, f) == schoolbook(m, f) == _pmul(f, m)

    @given(st.integers(2, 3 * _KRONECKER_MIN), st.integers(0, 3),
           st.sampled_from([1, -1, 3, -(2**64 + 1), 2**200 + 7]), ipolys())
    def test_q_integer_operand(self, m, k, c, f):
        # c * q**k * [m] on either side of operands with inner zeros, their
        # own power of q and coefficients past 2**64.  With k = 0 it is the
        # window sum, which packs nothing, even where both operands pass
        # _KRONECKER_MIN; with k > 0 the power of q stays on the operand,
        # which then takes the schoolbook or Kronecker branch.
        w = (0,) * k + (c,) * m
        packed = []
        with pytest.MonkeyPatch.context() as mp:
            _recording(mp, "_kpack", packed)
            assert _pmul(w, f) == schoolbook(w, f) == _pmul(f, w)
        assert k or not packed

    @given(st.integers(0, 40), ipolys())
    def test_q_power_shifts(self, k, f):
        assume(f)
        assert _pmul((0,) * k + (1,), f) == (0,) * k + f

    @given(ipolys())
    def test_unit_operand_returns_other(self, f):
        assume(f != (1,))  # both operands are units: either one may come back
        assert _pmul((1,), f) is f
        assert _pmul(f, (1,)) is f

    def test_width_bound(self):
        # Every coefficient at the edge of its bit size and every product
        # coefficient a full sum of equal-signed terms, so the chunks reach
        # their largest magnitude.  At n = 2**j - 1 terms of 2**k - 1 with
        # 2k + j a multiple of 8, the bound leaves no slack to the byte.
        # The widths 2k + j + 1 to 2k + j + 3 run from 7 bits past 72, so
        # they cross the 8-, 16-, 32- and 64-bit words and reach the first
        # byte-loop width, 9 bytes.  Such operands are multiples of [n],
        # which `_pmul` sums by window, so the Kronecker branch is called
        # itself.
        for n in sorted({_KRONECKER_MIN, _KRONECKER_MIN + 1, 15, 16, 63, 64}):
            for k in list(range(1, 37)) + [63, 64, 200]:
                edge = (2**k - 1, -(2**k - 1), -(2**k))
                for a in edge:
                    for b in edge:
                        f, g = (a,) * n, (b,) * n
                        assert _kmul(f, g) == schoolbook(f, g), (n, k, a, b)

    def test_alternating_signs(self):
        # Borrows on every other chunk of both operands.
        n = 3 * _KRONECKER_MIN
        f = tuple((-1) ** i * (2**40 - 1) for i in range(n))
        g = tuple((-1) ** (i // 2) * (2**33 + i) for i in range(n + 5))
        assert _pmul(f, g) == schoolbook(f, g)


class TestDivision:
    @given(ipolys(max_len=12, max_bits=64).filter(bool), ipolys(max_len=8, max_bits=64).filter(bool))
    def test_divexact_undoes_pmul(self, f, g):
        assert _divexact(_pmul(f, g), g) == f

    @given(ipolys(max_len=12, max_bits=64).filter(bool), ipolys(max_len=8, max_bits=64).filter(bool))
    def test_prem_matches_reference_up_to_content(self, f, g):
        if len(f) < len(g):
            f, g = g, f
        r = _prem_reference(f, g)
        assert _primitive(_prem(f, g))[1] == (_primitive_part(r) if r else ())


def _check_pgcd(f, g):
    """The gcd against the reference, and gcd times cofactor gives each operand back."""
    h, cf, cg = _pgcd(f, g)
    assert h == zgcd_reference(f, g)
    assert schoolbook(h, cf) == f
    assert schoolbook(h, cg) == g


class TestPgcd:
    @given(ipolys(max_len=6, max_bits=8).filter(bool), ipolys(max_len=6, max_bits=8).filter(bool))
    def test_matches_reference(self, f, g):
        _check_pgcd(f, g)

    @given(ipolys(max_len=4, max_bits=6).filter(bool), ipolys(max_len=4, max_bits=6).filter(bool),
           ipolys(max_len=4, max_bits=6).filter(bool))
    def test_matches_reference_with_common_factor(self, f, g, h):
        _check_pgcd(schoolbook(f, h), schoolbook(g, h))

    @given(st.integers(-(2**64), 2**64).filter(bool), ipolys(max_len=8).filter(bool))
    def test_constant_argument_gives_content_gcd(self, c, f):
        expected = (gcd(c, gcd(*f)),)
        assert _pgcd((c,), f)[0] == expected == _pgcd(f, (c,))[0]
        assert zgcd_reference((c,), f) == expected


@st.composite
def planted_pairs(draw, max_len=5, max_bits=200):
    """Two nonzero polynomials with a planted common factor, each times its
    own integer content and power of q, any leading sign and coefficients of
    up to max_bits bits."""
    h, f, g = [draw(ipolys(max_len=max_len, max_bits=max_bits).filter(bool)) for _ in range(3)]
    out = []
    for p in (f, g):
        k = draw(st.integers(-(2**max_bits), 2**max_bits).filter(bool))
        v = draw(st.integers(0, 3))
        out.append((0,) * v + tuple(k * c for c in schoolbook(p, h)))
    return tuple(out)


class TestPgcdCofactors:
    @settings(max_examples=200)
    @given(planted_pairs())
    def test_planted_factor(self, fg):
        _check_pgcd(*fg)

    def test_candidate_that_does_not_divide(self):
        # At the first point, 2**8, the integer gcd spells 123q - 28, which
        # divides neither operand; the second point, 2**16, gives the gcd
        # q + 4.  Each point packs both operands once.
        f, g = (16, 16, 7, 1), (-4, -9, 6, 2)
        packed = []
        with pytest.MonkeyPatch.context() as mp:
            _recording(mp, "_kpack", packed)
            assert _pgcd(f, g) == ((4, 1), (4, 3, 1), (-1, -2, 2))
        assert [nb for _, nb in packed] == [1, 1, 2, 2]

    def test_unit_operand_returns_the_other(self):
        f = (0, -6, 4)
        assert _pgcd((1,), f) == ((1,), (1,), f)
        assert _pgcd(f, (1,)) == ((1,), f, (1,))

    def test_cyclotomic_denominators(self):
        # The denominators of the verify checks are products of q-integers.
        def qint(n):
            return (1,) * n
        f, g = (1,), (1,)
        for k in range(1, 9):
            f = schoolbook(f, qint(k))
        for k in range(4, 13, 2):
            g = schoolbook(g, qint(k))
        _check_pgcd(f, g)
        _check_pgcd(schoolbook(f, (0, 0, 3)), schoolbook(g, (0, -2)))


def _recording(mp, name, sink):
    """Replace qfield.<name> by a wrapper that appends each call's arguments to sink."""
    real = getattr(qfield, name)

    def recording(*args):
        sink.append(args)
        return real(*args)

    mp.setattr(qfield, name, recording)


def qint_poly(k):
    return (1,) * k


@st.composite
def wide_ipolys(draw):
    """Primitive polynomials of 5 to _KRONECKER_MIN terms: constant term 1,
    coefficients of up to 90 bits and a leading one past 2**64."""
    mid = draw(st.lists(st.integers(-(2**90), 2**90), min_size=3, max_size=_KRONECKER_MIN - 2))
    lead = draw(st.integers(2**64, 2**90)) * draw(st.sampled_from([1, -1]))
    return (1, *mid, lead)


class TestHeuristicGcd:
    """The heuristic gcd at q = 2**W: wide chunks, both proofs of a
    cofactor, and the operands of the lagrange workload."""

    @settings(max_examples=40)
    @given(wide_ipolys(), wide_ipolys(), wide_ipolys())
    def test_wider_than_a_machine_word(self, h, a, b):
        # Coefficients past 2**63 make W at least 72 bits, so the operands,
        # of more than _KRONECKER_MIN terms, are packed one chunk at a time.
        assume(a != b)
        f = schoolbook(h, a)
        g = schoolbook(h, b)
        packed = []
        with pytest.MonkeyPatch.context() as mp:
            _recording(mp, "_kpack", packed)
            _check_pgcd(f, g)
        assert packed and all(nb > 8 for _, nb in packed)

    def test_multiply_back_when_the_bound_fails(self):
        # Small coefficients, so W = 8, but min(len a, len h) = 40 takes six
        # bits of it: bits(|a|) + bits(|h|) + bits(40) >= W, and each cofactor
        # is proven by forming h * a.
        h = qint_poly(40)
        f = schoolbook(h, tuple(1 if i % 3 else 2 for i in range(40)))
        g = schoolbook(h, tuple(1 if i % 5 else -1 for i in range(41)))
        products = []
        with pytest.MonkeyPatch.context() as mp:
            _recording(mp, "_pmul", products)
            got = _pgcd(f, g)
        assert len(products) == 2
        assert got[0] == zgcd_reference(f, g)
        assert schoolbook(got[0], got[1]) == f and schoolbook(got[0], got[2]) == g

    @settings(max_examples=60)
    @given(st.integers(8, 11), st.data())
    def test_lagrange_operands(self, k, data):
        # Numerators of Laurent coefficients against the numerator of [k]!,
        # of more than 24 coefficients: each numerator is a small polynomial
        # times some of the q-integers [j], j <= k, and a power of q.
        fac = (1,)
        for j in range(1, k + 1):
            fac = schoolbook(fac, qint_poly(j))
        num = data.draw(ipolys(max_len=6, max_bits=20, max_shift=0).filter(bool))
        for j in data.draw(st.lists(st.integers(2, k), max_size=6)):
            num = schoolbook(num, qint_poly(j))
        num = (0,) * data.draw(st.integers(0, 3)) + num
        assert len(fac) > 24
        _check_pgcd(num, fac)
        _check_pgcd(fac, num)


class TestPacking:
    """`_kpack` and `_kdigits` on both sides of _KRONECKER_MIN, at machine
    words and past them, against a plain sum of powers of two, and the
    chunk width `_chunk_bytes` that chooses between them."""

    @given(st.integers(1, 17), st.data())
    def test_round_trip(self, nb, data):
        top = 2 ** (8 * nb - 1)
        f = data.draw(st.lists(st.integers(-top + 1, top - 1), max_size=3 * _KRONECKER_MIN))
        while f and f[-1] == 0:
            f.pop()
        f = tuple(f)
        for size in (nb, qfield._chunk_bytes(8 * nb)):
            packed = qfield._kpack(f, size)
            assert packed == sum(c << (8 * size * i) for i, c in enumerate(f))
            assert qfield._kdigits(packed, size) == f

    @given(st.integers(1, 17), st.integers(-(2**700), 2**700))
    @example(1, int("7f" + "80" * 9, 16))  # every digit carries: 11 chunks for 10 bytes
    def test_balanced_digits(self, nb, n):
        for size in (nb, qfield._chunk_bytes(8 * nb)):
            w = 8 * size
            digits = qfield._kdigits(n, size)
            assert sum(d << (w * i) for i, d in enumerate(digits)) == n
            assert all(-(2 ** (w - 1)) <= d < 2 ** (w - 1) for d in digits)
            assert not digits or digits[-1]

    def test_chunk_bytes(self):
        # Up to the widest machine word, the smallest word of whole bytes;
        # past it, and with no words at all, the whole bytes alone.
        for bits in range(1, 201):
            nb = -(-bits // 8)
            want = min(s for s in (1, 2, 4, 8) if s >= nb) if nb <= 8 else nb
            assert qfield._chunk_bytes(bits) == want, bits
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(qfield, "_CODES", {})
            assert [qfield._chunk_bytes(bits) for bits in range(1, 201)] == [-(-b // 8) for b in range(1, 201)]


class TestPgcdFallback:
    """With no heuristic tries left, `_pgcd` takes the PRS and two exact
    divisions; the result must be the same."""

    @given(planted_pairs(max_len=4, max_bits=64))
    def test_fallback_matches_reference(self, fg):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(qfield, "_HEU_TRIES", 0)
            _check_pgcd(*fg)

    def test_fallback_is_taken(self):
        calls = []
        prem = qfield._prem

        def counting_prem(f, g):
            calls.append(1)
            return prem(f, g)

        f, g = schoolbook((1, 2, 3), (5, 0, -1)), schoolbook((1, 2, 3), (-7, 1))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(qfield, "_prem", counting_prem)
            _check_pgcd(f, g)
            assert not calls
            mp.setattr(qfield, "_HEU_TRIES", 0)
            _check_pgcd(f, g)
            assert calls


class TestClosedForms:
    """Numerators of powers against binomial coefficients: the squarings of
    `QRat.__pow__` run far above the schoolbook threshold.  The q-factorials
    against schoolbook products of q-integers: each step [k - 1]! * [k] is
    a window sum."""

    def test_q_factorial(self):
        num = (1,)
        for k in range(1, 31):
            num = schoolbook(num, qint_poly(k))
            r = qfac(k)
            assert r.den.coeffs == (1,)
            assert r.num.coeffs == num, k

    def test_one_plus_q(self):
        r = QRat((1, 1)) ** 200
        assert r.den.coeffs == (1,)
        assert r.num.coeffs == tuple(comb(200, k) for k in range(201))

    def test_one_minus_q(self):
        r = QRat((1, -1)) ** 150
        assert r.den.coeffs == (1,)
        assert r.num.coeffs == tuple((-1) ** k * comb(150, k) for k in range(151))
