"""Exact arithmetic in the field of rational functions of q over the rationals.

A value is a reduced fraction of polynomials in the single indeterminate q.
It is stored as q**v * n/d: an integer v and a pair (n, d) of integer
polynomials with no common factor in Z[q], integer content included, with
nonzero constant terms and with d positive-led; zero is (0, (), (1,)).
This form is unique, so equality is plain representation equality.

The weights q**k and q**C(k, 2) make almost every value a Laurent
polynomial n/q**k, stored with d == (1,).  Two such values multiply to
q**(v1 + v2) * n1*n2, since two nonzero constant terms have a nonzero
product, and add by shifting the numerator with the larger v and taking
off the power of q that cancelled; neither takes a gcd.  Any other value
is reduced by one gcd in Z[q], `_pgcd`: the gcd of the integer contents
times the gcd of the primitive parts.  The heuristic gcd GCDHEU finds the
latter at q = 2**W, in the Kronecker chunks of `_pmul`: the candidate and
the cofactors are the balanced base-2**W digits of the integer gcd of the
packed values and of the exact quotients by it, and each cofactor is
proven by a norm bound or by multiplying back; the primitive PRS is the
fallback.  `_pgcd` returns the two cofactors too, so a reduction divides
nothing further.  The views and the text multiply the power of q back into the
pair and show the denominator as a primitive integer polynomial, with its
content divided into the numerator's coefficients; the rendering of a
value is bit-reproducible.

All values are immutable and freely shareable between threads.
"""
from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction
from math import gcd as _int_gcd, lcm as _lcm
from operator import add as _add
from typing import Sequence, Union

Scalar = Union[int, Fraction]


class DivisionByZero(ZeroDivisionError):
    """Division by the zero element, or zero raised to a negative power."""


class PoleAtPoint(ArithmeticError):
    """Evaluation at a point where the reduced denominator vanishes."""

    def __init__(self, point: Fraction):
        super().__init__(f"denominator vanishes at q = {point}")
        self.point = point

    def __reduce__(self):
        return type(self), (self.point,)


# --------------------------------------------------------------------------
# Dense integer polynomials, little endian, as plain tuples.  () is zero.
# These helpers are internal; the public surface is QPoly / QRat below.
# --------------------------------------------------------------------------

IPoly = tuple  # tuple[int, ...]


def _trim(cs: list) -> IPoly:
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _padd(f: IPoly, g: IPoly) -> IPoly:
    if len(f) < len(g):
        f, g = g, f
    out = list(map(_add, f, g))
    out += f[len(g):]
    return _trim(out)


# Below this length of the shorter operand, _pmul multiplies schoolbook.
_KRONECKER_MIN = 8

# The word sizes of the Kronecker chunks that `array` packs and unpacks in
# C: _WORDS[nb] is the (size, signed typecode) of the smallest machine word
# of at least nb bytes.  Typecodes are chosen by their item size, which the
# C compiler sets, not by name.
_CODES = {array(c).itemsize: c for c in "bhilq"}
_WORDS = {nb: min((s, c) for s, c in _CODES.items() if s >= nb) for nb in range(1, max(_CODES) + 1)}
_ORDER = sys.byteorder


def _pmul(f: IPoly, g: IPoly) -> IPoly:
    """Product of two integer polynomials.

    A unit operand returns the other one.  Otherwise the lowest power of q
    is split off both operands and put back on the product.  If one of
    them is then a constant c, the product is the other one scaled by c.
    If the shorter one has fewer than _KRONECKER_MIN terms the product is
    the schoolbook sum; otherwise it is one big-integer product by
    Kronecker substitution: each operand is packed as its value at
    q = 2**W, and the product's coefficients are read back from the W-bit
    chunks of F(2**W) * G(2**W).

    The width w is bits(max|f|) + bits(max|g|) + bits(min(len f, len g)) + 1.
    Each product coefficient is a sum of at most min(len f, len g) products
    of one coefficient of each operand, so its magnitude is below 2**(w - 1).
    The chunk width W is w rounded up to whole bytes, and further to the
    next machine word (1, 2, 4 or 8 bytes) when there is one; W >= w keeps
    every coefficient below 2**(W - 1), and every operand coefficient too.
    An operand is packed as the W-bit two's complements of its
    coefficients, each negative one having borrowed 2**W from the chunk
    above.  Adding 2**(W - 1) to every chunk of the product gives digits
    c + 2**(W - 1) in (0, 2**W), so the sum is their base-2**W expansion
    with no carry between chunks.  XOR with the same offsets flips bit
    W - 1 of each digit, which subtracts 2**(W - 1) modulo 2**W: each chunk
    becomes the W-bit two's complement of its coefficient, read back by
    `array` for a machine word or one chunk at a time beyond it.
    """
    if not f or not g:
        return ()
    if f == (1,):
        return g
    if g == (1,):
        return f
    vf = vg = 0
    if not (f[0] and g[0]):
        vf, vg = _valuation(f), _valuation(g)
        f, g = f[vf:], g[vg:]
    if len(f) > len(g):
        f, g = g, f
    if len(f) == 1:
        return _pshift(_pscale(g, f[0]), vf + vg)
    if len(f) < _KRONECKER_MIN:
        out = [0] * (vf + vg + len(f) + len(g) - 1)
        for i, a in enumerate(f, vf + vg):
            if a:
                for j, b in enumerate(g, i):
                    out[j] += a * b
        return _trim(out)
    lo_f, hi_f, lo_g, hi_g = min(f), max(f), min(g), max(g)
    w = max(hi_f, -lo_f).bit_length() + max(hi_g, -lo_g).bit_length() + len(f).bit_length() + 1
    nb = (w + 7) // 8
    nb, code = _WORDS.get(nb, (nb, ""))
    n = len(f) + len(g) - 1
    ones = _ones(nb, n)
    out = _kread(_kpack(f, nb, code, ones, lo_f < 0) * _kpack(g, nb, code, ones, lo_g < 0), n, nb, code, ones)
    return _pshift(_trim(out), vf + vg)


def _ones(nb: int, n: int) -> int:
    """The integer with a 1 in each of n chunks of nb bytes."""
    return int.from_bytes((b"\1" + bytes(nb - 1)) * n, "little")


def _kread(packed: int, n: int, nb: int, code: str, ones: int) -> list:
    """The n coefficients, low first, of the polynomial whose value at
    q = 2**(8 * nb) is packed, each below 2**(8 * nb - 1) in magnitude: the
    offset and XOR decode described in `_pmul`.  ones is `_ones(nb, n)`."""
    offsets = ones << (8 * nb - 1)
    buf = ((packed + offsets) ^ offsets).to_bytes(n * nb, _ORDER)
    if code:
        return array(code, buf).tolist()
    return [int.from_bytes(buf[i:i + nb], _ORDER, signed=True) for i in range(0, n * nb, nb)]


def _kpack(f: IPoly, nb: int, code: str, ones: int, signed: bool) -> int:
    """f at q = 2**(8 * nb), each coefficient fitting nb signed bytes: the
    chunks are packed by `array` when code is the typecode of an nb-byte
    word, else one coefficient at a time.  ones has a 1 in each chunk."""
    raw = array(code, f).tobytes() if code else b"".join([c.to_bytes(nb, _ORDER, signed=True) for c in f])
    packed = int.from_bytes(raw, _ORDER)
    if signed:
        # A negative chunk reads as c + 2**W: take the 2**W borrow back
        # from the next chunk up, one for each chunk whose top bit is set.
        packed -= ((packed >> (8 * nb - 1)) & ones) << (8 * nb)
    return packed


def _kval(f: IPoly, nb: int, code: str) -> int:
    """f at q = 2**(8 * nb), each coefficient fitting nb signed bytes: by
    shifts below _KRONECKER_MIN coefficients, where that costs less than
    setting up `array`, else by `_kpack`."""
    if len(f) >= _KRONECKER_MIN:
        return _kpack(f, nb, code, _ones(nb, len(f)), min(f) < 0)
    w = 8 * nb
    packed = 0
    for c in reversed(f):
        packed = (packed << w) + c
    return packed


def _kdigits(packed: int, nb: int, code: str) -> IPoly:
    """The polynomial whose value at q = 2**W, W = 8 * nb, is packed and whose
    coefficients lie in [-2**(W - 1), 2**(W - 1)): the balanced base-2**W
    digits of packed, low first, trimmed.  Up to _KRONECKER_MIN chunks they
    are taken off by shifts, else read back by `_kread`."""
    w = 8 * nb
    n = packed.bit_length() // w + 2  # one chunk more than the bits need: the top digit cannot overflow
    if n > _KRONECKER_MIN:
        return _trim(_kread(packed, n, nb, code, _ones(nb, n)))
    out = []
    mask, top = (1 << w) - 1, 1 << (w - 1)
    while packed:
        d = packed & mask
        if d & top:
            d -= mask + 1
        out.append(d)
        packed = (packed - d) >> w
    return tuple(out)


def _pscale(f: IPoly, k: int) -> IPoly:
    """f times the integer k; k must be nonzero, or the result is untrimmed."""
    return f if k == 1 else tuple([c * k for c in f])


def _pshift(f: IPoly, k: int) -> IPoly:
    """Multiply the nonzero f by q**k (k >= 0)."""
    return (0,) * k + tuple(f)


def _valuation(f: IPoly) -> int:
    for i, c in enumerate(f):
        if c:
            return i
    return 0


def _content(f: IPoly) -> int:
    return _int_gcd(*f)


def _primitive(f: IPoly) -> tuple[int, IPoly]:
    """Split f as content * primitive part with positive leading coefficient.

    The content carries the sign; the primitive part has lc > 0.
    """
    if not f:
        return 0, ()
    c = _content(f)
    if f[-1] < 0:
        c = -c
    if c == 1:
        return 1, f
    return c, tuple([x // c for x in f])


def _divrem(f: IPoly, g: IPoly) -> tuple[IPoly, list]:
    """Schoolbook division of f by g: the quotient and the untrimmed remainder
    list.  Every step must divide exactly by lc(g), as it does when g divides
    f or for lc(g)**(deg f - deg g + 1) * f."""
    dg = len(g) - 1
    rem = list(f)
    out = [0] * (len(f) - dg)
    lg = g[-1]
    for k in range(len(f) - 1 - dg, -1, -1):
        c = rem[dg + k]
        if c:
            qc = c // lg
            out[k] = qc
            for i, gc in enumerate(g):
                rem[k + i] -= qc * gc
    return _trim(out), rem


def _divexact(f: IPoly, g: IPoly) -> IPoly:
    """Exact polynomial division of a nonzero f; g must divide f over the integers."""
    if g == (1,):
        return f
    return _divrem(f, g)[0]


def _prem(f: IPoly, g: IPoly) -> IPoly:
    """Pseudo-remainder of f by g, deg f >= deg g: the remainder of
    lc(g)**(deg f - deg g + 1) * f, the multiple that makes every step exact."""
    m = g[-1] ** (len(f) - len(g) + 1)
    return _trim(_divrem([c * m for c in f], g)[1])


def _pgcd(f: IPoly, g: IPoly) -> tuple[IPoly, IPoly, IPoly]:
    """gcd h in Z[q] of two nonzero polynomials, with positive leading
    coefficient, and its cofactors: the triple (h, f/h, g/h).

    In a UFD the gcd is gcd(contents) * gcd(primitive parts) (Knuth, TAOCP
    vol. 2, 4.6.1).  The lowest power of q is split off first, so a monomial
    costs no remainder; each operand is then split once into content and
    primitive part.  The gcd of the primitive parts is 1 when one of them is
    a constant, and the part itself when the two are equal; two other parts
    of positive degree go through the heuristic gcd, `_heu_gcd`, and through
    the primitive PRS, `_prs_gcd`, in the rare case that it gives up.
    """
    if f == (1,) or g == (1,):
        return (1,), f, g
    vf, vg = _valuation(f), _valuation(g)
    v = min(vf, vg)
    cf, fp = _primitive(f[vf:])
    cg, gp = _primitive(g[vg:])
    c = _int_gcd(cf, cg)
    if len(fp) == 1 or len(gp) == 1:
        h = (1,)
    elif fp == gp:
        h, fp, gp = fp, (1,), (1,)
    else:
        h, fp, gp = _heu_gcd(fp, gp) or _prs_gcd(fp, gp)
    if h == (1,) and c == 1 and v == 0:
        return h, f, g
    return (_pshift(_pscale(h, c), v), _pshift(_pscale(fp, cf // c), vf - v),
            _pshift(_pscale(gp, cg // c), vg - v))


# GCDHEU gives up after this many evaluation points (sympy's HEU_GCD_MAX).
_HEU_TRIES = 6


def _heu_gcd(f: IPoly, g: IPoly) -> tuple[IPoly, IPoly, IPoly] | None:
    """(h, f/h, g/h) for the gcd h of primitive f and g of positive degree, by
    the heuristic gcd of Char, Geddes & Gonnet (GCDHEU, J. Symb. Comp. 1989),
    or None when no evaluation point gives it.

    Both are evaluated at xi = 2**W, W whole bytes with 2**W >= 2 * max(|f|,
    |g|) + 29 (max-norms), so the values F, G are Kronecker packings
    (`_kval`).  The candidate h is the primitive part of the balanced
    base-2**W digits of gcd(F, G) (`_kdigits`; those of -gcd(F, G), with the
    theorem's rounding, have the same primitive part).  Since
    xi > 2 * min(|f|, |g|) + 1, a candidate that divides both f and g is their
    gcd; `_heu_cofactor` proves each division.  A failed point moves W up by
    about a quarter, as sympy's dup_zz_heu_gcd takes xi to about xi**1.25.
    """
    top = max(max(f), -min(f), max(g), -min(g))
    nb = ((2 * top + 28).bit_length() + 7) // 8
    for _ in range(_HEU_TRIES):
        nb, code = _WORDS.get(nb, (nb, ""))
        ff, gg = _kval(f, nb, code), _kval(g, nb, code)
        gam = _int_gcd(ff, gg)
        c, h = _primitive(_kdigits(gam, nb, code))
        if h == (1,):
            return h, f, g
        hh = gam // c
        a = _heu_cofactor(f, ff, h, hh, nb, code)
        b = a and _heu_cofactor(g, gg, h, hh, nb, code)
        if b:
            return h, a, b
        nb += nb // 4 + 1
    return None


def _heu_cofactor(f: IPoly, ff: int, h: IPoly, hh: int, nb: int, code: str) -> IPoly | None:
    """f/h, proven, for ff = f(2**W) and hh = h(2**W), W = 8 * nb, every
    coefficient of f below 2**(W - 1) in magnitude; None when h does not
    divide f, as when ff // hh leaves a remainder.

    The quotient a is read back from ff // hh.  If bits(|a|) + bits(|h|) +
    bits(min(len a, len h)) < W (max-norms), each coefficient of h * a, a sum
    of at most min(len a, len h) products below 2**(bits|a| + bits|h|), lies
    in (-2**(W - 1), 2**(W - 1)) like those of f; the two have the same
    value at 2**W, hence the same digits.  Otherwise h * a is formed and
    compared with f.
    """
    if f == h:
        return (1,)
    a, r = divmod(ff, hh)
    if r:
        return None
    a = _kdigits(a, nb, code)
    bits = max(max(a), -min(a)).bit_length() + max(max(h), -min(h)).bit_length()
    if bits + min(len(a), len(h)).bit_length() < 8 * nb or _pmul(h, a) == f:
        return a
    return None


def _prs_gcd(f: IPoly, g: IPoly) -> tuple[IPoly, IPoly, IPoly]:
    """(h, f/h, g/h) for the gcd h of primitive f and g of positive degree,
    by the primitive PRS (Knuth, TAOCP vol. 2, 4.6.1, Algorithm E)."""
    a, b = (f, g) if len(f) >= len(g) else (g, f)
    while b:
        if len(b) == 1:
            return (1,), f, g
        a, b = b, _primitive(_prem(a, b))[1]
    return a, _divexact(f, a), _divexact(g, a)


def _peval(f: IPoly, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(f):
        acc = acc * x + c
    return acc


def _power(base, n: int, one):
    """base ** n for n >= 0 by square-and-multiply in base's own ring, whose
    unit is one."""
    acc = one
    while n:
        if n & 1:
            acc = acc * base
        n >>= 1
        if n:
            base = base * base
    return acc


def _render_terms(pairs) -> str:
    """Join (negative, body) pairs into a canonical sum string."""
    parts: list[str] = []
    for neg, body in pairs:
        if not parts:
            parts.append(("-" + body) if neg else body)
        else:
            parts.append(("- " if neg else "+ ") + body)
    return " ".join(parts) if parts else "0"


def render_poly(coeffs: Sequence[Scalar]) -> str:
    """Canonical text of a polynomial in q, highest power first; the
    coefficients may be ints or Fractions."""
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
    return _render_terms(pairs)


@dataclass(frozen=True)
class QPoly:
    """Polynomial in q with rational coefficients, index i holding the q**i term."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        if self.coeffs and self.coeffs[-1] == 0:
            raise ValueError("leading coefficient must be nonzero")

    @classmethod
    def of(cls, coeffs: Sequence[Scalar]) -> QPoly:
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        return cls(tuple(cs))

    @property
    def degree(self) -> int:
        """Degree, with -1 standing in for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __str__(self) -> str:
        return render_poly(self.coeffs)


class QRat:
    """Element of the field of rational functions in q, in canonical form.

    Stored as q**v * n/d: v an int, and n, d integer polynomials that are
    coprime in Z[q], integer content included, with n(0) != 0, d(0) != 0
    and d positive-led; zero is (0, (), (1,)).  A Laurent polynomial is
    d == (1,), and a product or sum of two of them takes no gcd.  `num`,
    `den`, `eval` and the text multiply q**v back into the pair.
    """

    __slots__ = ("_v", "_n", "_d")

    def __init__(self, num: Sequence[Scalar], den: Sequence[Scalar] = (1,)):
        fn = [Fraction(c) for c in num]
        fd = [Fraction(c) for c in den]
        m = _lcm(*(c.denominator for c in fn + fd))
        n = _trim([c.numerator * (m // c.denominator) for c in fn])
        d = _trim([c.numerator * (m // c.denominator) for c in fd])
        if not d:
            raise DivisionByZero("zero denominator")
        v = 0
        if not n:
            d = (1,)
        else:
            vn, vd = _valuation(n), _valuation(d)
            v = vn - vd
            n, d = _pgcd(n[vn:], d[vd:])[1:]
            if d[-1] < 0:
                n, d = _pscale(n, -1), _pscale(d, -1)
        self._v, self._n, self._d = v, n, d

    # -- construction -------------------------------------------------------

    @classmethod
    def _make(cls, v: int, n: IPoly, d: IPoly) -> QRat:
        self = object.__new__(cls)
        self._v, self._n, self._d = v, n, d
        return self

    @classmethod
    def from_scalar(cls, v: Scalar) -> QRat:
        f = Fraction(v)
        return cls._make(0, (f.numerator,), (f.denominator,)) if f else ZERO

    @classmethod
    def q_power(cls, k: int) -> QRat:
        """q**k as a field element, for any integer k."""
        return cls._make(k, (1,), (1,))

    # -- views ---------------------------------------------------------------

    def _pair(self) -> tuple[IPoly, IPoly]:
        """The value as one coprime pair in Z[q], the power of q multiplied in."""
        v, n, d = self._v, self._n, self._d
        if v > 0:
            return _pshift(n, v), d
        return n, _pshift(d, -v)

    @property
    def num(self) -> QPoly:
        n, d = self._pair()
        s = _content(d)
        return QPoly(tuple(Fraction(k, s) for k in n))

    @property
    def den(self) -> QPoly:
        d = self._pair()[1]
        s = _content(d)
        return QPoly(tuple(Fraction(k // s) for k in d))

    def is_zero(self) -> bool:
        return not self._n

    def is_one(self) -> bool:
        return self._v == 0 and self._n == (1,) and self._d == (1,)

    def is_constant(self) -> bool:
        """True when the value is a plain rational number (free of q)."""
        return self._v == 0 and len(self._n) <= 1 and len(self._d) == 1

    def as_fraction(self) -> Fraction:
        if not self.is_constant():
            raise ValueError(f"not a constant: {self}")
        return Fraction(self._n[0], self._d[0]) if self._n else Fraction(0)

    def is_negative(self) -> bool:
        """Sign of the canonical numerator (denominator is always positive-led)."""
        return bool(self._n) and self._n[-1] < 0

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other) -> QRat:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        n1, d1, n2, d2 = self._n, self._d, other._n, other._d
        if not n1:
            return other
        if not n2:
            return self
        if d1 == (1,) and d2 == (1,):
            v, t = _qsum(self._v, n1, other._v, n2)
            return QRat._make(v, t, d1) if t else ZERO
        # Henrici: with g = gcd(d1, d2), the sum n1*(d2/g) + n2*(d1/g) is
        # coprime to d1/g and to d2/g, so only g can share a factor with it.
        g, e1, e2 = _pgcd(d1, d2)
        v, t = _qsum(self._v, _pmul(n1, e2), other._v, _pmul(n2, e1))
        if not t:
            return ZERO
        # The reduced denominator d1*d2/(g*h) is e1 * (g/h) * e2.
        h, t, gh = _pgcd(t, g)
        return QRat._make(v, t, _pmul(e1, d2 if h == (1,) else _pmul(gh, e2)))

    __radd__ = __add__

    def __neg__(self) -> QRat:
        return QRat._make(self._v, _pscale(self._n, -1), self._d)

    def __sub__(self, other) -> QRat:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> QRat:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> QRat:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        n1, d1, n2, d2 = self._n, self._d, other._n, other._d
        if not (n1 and n2):
            return ZERO
        v = self._v + other._v
        if d1 == (1,) and d2 == (1,):
            # Two nonzero constant terms have a nonzero product: no strip.
            return QRat._make(v, _pmul(n1, n2), d1)
        # Cross-reduce each numerator against the other denominator, unless
        # either is (1,): then there is no factor to cancel.
        if n1 != (1,) and d2 != (1,):
            _, n1, d2 = _pgcd(n1, d2)
        if n2 != (1,) and d1 != (1,):
            _, n2, d1 = _pgcd(n2, d1)
        return QRat._make(v, _pmul(n1, n2), _pmul(d1, d2))

    __rmul__ = __mul__

    def inv(self) -> QRat:
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        if self._n[-1] < 0:
            return QRat._make(-self._v, _pscale(self._d, -1), _pscale(self._n, -1))
        return QRat._make(-self._v, self._d, self._n)

    def __truediv__(self, other) -> QRat:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other) -> QRat:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inv()

    def __pow__(self, n: int) -> QRat:
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return _power(self.inv(), -n, ONE)
        return _power(self, n, ONE)

    # -- comparison, evaluation, rendering ------------------------------------

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._v == other._v and self._n == other._n and self._d == other._d

    def __hash__(self) -> int:
        if self.is_constant():
            return hash(self.as_fraction())
        return hash((self._v, self._n, self._d))

    def eval(self, q0: Scalar) -> Fraction:
        q0 = Fraction(q0)
        dv = _peval(self._d, q0)
        if dv == 0 or (q0 == 0 and self._v < 0):
            raise PoleAtPoint(q0)
        r = _peval(self._n, q0) / dv
        return r * q0 ** self._v if self._v else r

    def __str__(self) -> str:
        # The text shows the primitive denominator, its content moved to
        # the numerator's coefficients.
        n, d = self._pair()
        s = _content(d)
        if s != 1:
            n, d = [Fraction(k, s) for k in n], [k // s for k in d]
        num_s = render_poly(n)
        if len(d) == 1:
            return num_s
        den_s = render_poly(d)
        if " " in num_s:
            num_s = f"({num_s})"
        if " " in den_s:
            den_s = f"({den_s})"
        return f"{num_s}/{den_s}"

    def __repr__(self) -> str:
        return f"QRat({self})"


def _qsum(v1: int, n1: IPoly, v2: int, n2: IPoly) -> tuple[int, IPoly]:
    """q**v1 * n1 + q**v2 * n2 for n1(0), n2(0) != 0, as (v, t) with t(0) != 0,
    or t == () for zero.  When v1 != v2 the lower term's constant survives;
    only equal powers can cancel, and then the power of q that cancelled is
    stripped from the sum."""
    if v1 > v2:
        return v2, _padd(_pshift(n1, v1 - v2), n2)
    if v2 > v1:
        return v1, _padd(n1, _pshift(n2, v2 - v1))
    t = _padd(n1, n2)
    if t and not t[0]:
        s = _valuation(t)
        return v1 + s, t[s:]
    return v1, t


def _coerce(v) -> QRat:
    if isinstance(v, QRat):
        return v
    if isinstance(v, (int, Fraction)):
        return QRat.from_scalar(v)
    return NotImplemented


ZERO = QRat._make(0, (), (1,))
ONE = QRat._make(0, (1,), (1,))
Q = QRat._make(1, (1,), (1,))


# --------------------------------------------------------------------------
# Laurent values packed as integers, for sums of many products (mpoly.dot).
# A Laurent value q**v * n is packed as (v, N) with N = n(2**W), in the W-bit
# chunks of `_pmul`: a product of two packed values is (v1 + v2, N1 * N2),
# and a sum shifts the N with the larger v up by W bits per power of q and
# adds.  W is a machine word wide enough for every coefficient of the sum.
# --------------------------------------------------------------------------

def _laurent_scan(values, budget: int) -> tuple[int, int] | None:
    """(bit size of the largest |coefficient|, length of the longest
    numerator) over nonzero values, or None at the first value that is not
    a Laurent polynomial or has a coefficient of more than budget bits."""
    bits = longest = 0
    for c in values:
        if c._d != (1,):
            return None
        n = c._n
        b = max(max(n), -min(n)).bit_length()
        if b > bits:
            if b > budget:
                return None
            bits = b
        if len(n) > longest:
            longest = len(n)
    return bits, longest


def _laurent_word(left, right, products: int) -> tuple[int, str] | None:
    """The machine word (byte size, `array` typecode) whose chunks hold every
    coefficient of a sum of `products` products u * v, u from the nonzero
    values left and v from right; None when a value is not Laurent or no
    machine word is wide enough.

    Each coefficient of one product is a sum of at most min(len u, len v)
    products of two coefficients, so the sum's coefficients are below
    2**(W - 1) in magnitude when W is at least bits(max|u|) + bits(max|v|)
    + bits(min(longest u, longest v)) + bits(products) + 1, lengths
    counting the coefficients of the numerators.  Every partial sum obeys
    the same bound, so each one reads back exactly.
    """
    room = 8 * max(_WORDS, default=0) - 1 - products.bit_length()
    lhs = _laurent_scan(left, room - 2)  # right's bits and the length take one bit each, at least
    rhs = lhs and _laurent_scan(right, room - 1 - lhs[0])
    if not rhs:
        return None
    w = lhs[0] + rhs[0] + min(lhs[1], rhs[1]).bit_length() + products.bit_length() + 1
    return _WORDS.get((w + 7) // 8)


def _laurent_pack(items, nb: int, code: str) -> list[tuple[object, int, int]]:
    """(key, v, N) for each (key, c) of items, c = q**v * n a nonzero Laurent
    value and N the value of n at q = 2**(8 * nb); every coefficient of n
    must fit nb signed bytes, and code is the typecode of an nb-byte word."""
    out = []
    for k, c in items:
        n = c._n
        out.append((k, c._v, _kval(n, nb, code)))
    return out


def _laurent_unpack(items, nb: int, code: str) -> dict:
    """{key: q**v * n} for each (key, (v, N)) of items with N = n(2**W) nonzero,
    W = 8 * nb, and every coefficient of n below 2**(W - 1) in magnitude; a
    zero N is dropped.  The zero chunks at the bottom of N move into v, and
    the rest read back by `_kdigits`."""
    w = 8 * nb
    out = {}
    for k, (v, packed) in items:
        if not packed:
            continue
        s = ((packed & -packed).bit_length() - 1) // w
        if s:
            packed >>= w * s
            v += s
        out[k] = QRat._make(v, _kdigits(packed, nb, code), (1,))
    return out


# --------------------------------------------------------------------------
# Operation-style surface.
# --------------------------------------------------------------------------

def qrat_arith(op: str, lhs: QRat, rhs=None) -> QRat:
    """Field arithmetic dispatcher: op in {add, sub, mul, div, neg, pow}."""
    if op == "add":
        return lhs + rhs
    if op == "sub":
        return lhs - rhs
    if op == "mul":
        return lhs * rhs
    if op == "div":
        return lhs / rhs
    if op == "neg":
        return -lhs
    if op == "pow":
        return lhs ** rhs
    raise ValueError(f"unknown operation {op!r}")


def qrat_eval(r: QRat, q0: Scalar) -> Fraction:
    """Exact substitution q := q0; raises PoleAtPoint on a denominator root."""
    return r.eval(q0)


def qrat_equal(lhs: QRat, rhs: QRat) -> bool:
    """Equality of canonical forms (equivalently: lhs - rhs reduces to zero)."""
    return lhs == rhs
