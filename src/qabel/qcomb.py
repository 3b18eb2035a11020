"""q-combinatorial primitives: q-integers, q-factorials, Gaussian binomials,
the q-exponential coefficients c^k/[k]! and q^(k choose 2) c^k/[k]! and
their numerators, the two Abel shifts [n]a + q^n b and [n]a + b, the
shifted products (y +- x)(y +- qx)...(y +- q^(n-1)x), and q-Pochhammer
symbols.
Results are QRat scalars or MPoly values; everything is exact.
"""
from __future__ import annotations

from functools import lru_cache

from .mpoly import A, B, MPoly
from .qfield import ONE, QRat

def binom2(n: int) -> int:
    """n choose 2, with the values 0 for n in {0, 1}."""
    return n * (n - 1) // 2 if n > 1 else 0


def qpow(k: int) -> QRat:
    """q**k as a field element (negative k allowed)."""
    return QRat.q_power(k)


@lru_cache(maxsize=None)
def qint(n: int) -> QRat:
    """The q-integer 1 + q + ... + q**(n-1); zero for n = 0."""
    if n < 0:
        raise ValueError("q-integer index must be nonnegative")
    return QRat((1,) * n)


@lru_cache(maxsize=None)
def qfac(n: int) -> QRat:
    """The q-factorial, the product of the first n q-integers."""
    if n < 0:
        raise ValueError("q-factorial index must be nonnegative")
    if n == 0:
        return ONE
    return qfac(n - 1) * qint(n)


@lru_cache(maxsize=None)
def qbinom(n: int, k: int) -> QRat:
    """Gaussian binomial coefficient, computed by the q-Pascal recurrence.

    Always a polynomial in q; zero outside 0 <= k <= n.
    """
    if n < 0:
        raise ValueError("upper index must be nonnegative")
    if k < 0 or k > n:
        return QRat((0,))
    if k == 0 or k == n:
        return ONE
    return qbinom(n - 1, k - 1) + qpow(k) * qbinom(n - 1, k)


def shift_a(n: int) -> MPoly:
    """The Abel shift [n]a + q^n b of the A and general B families."""
    return A.scale(qint(n)) + B.scale(qpow(n))


def shift_g(n: int) -> MPoly:
    """The Abel shift [n]a + b of the G and w families."""
    return A.scale(qint(n)) + B


def exp_powers(kind: str, c: MPoly, order: int) -> list[MPoly]:
    """Numerators of the z^0 .. z^order coefficients of the q-exponential of
    c*z: c^k for "small_e", q^(k choose 2) c^k for "big_E".

    Coefficient k is this over [k]!; sums that meet a [k]! of their own (an
    Abel-type sum, a divided power D^k/[k]!) take the numerators as they are.
    """
    if kind not in ("small_e", "big_E"):
        raise ValueError(f"unknown exponential kind {kind!r}")
    out = [MPoly.one()]
    power = MPoly.one()
    for k in range(1, order + 1):
        power = power * c
        out.append(power.scale(qpow(binom2(k))) if kind == "big_E" else power)
    return out


def exp_coeffs(kind: str, c: MPoly, order: int) -> list[MPoly]:
    """Coefficients of z^0 .. z^order in the q-exponential of c*z:
    `exp_powers` over [k]!."""
    return [p.scale(qfac(k).inv()) for k, p in enumerate(exp_powers(kind, c, order))]


def qprod(y: MPoly, x: MPoly, n: int, sign: str = "plus") -> MPoly:
    """Expanded n-fold shifted product of y with q-power multiples of x.

    sign "plus" gives (y + x)(y + qx)...(y + q^(n-1)x); "minus" flips x.
    The empty product is 1.
    """
    if n < 0:
        raise ValueError("product length must be nonnegative")
    if sign not in ("plus", "minus"):
        raise ValueError(f"unknown sign {sign!r}")
    step = x if sign == "plus" else -x
    out = MPoly.one()
    for j in range(n):
        out = out * (y + step.scale(qpow(j)))
    return out


def qpoch(u: MPoly, n: int) -> MPoly:
    """Expanded q-Pochhammer product (1 - u)(1 - qu)...(1 - q^(n-1)u)."""
    return qprod(MPoly.one(), u, n, "minus")
