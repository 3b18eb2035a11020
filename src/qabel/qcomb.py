"""q-combinatorial primitives: q-integers, q-factorials, Gaussian binomials,
the q-exponential coefficients c^k/[k]! and q^(k choose 2) c^k/[k]! and
their numerators, the two Abel shifts [n]a + q^n b and [n]a + b, the
shifted products (y +- x)(y +- qx)...(y +- q^(n-1)x), and q-Pochhammer
symbols.
Results are QRat scalars or MPoly values; everything is exact.

A shifted product is multiplied out once over two atoms X and Y, which
leaves the n + 1 coefficients of X^k Y^(n-k) as polynomials in q; then x
and y are substituted into that form in one sum of products.  The atom
coefficients come from the factors themselves, one factor at a time, and
never from `qbinom` or `qfac`: the registry checks the q-binomial theorem
and its relatives by comparing `qprod` against `qbinom`-weighted sums, so
the two sides stay independent.
"""
from __future__ import annotations

from functools import lru_cache

from .mpoly import A, B, MPoly, dot
from .qfield import ONE, ZERO, QRat

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

    Always a polynomial in q; zero outside 0 <= k <= n.  [n 1] is [n], read
    off `qint` without the recurrence, whose depth grows with n.
    """
    if n < 0:
        raise ValueError("upper index must be nonnegative")
    if k < 0 or k > n:
        return QRat((0,))
    if k == 0 or k == n:
        return ONE
    if k == 1:
        return qint(n)
    return qbinom(n - 1, k - 1) + qpow(k) * qbinom(n - 1, k)


def shift_a(n: int) -> MPoly:
    """The Abel shift [n]a + q^n b of the A and general B families."""
    return A.scale(qint(n)) + B.scale(qpow(n))


def shift_g(n: int) -> MPoly:
    """The Abel shift [n]a + b of the G and w families."""
    return A.scale(qint(n)) + B


def powers(c: MPoly, n: int) -> list[MPoly]:
    """[1, c, c^2, ..., c^n], each power one multiplication by c past the last."""
    out = [MPoly.one()]
    for _ in range(n):
        out.append(out[-1] * c)
    return out


def exp_powers(kind: str, c: MPoly, order: int) -> list[MPoly]:
    """Numerators of the z^0 .. z^order coefficients of the q-exponential of
    c*z: c^k for "small_e", q^(k choose 2) c^k for "big_E".

    Coefficient k is this over [k]!; sums that meet a [k]! of their own (an
    Abel-type sum, a divided power D^k/[k]!) take the numerators as they are.
    """
    if kind not in ("small_e", "big_E"):
        raise ValueError(f"unknown exponential kind {kind!r}")
    out = powers(c, order)
    return [p.scale(qpow(binom2(k))) for k, p in enumerate(out)] if kind == "big_E" else out


def exp_coeffs(kind: str, c: MPoly, order: int) -> list[MPoly]:
    """Coefficients of z^0 .. z^order in the q-exponential of c*z:
    `exp_powers` over [k]!."""
    return [p.scale(qfac(k).inv()) for k, p in enumerate(exp_powers(kind, c, order))]


@lru_cache(maxsize=None)
def qprod_coeffs(n: int) -> tuple[QRat, ...]:
    """e_0 .. e_n, where e_k is the coefficient of X^k Y^(n-k) in the
    product (Y + X)(Y + qX)...(Y + q^(n-1)X) over two atoms X and Y.

    The factors are multiplied in one at a time, in place: factor j sends
    e_k to e_k + q^j e_(k-1), from the top k down.  No Gaussian binomial or
    q-factorial is read (the sum it builds is e_k = q^(k choose 2) [n k]).
    """
    if n < 0:
        raise ValueError("product length must be nonnegative")
    e = [ONE] + [ZERO] * n
    for j in range(n):
        qj = qpow(j)
        for k in range(j + 1, 0, -1):
            e[k] = e[k] + qj * e[k - 1]
    return tuple(e)


def qprod(y: MPoly, x: MPoly, n: int, sign: str = "plus") -> MPoly:
    """Expanded n-fold shifted product of y with q-power multiples of x.

    sign "plus" gives (y + x)(y + qx)...(y + q^(n-1)x); "minus" flips x.
    The empty product is 1.  The product is the two-atom form of
    `qprod_coeffs` with X := +-x and Y := y put in at once: the sum over k
    of e_k (+-x)^k y^(n-k), from the powers of +-x and of y.
    """
    if n < 0:
        raise ValueError("product length must be nonnegative")
    if sign not in ("plus", "minus"):
        raise ValueError(f"unknown sign {sign!r}")
    e = qprod_coeffs(n)
    xs = powers(x if sign == "plus" else -x, n)
    ys = powers(y, n)
    return dot((xs[k].scale(e[k]), ys[n - k]) for k in range(n + 1))


def qpoch(u: MPoly, n: int) -> MPoly:
    """Expanded q-Pochhammer product (1 - u)(1 - qu)...(1 - q^(n-1)u)."""
    return qprod(MPoly.one(), u, n, "minus")
