"""The q-Abel polynomial families and their expansion machinery.

Seven families are built over the symbols x, a, b: the classical family
(the q = 1 baseline), two equivalent q-deformations A and G, the plain and
general B variants obtained through the diagonal rescaling V, the product
family w, and the two-term family S.  On top of the families sit the
Abel-basis expansion of an arbitrary polynomial and the three coefficient
extraction modes of the q-Lagrange machinery.
"""
from __future__ import annotations

from enum import Enum
from functools import lru_cache
from .mpoly import A, B, MPoly, Symbol, X, dot
from .operators import L_functional, V_op, divided_derivative
from .qcomb import binom2, powers, qbinom, qfac, qint, qpow, qprod, shift_a, shift_g
from .qfield import Record
from .series import PowerSeries


class OrderTooSmall(ValueError):
    """The input series is too short for the requested number of coefficients."""


class FamilyId(Enum):
    CLASSICAL = "classical"
    A = "A"
    G = "G"
    B_PLAIN = "B_plain"
    B_GENERAL = "B_general"
    W = "w"
    S = "S"


@lru_cache(maxsize=None)
def abel_poly(family: FamilyId, n: int) -> MPoly:
    """The degree-n member of a family, expanded in x, a, b.

    Every family has the constant 1 at index 0.
    """
    if n < 0:
        raise ValueError("family index must be nonnegative")
    if n == 0:
        return MPoly.one()
    if family is FamilyId.CLASSICAL:
        return (X - B) * (X - B - A.scale(n)) ** (n - 1)
    if family is FamilyId.A:
        return (X - B) * qprod(-shift_a(n), X.scale(qpow(1)), n - 1)
    if family is FamilyId.G:
        return (X - B) * qprod(-shift_g(n), X.scale(qpow(1)), n - 1)
    if family is FamilyId.W:
        return qprod(-shift_g(n), X, n)
    if family is FamilyId.S:
        return X ** n + (A * X ** (n - 1)).scale(qint(n))
    if family is FamilyId.B_PLAIN:
        return V_op(L_functional(abel_poly(FamilyId.A, n), Symbol.b))
    if family is FamilyId.B_GENERAL:
        return V_op(abel_poly(FamilyId.A, n))
    raise ValueError(f"unknown family {family!r}")


class AbelCoefficients(Record):
    """Coefficients of a polynomial against a family basis, index by degree."""

    __slots__ = ("basis", "coeffs")
    basis: FamilyId
    coeffs: tuple[MPoly, ...]

    def __post_init__(self):
        for c in self.coeffs:
            if not c.free_of(Symbol.x):
                raise ValueError("expansion coefficients must be free of x")

    def reconstruct(self) -> MPoly:
        return dot((c, abel_poly(self.basis, k)) for k, c in enumerate(self.coeffs))


def abel_expand(f: MPoly) -> AbelCoefficients:
    """Expand f in the G basis via q-derivative evaluations at shifted points.

    Coefficient k reads off q^-(k choose 2) times the divided derivative
    D^k f/[k]! at x = q^-k (b + [k] a).  The divided derivative sends the
    term x^e of f to [e k] x^(e-k), so it stays in Z[q, 1/q] when f does.
    """
    if not f.free_of(Symbol.y, Symbol.t):
        raise ValueError("polynomial to expand must be free of y and t")
    coeffs = []
    for k in range(f.degree_in(Symbol.x) + 1):
        point = shift_g(k).scale(qpow(-k))
        coeffs.append(divided_derivative(f, Symbol.x, k).subst(Symbol.x, point).scale(qpow(-binom2(k))))
    return AbelCoefficients(FamilyId.G, tuple(coeffs))


def lagrange_shift(mode: str, n: int) -> MPoly:
    """The shift entering E(shift * z) in each expansion mode."""
    if mode == "plain":
        return A.scale(qint(n))
    if mode == "general_b":
        return shift_a(n)
    if mode == "buermann":
        return shift_a(n).scale(qpow(-1))
    raise ValueError(f"unknown mode {mode!r}")


def lagrange_coeffs(f: PowerSeries, mode: str, order: int) -> list[MPoly]:
    """Coefficients c_0..c_order of the expansion of f over z^n E(shift_n z).

    plain:     c_n reads [n-1]! times the z^(n-1) coefficient of
               e(-[n]a z) f'(z); the expansion of f itself.
    general_b: the two-term variant with shift [n]a + q^n b.
    buermann:  c_n reads [n]! times the z^n coefficient of
               e(-(q^n b + [n]a)/q z) f(z); expands f(z)/(1 + a z / q).

    With F_j = [j]! f_j, so that [j]! (Df)_j = F_(j+1), and 1/([k]! [m-k]!)
    = [m k]/[m]!, every factorial cancels: for s = -shift_n, c_n is the one
    sum over k <= m of [m k] s^k H_(m-k).  plain takes m = n - 1 and
    H_j = F_(j+1); general_b the same m and H_j = F_(j+1) - b q^j F_j, its
    term b q^m (s/q)^k F_(m-k) moved into H; buermann m = n and H_j = F_j.
    Each sum stays in Z[q, 1/q] when every F_j does.
    """
    if mode not in ("plain", "general_b", "buermann"):
        raise ValueError(f"unknown mode {mode!r}")
    if f.order < order:
        raise OrderTooSmall(f"series order {f.order} below requested {order}")
    F = [c.scale(qfac(j)) for j, c in enumerate(f.coeffs[:order + 1])]
    H, lift = (F, 0) if mode == "buermann" else (F[1:], 1)
    if mode == "general_b":
        H = [h - (B * F[j]).scale(qpow(j)) for j, h in enumerate(H)]
    out = [F[0]]
    for n in range(1, order + 1):
        m = n - lift
        ps = powers(-lagrange_shift(mode, n), m)
        out.append(dot((ps[k].scale(qbinom(m, k)), H[m - k]) for k in range(m + 1)))
    return out
