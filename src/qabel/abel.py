"""The q-Abel polynomial families and their expansion machinery.

Seven families are built over the symbols x, a, b: the classical family
(the q = 1 baseline), two equivalent q-deformations A and G, the plain and
general B variants obtained through the diagonal rescaling V, the product
family w, and the two-term family S.  On top of the families sit the
Abel-basis expansion of an arbitrary polynomial and the three coefficient
extraction modes of the q-Lagrange machinery.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from .mpoly import A, B, MPoly, Symbol, X, dot
from .operators import L_functional, V_op, qderiv
from .qcomb import binom2, exp_powers, qfac, qint, qpow, qprod, shift_a, shift_g
from .qfield import ONE as QR_ONE
from .series import PowerSeries, conv_at


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


@dataclass(frozen=True)
class AbelCoefficients:
    """Coefficients of a polynomial against a family basis, index by degree."""

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

    Coefficient k reads off q^-(k choose 2)/[k]! times the k-th q-derivative
    of f at x = q^-k (b + [k] a).
    """
    if not f.free_of(Symbol.y, Symbol.t):
        raise ValueError("polynomial to expand must be free of y and t")
    coeffs = []
    dk = f
    for k in range(f.degree_in(Symbol.x) + 1):
        if k:
            dk = qderiv(dk, Symbol.x, 1)
        point = shift_g(k).scale(qpow(-k))
        c = dk.subst(Symbol.x, point).scale(qpow(-binom2(k)) * qfac(k).inv())
        coeffs.append(c)
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


def _factorial_scaled_exp(s: MPoly, n: int) -> list[MPoly]:
    """[n]! times the z^0 .. z^n coefficients of e(s z): the terms
    ([n]!/[k]!) s^k, whose weights [k+1][k+2]...[n] are polynomials in q."""
    out = exp_powers("small_e", s, n)
    w = QR_ONE
    for k in range(n, -1, -1):
        out[k] = out[k].scale(w)
        w = w * qint(k)
    return out


def lagrange_coeffs(f: PowerSeries, mode: str, order: int) -> list[MPoly]:
    """Coefficients c_0..c_order of the expansion of f over z^n E(shift_n z).

    plain:     c_n reads [n-1]! times the z^(n-1) coefficient of
               e(-[n]a z) f'(z); the expansion of f itself.
    general_b: the two-term variant with shift [n]a + q^n b.
    buermann:  c_n reads [n]! times the z^n coefficient of
               e(-(q^n b + [n]a)/q z) f(z); expands f(z)/(1 + a z / q).

    The factorial goes into the exponential's coefficients before the
    convolution, so they stay free of 1/[k]!.
    """
    if mode not in ("plain", "general_b", "buermann"):
        raise ValueError(f"unknown mode {mode!r}")
    if f.order < order:
        raise OrderTooSmall(f"series order {f.order} below requested {order}")
    fc = f.coeffs
    fd = f.q_derivative().coeffs
    out = [fc[0]]
    for n in range(1, order + 1):
        s = lagrange_shift(mode, n)
        if mode == "buermann":
            out.append(conv_at(_factorial_scaled_exp(-s, n), fc, n))
            continue
        c = conv_at(_factorial_scaled_exp(-s, n - 1), fd, n - 1)
        if mode == "general_b":
            e2 = _factorial_scaled_exp(-s.scale(qpow(-1)), n - 1)
            c = c - (B * conv_at(e2, fc, n - 1)).scale(qpow(n - 1))
        out.append(c)
    return out
