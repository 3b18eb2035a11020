"""Linear operators on polynomials built from the q-derivative.

The q-derivative acts on monomials by D v^n = [n] v^(n-1), extended
linearly; this agrees with the difference-quotient definition on every
polynomial while staying inside the coefficient model.  A power series in D
(DSeries) is the map d -> its coefficients of the divided powers
D^0/[0]! .. D^d/[d]!; it acts as an exact finite sum because D^(d+1)
annihilates a polynomial of degree d.
The module also houses the evaluation functional L, the
diagonal rescaling V, the difference operator on the symbol t, the
ladder operators Q_n, and the q-Pincherle residual.
"""
from __future__ import annotations

from typing import Callable, Sequence

from .mpoly import A, B, MPoly, Symbol, X, _as_mpoly, dot
from .qcomb import binom2, exp_powers, qbinom, qfac, qint, qpow, shift_g
from .qfield import ONE as QR_ONE, ZERO as QR_ZERO


class InvalidIndex(ValueError):
    """Operator index outside its defined range."""


def qderiv(p: MPoly, v: Symbol, k: int = 1) -> MPoly:
    """k-fold q-derivative with respect to v."""
    if k < 0:
        raise ValueError("derivative order must be nonnegative")
    if k == 0:
        return p

    def factor(e: int):
        # [e][e-1]...[e-k+1], nonzero for e >= k
        f = qint(e)
        for j in range(e - 1, e - k, -1):
            f = f * qint(j)
        return f

    return p.map_in(v, factor, lower=k)


class DSeries:
    """Formal power series in D, given as the map d -> [coefficients of the
    divided powers D^0/[0]! .. D^d/[d]!].

    Applying it to a polynomial of degree d in the distinguished variable
    asks once for those d + 1 coefficients, so every application is an
    exact finite sum.  The divided power D^k/[k]! sends v^e to
    [e k] v^(e-k), a polynomial in q, so the q-exponentials e(cD) and E(cD),
    whose D^k coefficients carry 1/[k]!, are stored without a denominator.
    """

    def __init__(self, coeffs: Callable[[int], Sequence[MPoly]]):
        self.coeffs = coeffs

    @classmethod
    def from_coeffs(cls, coeffs: Sequence) -> DSeries:
        """The series with the given coefficients of D^0, D^1, ...."""
        cs = [_as_mpoly(c).scale(qfac(k)) for k, c in enumerate(coeffs)]
        return cls(lambda d: cs[: d + 1] + [MPoly.zero()] * (d + 1 - len(cs)))


def make_exp_dseries(kind: str, c) -> DSeries:
    """Operator exponential e(cD) or E(cD) as a D-series."""
    if kind not in ("small_e", "big_E"):
        raise ValueError(f"unknown exponential kind {kind!r}")
    c = _as_mpoly(c)
    return DSeries(lambda d: exp_powers(kind, c, d))


def dseries_apply(op: DSeries, p: MPoly, v: Symbol = Symbol.x) -> MPoly:
    """Apply the operator series to p in the variable v (exact finite sum)."""
    gs = op.coeffs(p.degree_in(v))
    # Coefficient k of the series meets D^k p / [k]!.
    return dot(
        (g, p.map_in(v, lambda e, k=k: qbinom(e, k), lower=k)) for k, g in enumerate(gs) if not g.is_zero()
    )


def L_functional(p: MPoly, v: Symbol = Symbol.x) -> MPoly:
    """Evaluation at v = 0: the degree-0 part of p in v."""
    return p.map_in(v, lambda e: QR_ZERO if e else QR_ONE)


def V_op(p: MPoly, v: Symbol = Symbol.x) -> MPoly:
    """Rescale the degree-m component in v by q^-(m choose 2)."""
    return p.map_in(v, lambda m: qpow(-binom2(m)))


def delta_op(p: MPoly, k: int) -> MPoly:
    """Apply the product of the factors (1 - q^j U), j = 1..k.

    U rescales the t^i component by q^-i; the polynomial's dependence on the
    underlying index must be carried entirely by the symbol t.
    """
    if k < 0:
        raise ValueError("difference order must be nonnegative")
    cur = p
    for j in range(1, k + 1):
        qj = qpow(j)
        cur = cur.map_in(Symbol.t, lambda i: QR_ONE - qj * qpow(-i))
    return cur


def Qn_apply(n: int, p: MPoly, form: str = "closed") -> MPoly:
    """Ladder operator of index n applied to p (variable x).

    The closed form composes D/q^(n-1) with the exponential pair
    e(c_n D) / e(c_(n-1) D), the reciprocal realized as E(-c_(n-1) D);
    the series form uses the explicit D-expansion with literal factor
    products.  Both are exact finite sums.
    """
    if n < 1:
        raise InvalidIndex("ladder operator index must be at least 1")
    if form == "closed":
        c_n = shift_g(n).scale(qpow(-(n - 1)))
        c_prev = shift_g(n - 1).scale(qpow(-(n - 2)))
        out = dseries_apply(make_exp_dseries("big_E", -c_prev), p)
        out = dseries_apply(make_exp_dseries("small_e", c_n), out)
        return qderiv(out, Symbol.x, 1).scale(qpow(-(n - 1)))
    if form == "series":
        # The D^i coefficient is prod_i q^(-(n-1)i) / [i-1]!, prod_i the
        # product of the first i - 1 factors, built left to right; as a
        # D^i/[i]! coefficient it is prod_i [i] q^(-(n-1)i).
        qn = qpow(n)

        def gens(d: int) -> list[MPoly]:
            out = [MPoly.zero()]
            prod = MPoly.one()
            for i in range(1, d + 1):
                if i > 1:
                    prod = prod * (A.scale(qint(i - 1) - qn * qint(i - 2)) + B.scale(QR_ONE - qpow(i - 1)))
                out.append(prod.scale(qint(i) * qpow(-(n - 1) * i)))
            return out

        return dseries_apply(DSeries(gens), p)
    raise ValueError(f"unknown form {form!r}")


def pincherle_residual(m: int, n: int) -> MPoly:
    """Residual of the commutation rule for f(D) = D^m tested on x^n.

    Computes D^m(x * x^n) - x * (qD)^m x^n - [m] D^(m-1) x^n, which the
    commutation rule asserts is identically zero.
    """
    if m < 0 or n < 0:
        raise ValueError("indices must be nonnegative")
    xn = X ** n
    lhs = qderiv(X * xn, Symbol.x, m)
    mid = (X * qderiv(xn, Symbol.x, m)).scale(qpow(m))
    if m == 0:
        return lhs - mid
    rhs = qderiv(xn, Symbol.x, m - 1).scale(qint(m))
    return lhs - mid - rhs
