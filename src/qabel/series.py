"""Truncated formal power series in z with multivariate polynomial coefficients.

A series carries an explicit truncation order N and exactly N+1 coefficients.
Arithmetic between two series demands equal orders; mismatches raise instead
of coercing, so a verification run can never silently compare different
truncations.  The two q-exponential series and the Abel-type sums
sum_k coeff_k/[k]! z^k E(shift_k z) are provided as constructors.
"""
from __future__ import annotations

from typing import Callable, Sequence

from .mpoly import MPoly, _as_mpoly, dot
from .qcomb import exp_coeffs, exp_powers, qbinom, qfac, qint


class OrderMismatch(ValueError):
    """Arithmetic between series of different truncation orders."""


class NonUnitConstantTerm(ArithmeticError):
    """Series division by a series whose constant term is not an invertible scalar."""


def conv_at(u: Sequence[MPoly], v: Sequence[MPoly], m: int) -> MPoly:
    """The z^m coefficient of the product of two coefficient sequences,
    summed in increasing index of u; v[m - i] is not read when u[i] is zero."""
    return dot((u[i], v[m - i]) for i in range(m + 1) if not u[i].is_zero())


class PowerSeries:
    """Immutable truncated series: coeffs[k] is the z**k coefficient."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs):
        if order < 0:
            raise ValueError("order must be nonnegative")
        cs = tuple(_as_mpoly(c) for c in coeffs)
        if len(cs) != order + 1:
            raise ValueError(f"need {order + 1} coefficients, got {len(cs)}")
        self.order = order
        self.coeffs = cs

    @classmethod
    def constant(cls, value, order: int) -> PowerSeries:
        return cls.monomial(0, order, value)

    @classmethod
    def monomial(cls, k: int, order: int, coeff=1) -> PowerSeries:
        """The single term coeff * z**k (zero series when k exceeds the order)."""
        zero = MPoly.zero()
        cs = [zero] * (order + 1)
        if k <= order:
            cs[k] = _as_mpoly(coeff)
        return cls(order, cs)

    def _check(self, other: PowerSeries):
        if self.order != other.order:
            raise OrderMismatch(f"orders differ: {self.order} vs {other.order}")

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def __add__(self, other: PowerSeries) -> PowerSeries:
        self._check(other)
        return PowerSeries(self.order, tuple(u + v for u, v in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> PowerSeries:
        return PowerSeries(self.order, tuple(-c for c in self.coeffs))

    def __sub__(self, other: PowerSeries) -> PowerSeries:
        return self + -other

    def __mul__(self, other: PowerSeries) -> PowerSeries:
        self._check(other)
        u, v = self.coeffs, other.coeffs
        return PowerSeries(self.order, [conv_at(u, v, m) for m in range(self.order + 1)])

    def __truediv__(self, other: PowerSeries) -> PowerSeries:
        self._check(other)
        g0 = other.coeffs[0]
        if g0.is_zero() or not g0.is_constant():
            raise NonUnitConstantTerm(f"constant term {g0} is not an invertible scalar")
        inv0 = g0.constant_coeff().inv()
        # out[m] = (f[m] - sum_{j >= 1} g[j] out[m-j]) / g[0]; the zero in
        # front of g's tail keeps the not yet computed out[m] unread.
        tail = (MPoly.zero(),) + other.coeffs[1:]
        out: list[MPoly] = []
        for m in range(self.order + 1):
            out.append((self.coeffs[m] - conv_at(tail, out, m)).scale(inv0))
        return PowerSeries(self.order, out)

    def q_derivative(self) -> PowerSeries:
        """Termwise q-derivative in z, one order lower."""
        if self.order == 0:
            return PowerSeries(0, (MPoly.zero(),))
        return PowerSeries(
            self.order - 1,
            tuple(self.coeffs[k + 1].scale(qint(k + 1)) for k in range(self.order)),
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, PowerSeries):
            return NotImplemented
        self._check(other)
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def __str__(self) -> str:
        parts = []
        for k, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            if k == 0:
                parts.append(f"({c})")
            elif k == 1:
                parts.append(f"({c})*z")
            else:
                parts.append(f"({c})*z^{k}")
        body = " + ".join(parts) if parts else "0"
        return f"{body} + O(z^{self.order + 1})"

    def __repr__(self) -> str:
        return f"PowerSeries({self})"


def ps_arith(op: str, f: PowerSeries, g: PowerSeries) -> PowerSeries:
    """Series arithmetic dispatcher: op in {add, sub, mul, div}."""
    if op == "add":
        return f + g
    if op == "sub":
        return f - g
    if op == "mul":
        return f * g
    if op == "div":
        return f / g
    raise ValueError(f"unknown operation {op!r}")


def ps_exp(kind: str, c, order: int) -> PowerSeries:
    """The q-exponential series of c*z.

    kind "small_e" gives sum c^k z^k / [k]!; "big_E" additionally weights
    term k by q^(k choose 2).
    """
    return PowerSeries(order, exp_coeffs(kind, _as_mpoly(c), order))


def abel_sum(coeff: Callable[[int], MPoly], shift: Callable[[int], MPoly], order: int) -> PowerSeries:
    """Assemble sum_k coeff(k)/[k]! * z^k * E(shift(k) z), truncated.

    Term k meets the z^(m-k) coefficient q^(m-k choose 2) shift(k)^(m-k) /
    [m-k]! of its exponential in z^m, and 1/([k]! [m-k]!) = [m k]/[m]!; so
    the z^m coefficient is 1/[m]! times a sum over k <= m of [m k] coeff(k)
    times those numerators, and only that one division leaves Z[q].
    """
    terms = []
    for k in range(order + 1):
        ck = _as_mpoly(coeff(k))
        if not ck.is_zero():
            terms.append((k, ck, exp_powers("big_E", _as_mpoly(shift(k)), order - k)))
    return PowerSeries(order, [
        dot((ck.scale(qbinom(m, k)), e[m - k]) for k, ck, e in terms if k <= m).scale(qfac(m).inv())
        for m in range(order + 1)
    ])


def ps_equal(f: PowerSeries, g: PowerSeries) -> bool:
    """Coefficient-wise equality at one shared truncation order."""
    return f == g
