"""Independent oracles and fault-injection helpers used by the test suite.

The oracles deliberately avoid the closed formulas under test: expansions
are recovered by triangular back-substitution against explicitly
constructed basis elements, and operator functionals are applied term by
term.
"""
from __future__ import annotations

import contextlib
import random

from fractions import Fraction

import qabel.abel as abel_module
from qabel.abel import FamilyId, abel_poly, lagrange_shift
from qabel.mpoly import MPoly, Symbol
from qabel.operators import L_functional, qderiv
from qabel.qcomb import binom2, qfac, qint, qpow
from qabel.qfield import QRat
from qabel.series import PowerSeries, abel_sum, conv_at


def triangular_expand(f: MPoly, basis: FamilyId = FamilyId.G) -> list[MPoly]:
    """Solve f = sum c_k basis_k by eliminating the top x-degree first."""
    d = f.degree_in(Symbol.x)
    out = [MPoly.zero()] * (d + 1)
    rem = f
    for k in range(d, -1, -1):
        parts = rem.coeffs_in(Symbol.x)
        top = parts[k] if k < len(parts) else MPoly.zero()
        if top.is_zero():
            continue
        basis_k = abel_poly(basis, k)
        lead = basis_k.coeffs_in(Symbol.x)[k].constant_coeff()
        c = top.scale(lead.inv())
        out[k] = c
        rem = rem - c * basis_k
    assert rem.is_zero(), f"triangular solve left a remainder: {rem}"
    return out


def triangular_series_coeffs(f: PowerSeries, shift, order: int) -> list[MPoly]:
    """Solve f = sum c_k/[k]! z^k E(shift(k) z) by back-substitution."""
    rem = f
    out: list[MPoly] = []
    for k in range(order + 1):
        ck = rem.coeffs[k].scale(qfac(k))
        out.append(ck)
        if not ck.is_zero():
            term = abel_sum(
                lambda j, ck=ck, k=k: ck if j == k else MPoly.zero(),
                lambda j, k=k: shift(k),
                f.order,
            )
            rem = rem - term
    for k in range(order + 1):
        assert rem.coeffs[k].is_zero(), f"solve left z^{k} residue: {rem.coeffs[k]}"
    return out


def apply_series_of_D(f: PowerSeries, p: MPoly) -> MPoly:
    """f(D) applied to p: sum_k f_k D^k p, an exact finite sum.

    D acts on x, so the coefficients of f must be free of x.
    """
    out = MPoly.zero()
    dk = p
    for k in range(p.degree_in(Symbol.x) + 1):
        if k:
            dk = qderiv(dk, Symbol.x, 1)
        if k <= f.order:
            out = out + f.coeffs[k] * dk
    return out


def eval_functional(f: PowerSeries, p: MPoly) -> MPoly:
    """L f(D) p."""
    return L_functional(apply_series_of_D(f, p))


def scale_leading_coefficient(p: MPoly, factor=None) -> MPoly:
    """Return p with its graded-lex leading coefficient multiplied by q."""
    factor = qpow(1) if factor is None else factor
    items = sorted(p._t.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)
    key, coeff = items[0]
    terms = dict(p._t)
    terms[key] = coeff * factor
    return MPoly._raw(terms)


@contextlib.contextmanager
def corrupt_family(family: FamilyId, n: int = 2):
    """Swap in a family builder whose member n has one wrong coefficient.

    The family cache is cleared on entry and exit so derived members are
    rebuilt consistently inside the context and no corrupted value leaks
    out of it.
    """
    plain = abel_module.abel_poly
    plain.cache_clear()

    def mutated(fam, m):
        p = plain(fam, m)
        if fam is family and m == n:
            return scale_leading_coefficient(p)
        return p

    abel_module.abel_poly = mutated
    try:
        yield
    finally:
        abel_module.abel_poly = plain
        plain.cache_clear()


def random_q_monomial_poly(rng: random.Random, max_deg: int = 6,
                           max_mag: int = 9, max_exp: int = 3) -> MPoly:
    """Polynomial in x whose coefficients are m q^e with |m| <= max_mag."""
    x = MPoly.var(Symbol.x)
    out = MPoly.zero()
    for d in range(max_deg + 1):
        m = rng.randint(-max_mag, max_mag)
        e = rng.randint(0, max_exp)
        if m:
            out = out + (x ** d).scale(QRat.from_scalar(m) * qpow(e))
    return out


def subst_reference(p: MPoly, assignment: dict) -> MPoly:
    """p with each symbol of `assignment` replaced, term by term: every
    term's coefficient times each value multiplied in once per unit of its
    exponent, the terms added one at a time."""
    out = MPoly.zero()
    for mono, c in p.terms.items():
        term = MPoly.const(c)
        for s in Symbol:
            e = mono.exps[s.value]
            if s in assignment:
                v = assignment[s] if isinstance(assignment[s], MPoly) else MPoly.const(assignment[s])
                for _ in range(e):
                    term = term * v
            else:
                term = term * MPoly.var(s) ** e
        out = out + term
    return out


def abel_expand_reference(f: MPoly) -> list[MPoly]:
    """Coefficient k of the G-basis expansion as q^-(k choose 2)/[k]! times
    the k-fold q-derivative of f at x = q^-k (b + [k] a), the division last."""
    a, b = MPoly.var(Symbol.a), MPoly.var(Symbol.b)
    out = []
    for k in range(f.degree_in(Symbol.x) + 1):
        point = (a.scale(qint(k)) + b).scale(qpow(-k))
        dk = subst_reference(qderiv(f, Symbol.x, k), {Symbol.x: point})
        out.append(dk.scale(qpow(-binom2(k)) * qfac(k).inv()))
    return out


def lagrange_reference(f: PowerSeries, mode: str, order: int) -> list[MPoly]:
    """The Lagrange coefficients as convolutions with f' (plain, general_b)
    or f (buermann, and the b-term of general_b), against the weights
    ([m]!/[k]!) (-s)^k: [m]! times the z^m coefficient of e(-s z)."""
    def weights(s: MPoly, m: int) -> list[MPoly]:
        return [(s ** k).scale(qfac(m) * qfac(k).inv()) for k in range(m + 1)]

    b = MPoly.var(Symbol.b)
    fc = f.coeffs
    fd = f.q_derivative().coeffs
    out = [fc[0]]
    for n in range(1, order + 1):
        s = -lagrange_shift(mode, n)
        if mode == "buermann":
            out.append(conv_at(weights(s, n), fc, n))
            continue
        c = conv_at(weights(s, n - 1), fd, n - 1)
        if mode == "general_b":
            c = c - (b * conv_at(weights(s.scale(qpow(-1)), n - 1), fc, n - 1)).scale(qpow(n - 1))
        out.append(c)
    return out


# Denominators for random coefficients: 1, and three that are not Laurent.
Q_DENOMINATORS = (QRat([1]), QRat([1, 0, 1]), QRat([2, -1]), QRat([1, 1]))


def random_rational_coeff(rng: random.Random) -> QRat:
    """m/r * q^e / d with 1 <= |m| <= 9, 1 <= r <= 4, |e| <= 2 and d drawn
    from `Q_DENOMINATORS`."""
    m = rng.choice([-1, 1]) * rng.randint(1, 9)
    return QRat.from_scalar(Fraction(m, rng.randint(1, 4))) * qpow(rng.randint(-2, 2)) * rng.choice(Q_DENOMINATORS).inv()


def random_rational_poly(rng: random.Random, symbols: tuple, max_deg: int = 3, terms: int = 6) -> MPoly:
    """A sum of `terms` random monomials in `symbols`, each of degree at most
    max_deg per symbol, with `random_rational_coeff` coefficients."""
    out = MPoly.zero()
    for _ in range(terms):
        mono = MPoly.one()
        for s in symbols:
            mono = mono * MPoly.var(s) ** rng.randint(0, max_deg)
        out = out + mono.scale(random_rational_coeff(rng))
    return out


def random_series(rng: random.Random, order: int) -> PowerSeries:
    """A series whose coefficients are `random_rational_poly`s in x, y and a,
    some of them zero."""
    return PowerSeries(order, [
        MPoly.zero() if rng.random() < 0.2 else random_rational_poly(rng, (Symbol.x, Symbol.y, Symbol.a), 2, 3)
        for _ in range(order + 1)
    ])
