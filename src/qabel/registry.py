"""Registry of symbolic identity checks.

Each entry constructs both sides of one identity exactly, as multivariate
polynomials in x, y, a, b (and t for the difference-operator suite) or as
truncated power series, and reports the canonical difference.  A check
passes iff the difference is identically zero.  Universally quantified
statements are checked on finite parameter ranges.  Each entry declares its
ranges as one spec, a Span per parameter; the same spec yields the checks a
run executes and the `verified` text that `qabel list` shows, rendered at the
`verify` defaults (max-n 6, order 8).  Identities of one shape share one
checker, parametrised by the family (or the rate) and its Abel shift from
`qcomb`: the rising-product expansion, the Abel series equal to E(xz),
biorthogonality, and E(xz)/(1 - rate z).
"""
from __future__ import annotations

import os
import time
from dataclasses import dataclass
from functools import partial
from math import comb, factorial
from typing import Callable, Iterable, Iterator

from . import abel
from .abel import FamilyId
from .mpoly import A, B, MPoly, Symbol, T, X, Y, dot
from .operators import (
    DSeries,
    L_functional,
    Qn_apply,
    delta_op,
    dseries_apply,
    make_exp_dseries,
    pincherle_residual,
    qderiv,
)
from .qcomb import binom2, qbinom, qfac, qint, qpow, qprod, shift_a, shift_g
from .qfield import ONE as QR_ONE
from .series import PowerSeries, abel_sum, ps_exp


class UnknownIdentity(LookupError):
    """The identity id is not registered."""


class MissingParam(ValueError):
    """A parameter required by the identity was not supplied."""


class WorkerDied(RuntimeError):
    """A worker process of `verify` ended before returning its results."""


ONE = MPoly.one()
ZERO = MPoly.zero()

_ONE_MINUS_Q = QR_ONE - qpow(1)

# k -> the family member p_k or the Abel shift s_k.
_Indexed = Callable[[int], MPoly]


def _fam(family: FamilyId, n: int) -> MPoly:
    return abel.abel_poly(family, n)


def _fam_a_b0(k: int) -> MPoly:
    """The degree-k member of the A family at b = 0."""
    return L_functional(_fam(FamilyId.A, k), Symbol.b)


def _bracket_t() -> MPoly:
    """The q-integer of the running index written through t: (1 - t)/(1 - q)."""
    return (ONE - T).scale(_ONE_MINUS_Q.inv())


def _first_nonzero(*diffs: MPoly) -> MPoly:
    for d in diffs:
        if not d.is_zero():
            return d
    return ZERO


# --------------------------------------------------------------------------
# Checkers.  Each returns the difference of the two sides, lhs - rhs.  A
# shape that recurs across families is one checker factory, parametrised by
# the members p_k of the family (or the rate) and its Abel shift s_k.
# --------------------------------------------------------------------------

def _chk_0_3(n: int) -> MPoly:
    return (X + Y) ** n - dot(
        (_fam(FamilyId.CLASSICAL, k).scale(comb(n, k)), (Y + A.scale(k) + B) ** (n - k)) for k in range(n + 1)
    )


def _chk_0_17(n: int) -> MPoly:
    return (A ** n).scale(factorial(n)) - dot(
        (MPoly.const((-1) ** (n - k) * comb(n, k)), (X + A.scale(k)) ** n) for k in range(n + 1)
    )


def _chk_limit(family: FamilyId) -> Callable[[int], MPoly]:
    def run(n: int) -> MPoly:
        return _fam(family, n).eval_q1() - _fam(FamilyId.CLASSICAL, n)

    return run


def _chk_rising(member: _Indexed, shift: _Indexed) -> Callable[[int], MPoly]:
    """(y + x)(y + qx)...(y + q^(n-1)x) is the sum over k of
    [n k] p_k (y + s_k)(y + q s_k)...(y + q^(n-k-1) s_k)."""
    def run(n: int) -> MPoly:
        return qprod(Y, X, n, "plus") - dot(
            (member(k).scale(qbinom(n, k)), qprod(Y, shift(k), n - k, "plus")) for k in range(n + 1)
        )

    return run


def _chk_abel_exp(member: _Indexed, shift: _Indexed) -> Callable[[int], PowerSeries]:
    """The Abel series sum_k p_k/[k]! z^k E(s_k z) equals E(xz)."""
    def run(N: int) -> PowerSeries:
        return abel_sum(member, shift, N) - ps_exp("big_E", X, N)

    return run


def _chk_1_7(n: int) -> MPoly:
    widened = A + B.scale(_ONE_MINUS_Q)
    return _fam(FamilyId.G, n) - _fam(FamilyId.A, n).subst(Symbol.a, widened)


def _chk_eE(N: int) -> PowerSeries:
    prod = ps_exp("small_e", ONE, N) * ps_exp("big_E", -ONE, N)
    return prod - PowerSeries.constant(ONE, N)


def _chk_e_ratio(N: int) -> PowerSeries:
    lhs = PowerSeries(N, [qprod(X, Y, k, "minus").scale(qfac(k).inv()) for k in range(N + 1)])
    return lhs - ps_exp("small_e", X, N) / ps_exp("small_e", Y, N)


def _chk_EaD(n: int) -> MPoly:
    applied = dseries_apply(make_exp_dseries("big_E", A), Y ** n, Symbol.y)
    return applied - qprod(Y, A, n, "plus")


def _chk_2_1(n: int, k: int) -> MPoly:
    lhs = qderiv(_fam(FamilyId.G, n), Symbol.x, k)
    target = _fam(FamilyId.G, n - k).subst_many(
        {
            Symbol.x: X.scale(qpow(k)),
            Symbol.a: A.scale(qpow(k)),
            Symbol.b: shift_g(k),
        }
    )
    return lhs - target.scale(qpow(binom2(k)) * qfac(n) * qfac(n - k).inv())


def _chk_2_2(n: int, k: int) -> MPoly:
    point = shift_g(k).scale(qpow(-k))
    val = qderiv(_fam(FamilyId.G, n), Symbol.x, k).subst(Symbol.x, point)
    if k == n:
        return val - MPoly.const(qpow(binom2(k)) * qfac(k))
    return val


def _chk_2_3(n: int) -> MPoly:
    f = X ** n
    return abel.abel_expand(f).reconstruct() - f


def _chk_2_4(n: int) -> MPoly:
    lhs = _fam(FamilyId.G, n).subst_many({Symbol.a: -A, Symbol.b: -Y - B})

    def term(k: int) -> tuple[MPoly, MPoly]:
        # u = Y * prod_{j=1}^{n-k-1} (Y + (1 - q^j) b + ([n] - q^j [k]) a)
        u = ONE if k == n else Y * qprod(Y + shift_g(n), -shift_g(k).scale(qpow(1)), n - k - 1)
        return _fam(FamilyId.G, k).subst_many({Symbol.a: -A, Symbol.b: -B}).scale(qbinom(n, k)), u

    return lhs - dot(term(k) for k in range(n + 1))


def _chk_post_2_4(n: int, N: int) -> PowerSeries:
    base = shift_g(n)

    def coeff(k: int) -> MPoly:
        if k == 0:
            return ONE
        return (base * shift_g(n + k) ** (k - 1)).scale((-1) ** k)

    zn = PowerSeries.monomial(n, N)
    rhs = zn * abel_sum(coeff, lambda k: shift_g(n + k), N)
    return zn - rhs


def _chk_3_1(n: int) -> MPoly:
    w = _fam(FamilyId.W, n)
    shift = shift_g(n)
    sum_form = dot(
        (shift ** k, (X ** (n - k)).scale(qbinom(n, k) * qpow(binom2(n - k)) * (-1) ** k))
        for k in range(n + 1)
    )
    op_form = dseries_apply(
        make_exp_dseries("big_E", -shift.scale(qpow(-(n - 1)))), X ** n
    ).scale(qpow(binom2(n)))
    return _first_nonzero(w - sum_form, w - op_form)


def _chk_3_2(n: int) -> MPoly:
    one_plus_aD = DSeries.from_coeffs([ONE, A])
    return _fam(FamilyId.G, n) - dseries_apply(one_plus_aD, _fam(FamilyId.W, n))


def _chk_S_ladder(n: int) -> MPoly:
    recovered = dseries_apply(
        make_exp_dseries("small_e", shift_g(n).scale(qpow(-(n - 1)))), _fam(FamilyId.G, n)
    ).scale(qpow(-binom2(n)))
    d1 = recovered - _fam(FamilyId.S, n)
    if not d1.is_zero() or n == 0:
        return d1
    ladder = qderiv(_fam(FamilyId.S, n), Symbol.x, 1) - _fam(FamilyId.S, n - 1).scale(qint(n))
    return ladder


def _chk_3_4(n: int) -> MPoly:
    lhs = Qn_apply(n, _fam(FamilyId.G, n), "closed")
    return lhs - _fam(FamilyId.G, n - 1).scale(qint(n))


def _chk_3_3_vs_3_5(n: int, d: int) -> MPoly:
    p = X ** d
    return Qn_apply(n, p, "closed") - Qn_apply(n, p, "series")


def _chk_4_2(N: int) -> MPoly:
    cs = abel.lagrange_coeffs(ps_exp("small_e", X, N), "plain", N)
    return _first_nonzero(*[cs[k] - _fam(FamilyId.B_PLAIN, k) for k in range(N + 1)])


def _chk_4_3(n: int) -> MPoly:
    bn = _fam(FamilyId.B_PLAIN, n)
    if n == 0:
        return bn - ONE
    op = X * dseries_apply(make_exp_dseries("small_e", -A.scale(qint(n))), X ** (n - 1))
    return bn - op


def _chk_biorth(member: _Indexed, shift: _Indexed) -> Callable[[int, int], MPoly]:
    """Biorthogonality: L E(s_k D) D^k p_n is [n]! when k = n, else 0."""
    def run(n: int, k: int) -> MPoly:
        op = make_exp_dseries("big_E", shift(k))
        val = L_functional(dseries_apply(op, qderiv(member(n), Symbol.x, k)))
        expected = MPoly.const(qfac(n)) if k == n else ZERO
        return val - expected

    return run


def _chk_4_B_forms(n: int) -> MPoly:
    bg = _fam(FamilyId.B_GENERAL, n)
    big = shift_a(n)
    closed = X ** n + dot(
        (big ** (k - 1), (shift_a(n - k) * X ** (n - k)).scale(qbinom(n, k) * (-1) ** k))
        for k in range(1, n + 1)
    )
    d1 = bg - closed
    if not d1.is_zero() or n == 0:
        return d1
    t1 = X * dseries_apply(make_exp_dseries("small_e", -big), X ** (n - 1))
    t2 = (B * dseries_apply(make_exp_dseries("small_e", -big.scale(qpow(-1))), X ** (n - 1))).scale(
        qpow(n - 1)
    )
    return bg - (t1 - t2)


def _chk_4_8(N: int) -> PowerSeries:
    f = ps_exp("small_e", X, N)
    cs = abel.lagrange_coeffs(f, "general_b", N)
    return abel_sum(lambda k: cs[k], shift_a, N) - f


def _chk_4_10(n: int) -> MPoly:
    c = shift_a(n).scale(qpow(-1))
    inner = dseries_apply(make_exp_dseries("small_e", -c), X ** n)
    out = inner + (A * qderiv(inner, Symbol.x, 1)).scale(qpow(-1))
    return _fam(FamilyId.B_GENERAL, n) - out


def _chk_4_12(n: int) -> MPoly:
    f = ps_exp("big_E", -Y, n)
    cs = abel.lagrange_coeffs(f, "buermann", n)
    expected = qprod(-shift_a(n).scale(qpow(-1)), Y, n, "minus")
    return cs[n] - expected


def _chk_geometric(rate: MPoly, shift: _Indexed) -> Callable[[int], PowerSeries]:
    """E(xz)/(1 - rate z) as the Abel series with members
    (s_k + x)(s_k + qx)...(s_k + q^(k-1)x) and shifts -q s_k."""
    def run(N: int) -> PowerSeries:
        den = PowerSeries.constant(ONE, N) - PowerSeries.monomial(1, N, rate)
        lhs = ps_exp("big_E", X, N) / den
        rhs = abel_sum(
            lambda k: qprod(shift(k), X, k, "plus"),
            lambda k: -shift(k).scale(qpow(1)),
            N,
        )
        return lhs - rhs

    return run


def _chk_5_4(k: int) -> MPoly:
    return delta_op(ONE, k) - MPoly.const(_ONE_MINUS_Q ** k * qfac(k))


def _chk_5_5(m: int, k: int) -> MPoly:
    return delta_op(_bracket_t() ** m, k) - MPoly.const(qfac(k) * _ONE_MINUS_Q ** (k - m))


def _chk_5_6(i: int, m: int, k: int) -> MPoly:
    return delta_op(T ** i * _bracket_t() ** m, k)


def _chk_5_7(n: int, j: int) -> MPoly:
    body = T * X + _bracket_t() * A
    return delta_op(T ** j * body ** (n - j), n)


def _chk_5_8(n: int) -> MPoly:
    body = T * X + _bracket_t() * A
    return delta_op(body ** n, n) - (A ** n).scale(qfac(n))


def _chk_5_9(n: int) -> MPoly:
    def term(k: int) -> tuple[MPoly, MPoly]:
        c = shift_a(n - k)
        u = qprod(c, X, n - k, "plus").scale(qbinom(n, k) * (-1) ** k)
        return u, qprod(X, c.scale(qpow(1)), k, "plus")

    lhs = dot(term(k) for k in range(n + 1))
    base = T * B + _bracket_t() * A
    rhs = dot(
        ((X ** j).scale(qbinom(n, j) * qpow(binom2(j) - n * j)), delta_op(T ** j * base ** (n - j), n))
        for j in range(n + 1)
    )
    return lhs - rhs


def _chk_5_10(n: int, N: int) -> PowerSeries:
    geom = PowerSeries(N, [A ** k for k in range(N + 1)])
    zn = PowerSeries.monomial(n, N)
    lhs = zn * geom

    def shift(k: int) -> MPoly:
        return -shift_a(n + k).scale(qpow(1))

    rhs = zn * abel_sum(lambda k: shift_a(n + k) ** k, shift, N)
    return lhs - rhs


def _chk_5_11(n: int) -> MPoly:
    tail = Y - shift_a(n)

    def term(k: int) -> tuple[MPoly, MPoly]:
        c = shift_a(k)
        v = ONE if k == n else qprod(Y, c.scale(qpow(1)), n - k - 1, "minus") * tail
        return qprod(c, X, k, "plus").scale(qbinom(n, k)), v

    return qprod(Y, X, n, "plus") - dot(term(k) for k in range(n + 1))


# --------------------------------------------------------------------------
# Registry table.
# --------------------------------------------------------------------------

DEFAULT_MAX_N = 6
DEFAULT_ORDER = 8
_DEFAULTS = {"max_n": DEFAULT_MAX_N, "order": DEFAULT_ORDER}


def _bound_value(bound: int | str, env: dict[str, int]) -> int:
    if isinstance(bound, int):
        return bound
    return sum(env[name] for name in bound.split("+"))


def _bound_text(bound: int | str) -> str:
    if isinstance(bound, int):
        return str(bound)
    return "+".join(str(_DEFAULTS.get(name, name)) for name in bound.split("+"))


@dataclass(frozen=True)
class Span:
    """Inclusive range lo..hi of one identity parameter.

    Each bound is an int or a '+'-joined sum of names in scope: max_n, order,
    or a parameter declared earlier.  A cap clamps the upper bound from above.
    """

    lo: int | str = 0
    hi: int | str = "max_n"
    cap: int | None = None

    def values(self, env: dict[str, int]) -> range:
        hi = _bound_value(self.hi, env)
        if self.cap is not None:
            hi = min(hi, self.cap)
        return range(_bound_value(self.lo, env), hi + 1)

    def render(self, name: str) -> str:
        """The range at the verify defaults, earlier parameters kept by name."""
        lo, hi = _bound_text(self.lo), _bound_text(self.hi)
        if self.cap is not None:
            hi = str(min(self.cap, int(hi)))
        if lo == hi:
            return f"{name} = {hi}"
        if lo == "0":
            return f"{name} <= {hi}"
        return f"{lo} <= {name} <= {hi}"


_AT_ORDER = Span("order", "order")


@dataclass(frozen=True)
class Identity:
    id: str
    description: str
    ranges: dict[str, Span]
    compute: Callable[..., object]

    @property
    def params(self) -> tuple[str, ...]:
        return tuple(self.ranges)

    @property
    def verified(self) -> str:
        """The parameter ranges a default `verify` run checks."""
        return ", ".join(span.render(name) for name, span in self.ranges.items())

    def enumerate_params(self, max_n: int, order: int) -> list[dict[str, int]]:
        """Every parameter assignment in the ranges, first parameter outermost."""
        envs = [{"max_n": max_n, "order": order}]
        for name, span in self.ranges.items():
            envs = [{**env, name: v} for env in envs for v in span.values(env)]
        return [{name: env[name] for name in self.ranges} for env in envs]


@dataclass(frozen=True)
class CheckResult:
    identity_id: str
    params: dict[str, int]
    status: str
    difference: str | None
    elapsed: float

    @property
    def passed(self) -> bool:
        return self.status == "pass"


REGISTRY: dict[str, Identity] = {ident.id: ident for ident in [
    Identity("0.3", "classical Abel binomial expansion", {"n": Span()}, _chk_0_3),
    Identity("0.17", "classical alternating evaluation sum", {"n": Span()}, _chk_0_17),
    Identity("limit-A", "A family degenerates to the classical family at q = 1", {"n": Span()},
             _chk_limit(FamilyId.A)),
    Identity("limit-G", "G family degenerates to the classical family at q = 1", {"n": Span()},
             _chk_limit(FamilyId.G)),
    Identity("1.3", "q-Abel expansion of the rising product, A family", {"n": Span()},
             _chk_rising(partial(_fam, FamilyId.A), shift_a)),
    Identity("1.5", "series form of the A-family expansion", {"N": _AT_ORDER},
             _chk_abel_exp(partial(_fam, FamilyId.A), shift_a)),
    Identity("1.6", "q-Abel expansion of the rising product at b = 0", {"n": Span()},
             _chk_rising(_fam_a_b0, partial(abel.lagrange_shift, "plain"))),
    Identity("1.7", "G arises from A by widening a", {"n": Span()}, _chk_1_7),
    Identity("1.8", "q-Abel expansion of the rising product, G family", {"n": Span()},
             _chk_rising(partial(_fam, FamilyId.G), shift_g)),
    Identity("1.9", "series form of the G-family expansion", {"N": _AT_ORDER},
             _chk_abel_exp(partial(_fam, FamilyId.G), shift_g)),
    Identity("eE", "the two q-exponentials are reciprocal", {"N": _AT_ORDER}, _chk_eE),
    Identity("e-ratio", "falling products generate the exponential quotient", {"N": _AT_ORDER},
             _chk_e_ratio),
    Identity("EaD", "operator exponential produces the rising product", {"n": Span()}, _chk_EaD),
    Identity("2.1", "derivative ladder for the G family", {"n": Span(), "k": Span(0, "n")}, _chk_2_1),
    Identity("2.2", "orthogonality evaluations of G derivatives", {"n": Span(), "k": Span(0, "n")},
             _chk_2_2),
    Identity("2.3", "Abel expansion of x^n reconstructs exactly", {"n": Span()}, _chk_2_3),
    Identity("2.4", "expansion of the reflected G polynomial", {"n": Span()}, _chk_2_4),
    Identity("post-2.4", "series expansion of z^n over the shifted basis",
             {"n": Span(cap=3), "N": _AT_ORDER}, _chk_post_2_4),
    Identity("3.1", "product, sum and operator forms of w agree", {"n": Span()}, _chk_3_1),
    Identity("3.2", "G arises from w by 1 + aD", {"n": Span()}, _chk_3_2),
    Identity("S-ladder", "two-term family S and its derivative ladder", {"n": Span()}, _chk_S_ladder),
    Identity("3.4", "ladder operator lowers G by one degree", {"n": Span(1)}, _chk_3_4),
    Identity("3.3-vs-3.5", "closed and series forms of the ladder operator agree",
             {"n": Span(1), "d": Span()}, _chk_3_3_vs_3_5),
    Identity("4.2", "plain extraction on e(xz) yields the plain B family", {"N": _AT_ORDER}, _chk_4_2),
    Identity("4.3", "operator form of the plain B family", {"n": Span()}, _chk_4_3),
    Identity("4.4", "biorthogonality of the plain B family", {"n": Span(), "k": Span()},
             _chk_biorth(partial(_fam, FamilyId.B_PLAIN), partial(abel.lagrange_shift, "plain"))),
    Identity("4.B-forms", "closed-sum and two-term forms of the general B family", {"n": Span()},
             _chk_4_B_forms),
    Identity("4.7", "q-Pincherle commutation residual vanishes", {"m": Span(cap=5), "n": Span()},
             pincherle_residual),
    Identity("4.8", "general-b coefficients reconstruct e(xz)", {"N": _AT_ORDER}, _chk_4_8),
    Identity("4.9", "biorthogonality of the general B family", {"n": Span(), "k": Span()},
             _chk_biorth(partial(_fam, FamilyId.B_GENERAL), shift_a)),
    Identity("4.10", "single-operator form of the general B family", {"n": Span()}, _chk_4_10),
    Identity("4.12", "Buermann coefficients of the falling exponential", {"n": Span()}, _chk_4_12),
    Identity("4.13", "geometric-weighted expansion of the big exponential", {"N": _AT_ORDER},
             _chk_geometric(A, shift_a)),
    Identity("5.3", "difference operator annihilates powers of t", {"i": Span(1, cap=4), "k": Span("i")},
             lambda i, k: delta_op(T ** i, k)),
    Identity("5.4", "difference operator on 1", {"k": Span()}, _chk_5_4),
    Identity("5.5", "difference operator on bracket powers", {"m": Span(cap=4), "k": Span("m")},
             _chk_5_5),
    Identity("5.6", "difference operator annihilates mixed terms",
             {"i": Span(1, 4), "m": Span(0, 4), "k": Span("i+m")}, _chk_5_6),
    Identity("5.7", "difference operator annihilates the shifted binomial expansion",
             {"n": Span(1), "j": Span(1, "n")}, _chk_5_7),
    Identity("5.8", "difference operator extracts the factorial times a^n", {"n": Span()}, _chk_5_8),
    Identity("5.9", "alternating product sum collapses to the factorial times a^n", {"n": Span()},
             _chk_5_9),
    Identity("5.10", "geometric-weighted series expansion of z^n", {"n": Span(cap=3), "N": _AT_ORDER},
             _chk_5_10),
    Identity("5.11", "polynomial shadow of the geometric-weighted expansion", {"n": Span()}, _chk_5_11),
    Identity("5.12", "geometric-weighted expansion, widened parameter", {"N": _AT_ORDER},
             _chk_geometric(A + B.scale(_ONE_MINUS_Q), shift_g)),
]}


def identity_ids() -> list[str]:
    """Registered identity ids in registry order."""
    return list(REGISTRY)


def get_identity(identity_id: str) -> Identity:
    try:
        return REGISTRY[identity_id]
    except KeyError:
        raise UnknownIdentity(f"unknown identity {identity_id!r}") from None


def check_identity(identity_id: str, params: dict[str, int]) -> CheckResult:
    """Run one identity check; passes iff both sides agree exactly."""
    ident = get_identity(identity_id)
    kwargs = {}
    for name in ident.params:
        if name not in params:
            raise MissingParam(f"identity {identity_id} needs parameter {name!r}")
        kwargs[name] = params[name]
    start = time.perf_counter()
    diff = ident.compute(**kwargs)
    elapsed = time.perf_counter() - start
    if diff.is_zero():
        return CheckResult(identity_id, kwargs, "pass", None, elapsed)
    return CheckResult(identity_id, kwargs, "fail", str(diff), elapsed)


def enumerate_checks(
    ids: Iterable[str] | None = None, max_n: int = DEFAULT_MAX_N, order: int = DEFAULT_ORDER
) -> list[tuple[str, dict[str, int]]]:
    """The (id, params) pairs a verification run will execute.

    A repeated id is enumerated once, at its first occurrence.
    """
    selected = identity_ids() if ids is None else list(dict.fromkeys(ids))
    tasks = []
    for identity_id in selected:
        ident = get_identity(identity_id)
        for params in ident.enumerate_params(max_n, order):
            tasks.append((identity_id, params))
    return tasks


def worker_count(jobs: int, groups: int) -> int:
    """Worker processes for `verify`: min(jobs, groups, CPU count), and one
    where the platform cannot fork.  Starts nothing."""
    if not hasattr(os, "fork"):
        return 1
    return max(1, min(jobs, groups, os.cpu_count() or 1))


def _run_group(checks: list[tuple[str, dict[str, int]]]) -> list[CheckResult]:
    return [check_identity(i, p) for i, p in checks]


def _run_groups(groups: list, workers: int) -> Iterator[list[CheckResult]]:
    """Each group's results, in order: in this process with one worker,
    else on a pool of forked workers, one group per task."""
    if workers == 1:
        yield from map(_run_group, groups)
        return
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    try:
        yield from pool.map(_run_group, groups)
    except BrokenProcessPool:
        raise WorkerDied("a verify worker process died before its checks finished") from None
    finally:
        pool.shutdown(cancel_futures=True)


def verify(
    ids: Iterable[str] | None = None,
    max_n: int = DEFAULT_MAX_N,
    order: int = DEFAULT_ORDER,
    jobs: int = 1,
) -> list[CheckResult]:
    """Run registry checks; results sorted by (id, params).

    The checks of one identity form one group, which runs in one process,
    so the family members and powers it caches serve the whole group.  With
    jobs > 1 the groups run on `worker_count(jobs, groups)` forked worker
    processes; with one worker they run here, one after another.  A check
    that raises in a worker raises the same exception here.
    """
    groups: dict[str, list] = {}
    for identity_id, params in enumerate_checks(ids, max_n=max_n, order=order):
        groups.setdefault(identity_id, []).append((identity_id, params))
    tasks = list(groups.values())
    results = [r for done in _run_groups(tasks, worker_count(jobs, len(tasks))) for r in done]
    results.sort(key=lambda r: (r.identity_id, tuple(sorted(r.params.items()))))
    return results
