"""Sparse multivariate polynomials in the fixed symbols x, y, a, b, t.

Coefficients live in the rational-function field of q (QRat).  The symbol
set is a closed enumeration; q itself is not a symbol, it lives inside the
coefficients where denominators and negative powers are allowed.  Terms are
iterated in graded lexicographic order with precedence x > y > a > b > t,
so rendering is canonical.

A term table maps an exponent key, a tuple of five nonnegative ints, to a
nonzero coefficient.  The sum of products `dot` forms its products term by
term (Monagan & Pearce, "Sparse polynomial multiplication and division in
Maple 14", 2009).  With two or more nonzero pairs whose coefficients are all
Laurent polynomials q**v * n, it packs each coefficient once per side as
N = n(2**W) in `qfield`'s Kronecker chunks with a shift for its power of q
(`_laurent_pack`, `_laurent_unpack`), and forms every term-pair product
and sum on those integers.  W is the smallest machine word that holds
every coefficient of every partial sum (`qfield._laurent_word`); when some
coefficient is not Laurent, or no word is wide enough, the term-pair
products are formed on QRat values into one table instead.  A single product
always is: packing its coefficients costs as much as the products it serves.
"""
from __future__ import annotations

from enum import Enum
from fractions import Fraction
from operator import add
from typing import Callable, Iterable, Union

from .qfield import (ONE as QR_ONE, QRat, Record, Scalar, ZERO as QR_ZERO, _join_terms, _laurent_pack, _laurent_unpack,
                     _laurent_word, _power)

CoeffLike = Union[QRat, int, Fraction]


class Symbol(Enum):
    """The closed symbol set; the member order fixes monomial precedence."""

    x = 0
    y = 1
    a = 2
    b = 3
    t = 4


_NSYM = len(Symbol)
_ZEROS = (0,) * _NSYM


class Monomial(Record):
    """Exponent vector over the symbol set (zero exponents implicit)."""

    __slots__ = ("exps",)
    exps: tuple[int, int, int, int, int]

    @property
    def exponents(self) -> dict[Symbol, int]:
        return {s: e for s, e in zip(Symbol, self.exps) if e}

    def __str__(self) -> str:
        return _monomial_text(self.exps)


def _monomial_text(exps: tuple) -> str:
    parts = []
    for s, e in zip(Symbol, exps):
        if e == 1:
            parts.append(s.name)
        elif e:
            parts.append(f"{s.name}^{e}")
    return "*".join(parts)


def _as_coeff(v: CoeffLike) -> QRat:
    if isinstance(v, QRat):
        return v
    return QRat.from_scalar(v)


class MPoly:
    """Immutable sparse polynomial; no stored coefficient is zero."""

    __slots__ = ("_t",)

    def __init__(self, terms: dict | None = None):
        t: dict[tuple, QRat] = {}
        if terms:
            for mono, c in terms.items():
                key = tuple(mono.exps if isinstance(mono, Monomial) else mono)
                if len(key) != _NSYM or not all(type(e) is int and e >= 0 for e in key):
                    raise ValueError(f"exponent key must be {_NSYM} nonnegative ints, got {mono!r}")
                c = _as_coeff(c)
                if not c.is_zero():
                    t[key] = c
        self._t = t

    # -- construction ---------------------------------------------------------

    @classmethod
    def _raw(cls, t: dict) -> MPoly:
        self = object.__new__(cls)
        self._t = t
        return self

    @classmethod
    def zero(cls) -> MPoly:
        return _ZERO

    @classmethod
    def one(cls) -> MPoly:
        return _ONE

    @classmethod
    def const(cls, c: CoeffLike) -> MPoly:
        c = _as_coeff(c)
        return cls._raw({_ZEROS: c}) if not c.is_zero() else _ZERO

    @classmethod
    def var(cls, s: Symbol) -> MPoly:
        exps = [0] * _NSYM
        exps[s.value] = 1
        return cls._raw({tuple(exps): QR_ONE})

    # -- views ----------------------------------------------------------------

    @property
    def terms(self) -> dict[Monomial, QRat]:
        return {Monomial(k): v for k, v in self._sorted_items()}

    def _sorted_items(self):
        return sorted(self._t.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)

    def is_zero(self) -> bool:
        return not self._t

    def is_constant(self) -> bool:
        return not self._t or (len(self._t) == 1 and _ZEROS in self._t)

    def constant_coeff(self) -> QRat:
        return self._t.get(_ZEROS, QR_ZERO)

    def degree_in(self, s: Symbol) -> int:
        """Highest exponent of s (zero when s is absent or the polynomial is 0)."""
        i = s.value
        return max((k[i] for k in self._t), default=0)

    def free_of(self, *symbols: Symbol) -> bool:
        idx = [s.value for s in symbols]
        return all(all(k[i] == 0 for i in idx) for k in self._t)

    # -- ring arithmetic --------------------------------------------------------

    def __add__(self, other) -> MPoly:
        other = _as_mpoly(other)
        if other is NotImplemented:
            return NotImplemented
        if not self._t:
            return other
        if not other._t:
            return self
        return MPoly._raw(_collect(dict(self._t), other._t.items()))

    __radd__ = __add__

    def __neg__(self) -> MPoly:
        return MPoly._raw({k: -c for k, c in self._t.items()})

    def __sub__(self, other) -> MPoly:
        other = _as_mpoly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> MPoly:
        other = _as_mpoly(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> MPoly:
        if isinstance(other, (QRat, int, Fraction)):
            return self.scale(other)
        if not isinstance(other, MPoly):
            return NotImplemented
        return dot(((self, other),))

    __rmul__ = __mul__

    def scale(self, c: CoeffLike) -> MPoly:
        c = _as_coeff(c)
        if c.is_zero():
            return _ZERO
        if c.is_one():
            return self
        return MPoly._raw({k: v * c for k, v in self._t.items()})

    def __pow__(self, n: int) -> MPoly:
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            raise ValueError("polynomial power must be nonnegative")
        return _power(self, n, _ONE)

    # -- substitution and specialization ----------------------------------------

    def subst(self, s: Symbol, value) -> MPoly:
        """Exact substitution s := value (value may be an MPoly or a coefficient)."""
        return self.subst_many({s: value})

    def subst_many(self, assignment: dict[Symbol, object]) -> MPoly:
        """Simultaneous substitution of several symbols.

        Grouping the terms by their exponents es in the substituted symbols
        writes the polynomial as the sum over es of rest_es times the product
        of s^e over those symbols; the result is one `dot` of (rest_es, the
        product of value^e), so it takes the packed lane when every
        coefficient is Laurent.  Each value's powers are built at the exponents
        that occur, in ascending order, each from the last as p * value^gap:
        a gap of one costs one product, and `**` keeps a huge gap cheap.
        """
        vals = {}
        for s, v in assignment.items():
            vals[s.value] = v if isinstance(v, MPoly) else MPoly.const(_as_coeff(v))
        groups: dict[tuple, dict] = {}
        for k, c in self._t.items():
            rest = list(k)
            for i in vals:
                rest[i] = 0
            groups.setdefault(tuple(k[i] for i in vals), {})[tuple(rest)] = c
        powers: dict[tuple[int, int], MPoly] = {}
        for j, (i, v) in enumerate(vals.items()):
            p, last = _ONE, 0
            for e in sorted({es[j] for es in groups} - {0}):
                step = v ** (e - last)
                p = step if p is _ONE else p * step
                powers[i, e], last = p, e

        def factor(es: tuple) -> MPoly:
            out = _ONE
            for i, e in zip(vals, es):
                if e:
                    out = powers[i, e] if out is _ONE else out * powers[i, e]
            return out

        return dot((MPoly._raw(rest), factor(es)) for es, rest in groups.items())

    def eval_q1(self) -> MPoly:
        """Specialize every coefficient at q = 1; raises PoleAtPoint on a pole."""
        out: dict[tuple, QRat] = {}
        for k, c in self._t.items():
            v = c.eval(1)
            if v:
                out[k] = QRat.from_scalar(v)
        return MPoly._raw(out)

    def eval_at(self, q0: Scalar, values: dict[Symbol, Scalar]) -> Fraction:
        """Full numeric evaluation; every occurring symbol must be assigned."""
        total = Fraction(0)
        for k, c in self._t.items():
            term = c.eval(q0)
            for s in Symbol:
                e = k[s.value]
                if e:
                    term *= Fraction(values[s]) ** e
            total += term
        return total

    def map_in(self, s: Symbol, factor: Callable[[int], QRat], lower: int = 0) -> MPoly:
        """Map each term by the exponent e of s: the term c * s^e * m becomes
        c * factor(e) * s^(e - lower) * m.

        A term with e < lower, or with factor(e) zero, is dropped.  Lowering
        one exponent by a fixed amount sends distinct monomials to distinct
        monomials, so no two terms merge and no sum is formed.
        """
        i = s.value
        out: dict[tuple, QRat] = {}
        for k, c in self._t.items():
            e = k[i]
            if e < lower:
                continue
            f = factor(e)
            if f.is_zero():
                continue
            if lower:
                k = k[:i] + (e - lower,) + k[i + 1:]
            out[k] = c if f.is_one() else c * f
        return MPoly._raw(out)

    def coeffs_in(self, s: Symbol) -> list[MPoly]:
        """Coefficients with respect to s, index d holding the s**d part."""
        i = s.value
        buckets: list[dict] = [{} for _ in range(self.degree_in(s) + 1)]
        for k, c in self._t.items():
            e = k[i]
            rest = list(k)
            rest[i] = 0
            buckets[e][tuple(rest)] = c
        return [MPoly._raw(b) for b in buckets]

    # -- comparison and rendering --------------------------------------------------

    def __eq__(self, other) -> bool:
        other = _as_mpoly(other)
        if other is NotImplemented:
            return NotImplemented
        return self._t == other._t

    def __hash__(self):
        if self.is_constant():
            return hash(self.constant_coeff())
        return hash(frozenset(self._t.items()))

    def __str__(self) -> str:
        parts = []
        for k, c in self._sorted_items():
            mono = _monomial_text(k)
            sign = "+ "
            if c.is_negative():
                sign, c = "- ", -c
            if not mono:
                parts.append(sign + _wrap_coeff(str(c)))
            elif c.is_one():
                parts.append(sign + mono)
            else:
                parts.append(f"{sign}{_wrap_coeff(str(c))}*{mono}")
        return _join_terms(parts)

    def __repr__(self) -> str:
        return f"MPoly({self})"


def _wrap_coeff(s: str) -> str:
    """The text s of a `QRat`, in parentheses when it has a space outside
    them.  A QRat renders as a sum of terms, with a space between each two,
    or as n/d with n and d each in parentheses when it has a space; so a
    space lies outside parentheses exactly when the text has no "("."""
    return f"({s})" if " " in s and "(" not in s else s


def _collect(out: dict, pairs: Iterable[tuple[tuple, QRat]]) -> dict:
    """Add each (exponent key, nonzero coefficient) pair into the term table
    out, in order, deleting an entry whose sum is zero; returns out."""
    for k, c in pairs:
        s = out.get(k)
        if s is None:
            out[k] = c
        else:
            s = s + c
            if s.is_zero():
                del out[k]
            else:
                out[k] = s
    return out


def _packed_dot(tables: list[tuple[dict, dict]]) -> dict | None:
    """The term table of the sum of the products of the nonzero (u, v) term
    tables, formed on packed Laurent coefficients; None when a coefficient
    is not Laurent or the sum's coefficients need more than a machine word.

    The u tables and the v tables are packed apart, each coefficient once
    per side, as an integer N holding its numerator in W-bit chunks and a
    shift in bits for its power of q above the lowest one on that side
    (`qfield._laurent_word`, `_laurent_pack`).  A term pair's product is
    N1 * N2 shifted by s1 + s2, added into one integer per output key; each
    output term is unpacked into a coefficient once, and one whose sum is
    zero is dropped.
    """
    lefts = {id(u): u for u, _ in tables}
    rights = {id(v): v for _, v in tables}
    lane = _laurent_word((c for t in lefts.values() for c in t.values()),
                         (c for t in rights.values() for c in t.values()),
                         sum(len(u) * len(v) for u, v in tables))
    if lane is None:
        return None
    nb, low_u, low_v = lane
    packed_u = {i: _laurent_pack(t.items(), nb, low_u) for i, t in lefts.items()}
    packed_v = {i: _laurent_pack(t.items(), nb, low_v) for i, t in rights.items()}
    acc: dict[tuple, int] = {}
    for tu, tv in tables:
        pv = packed_v[id(tv)]
        for ku, su, nu in packed_u[id(tu)]:
            for kv, sv, nv in pv:
                k = tuple(map(add, ku, kv))
                acc[k] = acc.get(k, 0) + (nu * nv << su + sv)
    return _laurent_unpack(acc.items(), nb, low_u + low_v)


def dot(pairs: Iterable[tuple[MPoly, MPoly]]) -> MPoly:
    """The sum of u * v over the (u, v) pairs.

    Two or more nonzero pairs go through `_packed_dot` when it applies.
    Otherwise, and for a single product, every term-pair product of every
    pair is added into one term table, in order; a sum of exact values does
    not depend on the order of its terms.
    """
    tables = [(u._t, v._t) for u, v in pairs if u._t and v._t]
    if len(tables) > 1:
        out = _packed_dot(tables)
        if out is not None:
            return MPoly._raw(out)
    return MPoly._raw(_collect({}, ((tuple(map(add, k1, k2)), c1 * c2)
                                    for tu, tv in tables for k1, c1 in tu.items() for k2, c2 in tv.items())))


def _as_mpoly(v) -> MPoly:
    if isinstance(v, MPoly):
        return v
    if isinstance(v, (QRat, int, Fraction)):
        return MPoly.const(v)
    return NotImplemented


_ZERO = MPoly._raw({})
_ONE = MPoly._raw({_ZEROS: QR_ONE})
X, Y, A, B, T = (MPoly.var(s) for s in Symbol)


# --------------------------------------------------------------------------
# Operation-style surface.
# --------------------------------------------------------------------------

def mp_arith(op: str, lhs: MPoly, rhs=None) -> MPoly:
    """Ring arithmetic dispatcher: op in {add, sub, mul, neg, scale, pow}."""
    if op == "add":
        return lhs + rhs
    if op == "sub":
        return lhs - rhs
    if op == "mul":
        return lhs * rhs
    if op == "neg":
        return -lhs
    if op == "scale":
        return lhs.scale(rhs)
    if op == "pow":
        return lhs ** rhs
    raise ValueError(f"unknown operation {op!r}")


def mp_subst(p: MPoly, s: Symbol, value) -> MPoly:
    return p.subst(s, value)


def mp_eval_q1(p: MPoly) -> MPoly:
    return p.eval_q1()


def mp_coeffs_in(p: MPoly, s: Symbol) -> list[MPoly]:
    return p.coeffs_in(s)
