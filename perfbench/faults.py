"""Fault injection for the benchmark's self-test.

`corrupt_g2()` gives G_2 one wrong coefficient, the way the test suite's
`corrupt_family` helper does: its graded-lex leading coefficient is
multiplied by q.  The family function is replaced in every qabel namespace that
holds it, so `poly G 2` and `verify` both see the wrong G_2.  `expand` and
`lagrange` do not build G_2, so their coefficient 2 is corrupted the same
way, to show that their oracles catch a wrong result too.
"""
from __future__ import annotations

import sys


def _scale_leading(p):
    from qabel.mpoly import MPoly
    from qabel.qcomb import qpow

    terms = p.terms  # graded-lex order, leading term first
    if not terms:
        return p
    lead = next(iter(terms))
    terms[lead] = terms[lead] * qpow(1)
    return MPoly(terms)


def _rebind(orig, new) -> None:
    for name, mod in list(sys.modules.items()):
        if name == "qabel" or name.startswith("qabel."):
            for k, v in list(vars(mod).items()):
                if v is orig:
                    setattr(mod, k, new)


def corrupt_g2() -> None:
    import qabel.abel as abel
    from qabel.abel import AbelCoefficients, FamilyId

    plain = abel.abel_poly
    plain.cache_clear()

    def abel_poly(family, n):
        p = plain(family, n)
        return _scale_leading(p) if family is FamilyId.G and n == 2 else p

    expand = abel.abel_expand

    def abel_expand(f):
        out = expand(f)
        cs = list(out.coeffs)
        if len(cs) > 2:
            cs[2] = _scale_leading(cs[2])
        return AbelCoefficients(out.basis, tuple(cs))

    lagrange = abel.lagrange_coeffs

    def lagrange_coeffs(f, mode, order):
        cs = lagrange(f, mode, order)
        if len(cs) > 2:
            cs[2] = _scale_leading(cs[2])
        return cs

    _rebind(plain, abel_poly)
    _rebind(expand, abel_expand)
    _rebind(lagrange, lagrange_coeffs)
