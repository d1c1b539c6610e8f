"""Reference listing of the places of k0(T), for tests.

A sieve with no irreducibility test and no residue field: a reducible monic
polynomial is an irreducible of degree at most degree/2 times a monic
cofactor.  aspw.oracle.ResidueField lists the places of a degree from one
pass over F_{q^d}; this is the independent listing that tests compare it
with, and the source of places for tests elsewhere.
"""

from __future__ import annotations

from aspw.gf import FieldCtx, _digits
from aspw.upoly import Poly


def _monic_polys(ctx: FieldCtx, degree: int) -> list[Poly]:
    """All monic polynomials of the given degree, canonical order."""
    q = ctx.order()
    return [Poly(ctx, [ctx.from_int(c) for c in _digits(k, q, degree)] + [ctx.one()])
            for k in range(q ** degree)]


def monic_irreducibles(ctx: FieldCtx, degree: int):
    """All monic irreducible polynomials of the given degree, canonical order."""
    if degree < 1:
        return
    reducible = set()
    for a in range(1, degree // 2 + 1):
        cofactors = _monic_polys(ctx, degree - a)
        for g in monic_irreducibles(ctx, a):
            reducible.update(g * h for h in cofactors)
    for cand in _monic_polys(ctx, degree):
        if cand not in reducible:
            yield cand
