"""Decompositions that rational functions carry, against fresh ones.

A reduced form, a pole shift, a subextension's right side and a Witt
slot's residue keep the PartialFractions they were built from, so
partial_fractions reads it instead of factoring the denominator.  Each
must equal, block by block, the decomposition that partial_fractions
computes from scratch for an equal but distinct RatFunc.  Over F_4, F_8,
F_9, F_27 and F_5, for f = X^(p^n) - X at every n dividing s; seeded, so a
failure replays.
"""

from __future__ import annotations

import random

import pytest

from aspw import upoly, witt
from aspw.addpoly import AdditivePoly
from aspw.asext import ExtensionSpec, reduce_global, subextensions
from aspw.gf import make_field
from aspw.upoly import Poly, RatFunc, partial_fractions
from aspw.witt import WittExtensionSpec, WittVector, build_tables, witt_reduce
from place_reference import monic_irreducibles

FIELDS = [(2, 2), (2, 3), (3, 2), (3, 3), (5, 1)]


@pytest.fixture
def factored(monkeypatch):
    calls = []
    real_factor = upoly.factor
    monkeypatch.setattr(upoly, "factor", lambda f: calls.append(f) or real_factor(f))
    return calls


def assert_carried(u: RatFunc, factored: list):
    before = len(factored)
    carried = partial_fractions(u)
    assert len(factored) == before, f"{u!r} carried no decomposition"
    fresh = partial_fractions(RatFunc(u.num, u.den))
    assert fresh is not carried
    assert carried.poly_part == fresh.poly_part, repr(u)
    assert carried.blocks == fresh.blocks, repr(u)


def random_rhs(rng: random.Random, ctx, n: int) -> RatFunc:
    """A pole of order prime to p at a degree-1 place, which keeps f(X) - u
    irreducible, and p^n-multiple pole orders at a degree-1 and a degree-2
    place and in the polynomial part, which the reduction strips."""
    p, q = ctx.p, ctx.order()
    T = Poly.variable(ctx)
    c = lambda: ctx.from_int(rng.randrange(1, q))
    P1, P2 = (T + ctx.from_int(a) for a in rng.sample(range(q), 2))
    P3 = rng.choice(list(monic_irreducibles(ctx, 2))[:8])
    prime_order = rng.choice([k for k in range(1, 2 * p) if k % p])
    return (RatFunc(Poly.const(ctx, c()), P1 ** prime_order)
            + RatFunc(Poly.const(ctx, c()), P2 ** (p ** n * rng.randrange(1, 3)))
            + RatFunc(T * c() + c(), P3 ** p ** n)
            + RatFunc(T ** (p ** n) * c() + T * c()))


@pytest.mark.parametrize("p, s", FIELDS)
def test_reductions_and_subextensions_carry_their_decomposition(p, s, factored):
    ctx = make_field(p, s)
    rng = random.Random(1000 * p + s)
    descended = 0
    for n in [n for n in range(1, s + 1) if s % n == 0]:
        f = AdditivePoly.frobenius_minus_id(ctx, n)
        u = random_rhs(rng, ctx, n)
        # the p-th power of a reduced form: p-multiple orders, and where
        # they stay prime to p^n, a descent for reduce_global with descend
        w = reduce_global(ExtensionSpec(f, u, ctx))[1].u
        for v in (u, w ** p):
            spec = ExtensionSpec(f, v, ctx)
            for log, red in (reduce_global(spec), reduce_global(spec, descend=True)):
                for shift in log.shifts():
                    assert_carried(shift, factored)
                assert_carried(red.u, factored)
            descended += len(log.descents())
        # up to 13 hyperplanes, for F_27 at n = 3
        descs = subextensions(ExtensionSpec(f, u, ctx))
        assert len(descs) == (p ** n - 1) // (p - 1)
        for desc in descs:
            assert_carried(desc.rhs, factored)
    # these seeds give the descending reduction a descent over F_8, F_9 and F_27
    assert bool(descended) == ((p, s) in {(2, 3), (3, 2), (3, 3)})


@pytest.mark.parametrize("p, s", FIELDS)
def test_witt_slot_residues_carry_their_decomposition(p, s, factored, monkeypatch):
    ctx = make_field(p, s)
    rng = random.Random(2000 * p + s)
    residues = []
    real_reduce_rhs = witt._reduce_rhs

    def recording(f, pf):
        out = real_reduce_rhs(f, pf)
        residues.append(out[0])
        return out

    monkeypatch.setattr(witt, "_reduce_rhs", recording)
    tables = build_tables(p, 2)
    alpha = WittVector(tables, [random_rhs(rng, ctx, 1), random_rhs(rng, ctx, 1)])
    log, _ = witt_reduce(WittExtensionSpec(tables, p, alpha))
    assert log.shifts() and len(residues) == 2
    for u in residues:
        assert_carried(u, factored)
