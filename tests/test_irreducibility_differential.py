"""Irreducibility from the pole orders against the standard forms' verdict.

ExtensionSpec.is_irreducible answers True without building a standard form
when u has a pole, infinity included, of order prime to p; otherwise the
F_p-rank of the n coordinate layers' forms decides.  Wherever the pole
orders answer, the forms, and tests/layer_reference.py, which reduces every
hyperplane's layer on its own, must say irreducible too.  Over F_4, F_8,
F_9, F_27 and F_5, for f = X^q - X, X^p - X and subspace polynomials of
random roots, with right sides made reducible on purpose (f(delta), or a
p-th-power image scaled into one layer) and the edges u = 0, constants in
and out of wp(k0), polynomial parts of degree divisible by p,
1/T^3 - 1/T and 1/T^9 + 1/T.  Seeded, so a failure replays.
"""

from __future__ import annotations

import random

import pytest

import layer_reference
from aspw.addpoly import AdditivePoly, additive_eval, subspace_poly
from aspw.asext import ExtensionSpec, _column_space
from aspw.errors import AspwError
from aspw.gf import absolute_trace_value, make_field
from aspw.parsing import parse_ratfunc
from aspw.upoly import Poly, RatFunc
from place_reference import monic_irreducibles

FIELDS = [(2, 2), (2, 3), (3, 2), (3, 3), (5, 1)]


def verdicts(f, u, ctx) -> tuple[bool, bool]:
    """(verdict, whether the pole orders gave it), checked against the
    forms' F_p-rank on a fresh spec and against the reference."""
    spec = ExtensionSpec(f, u, ctx)
    got = spec.is_irreducible()
    answered = spec._forms is None
    coords = [c for _, c in ExtensionSpec(f, u, ctx)._layer_forms()]
    forms = len(_column_space(coords, ctx.p)) == f.n
    assert got == forms == layer_reference.is_irreducible(spec), (str(f), str(u))
    assert got or not answered, (str(f), str(u))
    return got, answered


def additives(ctx, rng) -> list[AdditivePoly]:
    fs = [AdditivePoly.frobenius_minus_id(ctx, ctx.s), AdditivePoly.frobenius_minus_id(ctx, 1)]
    while len(fs) < 5:  # subspace polynomials of random roots, all in k0
        n = rng.randint(1, ctx.s)
        try:
            fs.append(subspace_poly(ctx, [ctx.from_int(rng.randrange(1, ctx.order()))
                                          for _ in range(n)]))
        except AspwError:  # dependent roots
            pass
    return fs


def random_rhs(ctx, rng, pool, orders, degrees) -> RatFunc:
    T = Poly.variable(ctx)
    u = RatFunc(Poly(ctx))
    for _ in range(rng.randint(0, 2)):
        P = rng.choice(pool)
        num = Poly(ctx, [ctx.from_int(rng.randrange(1, ctx.order())) for _ in range(P.degree())])
        u = u + RatFunc(num, P ** rng.choice(orders))
    for _ in range(rng.randint(0, 2)):
        u = u + RatFunc(T ** rng.choice(degrees) * ctx.from_int(rng.randrange(1, ctx.order())))
    return u + ctx.from_int(rng.randrange(ctx.order()))


@pytest.mark.parametrize("p, s", FIELDS)
def test_pole_orders_agree_with_the_forms(p, s):
    ctx = make_field(p, s)
    rng = random.Random(1000 * p + s)
    T = Poly.variable(ctx)
    pool = [T, T + 1, next(monic_irreducibles(ctx, 2))]
    fs = additives(ctx, rng)
    assert any(f != AdditivePoly.frobenius_minus_id(ctx, f.n) for f in fs) or s == 1
    seen = set()
    for f in fs:
        for kind in ["any"] * 4 + ["p-orders", "p-orders", "image", "layer"]:
            if kind == "any":
                u = random_rhs(ctx, rng, pool, [1, 2, p, p + 1, 2 * p, p * p], [1, 2, p, p + 1])
            elif kind == "p-orders":  # the forms decide
                u = random_rhs(ctx, rng, pool, [p, 2 * p, p * p], [p, 2 * p])
            else:
                delta = random_rhs(ctx, rng, pool, [1, 2], [1, 2])
                if kind == "image":  # every layer reducible
                    u = additive_eval(f, delta)
                else:  # the layer of h reducible
                    h = rng.choice(ExtensionSpec(f, delta, ctx).hyperplanes())
                    scale = layer_reference.scale(ExtensionSpec(f, delta, ctx), h) ** p
                    u = (delta.pth_power() - delta).scale_const(scale)
            seen.add(verdicts(f, u, ctx))
    # the pole orders answered, and the forms decided both ways
    assert seen == {(True, True), (True, False), (False, False)}


@pytest.mark.parametrize("p, s", FIELDS)
def test_edges(p, s):
    ctx = make_field(p, s)
    T = RatFunc.variable(ctx)
    zero = RatFunc(Poly(ctx))
    wp = AdditivePoly.frobenius_minus_id(ctx, 1)
    x = ctx.from_int(p + 1 if s > 1 else 2)
    inside = x ** p - x  # in wp(k0)
    outside = next(c for c in ctx.elements() if absolute_trace_value(c))
    assert not absolute_trace_value(inside)
    for f in (AdditivePoly.frobenius_minus_id(ctx, s), wp):
        assert verdicts(f, zero, ctx) == (False, False)
        for c in (inside, outside):
            assert not verdicts(f, zero + c, ctx)[1]
        for u in (T ** p, T ** (2 * p) + T ** p + 1, 1 / T ** p + T ** p):
            assert not verdicts(f, u, ctx)[1]
        assert verdicts(f, T ** (p + 1) + T ** p, ctx) == (True, True)
        assert verdicts(f, 1 / (T + 1) + T ** p, ctx) == (True, True)
    # z^p - z = c is irreducible iff c is not in wp(k0)
    assert verdicts(wp, zero + inside, ctx) == (False, False)
    assert verdicts(wp, zero + outside, ctx) == (True, False)


@pytest.mark.parametrize("n", [1, 2])
def test_edges_over_F9(n):
    # 1/T^3 - 1/T = wp(1/T): a pole of order 3 hides the order-1 digit
    F9 = make_field(3, 2)
    f = AdditivePoly.frobenius_minus_id(F9, n)
    assert verdicts(f, parse_ratfunc(F9, "1/T^3-1/T"), F9) == (False, False)
    assert verdicts(f, parse_ratfunc(F9, "1/T^9+1/T"), F9) == (True, False)
    assert verdicts(f, parse_ratfunc(F9, "1/(T+w)^3+T^3"), F9) == (True, False)
    assert verdicts(f, parse_ratfunc(F9, "w/(T+1)^2+2/(T+w)^9+w*T^3+T+1"), F9) == (True, True)
