"""Sparse quotient algebra against the dense reference.

aspw.asext.QuotientAlgebra keeps only the nonzero coefficients of an
element; tests/algebra_reference.py keeps all p^n of them.  Over F_4, F_8,
F_9, F_27 and F_5, for every rank n = 1..3 that the field allows, sums,
differences, products (also those that fold past Y^(p^n)), Frobenius,
powers, the translation by every root, equality, p-support and constant
values must agree on p-supported and on general elements.  Derandomized, so
a failure replays.
"""

from __future__ import annotations

import random

import pytest

import algebra_reference
from aspw.addpoly import AdditivePoly, subspace_poly
from aspw.asext import ExtensionSpec, QAElem
from aspw.errors import AspwError, DegreeOverflow, InternalCheckError
from aspw.gf import make_field
from aspw.upoly import Poly, RatFunc
from conftest import rand_poly, rand_ratfunc

CASES = [(p, s, n) for p, s in ((2, 2), (2, 3), (3, 2), (3, 3), (5, 1))
         for n in range(1, min(s, 3) + 1)]


def make_spec(p: int, s: int, n: int, rng: random.Random) -> ExtensionSpec:
    """f = X^(p^n) - X when n = s, else the subspace polynomial of n basis
    digits; u has a simple pole at T, so every layer ramifies there and
    f(X) - u is irreducible."""
    ctx = make_field(p, s)
    if n == s:
        f = AdditivePoly.frobenius_minus_id(ctx, n)
    else:
        f = subspace_poly(ctx, [ctx.from_int(p ** i) for i in range(n)])
    u = RatFunc.const(ctx, 1) / RatFunc.variable(ctx) + RatFunc(rand_poly(rng, ctx, 2))
    return ExtensionSpec(f, u, ctx)


def coeff(rng: random.Random, ctx) -> RatFunc:
    """A small rational function; zero one time in four."""
    return RatFunc(Poly(ctx)) if rng.random() < 0.25 else rand_ratfunc(rng, ctx, 1)


def pair(alg, ref, coeffs: dict):
    """The same element in the sparse algebra and in the dense reference."""
    top = max(coeffs, default=0)
    return alg.element(coeffs), ref.element([coeffs.get(i, 0) for i in range(top + 1)])


def same(x, rx) -> None:
    assert all(not c.is_zero() for c in x.coeffs.values())
    assert x.coeffs == {i: c for i, c in enumerate(rx.coeffs) if not c.is_zero()}


@pytest.mark.parametrize("p, s, n", CASES, ids=[f"F{p ** s}-n{n}" for p, s, n in CASES])
def test_sparse_matches_dense(p, s, n):
    rng = random.Random(1000 * p + 10 * s + n)
    spec = make_spec(p, s, n, rng)
    ctx, alg = spec.k0, spec.algebra()
    ref = algebra_reference.DenseAlgebra(spec)
    dim = alg.dim
    support = sorted(alg.p_support)
    elems = [pair(alg, ref, {i: coeff(rng, ctx) for i in support}) for _ in range(2)]
    # general elements; the top index makes products fold past Y^dim
    for extra in ([dim - 1], []):
        idx = set(rng.sample(range(dim), min(dim, 2))) | set(extra)
        elems.append(pair(alg, ref, {i: coeff(rng, ctx) for i in idx}))
    elems.append(pair(alg, ref, {0: rand_ratfunc(rng, ctx, 2)}))
    elems.append((alg.y(), ref.element([0, 1])))
    elems.append(pair(alg, ref, {}))

    for x, rx in elems:
        same(x, rx)
        assert x.is_p_supported() == rx.is_p_supported()
        assert x.is_constant() == rx.is_constant()
        if rx.is_constant():
            assert x.constant_value() == rx.constant_value()
        else:
            with pytest.raises(AspwError):
                x.constant_value()
        same(x.frobenius(), rx.frobenius())
        for e in (0, 2, p):
            same(x ** e, rx ** e)
        for xi in spec.group.elements:
            same(x.sigma(xi), rx.sigma(xi))
    for (a, ra), (b, rb) in zip(elems, elems[1:] + elems[:1]):
        same(a + b, ra + rb)
        same(a - b, ra - rb)
        same(a * b, ra * rb)
        assert (a == b) == (ra == rb)
        assert a + b - b == a
        assert (a - a).coeffs == {}


def test_element_keeps_degree_and_shape_checks():
    rng = random.Random(5)
    alg = make_spec(3, 2, 2, rng).algebra()
    one = RatFunc.const(alg.k0, 1)
    assert alg.element({0: 0, 1: 1, 3: RatFunc(Poly(alg.k0))}).coeffs == {1: one}
    with pytest.raises(DegreeOverflow, match=r"^degree 9 expression in a dimension-9 algebra$"):
        alg.element({2: 1, 9: 1})
    with pytest.raises(InternalCheckError, match="dimension-9 algebra"):
        QAElem(alg, {9: one})
