"""Layer verdicts from n standard forms against one reduction per hyperplane.

asext decides irreducibility by the F_p-rank of the standard forms of the n
coordinate layers and reads each layer's verdict at a place off their
F_p-combination; tests/layer_reference.py reduces every hyperplane's layer
on its own and intersects element sets.  Irreducibility, per-layer
verdicts, tags and (e, f, g) must agree, at infinity, at u's pole places and
at places of degree 1 and 2, for f = X^q - X and for subspace polynomials
whose middle coefficients are all nonzero.  Some right sides are shifted by
f(delta), and some made reducible on purpose: f(delta) itself, or a
p-th-power image scaled into one hyperplane's layer.  Bounded and
derandomized, so a failure replays.  The batch over many places must agree
with its one-place call and with the reference at every place.
"""

from __future__ import annotations

import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import layer_reference  # noqa: E402
from aspw.addpoly import AdditivePoly, additive_eval, subspace_poly  # noqa: E402
from aspw.asext import ExtensionSpec, place_decomposition, place_decompositions  # noqa: E402
from aspw.errors import AspwError  # noqa: E402
from aspw.gf import make_field  # noqa: E402
from aspw.upoly import Place, Poly, RatFunc, factor, place_valuation  # noqa: E402
from place_reference import monic_irreducibles  # noqa: E402

FIELDS = [(2, 2), (2, 3), (3, 2), (2, 4), (3, 3), (5, 1)]


@st.composite
def additive(draw, ctx):
    n = draw(st.integers(1, ctx.s))
    if ctx.s % n == 0 and draw(st.booleans()):
        return AdditivePoly.frobenius_minus_id(ctx, n)
    q = ctx.order()
    mus = [ctx.from_int(c) for c in draw(st.lists(st.integers(1, q - 1), min_size=n, max_size=n))]
    try:
        f = subspace_poly(ctx, mus)
    except AspwError:  # dependent generators
        assume(False)
    assume(all(not a.is_zero() for a in f.a[1:n]))
    return f


@st.composite
def rational(draw, ctx, places, orders, degrees):
    """Pole terms c / P^e over a small pool of places plus a polynomial part."""
    coeff = st.integers(1, ctx.order() - 1).map(ctx.from_int)
    T = Poly.variable(ctx)
    u = RatFunc(Poly(ctx))
    for _ in range(draw(st.integers(0, 2))):
        P = draw(st.sampled_from(places))
        num = Poly(ctx, [draw(coeff) for _ in range(P.degree())])
        u = u + RatFunc(num, P ** draw(st.sampled_from(orders)))
    for d in draw(st.lists(st.sampled_from(degrees), max_size=2)):
        u = u + RatFunc(T ** d * draw(coeff))
    # the constant's trace decides between split and inert
    return u + ctx.from_int(draw(st.integers(0, ctx.order() - 1)))


@pytest.mark.parametrize("p, s", FIELDS)
def test_standard_forms_match_layer_reductions(p, s):
    ctx = make_field(p, s)
    T = Poly.variable(ctx)
    pool = [T, T + 1, next(monic_irreducibles(ctx, 2))]
    places = [Place.infinite()] + [Place(P) for d in (1, 2)
                                   for _, P in zip(range(2), monic_irreducibles(ctx, d))]
    places += [Place(P) for P in pool if Place(P) not in places]
    orders = [1, 2, p, p + 1, 2 * p, p * p]
    degrees = [1, 2, p, p + 1, 2 * p]

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.data())
    def check(data):
        f = data.draw(additive(ctx))
        u = data.draw(rational(ctx, pool, orders, degrees))
        spec = ExtensionSpec(f, u, ctx)
        kind = data.draw(st.sampled_from(["any", "shifted", "image", "layer"]))
        if kind != "any":
            delta = data.draw(rational(ctx, pool, [1, 2], [1, 2]))
            if kind == "shifted":  # same extension
                u = u + additive_eval(f, delta)
            elif kind == "image":  # every layer reducible
                u = additive_eval(f, delta)
            else:  # the layer of h reducible
                h = data.draw(st.sampled_from(spec.hyperplanes()))
                u = (delta.pth_power() - delta).scale_const(layer_reference.scale(spec, h) ** p)
            spec = ExtensionSpec(f, u, ctx)
        want = layer_reference.is_irreducible(spec)
        assert spec.is_irreducible() == want, (str(f), str(u))
        if not want:
            return
        for place in places:
            dec = place_decomposition(spec, place)
            got = ([(hv.hyperplane.label(), hv.verdict) for hv in dec.per_hyperplane],
                   dec.e, dec.f, dec.g, dec.decomposition_tags, dec.inertia_tags)
            assert got == layer_reference.place_decomposition(spec, place), (
                str(f), str(u), str(place))

    check()


@pytest.mark.parametrize("p, s", [(2, 2), (2, 3), (3, 2), (3, 1), (5, 1)])
def test_pole_of_u_that_no_form_keeps(p, s):
    # u = v + f(g) has a pole of order p^n or 2p^n at P, but every layer's
    # rhs moves by a p-th-power image, so no form keeps P and nothing
    # ramifies there; at P and at Q, a pole of every form, the verdict comes
    # from the value of u without its block at the place
    ctx = make_field(p, s)
    T = Poly.variable(ctx)
    quad = next(monic_irreducibles(ctx, 2))
    regular = list(monic_irreducibles(ctx, 1))[-1]  # T + (q - 1), neither T nor T + 1
    a = RatFunc.const(ctx, ctx.gen() if s > 1 else 1)
    checked = 0
    for f in (AdditivePoly.frobenius_minus_id(ctx, s), AdditivePoly.frobenius_minus_id(ctx, 1)):
        for P, Q in ((T, quad), (quad, T + 1)):
            # a second digit in g leaves a block at P whose removal a sign
            # error in the rest of u would not survive
            for g in (a / RatFunc(P), a / RatFunc(P) + RatFunc(Poly.const(ctx, 1), P ** 2)):
                v = RatFunc(Poly.const(ctx, 1), Q) + RatFunc(T) + ctx.one()
                u = v + additive_eval(f, g)
                spec = ExtensionSpec(f, u, ctx)
                assert spec.is_irreducible()
                kept = {block[0] for sf, _ in spec._layer_forms() for block in sf.blocks}
                assert place_valuation(u, Place(P)) == f.q * place_valuation(g, Place(P))
                assert P not in kept and Q in kept
                for place in (Place(P), Place(Q), Place(regular), Place.infinite()):
                    dec = place_decomposition(spec, place)
                    got = ([(hv.hyperplane.label(), hv.verdict) for hv in dec.per_hyperplane],
                           dec.e, dec.f, dec.g, dec.decomposition_tags, dec.inertia_tags)
                    assert got == layer_reference.place_decomposition(spec, place), (
                        str(f), str(u), str(place))
                    checked += 1
    assert checked == 32


@pytest.mark.parametrize("p, s, top", [(2, 2, 3), (2, 3, 3), (3, 2, 2), (2, 4, 2), (3, 3, 2),
                                       (5, 1, 2)])
def test_batch_matches_one_place_calls_and_layer_reductions(p, s, top):
    # infinity, every place of degree <= top and u's pole places beyond
    # them, in one batch: the places where u is regular share their
    # verdicts per trace vector, and u's pole places and infinity take the
    # principal parts
    ctx = make_field(p, s)
    rng = random.Random(7000 + 10 * p + s)
    T = Poly.variable(ctx)
    listed = [Place(P) for d in range(1, top + 1) for P in monic_irreducibles(ctx, d)]
    pool = [T, T + 1, listed[-1].poly, next(monic_irreducibles(ctx, top + 1))]
    elem = lambda: ctx.from_int(rng.randrange(1, ctx.order()))  # noqa: E731
    specs = form_poles = 0
    while specs < 3:
        if specs == 0:
            f = AdditivePoly.frobenius_minus_id(ctx, max(n for n in (1, 2, 3) if s % n == 0))
        else:
            try:
                f = subspace_poly(ctx, [elem() for _ in range(rng.randint(1, min(s, 3)))])
            except AspwError:  # dependent generators
                continue
        u = RatFunc.const(ctx, rng.randrange(ctx.order()))
        for P in rng.sample(pool, rng.randint(1, 3)):
            num = Poly(ctx, [elem() for _ in range(P.degree())])
            u = u + RatFunc(num, P ** rng.choice([1, 2, p, p + 1]))
        if rng.random() < 0.5:
            u = u + RatFunc(T ** rng.choice([1, p, p + 1]) * elem())
        if specs == 2:  # a pole of u at T of order p^n that no form keeps
            u = u + additive_eval(f, RatFunc(Poly.const(ctx, 1), T))
        spec = ExtensionSpec(f, u, ctx)
        if not spec.is_irreducible():
            continue
        specs += 1
        places = [Place.infinite()] + listed + [Place(P) for P, _ in factor(u.den)
                                                if P.degree() > top]
        kept = {block[0] for sf, _ in spec._layer_forms() for block in sf.blocks}
        form_poles += sum(place.poly in kept for place in places)
        reds = layer_reference.layer_rhs(spec)
        batch = place_decompositions(spec, places)
        assert [dec.place for dec in batch] == places
        for place, dec in zip(places, batch):
            assert dec == place_decomposition(spec, place), (str(f), str(u), str(place))
            got = ([(hv.hyperplane.label(), hv.verdict) for hv in dec.per_hyperplane],
                   dec.e, dec.f, dec.g, dec.decomposition_tags, dec.inertia_tags)
            assert got == layer_reference.place_decomposition(spec, place, reds), (
                str(f), str(u), str(place))
    assert form_poles
