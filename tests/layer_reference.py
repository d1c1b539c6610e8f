"""Reference layer verdicts, one reduction per hyperplane, for differential tests.

Each hyperplane H of the root group has the degree-p layer
z^p - z = u / f_H(eps_H)^p.  Here every layer's right side is reduced on its
own: the spec is irreducible iff no layer reduces to 0, a layer's verdict at
a place is read off its reduced rhs, and (e, f, g) and the tags come from
intersecting the element sets of the unramified and of the split
hyperplanes.  This is how aspw.asext decided irreducibility and splitting
before it worked from the n standard forms of the coordinate layers.
"""

from __future__ import annotations

from aspw.addpoly import AdditivePoly, additive_eval, span_basis, subspace_poly
from aspw.asext import _reduce_rhs
from aspw.gf import absolute_trace_value
from aspw.upoly import partial_fractions, place_valuation, residue_trace


def scale(spec, h):
    """f_H(eps_H), with f_H built from H's basis."""
    return additive_eval(subspace_poly(spec.k0, h.basis), h.eps)


def layer_rhs(spec) -> list:
    """The reduced rhs of every hyperplane's layer, in hyperplane order."""
    wp = AdditivePoly.frobenius_minus_id(spec.k0, 1)
    pf = partial_fractions(spec.u)
    return [_reduce_rhs(wp, pf.scale_const((scale(spec, h) ** spec.k0.p).inverse()))[0]
            for h in spec.hyperplanes()]


def is_irreducible(spec) -> bool:
    return not any(red.is_zero() for red in layer_rhs(spec))


def layer_verdict(red, place) -> str:
    """Behavior of one place in z^p - z = red, for a reduced rhs red."""
    if place.is_infinite:
        if red.poly_part().degree() >= 1:
            return "ramified"
        # the residue field at infinity is k0, so the value is its own trace
        same = red.num.degree() == red.den.degree()
        trace = red.num.leading() / red.den.leading() if same else red.ctx.zero()
    elif place_valuation(red, place) < 0:
        return "ramified"
    else:
        trace = red.ctx.from_int(residue_trace(red.num, red.den, place.poly))
    return "split" if absolute_trace_value(trace) == 0 else "inert"


def place_decomposition(spec, place, reds=None):
    """(per-hyperplane [(label, verdict)], e, f, g, decomposition tags,
    inertia tags) of an irreducible spec at a place; reds, if given, is
    layer_rhs(spec), for a caller that asks about many places."""
    hyperplanes = spec.hyperplanes()
    elements = [span_basis(spec.k0, h.basis)[1] for h in hyperplanes]
    per = []
    inertia = set(spec.group.elements)
    decomp = set(inertia)
    for h, elems, red in zip(hyperplanes, elements, reds or layer_rhs(spec)):
        verdict = layer_verdict(red, place)
        per.append((h.label(), verdict))
        if verdict != "ramified":
            inertia &= elems
        if verdict == "split":
            decomp &= elems
    assert inertia <= decomp
    e = len(inertia)
    g = spec.f.q // len(decomp)
    dec_tags = tuple(h.label() for h, elems in zip(hyperplanes, elements) if decomp <= elems)
    in_tags = tuple(h.label() for h, elems in zip(hyperplanes, elements) if inertia <= elems)
    return per, e, len(decomp) // e, g, dec_tags, in_tags
