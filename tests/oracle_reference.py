"""The per-place residue scan that `aspw.oracle.ResidueField` replaced.

Each call builds the residue field F_{q^d} of its place, finds P's root by
its own scan and, for the root count, scans F_{q^d} again.  It is slow and
shares nothing with the fields a verify command keeps, which is why the
differential tests compare the new path with it.
"""

from __future__ import annotations

from aspw.addpoly import AdditivePoly, additive_eval, subspace_poly
from aspw.errors import AspwError, InternalCheckError, PoleAtPlace
from aspw.gf import FieldCtx, embed_field, make_field
from aspw.oracle import check_residue_cap, image_set
from aspw.upoly import Place, Poly, place_valuation


def residue_value(spec, place: Place):
    """(residue field F_{q^d}, embedding of k0, u(P)) at a finite place: the
    residue field is a plain extension of k0, scanned for a root of P."""
    if place.is_infinite:
        raise AspwError("the direct oracle handles finite places only")
    k0 = spec.k0
    P = place.poly
    d = P.degree()
    check_residue_cap(k0.order(), d)
    if place_valuation(spec.u, place) < 0:
        raise PoleAtPlace(f"the right side has a pole at {place}")
    big = make_field(k0.p, k0.s * d)
    emb = embed_field(k0, big)
    P_big, num, den = (Poly(big, [emb(k0.from_int(c)) for c in g.coeffs])
                       for g in (P, spec.u.num, spec.u.den))
    nu = next((c for c in big.elements() if P_big(c).is_zero()), None)
    if nu is None:
        raise InternalCheckError(f"place polynomial {P} has no root in {big!r}")
    return big, emb, num(nu) / den(nu)


def splitting_count(spec, place: Place) -> int:
    """Roots of f(X) = u(P) in the residue field, counted by a scan."""
    big, emb, val = residue_value(spec, place)
    coeffs = [emb(a) for a in spec.f.a]
    p = spec.k0.p
    count = 0
    for x in big.elements():
        acc = coeffs[0] * x
        pw = x
        for i in range(1, len(coeffs)):
            pw = pw ** p
            if not coeffs[i].is_zero():
                acc = acc + coeffs[i] * pw
        if acc == val:
            count += 1
    if count not in (0, spec.f.q):
        raise InternalCheckError(
            f"root count {count} of f={spec.f}, u={spec.u!r} at {place} is neither 0 nor p^n")
    return count


def residue_wp_image(k0: FieldCtx, d: int) -> frozenset:
    """The image of x^p - x on the residue field F_{q^d} of a degree-d place."""
    big = make_field(k0.p, k0.s * d)
    return image_set(AdditivePoly.frobenius_minus_id(big, 1), big)


def layer_verdicts(spec, places, wp_images) -> list[list[bool]]:
    """Per place, per hyperplane H of spec: does u(P) / f_H(eps_H)^p lie in
    wp_images[deg P]?"""
    p = spec.k0.p
    mus = [(additive_eval(subspace_poly(spec.k0, h.basis), h.eps) ** p).inverse()
           for h in spec.hyperplanes()]
    out = []
    for place in places:
        _, emb, val = residue_value(spec, place)
        image = wp_images[place.degree()]
        out.append([emb(mu) * val in image for mu in mus])
    return out
