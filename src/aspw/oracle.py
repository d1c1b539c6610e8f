"""Independent brute-force ground truth for the analysis modules.

Everything here works by exhaustive enumeration over small fields (or
seeded sampling where enumeration is impossible), deliberately avoiding
the reduction, trace and hyperplane machinery it is used to validate.
"""

from __future__ import annotations

import itertools
import random

from .addpoly import AdditivePoly, additive_eval, root_group, subspace_poly, wp_a
from .errors import (
    AspwError,
    FieldTooLarge,
    InternalCheckError,
    LengthCapExceeded,
    PoleAtPlace,
)
from .gf import FieldCtx, embed_field, make_field, p_adic_split
from .upoly import Place, Poly, RatFunc, place_valuation
from .witt import WittVector, build_tables, teichmuller

ORACLE_CAP = 3 ** 6


def _prime_power_split(q: int) -> tuple[int, int]:
    """q = p^j with p prime; malformed q is an input error."""
    if q >= 2:
        p = 2
        while q % p:
            p += 1
        lam, j = p_adic_split(q, p)
        if lam == 1:
            return p, j
    raise AspwError(f"{q} is not a prime power")


# ---------------------------------------------------------------------------
# image sets and the two identity checks
# ---------------------------------------------------------------------------


def image_set(fn, field: FieldCtx) -> frozenset:
    """Exhaustive image of an additive map over a small field.

    fn is an additive polynomial or a callable; the image/kernel product
    rule |im|*|ker| = |field| is asserted, so a non-additive callable is
    rejected as a bug rather than silently accepted.
    """
    if field.order() > ORACLE_CAP:
        raise FieldTooLarge(f"image scan capped at {ORACLE_CAP} elements")
    if isinstance(fn, AdditivePoly):
        ev = lambda x: additive_eval(fn, x)
    else:
        ev = fn
    image = set()
    kernel = 0
    for x in field.elements():
        y = ev(x)
        image.add(y)
        if y.is_zero():
            kernel += 1
    if len(image) * kernel != field.order():
        raise InternalCheckError(
            f"map with {len(image)} images and {kernel} zeros is not additive on {field!r}")
    return frozenset(image)


def check_verification_cap(order: int) -> None:
    """Raise FieldTooLarge if a field of this order is too large to verify in."""
    if order > ORACLE_CAP:
        raise FieldTooLarge(f"verification capped at {ORACLE_CAP} elements")


def verify_lemma_62(q: int, m: int):
    """Exhaustive check over F_{q^m}: S is a (q-power - id) value exactly
    when every F_q multiple of S is a (p-power - id) value.

    Returns (True, None) or (False, counterexample).
    """
    if m < 1:
        raise AspwError(f"extension degree m={m} must be at least 1")
    # before q is factored; q >= 2 puts q^10 over the cap, so q**m is never
    # computed for a huge m
    if q >= 2:
        check_verification_cap(q ** min(m, 10))
    p, j = _prime_power_split(q)
    big = make_field(p, j * m)
    wp = AdditivePoly(big, (-big.one(), big.one()))
    im_wp = image_set(wp, big)
    im_g = image_set(AdditivePoly.frobenius_minus_id(big, j), big)
    fq = [c for c in big.elements() if c ** q == c]
    for s in big.elements():
        lhs = all((mu * s) in im_wp for mu in fq)
        rhs = s in im_g
        if lhs != rhs:
            return False, s
    return True, None


def verify_eq_star(f: AdditivePoly, k0: FieldCtx):
    """Is the image of f the intersection of the n twisted-operator images?

    The twist scales are a_i = f_i(eps_i) where f_i kills the span of the
    other basis roots.  The containment of im f in the intersection always
    holds and is asserted; the reverse inclusion is not guaranteed, so a
    separating element is returned as a finding, not an error.  Returns
    (True, None) or (False, witness).
    """
    check_verification_cap(k0.order())
    group = root_group(f, k0)
    im_f = image_set(f, k0)
    # an empty family of images intersects to all of k0
    inter = frozenset(k0.elements())
    for i, eps in enumerate(group.basis):
        others = [b for jj, b in enumerate(group.basis) if jj != i]
        fi = subspace_poly(k0, others)
        ai = additive_eval(fi, eps)
        im_i = image_set(lambda x, a=ai: wp_a(a, x), k0)
        inter &= im_i
    if not im_f <= inter:
        raise InternalCheckError(f"image of f={f} escaped the intersection over {k0!r}")
    if im_f == inter:
        return True, None
    witness = min(inter - im_f, key=lambda c: c.to_int())
    return False, witness


# ---------------------------------------------------------------------------
# direct splitting computation
# ---------------------------------------------------------------------------


def check_residue_cap(q: int, d: int) -> None:
    """Raise FieldTooLarge if the residue field F_{q^d} is too large to scan.
    q >= 2 puts q^10 over the cap, so a huge d never makes a huge power."""
    if q ** min(d, 10) > ORACLE_CAP:
        raise FieldTooLarge(f"residue scan capped at {ORACLE_CAP} elements")


def _residue_value(spec, place: Place):
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
    P_big, num, den = (Poly(big, [emb(c) for c in g.coeffs])
                       for g in (P, spec.u.num, spec.u.den))
    nu = next((c for c in big.elements() if P_big(c).is_zero()), None)
    if nu is None:
        raise InternalCheckError(f"place polynomial {P} has no root in {big!r}")
    return big, emb, num(nu) / den(nu)


def splitting_oracle(spec, place: Place) -> int:
    """Count roots of f(X) = u(residue) by scanning the residue field.

    No reduction, no trace test: candidates are enumerated.  The count is 0
    or p^n; anything else is a bug.
    """
    big, emb, val = _residue_value(spec, place)
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


def layer_oracle(spec, places, wp_images) -> list[list[bool]]:
    """Per place, per hyperplane H of spec, in order: does its layer
    z^p - z = u / f_H(eps_H)^p split at the place, i.e. does its rhs there
    lie in wp_images[deg P] = residue_wp_image(k0, deg P)?  Each f_H is
    built from H's own basis, once per spec.  No trace, no reduction.
    """
    p = spec.k0.p
    mus = [(additive_eval(subspace_poly(spec.k0, h.basis), h.eps) ** p).inverse()
           for h in spec.hyperplanes()]
    out = []
    for place in places:
        _, emb, val = _residue_value(spec, place)
        image = wp_images[place.degree()]
        out.append([emb(mu) * val in image for mu in mus])
    return out


# ---------------------------------------------------------------------------
# Witt axiom sampling
# ---------------------------------------------------------------------------

_EXHAUSTIVE_VECTOR_CAP = 16


def _axiom_failures(a: WittVector, b: WittVector, c: WittVector,
                    zero: WittVector, one: WittVector):
    checks = (
        ("add commutes", a + b == b + a),
        ("add associates", (a + b) + c == a + (b + c)),
        ("mul commutes", a * b == b * a),
        ("mul associates", (a * b) * c == a * (b * c)),
        ("mul distributes", a * (b + c) == a * b + a * c),
        ("sub inverts add", (a - b) + b == a),
        ("zero is neutral", a + zero == a),
        ("one is neutral", a * one == a),
        ("frobenius over add", (a + b).frob(1) == a.frob(1) + b.frob(1)),
        ("frobenius over mul", (a * b).frob(1) == a.frob(1) * b.frob(1)),
    )
    for name, ok in checks:
        if not ok:
            return name
    return None


def witt_axiom_sampler(p: int, m: int, ctx: FieldCtx | None = None,
                       rational: bool = False, samples: int = 200,
                       seed: int = 0) -> dict:
    """Check the Witt ring axioms and the Frobenius identities.

    Exhaustive over all triples when the coefficient field is small and
    components are constants; otherwise seeded random triples (rational
    components draw polynomials of degree at most 3).  The report carries
    everything needed to replay the run.
    """
    if m > 3:
        raise LengthCapExceeded("axiom sampling is capped at length 3")
    tables = build_tables(p, m)
    if ctx is None:
        ctx = make_field(p, 1)
    if ctx.p != p:
        raise AspwError("field characteristic does not match p")
    exhaustive = not rational and ctx.order() ** m <= _EXHAUSTIVE_VECTOR_CAP
    if rational:
        zero = teichmuller(tables, RatFunc(Poly(ctx)))
        one = teichmuller(tables, RatFunc.const(ctx, 1))
    else:
        zero = teichmuller(tables, ctx.zero())
        one = teichmuller(tables, ctx.one())

    failure = None
    if exhaustive:
        vecs = [WittVector(tables, comps)
                for comps in itertools.product(list(ctx.elements()), repeat=m)]
        for a, b, c in itertools.product(vecs, repeat=3):
            name = _axiom_failures(a, b, c, zero, one)
            if name:
                failure = (name, a, b, c)
                break
    else:
        rng = random.Random(seed)
        els = list(ctx.elements())

        def draw():
            if not rational:
                return WittVector(tables, [rng.choice(els) for _ in range(m)])
            comps = []
            for _ in range(m):
                num = Poly(ctx, [rng.choice(els)
                                 for _ in range(rng.randrange(1, 5))])
                den = Poly(ctx, [rng.choice(els)
                                 for _ in range(rng.randrange(1, 3))])
                if num.is_zero():
                    num = Poly.const(ctx, 1)
                if den.is_zero():
                    den = Poly.const(ctx, 1)
                comps.append(RatFunc(num, den))
            return WittVector(tables, comps)

        for _ in range(samples):
            a, b, c = draw(), draw(), draw()
            name = _axiom_failures(a, b, c, zero, one)
            if name:
                failure = (name, a, b, c)
                break

    report = {
        "claim": "witt ring axioms and frobenius identities",
        "parameters": {
            "p": p,
            "m": m,
            "field_order": ctx.order(),
            "rational": rational,
            "samples": None if exhaustive else samples,
        },
        "mode": "exhaustive" if exhaustive else "sampled",
        "seed": None if exhaustive else seed,
        "verdict": "pass" if failure is None else "fail",
    }
    if failure is not None:
        name, a, b, c = failure
        report["witness"] = f"{name} at a={a}, b={b}, c={c}"
    return report
