"""Independent brute-force ground truth for the analysis modules.

Everything here works by exhaustive enumeration over small fields (or
seeded sampling where enumeration is impossible), deliberately avoiding
the reduction, trace and hyperplane machinery it is used to validate.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter

from .addpoly import AdditivePoly, additive_eval, root_group, subspace_poly, wp_compose
from .errors import (
    AspwError,
    FieldTooLarge,
    InternalCheckError,
    LengthCapExceeded,
    PoleAtPlace,
)
from .gf import FieldCtx, _prime_divisors, embed_field, make_field, p_adic_split
from .upoly import Place, Poly, RatFunc, _from_codes
from .witt import WittVector, build_tables, teichmuller

ORACLE_CAP = 3 ** 6
# rational axiom samples have degrees in T growing like p^(m-1); up to 13 one
# takes under 0.3 s, and p = 17 at m = 2 or p = 5 at m = 3 0.5 s or a minute
# (2-core Xeon, CPython 3.11)
RATIONAL_WEIGHT_BOUND = 13


def _prime_power_split(q: int) -> tuple[int, int]:
    """q = p^j with p prime; malformed q is an input error."""
    primes = _prime_divisors(q) if q >= 2 else []
    if len(primes) == 1:
        return primes[0], p_adic_split(q, primes[0])[1]
    raise AspwError(f"{q} is not a prime power")


# ---------------------------------------------------------------------------
# image sets and the two identity checks
# ---------------------------------------------------------------------------


def image_set(f: AdditivePoly, field: FieldCtx) -> frozenset:
    """Exhaustive image of an additive polynomial over a small field.

    The image/kernel product rule |im|*|ker| = |field| is asserted, so an
    evaluation that is not additive is rejected as a bug rather than
    silently accepted.
    """
    if field.order() > ORACLE_CAP:
        raise FieldTooLarge(f"image scan capped at {ORACLE_CAP} elements")
    image = set()
    kernel = 0
    for x in field.elements():
        y = additive_eval(f, x)
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
        inter &= image_set(wp_compose(ai, AdditivePoly.identity(k0)), k0)
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


class ResidueField:
    """The residue field F_{q^d} of the degree-d places of k0(T): k0's
    embedding with its table of codes, the image of x^p - x, the places with
    their roots (one pass) and each additive f's fibre sizes (one pass per
    f).  No reduction."""

    def __init__(self, k0: FieldCtx, d: int):
        check_residue_cap(k0.order(), d)
        self.k0, self.d = k0, d
        self.big = make_field(k0.p, k0.s * d)
        self.emb = embed_field(k0, self.big)
        # k0 code -> code of its image in F_{q^d}
        self._lift = [self.emb(c).code for c in k0.elements()]
        self.wp_image = image_set(AdditivePoly.frobenius_minus_id(self.big, 1), self.big)
        self._roots = self._orbit_roots()
        # Gauss: d times the number of places is the sum of mu(e) q^(d/e) over e | d
        q, primes = k0.order(), _prime_divisors(d)
        expected = sum((-1) ** r * q ** (d // math.prod(c)) for r in range(len(primes) + 1)
                       for c in itertools.combinations(primes, r)) // d
        if len(self._roots) != expected:
            raise InternalCheckError(f"{len(self._roots)} places of degree {d} over {k0!r} "
                                     f"found in {self.big!r}, not {expected}")
        self._fibres = {}

    def _orbit_roots(self) -> dict:
        """P -> its smallest root, in canonical order: an orbit of d elements
        under x -> x^q has degree d, so the product of X - r over it is a P."""
        back = {b: c for c, b in enumerate(self._lift)}
        T, roots, seen = Poly.variable(self.big), [], set()
        for x in self.big.elements():
            if x.code in seen:  # x's orbit came with a smaller element
                continue
            orbit = [x]
            while (y := orbit[-1] ** self.k0.order()) != x:
                orbit.append(y)
            seen.update(r.code for r in orbit)
            if len(orbit) == self.d:
                minpoly = math.prod((T - r for r in orbit), start=Poly.const(self.big, 1)).coeffs
                if any(c not in back for c in minpoly):
                    raise InternalCheckError(f"minimal polynomial of {x} in {self.big!r} "
                                             f"is not over {self.k0!r}")
                roots.append((_from_codes(self.k0, [back[c] for c in minpoly]), x))
        return dict(sorted(roots, key=lambda pair: pair[0].sort_key()))

    def places(self) -> list[Place]:
        """The degree-d places in canonical order, without Place()'s test:
        each has a root of degree d, which proves it irreducible."""
        out = [object.__new__(Place) for _ in self._roots]
        for place, P in zip(out, self._roots):
            place.poly = P
        return out

    def root(self, P: Poly):
        """The smallest root of the monic P in F_{q^d}, of degree d over k0."""
        nu = self._roots.get(P)
        if nu is None:
            raise InternalCheckError(f"place polynomial {P} has no root of degree "
                                     f"{self.d} over {self.k0!r} in {self.big!r}")
        return nu

    def value(self, u: RatFunc, place: Place):
        """u(P) in F_{q^d}, at P's residue root."""
        if place.is_infinite:
            raise AspwError("the direct oracle handles finite places only")
        nu, lift = self.root(place.poly), self._lift
        num, den = (_from_codes(self.big, [lift[c] for c in g.coeffs])(nu) for g in (u.num, u.den))
        # u is in lowest terms, so P divides u.den exactly when den(nu) = 0
        if den.is_zero():
            raise PoleAtPlace(f"the right side has a pole at {place}")
        return num / den

    def fibres(self, f: AdditivePoly) -> Counter:
        """y -> number of x in F_{q^d} with f(x) = y.  f has p^n roots in
        k0, so every fibre has p^n elements; anything else is a bug."""
        table = self._fibres.get(f)
        if table is None:
            f_big = AdditivePoly(self.big, [self.emb(a) for a in f.a])
            table = Counter(additive_eval(f_big, x) for x in self.big.elements())
            if set(table.values()) != {f.q}:
                raise InternalCheckError(f"fibre sizes {sorted(set(table.values()))} of "
                                         f"f={f} on {self.big!r} are not all p^n = {f.q}")
            self._fibres[f] = table
        return table


# (k0, d) -> its ResidueField, built on first use and kept for the process
# like gf's fields: at most ORACLE_CAP elements each, never evicted
_RESIDUE_FIELDS: dict = {}


def residue_field(k0: FieldCtx, d: int) -> ResidueField:
    """The process's one ResidueField of (k0, d): its checks, places, roots
    and fibre tables are built once, however many commands read them."""
    # one hashed lookup: verify oracle reads it twice per place
    field = _RESIDUE_FIELDS.get((k0, d))
    if field is None:
        field = _RESIDUE_FIELDS[k0, d] = ResidueField(k0, d)
    return field


def splitting_oracle(spec, place: Place, value=None) -> int:
    """Roots of f(X) = u(P) in the residue field: the size of u(P)'s fibre
    under f, so 0 or p^n.  value (u(P) in the place's residue_field) is for
    a caller that holds it.  No reduction, no trace test."""
    field = residue_field(spec.k0, place.degree())
    if value is None:
        value = field.value(spec.u, place)
    return field.fibres(spec.f).get(value, 0)


def layer_oracle(spec, places, values=None) -> list[list[bool]]:
    """Per place, per hyperplane H of spec, in order: does the rhs of its layer
    z^p - z = u / f_H(eps_H)^p at the place lie in the image of x^p - x on
    the place's residue_field?  values, if given, are the u(P) in place
    order.  Each f_H is built from H's own basis, once per spec.  No trace,
    no reduction."""
    p = spec.k0.p
    mus = [(additive_eval(subspace_poly(spec.k0, h.basis), h.eps) ** p).inverse()
           for h in spec.hyperplanes()]
    fields = {d: residue_field(spec.k0, d) for d in {pl.degree() for pl in places}}
    embedded = {d: [field.emb(mu) for mu in mus] for d, field in fields.items()}
    if values is None:
        values = [fields[pl.degree()].value(spec.u, pl) for pl in places]
    return [[mu * val in fields[pl.degree()].wp_image for mu in embedded[pl.degree()]]
            for pl, val in zip(places, values)]


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
    # the draws below enumerate the field
    check_verification_cap(ctx.order())
    if rational and p ** (m - 1) > RATIONAL_WEIGHT_BOUND:
        raise AspwError(f"rational sampling needs p^(m-1) <= {RATIONAL_WEIGHT_BOUND}, "
                        f"got {p}^{m - 1}")
    exhaustive = not rational and ctx.order() ** m <= _EXHAUSTIVE_VECTOR_CAP
    if rational:
        zero = teichmuller(tables, RatFunc(Poly(ctx)))
        one = teichmuller(tables, RatFunc.const(ctx, 1))
    else:
        zero = teichmuller(tables, ctx.zero())
        one = teichmuller(tables, ctx.one())

    if exhaustive:
        vecs = [WittVector(tables, comps)
                for comps in itertools.product(list(ctx.elements()), repeat=m)]
        triples = itertools.product(vecs, repeat=3)
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

        triples = ((draw(), draw(), draw()) for _ in range(samples))

    failure = None
    for a, b, c in triples:
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
