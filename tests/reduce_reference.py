"""Reference shift reduction on whole rational functions, for differential tests.

Each shift is subtracted from the whole lowest-terms u, and the pole order
and leading digit at a place are found afresh from u's numerator and
denominator after every step.  This is how aspw.asext reduced a right side
before it worked on partial-fraction blocks, one place at a time.
"""

from __future__ import annotations

from aspw.addpoly import AdditivePoly, additive_eval, constant_preimage
from aspw.asext import SHIFT
from aspw.gf import frobenius_power, p_adic_split
from aspw.upoly import (
    Place,
    Poly,
    RatFunc,
    _split_off,
    factor,
    inv_frobenius_mod,
    place_valuation,
    poly_inverse_mod,
)


def pole_leading_digit(u: RatFunc, place: Place) -> tuple[int, Poly]:
    """(e, A) with v_P(u) = -e < 0 and u*P^e = A mod P, deg A < deg P."""
    P = place.poly
    e, den = _split_off(u.den, P)
    assert e > 0
    return e, (u.num * poly_inverse_mod(den, P)) % P


def strip_finite_pole(f: AdditivePoly, u: RatFunc, place: Place, steps: list) -> RatFunc:
    """Shift away P-pole exponents e = lam*p^m with m >= n."""
    while place_valuation(u, place) < 0:
        e, a = pole_leading_digit(u, place)
        if p_adic_split(e, f.ctx.p)[1] < f.n:
            break
        c = inv_frobenius_mod(a, place.poly, f.n)
        delta = RatFunc(c, place.poly ** (e // f.q))
        u = u - additive_eval(f, delta)
        steps.append((SHIFT, delta))
        assert place_valuation(u, place) > -e
    return u


def strip_infinity(f: AdditivePoly, u: RatFunc, steps: list) -> RatFunc:
    while True:
        r = u.poly_part()
        d = r.degree()
        if d < 1 or p_adic_split(d, f.ctx.p)[1] < f.n:
            return u
        c = frobenius_power(r.leading(), -f.n)
        delta = RatFunc(Poly(f.ctx, [f.ctx.zero()] * (d // f.q) + [c]))
        u = u - additive_eval(f, delta)
        steps.append((SHIFT, delta))
        assert u.poly_part().degree() < d


def absorb_constant(f: AdditivePoly, u: RatFunc, steps: list) -> RatFunc:
    r = u.poly_part()
    if r.degree() != 0:
        return u
    x = constant_preimage(f, r.leading())
    if x is None:
        return u
    delta = RatFunc.const(f.ctx, x)
    steps.append((SHIFT, delta))
    return u - additive_eval(f, delta)


def reduce_rhs(f: AdditivePoly, u: RatFunc) -> tuple[RatFunc, list]:
    """Finite poles in factor order, then the infinite place, then the constant."""
    steps: list = []
    places = [Place(P) for P, _ in factor(u.den)] if u.den.degree() > 0 else []
    for place in places:
        u = strip_finite_pole(f, u, place, steps)
    u = strip_infinity(f, u, steps)
    u = absorb_constant(f, u, steps)
    return u, steps
