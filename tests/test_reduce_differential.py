"""Block-wise shift reduction against the whole-u reference.

asext._reduce_rhs strips each pole place on its own partial-fraction block
and the polynomial part on its own; tests/reduce_reference.py subtracts
every shift from the whole u and recomputes valuations.  The reduced u and
every step (kind and printed delta) must agree, for f = X^(p^n) - X and for
subspace polynomials whose middle coefficients are all nonzero.  Pole
orders and polynomial degrees are drawn from 1, p, p^n, 2p^n and p^(n+1)
at places that are shared, repeated or coprime.  Bounded and derandomized,
so a failure replays.
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import reduce_reference  # noqa: E402
from aspw.addpoly import AdditivePoly, subspace_poly  # noqa: E402
from aspw.asext import _reduce_rhs  # noqa: E402
from aspw.errors import AspwError  # noqa: E402
from aspw.gf import make_field  # noqa: E402
from aspw.upoly import Poly, RatFunc, partial_fractions  # noqa: E402
from place_reference import monic_irreducibles  # noqa: E402

# (p, s, largest n): every p^(n+1) stays at most 125
FIELDS = [(2, 1, 1), (2, 2, 2), (2, 3, 3), (3, 1, 1), (3, 2, 2), (3, 3, 3),
          (5, 1, 1), (5, 2, 2)]


def _orders(p: int, n: int) -> list[int]:
    return [1, p, p ** n, 2 * p ** n, p ** (n + 1)]


@st.composite
def additive(draw, ctx, max_n):
    n = draw(st.integers(1, max_n))
    if draw(st.booleans()):
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
def rhs(draw, ctx, places, orders):
    """Pole terms c / P^e over a small pool of places plus a polynomial part."""
    q = ctx.order()
    coeff = st.integers(1, q - 1).map(ctx.from_int)
    T = Poly.variable(ctx)
    u = RatFunc(Poly(ctx))
    for _ in range(draw(st.integers(0, 3))):
        P = draw(st.sampled_from(places))
        num = Poly(ctx, [draw(coeff) for _ in range(P.degree())])
        u = u + RatFunc(num, P ** draw(st.sampled_from(orders)))
    for d in draw(st.lists(st.sampled_from([0] + orders), max_size=2)):
        u = u + RatFunc(T ** d * draw(coeff))
    return u


@pytest.mark.parametrize("p, s, max_n", FIELDS)
def test_block_reduction_matches_reference(p, s, max_n):
    ctx = make_field(p, s)
    T = Poly.variable(ctx)
    places = [T, T + 1, next(monic_irreducibles(ctx, 2))]

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(st.data())
    def check(data):
        f = data.draw(additive(ctx, max_n))
        u = data.draw(rhs(ctx, places, _orders(p, f.n)))
        got_u, got_steps = _reduce_rhs(f, partial_fractions(u))
        want_u, want_steps = reduce_reference.reduce_rhs(f, u)
        assert got_u == want_u, (str(f), str(u))
        assert [(k, str(d)) for k, d in got_steps] == [(k, str(d)) for k, d in want_steps]

    check()
