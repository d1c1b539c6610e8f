"""witt_arith on rational vectors against the per-monomial reference.

witt_arith evaluates the tables on polynomial numerators over one common
denominator; tests/witt_reference.py renormalises after every operation.
The two must agree by == and by str for add, sub and mul.  Components mix
zero, constant, polynomial and rational values whose denominators are
shared, coprime or carry repeated factors.  Bounded and derandomized, so
a failure replays.
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import witt_reference  # noqa: E402
from aspw.gf import make_field  # noqa: E402
from aspw.upoly import Poly, RatFunc  # noqa: E402
from aspw.witt import WittVector, build_tables, witt_arith  # noqa: E402

# (p, s, m): F_p, F_4 and F_9 at every length the reference runs quickly
RINGS = [(2, s, m) for s in (1, 2) for m in (1, 2, 3, 4)] \
    + [(3, s, m) for s in (1, 2) for m in (1, 2, 3)] \
    + [(5, 1, m) for m in (1, 2)]


@st.composite
def components(draw, ctx):
    """One component; denominators are drawn from three fixed places, so
    two components often share a factor, often are coprime, and a factor
    may repeat."""
    q = ctx.order()
    kind = draw(st.sampled_from(("zero", "const", "poly", "rat", "rat", "rat")))
    if kind == "zero":
        return RatFunc(Poly(ctx))
    if kind == "const":
        return RatFunc.const(ctx, ctx.from_int(draw(st.integers(1, q - 1))))
    codes = draw(st.lists(st.integers(0, q - 1), min_size=1, max_size=3))
    num = Poly(ctx, [ctx.from_int(c) for c in codes])
    den = Poly.const(ctx, 1)
    if kind == "rat":
        T = Poly.variable(ctx)
        for place in (T, T + 1, T * T + T + ctx.from_int(q - 1)):
            den = den * place ** draw(st.integers(0, 2))
    return RatFunc(num, den)


@pytest.mark.parametrize("p, s, m", RINGS)
def test_numerator_evaluation_matches_reference(p, s, m):
    ctx = make_field(p, s)
    tables = build_tables(p, m)
    vector = st.lists(components(ctx), min_size=m, max_size=m).map(
        lambda comps: WittVector(tables, comps))

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(vector, vector)
    def check(a, b):
        for op in ("add", "sub", "mul"):
            got = witt_arith(op, a, b)
            want = witt_reference.witt_arith(op, a, b)
            assert got == want, (op, str(a), str(b))
            assert str(got) == str(want)

    check()
