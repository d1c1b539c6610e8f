"""Integer-coded field elements against the tuple reference arithmetic.

Bounded hypothesis tests run every field with p in {2, 3, 5, 7} and
p^s <= 729 (table arithmetic), explicit moduli, the same fields with the
table bound lowered (digit arithmetic) and one field above the bound.  The
element arithmetic and the polynomial kernels also run the prime fields
F_17, F_257, F_65521 (tables) and F_p for p = 2^32 - 5 (digits).
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
import time

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import gf_reference as ref  # noqa: E402
from aspw import gf  # noqa: E402
from aspw.errors import FieldTooLarge, IncompatibleContexts  # noqa: E402
from aspw.gf import FieldCtx, make_field  # noqa: E402
from aspw.upoly import Poly, poly_gcd, poly_inverse_mod  # noqa: E402

SMALL = [(p, s) for p in (2, 3, 5, 7) for s in range(1, 10) if p ** s <= 729]
TABLE_FIELDS = [make_field(p, s) for p, s in SMALL] + [
    make_field(3, 3, modulus=(1, 2, 0, 1)),  # the F27 fixture: w^3 = w + 2
    make_field(3, 2, modulus=(2, 1, 1), generator_name="a"),  # x is primitive here
    make_field(2, 4, modulus=(1, 0, 0, 1, 1), generator_name="b"),
]
BIG = make_field(2, 20)


def _digit_twin(ctx: FieldCtx) -> FieldCtx:
    """The same field with the table bound lowered, so it runs on digits."""
    saved = gf.TABLE_MAX_ORDER
    gf.TABLE_MAX_ORDER = 1
    try:
        twin = FieldCtx(ctx.p, ctx.s, ctx.modulus, ctx.generator_name)
        twin.arith()
    finally:
        gf.TABLE_MAX_ORDER = saved
    return twin


DIGIT_FIELDS = [_digit_twin(ctx) for ctx in TABLE_FIELDS[::3]] + [BIG]
ALL_FIELDS = TABLE_FIELDS + DIGIT_FIELDS
# larger primes for the packed kernels; the last runs on digits
PRIME_FIELDS = [make_field(p, 1) for p in (17, 257, 65521, 4294967291)]
KERNEL_FIELDS = ALL_FIELDS + PRIME_FIELDS


def _field_id(ctx: FieldCtx) -> str:
    return f"F{ctx.order()}-{ctx.arith().__class__.__name__}"


@st.composite
def field_and_codes(draw, fields):
    ctx = draw(st.sampled_from(fields))
    q = ctx.order()
    a, b = draw(st.integers(0, q - 1)), draw(st.integers(0, q - 1))
    e = draw(st.one_of(st.integers(-3, 3), st.integers(-2 * q, 2 * q)))
    return ctx, a, b, e


class TestAgainstReference:
    def test_table_and_digit_paths_are_both_exercised(self):
        assert all(isinstance(ctx.arith(), gf._Tables) for ctx in TABLE_FIELDS)
        assert all(isinstance(ctx.arith(), gf._Digits) for ctx in DIGIT_FIELDS)
        assert BIG.order() > gf.TABLE_MAX_ORDER
        assert [ctx.arith().__class__ for ctx in PRIME_FIELDS] == [gf._Tables] * 3 + [gf._Digits]

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(field_and_codes(KERNEL_FIELDS))
    def test_arithmetic(self, case):
        ctx, a, b, e = case
        p, s = ctx.p, ctx.s
        rows = ref.reduction_rows(p, s, ctx.modulus)
        ra, rb = ref.from_int(p, s, a), ref.from_int(p, s, b)
        x, y = ctx.from_int(a), ctx.from_int(b)
        assert (x + y).coeffs == ref.add(p, ra, rb)
        assert (x - y).coeffs == ref.sub(p, ra, rb)
        assert (-x).coeffs == ref.neg(p, ra)
        assert (x * y).coeffs == ref.mul(p, s, rows, ra, rb)
        assert (3 * x - 1).coeffs == ref.sub(p, ref.mul(p, s, rows, ref.from_int(p, s, 3 % p), ra),
                                             ref.from_int(p, s, 1))
        if b:
            assert (x / y).coeffs == ref.mul(p, s, rows, ra, ref.inverse(p, s, rows, rb))
            assert y.inverse().coeffs == ref.inverse(p, s, rows, rb)
            assert (1 / y).coeffs == ref.inverse(p, s, rows, rb)
        else:
            with pytest.raises(ZeroDivisionError):
                x / y
            with pytest.raises(ZeroDivisionError):
                y.inverse()
        if a or e >= 0:
            assert (x ** e).coeffs == ref.power(p, s, rows, ra, e)
        else:
            with pytest.raises(ZeroDivisionError):
                x ** e

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(field_and_codes(ALL_FIELDS))
    def test_codes_display_and_equality(self, case):
        ctx, a, b, _ = case
        p, s = ctx.p, ctx.s
        ra = ref.from_int(p, s, a)
        x, y = ctx.from_int(a), ctx.from_int(b)
        assert x.coeffs == ra
        assert x.to_int() == ref.to_int(p, ra) == a
        assert ctx.from_coeffs(ra) == x
        assert ctx.from_coeffs(ra[:1]).coeffs == ra[:1] + (0,) * (s - 1)
        assert ctx.from_int(a + 5 * ctx.order()) == x
        assert str(x) == ref.to_str(ctx.generator_name, ra)
        assert (x == y) == (a == b)
        if x == y:
            assert hash(x) == hash(y)
        for n in range(-1, p + 2):
            assert (x == n) == ref.equals_int(p, ra, n)
            if x == n:
                assert hash(x) == hash(n)
        assert x.in_prime_field() == (not any(ra[1:]))

    @pytest.mark.parametrize("ctx", ALL_FIELDS, ids=_field_id)
    def test_generator_and_constants(self, ctx):
        assert ctx.zero().coeffs == (0,) * ctx.s
        assert ctx.one().coeffs == (1,) + (0,) * (ctx.s - 1)
        expected = (0,) * ctx.s if ctx.s == 1 else (0, 1) + (0,) * (ctx.s - 2)
        assert ctx.gen().coeffs == expected


@st.composite
def field_and_polys(draw, fields):
    ctx = draw(st.sampled_from(fields))
    q = ctx.order()
    coeffs = st.lists(st.integers(0, q - 1), min_size=1, max_size=7)
    a, b = draw(coeffs), draw(coeffs)
    b[-1] = draw(st.integers(1, q - 1))
    return ctx, [ctx.from_int(c) for c in a], [ctx.from_int(c) for c in b]


def _codes(draw, ctx, max_degree: int, top=0) -> list:
    """A code list of length up to max_degree + 1; its last code is at least top."""
    q = ctx.order()
    n = draw(st.integers(1, max_degree + 1))
    return draw(st.lists(st.integers(0, q - 1), min_size=n - 1, max_size=n - 1)) + [
        draw(st.integers(top, q - 1))]


def _same(pa: Poly, elems: list) -> None:
    """pa holds, as ints, exactly the codes of the reference's elements."""
    assert pa == Poly(pa.ctx, elems)
    assert all(type(c) is int for c in pa.coeffs)


# witt's largest polynomials have degree 81
MAX_DEGREE = 90


class TestPolyOnCodes:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(field_and_polys(KERNEL_FIELDS))
    def test_mul_and_divmod_match_schoolbook(self, case):
        ctx, a, b = case
        pa, pb = Poly(ctx, a), Poly(ctx, b)
        assert pa * pb == Poly(ctx, ref.poly_mul(a, b))
        quot, rem = ref.poly_divmod(a, b)
        assert divmod(pa, pb) == (Poly(ctx, quot), Poly(ctx, rem))
        if not pa.is_zero():
            assert divmod(pa * pb, pa) == (pb, Poly(ctx))

    @pytest.mark.parametrize("ctx", KERNEL_FIELDS, ids=_field_id)
    @settings(max_examples=6, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_ring_operations_match_schoolbook(self, ctx, data):
        a = [ctx.from_int(c) for c in _codes(data.draw, ctx, MAX_DEGREE)]
        b = [ctx.from_int(c) for c in _codes(data.draw, ctx, MAX_DEGREE, top=1)]
        pa, pb = Poly(ctx, a), Poly(ctx, b)
        _same(pa + pb, ref.poly_add(a, b))
        _same(pa - pb, ref.poly_sub(a, b))
        _same(pa - pa, [])
        _same(-pb, ref.poly_sub([], b))
        _same(pa * pb, ref.poly_mul(a, b))
        quot, rem = ref.poly_divmod(a, b)
        q, r = divmod(pa, pb)
        _same(q, quot)
        _same(r, rem)

    @pytest.mark.parametrize("ctx", KERNEL_FIELDS, ids=_field_id)
    @settings(max_examples=4, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_gcd_and_inverse_match_euclid(self, ctx, data):
        a = [ctx.from_int(c) for c in _codes(data.draw, ctx, MAX_DEGREE)]
        m = [ctx.from_int(c) for c in _codes(data.draw, ctx, MAX_DEGREE // 2, top=1)]
        g = [ctx.from_int(c) for c in _codes(data.draw, ctx, 3, top=1)]
        # a common factor g makes a nontrivial gcd, and then no inverse
        for x, y in ((a, m), (ref.poly_mul(a, g), ref.poly_mul(m, g))):
            px, py = Poly(ctx, x), Poly(ctx, y)
            _same(poly_gcd(px, py), ref.poly_gcd(x, y))
            if py.degree() >= 1:
                inv = ref.poly_inverse_mod(x, ref._trim(y))
                got = poly_inverse_mod(px, py)
                assert (got is None) == (inv is None)
                if inv is not None:
                    _same(got, inv)

    @pytest.mark.parametrize("ctx", ALL_FIELDS, ids=_field_id)
    @settings(max_examples=6, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_unary_operations_match_schoolbook(self, ctx, data):
        a = [ctx.from_int(c) for c in _codes(data.draw, ctx, MAX_DEGREE)]
        x = ctx.from_int(data.draw(st.integers(0, ctx.order() - 1)))
        pa = Poly(ctx, a)
        _same(pa.pth_power(), ref.pth_power(a))
        _same(pa.pth_power().pth_root(), a)
        _same(Poly(ctx, ref.pth_power(a)).pth_root(), ref.pth_root(ref.pth_power(a)))
        _same(pa.derivative(), ref.derivative(a))
        _same(pa.monic(), ref.poly_monic(a))
        assert pa(x) == ref.evaluate(a, x)
        assert pa.is_pth_power() == pa.derivative().is_zero()


def _slot_boundary(p: int, top: int) -> int:
    """The largest n >= 1 with top + (p-1)^2 * n below 256^w for the
    fewest bytes w that admit one: a packed slot of that bound is full."""
    w = 1
    while (256 ** w - 1 - top) // (p - 1) ** 2 < 1:
        w += 1
    return (256 ** w - 1 - top) // (p - 1) ** 2


# the first slot-width boundaries fall between 1 and 2 bytes for p = 2
# and 3, 2 and 3 for 17, 3 and 4 for 257, 4 and 5 (products) or 5 and 6
# (divisions) for 65521, and 8 and 9 for 2^32 - 5 (digit arithmetic)
PACKED_PRIMES = (2, 3, 17, 257, 65521, 4294967291)


class TestPackedKernels:
    """Prime fields multiply and divide on packed integers; operands whose
    every code is p - 1 fill a slot to its bound at the largest length
    that fits its width, and one coefficient more takes the next width."""

    @pytest.mark.parametrize("p", PACKED_PRIMES)
    def test_products_on_both_sides_of_a_slot_width(self, p):
        ctx = make_field(p, 1)
        top = ctx.from_int(p - 1)
        n = _slot_boundary(p, 0)
        for la in (n, n + 1):
            for lb in (la, la + 3):
                a, b = [top] * la, [top] * lb
                _same(Poly(ctx, a) * Poly(ctx, b), ref.poly_mul(a, b))

    @pytest.mark.parametrize("p", PACKED_PRIMES)
    def test_divisions_on_both_sides_of_a_slot_width(self, p):
        ctx = make_field(p, 1)
        top, one = ctx.from_int(p - 1), ctx.one()
        m = _slot_boundary(p, p - 1)
        for nq in (m, m + 1):
            # a non-monic divisor of degree nq (monic for p = 2), and a
            # dividend whose quotient codes are all 1, so that each of the
            # nq subtractions adds (p-1)^2 to the slot below the divisor's
            # degree, whose code is p - 1
            b, quot = [top] * (nq + 1), [one] * nq
            qb = ref.poly_mul(quot, b)
            a = [top] * nq + qb[nq:]
            rem = ref.poly_sub(a[:nq], qb[:nq])
            assert divmod(Poly(ctx, a), Poly(ctx, b)) == (Poly(ctx, quot), Poly(ctx, rem))
            a = [top] * (2 * nq)
            q, r = divmod(Poly(ctx, a), Poly(ctx, b))
            expected = ref.poly_divmod(a, b)
            _same(q, expected[0])
            _same(r, expected[1])

    def test_digit_division_by_a_monic_divisor_inverts_nothing(self, monkeypatch):
        a = [BIG.from_int(c) for c in (5, 0, 7, 1 << 19, 3, 1)]
        monic = [BIG.from_int(c) for c in (9, 1 << 18, 1)]
        expected = ref.poly_divmod(a, monic)
        lead = BIG.from_int(6)
        expected_non_monic = ref.poly_divmod(a, monic[:-1] + [lead])
        with monkeypatch.context() as m:
            m.setattr(gf._Digits, "inv", lambda self, c: pytest.fail("inverted a lead of 1"))
            q, r = divmod(Poly(BIG, a), Poly(BIG, monic))
        _same(q, expected[0])
        _same(r, expected[1])
        q, r = divmod(Poly(BIG, a), Poly(BIG, monic[:-1] + [lead]))
        _same(q, expected_non_monic[0])
        _same(r, expected_non_monic[1])


class TestContexts:
    def test_make_field_interns(self):
        assert make_field(3, 2) is make_field(3, 2)
        assert make_field(3, 2) is make_field(3, 2, modulus=(1, 0, 1))
        assert make_field(2, 20) is BIG

    def test_generator_name_gives_its_own_context(self):
        w, a = make_field(3, 2), make_field(3, 2, generator_name="a")
        assert a is not w and a != w
        with pytest.raises(IncompatibleContexts):
            w.gen() + a.gen()
        with pytest.raises(IncompatibleContexts):
            w.one() * a.one()
        assert w.gen() != a.gen()

    def test_equal_contexts_still_mix(self):
        built = FieldCtx(3, 2, (1, 0, 1), "w")
        interned = make_field(3, 2)
        assert built is not interned and built == interned
        assert built.gen() * interned.gen() == interned.from_int(2)

    def test_tables_are_built_on_first_arithmetic(self):
        ctx = FieldCtx(2, 16, make_field(2, 16).modulus)
        list(zip(range(3), ctx.elements()))
        ctx.from_int(5)
        assert ctx._arith is None
        assert ctx.gen() * ctx.gen() == ctx.from_int(4)
        assert isinstance(ctx._arith, gf._Tables)

    def test_pickled_context_is_the_interned_one(self):
        ctx = make_field(3, 2, generator_name="a")
        assert pickle.loads(pickle.dumps(ctx)) is ctx
        x = pickle.loads(pickle.dumps(ctx.gen()))
        assert x.ctx is ctx and x == ctx.gen() and hash(x) == hash(ctx.gen())

    def test_context_hash_is_the_same_in_every_process(self):
        code = ("import sys; sys.path.insert(0, 'src'); from aspw.gf import make_field; "
                "print(hash(make_field(3, 2, generator_name='a')))")
        root = os.path.join(os.path.dirname(__file__), os.pardir)
        hashes = {subprocess.run([sys.executable, "-c", code], cwd=root, check=True,
                                 capture_output=True, text=True,
                                 env={**os.environ, "PYTHONHASHSEED": seed}).stdout
                  for seed in ("1", "2")}
        assert len(hashes) == 1

    def test_field_order_guard(self):
        for s in (65, 3000, 10 ** 9):
            start = time.perf_counter()
            with pytest.raises(FieldTooLarge):
                make_field(2, s)
            assert time.perf_counter() - start < 1.0
        with pytest.raises(FieldTooLarge):
            make_field(3, 41)  # 3^41 > 2^64
        assert make_field(2, 64).order() == gf.MAX_FIELD_ORDER
