"""Polynomials, rational functions, places, partial fractions, residues."""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random

import pytest

from aspw import oracle, upoly
from aspw.errors import InternalCheckError, NotIrreducible, PoleAtPlace, ZeroPolynomial
from aspw.gf import absolute_trace_value, embed_field, make_field, trace_map
from aspw.parsing import parse_poly
from aspw.upoly import (
    INF,
    PartialFractions,
    Place,
    Poly,
    RatFunc,
    factor,
    inv_frobenius_mod,
    is_irreducible,
    partial_fractions,
    pf_string,
    place_digits,
    place_valuation,
    poly_gcd,
    poly_inverse_mod,
    poly_powmod,
    residue_trace,
    _split_off,
)

from conftest import rand_elem, rand_poly, rand_ratfunc
from place_reference import monic_irreducibles


# === polynomial ring =======================================================

class TestPoly:
    def test_trailing_zeros_trimmed(self, F3):
        f = Poly(F3, (F3.one(), F3.zero(), F3.zero()))
        assert f.degree() == 0
        assert Poly(F3).is_zero()
        assert Poly(F3).degree() == -1

    def test_mul_matches_evaluation(self, F9):
        # oracle: ring homomorphism into the field at every point
        rng = random.Random(23)
        for _ in range(40):
            f = rand_poly(rng, F9, 6)
            g = rand_poly(rng, F9, 6)
            h = f * g
            for a in list(F9.elements())[:5]:
                assert h(a) == f(a) * g(a)

    def test_divmod_identity(self, F27):
        rng = random.Random(29)
        for _ in range(40):
            f = rand_poly(rng, F27, 10)
            g = rand_poly(rng, F27, 5)
            q, r = divmod(f, g)
            assert q * g + r == f
            assert r.is_zero() or r.degree() < g.degree()

    def test_gcd_divides_both(self, F4):
        rng = random.Random(31)
        for _ in range(30):
            h = rand_poly(rng, F4, 3)
            f = rand_poly(rng, F4, 4) * h
            g = rand_poly(rng, F4, 4) * h
            d = poly_gcd(f, g)
            assert (f % d).is_zero() and (g % d).is_zero()
            assert d.is_monic()

    @pytest.mark.parametrize("p, s", [(3, 1), (3, 2), (2, 1)])
    def test_coprime_gcd_never_divides_by_a_constant(self, monkeypatch, p, s):
        # Euclid ends at a nonzero constant remainder, which divides
        # everything: one more division by it would only leave remainder 0
        ctx = make_field(p, s)
        rng = random.Random(47)
        pairs, expected = [], []
        while len(pairs) < 40:
            f, g = rand_poly(rng, ctx, 7), rand_poly(rng, ctx, 6)
            a, b = f, g
            while not b.is_zero():
                a, b = b, a % b
            if g.degree() >= 1 and a.degree() == 0:
                pairs.append((f, g))
                expected.append(a.monic())
        real = Poly.__divmod__
        divisor_degrees = []

        def recording(a, b):
            divisor_degrees.append(b.degree())
            return real(a, b)

        monkeypatch.setattr(Poly, "__divmod__", recording)
        assert [poly_gcd(f, g) for f, g in pairs] == expected
        assert divisor_degrees and 0 not in divisor_degrees

    @pytest.mark.parametrize("p, s", [(3, 1), (3, 2), (2, 1)])
    def test_inverse_mod_never_divides_by_a_constant(self, monkeypatch, p, s):
        # extended Euclid can stop at a nonzero constant remainder r1:
        # x1 * a = r1 mod m already gives the inverse
        ctx = make_field(p, s)
        rng = random.Random(53)
        pairs = []
        while len(pairs) < 40:
            a, m = rand_poly(rng, ctx, 7), rand_poly(rng, ctx, 6)
            if m.degree() >= 1 and not (a % m).is_zero() and poly_gcd(a, m).degree() == 0:
                pairs.append((a, m))
        # the Euclid runs on code lists, through the field's division kernel
        kernel = type(ctx.arith())
        real = kernel.poly_divmod
        divisor_degrees = []

        def recording(self, a, b):
            divisor_degrees.append(len(b) - 1)
            return real(self, a, b)

        monkeypatch.setattr(kernel, "poly_divmod", recording)
        inverses = [poly_inverse_mod(a, m) for a, m in pairs]
        monkeypatch.undo()
        assert all((a * b) % m == Poly.const(ctx, 1) for (a, m), b in zip(pairs, inverses))
        assert divisor_degrees and 0 not in divisor_degrees

    def test_inverse_mod_none_exactly_at_common_factor(self, F9):
        rng = random.Random(37)
        for _ in range(60):
            f = rand_poly(rng, F9, 6)
            m = rand_poly(rng, F9, 4)
            if m.degree() < 1:
                continue
            inv = poly_inverse_mod(f, m)
            if poly_gcd(f, m).degree() != 0:
                assert inv is None
            else:
                assert inv.degree() < m.degree()
                assert (f * inv) % m == Poly.const(F9, 1)
        t = Poly.variable(F9)
        assert poly_inverse_mod(t * (t + 1), t ** 2 + 1) is not None
        assert poly_inverse_mod(t * (t + 1), t ** 2 + t) is None

    def test_pth_power_and_root(self, F27):
        rng = random.Random(41)
        for _ in range(20):
            f = rand_poly(rng, F27, 5)
            fp = f.pth_power()
            assert fp == f ** 3
            assert fp.pth_root() == f
        t = Poly.variable(F27)
        with pytest.raises(ValueError):
            (t + 1).pth_root()

    def test_power_matches_repeated_product(self, F4, F9):
        # exponents with and without p-power parts, and the zero polynomial
        rng = random.Random(43)
        for ctx in (F4, F9):
            for _ in range(6):
                f = rand_poly(rng, ctx, 3)
                acc = Poly.const(ctx, 1)
                for e in range(20):
                    assert f ** e == acc, (f, e)
                    acc = acc * f
            zero = Poly(ctx)
            assert zero ** 0 == Poly.const(ctx, 1)
            assert zero ** ctx.p == zero and zero ** 5 == zero
        with pytest.raises(ValueError):
            Poly.variable(F9) ** -1

    def test_derivative_product_rule(self, F9):
        rng = random.Random(43)
        for _ in range(20):
            f = rand_poly(rng, F9, 5)
            g = rand_poly(rng, F9, 5)
            lhs = (f * g).derivative()
            rhs = f.derivative() * g + f * g.derivative()
            assert lhs == rhs

    def test_str_decreasing_powers(self, F27):
        w = F27.gen()
        t = Poly.variable(F27)
        f = t ** 9 + t ** 3 + t + Poly.const(F27, w + 1)
        assert str(f) == "T^9+T^3+T+w+1"
        g = Poly.const(F27, 2 * w) * t ** 2 + Poly.const(F27, 1)
        assert str(g) == "(2w)T^2+1"


# === factoring =============================================================

class TestFactor:
    def test_visible_roots(self, F2):
        t = Poly.variable(F2)
        fs = factor(t * t + t)
        assert [(str(g), m) for g, m in fs] == [("T", 1), ("T+1", 1)]

    def test_power_of_linear(self, F27):
        t = Poly.variable(F27)
        fs = factor((t + 1) ** 54)
        assert len(fs) == 1
        assert fs[0][0] == t + 1 and fs[0][1] == 54

    def test_zero_rejected(self, F3):
        with pytest.raises(ZeroPolynomial):
            factor(Poly(F3))

    def test_random_roundtrip_with_irreducibility(self, F9):
        rng = random.Random(47)
        for _ in range(25):
            f = rand_poly(rng, F9, 6, monic=True)
            if f.degree() == 0:
                continue
            fs = factor(f)
            prod = Poly.const(F9, 1)
            for g, m in fs:
                assert is_irreducible(g)  # cross-check with the Rabin test
                prod = prod * g ** m
            assert prod == f

    def test_inseparable_and_repeated_factors(self, F9):
        t = Poly.variable(F9)
        w = F9.gen()
        f = ((t ** 2 + 1) ** 3) * (t + w) ** 2 * t
        got = dict(factor(f))
        # T^2+1 = (T+w)(T+2w) over F_9 since w^2 = -1
        assert got[t + w] == 5
        assert got[t + 2 * w] == 3
        assert got[t] == 1

    def test_product_mismatch_names_its_input(self, F3, monkeypatch):
        t = Poly.variable(F3)
        monkeypatch.setattr(upoly, "_factor_into", lambda f, scale, found: found.update({t: 1}))
        with pytest.raises(InternalCheckError) as err:
            factor(t ** 2 + 1)
        assert str(err.value) == "factor product mismatch for Poly(T^2+1): {Poly(T): 1}"

    def test_field_polynomial_splits_by_degree(self, F3):
        # T^9 - T is the product of all monic irreducibles of degree 1 and 2
        t = Poly.variable(F3)
        fs = factor(t ** 9 - t)
        assert all(m == 1 for _, m in fs)
        degs = sorted(g.degree() for g, _ in fs)
        assert degs == [1, 1, 1, 2, 2, 2]

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_prime_field_factor_and_gcd_match_sympy(self, p):
        # development-only reference: sympy is no dependency of the package
        gt = pytest.importorskip("sympy.polys.galoistools")
        ZZ = pytest.importorskip("sympy.polys.domains").ZZ
        k = make_field(p, 1)
        rng = random.Random(1000 + p)

        def dense(f):  # sympy's form: integer coefficients, highest first
            return list(reversed(f.coeffs))  # F_p codes are the integers

        for _ in range(10):
            h = rand_poly(rng, k, 3)
            f = rand_poly(rng, k, 6) * h * h
            g = rand_poly(rng, k, 9) * h
            assert dense(poly_gcd(f, g)) == [int(c) for c in gt.gf_gcd(dense(f), dense(g), p, ZZ)]
            for a in (f, g):
                if a.degree() < 1:
                    continue
                _, ref = gt.gf_factor(dense(a), p, ZZ)
                assert sorted((dense(q), m) for q, m in factor(a)) == sorted(
                    ([int(c) for c in q], m) for q, m in ref)

    @pytest.mark.parametrize("s, text", [
        # the old code-order sweep ran out of candidates on both
        (3, "T^10+(w^2+w+1)T^9+(w+1)T^8+(w+1)T^7+(w^2+w+1)T^6+(w^2+w+1)T^5"
            "+(w^2+w+1)T^3+(w^2+w+1)T^2+T+w^2"),
        (4, "T^8+(w^2)T^7+(w^3+w+1)T^5+(w^2+w+1)T^4+(w^2+w)T^3+(w^2+w+1)T^2+(w^2+w)T"),
    ])
    def test_characteristic_two_sweep_cases(self, s, text):
        k = make_field(2, s)
        f = parse_poly(k, text)
        prod = Poly.const(k, 1)
        for g, m in factor(f):
            assert is_irreducible(g)
            prod = prod * g ** m
        assert prod == f

    def test_characteristic_two_sweep_stays_in_the_basis(self, monkeypatch):
        # seeded products of irreducibles over F_4 .. F_256: the factors come
        # back, and each split tries at most s * (deg f - 1) basis elements
        tries = []  # [cap, gcds] per _edf call
        active = []  # the entries of the _edf calls now running
        real_edf, real_gcd = upoly._edf, upoly.poly_gcd

        def counting_edf(f, d):
            tries.append([f.ctx.s * (f.degree() - 1), 0])
            active.append(tries[-1])
            try:
                return real_edf(f, d)
            finally:
                active.pop()

        def counting_gcd(a, b):
            if active:
                active[-1][1] += 1
            return real_gcd(a, b)

        monkeypatch.setattr(upoly, "_edf", counting_edf)
        monkeypatch.setattr(upoly, "poly_gcd", counting_gcd)
        rng = random.Random(61)
        for s in range(2, 9):
            k = make_field(2, s)
            for _ in range(5):
                parts = []
                while len(parts) < rng.randrange(3, 8):
                    g = rand_poly(rng, k, 3, monic=True)
                    if g.degree() > 0 and is_irreducible(g):
                        parts.append(g)
                f = Poly.const(k, 1)
                for g in parts:
                    f = f * g
                tries.clear()
                got = factor(f)
                expected = {g: parts.count(g) for g in parts}
                assert got == sorted(expected.items(), key=lambda t: t[0].sort_key())
                assert all(n <= cap for cap, n in tries), (s, f, tries)

    def test_monic_irreducibles_frozen_f3_deg2(self, F3):
        got = [str(g) for g in monic_irreducibles(F3, 2)]
        assert got == ["T^2+1", "T^2+T+2", "T^2+2T+2"]

    @pytest.mark.parametrize("p, s, degrees", [
        (2, 1, (1, 2, 3, 4, 5, 6)), (3, 1, (1, 2, 3, 4)), (5, 1, (1, 2, 3)),
        (2, 2, (1, 2, 3)), (3, 2, (1, 2, 3)), (2, 3, (1, 2)), (7, 1, (1, 2)),
    ])
    def test_monic_irreducibles_sieve_matches_rabin(self, p, s, degrees):
        # the sieve lists exactly the monic candidates that pass the Rabin
        # test, in code order, and nothing of degree 0
        ctx = make_field(p, s)
        assert list(monic_irreducibles(ctx, 0)) == []
        for d in degrees:
            # code order: the constant coefficient varies fastest
            monic = [Poly(ctx, [ctx.from_int(c) for c in reversed(t)] + [ctx.one()])
                     for t in itertools.product(range(ctx.order()), repeat=d)]
            assert list(monic_irreducibles(ctx, d)) == [g for g in monic if is_irreducible(g)]

    def test_powmod_agrees_with_direct(self, F9):
        rng = random.Random(53)
        for _ in range(15):
            f = rand_poly(rng, F9, 4)
            m = rand_poly(rng, F9, 3, monic=True)
            if m.degree() == 0:
                continue
            assert poly_powmod(f, 7, m) == (f ** 7) % m


# === rational functions ====================================================

class TestRatFunc:
    def test_normalization(self, F9):
        t = Poly.variable(F9)
        w = F9.gen()
        u = RatFunc((t + 1) * (t + w) * 2, (t + 1) * t * w)
        assert u.den.is_monic()
        assert poly_gcd(u.num, u.den).degree() == 0
        assert u == RatFunc((t + w) * (2 / w), t)

    def test_field_operations(self, F27):
        rng = random.Random(59)
        for _ in range(25):
            a = rand_ratfunc(rng, F27, 4)
            b = rand_ratfunc(rng, F27, 4)
            assert (a + b) - b == a
            if not b.is_zero():
                assert (a / b) * b == a
        x = RatFunc.variable(F27)
        assert (1 - x) + x == RatFunc.const(F27, 1)

    def test_power_stays_reduced(self, F9):
        # the gcd-free power must equal the normalized product, for zero,
        # positive and negative exponents
        rng = random.Random(67)
        for _ in range(10):
            a = rand_ratfunc(rng, F9, 3)
            acc = RatFunc.const(F9, 1)
            for e in range(12):
                got = a ** e
                assert got == acc and got.den.is_monic()
                assert poly_gcd(got.num, got.den).degree() == 0
                if not a.is_zero():
                    assert a ** -e == RatFunc.const(F9, 1) / acc
                acc = acc * a
        zero = RatFunc(Poly(F9))
        assert zero ** 0 == RatFunc.const(F9, 1)
        assert zero ** 3 == zero and zero.den == (zero ** 3).den
        with pytest.raises(ZeroDivisionError):
            zero ** -1

    def test_pth_power_roundtrip(self, F9):
        rng = random.Random(61)
        for _ in range(15):
            a = rand_ratfunc(rng, F9, 4)
            ap = a.pth_power()
            assert ap == a ** 3
            assert ap.is_pth_power()
            assert ap.pth_root() == a

    def test_pth_power_is_already_reduced(self, F4, F9, F27, monkeypatch):
        # p-th powers, negation and p-th roots are built without a gcd: each
        # must equal the normalizing constructor's result
        rng = random.Random(62)
        real_gcd = upoly.poly_gcd

        def no_gcd(a, b):
            raise AssertionError("a gcd-free constructor took a gcd")

        for ctx in (F4, F9, F27):
            for _ in range(20):
                a = rand_ratfunc(rng, ctx, 4)
                monkeypatch.setattr(upoly, "poly_gcd", no_gcd)
                ap, neg = a.pth_power(), -a
                root = ap.pth_root()
                monkeypatch.setattr(upoly, "poly_gcd", real_gcd)
                for got, num, den in ((ap, a.num.pth_power(), a.den.pth_power()),
                                      (neg, -a.num, a.den),
                                      (root, ap.num.pth_root(), ap.den.pth_root())):
                    expected = RatFunc(num, den)
                    assert (got.num, got.den) == (expected.num, expected.den)
                    assert got.den.is_monic()
                assert root == a

    @pytest.mark.parametrize("p, s", [(2, 1), (2, 2), (3, 2), (3, 3), (17, 1), (2, 20)])
    def test_henrici_matches_the_normalizing_constructor(self, p, s):
        # sums, differences, products and quotients cancel only the factors
        # Henrici's split names; each must equal RatFunc() on the plain cross
        # products, over table fields, a prime field and a digit field
        ctx = make_field(p, s)
        rng = random.Random(100 * p + s)
        zero, one = RatFunc(Poly(ctx)), RatFunc.const(ctx, 1)
        pairs = []
        for _ in range(12):
            x, y = rand_ratfunc(rng, ctx, 4), rand_ratfunc(rng, ctx, 4)
            P = Poly(ctx, [rand_elem(rng, ctx), rand_elem(rng, ctx), ctx.one()])
            w = RatFunc(rand_poly(rng, ctx, 3), P)
            c = RatFunc.const(ctx, rand_elem(rng, ctx))
            pairs += [
                (x, y),
                (RatFunc(x.num, x.den * P ** 2), RatFunc(y.num, y.den * P)),  # shared P
                (x, w - x),  # the sum is w: t cancels all of g
                (x / P, w - x / P),  # the sum is w again: t cancels all of g but P
                (x, -x),  # the sum is zero
                (x, c - x),  # the sum is a constant
                (x, one / x),  # the product is 1
                (x, w / x),  # the product is w
                (x, zero), (zero, x),
                (RatFunc(x.num), RatFunc(y.num)),  # two polynomials
                (RatFunc(x.num), y),
            ]
        partial = 0  # sums whose t cancels part, not all, of g
        for x, y in pairs:
            n1, d1, n2, d2 = x.num, x.den, y.num, y.den
            checks = [(x + y, n1 * d2 + n2 * d1, d1 * d2),
                      (x - y, n1 * d2 - n2 * d1, d1 * d2),
                      (x * y, n1 * n2, d1 * d2)]
            if not y.is_zero():
                checks.append((x / y, n1 * d2, d1 * n2))
            for got, num, den in checks:
                expected = RatFunc(num, den)
                assert (got.num, got.den) == (expected.num, expected.den)
                assert got.den.is_monic()
            # the sum's denominator is lcm(d1, d2) / gcd(t, g)
            g = poly_gcd(d1, d2)
            cancelled = ((d1 * d2) // g).degree() - (x + y).den.degree()
            partial += 0 < cancelled < g.degree()
        assert partial > 0


# === places and valuations =================================================

class TestValuation:
    def test_infinite_place_of_monomial(self, F3):
        # v at infinity of T^(lambda*p) is minus lambda*p
        t = RatFunc.variable(F3)
        assert place_valuation(t ** 6, Place.infinite()) == -6
        assert place_valuation(1 / t ** 2, Place.infinite()) == 2

    def test_example_pole_order(self, F27):
        t = Poly.variable(F27)
        u = RatFunc(Poly.const(F27, 1), (t + 1) ** 54) + RatFunc(Poly.const(F27, 1), t + 1)
        assert place_valuation(u, Place(t + 1)) == -54

    def test_unit_has_valuation_zero_everywhere(self, F9):
        one = RatFunc.const(F9, 1)
        t = Poly.variable(F9)
        for P in [Place.infinite(), Place(t), Place(t + 1)]:
            assert place_valuation(one, P) == 0

    def test_zero_gets_infinity(self, F3):
        z = RatFunc(Poly(F3))
        assert place_valuation(z, Place.infinite()) == INF

    def test_multiplicativity_and_ultrametric(self, F9):
        rng = random.Random(67)
        t = Poly.variable(F9)
        quad = next(monic_irreducibles(F9, 2))
        places = [Place.infinite(), Place(t), Place(quad)]
        for _ in range(20):
            a = rand_ratfunc(rng, F9, 5)
            b = rand_ratfunc(rng, F9, 5)
            if a.is_zero() or b.is_zero():
                continue
            for P in places:
                assert place_valuation(a * b, P) == place_valuation(a, P) + place_valuation(b, P)
                s = a + b
                if not s.is_zero():
                    assert place_valuation(s, P) >= min(
                        place_valuation(a, P), place_valuation(b, P)
                    )

    def test_principal_divisor_has_degree_zero(self, F27):
        rng = random.Random(71)
        for _ in range(10):
            u = rand_ratfunc(rng, F27, 6)
            if u.is_zero() or u.is_constant():
                continue
            total = place_valuation(u, Place.infinite())
            seen = set()
            for pol in [u.num, u.den]:
                if pol.degree() > 0:
                    for P, _ in factor(pol):
                        if P not in seen:
                            seen.add(P)
                            total += place_valuation(u, Place(P)) * P.degree()
            assert total == 0

    def test_split_off_valuations_up_to_300(self, F9):
        # a = P^e * b with P not dividing b, for e up to 300; P^e is built by
        # repeated multiplication, independent of the squaring in _split_off
        rng = random.Random(73)
        t = Poly.variable(F9)
        quad = next(monic_irreducibles(F9, 2))
        for P in (t, t + 1, quad):
            power = Poly.const(F9, 1)
            for e in range(301):
                b = rand_poly(rng, F9, 3)
                while b.is_zero() or (b % P).is_zero():
                    b = rand_poly(rng, F9, 3)
                assert _split_off(power * b, P) == (e, b), (str(P), e)
                power = power * P

    def test_split_off_valuation_zero_is_one_divmod(self, F9, monkeypatch):
        calls = []
        real = Poly.__divmod__
        monkeypatch.setattr(Poly, "__divmod__", lambda a, b: calls.append(b) or real(a, b))
        t = Poly.variable(F9)
        a = t ** 5 + t + 1
        assert _split_off(a, t) == (0, a)
        assert len(calls) == 1

    def test_place_requires_irreducible(self, F9):
        t = Poly.variable(F9)
        with pytest.raises(NotIrreducible):
            Place(t * (t + 1))


# === partial fractions =====================================================

class TestPartialFractions:
    def test_two_simple_poles(self, F2):
        t = Poly.variable(F2)
        u = RatFunc(Poly.const(F2, 1), t * t + t)
        pf = partial_fractions(u)
        assert pf.poly_part.is_zero()
        assert [(str(P), j, str(C)) for P, e, Q in pf.blocks
                for j, C in place_digits(P, e, Q)] == [
            ("T", 1, "1"),
            ("T+1", 1, "1"),
        ]
        assert pf_string(u) == "1/T + 1/(T+1)"

    def test_worked_example_shape(self, F27):
        w = F27.gen()
        t = Poly.variable(F27)
        poly_part = t ** 9 + t ** 3 + t + Poly.const(F27, w + 1)
        u = (
            RatFunc(Poly.const(F27, 1), (t + 1) ** 54)
            + RatFunc(Poly.const(F27, 1), t + 1)
            + RatFunc(poly_part)
        )
        pf = partial_fractions(u)
        assert pf.poly_part == poly_part
        assert len(pf.blocks) == 1
        P, e, Q = pf.blocks[0]
        assert (P, e) == (t + 1, 54)
        assert [(j, str(c)) for j, c in place_digits(P, e, Q)] == [(54, "1"), (1, "1")]
        assert pf_string(u) == "1/(T+1)^54 + 1/(T+1) + T^9+T^3+T+w+1"

    def test_polynomial_input_has_no_terms(self, F9):
        rng = random.Random(73)
        f = rand_poly(rng, F9, 7)
        pf = partial_fractions(RatFunc(f))
        assert pf.blocks == ()
        assert pf.poly_part == f

    def test_random_roundtrip(self, F4, F9, F27):
        # recombination is the identity; block numerators are prime to P
        for ctx, seed in ((F4, 79), (F9, 83), (F27, 89)):
            rng = random.Random(seed)
            for _ in range(70):
                u = rand_ratfunc(rng, ctx, 12)
                pf = partial_fractions(u)
                assert pf.recombine() == u
                for P, e, Q in pf.blocks:
                    assert e >= 1
                    assert Q.degree() < (P ** e).degree()
                    assert poly_gcd(Q, P).degree() == 0

    def test_digit_degrees_bounded_by_place(self, F9):
        t = Poly.variable(F9)
        P = t ** 2 + 1
        w = F9.gen()
        u = RatFunc(t ** 3 + Poly.const(F9, w), P ** 3)
        pf = partial_fractions(u)
        for PP, e, Q in pf.blocks:
            for _, C in place_digits(PP, e, Q):
                assert C.degree() < PP.degree()
        assert pf.recombine() == u

    def test_decomposition_is_kept_on_the_rational_function(self, F9, monkeypatch):
        rng = random.Random(91)
        calls = []
        real_factor = upoly.factor
        monkeypatch.setattr(upoly, "factor", lambda f: calls.append(f) or real_factor(f))
        u = rand_ratfunc(rng, F9, 6)
        pf = partial_fractions(u)
        pf_string(u)  # the display reads the kept decomposition
        assert partial_fractions(u) is pf and len(calls) == 1
        # an equal but distinct object decomposes on its own
        v = RatFunc(u.num, u.den)
        assert partial_fractions(v) is not pf and len(calls) == 2

    def test_failed_check_keeps_nothing(self, F3, monkeypatch):
        t = Poly.variable(F3)
        u = RatFunc(t + 2, t ** 2 + 1)
        calls = []
        real_factor, real_recombine = upoly.factor, PartialFractions.recombine
        monkeypatch.setattr(upoly, "factor", lambda f: calls.append(f) or real_factor(f))
        monkeypatch.setattr(PartialFractions, "recombine", lambda self: RatFunc(t))
        for n in (1, 2):
            with pytest.raises(InternalCheckError, match="recombination mismatch"):
                partial_fractions(u)
            assert len(calls) == n  # the second call decomposed again
        monkeypatch.setattr(PartialFractions, "recombine", real_recombine)
        pf = partial_fractions(u)
        assert partial_fractions(u) is pf and len(calls) == 3

    @pytest.mark.parametrize("command", [["reduce"], ["ramify"], ["subext"],
                                         ["split", "--place", "T+w"]], ids=lambda c: c[0])
    def test_each_command_factors_only_the_parsed_u(self, command, monkeypatch):
        # a command decomposes u, its reduced form, the shifts and the 13
        # scaled subextension right sides; all but u are built from a known
        # decomposition and keep it.  u keeps the one it was parsed as when it
        # is a sum of c/(T+a)^k terms and a polynomial, so nothing is factored;
        # a place of degree 2 makes the parser sum values, and factor runs
        # once, on u.den
        from aspw import cli
        factored = []
        real_factor = upoly.factor
        monkeypatch.setattr(upoly, "factor", lambda f: factored.append(f) or real_factor(f))
        T = Poly.variable(make_field(3, 3))
        for u, want in [("1/(T+1)^54 + 1/(T+1) + w/T^2 + T^9+T^3+T+w+1", []),
                        ("1/(T+1)^54 + 1/(T^2+1) + w/T^2 + T^9+T^3+T+w+1",
                         [(T + 1) ** 54 * (T ** 2 + 1) * T ** 2])]:
            factored.clear()
            argv = command + ["--field", "p=3,s=3", "--f", "X^27-X", "--u", u, "--json"]
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert cli.main(argv) == 0
            if command == ["subext"]:
                assert len(json.loads(out.getvalue())["subextensions"]) == 13
            assert [f.to_str() for f in factored] == [f.to_str() for f in want]

    def test_recombination_mismatch_names_u(self, F3, monkeypatch):
        # recombine takes no gcd; the check against u stays exact
        t = Poly.variable(F3)
        u = RatFunc(t + 2, t ** 2 + 1)
        monkeypatch.setattr(PartialFractions, "recombine", lambda self: RatFunc(t))
        with pytest.raises(InternalCheckError, match="recombination mismatch") as err:
            partial_fractions(u)
        assert repr(u) in str(err.value)

    def test_carried_decomposition_is_read_after_one_shape_check(self, F9, monkeypatch):
        rng = random.Random(92)
        u = rand_ratfunc(rng, F9, 6)
        c = F9.gen()
        pf = partial_fractions(u).scale_const(c)
        factored, divided = [], []
        real_factor, real_divmod = upoly.factor, Poly.__divmod__
        monkeypatch.setattr(upoly, "factor", lambda f: factored.append(f) or real_factor(f))
        monkeypatch.setattr(Poly, "__divmod__", lambda a, b: divided.append(b) or real_divmod(a, b))
        for v in (pf.recombine(), u.scale_const(c)):
            divided.clear()
            got = partial_fractions(v)
            assert got.poly_part == pf.poly_part and got.blocks == pf.blocks
            # one divmod by each block's place, then none on a second read
            assert divided == [P for P, _, _ in pf.blocks] and len(divided) >= 2
            assert partial_fractions(v) is got and len(divided) == len(pf.blocks)
        assert factored == []

    @pytest.mark.parametrize("what", ["P divides Q", "deg Q >= e deg P", "places out of order"])
    def test_non_canonical_carried_decomposition_names_u(self, F9, what):
        # a mutated decomposition recombines to some u; reading it back from
        # u must fail the shape check, not serve a wrong decomposition
        t, one = Poly.variable(F9), Poly.const(F9, 1)
        P, R = t + 1, t + 2
        blocks = {"P divides Q": [(P, 2, P * F9.gen())],
                  "deg Q >= e deg P": [(P, 1, t + 2)],
                  "places out of order": [(R, 1, one), (P, 1, one)]}[what]
        u = PartialFractions(t, blocks).recombine()
        for _ in range(2):  # a failed check keeps the decomposition unchecked
            with pytest.raises(InternalCheckError, match="non-canonical block") as err:
                partial_fractions(u)
            assert repr(u) in str(err.value)


# === residues ==============================================================

def trace_at(u, place):
    """The trace to k0 of u at a finite place, through residue_trace."""
    return u.ctx.from_int(residue_trace(u.num, u.den, place.poly))


class TestResidueEval:
    """Values at places, read through their trace to k0 (residue_trace)."""

    def test_linear_place_substitution(self, F9):
        t = Poly.variable(F9)
        w = F9.gen()
        u = RatFunc.variable(F9)
        assert trace_at(u, Place(t - Poly.const(F9, w))) == w

    def test_pole_shifted_example(self, F3):
        t = Poly.variable(F3)
        u = RatFunc(Poly.const(F3, 1), t + 1)
        assert trace_at(u, Place(t)) == F3.one()

    def test_quadratic_place_matches_quotient_ring(self, F3):
        # T^2 + 1 over F_3: T has the conjugate roots +-i, so Tr(T) = 0 and
        # Tr(1) = 2; the value of (T^2 + T + 1)/(T + 1) is T/(T + 1) = -(T + 1)
        t = Poly.variable(F3)
        place = Place(t * t + 1)
        assert trace_at(RatFunc(t), place) == F3.zero()
        assert trace_at(RatFunc.const(F3, 1), place) == F3.from_int(2)
        u = RatFunc(t * t + t + 1, t + 1)
        assert trace_at(u, place) == F3.one()

    def test_pole_raises(self, F9):
        t = Poly.variable(F9)
        u = RatFunc(Poly.const(F9, 1), t)
        with pytest.raises(PoleAtPlace):
            trace_at(u, Place(t))
        P = next(monic_irreducibles(F9, 2))
        with pytest.raises(PoleAtPlace):
            trace_at(RatFunc(t, P ** 2), Place(P))

    def test_trace_is_additive(self, F9):
        rng = random.Random(97)
        P = next(monic_irreducibles(F9, 2))
        place = Place(P)
        picked = 0
        while picked < 10:
            a = rand_ratfunc(rng, F9, 4)
            b = rand_ratfunc(rng, F9, 4)
            if place_valuation(a, place) < 0 or place_valuation(b, place) < 0:
                continue
            picked += 1
            c = rand_elem(rng, F9)
            assert trace_at(a + b.scale_const(c), place) == (
                trace_at(a, place) + c * trace_at(b, place))

    @pytest.mark.parametrize("p, s", [(3, 1), (2, 2), (3, 2)])
    def test_matches_trace_of_value_at_every_root(self, p, s):
        # reference: build F_{q^d}, evaluate at each root of P through the
        # embedding of k0 and take the trace onto k0 there
        k0 = make_field(p, s)
        rng = random.Random(100 + p * s)
        t = Poly.variable(k0)
        for d in (1, 2, 3):
            big = make_field(p, s * d)
            emb = embed_field(k0, big)
            def lift(g):
                return Poly(big, [emb(k0.from_int(c)) for c in g.coeffs])

            for _, P in zip(range(3), monic_irreducibles(k0, d)):
                place = Place(P)
                P_big = lift(P)
                roots = [x for x in big.elements() if P_big(x).is_zero()]
                assert len(roots) == d
                for u in [RatFunc(t ** d), RatFunc.const(k0, 1)] + [
                        rand_ratfunc(rng, k0, 4) for _ in range(4)]:
                    if place_valuation(u, place) < 0:
                        continue
                    got = emb(trace_at(u, place))
                    num, den = lift(u.num), lift(u.den)
                    for nu in roots:
                        assert trace_map(num(nu) / den(nu), s) == got

    def test_shared_denominator_gives_each_trace(self, F9):
        # each numerator over one denominator as given, unreduced: the same
        # trace as the fraction on its own in lowest terms
        rng = random.Random(103)
        t = Poly.variable(F9)
        for P in (t + 1, next(monic_irreducibles(F9, 2)), next(monic_irreducibles(F9, 3))):
            for _ in range(5):
                den = rand_poly(rng, F9, 4, monic=True) * (t + 2) ** 2
                if (den % P).is_zero():
                    continue
                nums = [rand_poly(rng, F9, 6) for _ in range(3)]
                assert [residue_trace(num, den, P) for num in nums] == [
                    trace_at(RatFunc(num, den), Place(P)).code for num in nums]


    @pytest.mark.parametrize("p, s", [(2, 2), (2, 3), (3, 2), (3, 1), (5, 1)])
    def test_prime_traces_match_the_residue_field_oracle(self, p, s):
        # both paths, Horner's rule at T - a and the inverse mod P above
        # degree 1, taken down to F_p by k0's linear trace form, against the
        # trace down to F_p of the value at a root in the oracle's residue
        # field
        k0 = make_field(p, s)
        rng = random.Random(300 + 10 * p + s)
        for d in (1, 2, 3):
            if k0.order() ** d > 729:
                continue
            field = oracle.residue_field(k0, d)
            for place in field.places()[:4]:
                P = place.poly
                den = rand_poly(rng, k0, 3, monic=True)
                if (den % P).is_zero():
                    den = den + 1
                nums = [rand_poly(rng, k0, 5) for _ in range(3)]
                want = [absolute_trace_value(field.value(RatFunc(num, den), place))
                        for num in nums]
                got = [residue_trace(num, den, P) for num in nums]
                assert [k0.trace_code(c) for c in got] == want
                assert [absolute_trace_value(k0.from_int(c)) for c in got] == want
                for num in nums:
                    with pytest.raises(PoleAtPlace):
                        residue_trace(num, den * P, P)


# === reduction helpers =====================================================

class TestPoleDigit:
    def test_inv_frobenius_mod(self, F27):
        rng = random.Random(101)
        t = Poly.variable(F27)
        P = t + 1
        for n in (1, 2, 3):
            for _ in range(10):
                a = rand_poly(rng, F27, 0)
                c = inv_frobenius_mod(a, P, n)
                assert poly_powmod(c, 3 ** n, P) == a % P

    def test_inv_frobenius_mod_quadratic_place(self, F9):
        rng = random.Random(103)
        t = Poly.variable(F9)
        P = t ** 2 + 1
        for n in (1, 2):
            for _ in range(10):
                a = rand_poly(rng, F9, 1)
                c = inv_frobenius_mod(a, P, n)
                assert poly_powmod(c, 3 ** n, P) == a % P
