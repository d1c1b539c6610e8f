"""Field contexts, Frobenius, traces, subfield embeddings."""

from __future__ import annotations

import random

import pytest

from aspw.errors import IncompatibleContexts, NotASubfield, NotPrime, ReducibleModulus
from aspw.gf import (
    absolute_trace_value,
    embed_field,
    frobenius_power,
    is_prime,
    make_field,
    p_adic_split,
    power,
    smallest_root,
    trace_map,
)
from aspw.upoly import Poly, factor

from conftest import rand_elem

# every field of at most 729 elements
SMALL_FIELDS = [(p, s) for p in range(2, 730) if is_prime(p)
                for s in range(1, 10) if p ** s <= 729]


# === construction =========================================================

class TestConstruction:
    def test_default_moduli_are_first_irreducible_in_element_order(self):
        # frozen: found by enumerating monic polynomials in ascending
        # integer coefficient order and taking the first irreducible one
        assert make_field(2, 2).modulus == (1, 1, 1)          # x^2+x+1
        assert make_field(2, 3).modulus == (1, 1, 0, 1)       # x^3+x+1
        assert make_field(2, 4).modulus == (1, 1, 0, 0, 1)    # x^4+x+1
        assert make_field(3, 2).modulus == (1, 0, 1)          # x^2+1
        assert make_field(3, 3).modulus == (1, 2, 0, 1)       # x^3+2x+1
        assert make_field(5, 2).modulus == (2, 0, 1)          # x^2+2

    def test_large_default_moduli(self):
        # frozen from the dense F_p[x] search that preceded upoly's Rabin test
        assert make_field(2, 40).modulus == (1, 0, 0, 1, 1, 1) + (0,) * 34 + (1,)
        assert make_field(2, 64).modulus == (1, 1, 0, 1, 1) + (0,) * 59 + (1,)
        assert make_field(65521, 2).modulus == (17, 0, 1)

    @pytest.mark.parametrize("p, s", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4)])
    def test_explicit_modulus_accepted_exactly_when_irreducible(self, p, s):
        fp = make_field(p, 1)
        for k in range(p ** s):
            mod = [k // p ** i % p for i in range(s)] + [1]
            f = Poly(fp, [fp.from_int(c) for c in mod])
            irreducible = factor(f) == [(f, 1)]
            try:
                accepted = make_field(p, s, modulus=mod).modulus == tuple(mod)
            except ReducibleModulus:
                accepted = False
            assert accepted == irreducible, mod

    def test_f27_generator_relation(self, F27):
        w = F27.gen()
        assert w ** 3 == w + 2

    def test_not_prime_rejected(self):
        with pytest.raises(NotPrime):
            make_field(4, 1)
        with pytest.raises(NotPrime):
            make_field(1, 2)

    def test_reducible_modulus_rejected(self):
        with pytest.raises(ReducibleModulus):
            make_field(2, 2, modulus=(1, 0, 1))  # x^2+1 = (x+1)^2
        with pytest.raises(ReducibleModulus):
            make_field(3, 2, modulus=(0, 1, 1))  # x^2+x = x(x+1)

    def test_wrong_degree_modulus_rejected(self):
        with pytest.raises(ReducibleModulus):
            make_field(3, 2, modulus=(1, 1))

    def test_context_equality_by_structure(self):
        a = make_field(3, 2)
        b = make_field(3, 2, modulus=(1, 0, 1))
        assert a == b and hash(a) == hash(b)
        c = make_field(3, 2, modulus=(2, 1, 1))
        assert a != c

    def test_elements_enumerate_in_integer_order(self, F9):
        elems = list(F9.elements())
        assert len(elems) == 9
        assert [e.to_int() for e in elems] == list(range(9))


class TestIsPrime:
    def test_matches_trial_division_below_10000(self):
        def trial(n):
            return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))

        assert [n for n in range(10000) if is_prime(n)] == [
            n for n in range(10000) if trial(n)]

    @pytest.mark.parametrize("n, expected", [
        (561, False),                    # Carmichael number
        (3215031751, False),             # strong pseudoprime to bases 2, 3, 5, 7
        (2 ** 64 - 59, True),            # largest prime below 2^64
        (2 ** 64 - 59 - 2, False),
        (65521 * 65537, False),
    ])
    def test_pseudoprimes_and_large_primes(self, n, expected):
        assert is_prime(n) is expected


# === arithmetic ===========================================================

class TestArithmetic:
    def test_prime_field_matches_int_arithmetic(self, F3):
        # oracle: plain integers mod p
        for a in range(3):
            for b in range(3):
                ea, eb = F3.from_int(a), F3.from_int(b)
                assert (ea + eb).to_int() == (a + b) % 3
                assert (ea - eb).to_int() == (a - b) % 3
                assert (ea * eb).to_int() == (a * b) % 3

    def test_field_axioms_exhaustive_f9(self, F9):
        elems = list(F9.elements())
        one = F9.one()
        for a in elems:
            assert a + F9.zero() == a
            assert a * one == a
            if not a.is_zero():
                assert a * a.inverse() == one
            for b in elems:
                assert a + b == b + a
                assert a * b == b * a
                for c in elems[:3]:
                    assert (a + b) + c == a + (b + c)
                    assert a * (b + c) == a * b + a * c

    def test_pow_and_order(self, F8):
        for a in F8.elements():
            if a.is_zero():
                continue
            assert a ** 7 == F8.one()
            assert a ** -1 == a.inverse()

    def test_division(self, F27):
        rng = random.Random(7)
        for _ in range(50):
            a, b = rand_elem(rng, F27), rand_elem(rng, F27)
            if b.is_zero():
                continue
            assert (a / b) * b == a

    def test_int_equality_and_hash_agree(self, F9):
        # x == y must imply hash(x) == hash(y), or sets and dicts lose elements
        values = list(F9.elements()) + list(range(-1, 10))
        for x in values:
            for y in values:
                if x == y:
                    assert hash(x) == hash(y), (x, y)
        assert 1 in {F9.one()}
        assert F9.from_int(2) == 2
        assert F9.one() != 4 and F9.one() != -2  # only 0..p-1 name elements

    def test_mixed_context_rejected(self, F4, F9):
        with pytest.raises(IncompatibleContexts):
            F4.one() + F9.one()

    def test_str_forms(self, F27):
        w = F27.gen()
        assert str(2 * w * w + w + 2) == "2w^2+w+2"
        assert str(F27.zero()) == "0"
        assert str(w) == "w"
        assert str(F27.from_int(2)) == "2"


# === p-adic splitting ======================================================

class TestPAdicSplit:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_lambda_times_p_power(self, p):
        for lam in (1, 2, 4, 7, 11, 13):
            if lam % p == 0:
                continue
            for m in range(5):
                assert p_adic_split(lam * p ** m, p) == (lam, m)

    def test_exact_powers_non_powers_and_one(self):
        assert p_adic_split(27, 3) == (1, 3)
        assert p_adic_split(64, 2) == (1, 6)
        assert p_adic_split(6, 3) == (2, 1)
        assert p_adic_split(10, 3) == (10, 0)
        assert p_adic_split(1, 5) == (1, 0)

    @pytest.mark.parametrize("e", [0, -1, -9])
    def test_non_positive_rejected(self, e):
        with pytest.raises(ValueError):
            p_adic_split(e, 3)


class TestPower:
    def test_matches_pow_with_one_never_a_factor(self):
        # values are boxed in lists so that a squaring is mul(x, x) on one
        # object; one takes part in no product, so square and multiply makes
        # e.bit_length() - 1 squarings and popcount(e) - 1 further products
        m = 1009
        one = [1]
        counts = {"squarings": 0, "products": 0}

        def mul(x, y):
            assert x is not one and y is not one
            counts["squarings" if x is y else "products"] += 1
            return [x[0] * y[0] % m]

        for a in (2, 5, 1000):
            for e in range(301):
                counts.update(squarings=0, products=0)
                got = power([a], e, mul, one)
                assert got[0] == pow(a, e, m), (a, e)
                assert counts == {"squarings": max(e.bit_length() - 1, 0),
                                  "products": max(bin(e).count("1") - 1, 0)}, (a, e)
        assert power([a], 0, mul, one) is one


# === frobenius and traces ==================================================

class TestFrobenius:
    def test_frobenius_is_field_automorphism(self, F9):
        for a in F9.elements():
            for b in F9.elements():
                assert frobenius_power(a + b, 1) == frobenius_power(a, 1) + frobenius_power(b, 1)
                assert frobenius_power(a * b, 1) == frobenius_power(a, 1) * frobenius_power(b, 1)

    def test_frobenius_power_matches_repeated_pth_power(self, F27):
        rng = random.Random(11)
        for _ in range(30):
            a = rand_elem(rng, F27)
            assert frobenius_power(a, 1) == a ** 3
            assert frobenius_power(a, 2) == (a ** 3) ** 3
            assert frobenius_power(a, 3) == a
            assert frobenius_power(frobenius_power(a, 2), -2) == a

    @pytest.mark.parametrize("p, s", SMALL_FIELDS, ids=[f"F{p ** s}" for p, s in SMALL_FIELDS])
    def test_absolute_trace_matches_power_sum(self, p, s):
        k0 = make_field(p, s)
        for a in k0.elements():
            direct = sum((a ** p ** i for i in range(1, s)), a)
            assert direct.in_prime_field()
            assert absolute_trace_value(a) == direct.to_int()

    def test_trace_kernel_size(self, F9):
        # trace is onto F_p with fibers of size p^(s-1)
        kernel = [a for a in F9.elements() if absolute_trace_value(a) == 0]
        assert len(kernel) == 3

    def test_trace_frobenius_invariant(self, F27):
        for a in F27.elements():
            assert absolute_trace_value(a) == absolute_trace_value(a ** 3)

    def test_relative_trace_transitivity(self, F16, F4, F2):
        emb = embed_field(F4, F16)
        for a in F16.elements():
            t = trace_map(a, target_degree=2)
            # t lies in the embedded copy of F_4
            assert t == frobenius_power(t, 2)
            total = absolute_trace_value(a)
            pre = None
            for b in F4.elements():
                if emb(b) == t:
                    pre = b
                    break
            assert pre is not None
            assert absolute_trace_value(pre) == total

    def test_trace_to_non_subfield_rejected(self, F27):
        with pytest.raises(NotASubfield):
            trace_map(F27.gen(), target_degree=2)


# === embeddings ===========================================================

class TestEmbeddings:
    def test_embedding_is_homomorphism(self, F4, F16):
        emb = embed_field(F4, F16)
        for a in F4.elements():
            for b in F4.elements():
                assert emb(a + b) == emb(a) + emb(b)
                assert emb(a * b) == emb(a) * emb(b)
        assert emb(F4.one()) == F16.one()

    def test_embedding_injective(self, F9, F81):
        emb = embed_field(F9, F81)
        images = {emb(a).to_int() for a in F9.elements()}
        assert len(images) == 9

    def test_image_is_fixed_by_relative_frobenius(self, F9, F81):
        emb = embed_field(F9, F81)
        for a in F9.elements():
            assert frobenius_power(emb(a), 2) == emb(a)

    def test_identity_embedding(self, F9):
        emb = embed_field(F9, F9)
        for a in F9.elements():
            assert emb(a) == a

    def test_smallest_root_takes_ints_or_elements(self, F16):
        # x^2+x+1 has the roots of order 3 in F_16; the smaller code wins
        roots = [x for x in F16.elements() if x * x + x + 1 == 0]
        assert smallest_root((1, 1, 1), F16) == roots[0]
        assert smallest_root((1, 1, 1), make_field(2, 1)) is None

    def test_non_subfield_rejected(self, F8, F16):
        with pytest.raises(NotASubfield):
            embed_field(F8, F16)

    def test_embedding_commutes_with_frobenius_tower(self, F2, F4, F16):
        lo = embed_field(F2, F4)
        hi = embed_field(F4, F16)
        direct = embed_field(F2, F16)
        for a in F2.elements():
            assert hi(lo(a)) == direct(a)
