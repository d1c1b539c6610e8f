"""Witt vectors: universal tables, ring structure, reduction, subextensions."""

from __future__ import annotations

import itertools
import random

import pytest

from aspw import addpoly, asext, upoly, witt
from aspw.addpoly import (
    AdditivePoly,
    additive_eval,
    constant_preimage,
    root_group,
    span_basis,
    subspace_poly,
)
from aspw.errors import (
    IdentityFailure,
    InternalCheckError,
    LengthCapExceeded,
    LengthMismatch,
    NotPrime,
    NotReduced,
    RingMismatch,
    SingularWittSystem,
)
from aspw.gf import is_prime, make_field
from aspw.parsing import parse_witt
from aspw.upoly import Poly, RatFunc
from aspw.witt import (
    WittExtensionSpec,
    WittUniversalTables,
    WittVector,
    asw_operator,
    build_tables,
    cyclic_subextension,
    default_galois_basis,
    _integer_tables,
    ghost_components,
    teichmuller,
    witt_generator_relation,
    witt_infinity_full_split,
    witt_infinity_splitting,
    witt_is_reduced,
    witt_reduce,
    witt_arith,
    witt_unit_inverse,
)

from conftest import rand_poly
from witt_reference import eval_int_poly, witt_lift


def rand_rf(rng, ctx) -> RatFunc:
    num = rand_poly(rng, ctx, 2)
    den = rand_poly(rng, ctx, 1, monic=True)
    return RatFunc(num, den)


def const_vec(tables, ctx, ints) -> WittVector:
    return WittVector(tables, [ctx.from_int(i) for i in ints])


# === universal tables =====================================================

class TestTables:
    def test_frozen_w2f2_sum(self):
        # frozen: solved by hand from the ghost recursion; variables are
        # x1 x2 y1 y2 and the carry term is x1*y1
        t = build_tables(2, 2)
        assert t.polys["add"][0] == {(1, 0, 0, 0): 1, (0, 0, 1, 0): 1}
        assert t.polys["add"][1] == {(0, 1, 0, 0): 1, (0, 0, 0, 1): 1,
                                     (1, 0, 1, 0): 1}

    def test_frozen_length_one(self):
        t = build_tables(2, 1)
        assert t.polys["add"][0] == {(1, 0): 1, (0, 1): 1}
        assert t.polys["mul"][0] == {(1, 1): 1}

    def test_ghost_identities_over_z(self):
        # independent route: the integer polynomials must reproduce
        # componentwise ghost arithmetic before any mod-p reduction
        rng = random.Random(7)
        for p, m in [(2, 2), (3, 2), (3, 3), (2, 4)]:
            tables = _integer_tables(p, m)
            for _ in range(4):
                xs = [rng.randrange(-9, 10) for _ in range(m)]
                ys = [rng.randrange(-9, 10) for _ in range(m)]
                args = xs + ys
                gx, gy = ghost_components(p, xs), ghost_components(p, ys)
                s = [eval_int_poly(w, args) for w in tables["add"]]
                d = [eval_int_poly(w, args) for w in tables["sub"]]
                pr = [eval_int_poly(w, args) for w in tables["mul"]]
                assert ghost_components(p, s) == tuple(a + b for a, b in zip(gx, gy))
                assert ghost_components(p, d) == tuple(a - b for a, b in zip(gx, gy))
                assert ghost_components(p, pr) == tuple(a * b for a, b in zip(gx, gy))

    def test_tables_memoized(self):
        assert build_tables(3, 2) is build_tables(3, 2)

    def test_length_cap(self):
        with pytest.raises(LengthCapExceeded):
            build_tables(2, 5)

    def test_p_must_be_prime(self):
        with pytest.raises(NotPrime):
            build_tables(4, 2)

    def test_non_isobaric_table_rejected(self):
        # x_1 alone in the second product coordinate has x-weight 1, not p,
        # and y-weight 0: evaluation over one denominator would be wrong
        tables = _integer_tables(2, 2)
        broken = [dict(w) for w in tables["mul"]]
        broken[1][(1, 0, 0, 0)] = 1
        with pytest.raises(InternalCheckError,
                           match=r"p=2, m=2, op=mul, i=1, monomial \(1, 0, 0, 0\)"):
            WittUniversalTables(2, 2, {**tables, "mul": broken})


# === rational arithmetic ====================================================

class TestRationalArithmetic:
    def test_one_normalisation_per_component(self, monkeypatch, F3):
        # (2m - 1) gcds for the lcm of the denominators and one per output
        # component: per-monomial renormalisation would make hundreds
        t = build_tables(3, 3)
        T = Poly.variable(F3)
        dens = [T, T + 1, T + 2, T * T + 1, (T + 1) ** 2, T * T + T + 2]
        nums = [T + 1, T * T + 2, Poly.const(F3, 2), T, T + 2, T * T]
        comps = [RatFunc(n, d) for n, d in zip(nums, dens)]
        a, b = WittVector(t, comps[:3]), WittVector(t, comps[3:])
        calls = []
        real = upoly.poly_gcd

        def counting(x, y):
            calls.append(1)
            return real(x, y)

        monkeypatch.setattr(upoly, "poly_gcd", counting)
        monkeypatch.setattr(witt, "poly_gcd", counting)
        for op in ("add", "sub", "mul"):
            calls.clear()
            witt_arith(op, a, b)
            assert 0 < len(calls) <= (2 * 3 - 1) + 3, op

    def test_check_names_its_input(self, monkeypatch, F9):
        t = build_tables(3, 2)
        x = const_vec(t, F9, [3, 1])
        monkeypatch.setattr(witt, "power", lambda x, e, mul, one: one)
        with pytest.raises(InternalCheckError,
                           match=r"unit inversion failed for x=\[w; 1\], q=9"):
            witt_unit_inverse(x, 9)


# === ring structure =======================================================

class TestRingStructure:
    def test_lift_is_ring_iso_to_z_mod(self):
        # exhaustive for p, m <= 3: W_m(F_p) with +,*,- is Z/p^m
        for p, m in [(2, 2), (2, 3), (3, 2), (3, 3)]:
            t = build_tables(p, m)
            Fp = make_field(p, 1)
            lifts = [witt_lift(t, v, Fp) for v in range(p ** m)]
            assert len(set(lifts)) == p ** m
            for a in range(p ** m):
                for b in range(p ** m):
                    assert lifts[a] + lifts[b] == lifts[(a + b) % p ** m]
                    assert lifts[a] * lifts[b] == lifts[(a * b) % p ** m]
                    assert lifts[a] - lifts[b] == lifts[(a - b) % p ** m]

    def test_one_plus_one_carries(self, F2):
        t = build_tables(2, 2)
        one = witt_lift(t, 1, F2)
        assert [c.to_int() for c in (one + one).comps] == [0, 1]
        assert [c.to_int() for c in witt_lift(t, 3, F2).comps] == [1, 1]
        assert witt_lift(t, 4, F2).is_zero()

    def test_teichmuller_is_multiplicative(self, F9):
        t = build_tables(3, 2)
        for a in F9.elements():
            for b in F9.elements():
                assert teichmuller(t, a) * teichmuller(t, b) == teichmuller(t, a * b)

    def test_slot_shift_by_p(self, F3):
        # multiplying by p . 1 moves support one slot up
        t = build_tables(3, 3)
        pvec = witt_lift(t, 3, F3)
        slot = witt_lift(t, 1, F3)
        for j in range(3):
            expect = [0] * 3
            expect[j] = 1
            assert [c.to_int() for c in slot.comps] == expect
            slot = pvec * slot
        assert slot.is_zero()

    def test_exhaustive_axioms_w2f2(self, F2):
        t = build_tables(2, 2)
        vecs = [WittVector(t, list(c))
                for c in itertools.product(list(F2.elements()), repeat=2)]
        for a, b, c in itertools.product(vecs, repeat=3):
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert (a - b) + b == a

    def test_random_axioms_larger_fields(self, F4, F9):
        rng = random.Random(13)
        for ctx, m in [(F4, 2), (F4, 3), (F9, 2)]:
            t = build_tables(ctx.p, m)
            els = list(ctx.elements())
            for _ in range(15):
                a, b, c = (WittVector(t, [rng.choice(els) for _ in range(m)])
                           for _ in range(3))
                assert a + b == b + a
                assert a * b == b * a
                assert (a + b) + c == a + (b + c)
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c
                assert (a - b) + b == a

    def test_frobenius_distributes_over_rational_components(self, F9):
        rng = random.Random(14)
        t = build_tables(3, 2)
        for _ in range(10):
            a = WittVector(t, [rand_rf(rng, F9), rand_rf(rng, F9)])
            b = WittVector(t, [rand_rf(rng, F9), rand_rf(rng, F9)])
            assert (a + b).frob(1) == a.frob(1) + b.frob(1)
            assert (a * b).frob(1) == a.frob(1) * b.frob(1)
            assert asw_operator(a + b, 9) == asw_operator(a, 9) + asw_operator(b, 9)

    def test_asw_kernel_counts(self, F4):
        # kernel of x -> x^q - x on W_2(F_4) is the full Galois ring;
        # kernel of the p-power operator is the length-2 prime subring
        t = build_tables(2, 2)
        vecs = [WittVector(t, list(c))
                for c in itertools.product(list(F4.elements()), repeat=2)]
        assert sum(1 for v in vecs if asw_operator(v, 4).is_zero()) == 16
        assert sum(1 for v in vecs if asw_operator(v, 2).is_zero()) == 4

    def test_length_mismatch(self, F2):
        a = witt_lift(build_tables(2, 2), 1, F2)
        b = witt_lift(build_tables(2, 3), 1, F2)
        with pytest.raises(LengthMismatch):
            a + b

    def test_ring_mismatch(self, F2, F4):
        t = build_tables(2, 2)
        a = witt_lift(t, 1, F2)
        b = witt_lift(t, 1, F4)
        with pytest.raises(RingMismatch):
            a + b


# === Galois ring structure ================================================

class TestGaloisRing:
    def test_default_basis_first_coordinates(self, F4):
        t = build_tables(2, 2)
        gb = default_galois_basis(t, F4, 4)
        assert [v.comps[0].to_int() for v in gb] == [1, 2]

    def test_subfield_without_scan_matches_the_scan(self):
        # every field of at most 729 elements: the echelon kernel gives the
        # scanned subfield F_q in code order and the greedy basis of that
        # scan, and for seeded subspace polynomials it gives the scanned
        # root group, and the affine solve the first scanned preimage of a
        # constant (every constant up to 81 elements, a sample above)
        rng = random.Random(9)
        fields = [make_field(p, s) for p in range(2, 730) if is_prime(p)
                  for s in range(1, 10) if p ** s <= 729]
        for k0 in fields:
            p = k0.p
            t1 = build_tables(p, 1)
            els = list(k0.elements())
            for n in range(1, k0.s + 1):
                if k0.s % n:
                    continue
                q = p ** n
                scanned = [c for c in els if c ** q == c]
                fq = AdditivePoly.frobenius_minus_id(k0, n)
                assert list(root_group(fq).elements) == scanned, (k0, q)
                greedy = span_basis(k0, scanned)[0]
                basis = default_galois_basis(t1, k0, q)
                assert [v.comps[0] for v in basis] == greedy, (k0, q)
            for _ in range(3):
                gens = rng.sample(els[1:], rng.randrange(1, k0.s + 1))
                f = subspace_poly(k0, span_basis(k0, gens)[0])
                images = [additive_eval(f, x) for x in els]
                roots = [x for x, y in zip(els, images) if y.is_zero()]
                group = root_group(f)
                assert list(group.elements) == roots, (k0, f)
                assert list(group.basis) == span_basis(k0, roots)[0], (k0, f)
                first = {}
                for x, y in zip(els, images):
                    first.setdefault(y, x)
                cs = els if len(els) <= 81 else rng.sample(els, 40)
                for c in cs:
                    assert constant_preimage(f, c) == first.get(c), (k0, f, c)

    def test_unit_inverses_exhaustive(self, F3, F4, F9):
        for q, ctx in [(4, F4), (9, F9), (3, F3)]:
            t = build_tables(ctx.p, 2)
            one = teichmuller(t, ctx.one())
            for comps in itertools.product(list(ctx.elements()), repeat=2):
                if comps[0].is_zero():
                    continue
                if not all(c ** q == c for c in comps):
                    continue
                v = WittVector(t, comps)
                assert v * witt_unit_inverse(v, q) == one


# === reduction ============================================================

class TestWittReduce:
    def test_image_reduces_to_zero(self, F9):
        rng = random.Random(19)
        t = build_tables(3, 2)
        for _ in range(5):
            theta = WittVector(t, [rand_rf(rng, F9), rand_rf(rng, F9)])
            spec = WittExtensionSpec(t, 9, asw_operator(theta, 9))
            log, red = witt_reduce(spec)
            assert red.alpha.is_zero()
            assert log.replay()

    def test_length_one_collapses_to_scalar_reduction(self, F9):
        # the m = 1 engine must agree with the one-variable reducer exactly
        x = RatFunc.variable(F9)
        u = 1 / (x ** 2 - 1) + x ** 9
        f = AdditivePoly.frobenius_minus_id(F9, 2)
        _, ared = asext.reduce_global(asext.ExtensionSpec(f, u, F9))
        t = build_tables(3, 1)
        _, wred = witt_reduce(WittExtensionSpec(t, 9, WittVector(t, [u])))
        assert wred.alpha.comps[0] == ared.u
        assert witt_is_reduced(wred)

    def test_descent_is_opt_in(self, F9):
        # [T^6; 0] is already in componentwise reduced shape; only the
        # descent flag lowers it to [T^2; 0]
        x = RatFunc.variable(F9)
        t = build_tables(3, 2)
        alpha = WittVector(t, [x ** 6, RatFunc.const(F9, 0)])
        spec = WittExtensionSpec(t, 9, alpha)
        _, plain = witt_reduce(spec)
        assert plain.alpha == alpha
        log, lowered = witt_reduce(spec, descend=True)
        assert lowered.alpha.comps[0] == x ** 2
        assert log.descents()
        assert log.replay()

    def test_mixed_vector_reduction(self, F9):
        x = RatFunc.variable(F9)
        t = build_tables(3, 2)
        alpha = WittVector(t, [1 / (x ** 9 - x) + x ** 18, x ** 9])
        log, red = witt_reduce(WittExtensionSpec(t, 9, alpha))
        assert witt_is_reduced(red)
        assert log.replay()

    def test_output_keeps_each_slots_decomposition(self, F9, monkeypatch):
        # the output components are the slots' reduced values, which carry
        # their decompositions, so the final shape test factors nothing
        x = RatFunc.variable(F9)
        t = build_tables(3, 2)
        spec = WittExtensionSpec(t, 9, WittVector(t, [1 / (x ** 9 - x) + x ** 18, x ** 9]))
        calls = []
        real_factor, real_check = upoly.factor, witt.witt_is_reduced
        monkeypatch.setattr(upoly, "factor", lambda g: calls.append("factor") or real_factor(g))
        monkeypatch.setattr(witt, "witt_is_reduced", lambda s: calls.append("check") or real_check(s))
        witt_reduce(spec)
        assert "factor" in calls  # the slots' inputs
        assert calls.index("check") == len(calls) - 1

    def test_slot_check_names_the_slot(self, F9, monkeypatch):
        # mutation: slot 1's reduced value is off by 1, so the vector that
        # the shifts reached disagrees with it there
        real = witt._reduce_rhs

        def off_by_one(f, pf):
            u_red, steps = real(f, pf)
            return (u_red + F9.one() if steps else u_red), steps

        monkeypatch.setattr(witt, "_reduce_rhs", off_by_one)
        x = RatFunc.variable(F9)
        t = build_tables(3, 2)
        spec = WittExtensionSpec(t, 9, WittVector(t, [1 / (x ** 9 - x) + x ** 18, x ** 9]))
        with pytest.raises(InternalCheckError, match="wrong residue in slot 1 "):
            witt_reduce(spec)


# === cyclic subextensions =================================================

class TestCyclicSubextensions:
    def test_unit_multiplier_keeps_degree(self, F9):
        t = build_tables(3, 2)
        x = RatFunc.variable(F9)
        alpha = WittVector(t, [x, RatFunc.const(F9, 0)])
        sub = cyclic_subextension(teichmuller(t, F9.one()), alpha, 9)
        assert sub.rhs == alpha
        assert sub.full_degree
        assert sub.formula() == "([1; 0]).y + ([1; 0]).y^3"

    def test_nonunit_multiplier_drops_degree(self, F9):
        t = build_tables(3, 2)
        x = RatFunc.variable(F9)
        alpha = WittVector(t, [x, RatFunc.const(F9, 0)])
        sub = cyclic_subextension(const_vec(t, F9, [0, 1]), alpha, 9)
        assert not sub.full_degree
        # support moved one slot up: first rhs component vanishes
        assert sub.rhs.comps[0].is_zero()


# === splitting at infinity ================================================

class TestInfinitySplitting:
    def test_prime_length_three_grid(self, F3):
        t = build_tables(3, 3)
        x = RatFunc.variable(F3)
        z = RatFunc.const(F3, 0)
        c = RatFunc.const(F3, 1)  # 1 is outside the p-power image on F_3
        assert witt_infinity_splitting(WittVector(t, [z, z, z])) == (1, 1, 27)
        assert witt_infinity_splitting(WittVector(t, [c, z, z])) == (1, 27, 1)
        assert witt_infinity_splitting(WittVector(t, [x, z, z])) == (27, 1, 1)
        assert witt_infinity_splitting(WittVector(t, [z, c, x])) == (3, 3, 3)
        assert witt_infinity_splitting(WittVector(t, [z, z, c])) == (1, 3, 9)

    def test_efg_product_is_degree(self, F2):
        t = build_tables(2, 3)
        x = RatFunc.variable(F2)
        z = RatFunc.const(F2, 0)
        for comps in ([x, z, z], [z, x, z], [x ** 3 + x, x, z]):
            e, f, g = witt_infinity_splitting(WittVector(t, comps))
            assert e * f * g == 8

    def test_leading_constant_rejected_exactly_on_images(self, F9):
        # reference: scan F_9 for a preimage of c under x^3 - x
        t = build_tables(3, 2)
        x = RatFunc.variable(F9)
        # c = 0 is a leading zero component, not a leading constant
        assert witt_infinity_splitting(WittVector(t, [RatFunc.const(F9, 0), x])) == (3, 1, 3)
        for c in list(F9.elements())[1:]:
            gamma = WittVector(t, [RatFunc.const(F9, c), x])
            if any(z ** 3 - z == c for z in F9.elements()):
                with pytest.raises(NotReduced):
                    witt_infinity_splitting(gamma)
            else:
                assert witt_infinity_splitting(gamma) == (3, 3, 1)

    def test_unreduced_rejected(self, F3):
        t = build_tables(3, 3)
        x = RatFunc.variable(F3)
        z = RatFunc.const(F3, 0)
        with pytest.raises(NotReduced):
            witt_infinity_splitting(WittVector(t, [x ** 3, z, z]))

    def test_full_split_detects_images(self, F9):
        t = build_tables(3, 2)
        x = RatFunc.variable(F9)
        theta = WittVector(t, [x ** 2 + 1, x])
        gamma = asw_operator(theta, 9)
        assert witt_infinity_full_split(gamma, 9)
        assert not witt_infinity_full_split(
            WittVector(t, [x, RatFunc.const(F9, 0)]), 9)


# === generator relations ==================================================

class TestWittGeneratorRelation:
    def test_identity_relation(self, F9):
        t = build_tables(3, 2)
        x = RatFunc.variable(F9)
        alpha = WittVector(t, [x, x ** 2])
        mus = default_galois_basis(t, F9, 9)
        spec = WittExtensionSpec(t, 9, alpha)
        rel = witt_generator_relation(spec, spec, mus)
        assert rel.A[0] == teichmuller(t, F9.one())
        assert rel.A[1].is_zero()
        assert asw_operator(rel.D, 9).is_zero()

    def test_random_roundtrip(self, F9):
        rng = random.Random(37)
        t = build_tables(3, 2)
        els = list(F9.elements())
        mus = default_galois_basis(t, F9, 9)
        zero = RatFunc(Poly(F9))
        done = 0
        while done < 5:
            A = [WittVector(t, [rng.choice(els), rng.choice(els)])
                 for _ in range(2)]
            xi_targets = []
            for mu in mus:
                acc = mu.zero_like()
                for j, a in enumerate(A):
                    acc = acc + a * mu.frob(j)
                xi_targets.append(acc)
            # a basis exactly when the first coordinates are F_p-independent
            firsts = [v.comps[0] for v in xi_targets]
            if len(span_basis(F9, firsts)[0]) != len(firsts):
                continue
            D = WittVector(t, [rand_rf(rng, F9), rand_rf(rng, F9)])
            alpha = WittVector(t, [rand_rf(rng, F9), rand_rf(rng, F9)])
            beta = WittVector(t, [zero, zero])
            for j, a in enumerate(A):
                lifted = WittVector(t, tuple(RatFunc.const(F9, c) for c in a.comps))
                beta = beta + lifted * alpha.frob(j)
            beta = beta + asw_operator(D, 9)
            rel = witt_generator_relation(
                WittExtensionSpec(t, 9, alpha), WittExtensionSpec(t, 9, beta),
                xi_targets)
            assert rel.A == tuple(A)
            assert asw_operator(rel.D, 9) == asw_operator(D, 9)
            done += 1

    def test_identity_failure_names_the_first_bad_slot(self, F2):
        # slot 1 peels with theta = [T; 0; 0]; the residue left in slot 2
        # has a pole of odd order 1, so it is no image of x^2 - x
        t = build_tables(2, 3)

        def vec(text):
            return WittVector(t, parse_witt(F2, text))

        with pytest.raises(IdentityFailure,
                           match=r"^slot 2 residue is not a q-power image"):
            witt_generator_relation(
                WittExtensionSpec(t, 2, vec("[T;0;0]")),
                WittExtensionSpec(t, 2, vec("[T^2;T;1/T^2]")),
                [const_vec(t, F2, [1, 0, 0])])

    @pytest.mark.parametrize("texts,col", [("[1;0] [2;0]", 1), ("[0;1] [0;w]", 0)],
                             ids=["dependent", "non-units"])
    def test_column_without_a_unit_is_singular(self, F9, monkeypatch, texts, col):
        # a Galois-ring basis of dependent vectors lets the Moore system
        # reach the shared solver with no unit in one column: [1;0], [2;0]
        # leave 0 below the first pivot, and [0;1], [0;w] are p times units
        t = build_tables(3, 2)
        vecs = [WittVector(t, [c.constant_value() for c in parse_witt(F9, text)])
                for text in texts.split()]
        monkeypatch.setattr(witt, "default_galois_basis", lambda *args: tuple(vecs))
        calls = []

        def spy(*args):
            calls.append(args)
            return addpoly.linear_solve(*args)

        monkeypatch.setattr(witt, "linear_solve", spy)
        spec = WittExtensionSpec(t, 9, WittVector(t, [RatFunc.variable(F9), RatFunc(Poly(F9))]))
        with pytest.raises(SingularWittSystem, match=f"^no unit pivot in column {col}$"):
            witt_generator_relation(spec, spec, vecs)
        assert len(calls) == 1 and calls[0][3] is SingularWittSystem

    def test_unrelated_fields_rejected(self, F9):
        t = build_tables(3, 2)
        x = RatFunc.variable(F9)
        z = RatFunc.const(F9, 0)
        mus = default_galois_basis(t, F9, 9)
        with pytest.raises(IdentityFailure):
            witt_generator_relation(
                WittExtensionSpec(t, 9, WittVector(t, [x, z])),
                WittExtensionSpec(t, 9, WittVector(t, [1 / x, z])),
                mus)
