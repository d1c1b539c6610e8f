"""Extensions f(y) = u: reduction, algebra, subextensions, splitting."""

from __future__ import annotations

import random
import time

import pytest

from aspw import addpoly, asext, cli, oracle, upoly
from aspw.addpoly import AdditivePoly, additive_eval
from aspw.asext import (
    ExtensionSpec,
    FixedBy,
    GeneratorRelation,
    QAElem,
    Satisfies,
    check_irreducible,
    combine_generators,
    generator_relation,
    is_reduced,
    place_decomposition,
    place_decompositions,
    qa_verify,
    ramification_report,
    reduce_global,
    subextensions,
)
from aspw.errors import (
    AspwError,
    DependentSubextensions,
    InternalCheckError,
    NotAFixedField,
    NotIrreducible,
)
from aspw.gf import SubfieldEmbedding, absolute_trace_value, make_field
from aspw.parsing import parse_additive, parse_ratfunc
from aspw.upoly import Place, Poly, RatFunc, pf_string, place_valuation

from conftest import rand_elem, rand_ratfunc
from place_reference import monic_irreducibles


def frob_spec(ctx, n, u_text) -> ExtensionSpec:
    f = AdditivePoly.frobenius_minus_id(ctx, n)
    return ExtensionSpec(f, parse_ratfunc(ctx, u_text), ctx)


# === reduction ============================================================

class TestReduction:
    def test_worked_example_pole_strip(self, F27):
        # frozen: stripping the exponent-54 pole costs one shift delta
        # with the pole exponent divided by p^n, and the shift re-enters
        # as the visible 1/(T+1)^2 term
        spec = frob_spec(F27, 3, "1/(T+1)^54 + 1/(T+1) + T^9+T^3+T+w+1")
        log, red = reduce_global(spec)
        assert pf_string(red.u) == "1/(T+1)^2 + 1/(T+1) + T^9+T^3+T+w+1"
        assert len(log.steps) == 1
        assert pf_string(log.shifts()[0]) == "1/(T+1)^2"
        assert log.replay()

    def test_reduced_shape_recognized(self, F27):
        bad = frob_spec(F27, 3, "1/(T+1)^54 + 1/(T+1)")
        good = frob_spec(F27, 3, "1/(T+1)^2 + 1/(T+1) + T^9+T^3+T+w+1")
        assert not is_reduced(bad)
        assert is_reduced(good)

    @pytest.mark.parametrize("p,s", [(2, 2), (3, 2), (3, 3)])
    def test_shifts_are_in_lowest_terms(self, p, s):
        # a pole shift c / P^k is built as given, without a gcd: c is a
        # nonzero residue mod the irreducible P and P^k is monic, so it
        # must match the normalising constructor, numerator and denominator
        ctx = make_field(p, s)
        rng = random.Random(100 * p + s)
        places = [*monic_irreducibles(ctx, 1), *list(monic_irreducibles(ctx, 2))[:6]]
        T = RatFunc.variable(ctx)
        shifts = 0
        for i in range(8):
            n = 1 if i % 2 or p ** s > 9 else s
            u = T * RatFunc.const(ctx, ctx.from_int(rng.randrange(1, ctx.order())))
            for P in rng.sample(places, 2):
                Q = Poly(ctx, [rand_elem(rng, ctx) for _ in range(P.degree())])
                if not Q.is_zero():
                    u = u + RatFunc(Q, P ** (p ** n * rng.randrange(1, 3)))
            spec = ExtensionSpec(AdditivePoly.frobenius_minus_id(ctx, n), u, ctx)
            if not check_irreducible(spec):
                continue
            for descend in (False, True):
                for d in reduce_global(spec, descend=descend)[0].shifts():
                    want = RatFunc(d.num, d.den)
                    assert (d.num, d.den) == (want.num, want.den), (p, s, u)
                    shifts += not d.is_polynomial()
        assert shifts >= 8

    def test_reduce_is_idempotent(self, F27):
        spec = frob_spec(F27, 3, "1/(T+1)^54 + 1/(T+1) + T^9+T^3+T+w+1")
        _, red = reduce_global(spec)
        log2, red2 = reduce_global(red)
        assert not log2.steps
        assert red2.u == red.u

    def test_polynomial_part_strip(self, F9):
        # frozen: degree 18 = 2*3^2 has m = n, so the infinity strip with
        # delta = T^2 applies and re-enters as the visible T^2 term
        spec = frob_spec(F9, 2, "T^18+T")
        log, red = reduce_global(spec)
        assert pf_string(red.u) == "T^2+T"
        assert len(log.steps) == 1
        assert log.replay()

    def test_constant_absorbed_only_from_image(self, F9):
        # image of x -> x^3 - x on F_9 is {0, w, 2w}: w vanishes, 1 stays
        w_spec = frob_spec(F9, 1, "1/T + w")
        _, red = reduce_global(w_spec)
        assert pf_string(red.u) == "1/T"
        one_spec = frob_spec(F9, 1, "1/T + 1")
        _, red = reduce_global(one_spec)
        assert pf_string(red.u) == "1/T + 1"

    def test_random_reduction_properties(self, F4, F9):
        rng = random.Random(17)
        for ctx in (F4, F9):
            f = AdditivePoly.frobenius_minus_id(ctx, 2)
            done = 0
            while done < 15:
                u = rand_ratfunc(rng, ctx, 4)
                spec = ExtensionSpec(f, u, ctx)
                if not check_irreducible(spec):
                    continue
                log, red = reduce_global(spec)
                assert log.replay()
                assert is_reduced(red)
                done += 1

    def test_power_descent(self, F9):
        # T^6 is already in reduced shape (6 = 2*3, m = 1 < n), so the
        # plain reduction leaves it; the opt-in power descent takes the
        # cube root
        spec = frob_spec(F9, 2, "T^6")
        _, red_plain = reduce_global(spec)
        assert pf_string(red_plain.u) == "T^6"
        log, red = reduce_global(spec, descend=True)
        assert pf_string(red.u) == "T^2"
        assert len(log.descents()) == 1
        assert log.replay()

    def test_power_descent_needs_frobenius_form(self, F9):
        w = F9.gen()
        f = AdditivePoly(F9, (w, F9.one()))
        spec = ExtensionSpec(f, parse_ratfunc(F9, "T^3"), F9)
        with pytest.raises(AspwError):
            reduce_global(spec, descend=True)

    def test_power_descent_checks_irreducibility(self, F9, monkeypatch):
        # mutation: a p-th root of 0 makes the descent end at u = 0, whose
        # polynomial part has degree -1; the pole orders must not call that
        # irreducible, so the forms do and the self-check fires
        spec = frob_spec(F9, 2, "T^3")
        monkeypatch.setattr(RatFunc, "pth_root", lambda self: RatFunc(Poly(self.ctx)))
        with pytest.raises(InternalCheckError, match="power descent broke irreducibility") as err:
            reduce_global(spec, descend=True)
        assert f"f={spec.f}, u={spec.u!r}: got {RatFunc(Poly(F9))!r}" in str(err.value)

    def test_descend_checks_the_reduced_shape(self, F9, monkeypatch):
        # mutation: shift sweeps that strip nothing leave T^54+T^3 = (T^18+T)^3
        # to descend once to T^18+T, still irreducible but of degree 18,
        # divisible by p; the shape check must fire on the descend path too
        spec = frob_spec(F9, 2, "T^54+T^3")
        monkeypatch.setattr(asext, "_reduce_rhs", lambda f, pf: (pf.recombine(), []))
        with pytest.raises(InternalCheckError,
                           match="reduction did not reach a reduced form") as err:
            reduce_global(spec, descend=True)
        assert f"got {parse_ratfunc(F9, 'T^18+T')!r}" in str(err.value)

    def test_descend_hands_on_the_forms_only_without_a_descent(self, F9):
        # shifts move each layer by p-th-power images, so the forms carry
        # over; a descent changes the rhs itself, so its spec starts afresh
        spec = frob_spec(F9, 2, "T^18+T")
        log, red = reduce_global(spec, descend=True)
        assert not log.descents() and pf_string(red.u) == "T^2+T"
        assert spec._forms is not None and red._forms is spec._forms
        spec = frob_spec(F9, 2, "T^6")
        assert check_irreducible(spec) and spec._forms is not None
        log, red = reduce_global(spec, descend=True)
        assert len(log.descents()) == 1 and pf_string(red.u) == "T^2"
        assert red._forms is not spec._forms and red._irreducible

    def test_reduction_hands_on_the_root_group(self, F9, monkeypatch):
        # f and k0 stay, so the reduced spec takes the input's root group and
        # any hyperplanes it built, with or without a descent
        for text, descend in (("1/T^3 + T^18 + T", False), ("T^6", True)):
            spec = frob_spec(F9, 2, text)
            spec.hyperplanes()
            monkeypatch.setattr(asext, "root_group", lambda *a: pytest.fail("root group rebuilt"))
            log, red = reduce_global(spec, descend=descend)
            monkeypatch.undo()
            assert len(log.descents()) == descend and red.u != spec.u
            assert red.group is spec.group and red._hyperplanes is spec._hyperplanes
        fresh = frob_spec(F9, 2, "1/T^3")
        assert reduce_global(fresh)[1].group is fresh.group and fresh._hyperplanes is None


# === image membership =====================================================

class TestMembership:
    # shift reduction decides membership in the image of f: an image f(delta)
    # reduces to 0, and f of the sum of the shifts gives it back
    @staticmethod
    def _reduce(f, w):
        u, steps = asext._reduce_rhs(f, upoly.partial_fractions(w))
        return u, sum((d for _, d in steps), RatFunc(Poly(f.ctx)))

    def test_wp_membership_roundtrip(self, F9):
        rng = random.Random(5)
        wp = AdditivePoly(F9, (-F9.one(), F9.one()))
        for _ in range(15):
            w = additive_eval(wp, rand_ratfunc(rng, F9, 3))
            u, witness = self._reduce(wp, w)
            assert u.is_zero()
            assert additive_eval(wp, witness) == w

    def test_wp_membership_negative(self, F9):
        wp = AdditivePoly.frobenius_minus_id(F9, 1)
        assert not self._reduce(wp, parse_ratfunc(F9, "1/T"))[0].is_zero()

    def test_asq_membership_roundtrip(self, F9):
        rng = random.Random(6)
        f = AdditivePoly.frobenius_minus_id(F9, 2)
        for _ in range(15):
            delta = rand_ratfunc(rng, F9, 3)
            rhs = delta ** 9 - delta
            u, witness = self._reduce(f, rhs)
            assert u.is_zero()
            assert witness ** 9 - witness == rhs

    def test_asq_membership_negative(self, F9):
        f = AdditivePoly.frobenius_minus_id(F9, 2)
        assert not self._reduce(f, parse_ratfunc(F9, "T"))[0].is_zero()


# === standard forms =======================================================

class TestStandardForm:
    def test_linear_with_images_in_its_kernel(self, F4, F9, F27):
        # SF(w1 + c w2 + delta^p - delta) = SF(w1) + c SF(w2) over F_p,
        # digit by digit; pole places are shared so that digits cancel
        rng = random.Random(43)
        for ctx in (F4, F9, F27, make_field(5, 1)):
            p = ctx.p
            places = [parse_ratfunc(ctx, "T"), parse_ratfunc(ctx, "T+1")]

            def draw():
                w = rand_ratfunc(rng, ctx, 2) + RatFunc.const(ctx, rand_elem(rng, ctx))
                for P in places:
                    w = w + RatFunc.const(ctx, rand_elem(rng, ctx)) / P ** rng.choice([1, 2, p + 1])
                return w

            def coords(w):
                return asext._standard_form(upoly.partial_fractions(w))[1]

            for _ in range(12):
                w1, w2, delta = draw(), draw(), draw()
                c = rng.randrange(1, p)
                want = coords(w1)
                for k, v in coords(w2).items():
                    want[k] = (want.get(k, 0) + c * v) % p
                want = {k: v for k, v in want.items() if v}
                assert coords(w1 + w2 * c + delta ** p - delta) == want, (str(w1), str(w2))
                assert coords(delta ** p - delta) == {}

    def test_form_differs_from_its_input_by_an_image_and_a_constant(self, F9):
        rng = random.Random(47)
        wp = AdditivePoly.frobenius_minus_id(F9, 1)
        for _ in range(20):
            w = rand_ratfunc(rng, F9, 4) + rand_ratfunc(rng, F9, 2) ** 3
            form, coords = asext._standard_form(upoly.partial_fractions(w))
            pf = upoly.partial_fractions(form.recombine())
            assert all(j % 3 for P, e, Q in pf.blocks for j, _ in upoly.place_digits(P, e, Q))
            assert all(c == 0 for d, c in enumerate(pf.poly_part.coeffs) if d % 3 == 0)
            rest = asext._reduce_rhs(wp, upoly.partial_fractions(w - form.recombine()))[0]
            assert rest.is_constant()
            trace = absolute_trace_value(rest.constant_value()) if not rest.is_zero() else 0
            assert trace == coords.get((None, 0, 0, 0), 0)


# === irreducibility =======================================================

class TestIrreducibility:
    def test_simple_pole_is_irreducible(self, F9):
        assert check_irreducible(frob_spec(F9, 2, "T"))

    def test_image_rhs_is_reducible(self, F9):
        assert not check_irreducible(frob_spec(F9, 2, "T^9-T"))

    def test_reducible_blocks_analysis(self, F9):
        spec = frob_spec(F9, 2, "T^9-T")
        with pytest.raises(NotIrreducible):
            reduce_global(spec)


# === quotient algebra =====================================================

class TestQuotientAlgebra:
    def test_generator_satisfies_equation(self, F9):
        spec = frob_spec(F9, 2, "T")
        alg = spec.algebra()
        assert qa_verify(alg, Satisfies(alg.y(), spec.f, spec.u))

    def test_sigma_group_law(self, F9):
        rng = random.Random(11)
        spec = frob_spec(F9, 2, "T")
        alg = spec.algebra()
        y = alg.y()
        z = y ** 3 + alg.const(rand_elem(rng, F9)) * y
        for xi in spec.group.elements:
            for eta in spec.group.elements:
                assert z.sigma(xi).sigma(eta) == z.sigma(xi + eta)

    def test_sigma_respects_products(self, F4):
        rng = random.Random(12)
        spec = frob_spec(F4, 2, "1/T")
        alg = spec.algebra()
        y = alg.y()
        a = y * y + alg.const(rand_elem(rng, F4))
        b = y ** 2 + y
        for xi in spec.group.elements:
            assert (a * b).sigma(xi) == a.sigma(xi) * b.sigma(xi)

    def test_sigma_fixes_base_field(self, F9):
        spec = frob_spec(F9, 2, "T")
        alg = spec.algebra()
        c = alg.const(parse_ratfunc(F9, "(T^2+w)/(T+1)"))
        for xi in spec.group.elements:
            assert c.sigma(xi) == c

    def test_division_by_constant(self, F9):
        spec = frob_spec(F9, 2, "T")
        alg = spec.algebra()
        y = alg.y()
        t = alg.const(RatFunc.variable(F9))
        assert (y / t) * t == y
        with pytest.raises(AspwError):
            y / (y + alg.const(1))


# === subextensions ========================================================

class TestSubextensions:
    def test_count_matches_hyperplanes(self, F9, F27):
        assert len(subextensions(frob_spec(F9, 2, "T"))) == 4
        spec27 = frob_spec(F27, 3, "1/(T+1)^2 + 1/(T+1) + T^9+T^3+T+w+1")
        assert len(subextensions(spec27)) == 13

    def test_descriptors_verify_in_algebra(self, F9):
        spec = frob_spec(F9, 2, "T")
        alg = spec.algebra()
        wp = AdditivePoly(F9, (-F9.one(), F9.one()))
        for desc in subextensions(spec):
            z = desc.as_algebra_element(alg)
            assert qa_verify(alg, Satisfies(z, wp, desc.rhs))
            h_elems = addpoly.span_basis(F9, desc.hyperplane.basis)[1]
            assert qa_verify(alg, FixedBy(z, tuple(h_elems)))

    def test_fixed_by_checked_on_the_basis(self, F27, monkeypatch):
        # sigma is a homomorphism of the root group, so H's n - 1 basis
        # vectors decide "fixed by H" and eps the move: n sigma calls per H
        calls = []
        real = QAElem.sigma
        monkeypatch.setattr(QAElem, "sigma", lambda z, xi: calls.append(xi) or real(z, xi))
        descs = subextensions(frob_spec(F27, 3, "T"))
        assert len(descs) == 13
        assert len(calls) <= 3 * len(descs)

    def test_formula_round_trip(self, F9):
        spec = frob_spec(F9, 2, "T")
        descs = subextensions(spec)
        labels = [d.hyperplane.label() for d in descs]
        assert labels == ["(0,1)", "(1,0)", "(1,1)", "(1,2)"]
        for d in descs:
            assert "y" in d.formula()

    def test_failed_check_names_its_inputs(self, F9, monkeypatch):
        monkeypatch.setattr(asext, "qa_verify", lambda alg, claim: False)
        with pytest.raises(InternalCheckError) as err:
            subextensions(frob_spec(F9, 2, "T"))
        assert str(err.value) == ("subextension generator (w)y+(2w)y^3 of H=(0,1) fails its "
                                  "equation for f=X^9+2X, u=RatFunc((T)/(1))")

    def test_failed_composition_identity_names_h_and_f(self, F9, monkeypatch):
        monkeypatch.setattr(asext, "wp_compose", lambda a, g: g)
        with pytest.raises(InternalCheckError) as err:
            subextensions(frob_spec(F9, 2, "T"))
        assert str(err.value) == "composition identity fails for H=(0,1), f_H=X^3+2X, f=X^9+2X"

    def test_f_H_built_only_where_read(self, F9, monkeypatch):
        # every pole order of u is divisible by p, so the irreducibility test
        # builds the n coordinate layers, which need a subspace polynomial
        # each; splitting reads only functionals, subext and the layer oracle
        # build one f_H per hyperplane, the oracle once for all places
        calls = []

        def counting(ctx, vs, real=addpoly.subspace_poly):
            calls.append(len(vs))
            return real(ctx, vs)

        for module in (addpoly, asext, oracle):
            monkeypatch.setattr(module, "subspace_poly", counting)
        spec = frob_spec(F9, 2, "1/(T+w)^3+T^3")
        spec.require_irreducible()
        assert len(calls) == 2
        finite = [Place(P) for _, P in zip(range(3), monic_irreducibles(F9, 1))]
        for place in [Place.infinite()] + finite:
            place_decomposition(spec, place)
        assert len(calls) == 2
        subextensions(spec)
        assert len(calls) == 2 + 4
        for places in (finite[:1], finite):
            calls.clear()
            assert len(oracle.layer_oracle(spec, places)) == len(places)
            assert len(calls) == 4


# === combining generators =================================================

class TestCombine:
    def test_two_polynomial_pieces(self, F9):
        # frozen compositum equation for gammas [T, T^2], multipliers [1, w]
        w = F9.gen()
        comb = combine_generators(
            F9, [parse_ratfunc(F9, "T"), parse_ratfunc(F9, "T^2")], [F9.one(), w])
        assert pf_string(comb.spec.u) == "(w)T^6+T^3+(w)T^2+T"
        assert comb.formula() == "z1+(w)z2"
        assert comb.spec.f == AdditivePoly.frobenius_minus_id(F9, 2)

    def test_pole_piece(self, F9):
        w = F9.gen()
        comb = combine_generators(
            F9, [parse_ratfunc(F9, "T"), parse_ratfunc(F9, "1/T")], [F9.one(), w])
        assert place_valuation(comb.spec.u, Place.infinite()) == -3

    def test_dependent_pieces_rejected(self, F9):
        # one test per line of combinations: (0,1), (1,0), (1,1) and then
        # the dependent (1,2), where product order over all nonzero
        # combinations would reach (0,2) first
        with pytest.raises(DependentSubextensions,
                           match=r"^combination \(1, 2\) of the right-hand sides"):
            combine_generators(
                F9, [parse_ratfunc(F9, "T"), parse_ratfunc(F9, "T")],
                [F9.one(), F9.gen()])

    def test_image_shifted_dependence_detected(self, F9):
        # second rhs differs from the first by a p-th-power image only
        u2 = parse_ratfunc(F9, "T") + parse_ratfunc(F9, "T^3-T")
        with pytest.raises(DependentSubextensions):
            combine_generators(F9, [parse_ratfunc(F9, "T"), u2],
                               [F9.one(), F9.gen()])


# === splitting ============================================================

class TestSplitting:
    def test_ramified_place_detected(self, F9):
        spec = frob_spec(F9, 2, "1/T")
        dec = place_decomposition(spec, Place(Poly.variable(F9)))
        assert (dec.e, dec.f, dec.g) == (9, 1, 1)
        assert all(hv.verdict == "ramified" for hv in dec.per_hyperplane)

    def test_no_embedding_at_higher_degree_places(self, F4, F9, monkeypatch):
        # the traces are taken in k0[T]/(P), so no residue field F_{q^d}
        # and no embedding of k0 into it is built or used
        def refuse(*args, **kwargs):
            raise AssertionError("a SubfieldEmbedding was built or applied")

        monkeypatch.setattr(SubfieldEmbedding, "__init__", refuse)
        monkeypatch.setattr(SubfieldEmbedding, "__call__", refuse)
        for ctx in (F4, F9):
            spec = frob_spec(ctx, 2, "1/(T+1)+T")
            for d in (2, 3):
                for _, P in zip(range(3), monic_irreducibles(ctx, d)):
                    dec = place_decomposition(spec, Place(P))
                    assert dec.e == 1 and dec.f * dec.g == ctx.p ** 2

    def test_efg_product_is_degree(self, F4, F9):
        rng = random.Random(23)
        for ctx in (F4, F9):
            f = AdditivePoly.frobenius_minus_id(ctx, 2)
            done = 0
            while done < 8:
                u = rand_ratfunc(rng, ctx, 3)
                spec = ExtensionSpec(f, u, ctx)
                if not check_irreducible(spec):
                    continue
                for place in (Place(Poly.variable(ctx)), Place.infinite()):
                    dec = place_decomposition(spec, place)
                    assert dec.e * dec.f * dec.g == ctx.p ** 2
                done += 1

    def test_decomposition_tags_consistent(self, F9):
        # split hyperplanes contain the decomposition group
        spec = frob_spec(F9, 2, "1/(T+1)")
        dec = place_decomposition(spec, Place.infinite())
        split_labels = {hv.hyperplane.label() for hv in dec.per_hyperplane
                        if hv.verdict == "split"}
        assert set(dec.decomposition_tags) <= split_labels | set(dec.inertia_tags)

    def test_against_direct_root_count(self, F4, F9):
        from aspw.oracle import splitting_oracle

        rng = random.Random(29)
        for ctx in (F4, F9):
            f = AdditivePoly.frobenius_minus_id(ctx, 2)
            places = [Place(P) for P in monic_irreducibles(ctx, 1)]
            places += [Place(P) for d, P in zip(range(3), monic_irreducibles(ctx, 2))]
            done = 0
            while done < 10:
                u = rand_ratfunc(rng, ctx, 3)
                spec = ExtensionSpec(f, u, ctx)
                if not check_irreducible(spec):
                    continue
                for place in places:
                    if place_valuation(spec.u, place) < 0:
                        continue
                    direct = splitting_oracle(spec, place)
                    dec = place_decomposition(spec, place)
                    expected = spec.f.q if dec.g == spec.f.q else 0
                    assert direct == expected
                done += 1

    def test_per_hyperplane_verdicts_against_direct_root_count(self, F4, F9):
        # each degree-p layer z^p - z = rhs splits at an unramified place iff
        # the residue field holds p roots; this also reaches the f = p,
        # g = p^(n-1) places that a full-split comparison cannot tell apart
        from aspw.oracle import splitting_oracle

        rng = random.Random(37)
        partial = 0
        for ctx in (F4, F9):
            f = AdditivePoly.frobenius_minus_id(ctx, 2)
            wp = AdditivePoly.frobenius_minus_id(ctx, 1)
            places = [Place(P) for d in (1, 2) for P in monic_irreducibles(ctx, d)]
            done = 0
            while done < 5:
                u = rand_ratfunc(rng, ctx, 3)
                spec = ExtensionSpec(f, u, ctx)
                if not check_irreducible(spec):
                    continue
                for place in places:
                    dec = place_decomposition(spec, place)
                    partial += dec.f == ctx.p and dec.g == ctx.p
                    for desc, hv in zip(subextensions(spec), dec.per_hyperplane):
                        if place_valuation(desc.rhs, place) < 0:
                            continue
                        count = splitting_oracle(ExtensionSpec(wp, desc.rhs), place)
                        assert (count == ctx.p) == (hv.verdict == "split"), (
                            pf_string(u), str(place), hv.hyperplane.label())
                done += 1
        assert partial > 0

    def test_layer_reductions_run_once_per_spec(self, F9, monkeypatch):
        forms = []
        factored = []
        real = asext._standard_form
        real_factor = upoly.factor
        monkeypatch.setattr(asext, "_standard_form", lambda pf: forms.append(pf) or real(pf))
        for mod in (upoly, asext):
            monkeypatch.setattr(mod, "factor", lambda g: factored.append(g) or real_factor(g),
                                raising=False)
        # every pole order of u is divisible by p, so the pole orders do not
        # decide irreducibility
        spec = frob_spec(F9, 2, "1/T^3+T^3")
        spec.require_irreducible()  # one standard form per coordinate layer
        assert len(forms) == spec.f.n
        # u keeps the decomposition it was parsed as, and every layer rhs is
        # built from it, so nothing is factored
        assert factored == []
        forms.clear()
        subextensions(spec)
        assert forms == []
        places = [Place.infinite()] + [Place(P) for d in (1, 2)
                                       for P in monic_irreducibles(F9, d)]
        for place in places[:10]:
            place_decomposition(spec, place)
            assert forms == []
        # a fresh spec's first place query runs the irreducibility test
        fresh = frob_spec(F9, 2, "1/T^3+T^3")
        place_decomposition(fresh, places[0])
        assert len(forms) == fresh.f.n

    def test_one_inverse_per_regular_finite_place(self, F9, monkeypatch):
        # the n forms share one denominator, so at a place of degree >= 2
        # that is a pole of no form their traces take one inverse mod P, not
        # one per layer; at T - a the values take one field inverse and no
        # inverse mod P
        calls = []
        real = upoly.poly_inverse_mod
        monkeypatch.setattr(upoly, "poly_inverse_mod",
                            lambda a, m: calls.append(m) or real(a, m))
        spec = frob_spec(F9, 2, "1/(T^2+1)+w/T^2+T")
        spec.require_irreducible()
        places = [Place(P) for d in (1, 2) for P in monic_irreducibles(F9, d)]
        regular = [pl for pl in places if place_valuation(spec.u, pl) >= 0]
        assert len(regular) == len(places) - 3  # T, and T +- w, whose product is T^2 + 1
        assert {pl.degree() for pl in regular} == {1, 2}
        for place in regular:
            calls.clear()
            place_decomposition(spec, place)
            assert calls == ([] if place.degree() == 1 else [place.poly])

    def test_regular_places_share_one_row_per_trace_vector(self, F9, monkeypatch):
        # at a place that is a pole of no form nothing ramifies, so the
        # verdicts depend on the trace vector t alone: one row, one
        # dimension check, per distinct t, however many places share it
        spec = frob_spec(F9, 2, "1/(T^2+1)+w/T^2+T")
        spec.require_irreducible()
        rows = []
        real = asext._reduced_echelon
        monkeypatch.setattr(asext, "_reduced_echelon",
                            lambda m, p: rows.append(m[-1]) or real(m, p))
        places = [Place(P) for d in (1, 2) for P in monic_irreducibles(F9, d)]
        regular = [pl for pl in places if place_valuation(spec.u, pl) >= 0]
        batch = place_decompositions(spec, regular)
        assert len(regular) == 42 and len(rows) == len({tuple(t) for t in rows}) <= 9
        rows.clear()
        assert [place_decomposition(spec, pl) for pl in regular] == batch
        assert len(rows) == len(regular)

    def test_dimension_check_fires_from_the_batch(self, F9, monkeypatch):
        # a verdict that breaks the count of unramified and split layers is
        # caught on the row the batch builds, and the message names the place
        spec = frob_spec(F9, 2, "1/(T^2+1)+w/T^2+T")
        places = [Place(P) for P in monic_irreducibles(F9, 1)][1:]
        good = place_decompositions(spec, places)
        first = next(dec.place for dec in good if dec.g < spec.f.q)
        monkeypatch.setattr(asext, "_dot", lambda a, b, p: 0)  # every layer splits
        with pytest.raises(InternalCheckError, match="do not fill spaces") as err:
            place_decompositions(spec, places)
        assert f" at {first} " in str(err.value)
        assert f"f={spec.f}" in str(err.value) and repr(spec.u) in str(err.value)

    def test_split_builds_no_subextension_generators(self, F9, monkeypatch, capsys):
        def refuse(spec):
            raise AssertionError("subextensions() ran on the splitting path")

        monkeypatch.setattr(asext, "subextensions", refuse)
        spec = frob_spec(F9, 2, "1/(T^2+1)+T")
        dec = place_decomposition(spec, Place.infinite())
        assert (dec.e, dec.f, dec.g) == (9, 1, 1)
        assert cli.main(["split", "--field", "p=3,s=2", "--f", "X^9-X",
                         "--u", "1/(T^2+1)+T", "--place", "T^7+2T^2+1"]) == 0
        assert capsys.readouterr().out.splitlines()[1] == "e=1 f=3 g=3"

    def test_hyperplane_spans_built_once_per_query(self, F16, monkeypatch):
        import aspw.addpoly as addpoly

        calls = []
        real = addpoly.span_basis
        monkeypatch.setattr(addpoly, "span_basis",
                            lambda *a, **k: calls.append(1) or real(*a, **k))
        spec = frob_spec(F16, 4, "1/(T^2+T+1)+T^3")
        spec.require_irreducible()
        # verdicts are dot products over F_p, so no hyperplane's element
        # set is built
        for place in (Place.infinite(), Place(Poly.variable(F16))):
            calls.clear()
            place_decomposition(spec, place)
            assert calls == []

    def test_1023_layers_answer_quickly(self):
        # F_{2^10} with X^1024 - X, through the API because the parser bounds
        # f's degree: 10 standard forms decide all 1023 layers
        ctx = make_field(2, 10)
        start = time.perf_counter()
        spec = ExtensionSpec(AdditivePoly.frobenius_minus_id(ctx, 10),
                             parse_ratfunc(ctx, "1/(T^2+T+1)^4+1/T+w"), ctx)
        _, red = reduce_global(spec)
        dec = place_decomposition(red, Place.infinite())
        assert time.perf_counter() - start < 2.0
        assert (dec.e, dec.f, dec.g) == (1, 2, 512)
        assert (len(dec.decomposition_tags), len(dec.inertia_tags)) == (511, 1023)

    def test_reduced_spec_keeps_every_verdict(self, F4, F8, F9, F16, F27):
        # reduce_global hands its layers to the reduced spec; they differ
        # from the reduced spec's own layers by p-th-power images, so a
        # fresh spec on the reduced rhs must give the same answers
        def answers(spec, place):
            dec = place_decomposition(spec, place)
            return ((dec.e, dec.f, dec.g),
                    [(hv.hyperplane.label(), hv.verdict) for hv in dec.per_hyperplane],
                    dec.decomposition_tags, dec.inertia_tags)

        rng = random.Random(41)
        moved = 0
        for ctx in (F4, F8, F9, F16, F27, make_field(5, 1)):
            f = AdditivePoly.frobenius_minus_id(ctx, ctx.s)
            places = [Place.infinite()] + [Place(P) for d in (1, 2)
                                           for _, P in zip(range(2), monic_irreducibles(ctx, d))]
            done = 0
            while done < 3:
                # f(delta) adds poles and degrees that reduction strips again
                u = rand_ratfunc(rng, ctx, 2) + additive_eval(f, rand_ratfunc(rng, ctx, 1))
                spec = ExtensionSpec(f, u, ctx)
                if not check_irreducible(spec):
                    continue
                _, red = reduce_global(spec)
                fresh = ExtensionSpec(f, red.u, ctx)
                moved += red.u != u
                for place in places:
                    want = answers(spec, place)
                    assert answers(red, place) == want, (pf_string(u), str(place))
                    assert answers(fresh, place) == want, (pf_string(u), str(place))
                done += 1
        assert moved > 0

    def test_subext_command_skips_layer_reductions(self, monkeypatch):
        reduced = []
        inside = []  # reductions run within each subextensions() call
        real_reduce = asext._reduce_rhs
        real_subext = asext.subextensions
        monkeypatch.setattr(asext, "_reduce_rhs",
                            lambda f, pf: reduced.append(pf) or real_reduce(f, pf))

        def subext(spec):
            before = len(reduced)
            out = real_subext(spec)
            inside.append(len(reduced) - before)
            return out

        monkeypatch.setattr(asext, "subextensions", subext)
        assert cli.main(["subext", "--field", "p=3,s=3,gen=w", "--f", "X^27-X",
                         "--u", "1/(T+1)^54 + 1/(T+1) + T^9+T^3+T+w+1"]) == 0
        assert inside == [0]


# === ramification =========================================================

class TestRamification:
    def test_worked_example_report(self, F27):
        spec = frob_spec(F27, 3, "1/(T+1)^54 + 1/(T+1) + T^9+T^3+T+w+1")
        report = ramification_report(spec)
        assert len(report.finite) == 1
        r = report.finite[0]
        assert str(r.place) == "T+1"
        assert (r.lam, r.m, r.e_bound, r.exact) == (2, 0, 27, True)
        inf = report.infinity
        assert inf is not None
        assert (inf.lam, inf.m, inf.e_bound, inf.exact) == (1, 2, 3, False)

    def test_infinity_is_a_ramified_place(self, F9, F27):
        # a polynomial part of degree k gives infinity the record that a
        # pole of order k gives a finite place
        for ctx, n, k in ((F9, 2, 1), (F9, 2, 6), (F27, 3, 2), (F27, 3, 9)):
            report = ramification_report(frob_spec(ctx, n, f"T^{k} + 1/T^{k}"))
            (fin,) = report.finite
            assert report.infinity.place == Place.infinite()
            assert report.infinity[1:] == fin[1:] and fin.lam == k // ctx.p ** fin.m

    def test_unramified_infinity(self, F9):
        spec = frob_spec(F9, 2, "1/T")
        report = ramification_report(spec)
        assert report.infinity is None
        assert len(report.finite) == 1


# === generator relations ==================================================

class TestGeneratorRelation:
    def _kernel(self, ctx, A, group):
        out = []
        p = ctx.p
        for x in group.elements:
            acc = ctx.zero()
            pw = x
            for c in A:
                acc = acc + c * pw
                pw = pw ** p
            if acc.is_zero():
                out.append(x)
        return out

    def test_identity_relation(self, F9):
        spec = frob_spec(F9, 2, "T")
        alg = spec.algebra()
        rel = generator_relation(spec, alg.y(), [])
        assert rel.formula(pf_string(rel.D)) == "y"
        assert [c.to_int() for c in rel.A] == [1, 0]
        assert rel.D.is_zero()

    def test_random_roundtrip(self, F9):
        rng = random.Random(31)
        spec = frob_spec(F9, 2, "T")
        alg = spec.algebra()
        y = alg.y()
        done = 0
        while done < 10:
            A = [rand_elem(rng, F9), rand_elem(rng, F9)]
            if all(c.is_zero() for c in A):
                continue
            D = rand_ratfunc(rng, F9, 2)
            z = A[0] * y + A[1] * (y ** 3) + alg.const(D)
            kernel = self._kernel(F9, A, spec.group)
            rel = generator_relation(spec, z, kernel)
            assert list(rel.A) == A
            assert rel.D == D
            done += 1

    def test_wrong_subgroup_rejected(self, F9):
        spec = frob_spec(F9, 2, "T")
        alg = spec.algebra()
        z = alg.y()
        with pytest.raises(NotAFixedField):
            generator_relation(spec, z, [F9.one()])

    def test_non_fixed_field_element_rejected(self, F9):
        spec = frob_spec(F9, 2, "T")
        alg = spec.algebra()
        # y*y is not an additive expression in y: translation differences
        # are not constants
        with pytest.raises(NotAFixedField):
            generator_relation(spec, alg.y() * alg.y(), [])
