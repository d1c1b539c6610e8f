"""Independent verification routines: brute-force scans with no reuse of
the analytic code paths they are checking."""

from __future__ import annotations

import random

import pytest

from aspw import oracle
from aspw.addpoly import AdditivePoly, additive_eval, subspace_poly
from aspw.asext import ExtensionSpec, place_decomposition
from aspw.errors import (
    AspwError,
    FieldTooLarge,
    InternalCheckError,
    LengthCapExceeded,
    PoleAtPlace,
)
from aspw.gf import make_field
from aspw.oracle import (
    ResidueField,
    image_set,
    layer_oracle,
    residue_field,
    splitting_oracle,
    verify_eq_star,
    verify_lemma_62,
    witt_axiom_sampler,
)
from aspw.upoly import Place, Poly, RatFunc, place_valuation
from place_reference import monic_irreducibles


class TestImageSet:
    def test_wp_image_on_f4(self, F4):
        wp = AdditivePoly(F4, (-F4.one(), F4.one()))
        assert image_set(wp, F4) == frozenset([F4.zero(), F4.one()])

    def test_vanishing_map(self, F4):
        # x^4 - x is identically zero on F_4
        g = AdditivePoly.frobenius_minus_id(F4, 2)
        assert image_set(g, F4) == frozenset([F4.zero()])

    def test_image_kernel_size_invariant(self, F9):
        w = F9.gen()
        for f in (AdditivePoly.frobenius_minus_id(F9, 1),
                  AdditivePoly(F9, (w, F9.one()))):
            im = image_set(f, F9)
            ker = sum(1 for c in F9.elements() if additive_eval(f, c).is_zero())
            assert len(im) * ker == 9

    def test_non_additive_rejected(self, F4, monkeypatch):
        def crooked(f, x):
            return x.ctx.one() if x.is_zero() else x * x

        monkeypatch.setattr(oracle, "additive_eval", crooked)
        with pytest.raises(InternalCheckError):
            image_set(AdditivePoly.frobenius_minus_id(F4, 1), F4)

    def test_scan_cap(self, F4):
        wp = AdditivePoly(F4, (-F4.one(), F4.one()))
        with pytest.raises(FieldTooLarge):
            image_set(wp, make_field(2, 10))


class TestScaledImageEquivalence:
    @pytest.mark.parametrize("q,m", [(4, 2), (8, 1), (8, 2), (9, 2)])
    def test_holds_on_small_pairs(self, q, m):
        ok, witness = verify_lemma_62(q, m)
        assert ok
        assert witness is None


class TestImageIntersection:
    def test_frobenius_form_over_extension(self):
        F16 = make_field(2, 4)
        ok, witness = verify_eq_star(AdditivePoly.frobenius_minus_id(F16, 2), F16)
        assert ok and witness is None

        F81 = make_field(3, 4)
        ok, witness = verify_eq_star(AdditivePoly.frobenius_minus_id(F81, 2), F81)
        assert ok and witness is None

    def test_rank_zero_intersects_nothing(self, F9):
        # f = X has no basis roots: the empty intersection is all of k0,
        # which is the image of X
        assert verify_eq_star(AdditivePoly(F9, (F9.one(),)), F9) == (True, None)

    def test_rank_one_is_immediate(self, F9):
        f = AdditivePoly(F9, (F9.gen(), F9.one()))
        ok, _ = verify_eq_star(f, F9)
        assert ok

    def test_subspace_polynomials_over_f27(self, F27):
        w = F27.gen()
        for basis in ([F27.one(), w], [w, w * w], [F27.one(), w * w],
                      [F27.one(), w, w * w]):
            ok, witness = verify_eq_star(subspace_poly(F27, basis), F27)
            assert ok
            assert witness is None


class TestSplittingOracle:
    def test_agrees_with_trace_route(self, F4, F9):
        rng = random.Random(11)
        checked = 0
        for k0 in (F4, F9):
            f = AdditivePoly.frobenius_minus_id(k0, 2)
            els = list(k0.elements())
            places = [Place(P) for P in list(monic_irreducibles(k0, 1))[:3]]
            for _ in range(10):
                num = Poly(k0, [rng.choice(els) for _ in range(rng.randrange(1, 4))])
                den = Poly(k0, [rng.choice(els) for _ in range(rng.randrange(1, 3))])
                if num.is_zero() or den.is_zero():
                    continue
                spec = ExtensionSpec(f, RatFunc(num, den))
                try:
                    spec.require_irreducible()
                except AspwError:
                    continue
                for place in places:
                    try:
                        direct = splitting_oracle(spec, place)
                    except PoleAtPlace:
                        continue
                    dec = place_decomposition(spec, place)
                    expect = spec.f.q if dec.g == spec.f.q else 0
                    assert direct == expect, (str(spec.u), str(place))
                    checked += 1
        assert checked >= 20

    def test_layer_lookup_agrees_with_layer_root_count(self, F4, F9):
        # a layer splits iff z^p - z = mu_H u(P) has p residue roots; over a
        # subspace f too
        rng = random.Random(13)
        for k0 in (F4, F9):
            wp = AdditivePoly.frobenius_minus_id(k0, 1)
            places = [Place(P) for d in (1, 2) for _, P in zip(range(3), monic_irreducibles(k0, d))]
            for f in (AdditivePoly.frobenius_minus_id(k0, 2),
                      subspace_poly(k0, [k0.one(), k0.gen() + 1])):
                for _ in range(3):
                    u = RatFunc(Poly(k0, [rng.choice(list(k0.elements())) for _ in range(3)]),
                                Poly.variable(k0) ** 2 + 1)
                    spec = ExtensionSpec(f, u)
                    regular = [pl for pl in places if place_valuation(u, pl) >= 0]
                    verdicts = layer_oracle(spec, regular)
                    for place, layers in zip(regular, verdicts, strict=True):
                        for h, splits in zip(spec.hyperplanes(), layers, strict=True):
                            f_H = subspace_poly(k0, h.basis)
                            rhs = u.scale_const((additive_eval(f_H, h.eps) ** k0.p).inverse())
                            assert splits == (splitting_oracle(ExtensionSpec(wp, rhs), place) == k0.p)

    def test_bad_root_count_names_its_inputs(self, F4, monkeypatch):
        # an embedding that sends every coefficient to 1 turns X^4 + X into
        # X^4 + X^2 + X, whose only root in F_4 is 0
        field = ResidueField(F4, 1)
        monkeypatch.setattr(field, "emb", lambda c: F4.one())
        monkeypatch.setitem(oracle._RESIDUE_FIELDS, (F4, 1), field)
        spec = ExtensionSpec(AdditivePoly.frobenius_minus_id(F4, 2), RatFunc.variable(F4))
        with pytest.raises(InternalCheckError) as err:
            splitting_oracle(spec, Place(Poly.variable(F4)))
        assert str(err.value) == f"fibre sizes [1] of f=X^4+X on {F4!r} are not all p^n = 4"

    @pytest.mark.parametrize("p, s", [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2), (3, 3)],
                             ids=["F2", "F3", "F4", "F5", "F8", "F9", "F27"])
    def test_places_are_the_sieve_with_roots_of_full_degree(self, p, s):
        # every degree d with q^d <= 729: the one pass lists the sieve's
        # places in its order, and each root is a root of P of degree d
        k0 = make_field(p, s)
        q, d = k0.order(), 1
        while q ** d <= 729:
            field = ResidueField(k0, d)
            places = field.places()
            assert [pl.poly for pl in places] == list(monic_irreducibles(k0, d))
            for pl in places:
                r = field.root(pl.poly)
                lifted = [field.emb(k0.from_int(c)) for c in pl.poly.coeffs]
                assert Poly(field.big, lifted)(r).is_zero()
                assert r ** q ** d == r and all(r ** q ** e != r for e in range(1, d))
            d += 1

    def test_dropped_place_trips_the_count(self, F4, monkeypatch):
        real = ResidueField._orbit_roots

        def drop_one(field):
            roots = real(field)
            del roots[next(iter(roots))]
            return roots

        monkeypatch.setattr(ResidueField, "_orbit_roots", drop_one)
        with pytest.raises(InternalCheckError) as err:
            ResidueField(F4, 2)
        assert str(err.value) == (
            f"5 places of degree 2 over {F4!r} found in {make_field(2, 4)!r}, not 6")

    def test_one_residue_field_per_process(self, F4, F9, monkeypatch):
        monkeypatch.setattr(oracle, "_RESIDUE_FIELDS", {})
        assert residue_field(F9, 2) is residue_field(F9, 2)
        assert residue_field(F9, 1) is not residue_field(F9, 2)
        assert residue_field(F4, 2).big == make_field(2, 4)
        # the constructor stays uncached, so its checks run on every call
        assert ResidueField(F9, 2) is not residue_field(F9, 2)

    def test_splitting_oracle_without_a_field_takes_the_shared_one(self, F9, monkeypatch):
        # one ResidueField per (k0, d) for the process: its root scan,
        # embedding and fibre tables are not redone per call
        monkeypatch.setattr(oracle, "_RESIDUE_FIELDS", {})
        built, real = [], ResidueField.__init__
        monkeypatch.setattr(ResidueField, "__init__",
                            lambda field, *args: built.append(args) or real(field, *args))
        spec = ExtensionSpec(AdditivePoly.frobenius_minus_id(F9, 1), RatFunc.variable(F9))
        T = Poly.variable(F9)
        assert [splitting_oracle(spec, Place(P)) for P in (T, T + 1)] == [3, 0]
        assert built == [(F9, 1)]

    def test_shared_field_keeps_the_count(self, F4, monkeypatch):
        # a field is kept only once its checks pass: a dropped place raises
        # on every call and leaves nothing behind
        monkeypatch.setattr(oracle, "_RESIDUE_FIELDS", {})
        real = ResidueField._orbit_roots
        monkeypatch.setattr(ResidueField, "_orbit_roots",
                            lambda field: dict(list(real(field).items())[1:]))
        for _ in range(2):
            with pytest.raises(InternalCheckError, match="5 places of degree 2"):
                residue_field(F4, 2)
        assert oracle._RESIDUE_FIELDS == {}

    @pytest.mark.parametrize("coeffs", [[0, 0, 1], [0, 1, 1]], ids=["T^2", "T^2+T"])
    def test_reducible_place_has_no_root_of_full_degree(self, F4, coeffs):
        # T^2 and T^2 + T have roots in F_4, so each of their roots in F_16
        # has degree 1 over F_4, not 2
        P = Poly(F4, [F4.from_int(c) for c in coeffs])
        with pytest.raises(InternalCheckError) as err:
            ResidueField(F4, 2).root(P)
        assert str(err.value).startswith(f"place polynomial {P} has no root of degree 2 over")

    def test_pole_rejected(self, F4):
        spec = ExtensionSpec(AdditivePoly.frobenius_minus_id(F4, 1),
                             RatFunc(Poly.const(F4, 1), Poly.variable(F4)))
        with pytest.raises(PoleAtPlace):
            splitting_oracle(spec, Place(Poly.variable(F4)))

    def test_infinite_place_unsupported(self, F4):
        spec = ExtensionSpec(AdditivePoly.frobenius_minus_id(F4, 1),
                             RatFunc.variable(F4))
        with pytest.raises(AspwError):
            splitting_oracle(spec, Place.infinite())

    def test_residue_field_cap(self, F27):
        spec = ExtensionSpec(AdditivePoly.frobenius_minus_id(F27, 1),
                             RatFunc.variable(F27))
        big = next(iter(monic_irreducibles(F27, 3)))
        with pytest.raises(FieldTooLarge):
            splitting_oracle(spec, Place(big))


class TestAxiomSampler:
    def test_exhaustive_mode(self):
        rep = witt_axiom_sampler(2, 2)
        assert rep["mode"] == "exhaustive"
        assert rep["verdict"] == "pass"
        assert rep["seed"] is None
        assert rep["parameters"]["samples"] is None
        assert "witness" not in rep

    def test_sampled_mode(self, F9):
        rep = witt_axiom_sampler(3, 2, ctx=F9, samples=40, seed=7)
        assert rep["mode"] == "sampled"
        assert rep["verdict"] == "pass"
        assert rep["seed"] == 7
        assert rep["parameters"]["field_order"] == 9

    def test_rational_mode(self, F4):
        rep = witt_axiom_sampler(2, 2, ctx=F4, rational=True, samples=15, seed=3)
        assert rep["mode"] == "sampled"
        assert rep["verdict"] == "pass"
        assert rep["parameters"]["rational"] is True

    def test_seed_reproducible(self, F9):
        a = witt_axiom_sampler(3, 2, ctx=F9, samples=25, seed=5)
        b = witt_axiom_sampler(3, 2, ctx=F9, samples=25, seed=5)
        assert a == b

    def test_length_cap(self):
        with pytest.raises(LengthCapExceeded):
            witt_axiom_sampler(2, 4)
