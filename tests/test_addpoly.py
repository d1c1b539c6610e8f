"""Additive polynomials: root groups, subspace polys, hyperplanes, linear solves."""

from __future__ import annotations

import itertools
import random

import pytest

from aspw import addpoly
from aspw.addpoly import (
    AdditivePoly,
    Hyperplane,
    additive_eval,
    enumerate_hyperplanes,
    linear_solve,
    root_group,
    span_basis,
    subspace_poly,
    wp_compose,
)
from aspw.errors import (
    DependentGenerators,
    InternalCheckError,
    RootsNotInBaseField,
    SingularSystem,
    ZeroScale,
)
from aspw.gf import make_field
from aspw.upoly import Poly

from conftest import rand_elem


def dense_form(f: AdditivePoly) -> Poly:
    """sum a_i X^(p^i) as an ordinary polynomial."""
    coeffs = [f.ctx.zero()] * (f.q + 1)
    for i, a in enumerate(f.a):
        coeffs[f.ctx.p ** i] = a
    return Poly(f.ctx, coeffs)


def dense_root_product(ctx, roots) -> Poly:
    """Independent oracle: multiply out prod (X - v) with plain polynomials."""
    acc = Poly.const(ctx, 1)
    X = Poly.variable(ctx)
    for v in roots:
        acc = acc * (X - Poly.const(ctx, v))
    return acc


def wp_a(a, x):
    """x^p - a^(p-1) x, the twisted operator as the degree-p step on X."""
    return additive_eval(wp_compose(a, AdditivePoly.identity(a.ctx)), x)


# === evaluation and operators =============================================

class TestOperators:
    def test_additivity_random(self, F27):
        rng = random.Random(3)
        f = AdditivePoly.frobenius_minus_id(F27, 2)
        for _ in range(40):
            x, y = rand_elem(rng, F27), rand_elem(rng, F27)
            assert additive_eval(f, x + y) == additive_eval(f, x) + additive_eval(f, y)

    def test_wp_a_formula(self, F9):
        # definition check: wp_a(a, x) = x^p - a^(p-1) x
        w = F9.gen()
        for x in F9.elements():
            assert wp_a(w, x) == x ** 3 - w ** 2 * x

    def test_wp_a_kills_exactly_multiples_of_a(self, F9):
        w = F9.gen()
        kernel = {x for x in F9.elements() if wp_a(w, x).is_zero()}
        assert kernel == {F9.zero(), w, 2 * w}

    def test_wp_a_zero_scale(self, F9):
        with pytest.raises(ZeroScale):
            wp_compose(F9.zero(), AdditivePoly.identity(F9))

    def test_wp_compose_adjoins_root(self, F9):
        w = F9.gen()
        g = AdditivePoly.identity(F9)
        f = wp_compose(additive_eval(g, w), g)
        roots = {x for x in F9.elements() if additive_eval(f, x).is_zero()}
        assert roots == {F9.zero(), w, 2 * w}

    def test_ratfunc_arguments(self, F9):
        f = AdditivePoly.frobenius_minus_id(F9, 1)
        from aspw.upoly import RatFunc

        u = RatFunc(Poly.variable(F9))
        val = additive_eval(f, u)
        assert val == u ** 3 - u


# === construction validation ==============================================

class TestConstruction:
    def test_monic_required(self, F9):
        w = F9.gen()
        with pytest.raises(ValueError):
            AdditivePoly(F9, (F9.one(), w))

    def test_separable_required(self, F9):
        with pytest.raises(ValueError):
            AdditivePoly(F9, (F9.zero(), F9.one()))


# === root groups ==========================================================

class TestRootGroup:
    def test_frobenius_kernel_is_subfield(self, F27):
        f = AdditivePoly.frobenius_minus_id(F27, 1)
        g = root_group(f, F27)
        assert {x.to_int() for x in g.elements} == {0, 1, 2}

    def test_full_group_size_and_order(self, F27):
        f = AdditivePoly.frobenius_minus_id(F27, 3)
        g = root_group(f, F27)
        assert len(g.elements) == 27
        ints = [x.to_int() for x in g.elements]
        assert ints == sorted(ints)

    def test_roots_not_in_base_field(self, F4):
        # X^4 + (1+w)X^2 + wX: additive, separable, but its roots do not
        # all lie in F_4 (checked by exhaustive scan of the field)
        w = F4.gen()
        f = AdditivePoly(F4, (w, F4.one() + w, F4.one()))
        in_field = [x for x in F4.elements() if additive_eval(f, x).is_zero()]
        assert len(in_field) < 4
        with pytest.raises(RootsNotInBaseField):
            root_group(f, F4)

    def test_elements_are_the_span_of_the_basis(self, F9):
        f = AdditivePoly.frobenius_minus_id(F9, 2)
        g = root_group(f, F9)
        assert g.n == 2
        span = {g.basis[0] * c0 + g.basis[1] * c1
                for c0, c1 in itertools.product(range(3), repeat=2)}
        assert len(g.elements) == 9 and set(g.elements) == span


# === greedy F_p-spans ======================================================

class TestSpanBasis:
    def test_dependent_candidates_skipped_in_order(self, F9):
        w = F9.gen()
        basis, span = span_basis(F9, [F9.zero(), w, 2 * w, F9.one(), w + 1, w + 2])
        assert basis == [w, F9.one()]
        assert span == set(F9.elements())

    def test_extends_a_given_span(self, F27):
        w = F27.gen()
        _, line = span_basis(F27, [w])
        basis, span = span_basis(F27, [2 * w, F27.one(), w * w], span=line)
        assert basis == [F27.one(), w * w]
        assert len(span) == 27
        assert line == {F27.zero(), w, 2 * w}  # the given span is not mutated


# === subspace polynomials =================================================

class TestSubspacePoly:
    def test_matches_dense_root_product(self, F27):
        # oracle: the subspace polynomial is literally prod (X - v)
        w = F27.gen()
        for basis in ([F27.one()], [w], [F27.one(), w], [w, w * w]):
            f = subspace_poly(F27, basis)
            _, span = span_basis(F27, basis)
            assert dense_form(f) == dense_root_product(F27, sorted(span, key=lambda e: e.to_int()))

    def test_full_space_gives_frobenius_form(self, F9):
        w = F9.gen()
        f = subspace_poly(F9, [F9.one(), w])
        assert f == AdditivePoly.frobenius_minus_id(F9, 2)

    def test_dependent_generators_rejected(self, F9):
        with pytest.raises(DependentGenerators):
            subspace_poly(F9, [F9.one(), F9.from_int(2)])


# === hyperplanes ==========================================================

class TestHyperplanes:
    def test_count_rank_two(self, F9):
        f = AdditivePoly.frobenius_minus_id(F9, 2)
        hs = enumerate_hyperplanes(root_group(f, F9))
        assert len(hs) == 4  # (p^n - 1)/(p - 1) for p=3, n=2

    def test_count_rank_three(self, F27):
        f = AdditivePoly.frobenius_minus_id(F27, 3)
        hs = enumerate_hyperplanes(root_group(f, F27))
        assert len(hs) == 13

    def test_labels_frozen_rank_two(self, F9):
        f = AdditivePoly.frobenius_minus_id(F9, 2)
        hs = enumerate_hyperplanes(root_group(f, F9))
        assert [h.label() for h in hs] == ["(0,1)", "(1,0)", "(1,1)", "(1,2)"]

    def test_each_hyperplane_is_functional_kernel(self, F9):
        f = AdditivePoly.frobenius_minus_id(F9, 2)
        g = root_group(f, F9)
        for h in enumerate_hyperplanes(g):
            elems = span_basis(F9, h.basis)[1]
            assert len(elems) == 3
            # f_H, built from the hyperplane's basis, vanishes exactly on it
            f_H = subspace_poly(F9, h.basis)
            for x in g.elements:
                assert additive_eval(f_H, x).is_zero() == (x in elems)

    def test_scale_is_f_H_at_eps(self, F9):
        f = AdditivePoly.frobenius_minus_id(F9, 2)
        g = root_group(f, F9)
        for h in enumerate_hyperplanes(g):
            assert h.eps == g.basis[h.functional.index(1)]
            scale = additive_eval(subspace_poly(F9, h.basis), h.eps)
            assert not scale.is_zero()
            assert h.eps not in span_basis(F9, h.basis)[1]

    def test_wp_a_after_f_H_recovers_f(self, F9):
        # composing the hyperplane map with its scaled degree-p step gives
        # back the full polynomial: wp_{a_H}(f_H(x)) = f(x)
        f = AdditivePoly.frobenius_minus_id(F9, 2)
        g = root_group(f, F9)
        for h in enumerate_hyperplanes(g):
            f_H = subspace_poly(F9, h.basis)
            scale = additive_eval(f_H, h.eps)
            for x in F9.elements():
                assert wp_a(scale, additive_eval(f_H, x)) == additive_eval(f, x)

    def test_count_check_names_the_group(self, F9, monkeypatch):
        monkeypatch.setattr(addpoly, "normalized_tuples", lambda p, n: iter([(0, 1)]))
        g = root_group(AdditivePoly.frobenius_minus_id(F9, 2), F9)
        with pytest.raises(InternalCheckError) as err:
            enumerate_hyperplanes(g)
        assert str(err.value) == f"expected 4 hyperplanes of {g!r}, found 1"


# === Moore matrices =======================================================

class TestMoore:
    def test_linear_solve_roundtrip(self, F9):
        rng = random.Random(9)
        w = F9.gen()
        rows = [[F9.one(), w], [w, F9.one() + w]]
        for _ in range(10):
            x = [rand_elem(rng, F9), rand_elem(rng, F9)]
            rhs = [rows[i][0] * x[0] + rows[i][1] * x[1] for i in range(2)]
            assert linear_solve(rows, rhs) == x

    def test_singular_system(self, F9):
        w = F9.gen()
        rows = [[w, w], [w, w]]
        with pytest.raises(SingularSystem):
            linear_solve(rows, [F9.one(), F9.zero()])
