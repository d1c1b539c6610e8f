"""Acceptance gate: one test per shipped guarantee, each with a wall-clock
budget and an ACCEPTANCE PASS/FAIL line (visible under pytest -s)."""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import time

from aspw import asext, cli, oracle
from aspw.addpoly import AdditivePoly, span_basis, subspace_poly
from aspw.gf import make_field
from aspw.parsing import parse_ratfunc
from aspw.upoly import (
    Place,
    Poly,
    RatFunc,
    pf_string,
    place_valuation,
)
from aspw.witt import (
    WittExtensionSpec,
    WittVector,
    asw_operator,
    build_tables,
    default_galois_basis,
    teichmuller,
    witt_generator_relation,
    witt_infinity_full_split,
    witt_infinity_splitting,
)

from conftest import rand_elem, rand_poly, rand_ratfunc
from place_reference import monic_irreducibles
from witt_reference import witt_lift


@contextlib.contextmanager
def criterion(n: int, limit: float):
    t0 = time.perf_counter()
    ok = False
    try:
        yield
        dt = time.perf_counter() - t0
        assert dt < limit, f"criterion {n} took {dt:.2f}s, budget {limit}s"
        ok = True
    finally:
        print(f"ACCEPTANCE {n} {'PASS' if ok else 'FAIL'}")


def _run_cli(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    assert code == 0, argv
    return buf.getvalue()


def test_criterion_01_worked_example_end_to_end(F27):
    with criterion(1, 5.0):
        f = AdditivePoly.frobenius_minus_id(F27, 3)
        u = parse_ratfunc(F27,
                          "1/(T+1)^54 + 1/(T+1) + T^9+T^3+T+w+1")
        spec = asext.ExtensionSpec(f, u)

        _, red = asext.reduce_global(spec)
        assert pf_string(red.u) == "1/(T+1)^2 + 1/(T+1) + T^9+T^3+T+w+1"

        report = asext.ramification_report(spec)
        (finite,) = report.finite
        assert str(finite.place) == "T+1"
        assert finite.e_bound == 27 and finite.exact
        assert report.infinity is not None

        dec = asext.place_decomposition(red, Place.infinite())
        assert (dec.e, dec.f, dec.g) == (3, 3, 3)
        assert dec.decomposition_tags == ("(0,0,1)",)
        assert "(0,0,1)" in dec.inertia_tags and "(0,1,0)" in dec.inertia_tags

        # degree-3 canonical forms of the three generating subextensions
        wp = AdditivePoly(F27, (-F27.one(), F27.one()))
        forms = {}
        for desc in asext.subextensions(red):
            _, sub = asext.reduce_global(asext.ExtensionSpec(wp, desc.rhs))
            forms[desc.hyperplane.label()] = pf_string(sub.u)
        assert forms["(0,0,1)"] == "1/(T+1)^2 + 1/(T+1)"
        assert forms["(0,1,0)"] == "w/(T+1)^2 + w/(T+1) + w^2+w"
        assert forms["(1,0,1)"] == ("w^2/(T+1)^2 + w^2/(T+1) "
                                    "+ 2T+w^2+w+2")


def test_criterion_02_power_descent(F4, F9):
    with criterion(2, 1.0):
        for ctx, lams in ((F4, (1, 3)), (F9, (1, 2))):
            p = ctx.p
            f = AdditivePoly.frobenius_minus_id(ctx, 2)
            T = RatFunc.variable(ctx)
            for lam in lams:
                spec = asext.ExtensionSpec(f, T ** (lam * p))
                _, red = asext.reduce_global(spec, descend=True)
                assert red.u == T ** lam
                inf = asext.ramification_report(red).infinity
                assert inf is not None and inf.exact
                assert inf.e_bound == p * p


def test_criterion_03_combined_polynomial_pieces(F9):
    with criterion(3, 1.0):
        T = RatFunc.variable(F9)
        w = F9.gen()
        comb = asext.combine_generators(F9, [T, T ** 2], [F9.one(), w])
        u = comb.spec.u
        assert pf_string(u) == "(w)T^6+T^3+(w)T^2+T"
        assert place_valuation(u, Place.infinite()) == -6
        inf = asext.ramification_report(comb.spec).infinity
        assert inf is not None and not inf.exact
        assert inf.e_bound == 3
        dec = asext.place_decomposition(comb.spec, Place.infinite())
        assert dec.e == 9


def test_criterion_04_combined_pole_piece(F9):
    with criterion(4, 1.0):
        T = RatFunc.variable(F9)
        w = F9.gen()
        comb = asext.combine_generators(F9, [T, 1 / T], [F9.one(), w])
        dec = asext.place_decomposition(comb.spec, Place.infinite())
        assert dec.e == 3


def test_criterion_05_scaled_image_equivalence():
    with criterion(5, 10.0):
        for q, m in ((4, 2), (8, 1), (8, 2), (9, 2)):
            ok, witness = oracle.verify_lemma_62(q, m)
            assert ok and witness is None, (q, m)


def test_criterion_06_image_intersection(F27):
    with criterion(6, 30.0):
        for p, s, n in ((2, 4, 2), (3, 4, 2)):
            big = make_field(p, s)
            ok, witness = oracle.verify_eq_star(
                AdditivePoly.frobenius_minus_id(big, n), big)
            assert ok and witness is None, (p, s)
        # the claim is unproven in general: require a definite verdict,
        # whichever way it falls
        w = F27.gen()
        bases = ([F27.one(), w], [w, w * w], [F27.one(), w * w])
        for basis in bases:
            ok, _ = oracle.verify_eq_star(subspace_poly(F27, basis), F27)
            assert ok in (True, False)


def test_criterion_07_oracle_equivalence(F4, F9):
    with criterion(7, 60.0):
        rng = random.Random(101)
        disagreements = 0
        for ctx in (F4, F9):
            f = AdditivePoly.frobenius_minus_id(ctx, 2)
            els = list(ctx.elements())
            places = [Place(P) for d in (1, 2)
                      for P in monic_irreducibles(ctx, d)]
            done = 0
            while done < 100:
                num = Poly(ctx, [rng.choice(els)
                                 for _ in range(rng.randrange(1, 5))])
                den = Poly(ctx, [rng.choice(els)
                                 for _ in range(rng.randrange(1, 4))])
                if num.is_zero() or den.is_zero():
                    continue
                spec = asext.ExtensionSpec(f, RatFunc(num, den))
                if not asext.check_irreducible(spec):
                    continue
                regular = [pl for pl in places if place_valuation(spec.u, pl) >= 0]
                verdicts = oracle.layer_oracle(spec, regular)
                for place, layers in zip(regular, verdicts, strict=True):
                    count = oracle.splitting_oracle(spec, place)
                    dec = asext.place_decomposition(spec, place)
                    expected = spec.f.q if dec.g == spec.f.q else 0
                    if count != expected:
                        disagreements += 1
                    # and every degree-p layer on its own
                    for hv, splits in zip(dec.per_hyperplane, layers, strict=True):
                        if splits != (hv.verdict == "split"):
                            disagreements += 1
                done += 1
        assert disagreements == 0


def test_criterion_08_quotient_algebra_suite(F4, F8, F9):
    with criterion(8, 60.0):
        rng = random.Random(55)
        configs = [(F4, 1), (F4, 2), (F9, 1), (F9, 2), (F8, 1), (F8, 3)]
        done = 0
        while done < 50:
            ctx, n = configs[done % len(configs)]
            f = AdditivePoly.frobenius_minus_id(ctx, n)
            u = rand_ratfunc(rng, ctx, 2)
            spec = asext.ExtensionSpec(f, u)
            if not asext.check_irreducible(spec):
                continue
            algebra = spec.algebra()
            wp = AdditivePoly(ctx, (-ctx.one(), ctx.one()))
            for desc in asext.subextensions(spec):
                z = desc.as_algebra_element(algebra)
                assert asext.qa_verify(
                    algebra, asext.Satisfies(z, wp, desc.rhs))
                h_elems = span_basis(ctx, desc.hyperplane.basis)[1]
                assert asext.qa_verify(algebra, asext.FixedBy(z, tuple(h_elems)))

            # express a random additive combination, then recover it
            y = algebra.y()
            A = [rand_elem(rng, ctx) for _ in range(n)]
            if all(c.is_zero() for c in A):
                continue
            D = rand_ratfunc(rng, ctx, 2)
            z = algebra.const(D)
            for i, c in enumerate(A):
                z = z + c * y ** (ctx.p ** i)
            kernel = [x for x in spec.group.elements
                      if sum((c * x ** (ctx.p ** i) for i, c in enumerate(A)),
                             ctx.zero()).is_zero()]
            rel = asext.generator_relation(spec, z, kernel)
            assert list(rel.A) == A
            assert rel.D == D
            assert len(rel.mu_basis) == n
            done += 1


def test_criterion_09_witt_suite(F2, F3, F9):
    with criterion(9, 120.0):
        # exhaustive ring axioms on the two smallest coefficient fields
        for p in (2, 3):
            rep = oracle.witt_axiom_sampler(p, 2)
            assert rep["mode"] == "exhaustive" and rep["verdict"] == "pass"

        # ring isomorphism with the integers mod p^m
        for p, ctx in ((2, F2), (3, F3)):
            for m in (1, 2, 3):
                t = build_tables(p, m)
                lifts = [witt_lift(t, v, ctx) for v in range(p ** m)]
                assert len(set(lifts)) == p ** m
                for a in range(p ** m):
                    for b in range(p ** m):
                        assert lifts[a] + lifts[b] == lifts[(a + b) % p ** m]
                        assert lifts[a] * lifts[b] == lifts[(a * b) % p ** m]
                        assert lifts[a] - lifts[b] == lifts[(a - b) % p ** m]

        # frobenius distribution and operator additivity over F9(T)
        rng = random.Random(77)
        t = build_tables(3, 2)

        def draw():
            num = rand_poly(rng, F9, 2)
            den = rand_poly(rng, F9, 1, monic=True)
            return RatFunc(num, den)

        for _ in range(500):
            a = WittVector(t, [draw(), draw()])
            b = WittVector(t, [draw(), draw()])
            assert (a + b).frob(1) == a.frob(1) + b.frob(1)
            assert (a * b).frob(1) == a.frob(1) * b.frob(1)
            assert asw_operator(a + b, 9) == asw_operator(a, 9) + asw_operator(b, 9)

        # relation between two generators of the same extension
        mus = default_galois_basis(t, F9, 9)
        els = list(F9.elements())
        zero = RatFunc(Poly(F9))
        done = 0
        while done < 50:
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
            D = WittVector(t, [draw(), draw()])
            alpha = WittVector(t, [draw(), draw()])
            beta = WittVector(t, [zero, zero])
            for j, a in enumerate(A):
                lifted = WittVector(t, tuple(RatFunc.const(F9, c)
                                             for c in a.comps))
                beta = beta + lifted * alpha.frob(j)
            beta = beta + asw_operator(D, 9)
            rel = witt_generator_relation(
                WittExtensionSpec(t, 9, alpha),
                WittExtensionSpec(t, 9, beta), xi_targets)
            assert rel.A == tuple(A)
            assert asw_operator(rel.D, 9) == asw_operator(D, 9)
            done += 1

        # infinite-place invariants across every reduced support profile
        for p, ctx in ((2, F2), (3, F3)):
            x = RatFunc.variable(ctx)
            one = RatFunc.const(ctx, 1)
            z = RatFunc.const(ctx, 0)
            for m in (1, 2, 3):
                tm = build_tables(p, m)
                for s in range(m + 1):
                    for tt in range(s, m + 1):
                        comps = [z] * m
                        for i in range(s, min(tt, m)):
                            comps[i] = one
                        if tt < m:
                            comps[tt] = x
                        got = witt_infinity_splitting(WittVector(tm, comps))
                        assert got == (p ** (m - tt), p ** (tt - s), p ** s), \
                            (p, m, s, tt)
                zero_vec = WittVector(tm, [z] * m)
                assert witt_infinity_splitting(zero_vec) == (1, 1, p ** m)
                assert witt_infinity_full_split(zero_vec, p)

        # an operator image splits completely once reduced
        x9 = RatFunc.variable(F9)
        theta = WittVector(t, [x9 ** 2 + 1, x9])
        assert witt_infinity_full_split(asw_operator(theta, 9), 9)


def test_criterion_10_cli_determinism():
    with criterion(10, 60.0):
        ex = ["--field", "p=3,s=3,gen=w", "--f", "X^27-X",
              "--u", "1/(T+1)^54 + 1/(T+1) + T^9+T^3+T+w+1"]
        invocations = [
            ["reduce", *ex, "--json"],
            ["ramify", *ex, "--json"],
            ["split", *ex, "--place", "inf", "--json"],
            ["subext", *ex, "--json"],
            ["relate", "--field", "p=3,s=2", "--f", "X^9-X", "--u", "T",
             "--z", "y+y^3+1/T", "--fix", "w", "--json"],
            ["combine", "--field", "p=3,s=2", "--gamma", "T", "--gamma",
             "T^2", "--mu", "1", "--mu", "w", "--json"],
            ["witt", "add", "--p", "2", "--m", "2", "[1;0]", "[1;0]",
             "--json"],
            ["witt", "wp", "--field", "p=3,s=2", "--m", "2", "--q", "9",
             "[T;0]", "--json"],
            ["witt", "reduce", "--field", "p=3,s=2", "--m", "2", "--q", "9",
             "[T^18+T;0]", "--json"],
            ["witt", "infty", "--p", "3", "--m", "3", "[0;1;T]", "--json"],
            ["verify", "lemma62", "--q", "4", "--m", "2", "--json"],
            ["verify", "eqstar", "--field", "p=3,s=2", "--f", "X^9-X",
             "--json"],
            ["verify", "axioms", "--p", "3", "--m", "2", "--json"],
            ["verify", "oracle", "--field", "p=3,s=2", "--count", "5",
             "--max-degree", "1", "--seed", "3", "--json"],
        ]
        for argv in invocations:
            first = _run_cli(argv)
            second = _run_cli(argv)
            assert first == second, argv
            json.loads(first)
        # parallel evaluation must not change the report
        base = ["verify", "oracle", "--field", "p=3,s=2", "--count", "5",
                "--max-degree", "1", "--seed", "3", "--json"]
        assert _run_cli(base + ["--jobs", "1"]) == _run_cli(base + ["--jobs", "4"])
