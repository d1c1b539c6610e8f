"""Expression parsing: elements, rational functions, additive polys, vectors."""

from __future__ import annotations

import os
import random
import subprocess
import sys

import pytest

from aspw.errors import ParseError
from aspw.gf import make_field
from aspw.parsing import (
    DEGREE_BOUND,
    parse_additive,
    parse_element,
    parse_field_spec,
    parse_modulus,
    parse_poly,
    parse_ratfunc,
    parse_witt,
    parse_with_names,
)
from aspw.upoly import Poly, RatFunc, partial_fractions, pf_string


class TestElements:
    def test_constants_and_generator(self, F9):
        w = F9.gen()
        assert parse_element(F9, "w") == w
        assert parse_element(F9, "w^2+2w+1") == w ** 2 + 2 * w + F9.one()
        assert parse_element(F9, "2") == F9.from_int(2)
        assert parse_element(F9, "-1") == -F9.one()

    def test_implicit_multiplication(self, F9):
        w = F9.gen()
        assert parse_element(F9, "2w") == 2 * w
        assert parse_element(F9, "(w+1)(w+2)") == (w + 1) * (w + 2)

    def test_nonconstant_rejected(self, F9):
        with pytest.raises(ParseError):
            parse_element(F9, "T+1")

    def test_prime_field_has_no_generator_symbol(self, F3):
        with pytest.raises(ParseError):
            parse_element(F3, "w")


class TestRatFunc:
    def test_roundtrip_through_printer(self, F27):
        text = "1/(T+1)^2 + 1/(T+1) + T^9+T^3+T+w+1"
        u = parse_ratfunc(F27, text)
        assert pf_string(u) == text

    def test_division_and_powers(self, F9):
        u = parse_ratfunc(F9, "(T^2+1)/(T^3+2T)")
        T = Poly.variable(F9)
        assert u == RatFunc(T * T + Poly.const(F9, 1), T ** 3 + 2 * T)

    def test_division_by_zero(self, F9):
        with pytest.raises(ParseError):
            parse_ratfunc(F9, "1/(T-T)")

    def test_position_diagnostics(self, F9):
        with pytest.raises(ParseError, match="position"):
            parse_ratfunc(F9, "T + ?")

    def test_degree_bound_on_powers(self, F9):
        assert parse_ratfunc(F9, "T^729").num.degree() == DEGREE_BOUND == 729
        assert parse_ratfunc(F9, "w^100000") == parse_ratfunc(F9, "w^4")
        for text in ("T^730", "1/T^3000000", "(T^2+1)^365", "(1/(T+1))^100000000"):
            with pytest.raises(ParseError, match="degree bound 729"):
                parse_ratfunc(F9, text)

    def test_power_binds_to_the_last_symbol_of_a_run(self, F9):
        # "wT^2" is w*T^2, not (wT)^2
        for text, explicit in (("wT^2", "w*T^2"), ("wT^2", "w T^2"),
                               ("2wT^3+1", "2w*T^3+1"), ("TwT^2", "T*w*T^2")):
            assert parse_ratfunc(F9, text) == parse_ratfunc(F9, explicit)
        assert parse_ratfunc(F9, "(wT)^2") == parse_ratfunc(F9, "w^2*T^2")

    def test_degree_bound_on_every_operation(self, F9):
        for text, what in (("T^729*T^729", "product at position 5"),
                           ("1/(T^729*T^729*T^729)", "product at position 8"),
                           ("T^400 T^400", "product at position 6"),
                           ("T^729/(1/T)", "quotient at position 5"),
                           ("1/T^729-T^729", "difference at position 7"),
                           ("1/T^729+T^729", "sum at position 7"),
                           ("*".join(["T^100"] * 10), "product at position 41")):
            with pytest.raises(ParseError, match=f"{what} exceeds the degree bound 729"):
                parse_ratfunc(F9, text)
        assert parse_ratfunc(F9, "T^729/T*T").num.degree() == 729
        assert parse_ratfunc(F9, "(T^729+1)/(T^729+2)").den.degree() == 729

    def test_unbalanced_parens(self, F9):
        with pytest.raises(ParseError):
            parse_ratfunc(F9, "w/(T")


class TestPoly:
    def test_poly_narrowing(self, F9):
        P = parse_poly(F9, "T^2+wT+2")
        assert P.degree() == 2

    def test_rational_rejected(self, F9):
        with pytest.raises(ParseError):
            parse_poly(F9, "1/T")


class TestAdditive:
    def test_formula_form(self, F27):
        f = parse_additive(F27, "X^27-X")
        assert f.n == 3
        assert [a.to_int() for a in f.a] == [2, 0, 0, 1]

    def test_mixed_coefficients(self, F9):
        w = F9.gen()
        f = parse_additive(F9, "X^9+2X^3+wX")
        assert f.a == (w, F9.from_int(2), F9.one())
        # the power binds to X only: wX^3 is w*X^3
        assert parse_additive(F9, "X^9+wX^3+X").a == (F9.one(), w, F9.one())

    def test_coefficient_list_form(self, F9):
        f = parse_additive(F9, "[w, 2, 1]")
        assert f == parse_additive(F9, "X^9+2X^3+wX")

    def test_non_p_power_monomial_rejected(self, F9):
        with pytest.raises(ParseError):
            parse_additive(F9, "X^2+X")

    def test_zero_rejected(self, F9):
        with pytest.raises(ParseError):
            parse_additive(F9, "X-X")


class TestWittVectors:
    def test_components(self, F9):
        comps = parse_witt(F9, "[T; w/(T+1); 0]")
        assert len(comps) == 3
        assert pf_string(comps[1]) == "w/(T+1)"

    def test_single_component(self, F3):
        comps = parse_witt(F3, "[T^2+1]")
        assert len(comps) == 1

    def test_missing_brackets(self, F3):
        with pytest.raises(ParseError):
            parse_witt(F3, "T; 1")


class TestFieldSpec:
    def test_default_modulus(self):
        ctx = parse_field_spec("p=3,s=2")
        assert (ctx.p, ctx.s) == (3, 2)

    def test_explicit_modulus(self):
        ctx = parse_field_spec("p=3,s=3,mod=x^3-x-2")
        w = ctx.gen()
        assert w ** 3 == w + 2

    def test_modulus_text(self):
        assert parse_modulus(3, "x^3-x-2") == (1, 2, 0, 1)

    def test_missing_keys(self):
        with pytest.raises(ParseError):
            parse_field_spec("p=3")
        with pytest.raises(ParseError):
            parse_field_spec("p=3,s=2,foo=1")


class TestGenericNames:
    def test_custom_symbols(self, F9):
        names = {
            "__int__": lambda v: RatFunc.const(F9, v),
            "T": RatFunc.variable(F9),
        }
        u = parse_with_names("T^2 + 2", names)
        assert pf_string(u) == "T^2+2"


class TestKeptDecomposition:
    """A sum of pole terms c/(T+a)^k and polynomials keeps the decomposition
    it was read as (RatFunc._pf) for as long as u lives; a Witt vector's
    components are held for a whole computation, so c*(T+a)/(T+b), the
    common component shape, keeps none."""

    def test_only_sums_of_pole_terms_keep_one(self, F9):
        assert getattr(parse_ratfunc(F9, "w*(T+1)/(T+w)"), "_pf", None) is None
        assert [getattr(c, "_pf", None) for c in parse_witt(F9, "[w*(T+1)/(T+w); 2*(T)/(T+w+1)]")
                ] == [None, None]
        u = parse_ratfunc(F9, "(2*w+1)/(T+(w+2))^4 + (w)/(T)^3 + (w+1)*T^9 + (2)*T + (2*w)")
        assert getattr(u, "_pf", None) is not None


class TestPolynomialFirst:
    """parse_ratfunc evaluates polynomials as Polys, lifts at a "/", and reads
    a sum of polynomials and pole terms c/(T+a)^k, c a constant, as u's
    partial fractions; the old evaluation ran every step on RatFuncs.  Both
    must give the same value or the same ParseError text, and a decomposition
    that u keeps must equal a fresh partial_fractions of RatFunc(u.num, u.den),
    block by block.  Seeded, so a failure replays."""

    EDGE = ["1/(T-T)", "(w-w)^0/T", "T^730/T", "(1/T)^729", "0^0", "1/0", "0/T", "T/0",
            "(T^2-1)/(T-1)", "(T-1)/(2T-2)", "1/(1/T - 1/T)", "T^729+1/T", "2(T+1)^800",
            "T*T^729", "(T+1)^9/(T+1)^9", "-(1/T)^3", "+-T", "wT^2/w", "1/T^0", "(T",
            "T)", "T^", "T^w", "T +* 1", "q", "T^9^2", "", "()", "w^0", "0^5/T",
            # sums of pole terms c/(T+a)^k and polynomials, read as blocks
            "1/T^500 + 1/(T+1)^300", "1/T^729 + T", "T - 1/T^729", "1/T^729 - 1/T^729 + T^729",
            "1/T + 1/T^2 + (1/T", "1/T + 1/T^", "-1/T^2 -", "1/(T+w)^730", "1/T + 1/T^0/0",
            "1/T + 1/(T-T)", "1/T + 1/T^9^2", "1/T^3 - 1/T^3 + 1/(T+w)^729 + T",
            # pole terms and sums that are summed as values
            "(T+1)/(T+1)^3", "1/T^0 + 1/T", "1/T^2*T + 1/T", "(1/T + 1/(T+1)) + 1/T",
            "((1/T)) + 1", "1/-T^2 + 1/T", "0/T + 1/T", "1/T/T + 1/T", "1/T + T/(T+1)",
            "1/T + 1/(T^2+1)", "1/T^729 + 1/(T+1)", "1/T^400 + T^400"]
    # sums that must keep the decomposition they were read as: repeated and
    # cancelling places, zero and constant polynomial parts
    POLE_SUMS = ["1/T - 1/T", "1/T - 1/T + 0", "1/T - 1/T + 1/(T+1)", "1/T^2 + 1/T - 1/T^2",
                 "1/(T+1)^2 + 1/(1+T)^2", "1/T^3 + T - T", "1/T + 1", "-1/T^2 - 1/T", "T^2 + 1/T", "0 + 1/T",
                 "1/(T+1)^54 + 1/(T+1) + 1/T^2 + T^9"]

    @staticmethod
    def _old_names(ctx, var="T"):
        names = {
            "__int__": lambda v: RatFunc.const(ctx, v),
            ctx.generator_name: RatFunc.const(ctx, ctx.gen()),
            var: RatFunc.variable(ctx),
        }
        if ctx.s == 1:
            del names[ctx.generator_name]
        return names

    @staticmethod
    def _outcome(fn):
        try:
            return fn()
        except ParseError as exc:
            return str(exc)

    @staticmethod
    def _corpus(rng, p, s):
        """(text, whether it is a sum of pole terms, one at least, and
        polynomials): workload-shaped right sides, random expressions and
        their prefixes, random sums of pole terms, polynomials and other
        shapes (c/P^0, a non-constant numerator, a product after a quotient,
        a parenthesised sum, a quotient by -P^k)."""
        def elem():
            c = rng.randrange(1, p ** s)
            digits = [(c // p ** i) % p for i in range(s)]
            terms = [f"{d}" if i == 0 else f"{d}w^{i}" for i, d in enumerate(digits) if d]
            return "(" + "+".join(terms) + ")"

        def expr(depth):
            if depth == 0 or rng.random() < 0.3:
                return rng.choice(["T", "w", "wT", "2T", "T^2", "0", str(rng.randrange(1, 12))])
            a, b = expr(depth - 1), expr(depth - 1)
            op = rng.choice(["+", "-", "*", "/", "", "^"])
            if op == "^":
                return f"({a})^{rng.randrange(0, 6)}"
            return f"({a}){op}({b})" if rng.random() < 0.7 else f"{a}{op}{b}"

        out = []
        for _ in range(15):
            out.append((f"{elem()}/(T+{elem()})^{rng.randrange(1, 10)}"
                        f" + {elem()}/(T+{elem()})^{p * rng.randrange(1, 4)}"
                        f" + {elem()}*T^{p ** rng.randrange(1, 3)} + {elem()}*T + {elem()}", True))
            text = expr(4)
            out += [(text, False), (text[:rng.randrange(len(text) + 1)], False)]
        places = ["T"] + [f"(T+{elem()})" for _ in range(3)]
        pole = [lambda P: f"{elem()}/{P}^{rng.randrange(1, 2 * p + 2)}",
                lambda P: f"{elem()}/{P}",
                lambda P: f"-{elem()}/{P}^{rng.choice([p, 2 * p, 1])}"]
        poly = [lambda P: f"{elem()}*T^{rng.randrange(0, 4)}", lambda P: elem(), lambda P: "0"]
        other = [lambda P: f"{elem()}/{P}^0", lambda P: f"(T+{elem()})/{P}^3",
                 lambda P: f"{elem()}/{P}^2*T",
                 lambda P: f"({elem()}/{P}^2 - {elem()}/{rng.choice(places)})",
                 lambda P: f"{elem()}/-{P}^2"]
        for _ in range(100):
            kinds = [rng.choice([pole, pole, poly, other if rng.random() < 0.3 else poly])
                     for _ in range(rng.randrange(1, 6))]
            terms = [rng.choice(kind)(rng.choice(places)) for kind in kinds]
            text = terms[0] + "".join(rng.choice([" + ", " - "]) + t for t in terms[1:])
            out.append((text, other not in kinds and pole in kinds))
        return out

    @classmethod
    def check_field(cls, p, s) -> list[str]:
        """Check every text over F_{p^s}; the decompositions kept, as text."""
        ctx = make_field(p, s)
        old = cls._old_names(ctx)
        texts = ([(text, False) for text in cls.EDGE] + [(text, True) for text in cls.POLE_SUMS]
                 + cls._corpus(random.Random(10 * p + s), p, s))
        kept = []
        for text, pole_sum in texts:
            u = cls._outcome(lambda: parse_ratfunc(ctx, text))
            v = cls._outcome(lambda: parse_with_names(text, old))
            if isinstance(u, str) or isinstance(v, str):
                assert u == v, text
                continue
            assert (u.num, u.den) == (v.num, v.den), text
            assert getattr(u, "_pf", None) is not None or not pole_sum, text
            if getattr(u, "_pf", None) is not None:
                got, fresh = partial_fractions(u), partial_fractions(RatFunc(u.num, u.den))
                assert (got.poly_part, got.blocks) == (fresh.poly_part, fresh.blocks), text
                kept.append(f"{text} -> {got.poly_part} | {got.blocks}")
        return kept

    @pytest.mark.parametrize("p, s", [(2, 2), (3, 1), (3, 2), (3, 3), (2, 3), (5, 1)])
    def test_matches_the_rational_function_evaluation(self, p, s):
        assert len(self.check_field(p, s)) > 60

    def test_kept_blocks_do_not_depend_on_the_hash_seed(self):
        root = os.path.join(os.path.dirname(__file__), os.pardir)
        code = ("import sys; sys.path[:0] = ['src', 'tests']; import test_parsing as t; "
                "print('\\n'.join(line for p, s in [(2, 2), (2, 3), (3, 2)] "
                "for line in t.TestPolynomialFirst.check_field(p, s)))")
        outs = {subprocess.run([sys.executable, "-c", code], cwd=root, check=True,
                               capture_output=True, text=True,
                               env={**os.environ, "PYTHONHASHSEED": seed}).stdout
                for seed in ("0", "1")}
        assert len(outs) == 1 and outs.pop().count("\n") > 200
