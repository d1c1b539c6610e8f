"""Command line interface: frozen text output, JSON envelopes, exit codes."""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import os
import random
import time

import pytest

from aspw import asext, cli, oracle, upoly
from aspw.gf import make_field
from aspw.parsing import parse_field_spec, parse_witt
from aspw.witt import WittVector, build_tables, ghost_components, witt_arith

from conftest import rand_poly
from place_reference import monic_irreducibles

EX_FIELD = "p=3,s=3,gen=w"
EX_F = "X^27-X"
EX_U = "1/(T+1)^54 + 1/(T+1) + T^9+T^3+T+w+1"
# 25 generators z^2 - z = T^(2k+1), k < 25, each with multiplier 1
_GAMMA_MU_25 = [a for k in range(25) for a in ("--gamma", f"T^{2 * k + 1}", "--mu", "1")]


@pytest.fixture
def run(capsys):
    def _run(argv):
        code = cli.main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return _run


class TestReduce:
    def test_worked_example_text(self, run):
        code, out, _ = run(["reduce", "--field", EX_FIELD, "--f", EX_F,
                            "--u", EX_U])
        assert code == 0
        assert out.splitlines() == [
            "u: 1/(T+1)^54 + 1/(T+1) + T^9+T^3+T+w+1",
            "reduced: 1/(T+1)^2 + 1/(T+1) + T^9+T^3+T+w+1",
            "  shift: 1/(T+1)^2",
        ]

    def test_json_envelope(self, run):
        code, out, _ = run(["reduce", "--field", "p=3,s=2", "--f", "X^9-X",
                            "--u", "T^18+T", "--json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == "aspw/1"
        assert doc["command"] == "reduce"
        assert doc["reduced"] == "T^2+T"
        assert doc["steps"] == [{"delta": "T^2", "kind": "shift"}]
        # keys are emitted sorted so reruns are byte-comparable
        assert out == json.dumps(doc, sort_keys=True) + "\n"

    def test_descend_flag(self, run):
        code, out, _ = run(["reduce", "--field", "p=3,s=2", "--f", "X^9-X",
                            "--u", "T^6", "--descend", "--json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["reduced"] == "T^2"
        assert doc["steps"] == [{"kind": "descend", "value": "T^2"}]

    def test_f64_stress_case_finishes_quickly(self, run):
        # 63 hyperplane layers share u's two order-128 poles; each layer is
        # reduced on its partial-fraction blocks from one factorisation
        start = time.perf_counter()
        code, out, _ = run(["reduce", "--field", "p=2,s=6", "--f", "X^64-X",
                            "--u", "1/(T^2+T+1)^128+T^5"])
        assert time.perf_counter() - start < 1.5
        assert code == 0
        assert out.splitlines()[1] == (
            "reduced: 1/(T+w^5+w^4+w^3+w)^2 + 1/(T+w^5+w^4+w^3+w+1)^2 + T^5")

    def test_f729_pole_of_order_729_finishes_quickly(self, run):
        # irreducibility builds one standard form per coordinate layer, 6
        # here, for the 364 layers
        start = time.perf_counter()
        code, out, _ = run(["reduce", "--field", "p=3,s=6", "--f", "X^729-X",
                            "--u", "1/T^729"])
        assert time.perf_counter() - start < 1.5
        assert code == 0
        assert out.splitlines() == ["u: 1/T^729", "reduced: 1/T", "  shift: 1/T"]


class TestRamify:
    def test_worked_example(self, run):
        code, out, _ = run(["ramify", "--field", EX_FIELD, "--f", EX_F,
                            "--u", EX_U])
        assert code == 0
        assert out.splitlines() == [
            "reduced: 1/(T+1)^2 + 1/(T+1) + T^9+T^3+T+w+1",
            "place (T+1): ramified, e=27, lambda=2, m=0, exact=True",
            "infinity: ramified, e divisible by 3, lambda=1, m=2, exact=False",
        ]


class TestSplit:
    def test_infinite_place_of_worked_example(self, run):
        code, out, _ = run(["split", "--field", EX_FIELD, "--f", EX_F,
                            "--u", EX_U, "--place", "inf"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "place: inf"
        assert lines[1] == "e=3 f=3 g=3"
        assert "H=(0,0,1): split" in lines
        assert "H=(0,1,0): inert" in lines
        assert "H=(1,0,0): ramified" in lines
        assert lines[-2] == "decomposition field: (0,0,1)"
        assert lines[-1] == "inertia field: (0,0,1) (0,1,0) (0,1,1) (0,1,2)"


    @pytest.mark.parametrize("place, budget, efg", [
        ("T^7+2T^2+1", 1.0, "e=1 f=3 g=3"),
        ("T^5+2T+1", 0.2, "e=1 f=1 g=9"),
    ])
    def test_high_degree_places_finish_quickly(self, run, place, budget, efg):
        # the traces are taken in F_9[T]/(P), not in a field of order 9^deg P
        start = time.perf_counter()
        code, out, _ = run(["split", "--field", "p=3,s=2", "--f", "X^9-X",
                            "--u", "1/(T^2+1)+T", "--place", place])
        assert time.perf_counter() - start < budget
        assert code == 0
        assert out.splitlines()[:2] == [f"place: {place}", efg]


class TestSubext:
    def test_descriptor_lines(self, run):
        code, out, _ = run(["subext", "--field", EX_FIELD, "--f", EX_F,
                            "--u", EX_U])
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 13
        assert lines[0] == ("H=(0,0,1) z=y+y^3+y^9 "
                            "rhs: 1/(T+1)^2 + 1/(T+1) + T^9+T^3+T+w+1")
        assert lines[1].startswith("H=(0,1,0) z=(w)y+(w+2)y^3+(w+1)y^9 "
                                   "rhs: w/(T+1)^2 + w/(T+1)")

    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    def test_each_rational_function_rendered_once(self, run, monkeypatch, json_flag):
        # pf_string factors the denominator: one call per hyperplane's rhs
        # and one for the reduced u, whichever output mode prints them
        calls = []

        def counting(r, *a, **kw):
            calls.append(r)
            return real(r, *a, **kw)

        real = cli.pf_string
        monkeypatch.setattr(cli, "pf_string", counting)
        code, _, _ = run(["subext", "--field", EX_FIELD, "--f", EX_F, "--u", EX_U, *json_flag])
        assert code == 0
        assert len(calls) == 13 + 1


class TestRelate:
    def test_expression_through_generator(self, run):
        code, out, _ = run(["relate", "--field", "p=3,s=2", "--f", "X^9-X",
                            "--u", "T", "--z", "y+y^3+1/T", "--fix", "w"])
        assert code == 0
        assert out.splitlines() == [
            "z = y+y^3 + 1/T",
            "subgroup: 0 w 2w",
            "mu basis: 1 w",
        ]

    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    def test_constant_rendered_once(self, run, monkeypatch, json_flag):
        # the formula and the JSON's "D" share one rendering of D
        calls = []

        def counting(r, *a, **kw):
            calls.append(r)
            return real(r, *a, **kw)

        real = cli.pf_string
        for module in (asext, cli):
            monkeypatch.setattr(module, "pf_string", counting)
        code, _, _ = run(["relate", "--field", "p=3,s=2", "--f", "X^9-X", "--u", "T",
                          "--z", "y+y^3+1/T", "--fix", "w", *json_flag])
        assert code == 0
        assert len(calls) == 1


class TestCombine:
    def test_polynomial_pieces(self, run):
        code, out, _ = run(["combine", "--field", "p=3,s=2",
                            "--gamma", "T", "--gamma", "T^2",
                            "--mu", "1", "--mu", "w"])
        assert code == 0
        assert out.splitlines() == [
            "u: (w)T^6+T^3+(w)T^2+T",
            "y = z1+(w)z2",
            "v_inf(u) = -6",
            "infinity: ramified, e divisible by 3, exact=False",
            "assembled at infinity: e=9 f=1 g=1",
        ]

    def test_pole_piece(self, run):
        code, out, _ = run(["combine", "--field", "p=3,s=2",
                            "--gamma", "T", "--gamma", "1/T",
                            "--mu", "1", "--mu", "w"])
        assert code == 0
        lines = out.splitlines()
        assert lines[2] == "v_inf(u) = -3"
        assert lines[-1] == "assembled at infinity: e=3 f=1 g=3"


# split and combine --json documents, pinned so that any drift in a verdict
# or a tag fails here; the --place argument is appended to each spec.
# T^3+T+1 and T^2+T+1 are reducible over F_8 and F_4, so those two specs
# use the first irreducible place of the same degree.
WORKED = ["--field", EX_FIELD, "--f", EX_F, "--u", EX_U]
SPEC9 = ["--field", "p=3,s=2", "--f", "X^9-X", "--u", "1/(T^2+1)+T"]
SPEC8 = ["--field", "p=2,s=3", "--f", "X^8-X", "--u", "1/(T+1)+T^3"]
SPEC4 = ["--field", "p=2,s=2", "--f", "X^4-X", "--u", "(w)T+1/T^3"]

PINNED_SPLITS = [
    (WORKED, "inf", "e=3 f=3 g=3",
     "(0,0,1):split (0,1,0):inert (0,1,1):inert (0,1,2):inert (1,0,0):ramified "
     "(1,0,1):ramified (1,0,2):ramified (1,1,0):ramified (1,1,1):ramified "
     "(1,1,2):ramified (1,2,0):ramified (1,2,1):ramified (1,2,2):ramified",
     "(0,0,1)",
     "(0,0,1) (0,1,0) (0,1,1) (0,1,2)"),
    (WORKED, "T", "e=1 f=3 g=9",
     "(0,0,1):split (0,1,0):inert (0,1,1):inert (0,1,2):inert (1,0,0):split (1,0,1):split "
     "(1,0,2):split (1,1,0):inert (1,1,1):inert (1,1,2):inert (1,2,0):inert (1,2,1):inert "
     "(1,2,2):inert",
     "(0,0,1) (1,0,0) (1,0,1) (1,0,2)",
     "(0,0,1) (0,1,0) (0,1,1) (0,1,2) (1,0,0) (1,0,1) (1,0,2) (1,1,0) (1,1,1) (1,1,2) "
     "(1,2,0) (1,2,1) (1,2,2)"),
    (WORKED, "T+1", "e=27 f=1 g=1",
     "(0,0,1):ramified (0,1,0):ramified (0,1,1):ramified (0,1,2):ramified "
     "(1,0,0):ramified (1,0,1):ramified (1,0,2):ramified (1,1,0):ramified "
     "(1,1,1):ramified (1,1,2):ramified (1,2,0):ramified (1,2,1):ramified "
     "(1,2,2):ramified",
     "",
     ""),
    (WORKED, "T^2+1", "e=1 f=3 g=9",
     "(0,0,1):split (0,1,0):inert (0,1,1):inert (0,1,2):inert (1,0,0):split (1,0,1):split "
     "(1,0,2):split (1,1,0):inert (1,1,1):inert (1,1,2):inert (1,2,0):inert (1,2,1):inert "
     "(1,2,2):inert",
     "(0,0,1) (1,0,0) (1,0,1) (1,0,2)",
     "(0,0,1) (0,1,0) (0,1,1) (0,1,2) (1,0,0) (1,0,1) (1,0,2) (1,1,0) (1,1,1) (1,1,2) "
     "(1,2,0) (1,2,1) (1,2,2)"),
    (SPEC9, "T^5+2T+1", "e=1 f=1 g=9",
     "(0,1):split (1,0):split (1,1):split (1,2):split",
     "(0,1) (1,0) (1,1) (1,2)",
     "(0,1) (1,0) (1,1) (1,2)"),
    (SPEC9, "T^7+2T^2+1", "e=1 f=3 g=3",
     "(0,1):split (1,0):inert (1,1):inert (1,2):inert",
     "(0,1)",
     "(0,1) (1,0) (1,1) (1,2)"),
    (SPEC8, "inf", "e=8 f=1 g=1",
     "(0,0,1):ramified (0,1,0):ramified (0,1,1):ramified (1,0,0):ramified "
     "(1,0,1):ramified (1,1,0):ramified (1,1,1):ramified",
     "",
     ""),
    (SPEC8, "T", "e=1 f=2 g=4",
     "(0,0,1):split (0,1,0):split (0,1,1):split (1,0,0):inert (1,0,1):inert (1,1,0):inert "
     "(1,1,1):inert",
     "(0,0,1) (0,1,0) (0,1,1)",
     "(0,0,1) (0,1,0) (0,1,1) (1,0,0) (1,0,1) (1,1,0) (1,1,1)"),
    (SPEC8, "T^3+T+w", "e=1 f=2 g=4",
     "(0,0,1):split (0,1,0):inert (0,1,1):inert (1,0,0):split (1,0,1):split (1,1,0):inert "
     "(1,1,1):inert",
     "(0,0,1) (1,0,0) (1,0,1)",
     "(0,0,1) (0,1,0) (0,1,1) (1,0,0) (1,0,1) (1,1,0) (1,1,1)"),
    (SPEC4, "T+1", "e=1 f=2 g=2",
     "(0,1):inert (1,0):inert (1,1):split",
     "(1,1)",
     "(0,1) (1,0) (1,1)"),
    (SPEC4, "T^2+T+w", "e=1 f=2 g=2",
     "(0,1):split (1,0):inert (1,1):inert",
     "(0,1)",
     "(0,1) (1,0) (1,1)"),
]


class TestPinnedJson:
    @pytest.mark.parametrize("spec, place, efg, verdicts, dec_tags, in_tags", PINNED_SPLITS)
    def test_split(self, run, spec, place, efg, verdicts, dec_tags, in_tags):
        e, f, g = (int(part.split("=")[1]) for part in efg.split())
        doc = {
            "schema": "aspw/1", "command": "split", "place": place,
            "e": e, "f": f, "g": g,
            "hyperplanes": [dict(zip(("label", "verdict"), hv.split(":")))
                            for hv in verdicts.split()],
            "decomposition_tags": dec_tags.split(), "inertia_tags": in_tags.split(),
        }
        assert run(["split", *spec, "--place", place, "--json"]) == (
            0, json.dumps(doc, sort_keys=True) + "\n", "")

    @pytest.mark.parametrize("gammas, assembled, infinity, u, v_inf", [
        (["T", "T^2"], {"e": 9, "f": 1, "g": 1},
         {"e_bound": 3, "exact": False, "lambda": 2, "m": 1, "ramified": True},
         "(w)T^6+T^3+(w)T^2+T", -6),
        (["T", "1/T"], {"e": 3, "f": 1, "g": 3},
         {"e_bound": 3, "exact": False, "lambda": 1, "m": 1, "ramified": True},
         "w/T^3 + w/T + T^3+T", -3),
    ])
    def test_combine(self, run, gammas, assembled, infinity, u, v_inf):
        doc = {"schema": "aspw/1", "command": "combine", "assembled": assembled,
               "formula": "z1+(w)z2", "infinity": infinity, "u": u, "v_inf": v_inf}
        argv = ["combine", "--field", "p=3,s=2", "--gamma", gammas[0], "--gamma", gammas[1],
                "--mu", "1", "--mu", "w", "--json"]
        assert run(argv) == (0, json.dumps(doc, sort_keys=True) + "\n", "")


# ramify and combine output with a ramified and an unramified infinity,
# byte for byte, in text and in --json
PINNED_INFINITY = [
    (["ramify", "--field", "p=2,s=2", "--f", "X^4-X", "--u", "(w)T^6+1/T^3"],
     "reduced: 1/T^3 + (w)T^6\n"
     "place (T): ramified, e=4, lambda=3, m=0, exact=True\n"
     "infinity: ramified, e divisible by 2, lambda=3, m=1, exact=False\n",
     '{"command": "ramify", "finite": [{"e_bound": 4, "exact": true, "lambda": 3, "m": 0, '
     '"place": "T"}], "infinity": {"e_bound": 2, "exact": false, "lambda": 3, "m": 1, '
     '"ramified": true}, "reduced": "1/T^3 + (w)T^6", "schema": "aspw/1"}\n'),
    (["ramify", "--field", "p=3,s=2", "--f", "X^9-X", "--u", "1/T^6 + w/(T^2+1)"],
     "reduced: 1/T^6 + 1/(T+w) + 2/(T+2w)\n"
     "place (T): ramified, e divisible by 3, lambda=2, m=1, exact=False\n"
     "place (T+w): ramified, e=9, lambda=1, m=0, exact=True\n"
     "place (T+2w): ramified, e=9, lambda=1, m=0, exact=True\n"
     "infinity: unramified\n",
     '{"command": "ramify", "finite": [{"e_bound": 3, "exact": false, "lambda": 2, "m": 1, '
     '"place": "T"}, {"e_bound": 9, "exact": true, "lambda": 1, "m": 0, "place": "T+w"}, '
     '{"e_bound": 9, "exact": true, "lambda": 1, "m": 0, "place": "T+2w"}], '
     '"infinity": {"ramified": false}, "reduced": "1/T^6 + 1/(T+w) + 2/(T+2w)", '
     '"schema": "aspw/1"}\n'),
    (["combine", "--field", "p=3,s=2", "--gamma", "T", "--gamma", "T^2", "--mu", "1", "--mu", "w"],
     "u: (w)T^6+T^3+(w)T^2+T\ny = z1+(w)z2\nv_inf(u) = -6\n"
     "infinity: ramified, e divisible by 3, exact=False\n"
     "assembled at infinity: e=9 f=1 g=1\n",
     '{"assembled": {"e": 9, "f": 1, "g": 1}, "command": "combine", "formula": "z1+(w)z2", '
     '"infinity": {"e_bound": 3, "exact": false, "lambda": 2, "m": 1, "ramified": true}, '
     '"schema": "aspw/1", "u": "(w)T^6+T^3+(w)T^2+T", "v_inf": -6}\n'),
    (["combine", "--field", "p=3,s=2", "--gamma", "1/T", "--gamma", "1/(T+1)^2",
      "--mu", "1", "--mu", "w"],
     "u: 1/T^3 + 1/T + w/(T+1)^6 + w/(T+1)^2\ny = z1+(w)z2\nv_inf(u) = 1\n"
     "infinity: unramified\nassembled at infinity: e=1 f=1 g=9\n",
     '{"assembled": {"e": 1, "f": 1, "g": 9}, "command": "combine", "formula": "z1+(w)z2", '
     '"infinity": {"ramified": false}, "schema": "aspw/1", '
     '"u": "1/T^3 + 1/T + w/(T+1)^6 + w/(T+1)^2", "v_inf": 1}\n'),
]


@pytest.mark.parametrize("argv, text, doc", PINNED_INFINITY)
def test_infinity_output_is_pinned(run, argv, text, doc):
    assert run(argv) == (0, text, "")
    assert run(argv + ["--json"]) == (0, doc, "")


class TestWitt:
    def test_add_with_carry(self, run):
        code, out, _ = run(["witt", "add", "--p", "2", "--m", "2",
                            "[1;0]", "[1;0]"])
        assert code == 0
        assert out.splitlines() == ["[0;1]", "ghost: [0, 2]"]

    def test_mul(self, run):
        code, out, _ = run(["witt", "mul", "--p", "3", "--m", "2",
                            "[2;0]", "[2;0]"])
        assert code == 0
        assert out.splitlines() == ["[1;0]", "ghost: [1, 1]"]

    def test_constant_and_rational_operands(self, run):
        assert run(["witt", "add", "--p", "3", "--m", "2", "[0;1]", "[T;1]"]) == (0, "[T;2]\n", "")
        assert run(["witt", "mul", "--p", "3", "--m", "2", "[0;1]", "[T;1]"]) == (0, "[0;T^3]\n", "")

    @pytest.mark.parametrize("op", ["add", "mul"])
    @pytest.mark.parametrize("field", ["p=3,s=1", "p=2,s=2"], ids=["F3", "F4"])
    def test_mixed_operands_match_the_rational_arithmetic(self, run, field, op):
        # a constant vector and a rational one are both vectors over k0(T);
        # a constant result over a prime field prints its ghost components
        ctx = parse_field_spec(field)
        tables = build_tables(ctx.p, 2)
        rng = random.Random(11)
        els = [str(c) for c in ctx.elements()]
        cases = [("[0;0]", "[T;1]")]  # a zero product is a constant result
        while len(cases) < 12:
            const = "[" + ";".join(rng.choice(els) for _ in range(2)) + "]"
            rat = "[" + ";".join(f"({rand_poly(rng, ctx, 2)})/({rand_poly(rng, ctx, 1, monic=True)})"
                                 for _ in range(2)) + "]"
            if not WittVector(tables, parse_witt(ctx, rat)).is_constant():
                cases.append((const, rat))
        ghosts = 0
        for k, (const, rat) in enumerate(cases):
            a, b = (const, rat) if k % 2 else (rat, const)
            want = witt_arith(op, *(WittVector(tables, parse_witt(ctx, v)) for v in (a, b)))
            lines = ["[" + ";".join(map(str, want.comps)) + "]"]
            if ctx.s == 1 and want.is_constant():
                comps = [c.constant_value().to_int() for c in want.comps]
                lines.append(f"ghost: {list(ghost_components(ctx.p, comps))}")
                ghosts += 1
            argv = ["witt", op, "--field", field, "--m", "2", a, b]
            assert run(argv) == (0, "".join(line + "\n" for line in lines), ""), argv
        assert (ghosts > 0) == (ctx.s == 1 and op == "mul")

    def test_operator(self, run):
        code, out, _ = run(["witt", "wp", "--field", "p=3,s=2", "--m", "2",
                            "--q", "9", "[T;0]"])
        assert code == 0
        assert out.splitlines() == ["[T^9+2T;T^19+2T^11]"]

    def test_reduce(self, run):
        code, out, _ = run(["witt", "reduce", "--field", "p=3,s=2", "--m", "2",
                            "--q", "9", "[T^18+T;0]"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "alpha: [T^18+T;0]"
        assert lines[1] == "reduced: [T^2+T;T^37+T^20+2T^5+2T^4]"
        assert lines[2] == "  shift: [T^2;0]"

    def test_infty(self, run):
        code, out, _ = run(["witt", "infty", "--p", "3", "--m", "3",
                            "[0;1;T]"])
        assert code == 0
        assert out.splitlines() == ["e=3 f=3 g=3"]

    def test_subext(self, run):
        code, out, _ = run(["witt", "subext", "--field", "p=3,s=2", "--m", "2",
                            "--q", "9", "--xi", "[1;0]", "[T;0]"])
        assert code == 0
        assert out.splitlines() == [
            "z = ([1; 0]).y + ([1; 0]).y^3",
            "rhs: [T;0]",
            "full degree: True",
        ]

    def test_relate_identity(self, run):
        code, out, _ = run(["witt", "relate", "--field", "p=3,s=2", "--m", "2",
                            "--q", "9", "--xi", "[1;0]", "--xi", "[w;0]",
                            "[T;0]", "[T;0]"])
        assert code == 0
        assert out.splitlines() == [
            "z = ([1; 0]).y",
            "D: [0;0]",
            "mu basis: [1; 0] [w; 0]",
        ]


class TestVerify:
    def test_lemma62_text(self, run):
        code, out, _ = run(["verify", "lemma62", "--q", "4", "--m", "2"])
        assert code == 0
        assert out == "scaled-image equivalence: pass\n"

    def test_lemma62_json(self, run):
        code, out, _ = run(["verify", "lemma62", "--q", "4", "--m", "2",
                            "--json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "verify lemma62"
        assert doc["parameters"] == {"m": 2, "q": 4}
        assert doc["verdict"] == "pass"
        assert doc["mode"] == "exhaustive"

    def test_eqstar(self, run):
        code, out, _ = run(["verify", "eqstar", "--field", "p=3,s=2",
                            "--f", "X^9-X"])
        assert code == 0
        assert out == "image intersection identity: pass\n"

    @pytest.mark.parametrize("f", ["X", "[1]"])
    def test_eqstar_rank_zero(self, run, f):
        assert run(["verify", "eqstar", "--field", "p=3,s=2", "--f", f]) == (
            0, "image intersection identity: pass\n", "")

    def test_axioms_json(self, run):
        code, out, _ = run(["verify", "axioms", "--p", "2", "--m", "2",
                            "--json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["claim"] == "witt ring axioms and frobenius identities"
        assert doc["parameters"] == {"field_order": 2, "m": 2, "p": 2,
                                     "rational": False, "samples": None}
        assert doc["mode"] == "exhaustive"
        assert doc["verdict"] == "pass"

    def test_oracle_subcommand(self, run):
        code, out, _ = run(["verify", "oracle", "--field", "p=2,s=2",
                            "--count", "5", "--max-degree", "1",
                            "--seed", "0"])
        assert code == 0
        assert "pass" in out

    def test_disagreement_exits_three(self, run, monkeypatch):
        monkeypatch.setattr(cli.oracle, "verify_lemma_62",
                            lambda q, m: (False, "w"))
        code, out, _ = run(["verify", "lemma62", "--q", "4", "--m", "2"])
        assert code == 3
        assert out.splitlines() == [
            "scaled-image equivalence: fail",
            "witness: w",
        ]

    def test_oracle_checks_every_layer(self, run, monkeypatch):
        # a wrong split/inert verdict at a place that splits partly leaves
        # g, and so the full-split count, unchanged; only the per-layer
        # comparison sees it
        real = asext.place_decompositions

        def split_to_inert(spec, places):
            out = []
            for dec in real(spec, places):
                if not dec.place.is_infinite and 1 < dec.g < spec.f.q:
                    per = tuple([hv._replace(verdict="inert") if hv.verdict == "split"
                                 else hv for hv in dec.per_hyperplane])
                    dec = dec._replace(per_hyperplane=per)
                out.append(dec)
            return out

        argv = ["verify", "oracle", "--field", "p=3,s=2", "--count", "5",
                "--max-degree", "2", "--seed", "1", "--json"]
        assert run(argv)[0] == 0
        monkeypatch.setattr(asext, "place_decompositions", split_to_inert)
        code, out, _ = run(argv)
        assert code == 3
        witness = json.loads(out)["witness"]
        assert {w["verdict"] for w in witness} == {"inert"}
        assert {w["direct"] for w in witness} == {"split"}
        assert all(w["hyperplane"] in ("(0,1)", "(1,0)", "(1,1)", "(1,2)") for w in witness)

    def test_oracle_proves_each_place_irreducible_once(self, run, monkeypatch):
        # the process lists each degree's places and their roots in one pass,
        # which the next command reuses; a root of degree d proves its place
        # irreducible, so no listed place takes Place's Rabin test
        monkeypatch.setattr(oracle, "_RESIDUE_FIELDS", {})
        passes = []
        real_pass = oracle.ResidueField._orbit_roots
        monkeypatch.setattr(oracle.ResidueField, "_orbit_roots",
                            lambda field: passes.append(field.d) or real_pass(field))
        rabin = []
        real_test = upoly.is_irreducible
        monkeypatch.setattr(upoly, "is_irreducible", lambda f: rabin.append(f) or real_test(f))
        argv = ["verify", "oracle", "--field", "p=3,s=2", "--count", "3",
                "--max-degree", "2", "--json"]
        for expected in ([1, 2], []):
            passes.clear()
            code, out, _ = run(argv)
            assert code == 0 and json.loads(out)["checked"] > 0
            assert passes == expected
        F9 = make_field(3, 2)
        places = [P for d in (1, 2) for P in monic_irreducibles(F9, d)]
        assert not set(rabin) & set(places)

    def test_oracle_scans_fibres_once_per_process(self, run, monkeypatch):
        # f's fibre table stays on the shared residue field, so a second
        # command scans no field for it
        monkeypatch.setattr(oracle, "_RESIDUE_FIELDS", {})
        scans = []
        real_counter = oracle.Counter

        def counting(values):
            table = real_counter(values)
            scans.append(sum(table.values()))
            return table

        monkeypatch.setattr(oracle, "Counter", counting)
        argv = ["verify", "oracle", "--field", "p=3,s=2", "--count", "2",
                "--max-degree", "2", "--json"]
        for expected in ([9, 81], []):
            scans.clear()
            code, out, _ = run(argv)
            assert code == 0 and json.loads(out)["verdict"] == "pass"
            assert scans == expected


class TestCommandPath:
    LEAVES = {"reduce", "ramify", "subext", "split", "relate", "combine",
              "witt add", "witt mul", "witt wp", "witt reduce", "witt subext",
              "witt relate", "witt infty",
              "verify lemma62", "verify eqstar", "verify axioms", "verify oracle"}

    @staticmethod
    def _leaves(parser):
        groups = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        if not groups:
            yield parser
        for action in groups:
            for sub in action.choices.values():
                yield from TestCommandPath._leaves(sub)

    def test_every_leaf_is_named_by_its_usage_words(self):
        leaves = list(self._leaves(cli.build_parser()))
        for leaf in leaves:
            words = leaf.prog.split()
            assert words[0] == "aspw"
            assert leaf.get_default("command_path") == " ".join(words[1:])
        assert {leaf.get_default("command_path") for leaf in leaves} == self.LEAVES
        assert len(leaves) == len(self.LEAVES)

    @pytest.mark.parametrize("argv", [
        ["reduce", "--field", "p=3,s=2", "--f", "X^9-X", "--u", "T"],
        ["witt", "mul", "--p", "3", "--m", "2", "[1;2]", "[2;1]"],
        ["verify", "lemma62", "--q", "4", "--m", "2"],
    ])
    def test_json_names_the_command(self, run, argv):
        code, out, _ = run(argv + ["--json"])
        assert code == 0
        path = " ".join(w for w in argv[:2] if not w.startswith("-"))
        assert json.loads(out)["command"] == path


class TestStandardFormCounts:
    # an extension-shaped spec over F_9: a pole of order 2, prime to p,
    # decides irreducibility, so only split reads the n = 2 layer forms,
    # and only at infinity and u's poles; u is regular at T
    BASE = ["--field", "p=3,s=2", "--f", "X^9-X", "--u", "w/(T+1)^2+2/(T+w)^9+w*T^3+T+1"]

    @pytest.fixture
    def forms(self, monkeypatch):
        calls = []
        real = asext._standard_form
        monkeypatch.setattr(asext, "_standard_form", lambda pf: calls.append(pf) or real(pf))
        return calls

    @pytest.mark.parametrize("argv, n", [
        (["reduce"], 0), (["ramify"], 0), (["subext"], 0), (["split", "--place", "inf"], 2),
        (["split", "--place", "T"], 0),
    ])
    def test_only_split_builds_the_forms(self, run, forms, argv, n):
        code, _, _ = run(argv[:1] + self.BASE + argv[1:])
        assert code == 0
        assert len(forms) == n

    def test_pole_orders_divisible_by_p_leave_it_to_the_forms(self, run, forms):
        code, _, _ = run(["reduce", "--field", "p=3,s=2", "--f", "X^9-X", "--u", "1/T^3+T^3"])
        assert code == 0
        assert len(forms) == 2


class TestExitCodes:
    def test_parse_error(self, run):
        code, out, err = run(["reduce", "--field", "p=3,s=2", "--f", "X^9-X",
                              "--u", "1/("])
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_reducible_input(self, run):
        code, _, err = run(["reduce", "--field", "p=3,s=2", "--f", "X^9-X",
                            "--u", "T^9-T"])
        assert code == 2
        assert "reducible" in err

    def test_unknown_argument(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["reduce", "--nonsense"])
        assert exc.value.code == 2
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [
        ["reduce", "--field", "p=x,s=2", "--f", "X^9-X", "--u", "T"],
        ["reduce", "--field", "p=3,s=x", "--f", "X^9-X", "--u", "T"],
        ["reduce", "--field", "p=3,s=2,s=3", "--f", "X^9-X", "--u", "T"],
        ["reduce", "--field", "p=3,s=2,gen=T", "--f", "X^9-X", "--u", "T"],
        ["reduce", "--field", "p=3,s=2,gen=X", "--f", "X^9-X", "--u", "T"],
        ["reduce", "--field", "p=3,s=2,gen=y", "--f", "X^9-X", "--u", "T"],
        ["reduce", "--field", "p=3,s=2,gen=2", "--f", "X^9-X", "--u", "T"],
        ["verify", "lemma62", "--q", "6", "--m", "2"],
        ["witt", "reduce", "--field", "p=3,s=2", "--m", "2", "--q", "6", "[T;0]"],
        ["witt", "wp", "--field", "p=3,s=2", "--m", "2", "--q", "6", "[T;0]"],
        ["verify", "oracle", "--field", "p=2,s=2", "--count", "1", "--jobs", "0"],
        ["verify", "oracle", "--field", "p=3,s=2", "--count", "1", "--n", "-1"],
        ["verify", "oracle", "--field", "p=3,s=2", "--count", "1", "--n", "0"],
        ["verify", "oracle", "--field", "p=3,s=2", "--count", "1", "--n", "100000000"],
        ["witt", "wp", "--p", "3", "--m", "2", "--q", "0", "[1;0]"],
        ["witt", "infty", "--p", "3", "--m", "2", "--q", "0", "[1;0]"],
        # F_27 is not a subfield of the constant field F_9
        ["witt", "subext", "--field", "p=3,s=2", "--m", "2", "--q", "27",
         "--xi", "[1;0]", "[T;0]"],
        # no specs, samples or places to check, or more than the stated time allows
        ["verify", "oracle", "--field", "p=3,s=2", "--count", "0"],
        ["verify", "oracle", "--field", "p=3,s=2", "--count", "-1"],
        ["verify", "oracle", "--field", "p=3,s=2", "--max-degree", "0"],
        ["verify", "oracle", "--field", "p=3,s=2", "--count", "101"],
        ["verify", "axioms", "--p", "3", "--m", "3", "--samples", "0"],
        ["verify", "axioms", "--p", "3", "--m", "3", "--samples", "-4"],
        ["verify", "axioms", "--p", "3", "--m", "3", "--samples", "1001"],
        # the draws enumerate the field; rational samples grow with p^(m-1)
        ["verify", "axioms", "--p", "1009", "--m", "1"],
        ["verify", "axioms", "--p", "2", "--m", "3", "--field", "p=2,s=10"],
        ["verify", "axioms", "--p", "5", "--m", "3", "--rational"],
        ["verify", "axioms", "--p", "17", "--m", "2", "--rational"],
    ])
    def test_bad_input_exits_two(self, run, argv):
        start = time.perf_counter()
        code, out, err = run(argv)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("field, message", [
        ("p=2,s=3000", "error: field order 2^3000 exceeds the limit 2^64"),
    ])
    def test_large_fields_exit_two_quickly(self, run, field, message):
        start = time.perf_counter()
        code, out, err = run(["reduce", "--field", field, "--f", "X^2-X",
                              "--u", "T"])
        assert time.perf_counter() - start < 1.0
        assert (code, out, err.strip()) == (2, "", message)

    # roots and constant preimages come from linear algebra over F_p, so
    # field size bounds only speed
    @pytest.mark.parametrize("argv, stdout", [
        (["reduce", "--field", "p=2,s=40", "--f", "X^2-X", "--u", "T"],
         "u: T\nreduced: T\n"),
        (["witt", "reduce", "--field", "p=2,s=40", "--m", "1", "--q", "2", "[1]"],
         "alpha: [1]\nreduced: [0]\n  shift: [w^34+w^33+w^29+w^26+w^23+w^21+w^20+w^17"
         "+w^16+w^15+w^14+w^11+w^10+w^9+w^7+w^6+w^3+w^2]\n"),
        (["witt", "infty", "--field", "p=2,s=40", "--m", "1", "--q", "2", "[1]"],
         "fully split: True\n"),
    ], ids=["reduce", "witt reduce", "witt infty"])
    def test_large_fields_answer_quickly(self, run, argv, stdout):
        start = time.perf_counter()
        code, out, err = run(argv)
        assert time.perf_counter() - start < 1.0
        assert (code, out, err) == (0, stdout, "")

    def test_table_field_answers(self, run):
        # F_{2^16} builds its lookup tables first, which takes about a second
        code, out, err = run(["reduce", "--field", "p=2,s=16", "--f", "X^2-X",
                              "--u", "T"])
        assert (code, out, err) == (0, "u: T\nreduced: T\n", "")

    @pytest.mark.parametrize("argv, message", [
        # a prime just below 2^64 passes the order cap and the prime test
        (["reduce", "--field", "p=18446744073709551557,s=1", "--f", "X^2-X", "--u", "T"],
         "error: term X^2 is not a p-power monomial"),
        (["verify", "lemma62", "--q", "1000000007", "--m", "1"],
         "error: verification capped at 729 elements"),
        (["verify", "lemma62", "--q", "2", "--m", "100000000000"],
         "error: verification capped at 729 elements"),
        (["verify", "lemma62", "--q", "4", "--m", "-1"],
         "error: extension degree m=-1 must be at least 1"),
        (["witt", "add", "--p", "101", "--m", "3", "[1;0;0]", "[1;0;0]"],
         "error: p=101 exceeds the bound 11 for length 3"),
        (["witt", "add", "--p", "5", "--m", "4", "[1;0;0;0]", "[1;0;0;0]"],
         "error: p=5 exceeds the bound 3 for length 4"),
        (["witt", "mul", "--p", "10007", "--m", "2", "[1;0]", "[1;0]"],
         "error: p=10007 exceeds the bound 521 for length 2"),
        (["verify", "axioms", "--p", "13", "--m", "3"],
         "error: p=13 exceeds the bound 11 for length 3"),
        (["reduce", "--field", "p=3,s=2", "--f", "X^9-X", "--u", "T^100000000"],
         "error: power at position 1 exceeds the degree bound 729"),
        (["reduce", "--field", "p=3,s=2", "--f", "X^9-X", "--u", "1/T^3000000"],
         "error: power at position 3 exceeds the degree bound 729"),
        (["relate", "--field", "p=3,s=2", "--f", "X^9-X", "--u", "T",
          "--z", "y^1000000000"],
         "error: power at position 1 exceeds the degree bound 729"),
        # every product is bounded, not only a power
        (["reduce", "--field", "p=3,s=2", "--f", "X^9-X", "--u", "1/(T^729*T^729*T^729)"],
         "error: product at position 8 exceeds the degree bound 729"),
        (["reduce", "--field", "p=3,s=2", "--f", "X^9-X", "--u", "*".join(["T^100"] * 10)],
         "error: product at position 41 exceeds the degree bound 729"),
        # additive degrees are bounded where they enter: the list form of f
        # and the number of generators of a compositum
        (["reduce", "--field", "p=3,s=6", "--f", "[1,0,0,0,0,0,0,0,0,0,1]", "--u", "T"],
         "error: additive polynomial of degree 3^10 exceeds the degree bound 729"),
        (["combine", "--field", "p=2,s=1"] + _GAMMA_MU_25,
         "error: compositum of degree 2^25 exceeds the degree bound 729"),
        # the default Galois-ring basis reads F_4 off a kernel, not a scan
        (["witt", "relate", "--field", "p=2,s=40", "--m", "1", "--q", "4", "[T]", "[T]",
          "--xi", "[1]", "--xi", "[w]"],
         "error: a target has a component outside the order-4 subfield"),
        (["reduce", "--field", "p=2,s=40", "--f", "[1,0,0,0,0,0,0,0,0,0,1]", "--u", "T"],
         "error: additive polynomial of degree 2^10 exceeds the degree bound 729"),
        (["combine", "--field", "p=2,s=40"] + _GAMMA_MU_25,
         "error: compositum of degree 2^25 exceeds the degree bound 729"),
        # a q-th power of a nonconstant vector is bounded like any degree
        (["witt", "wp", "--p", "1000003", "--m", "1", "[1/T+T]"],
         "error: q=1000003 exceeds the degree bound 729 of a nonconstant vector"),
        (["witt", "wp", "--p", "18446744073709551557", "--m", "1", "[T]"],
         "error: q=18446744073709551557 exceeds the degree bound 729 of a "
         "nonconstant vector"),
        (["witt", "wp", "--p", "3", "--m", "1", "--q", "2187", "[1/T]"],
         "error: q=2187 exceeds the degree bound 729 of a nonconstant vector"),
        (["witt", "reduce", "--field", "p=2,s=40", "--m", "1", "--q", "1024", "[T]"],
         "error: q=1024 exceeds the degree bound 729 of a nonconstant vector"),
        # the oracle's draws enumerate the field
        (["verify", "oracle", "--field", "p=2,s=16"],
         "error: verification capped at 729 elements"),
    ])
    def test_inputs_that_used_to_hang_exit_two_quickly(self, run, argv, message):
        start = time.perf_counter()
        code, out, err = run(argv)
        assert time.perf_counter() - start < 1.0
        assert (code, out, err.strip()) == (2, "", message)

    @pytest.mark.parametrize("argv, message", [
        ("witt add --m 2 [1;0] [1;0]", "need --field or --p"),
        ("witt subext --field p=3,s=2 --m 2 --q 9 --xi [T;0] [T;0]",
         "component T is not a constant"),
        ("reduce --field p=3,s=2 --f [0,1] --u T",
         "additive polynomial must be separable (a_0 != 0)"),
        ("reduce --field p=3,s=2 --f [1,2] --u T", "additive polynomial must be monic"),
        ("witt add --field p=3,s=1 --m 2 [] [1;0]",
         "witt vector literal must have at least one component"),
        ("witt add --field p=3,s=1 --m 0 [1] [1]", "length must be at least 1"),
        ("witt relate --field p=3,s=2 --m 1 --q 9 [T] [T] --xi [1]", "expected 2 target vectors"),
        ("witt infty --field p=3,s=1 --m 2 [1/T;0]", "a polynomial part cannot carry poles"),
        ("combine --field p=3,s=2 --gamma T --gamma T^2 --mu 1",
         "need matching nonempty generator and multiplier lists"),
        ("relate --field p=3,s=2 --f X^3-X --u 1/T --z y --fix w",
         "w is not a root of the defining polynomial"),
        ("relate --field p=3,s=2 --f X^9-X --u 1/T --z y^3-y --fix w",
         "claimed subgroup does not fix the generator"),
        ("relate --field p=3,s=2 --f X^9-X --u 1/T --z y^2",
         "generator moves by a non-constant amount"),
    ])
    def test_input_errors_say_what_is_wrong(self, run, argv, message):
        assert run(argv.split()) == (2, "", f"error: {message}\n")

    def test_eqstar_rejects_a_large_field_before_parsing(self, run):
        start = time.perf_counter()
        code, out, err = run(["verify", "eqstar", "--field", "p=2,s=16", "--f", "X^2-X"])
        assert time.perf_counter() - start < 1.0
        assert (code, out, err.strip()) == (2, "", "error: verification capped at 729 elements")

    def test_reused_parser_prints_what_a_fresh_one_does(self, capsys):
        argvs = [
            ["reduce", "--field", "p=3,s=2", "--f", "X^9-X", "--u", "1/T^3+T"],
            ["witt", "add", "--p", "2", "--m", "2", "[1;0]", "[1;0]", "--json"],
            ["reduce", "--nonsense"],
            ["verify", "lemma62", "--q", "4", "--m", "2"],
            ["split", "--field", "p=2,s=2", "--f", "X^4-X", "--u", "1/T+T^3",
             "--place", "inf", "--json"],
        ]

        def call(argv):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            return code, capsys.readouterr().out

        fresh = []
        for argv in argvs:
            cli._parser.cache_clear()
            fresh.append(call(argv))
        assert [code for code, _ in fresh] == [0, 0, 2, 0, 0]
        for _ in range(2):
            assert [call(argv) for argv in argvs] == fresh
        assert cli._parser.cache_info().currsize == 1

    def test_jobs_only_on_verify_oracle(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "lemma62", "--q", "4", "--m", "2", "--jobs", "2"])
        assert exc.value.code == 2
        capsys.readouterr()


class TestTrivialEquation:
    # f = X has the root group {0}, so there are no hyperplanes and no layers
    @pytest.mark.parametrize("command, lines", [
        (["reduce"], ["u: T", "reduced: 0", "  shift: T"]),
        (["split", "--place", "inf"], ["place: inf", "e=1 f=1 g=1",
                                       "decomposition field: (none)", "inertia field: (none)"]),
        (["subext"], []),
    ])
    def test_exits_zero(self, run, command, lines):
        code, out, err = run([command[0], "--field", "p=3,s=1", "--f", "X", "--u", "T",
                              *command[1:]])
        assert (code, out.splitlines(), err) == (0, lines, "")


class TestDeterminism:
    def test_json_reruns_are_byte_identical(self, run):
        argv = ["split", "--field", EX_FIELD, "--f", EX_F, "--u", EX_U,
                "--place", "inf", "--json"]
        _, first, _ = run(argv)
        _, second, _ = run(argv)
        assert first == second

    def test_jobs_do_not_change_output(self, run):
        base = ["verify", "oracle", "--field", "p=3,s=2", "--count", "5",
                "--max-degree", "1", "--seed", "1", "--json"]
        _, serial, _ = run(base + ["--jobs", "1"])
        _, threaded, _ = run(base + ["--jobs", "4"])
        assert serial == threaded

    def test_jobs_capped_by_specs_and_cpus(self, run, monkeypatch):
        # a stand-in pool records its size and runs the checks in-process
        sizes = []

        class SerialPool:
            def __init__(self, max_workers, mp_context=None):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)

        def argv(jobs, count):
            return ["verify", "oracle", "--field", "p=2,s=2", "--max-degree", "1",
                    "--seed", "0", "--json", "--jobs", str(jobs), "--count", str(count)]

        code, pooled, _ = run(argv(1000, 3))
        assert code == 0
        assert sizes == [2]
        _, serial, _ = run(argv(1, 3))
        assert pooled == serial
        run(argv(1000, 1))
        assert sizes == [2]  # one spec: no pool at all
