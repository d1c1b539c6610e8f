"""The four benchmark workloads: seeded inputs, query runners, output checks.

Inputs are generated from the seed as plain text and numbers, without
importing aspw, so the same seed gives the same inputs on any commit.  Each
input is correct by construction (irreducible, pole-free where a residue is
taken); nothing is filtered through the code under test.

A workload object offers:

  generate(rng)      -> list of JSON-serialisable queries (one pass)
  setup()            -> builds the fields, root groups and Witt tables
  prepare(query)     -> a zero-argument callable that runs the query and
                        returns its result (parsing done here is untimed)
  render(query, res) -> canonical text of a result, digested per query
  check(queries, results) -> (position, message) per wrong answer (untimed)

The library is reached through module attributes (``asext.reduce_global``)
so that the tracer's patched bindings are the ones called.
"""

from __future__ import annotations

import contextlib
import io
import json

# ---------------------------------------------------------------------------
# text of field elements and polynomials, built without the library
# ---------------------------------------------------------------------------


def elem_text(p: int, s: int, k: int) -> str:
    """Element with integer code k (base-p digits, c_0 first) as parser text."""
    terms = []
    for i in range(s):
        c = k % p
        k //= p
        if not c:
            continue
        if i == 0:
            terms.append(str(c))
        else:
            mono = "w" if i == 1 else f"w^{i}"
            terms.append(mono if c == 1 else f"{c}*{mono}")
    return "(" + "+".join(reversed(terms)) + ")" if terms else "0"


def linear_place(p: int, s: int, a: int) -> str:
    """The degree-1 place T + a."""
    return "T" if a == 0 else f"T+{elem_text(p, s, a)}"


def translate(poly_f2: str, p: int, s: int, a: int) -> str:
    """poly_f2(T + a) for a polynomial in T with F_p coefficients.

    A translate of an irreducible polynomial is irreducible, so
    translates of T^2+T+1 over F_{2^odd} and of T^3+T+1 over F_{2^s}
    with 3 not dividing s are irreducible places of degree 2 and 3.
    """
    return poly_f2.replace("T", f"({linear_place(p, s, a)})")


def _nonzero(rng, q: int) -> int:
    return rng.randrange(1, q)


def _field_arg(p: int, s: int) -> str:
    return f"p={p},s={s}"


# ---------------------------------------------------------------------------
# extension: the CLI path through every layer
# ---------------------------------------------------------------------------

CLI_COMMANDS = (["reduce"], ["ramify"], ["subext"], ["split", "--place", "inf"],
                ["split", "--place", None])


def run_cli(cli, argv):
    """Run aspw's CLI in-process; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


class Extension:
    """f = X^q - X over F_4, F_9, F_27 with one pole of order prime to p.

    That pole survives every scaling c*u, so no index-p subgroup fixes a
    root and f(X) - u is irreducible.  A second pole, of order a multiple
    of p, and a polynomial part of p-multiple degree give the reduction
    work.  The degree-1 split place avoids both poles, so the residue
    oracle applies to it.
    """

    name = "extension"
    # (p, s, [(order prime to p, p-multiple pole order, p-multiple degree)])
    FIELDS = ((2, 2, ((1, 4, 8), (3, 8, 4), (1, 8, 8))),
              (3, 2, ((2, 9, 3), (1, 3, 9))),
              (3, 3, ((2, 3, 3), (1, 3, 3))))
    # specs per field in one pass (variants rotate); F_27's subext and split
    # queries are the slowest 18%, so p90 lies inside that group
    SPECS = (6, 8, 6)
    tail_percentile = 90
    layers = ("cli", "parsing", "gf", "upoly", "addpoly", "asext")

    def generate(self, rng):
        specs = []
        for (p, s, variants), count in zip(self.FIELDS, self.SPECS):
            q = p ** s
            e = lambda k: elem_text(p, s, k)
            for k in range(count):
                prime_order, p_order, p_degree = variants[k % len(variants)]
                a1, a2, a3 = rng.sample(range(1, q), 3)
                u = (f"{e(_nonzero(rng, q))}/({linear_place(p, s, a1)})^{prime_order}"
                     f" + {e(_nonzero(rng, q))}/({linear_place(p, s, a2)})^{p_order}"
                     f" + {e(_nonzero(rng, q))}*T^{p_degree}"
                     f" + {e(_nonzero(rng, q))}*T + {e(_nonzero(rng, q))}")
                base = ["--field", _field_arg(p, s), "--f", f"X^{q}-X", "--u", u]
                specs.append((base, linear_place(p, s, a3)))
        queries = []
        for cmd in CLI_COMMANDS:
            for base, place in specs:
                argv = [cmd[0]] + base + [place if a is None else a for a in cmd[1:]]
                queries.append({"argv": argv + ["--json"]})
        return queries

    def setup(self):
        from aspw import addpoly, cli, gf  # noqa: F401  (cli: import cost is set-up)
        for p, s, _ in self.FIELDS:
            ctx = gf.make_field(p, s)
            addpoly.root_group(addpoly.AdditivePoly.frobenius_minus_id(ctx, s), ctx)

    def prepare(self, query):
        from aspw import cli
        argv = query["argv"]
        return lambda: run_cli(cli, argv)

    def render(self, query, result):
        code, out = result
        return f"{code}\n{out}"

    def failure(self, query, result):
        code, _ = result
        return None if code == 0 else f"exit code {code}"

    def check(self, queries, results):
        """Replayable reduction logs, reduced shape, e*f*g = p^n and the
        degree-1 split verdict against the residue-count oracle."""
        from aspw import asext, oracle, parsing, upoly
        bad = []
        seen = set()
        for k, (query, (code, out)) in enumerate(zip(queries, results)):
            argv = query["argv"]
            if code != 0 or argv[0] != "split":
                continue
            field, f_text, u_text = argv[2], argv[4], argv[6]
            ctx = parsing.parse_field_spec(field)
            spec = asext.ExtensionSpec(parsing.parse_additive(ctx, f_text),
                                       parsing.parse_ratfunc(ctx, u_text), ctx)
            q = spec.f.q
            doc = json.loads(out)
            if doc["e"] * doc["f"] * doc["g"] != q:
                bad.append((k, f"e*f*g != {q}: {argv}"))
            if u_text not in seen:
                seen.add(u_text)
                log, red = asext.reduce_global(spec)
                if not log.replay():
                    bad.append((k, f"reduction log does not replay: {argv}"))
                if not asext.is_reduced(red):
                    bad.append((k, f"reduced form not reduced: {argv}"))
            place_text = argv[8]
            if place_text != "inf":
                place = upoly.Place(parsing.parse_poly(ctx, place_text))
                count = oracle.splitting_oracle(spec, place)
                if (doc["g"] == q) != (count == q):
                    bad.append((k, f"g={doc['g']} but oracle counts {count}: {argv}"))
        return bad


# ---------------------------------------------------------------------------
# wide_field: 15 and 31 hyperplanes, repeated reductions and factoring
# ---------------------------------------------------------------------------


class WideField:
    """X^16 - X over F_16 and X^32 - X over F_32.

    u has a pole of order POLE_ORDER = p^2 at a degree-3 place over F_16 (a
    translate of T^3+T+1) or a degree-2 place over F_32 (a translate of
    T^2+T+1), a simple pole at a degree-1 place that makes f(X) - u
    irreducible, and a polynomial part of degree 2.  Each query costs about
    1 s over F_16 and 2 s over F_32; order 8 would double that and leave too
    few queries in a run for a stable median.
    """

    name = "wide_field"
    # (p, s, place polynomial over F_2 that stays irreducible over F_{p^s})
    FIELDS = ((2, 4, "T^3+T+1"), (2, 5, "T^2+T+1"))
    POLE_ORDER = 4
    PASS = (0, 1, 0) * 4  # field index per query: F_16 twice as often
    tail_percentile = 50
    layers = ("gf", "upoly", "addpoly", "asext")

    def generate(self, rng):
        queries = []
        for fi in self.PASS:
            p, s, place = self.FIELDS[fi]
            q = p ** s
            a_place, a_simple = rng.sample(range(1, q), 2)
            e = lambda k: elem_text(p, s, k)
            u = (f"{e(_nonzero(rng, q))}/({translate(place, p, s, a_place)})^{self.POLE_ORDER}"
                 f" + {e(_nonzero(rng, q))}/({linear_place(p, s, a_simple)})"
                 f" + {e(_nonzero(rng, q))}*T^2 + {e(_nonzero(rng, q))}*T")
            queries.append({"field": _field_arg(p, s), "f": f"X^{q}-X", "u": u})
        return queries

    def setup(self):
        from aspw import addpoly, asext, gf  # noqa: F401
        self.env = {}
        for p, s, _ in self.FIELDS:
            ctx = gf.make_field(p, s)
            f = addpoly.AdditivePoly.frobenius_minus_id(ctx, s)
            addpoly.root_group(f, ctx)
            self.env[_field_arg(p, s)] = (ctx, f)

    def prepare(self, query):
        from aspw import asext, parsing, upoly
        ctx, f = self.env[query["field"]]
        u = parsing.parse_ratfunc(ctx, query["u"])
        inf = upoly.Place.infinite()

        def run():
            spec = asext.ExtensionSpec(f, u, ctx)
            irreducible = asext.check_irreducible(spec)
            log, red = asext.reduce_global(spec)
            dec = asext.place_decomposition(spec, inf)
            return spec, irreducible, log, red, dec
        return run

    def render(self, query, result):
        _, irreducible, _, red, dec = result
        return json.dumps({
            "irreducible": irreducible,
            "reduced": ratfunc_text(red.u),
            "efg": [dec.e, dec.f, dec.g],
            "hyperplanes": [[hv.hyperplane.label(), hv.verdict] for hv in dec.per_hyperplane],
            "decomposition": list(dec.decomposition_tags),
            "inertia": list(dec.inertia_tags),
        }, sort_keys=True)

    def failure(self, query, result):
        return None if result[1] else "irreducible-by-construction spec reported reducible"

    def check(self, queries, results):
        from aspw import asext
        bad = []
        for k, (query, (spec, _, log, red, dec)) in enumerate(zip(queries, results)):
            if dec.e * dec.f * dec.g != spec.f.q:
                bad.append((k, f"e*f*g != {spec.f.q}: {query}"))
            if not log.replay() or not asext.is_reduced(red):
                bad.append((k, f"reduction log or reduced shape wrong: {query}"))
        return bad


def ratfunc_text(u) -> str:
    """Lowest-terms numerator/denominator text; no partial fractions, so
    rendering a result does not call factor()."""
    return f"({u.num.to_str()})/({u.den.to_str()})"


# ---------------------------------------------------------------------------
# witt: table evaluation over k0(T), no hyperplane loop
# ---------------------------------------------------------------------------


class Witt:
    """Witt arithmetic, the q-power operator and reduction on rational
    vectors: F_3(T) at length 3 and F_9(T) at length 2.

    Reduction runs at length 2 only: one length-3 reduction costs 1-2 s
    and would crowd every other operation out of the run.
    """

    name = "witt"
    # (p, s, m, q for asw_operator and witt_reduce)
    RINGS = ((3, 1, 3, 3), (3, 2, 2, 3))
    # (ring, op) per round: 5 cheap ops (under 30 ms), 6 mid ops (60-120 ms)
    # and 2 length-3 asw_operator calls (200-350 ms), so p50 lies inside
    # the mid group and p90 inside the slow one
    ROUND = ((1, "add"), (1, "sub"), (1, "mul"), (1, "asw"), (0, "mul"),
             (0, "add"), (0, "add"), (0, "sub"), (0, "sub"), (1, "reduce"), (1, "reduce"),
             (0, "asw"), (0, "asw"))
    ROUNDS = 18
    tail_percentile = 90
    layers = ("gf", "upoly", "witt")

    def _component(self, rng, p, s, reducible):
        q = p ** s
        e = lambda k: elem_text(p, s, k)
        if reducible:
            # p-multiple pole order and degree: reduction has work to do
            place = linear_place(p, s, _nonzero(rng, q))
            return (f"{e(_nonzero(rng, q))}/({place})^{p}"
                    f" + {e(_nonzero(rng, q))}*T^{p} + {e(_nonzero(rng, q))}*T")
        # numerator root differs from the pole, so nothing cancels
        a, b = rng.sample(range(q), 2)
        return f"{e(_nonzero(rng, q))}*({linear_place(p, s, a)})/({linear_place(p, s, b)})"

    def _vector(self, rng, p, s, m, reducible=False):
        return "[" + ";".join(self._component(rng, p, s, reducible and j == 0)
                              for j in range(m)) + "]"

    def generate(self, rng):
        queries = []
        for _ in range(self.ROUNDS):
            for ring, op in self.ROUND:
                p, s, m, q = self.RINGS[ring]
                query = {"field": _field_arg(p, s), "m": m, "op": op,
                         "a": self._vector(rng, p, s, m, reducible=op == "reduce")}
                if op in ("add", "sub", "mul"):
                    query["b"] = self._vector(rng, p, s, m)
                else:
                    query["q"] = q
                queries.append(query)
        return queries

    def setup(self):
        from aspw import gf, parsing, witt  # noqa: F401
        self.env = {}
        for p, s, m, _ in self.RINGS:
            self.env[_field_arg(p, s)] = (gf.make_field(p, s), witt.build_tables(p, m))

    def _vec(self, query, key):
        from aspw import parsing, witt
        ctx, tables = self.env[query["field"]]
        return witt.WittVector(tables, parsing.parse_witt(ctx, query[key]))

    def prepare(self, query):
        from aspw import witt
        op = query["op"]
        a = self._vec(query, "a")
        if op in ("add", "sub", "mul"):
            b = self._vec(query, "b")
            return lambda: witt.witt_arith(op, a, b)
        if op == "asw":
            return lambda: witt.asw_operator(a, query["q"])
        spec = witt.WittExtensionSpec(a.tables, query["q"], a)
        return lambda: witt.witt_reduce(spec)

    def render(self, query, result):
        if query["op"] == "reduce":
            log, red = result
            return ";".join(vector_text(v) for v in (red.alpha, *log.shifts()))
        return vector_text(result)

    def failure(self, query, result):
        return None

    def check(self, queries, results):
        """Frobenius is a ring map, (a+b)-b = a, and witt_reduce moves its
        input by one asw_operator image (the Witt sum of its shifts)."""
        from aspw import witt
        bad = []
        # the first round is the seeded sample
        for k, (query, result) in enumerate(zip(queries[:len(self.ROUND)], results)):
            op = query["op"]
            a = self._vec(query, "a")
            if op in ("add", "mul"):
                b = self._vec(query, "b")
                if result.frob(1) != witt.witt_arith(op, a.frob(1), b.frob(1)):
                    bad.append((k, f"Frobenius does not distribute over {op}: {query}"))
                if op == "add" and witt.witt_arith("sub", result, b) != a:
                    bad.append((k, f"(a+b)-b != a: {query}"))
            elif op == "reduce":
                log, red = result
                total = a.zero_like()
                for theta in log.shifts():
                    total = witt.witt_arith("add", total, theta)
                moved = witt.witt_arith("sub", a, witt.asw_operator(total, query["q"]))
                if log.descents() or moved != red.alpha:
                    bad.append((k, f"reduction is not an asw_operator shift: {query}"))
        return bad


def vector_text(v) -> str:
    return "[" + ";".join(ratfunc_text(c) for c in v.comps) + "]"


# ---------------------------------------------------------------------------
# verify: brute-force residue counting in oracle.py
# ---------------------------------------------------------------------------


class Verify:
    """`aspw verify oracle` over F_9, max place degree 2, without --jobs."""

    name = "verify"
    COUNT = 1
    # 45 random specs per pass: their costs range over 2.5x, so fewer
    # leave the median at the mercy of the seed
    PER_PASS = 45
    tail_percentile = 65
    layers = ("cli", "gf", "upoly", "asext", "oracle")

    def generate(self, rng):
        return [{"argv": ["verify", "oracle", "--field", "p=3,s=2",
                          "--count", str(self.COUNT), "--max-degree", "2",
                          "--seed", str(rng.randrange(2 ** 31)), "--json"]}
                for _ in range(self.PER_PASS)]

    def setup(self):
        from aspw import addpoly, cli, gf  # noqa: F401
        ctx = gf.make_field(3, 2)
        addpoly.root_group(addpoly.AdditivePoly.frobenius_minus_id(ctx, 2), ctx)

    prepare = Extension.prepare
    render = Extension.render

    def failure(self, query, result):
        code, out = result
        if code != 0:
            return f"exit code {code}"
        doc = json.loads(out)
        if doc["verdict"] != "pass" or doc["checked"] < 1:
            return f"verdict {doc['verdict']}, {doc['checked']} places checked"
        return None

    def check(self, queries, results):
        return []


WORKLOADS = {w.name: w for w in (Extension(), WideField(), Witt(), Verify())}
