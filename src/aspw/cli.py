"""Command line front end: one subcommand per analysis.

Text mode prints one fact per line; --json emits a single sorted JSON
document versioned with "schema": "aspw/1".  All enumeration orders are
canonical, so identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys

from . import asext, oracle
from .addpoly import AdditivePoly, check_degree
from .errors import AspwError
from .gf import FieldCtx
from .parsing import (
    parse_additive,
    parse_element,
    parse_field_spec,
    parse_poly,
    parse_ratfunc,
    parse_witt,
    parse_with_names,
)
from .upoly import Place, Poly, RatFunc, pf_string, place_valuation
from .witt import (
    WittExtensionSpec,
    WittVector,
    asw_operator,
    build_tables,
    cyclic_subextension,
    ghost_components,
    witt_arith,
    witt_generator_relation,
    witt_infinity_full_split,
    witt_infinity_splitting,
    witt_reduce,
)

SCHEMA = "aspw/1"
EXIT_OK = 0
EXIT_ERROR = 2
EXIT_DISAGREE = 3
# at the slowest admitted spec (F_729, n = 6: 2.2 s) and rational sample
# (length 3 over F_729: 0.3 s) either verify command ends within 5 minutes
# (2-core Xeon, CPython 3.11)
MAX_COUNT = 100
MAX_SAMPLES = 1000


def _emit(args, data: dict, lines) -> None:
    if args.json:
        doc = {"schema": SCHEMA, "command": args.command_path}
        doc.update(data)
        print(json.dumps(doc, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _field(args) -> FieldCtx:
    """The --field; the witt commands fall back to the prime field of --p."""
    if args.field is not None:
        return parse_field_spec(args.field)
    if args.p is None:
        raise AspwError("need --field or --p")
    return parse_field_spec(f"p={args.p},s=1")


def _place(ctx: FieldCtx, text: str) -> Place:
    if text.strip().lower() in ("inf", "infty", "infinity", "oo"):
        return Place.infinite()
    return Place(parse_poly(ctx, text))


def _spec(args) -> asext.ExtensionSpec:
    ctx = _field(args)
    f = parse_additive(ctx, args.f)
    u = parse_ratfunc(ctx, args.u)
    return asext.ExtensionSpec(f, u, ctx)


def _fmt_vec(v: WittVector) -> str:
    return "[" + ";".join(str(c) for c in v.comps) + "]"


def _rat_vec(tables, ctx: FieldCtx, text: str) -> WittVector:
    return WittVector(tables, parse_witt(ctx, text))


def _const_vec(tables, ctx: FieldCtx, text: str) -> WittVector:
    comps = []
    for c in parse_witt(ctx, text):
        if not c.is_constant():
            raise AspwError(f"component {c} is not a constant")
        comps.append(c.constant_value())
    return WittVector(tables, comps)


def _emit_witt_result(args, data: dict, res: WittVector) -> int:
    """Print a Witt result vector, with its integer ghost components when
    it is a prime-field constant vector."""
    data["result"] = _fmt_vec(res)
    lines = [_fmt_vec(res)]
    if res.ctx.s == 1 and res.is_constant():
        comps = [c.constant_value().to_int() for c in res.comps]
        ghost = list(ghost_components(res.tables.p, comps))
        data["ghost"] = ghost
        lines.append(f"ghost: {ghost}")
    _emit(args, data, lines)
    return EXIT_OK


# ---------------------------------------------------------------------------
# one-variable extension commands
# ---------------------------------------------------------------------------


def _emit_reduction(args, log, name: str, key: str, fmt) -> int:
    """Print a reduction log: its start under name, its end and one line per
    step, with a shift's value under key."""
    start, reduced = fmt(log.u_start), fmt(log.u_final)
    steps, lines = [], [f"{name}: {start}", f"reduced: {reduced}"]
    for kind, val in log.steps:
        text = fmt(val)
        steps.append({"kind": kind, key if kind == asext.SHIFT else "value": text})
        lines.append(f"  {kind}: {text}")
    _emit(args, {name: start, "reduced": reduced, "steps": steps}, lines)
    return EXIT_OK


def cmd_reduce(args) -> int:
    log, _ = asext.reduce_global(_spec(args), descend=args.descend)
    return _emit_reduction(args, log, "u", "delta", pf_string)


def _ram_json(r) -> dict:
    """Exponent data of a ramified place."""
    return {"lambda": r.lam, "m": r.m, "e_bound": r.e_bound, "exact": r.exact}


def _ramified_text(r, detail: bool = True) -> str:
    kind = "e=" if r.exact else "e divisible by "
    lam_m = f", lambda={r.lam}, m={r.m}" if detail else ""
    return f"ramified, {kind}{r.e_bound}{lam_m}, exact={r.exact}"


def _infinity_line(inf, detail: bool = True) -> str:
    return "infinity: " + (_ramified_text(inf, detail) if inf else "unramified")


def _infinity_json(inf) -> dict:
    return {"ramified": True, **_ram_json(inf)} if inf else {"ramified": False}


def cmd_ramify(args) -> int:
    spec = _spec(args)
    report = asext.ramification_report(spec)
    reduced = pf_string(report.reduced_u)
    lines = [f"reduced: {reduced}"]
    for r in report.finite:
        lines.append(f"place ({r.place}): {_ramified_text(r)}")
    lines.append(_infinity_line(report.infinity))
    _emit(args, {"reduced": reduced,
                 "finite": [{"place": str(r.place), **_ram_json(r)}
                            for r in report.finite],
                 "infinity": _infinity_json(report.infinity)}, lines)
    return EXIT_OK


def cmd_subext(args) -> int:
    spec = _spec(args)
    _, red = asext.reduce_global(spec)
    descs = asext.subextensions(red)
    lines = []
    data = []
    for d in descs:
        label, formula, rhs = d.hyperplane.label(), d.formula(), pf_string(d.rhs)
        lines.append(f"H={label} z={formula} rhs: {rhs}")
        data.append({"hyperplane": label, "generator": formula, "rhs": rhs})
    _emit(args, {"reduced": pf_string(red.u), "subextensions": data}, lines)
    return EXIT_OK


def cmd_split(args) -> int:
    spec = _spec(args)
    place = _place(spec.k0, args.place)
    dec = asext.place_decomposition(spec, place)
    lines = [f"place: {place}", f"e={dec.e} f={dec.f} g={dec.g}"]
    for hv in dec.per_hyperplane:
        lines.append(f"H={hv.hyperplane.label()}: {hv.verdict}")
    lines.append("decomposition field: "
                 + (" ".join(dec.decomposition_tags) or "(none)"))
    lines.append("inertia field: " + (" ".join(dec.inertia_tags) or "(none)"))
    _emit(args, {
        "place": str(place), "e": dec.e, "f": dec.f, "g": dec.g,
        "hyperplanes": [{"label": hv.hyperplane.label(), "verdict": hv.verdict}
                        for hv in dec.per_hyperplane],
        "decomposition_tags": list(dec.decomposition_tags),
        "inertia_tags": list(dec.inertia_tags),
    }, lines)
    return EXIT_OK


def cmd_relate(args) -> int:
    spec = _spec(args)
    ctx = spec.k0
    algebra = spec.algebra()
    names = {
        "__int__": lambda v: algebra.const(v),
        "T": algebra.const(RatFunc.variable(ctx)),
        "y": algebra.y(),
    }
    if ctx.s > 1:
        names[ctx.generator_name] = algebra.const(ctx.gen())
    z = parse_with_names(args.z, names)
    subgroup = []
    if args.fix:
        subgroup = [parse_element(ctx, part) for part in args.fix.split(",")]
    rel = asext.generator_relation(spec, z, subgroup)
    ds = pf_string(rel.D)
    formula = rel.formula(ds)
    lines = [f"z = {formula}",
             "subgroup: " + " ".join(str(x) for x in rel.subgroup),
             "mu basis: " + " ".join(str(x) for x in rel.mu_basis)]
    _emit(args, {
        "formula": formula,
        "A": [str(a) for a in rel.A],
        "D": ds,
        "subgroup": [str(x) for x in rel.subgroup],
        "mu_basis": [str(x) for x in rel.mu_basis],
    }, lines)
    return EXIT_OK


def cmd_combine(args) -> int:
    ctx = _field(args)
    gammas = [parse_ratfunc(ctx, g) for g in args.gamma]
    mus = [parse_element(ctx, m) for m in args.mu]
    comb = asext.combine_generators(ctx, gammas, mus)
    spec = comb.spec
    v_inf = place_valuation(spec.u, Place.infinite())
    report = asext.ramification_report(spec)
    dec = asext.place_decomposition(spec, Place.infinite())
    u, formula = pf_string(spec.u), comb.formula()
    lines = [f"u: {u}", f"y = {formula}",
             f"v_inf(u) = {v_inf}", _infinity_line(report.infinity, detail=False),
             f"assembled at infinity: e={dec.e} f={dec.f} g={dec.g}"]
    _emit(args, {
        "u": u, "formula": formula, "v_inf": v_inf,
        "infinity": _infinity_json(report.infinity),
        "assembled": {"e": dec.e, "f": dec.f, "g": dec.g},
    }, lines)
    return EXIT_OK


# ---------------------------------------------------------------------------
# witt commands
# ---------------------------------------------------------------------------


def _witt_ring(args):
    """(constant field, length-m tables) of a witt command."""
    ctx = _field(args)
    return ctx, build_tables(ctx.p, args.m)


def _witt_binop(args, op: str) -> int:
    ctx, tables = _witt_ring(args)
    a = _rat_vec(tables, ctx, args.a)
    b = _rat_vec(tables, ctx, args.b)
    res = witt_arith(op, a, b)
    return _emit_witt_result(args, {"a": _fmt_vec(a), "b": _fmt_vec(b)}, res)


def cmd_witt_wp(args) -> int:
    ctx, tables = _witt_ring(args)
    x = _rat_vec(tables, ctx, args.x)
    q = ctx.p if args.q is None else args.q
    return _emit_witt_result(args, {"x": _fmt_vec(x), "q": q}, asw_operator(x, q))


def cmd_witt_reduce(args) -> int:
    ctx, tables = _witt_ring(args)
    spec = WittExtensionSpec(tables, args.q, _rat_vec(tables, ctx, args.alpha))
    log, _ = witt_reduce(spec, descend=args.descend)
    return _emit_reduction(args, log, "alpha", "theta", _fmt_vec)


def cmd_witt_subext(args) -> int:
    ctx, tables = _witt_ring(args)
    xi = _const_vec(tables, ctx, args.xi)
    alpha = _rat_vec(tables, ctx, args.alpha)
    sub = cyclic_subextension(xi, alpha, args.q)
    lines = [f"z = {sub.formula()}", f"rhs: {_fmt_vec(sub.rhs)}",
             f"full degree: {sub.full_degree}"]
    _emit(args, {"generator": sub.formula(), "rhs": _fmt_vec(sub.rhs),
                 "xi": _fmt_vec(xi), "full_degree": sub.full_degree}, lines)
    return EXIT_OK


def cmd_witt_relate(args) -> int:
    ctx, tables = _witt_ring(args)
    alpha = WittExtensionSpec(tables, args.q, _rat_vec(tables, ctx, args.alpha))
    beta = WittExtensionSpec(tables, args.q, _rat_vec(tables, ctx, args.beta))
    xi_targets = [_const_vec(tables, ctx, t) for t in args.xi]
    rel = witt_generator_relation(alpha, beta, xi_targets)
    lines = [f"z = {rel.formula()}", f"D: {_fmt_vec(rel.D)}",
             "mu basis: " + " ".join(str(x) for x in rel.mus)]
    _emit(args, {
        "formula": rel.formula(),
        "A": [_fmt_vec(a) for a in rel.A],
        "D": _fmt_vec(rel.D),
        "mu_basis": [str(x) for x in rel.mus],
    }, lines)
    return EXIT_OK


def cmd_witt_infty(args) -> int:
    ctx, tables = _witt_ring(args)
    gamma = _rat_vec(tables, ctx, args.gamma)
    if args.q is not None:
        full = witt_infinity_full_split(gamma, args.q)
        lines = [f"fully split: {full}"]
        _emit(args, {"gamma": _fmt_vec(gamma), "q": args.q,
                     "fully_split": full}, lines)
        return EXIT_OK
    e, f, g = witt_infinity_splitting(gamma)
    lines = [f"e={e} f={f} g={g}"]
    _emit(args, {"gamma": _fmt_vec(gamma), "e": e, "f": f, "g": g}, lines)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify commands
# ---------------------------------------------------------------------------


def _check_range(name: str, value: int, cap: int | None = None) -> None:
    """An option that counts items must lie in 1..cap: zero items check nothing."""
    if value < 1:
        raise AspwError(f"{name} must be at least 1, got {value}")
    if cap is not None and value > cap:
        raise AspwError(f"{name} must be at most {cap}, got {value}")


def _verify_emit(args, report: dict) -> int:
    lines = [f"{report['claim']}: {report['verdict']}"]
    if "witness" in report:
        lines.append(f"witness: {report['witness']}")
    _emit(args, report, lines)
    return EXIT_OK if report["verdict"] == "pass" else EXIT_DISAGREE


def _exhaustive_emit(args, claim: str, parameters: dict, ok: bool, witness) -> int:
    """Report an exhaustive check: no seed, a verdict and any witness."""
    report = {"claim": claim, "parameters": parameters, "mode": "exhaustive",
              "seed": None, "verdict": "pass" if ok else "fail"}
    if witness is not None:
        report["witness"] = str(witness)
    return _verify_emit(args, report)


def cmd_verify_lemma62(args) -> int:
    ok, witness = oracle.verify_lemma_62(args.q, args.m)
    return _exhaustive_emit(args, "scaled-image equivalence",
                            {"q": args.q, "m": args.m}, ok, witness)


def cmd_verify_eqstar(args) -> int:
    ctx = _field(args)
    # before parsing f builds the field's arithmetic tables
    oracle.check_verification_cap(ctx.order())
    f = parse_additive(ctx, args.f)
    ok, witness = oracle.verify_eq_star(f, ctx)
    return _exhaustive_emit(args, "image intersection identity",
                            {"field_order": ctx.order(), "f": args.f}, ok, witness)


def cmd_verify_axioms(args) -> int:
    _check_range("--samples", args.samples, MAX_SAMPLES)
    ctx = _field(args) if args.field else None
    report = oracle.witt_axiom_sampler(args.p, args.m, ctx=ctx,
                                       rational=args.rational,
                                       samples=args.samples, seed=args.seed)
    return _verify_emit(args, report)


def _oracle_check(places, spec):
    """(places checked, disagreements) for one spec; module level so that
    worker processes can unpickle it."""
    found = []
    # u is in lowest terms, so u is regular at P exactly when P does not divide u.den
    regular = [pl for pl in places if (spec.u.den % pl.poly).coeffs]
    values = [oracle.residue_field(spec.k0, pl.degree()).value(spec.u, pl) for pl in regular]
    for pl, val, layers, dec in zip(regular, values,
                                    oracle.layer_oracle(spec, regular, values),
                                    asext.place_decompositions(spec, regular)):
        direct = oracle.splitting_oracle(spec, pl, val)
        split = dec.g == spec.f.q
        if direct != (spec.f.q if split else 0):
            verdict = "ramified" if dec.e > 1 else "split" if split else "inert"
            found.append({"u": pf_string(spec.u), "place": str(pl),
                          "direct_count": direct, "verdict": verdict})
        for hv, splits in zip(dec.per_hyperplane, layers):
            if splits != (hv.verdict == "split"):
                found.append({"u": pf_string(spec.u), "place": str(pl),
                              "hyperplane": hv.hyperplane.label(),
                              "direct": "split" if splits else "inert",
                              "verdict": hv.verdict})
    return len(regular), found


def cmd_verify_oracle(args) -> int:
    _check_range("--jobs", args.jobs)
    _check_range("--n", args.n)
    _check_range("--count", args.count, MAX_COUNT)
    _check_range("--max-degree", args.max_degree)
    ctx = _field(args)
    # the draws below enumerate the field
    oracle.check_verification_cap(ctx.order())
    check_degree(ctx.p, args.n, "additive polynomial")
    f = AdditivePoly.frobenius_minus_id(ctx, args.n)
    rng = random.Random(args.seed)
    els = list(ctx.elements())
    specs = []
    while len(specs) < args.count:
        num = Poly(ctx, [rng.choice(els) for _ in range(rng.randrange(1, 5))])
        den = Poly(ctx, [rng.choice(els) for _ in range(rng.randrange(1, 4))])
        if num.is_zero() or den.is_zero():
            continue
        u = RatFunc(num, den)
        spec = asext.ExtensionSpec(f, u, ctx)
        if not asext.check_irreducible(spec):
            continue
        specs.append(spec)
    # before listing every place of a degree that cannot be checked
    oracle.check_residue_cap(ctx.order(), args.max_degree)
    # each degree's places come with their roots, which prove them
    # irreducible; a worker process builds its own residue fields once
    places = [pl for d in range(1, args.max_degree + 1)
              for pl in oracle.residue_field(ctx, d).places()]

    check = functools.partial(_oracle_check, places)
    # the checks are pure Python, so only processes run them in parallel;
    # a pool starts all its workers at once, hence the cap
    workers = min(args.jobs, len(specs), os.cpu_count() or 1)
    if workers > 1:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers,
                                 mp_context=multiprocessing.get_context("spawn")) as ex:
            results = list(ex.map(check, specs))
    else:
        results = [check(s) for s in specs]
    checked = sum(r[0] for r in results)
    disagreements = [d for r in results for d in r[1]]
    report = {
        "claim": "splitting verdicts match the direct count",
        "parameters": {"field_order": ctx.order(), "n": args.n,
                       "count": args.count, "max_degree": args.max_degree},
        "mode": "sampled",
        "seed": args.seed,
        "checked": checked,
        "verdict": "pass" if not disagreements else "fail",
    }
    if disagreements:
        report["witness"] = disagreements
    return _verify_emit(args, report)


# ---------------------------------------------------------------------------
# argument tree
# ---------------------------------------------------------------------------


def _base(sp, name, fn, help_text):
    cmd = sp.add_parser(name, help=help_text)
    # the command's words after "aspw", as its usage line shows them
    cmd.set_defaults(fn=fn, command_path=cmd.prog.partition(" ")[2])
    cmd.add_argument("--json", action="store_true",
                     help="emit one sorted JSON document")
    return cmd


def _spec_args(cmd):
    cmd.add_argument("--field", required=True,
                     help='constant field, e.g. "p=3,s=3,mod=x^3-x-2"')
    cmd.add_argument("--f", required=True,
                     help='additive polynomial, "X^27-X" or "[a0,...,1]"')
    cmd.add_argument("--u", required=True, help="right-hand side in T")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aspw",
        description="Additive-polynomial extensions of rational function "
                    "fields: reduction, ramification, splitting, generator "
                    "relations, Witt vector arithmetic.")
    sub = parser.add_subparsers(dest="command", required=True)

    cmd = _base(sub, "reduce", cmd_reduce, "global reduced form of the rhs")
    _spec_args(cmd)
    cmd.add_argument("--descend", action="store_true",
                     help="also lower p-th-power right sides (q-power form)")

    cmd = _base(sub, "ramify", cmd_ramify, "ramified places with exponents")
    _spec_args(cmd)

    cmd = _base(sub, "subext", cmd_subext, "all degree-p subextensions")
    _spec_args(cmd)

    cmd = _base(sub, "split", cmd_split, "(e,f,g) at one place")
    _spec_args(cmd)
    cmd.add_argument("--place", required=True,
                     help='monic irreducible in T, or "inf"')

    cmd = _base(sub, "relate", cmd_relate,
                "express an algebra element through the generator")
    _spec_args(cmd)
    cmd.add_argument("--z", required=True,
                     help='algebra element, e.g. "y^9+y^3 + 1/T"')
    cmd.add_argument("--fix", default="",
                     help='comma list of roots spanning the fixed subgroup')

    cmd = _base(sub, "combine", cmd_combine,
                "one equation for a compositum of degree-p extensions")
    cmd.add_argument("--field", required=True)
    cmd.add_argument("--gamma", action="append", required=True,
                     help="rhs of one degree-p piece (repeatable)")
    cmd.add_argument("--mu", action="append", required=True,
                     help="independent multiplier for one piece (repeatable)")

    wparser = sub.add_parser("witt", help="Witt vector operations")
    wsub = wparser.add_subparsers(dest="witt_command", required=True)

    def _wbase(name, fn, help_text, q_required=False):
        c = _base(wsub, name, fn, help_text)
        c.add_argument("--field", default=None,
                       help="constant field (default: prime field of --p)")
        c.add_argument("--p", type=int, default=None, help="characteristic")
        c.add_argument("--m", type=int, required=True, help="vector length")
        if q_required:
            c.add_argument("--q", type=int, required=True,
                           help="power of p cutting out the operator")
        return c

    for op, help_text in (("add", "vector sum"), ("mul", "vector product")):
        c = _wbase(op, functools.partial(_witt_binop, op=op), help_text)
        c.add_argument("a")
        c.add_argument("b")
    c = _wbase("wp", cmd_witt_wp, "q-power operator x -> x^q - x")
    c.add_argument("--q", type=int, default=None,
                   help="power of p (default: the characteristic)")
    c.add_argument("x")
    c = _wbase("reduce", cmd_witt_reduce,
               "reduced right-hand-side vector", q_required=True)
    c.add_argument("--descend", action="store_true",
                   help="also lower componentwise p-th-power vectors")
    c.add_argument("alpha")
    c = _wbase("subext", cmd_witt_subext,
               "cyclic subextension cut out by a multiplier", q_required=True)
    c.add_argument("--xi", required=True, help="Galois-ring multiplier")
    c.add_argument("alpha")
    c = _wbase("relate", cmd_witt_relate,
               "express one generator through another", q_required=True)
    c.add_argument("--xi", action="append", required=True,
                   help="target multiplier per basis translation (repeatable)")
    c.add_argument("alpha")
    c.add_argument("beta")
    c = _wbase("infty", cmd_witt_infty, "splitting of the infinite place")
    c.add_argument("--q", type=int, default=None,
                   help="full-split test against this q-power form")
    c.add_argument("gamma")

    vparser = sub.add_parser("verify", help="independent oracle checks")
    vsub = vparser.add_subparsers(dest="verify_command", required=True)

    c = _base(vsub, "lemma62", cmd_verify_lemma62,
              "scaled-image equivalence over F_{q^m}, exhaustively")
    c.add_argument("--q", type=int, required=True)
    c.add_argument("--m", type=int, required=True)

    c = _base(vsub, "eqstar", cmd_verify_eqstar,
              "image intersection identity for one additive polynomial")
    c.add_argument("--field", required=True)
    c.add_argument("--f", required=True)

    c = _base(vsub, "axioms", cmd_verify_axioms,
              "Witt ring axioms and Frobenius identities")
    c.add_argument("--field", default=None)
    c.add_argument("--p", type=int, required=True)
    c.add_argument("--m", type=int, required=True)
    c.add_argument("--rational", action="store_true",
                   help="sample rational-function components")
    c.add_argument("--samples", type=int, default=200)
    c.add_argument("--seed", type=int, default=0)

    c = _base(vsub, "oracle", cmd_verify_oracle,
              "splitting verdicts against the direct residue count")
    c.add_argument("--field", required=True)
    c.add_argument("--n", type=int, default=2,
                   help="rank of the root group: f = X^(p^n) - X")
    c.add_argument("--count", type=int, default=50,
                   help="random specs to draw")
    c.add_argument("--max-degree", type=int, default=2)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--jobs", type=int, default=1,
                   help="worker processes checking the specs, at most one per "
                        "spec and per CPU")

    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    # built once per process: a parser is thousands of objects in reference
    # cycles, which only the cyclic garbage collector would free
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except AspwError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
